"""The reference Trigger Support: every exact check through ``is_triggered``.

Production evaluates exact checks only through the shape kernels of
:mod:`repro.core.compile`.  The recursive evaluator of
:mod:`repro.core.evaluation` + :func:`repro.core.triggering.is_triggered` is
the oracle those kernels are pinned to; this subclass swaps it in at the one
evaluation kernel of :class:`TriggerSupport` (nothing else — planning,
decision apply and every counter are the engine's own), so a whole scenario
can be replayed engine-vs-oracle.  ``mode`` picks which of the paper's two
formulations the oracle evaluates; the engine compiles one combine set,
which must equal both.

The oracle samples every distinct stamp of the window; the compiled check
samples only the stamps where ``ts`` can change sign (the window's first
stamp and the stamps of the expression's own types).  The decision the
oracle reports carries :func:`restricted_samples` as its
``instants_sampled`` — the compiled check's count, made from the log rows
alone.

:func:`reference_parse_expression` is the nine-level recursive-descent
parser that :mod:`repro.core.parser`'s precedence climbing replaced; the
parser differential (``tests/core/test_parser.py``) pins the two to the same
trees and the same errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from repro.core.evaluation import EvaluationMode
from repro.core.expressions import (
    EventExpression,
    InstanceConjunction,
    InstanceDisjunction,
    InstanceNegation,
    InstancePrecedence,
    Primitive,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.core.triggering import TriggeringDecision, TriggerMemo
from repro.errors import ExpressionSyntaxError
from repro.events.clock import Timestamp
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.trigger_support import TriggerSupport, is_triggered


def restricted_samples(
    expression: EventExpression,
    event_base: EventBase,
    window_start: Timestamp | None,
    now: Timestamp,
    memo: TriggerMemo,
    decision: TriggeringDecision,
) -> int:
    """How many instants the restricted exact check samples, by brute force.

    ``memo`` is the rule's memo as it stood *before* the check, ``decision``
    the reference's outcome.  Every log row is scanned and matched with
    :meth:`EventType.matches` (no store index, no bisection): the count is the
    distinct stamps of the resume range — ``(window_start, now]`` above the
    memo's frontier — that are the range's first stamp or carry a row of one
    of the expression's types, up to the first positive one.
    """
    rows = list(event_base)
    bound = window_start
    if memo.covers(window_start):
        lower = memo.last_sampled
        if memo.seen_events < len(rows):
            first_new = rows[memo.seen_events].timestamp
            if first_new <= lower:
                lower = first_new - 1
        if bound is None or lower > bound:
            bound = lower
    in_range = [
        row
        for row in rows
        if (bound is None or row.timestamp > bound) and row.timestamp <= now
    ]
    if not in_range:
        return 0
    patterns = expression.event_types()
    stamps = {
        row.timestamp
        for row in in_range
        if any(pattern.matches(row.event_type) for pattern in patterns)
    }
    stamps.add(in_range[0].timestamp)
    if decision.triggered:
        return sum(1 for stamp in stamps if stamp <= decision.instant)
    return len(stamps)


class OracleTriggerSupport(TriggerSupport):
    def __init__(self, *args, mode: EvaluationMode = EvaluationMode.LOGICAL, **kwargs):
        super().__init__(*args, **kwargs)
        self.mode = mode

    def _evaluate_rule(self, state, now, transaction_start):
        window_start = state.trigger_window_start(transaction_start)
        before = replace(state.trigger_memo)
        decision = is_triggered(
            state.rule.events,
            self.event_base,
            window_start,
            now,
            self.mode,
            memo=state.trigger_memo,
        )
        count = restricted_samples(
            state.rule.events, self.event_base, window_start, now, before, decision
        )
        return replace(decision, instants_sampled=count)


# ---------------------------------------------------------------------------
# The reference parser: recursive descent, one method per grammar level
# ---------------------------------------------------------------------------


_REFERENCE_TOKENS = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<OP>,=|\+=|<=|-=|,|\+|<|-)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _ReferenceToken:
    """A lexical token: ``kind`` is IDENT, OP, LPAREN, RPAREN, DOT or END."""

    kind: str
    text: str
    position: int


def reference_tokenize(text: str) -> list[_ReferenceToken]:
    """Split an expression string into tokens, raising on unknown characters."""
    tokens: list[_ReferenceToken] = []
    position = 0
    while position < len(text):
        match = _REFERENCE_TOKENS.match(text, position)
        if match is None:
            raise ExpressionSyntaxError(
                f"unexpected character {text[position]!r}", text, position
            )
        kind = match.lastgroup or ""
        if kind != "WS":
            tokens.append(_ReferenceToken(kind, match.group(), position))
        position = match.end()
    tokens.append(_ReferenceToken("END", "", len(text)))
    return tokens


class _ReferenceParser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = reference_tokenize(text)
        self.index = 0

    # -- token helpers ---------------------------------------------------
    def _peek(self) -> _ReferenceToken:
        return self.tokens[self.index]

    def _advance(self) -> _ReferenceToken:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _accept_op(self, *symbols: str) -> _ReferenceToken | None:
        token = self._peek()
        if token.kind == "OP" and token.text in symbols:
            return self._advance()
        return None

    def _expect(self, kind: str, description: str) -> _ReferenceToken:
        token = self._peek()
        if token.kind != kind:
            raise ExpressionSyntaxError(
                f"expected {description}, found {token.text or 'end of input'!r}",
                self.text,
                token.position,
            )
        return self._advance()

    # -- grammar ----------------------------------------------------------
    def parse(self) -> EventExpression:
        expression = self._set_disjunction()
        trailing = self._peek()
        if trailing.kind != "END":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {trailing.text!r}",
                self.text,
                trailing.position,
            )
        return expression

    def _set_disjunction(self) -> EventExpression:
        expression = self._set_conjunction()
        while self._accept_op(","):
            expression = SetDisjunction(expression, self._set_conjunction())
        return expression

    def _set_conjunction(self) -> EventExpression:
        expression = self._set_unary()
        while True:
            if self._accept_op("+"):
                expression = SetConjunction(expression, self._set_unary())
            elif self._accept_op("<"):
                expression = SetPrecedence(expression, self._set_unary())
            else:
                return expression

    def _set_unary(self) -> EventExpression:
        if self._accept_op("-"):
            return SetNegation(self._set_unary())
        return self._instance_disjunction()

    def _instance_disjunction(self) -> EventExpression:
        expression = self._instance_conjunction()
        while self._accept_op(",="):
            expression = InstanceDisjunction(expression, self._instance_conjunction())
        return expression

    def _instance_conjunction(self) -> EventExpression:
        expression = self._instance_unary()
        while True:
            if self._accept_op("+="):
                expression = InstanceConjunction(expression, self._instance_unary())
            elif self._accept_op("<="):
                expression = InstancePrecedence(expression, self._instance_unary())
            else:
                return expression

    def _instance_unary(self) -> EventExpression:
        if self._accept_op("-="):
            return InstanceNegation(self._instance_unary())
        return self._primary()

    def _primary(self) -> EventExpression:
        token = self._peek()
        if token.kind == "LPAREN":
            self._advance()
            expression = self._set_disjunction()
            self._expect("RPAREN", "')'")
            return expression
        if token.kind == "IDENT":
            return self._primitive()
        raise ExpressionSyntaxError(
            f"expected an event type or '(', found {token.text or 'end of input'!r}",
            self.text,
            token.position,
        )

    def _primitive(self) -> Primitive:
        operation_token = self._expect("IDENT", "an operation name")
        try:
            operation = Operation.from_name(operation_token.text)
        except Exception as exc:
            raise ExpressionSyntaxError(
                str(exc), self.text, operation_token.position
            ) from exc
        self._expect("LPAREN", "'(' after the operation name")
        class_token = self._expect("IDENT", "a class name")
        attribute: str | None = None
        if self._peek().kind == "DOT":
            self._advance()
            attribute = self._expect("IDENT", "an attribute name").text
        self._expect("RPAREN", "')' closing the event type")
        return Primitive(EventType(operation, class_token.text, attribute))


def reference_parse_expression(text: str) -> EventExpression:
    """Parse ``text`` by recursive descent (the reference for the parser)."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty event expression", text, 0)
    return _ReferenceParser(text).parse()
