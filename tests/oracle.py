"""The reference implementations every differential test compares against.

* **The recursive evaluator** of the paper's §4: ``ts`` / ``ots`` in both of
  the paper's formulations (:class:`EvaluationMode`: the logical case
  analysis and the algebraic sums of products of the unit step ``u``), the
  lift of an instance-oriented sub-expression into a set context,
  :func:`evaluate`, :func:`is_active`, the event formulas' binding sets
  (:func:`active_objects`, :func:`activation_instants`) and the exact
  triggering predicate :func:`is_triggered` (§4.5), which samples every
  distinct stamp of the window.  ``src/`` has one evaluator, the compiled
  shape kernels of :mod:`repro.core.compile`; this one re-derives every value
  node by node, counts its work (:class:`EvaluationStats`) and is what the
  compiled ``ts`` / ``ots`` / check / formulas are pinned equal to.

  The oracle reads rows, not indexes.  Each top-level call copies the
  window's occurrences once (:class:`_Rows`), and every primitive lookup,
  lifted object set and sampled stamp is a scan of them that matches types
  with :meth:`EventType.matches`.  The kernels bisect the Event Base's
  per-type columns instead, so a fault in those columns shows up as a
  difference, never on both sides of one.
* :class:`OracleTriggerSupport` swaps :func:`is_triggered` in at the one
  evaluation kernel of :class:`TriggerSupport` (nothing else — planning,
  decision apply and every counter are the engine's own), so a whole
  scenario can be replayed engine-vs-oracle.  ``mode`` picks which of the
  paper's two formulations the oracle evaluates; the engine compiles one
  combine set, which must equal both.

  The oracle samples every distinct stamp of the window; the compiled check
  samples only the stamps where ``ts`` can change sign (the window's first
  stamp and the stamps of the expression's own types).  The decision the
  oracle reports carries :func:`restricted_samples` as its
  ``instants_sampled`` — the compiled check's count, made from the log rows
  alone.
* :func:`reference_parse_expression` is the nine-level recursive-descent
  parser that :mod:`repro.core.parser`'s precedence climbing replaced; the
  parser differential (``tests/core/test_parser.py``) pins the two to the
  same trees and the same errors.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Iterable

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
from repro.errors import EvaluationError, ExpressionSyntaxError
from repro.events.clock import Timestamp
from repro.events.event import EventType, Operation
from repro.events.event_base import BoundedView, EventBase, WindowLike
from repro.rules.trigger_support import TriggerSupport

# ---------------------------------------------------------------------------
# The window R, read as rows
# ---------------------------------------------------------------------------

#: ``_Rows.last``'s "any object": an OID no row carries.
_ANY = object()


class _Rows:
    """The rows of a window ``R``, in log order, and scans over them.

    The one view of ``R`` the interpreter has: the window's occurrences
    copied once (the Event Base's whole log or a view's slice) into columns.
    A pattern is matched with :meth:`EventType.matches` against each distinct
    type object of the window, once per pattern; a lookup then scans the
    rows.  Types are keyed by identity, which hashes in C (an equal type held
    by another object is matched on its own).  Log order never decreases in
    time stamp, so the latest row up to an instant is the first match of a
    backward scan from there.
    """

    __slots__ = ("_stamps", "_types", "_oids", "_present", "_matched")

    def __init__(self, window: WindowLike) -> None:
        rows = tuple(window)
        types = [row.event_type for row in rows]
        self._stamps = [row.timestamp for row in rows]
        self._types = list(map(id, types))
        self._oids = [row.oid for row in rows]
        self._present = dict(zip(self._types, types))
        self._matched: dict[EventType, set[int]] = {}

    def __len__(self) -> int:
        return len(self._stamps)

    def _matching(self, pattern: EventType) -> set[int]:
        """The identities of the window's types that ``pattern`` matches."""
        matched = self._matched.get(pattern)
        if matched is None:
            matched = self._matched[pattern] = {
                key
                for key, event_type in self._present.items()
                if pattern.matches(event_type)
            }
        return matched

    def last(
        self, pattern: EventType, instant: Timestamp, oid: Any = _ANY
    ) -> Timestamp | None:
        """The latest stamp up to ``instant`` of a row matching ``pattern``
        (on ``oid``, when one is given), or None."""
        matched = self._matching(pattern)
        if matched:
            stamps, types, oids = self._stamps, self._types, self._oids
            position = bisect_right(stamps, instant)
            while position:
                position -= 1
                if types[position] in matched and (
                    oid is _ANY or oids[position] == oid
                ):
                    return stamps[position]
        return None

    def objects(self, patterns: Iterable[EventType], instant: Timestamp) -> set[Any]:
        """The OIDs of the rows up to ``instant`` matching any of ``patterns``."""
        matched = set().union(*map(self._matching, patterns))
        return {
            oid
            for stamp, key, oid in zip(self._stamps, self._types, self._oids)
            if stamp <= instant and key in matched
        }

    def oids(self) -> set[Any]:
        """The OID of every row."""
        return set(self._oids)

    def stamps(self, lower: Timestamp | None = None) -> list[Timestamp]:
        """The distinct stamps above ``lower`` (every one for None), sorted."""
        distinct = sorted(set(self._stamps))
        return distinct if lower is None else distinct[bisect_right(distinct, lower) :]


# ---------------------------------------------------------------------------
# The ts value domain and the unit step u
# ---------------------------------------------------------------------------


def unit_step(value: int) -> int:
    """The paper's ``u`` function: 1 for positive arguments, 0 otherwise.

    ``u(ts(E, t))`` is the occurrence predicate ``occ(E, t)`` in numeric form;
    the algebraic semantics of every operator is written as products and sums
    of ``u`` terms.
    """
    return 1 if value > 0 else 0


@dataclass(frozen=True)
class TsValue:
    """A ``ts`` (or ``ots``) value together with the instant it refers to."""

    value: int
    instant: Timestamp

    @property
    def is_active(self) -> bool:
        """True when the expression is active at :attr:`instant`."""
        return self.value > 0

    @property
    def activation_timestamp(self) -> Timestamp | None:
        """The activation time stamp, or None when the expression is inactive."""
        return self.value if self.value > 0 else None

    def __bool__(self) -> bool:
        return self.is_active

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        if self.is_active:
            return f"active@t{self.value} (evaluated at t{self.instant})"
        return f"inactive (evaluated at t{self.instant})"


class EvaluationMode(Enum):
    """Which of the paper's two equivalent formulations drives the evaluator."""

    LOGICAL = "logical"
    ALGEBRAIC = "algebraic"


@dataclass
class EvaluationStats:
    """Counters describing the work done by the reference evaluator.

    They measure work in counts rather than time: node visits, primitive
    look-ups, lifted objects and point evaluations (one per ``ts`` / ``ots``
    call).  The compiled kernels count none of them; the oracle's own tests
    read them.
    """

    node_visits: int = 0
    primitive_lookups: int = 0
    lifted_objects: int = 0
    evaluations: int = 0

    def merge(self, other: "EvaluationStats") -> None:
        """Accumulate another stats record into this one."""
        self.node_visits += other.node_visits
        self.primitive_lookups += other.primitive_lookups
        self.lifted_objects += other.lifted_objects
        self.evaluations += other.evaluations

    def reset(self) -> None:
        """Zero every counter."""
        self.node_visits = 0
        self.primitive_lookups = 0
        self.lifted_objects = 0
        self.evaluations = 0


_NULL_STATS = EvaluationStats()


# ---------------------------------------------------------------------------
# Set-oriented semantics
# ---------------------------------------------------------------------------


def ts(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> int:
    """The set-oriented ``ts`` function of the paper, as a raw signed integer.

    ``window`` is the occurrence set ``R`` the calculus applies to; ``instant``
    is the evaluation time ``t``.  The result is positive (an activation time
    stamp) when the expression is active and ``-t`` otherwise.
    """
    return _checked_ts(expression, _Rows(window), instant, mode, stats)


def _checked_ts(
    expression: EventExpression,
    window: _Rows,
    instant: Timestamp,
    mode: EvaluationMode,
    stats: EvaluationStats | None,
) -> int:
    """One counted ``ts`` evaluation over rows already read."""
    if instant <= 0:
        raise EvaluationError(
            f"ts must be evaluated at a positive instant (got {instant})"
        )
    recorder = stats if stats is not None else _NULL_STATS
    recorder.evaluations += 1
    return _ts(expression, window, instant, mode, recorder)


def _ts(
    expression: EventExpression,
    window: _Rows,
    instant: Timestamp,
    mode: EvaluationMode,
    stats: EvaluationStats,
) -> int:
    stats.node_visits += 1

    if isinstance(expression, Primitive):
        stats.primitive_lookups += 1
        last = window.last(expression.event_type, instant)
        return last if last is not None else -instant

    if isinstance(expression, SetNegation):
        return -_ts(expression.operand, window, instant, mode, stats)

    if isinstance(expression, SetConjunction):
        left = _ts(expression.left, window, instant, mode, stats)
        right = _ts(expression.right, window, instant, mode, stats)
        return _combine_conjunction(left, right, mode)

    if isinstance(expression, SetDisjunction):
        left = _ts(expression.left, window, instant, mode, stats)
        right = _ts(expression.right, window, instant, mode, stats)
        return _combine_disjunction(left, right, mode)

    if isinstance(expression, SetPrecedence):
        right = _ts(expression.right, window, instant, mode, stats)
        if right > 0:
            left_at_right = _ts(expression.left, window, right, mode, stats)
        else:
            # u(ts(B, t)) = 0 annihilates the whole positive term, so the value
            # of ts(A, ts(B, t)) is irrelevant; skip the ill-defined nested
            # evaluation at a non-positive instant.
            left_at_right = -instant
        return _combine_precedence(right, left_at_right, instant, mode)

    # Instance-oriented sub-expression inside a set-oriented context: lift it
    # over the objects mentioned by the window (paper §4.4, "ots to ts").
    if expression.is_instance_oriented:
        return _lift(expression, window, instant, mode, stats)

    raise EvaluationError(f"cannot evaluate node of type {type(expression).__name__}")


def _combine_conjunction(left: int, right: int, mode: EvaluationMode) -> int:
    if mode is EvaluationMode.ALGEBRAIC:
        both = unit_step(left) * unit_step(right)
        return min(left, right) * (1 - both) + max(left, right) * both
    if left > 0 and right > 0:
        return max(left, right)
    return min(left, right)


def _combine_disjunction(left: int, right: int, mode: EvaluationMode) -> int:
    if mode is EvaluationMode.ALGEBRAIC:
        neither = unit_step(-left) * unit_step(-right)
        return max(left, right) * (1 - neither) + min(left, right) * neither
    if left > 0 or right > 0:
        return max(left, right)
    return min(left, right)


def _combine_precedence(
    right: int, left_at_right: int, instant: Timestamp, mode: EvaluationMode
) -> int:
    if mode is EvaluationMode.ALGEBRAIC:
        satisfied = unit_step(right) * unit_step(left_at_right)
        return -instant * (1 - satisfied) + right * satisfied
    if right > 0 and left_at_right > 0:
        return right
    return -instant


# ---------------------------------------------------------------------------
# Instance-oriented semantics
# ---------------------------------------------------------------------------


def ots(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> int:
    """The instance-oriented ``ots`` function for object ``oid``.

    Only primitives and instance-oriented operators may appear in the
    expression (the paper forbids set-oriented operators below instance ones).
    """
    return _checked_ots(expression, _Rows(window), instant, oid, mode, stats)


def _checked_ots(
    expression: EventExpression,
    window: _Rows,
    instant: Timestamp,
    oid: Any,
    mode: EvaluationMode,
    stats: EvaluationStats | None,
) -> int:
    """One counted ``ots`` evaluation over rows already read."""
    if instant <= 0:
        raise EvaluationError(
            f"ots must be evaluated at a positive instant (got {instant})"
        )
    if not expression.may_be_instance_operand():
        raise EvaluationError(
            "ots is only defined for instance-oriented expressions "
            f"(got a set-oriented operator in {expression})"
        )
    recorder = stats if stats is not None else _NULL_STATS
    recorder.evaluations += 1
    return _ots(expression, window, instant, oid, mode, recorder)


def _ots(
    expression: EventExpression,
    window: _Rows,
    instant: Timestamp,
    oid: Any,
    mode: EvaluationMode,
    stats: EvaluationStats,
) -> int:
    stats.node_visits += 1

    if isinstance(expression, Primitive):
        stats.primitive_lookups += 1
        last = window.last(expression.event_type, instant, oid)
        return last if last is not None else -instant

    if isinstance(expression, InstanceNegation):
        return -_ots(expression.operand, window, instant, oid, mode, stats)

    if isinstance(expression, InstanceConjunction):
        left = _ots(expression.left, window, instant, oid, mode, stats)
        right = _ots(expression.right, window, instant, oid, mode, stats)
        return _combine_conjunction(left, right, mode)

    if isinstance(expression, InstanceDisjunction):
        left = _ots(expression.left, window, instant, oid, mode, stats)
        right = _ots(expression.right, window, instant, oid, mode, stats)
        return _combine_disjunction(left, right, mode)

    if isinstance(expression, InstancePrecedence):
        right = _ots(expression.right, window, instant, oid, mode, stats)
        if right > 0:
            left_at_right = _ots(expression.left, window, right, oid, mode, stats)
        else:
            left_at_right = -instant
        return _combine_precedence(right, left_at_right, instant, mode)

    raise EvaluationError(
        f"set-oriented operator {type(expression).__name__} cannot appear in an "
        "instance-oriented evaluation"
    )


def _lift(
    expression: EventExpression,
    window: _Rows,
    instant: Timestamp,
    mode: EvaluationMode,
    stats: EvaluationStats,
) -> int:
    """Lift an instance-oriented expression to the set level (paper §4.4).

    Conjunction, disjunction and precedence are existential over objects ("at
    least one object affected by ..."): the lifted value is the maximum ``ots``
    over the candidate objects.  Instance negation is universal ("no object
    ..."): the lifted value is the minimum ``ots``, positive exactly when the
    negation holds for every candidate.  The candidates are the objects
    affected, within the window, by occurrences of the event types the
    sub-expression mentions — an object about which none of those events
    happened is not "affected by" the composite event (and ranging over
    unrelated objects would otherwise let a fresh, untouched object vacuously
    satisfy negation-only conjunctions).  An empty candidate set makes
    existential lifts inactive and negation vacuously active.
    """
    oids = window.objects(expression.event_types(), instant)
    stats.lifted_objects += len(oids)
    if isinstance(expression, InstanceNegation):
        if not oids:
            return instant
        return min(_ots(expression, window, instant, oid, mode, stats) for oid in oids)
    if not oids:
        return -instant
    return max(_ots(expression, window, instant, oid, mode, stats) for oid in oids)


# ---------------------------------------------------------------------------
# Public wrappers
# ---------------------------------------------------------------------------


def evaluate(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any | None = None,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> TsValue:
    """Evaluate an expression and wrap the result in a :class:`TsValue`.

    With ``oid=None`` this is the set-oriented ``ts``; with an OID it is the
    instance-oriented ``ots`` for that object.
    """
    if oid is None:
        value = ts(expression, window, instant, mode, stats)
    else:
        value = ots(expression, window, instant, oid, mode, stats)
    return TsValue(value=value, instant=instant)


def is_active(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any | None = None,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
) -> bool:
    """Convenience: True when the expression is active at ``instant``."""
    return evaluate(expression, window, instant, oid=oid, mode=mode).is_active


def active_objects(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    candidates: Iterable[Any] | None = None,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> set[Any]:
    """Objects for which an instance-oriented expression is active.

    This is the binding set computed by the ``occurred`` event formula: the
    OIDs affected by the specified (instance-oriented) event expression within
    the window.  ``candidates`` defaults to every OID mentioned by the window.
    The instant and the expression are validated once, not once per OID.
    """
    if instant <= 0:
        raise EvaluationError(
            f"ots must be evaluated at a positive instant (got {instant})"
        )
    if not expression.may_be_instance_operand():
        raise EvaluationError(
            "occurred/active_objects only accept instance-oriented expressions "
            f"(got {expression})"
        )
    rows = _Rows(window)
    pool = set(candidates) if candidates is not None else rows.oids()
    recorder = stats if stats is not None else _NULL_STATS
    recorder.evaluations += len(pool)
    return {
        oid for oid in pool if _ots(expression, rows, instant, oid, mode, recorder) > 0
    }


def activation_instants(
    expression: EventExpression,
    window: WindowLike,
    oid: Any,
    until: Timestamp,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
) -> list[Timestamp]:
    """Instants at which the expression *arises* for ``oid`` (the ``at`` formula).

    An expression arises at ``t*`` when its ``ots`` evaluated at ``t*`` equals
    ``t*`` itself — i.e. the composite event occurs exactly then.  Candidate
    instants are the distinct time stamps present in the window; for the
    paper's example (a creation followed by two quantity updates, queried with
    ``create(stock) <= modify(stock.quantity)``) this yields exactly the two
    update instants.
    """
    rows = _Rows(window)
    instants: list[Timestamp] = []
    for candidate in rows.stamps():
        if candidate > until:
            break
        if _checked_ots(expression, rows, candidate, oid, mode, None) == candidate:
            instants.append(candidate)
    return instants


# ---------------------------------------------------------------------------
# The triggering predicate T(r, t), sampled at every distinct stamp
# ---------------------------------------------------------------------------


def is_triggered(
    expression: EventExpression,
    event_base: WindowLike,
    last_consideration: Timestamp | None,
    now: Timestamp,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
    memo: TriggerMemo | None = None,
) -> TriggeringDecision:
    """Exact evaluation of the triggering predicate ``T(r, t)``.

    ``event_base`` may be the full EB (the view ``(last_consideration, now]``
    is carved out of it) or an already-built view.  The existential over
    ``t1`` is decided by sampling every distinct time stamp in the window
    plus ``now``.

    When ``memo`` is given *and* ``event_base`` is the EB itself, the check is
    incremental: instants the memo proves were already sampled negative are
    skipped, and the memo is updated to cover this check.  The memo is ignored
    (left untouched) for pre-built views, whose relation to previous checks
    is unknown.
    """
    window = _Rows(_as_window(event_base, last_consideration, now))
    if not window:
        return TriggeringDecision(False, None, None, 0)
    incremental = memo is not None and isinstance(event_base, EventBase)
    lower: Timestamp | None = None
    if incremental and memo.covers(last_consideration):
        lower = memo.last_sampled
        if memo.seen_events < len(event_base):
            # Occurrences appended since the previous check: they always sit
            # at the tail of the log (non-decreasing order), so the earliest
            # of them bounds how far the frontier may need to rewind.  A tie
            # with an already-sampled stamp re-opens that stamp for sampling.
            first_new = event_base.occurrence_at(memo.seen_events).timestamp
            if first_new <= lower:
                lower = first_new - 1
    candidates = [stamp for stamp in window.stamps(lower) if stamp <= now]
    if not candidates or candidates[-1] != now:
        candidates.append(now)
    sampled = 0
    for instant in candidates:
        sampled += 1
        value = _checked_ts(expression, window, instant, mode, stats)
        if value > 0:
            if incremental:
                memo.clear()
            return TriggeringDecision(True, instant, value, len(window), sampled)
    if incremental:
        memo.record(last_consideration, now, len(event_base))
    return TriggeringDecision(False, None, None, len(window), sampled)


def _as_window(
    event_base: WindowLike,
    last_consideration: Timestamp | None,
    now: Timestamp,
) -> BoundedView:
    if isinstance(event_base, BoundedView):
        return event_base
    return event_base.view(after=last_consideration, until=now)


# ---------------------------------------------------------------------------
# The reference Trigger Support
# ---------------------------------------------------------------------------


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
