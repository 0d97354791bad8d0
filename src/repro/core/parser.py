"""Textual parser for composite event expressions.

The concrete syntax follows the paper (Fig. 1):

* primitive event types: ``create(stock)``, ``modify(stock.quantity)``, ...
* set-oriented operators: ``-E`` (negation), ``A + B`` (conjunction),
  ``A < B`` (precedence), ``A , B`` (disjunction);
* instance-oriented operators: the same symbols suffixed with ``=`` —
  ``-=E``, ``A += B``, ``A <= B``, ``A ,= B``;
* parentheses for grouping.

Priorities (decreasing): instance negation, instance conjunction/precedence,
instance disjunction, set negation, set conjunction/precedence, set
disjunction.  Binary operators of equal priority associate to the left.

Parsing climbs :data:`_OPERATORS`, one row per symbol, which is the grammar::

    expression   := set_disj
    set_disj     := set_conj   ( ","  set_conj )*
    set_conj     := set_unary  ( ("+" | "<") set_unary )*
    set_unary    := "-" set_unary | inst_disj
    inst_disj    := inst_conj  ( ",=" inst_conj )*
    inst_conj    := inst_unary ( ("+=" | "<=") inst_unary )*
    inst_unary   := "-=" inst_unary | primary
    primary      := primitive | "(" expression ")"
    primitive    := IDENT "(" IDENT ("." IDENT)? ")"

A well-formed primitive of a known operation is one ``PRIM`` token; any other
is spelled out token by token, and the token it lacks is the error.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from repro.errors import ExpressionSyntaxError
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
from repro.events.event import EventType, Operation, parse_event_type

__all__ = ["parse_expression", "format_expression", "Token", "tokenize"]


_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_OPERATIONS = "|".join(member.value for member in Operation)
_TOKEN_PATTERN = re.compile(
    rf"""
    (?P<WS>\s+)
  | (?P<PRIM>(?i:{_OPERATIONS})\s*\(\s*{_IDENT}\s*(?:\.\s*{_IDENT}\s*)?\))
  | (?P<IDENT>{_IDENT})
  | (?P<OP>,=|\+=|<=|-=|,|\+|<|-)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<DOT>\.)
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)

#: ``symbol -> (priority, node class, prefix?)``, the one operator table.
_OPERATORS: dict[str, tuple[int, type[EventExpression], bool]] = {
    ",": (1, SetDisjunction, False),
    "+": (2, SetConjunction, False),
    "<": (2, SetPrecedence, False),
    "-": (3, SetNegation, True),
    ",=": (4, InstanceDisjunction, False),
    "+=": (5, InstanceConjunction, False),
    "<=": (5, InstancePrecedence, False),
    "-=": (6, InstanceNegation, True),
}

#: The event type of a ``PRIM`` token, built once per distinct text: a rule set
#: names a few thousand types, and the LRU drops the rest.
_event_type = lru_cache(maxsize=1 << 14)(parse_event_type)


class Token(NamedTuple):
    """A lexical token: ``kind`` is PRIM, IDENT, OP, LPAREN, RPAREN, DOT or END."""

    kind: str
    text: str
    position: int


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, position)`` tuples of ``text``, ending with END."""
    tokens = []
    for match in _TOKEN_PATTERN.finditer(text):
        kind = match.lastgroup
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ExpressionSyntaxError(
                f"unexpected character {match.group()!r}", text, match.start()
            )
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("END", "", len(text)))
    return tokens


def tokenize(text: str) -> list[Token]:
    """Split an expression string into tokens, raising on unknown characters."""
    return [Token._make(token) for token in _scan(text)]


def _shown(kind: str, text: str) -> str:
    """A token as an error names it: a ``PRIM`` by its operation name."""
    return text.partition("(")[0].rstrip() if kind == "PRIM" else text


class _Parser:
    """Precedence climbing over the token tuples."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _scan(text)
        self.index = 0

    def _expect(self, kind: str, description: str) -> str:
        token_kind, text, position = self.tokens[self.index]
        if token_kind != kind:
            found = _shown(token_kind, text) or "end of input"
            raise ExpressionSyntaxError(
                f"expected {description}, found {found!r}", self.text, position
            )
        self.index += 1
        return text

    def parse(self) -> EventExpression:
        expression = self._expression(1)
        kind, text, position = self.tokens[self.index]
        if kind != "END":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {_shown(kind, text)!r}", self.text, position
            )
        return expression

    def _expression(self, floor: int) -> EventExpression:
        """An expression whose operators all have priority ``floor`` or above."""
        tokens = self.tokens
        kind, text, _ = tokens[self.index]
        if kind == "OP":
            priority, node, prefix = _OPERATORS[text]
            if not prefix or priority < floor:
                return self._primary()  # reports the misplaced operator
            self.index += 1
            left = node(self._expression(priority))
        else:
            left = self._primary()
        while True:
            kind, text, _ = tokens[self.index]
            if kind != "OP":
                return left
            priority, node, prefix = _OPERATORS[text]
            if prefix or priority < floor:
                return left
            self.index += 1
            left = node(left, self._expression(priority + 1))

    def _primary(self) -> EventExpression:
        kind, text, position = self.tokens[self.index]
        if kind == "PRIM":
            self.index += 1
            return Primitive(_event_type(text))
        if kind == "LPAREN":
            self.index += 1
            expression = self._expression(1)
            self._expect("RPAREN", "')'")
            return expression
        if kind == "IDENT":
            return self._primitive()
        raise ExpressionSyntaxError(
            f"expected an event type or '(', found {text or 'end of input'!r}",
            self.text,
            position,
        )

    def _primitive(self) -> Primitive:
        """A primitive that is no ``PRIM`` token: whatever it lacks is the error."""
        position = self.tokens[self.index][2]
        operation_text = self._expect("IDENT", "an operation name")
        try:
            operation = Operation.from_name(operation_text)
        except Exception as exc:
            raise ExpressionSyntaxError(str(exc), self.text, position) from exc
        self._expect("LPAREN", "'(' after the operation name")
        class_name = self._expect("IDENT", "a class name")
        attribute: str | None = None
        if self.tokens[self.index][0] == "DOT":
            self.index += 1
            attribute = self._expect("IDENT", "an attribute name")
        self._expect("RPAREN", "')' closing the event type")
        return Primitive(EventType(operation, class_name, attribute))


def parse_expression(text: str) -> EventExpression:
    """Parse a textual composite event expression into its AST."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty event expression", text, 0)
    return _Parser(text).parse()


def format_expression(expression: EventExpression) -> str:
    """Render an expression back to parseable text (inverse of :func:`parse_expression`)."""
    return str(expression)
