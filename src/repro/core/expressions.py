"""Composite event expressions (the event-calculus AST).

The paper builds composite events from primitive event types with a minimal set
of orthogonal operators, organised along three dimensions (Fig. 1 / Fig. 2):

=============  ==================  =====================
operator       set-oriented        instance-oriented
=============  ==================  =====================
negation       ``-E``              ``-=E``
conjunction    ``A + B``           ``A += B``
precedence     ``A < B``           ``A <= B``
disjunction    ``A , B``           ``A ,= B``
=============  ==================  =====================

Operators are listed in decreasing priority: negation binds tighter than
conjunction and precedence (which share a priority level), which bind tighter
than disjunction; every instance-oriented operator binds tighter than every
set-oriented one.

A structural restriction from §3.2 is enforced at construction time: an
instance-oriented operator may only be applied to primitive event types or to
other instance-oriented sub-expressions, never to a sub-expression built with a
set-oriented operator.  The converse is allowed (instance-oriented expressions
are *lifted* when they appear inside set-oriented ones).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from repro.errors import CompositionError
from repro.events.event import EventType, parse_event_type

__all__ = [
    "Granularity",
    "Dimension",
    "EventExpression",
    "Primitive",
    "SetNegation",
    "SetConjunction",
    "SetDisjunction",
    "SetPrecedence",
    "InstanceNegation",
    "InstanceConjunction",
    "InstanceDisjunction",
    "InstancePrecedence",
    "OperatorInfo",
    "OPERATOR_TABLE",
    "primitive",
    "conjunction",
    "disjunction",
    "negation",
    "precedence",
    "instance_conjunction",
    "instance_disjunction",
    "instance_negation",
    "instance_precedence",
]


class Granularity(Enum):
    """Whether an operator relates events set-wide or on a single object."""

    SET = "set"
    INSTANCE = "instance"


class Dimension(Enum):
    """The design dimension an operator belongs to (paper Fig. 2)."""

    BOOLEAN = "boolean"
    TEMPORAL = "temporal"


@dataclass(frozen=True)
class OperatorInfo:
    """One row of the operator inventory (Fig. 1 + Fig. 2)."""

    name: str
    set_symbol: str
    instance_symbol: str
    priority: int
    dimension: Dimension


#: Operator inventory in decreasing priority order (Fig. 1).  Negation has the
#: highest priority; conjunction and precedence share a level; disjunction has
#: the lowest.  Instance-oriented symbols are the set-oriented ones suffixed
#: with ``=`` and always bind tighter than set-oriented operators.
OPERATOR_TABLE: tuple[OperatorInfo, ...] = (
    OperatorInfo("negation", "-", "-=", priority=3, dimension=Dimension.BOOLEAN),
    OperatorInfo("conjunction", "+", "+=", priority=2, dimension=Dimension.BOOLEAN),
    OperatorInfo("precedence", "<", "<=", priority=2, dimension=Dimension.TEMPORAL),
    OperatorInfo("disjunction", ",", ",=", priority=1, dimension=Dimension.BOOLEAN),
)


class EventExpression(ABC):
    """Base class of every node of the event-calculus AST.

    Expressions are immutable value objects: they support structural equality,
    hashing, and a textual form (:meth:`__str__`) that round-trips through
    :func:`repro.core.parser.parse_expression`.
    """

    __slots__ = ()

    #: Human-readable operator name ("primitive", "conjunction", ...).
    operator_name: str = "expression"
    #: Granularity of the node itself (primitives count as SET: they are
    #: meaningful in both contexts and lift trivially).
    granularity: Granularity = Granularity.SET
    #: Parser priority of the node (used for minimal parenthesisation).
    priority: int = 4

    # -- structure -------------------------------------------------------
    @abstractmethod
    def children(self) -> tuple["EventExpression", ...]:
        """Direct sub-expressions (empty for primitives)."""

    def walk(self) -> Iterator["EventExpression"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def primitives(self) -> Iterator["Primitive"]:
        """Every primitive leaf, in left-to-right order (with repetitions)."""
        for node in self.walk():
            if isinstance(node, Primitive):
                yield node

    def event_types(self) -> set[EventType]:
        """The set of primitive event types mentioned by the expression."""
        return {leaf.event_type for leaf in self.primitives()}

    def size(self) -> int:
        """Number of AST nodes (primitives + operators)."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the expression tree (a primitive has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    @property
    def is_instance_oriented(self) -> bool:
        """True when the top-level node is an instance-oriented operator."""
        return self.granularity is Granularity.INSTANCE

    def contains_set_operator(self) -> bool:
        """True when any node of the tree is a set-oriented *operator*."""
        return any(
            node.granularity is Granularity.SET and not isinstance(node, Primitive)
            for node in self.walk()
        )

    def may_be_instance_operand(self) -> bool:
        """True when the expression can legally appear under an instance operator."""
        return not self.contains_set_operator()

    # -- value semantics ---------------------------------------------------
    @abstractmethod
    def _key(self) -> tuple:
        """Structural identity key."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventExpression):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    # -- fluent construction helpers ---------------------------------------
    def __add__(self, other: "EventExpression") -> "SetConjunction":
        """``a + b`` builds the set-oriented conjunction (paper symbol ``+``)."""
        return SetConjunction(self, _as_expression(other))

    def __or__(self, other: "EventExpression") -> "SetDisjunction":
        """``a | b`` builds the set-oriented disjunction (paper symbol ``,``)."""
        return SetDisjunction(self, _as_expression(other))

    def __neg__(self) -> "SetNegation":
        """``-a`` builds the set-oriented negation."""
        return SetNegation(self)

    def __rshift__(self, other: "EventExpression") -> "SetPrecedence":
        """``a >> b`` builds the set-oriented precedence ``a < b``."""
        return SetPrecedence(self, _as_expression(other))

    def then(self, other: "EventExpression") -> "SetPrecedence":
        """Alias of ``>>``: ``a.then(b)`` is the precedence ``a < b``."""
        return SetPrecedence(self, _as_expression(other))

    def iconj(self, other: "EventExpression") -> "InstanceConjunction":
        """Instance-oriented conjunction ``a += b``."""
        return InstanceConjunction(self, _as_expression(other))

    def idisj(self, other: "EventExpression") -> "InstanceDisjunction":
        """Instance-oriented disjunction ``a ,= b``."""
        return InstanceDisjunction(self, _as_expression(other))

    def ineg(self) -> "InstanceNegation":
        """Instance-oriented negation ``-= a``."""
        return InstanceNegation(self)

    def iprec(self, other: "EventExpression") -> "InstancePrecedence":
        """Instance-oriented precedence ``a <= b``."""
        return InstancePrecedence(self, _as_expression(other))


def _as_expression(value: "EventExpression | EventType | str") -> "EventExpression":
    """Coerce event types and textual event types into primitives."""
    if isinstance(value, EventExpression):
        return value
    if isinstance(value, EventType):
        return Primitive(value)
    if isinstance(value, str):
        return Primitive(parse_event_type(value))
    raise CompositionError(f"cannot use {value!r} as an event expression")


class Primitive(EventExpression):
    """A primitive event type used as an expression leaf."""

    __slots__ = ("event_type",)

    operator_name = "primitive"
    granularity = Granularity.SET
    priority = 4

    def __init__(self, event_type: EventType | str) -> None:
        if isinstance(event_type, str):
            event_type = parse_event_type(event_type)
        if not isinstance(event_type, EventType):
            raise CompositionError(f"{event_type!r} is not an event type")
        self.event_type = event_type

    def children(self) -> tuple[EventExpression, ...]:
        return ()

    def _key(self) -> tuple:
        return ("primitive", self.event_type)

    def __str__(self) -> str:
        return str(self.event_type)


class _UnaryOperator(EventExpression):
    """Shared implementation of the two negation operators."""

    __slots__ = ("operand",)

    symbol: str = "?"

    def __init__(self, operand: EventExpression | EventType | str) -> None:
        self.operand = _as_expression(operand)
        self._validate()

    def _validate(self) -> None:
        """Hook for granularity restrictions (overridden by instance ops)."""

    def children(self) -> tuple[EventExpression, ...]:
        return (self.operand,)

    def _key(self) -> tuple:
        return (type(self).__name__, self.operand._key())

    def __str__(self) -> str:
        inner = str(self.operand)
        if self.operand.priority < self.priority:
            inner = f"({inner})"
        return f"{self.symbol}{inner}"


class _BinaryOperator(EventExpression):
    """Shared implementation of the binary operators."""

    __slots__ = ("left", "right")

    symbol: str = "?"
    #: Whether ``(A op B) op C == A op (B op C)`` holds for the operator; used
    #: only for pretty-printing (omit redundant parentheses on the left).
    associative: bool = True

    def __init__(
        self,
        left: EventExpression | EventType | str,
        right: EventExpression | EventType | str,
    ) -> None:
        self.left = _as_expression(left)
        self.right = _as_expression(right)
        self._validate()

    def _validate(self) -> None:
        """Hook for granularity restrictions (overridden by instance ops)."""

    def children(self) -> tuple[EventExpression, ...]:
        return (self.left, self.right)

    def _key(self) -> tuple:
        return (type(self).__name__, self.left._key(), self.right._key())

    def __str__(self) -> str:
        left = str(self.left)
        right = str(self.right)
        if self.left.priority < self.priority or (
            self.left.priority == self.priority and type(self.left) is not type(self)
        ):
            left = f"({left})"
        if self.right.priority <= self.priority and not isinstance(
            self.right, Primitive
        ):
            right = f"({right})"
        return f"{left} {self.symbol} {right}"


class _InstanceOperatorMixin:
    """Validation shared by every instance-oriented operator.

    Paper §3.2: instance-oriented operators "cannot be applied to event
    sub-expressions obtained by means of set-oriented operators".
    """

    granularity = Granularity.INSTANCE

    def _validate(self) -> None:  # type: ignore[override]
        for child in self.children():  # type: ignore[attr-defined]
            if not child.may_be_instance_operand():
                raise CompositionError(
                    "instance-oriented operators cannot be applied to set-oriented "
                    f"sub-expressions (offending operand: {child})"
                )


# ---------------------------------------------------------------------------
# Set-oriented operators
# ---------------------------------------------------------------------------


class SetNegation(_UnaryOperator):
    """Set-oriented negation ``-E``: active while ``E`` is not active."""

    operator_name = "negation"
    symbol = "-"
    priority = 3


class SetConjunction(_BinaryOperator):
    """Set-oriented conjunction ``A + B``: active when both operands are active."""

    operator_name = "conjunction"
    symbol = "+"
    priority = 2


class SetPrecedence(_BinaryOperator):
    """Set-oriented precedence ``A < B``: both active, ``A`` first."""

    operator_name = "precedence"
    symbol = "<"
    priority = 2
    associative = False


class SetDisjunction(_BinaryOperator):
    """Set-oriented disjunction ``A , B``: active when either operand is active."""

    operator_name = "disjunction"
    symbol = ","
    priority = 1


# ---------------------------------------------------------------------------
# Instance-oriented operators
# ---------------------------------------------------------------------------


class InstanceNegation(_InstanceOperatorMixin, _UnaryOperator):
    """Instance-oriented negation ``-=E``: no occurrence of ``E`` on the object."""

    operator_name = "negation"
    symbol = "-="
    priority = 3


class InstanceConjunction(_InstanceOperatorMixin, _BinaryOperator):
    """Instance-oriented conjunction ``A += B``: both occurred on the same object."""

    operator_name = "conjunction"
    symbol = "+="
    priority = 2


class InstancePrecedence(_InstanceOperatorMixin, _BinaryOperator):
    """Instance-oriented precedence ``A <= B``: both on the same object, ``A`` first."""

    operator_name = "precedence"
    symbol = "<="
    priority = 2
    associative = False


class InstanceDisjunction(_InstanceOperatorMixin, _BinaryOperator):
    """Instance-oriented disjunction ``A ,= B``: either occurred on the object."""

    operator_name = "disjunction"
    symbol = ",="
    priority = 1


# ---------------------------------------------------------------------------
# n-ary convenience constructors (left-folding the binary operators)
# ---------------------------------------------------------------------------


def primitive(event_type: EventType | str) -> Primitive:
    """Build a primitive expression from an event type or its textual form."""
    return Primitive(event_type)


def _fold(
    operator: type[_BinaryOperator],
    operands: Sequence[EventExpression | EventType | str],
) -> EventExpression:
    expressions = [_as_expression(operand) for operand in operands]
    if not expressions:
        raise CompositionError(
            f"{operator.operator_name} requires at least one operand"
        )
    result = expressions[0]
    for operand in expressions[1:]:
        result = operator(result, operand)
    return result


def conjunction(*operands: EventExpression | EventType | str) -> EventExpression:
    """Left-folded set-oriented conjunction of the operands."""
    return _fold(SetConjunction, operands)


def disjunction(*operands: EventExpression | EventType | str) -> EventExpression:
    """Left-folded set-oriented disjunction of the operands."""
    return _fold(SetDisjunction, operands)


def precedence(*operands: EventExpression | EventType | str) -> EventExpression:
    """Left-folded set-oriented precedence of the operands."""
    return _fold(SetPrecedence, operands)


def negation(operand: EventExpression | EventType | str) -> SetNegation:
    """Set-oriented negation of the operand."""
    return SetNegation(_as_expression(operand))


def instance_conjunction(
    *operands: EventExpression | EventType | str,
) -> EventExpression:
    """Left-folded instance-oriented conjunction of the operands."""
    return _fold(InstanceConjunction, operands)


def instance_disjunction(
    *operands: EventExpression | EventType | str,
) -> EventExpression:
    """Left-folded instance-oriented disjunction of the operands."""
    return _fold(InstanceDisjunction, operands)


def instance_precedence(
    *operands: EventExpression | EventType | str,
) -> EventExpression:
    """Left-folded instance-oriented precedence of the operands."""
    return _fold(InstancePrecedence, operands)


def instance_negation(operand: EventExpression | EventType | str) -> InstanceNegation:
    """Instance-oriented negation of the operand."""
    return InstanceNegation(_as_expression(operand))
