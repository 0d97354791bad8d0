"""Algebraic laws of the event calculus (paper §4.3) and rewriting utilities.

The paper stresses that the ``ts`` functions were "twisted" precisely so that
the obvious boolean properties keep holding once time stamps are taken into
account: De Morgan's rules, commutativity, associativity, distributivity and
factoring of precedence expressions.

This module provides:

* :data:`LAWS` — a registry of those equivalences, each as a pair of expression
  builders over operand placeholders;
* :func:`check_law` — numeric verification of a law instance over a concrete
  window and instant (used by the law tests and the hypothesis property
  tests);
* rewriting helpers: double-negation elimination and
  :func:`negation_normal_form`, which pushes negations down to the primitives
  using De Morgan's rules (the transformation the laws justify).

A note on exactness.  Each law records the strongest guarantee it makes, one
of three levels checked by the property tests:

* ``exact`` — both sides always produce the same ``ts`` value;
* ``activation`` — both sides agree on activity and, when active, on the
  activation time stamp (inactive values may differ, e.g. when operands
  contain negations);
* ``activity`` — both sides agree on whether the composite event is active
  (which is the property rule triggering depends on), but the activation time
  stamp of the two sides can differ — the distribution of disjunction over
  conjunction is the canonical example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.compile import CheckBinder
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
from repro.events.clock import Timestamp
from repro.events.event_base import WindowLike

__all__ = [
    "ACTIVATION",
    "ACTIVITY",
    "EXACT",
    "Law",
    "LawCheckResult",
    "LAWS",
    "law_by_name",
    "check_law",
    "eliminate_double_negation",
    "negation_normal_form",
    "expressions_equivalent",
]


#: Guarantee levels, from strongest to weakest.
EXACT = "exact"
ACTIVATION = "activation"
ACTIVITY = "activity"


@dataclass(frozen=True)
class Law:
    """One algebraic equivalence ``lhs(E1..En) == rhs(E1..En)``."""

    name: str
    arity: int
    lhs: Callable[..., EventExpression]
    rhs: Callable[..., EventExpression]
    #: The strongest guarantee the law makes: EXACT, ACTIVATION or ACTIVITY.
    guarantee: str = EXACT
    #: True when the guarantee only covers operands that contain no negation.
    #: Factoring a precedence over its *right* operand changes the instant at
    #: which the left operand is probed; with negated operands the two sides
    #: can then legitimately disagree.
    negation_free_operands_only: bool = False
    description: str = ""


@dataclass(frozen=True)
class LawCheckResult:
    """Outcome of checking one law instance at one instant."""

    law: Law
    lhs_value: int
    rhs_value: int
    instant: Timestamp

    @property
    def exact_equal(self) -> bool:
        """True when both sides produced the same ts value."""
        return self.lhs_value == self.rhs_value

    @property
    def activity_equal(self) -> bool:
        """True when both sides agree on whether the event is active."""
        return (self.lhs_value > 0) == (self.rhs_value > 0)

    @property
    def activation_equal(self) -> bool:
        """True when both sides agree on activity and, if active, on the stamp."""
        if not self.activity_equal:
            return False
        if self.lhs_value > 0:
            return self.lhs_value == self.rhs_value
        return True

    @property
    def holds(self) -> bool:
        """True when the law's stated guarantee is met by this instance."""
        if self.law.guarantee == EXACT:
            return self.exact_equal
        if self.law.guarantee == ACTIVATION:
            return self.activation_equal
        return self.activity_equal


LAWS: tuple[Law, ...] = (
    Law(
        name="de_morgan_conjunction",
        arity=2,
        lhs=lambda a, b: SetNegation(SetConjunction(a, b)),
        rhs=lambda a, b: SetDisjunction(SetNegation(a), SetNegation(b)),
        description="-(A + B) == (-A , -B)",
    ),
    Law(
        name="de_morgan_disjunction",
        arity=2,
        lhs=lambda a, b: SetNegation(SetDisjunction(a, b)),
        rhs=lambda a, b: SetConjunction(SetNegation(a), SetNegation(b)),
        description="-(A , B) == (-A + -B)",
    ),
    Law(
        name="double_negation",
        arity=1,
        lhs=lambda a: SetNegation(SetNegation(a)),
        rhs=lambda a: a,
        description="--A == A",
    ),
    Law(
        name="conjunction_commutativity",
        arity=2,
        lhs=lambda a, b: SetConjunction(a, b),
        rhs=lambda a, b: SetConjunction(b, a),
        description="A + B == B + A",
    ),
    Law(
        name="disjunction_commutativity",
        arity=2,
        lhs=lambda a, b: SetDisjunction(a, b),
        rhs=lambda a, b: SetDisjunction(b, a),
        description="A , B == B , A",
    ),
    Law(
        name="conjunction_associativity",
        arity=3,
        lhs=lambda a, b, c: SetConjunction(SetConjunction(a, b), c),
        rhs=lambda a, b, c: SetConjunction(a, SetConjunction(b, c)),
        description="(A + B) + C == A + (B + C)",
    ),
    Law(
        name="disjunction_associativity",
        arity=3,
        lhs=lambda a, b, c: SetDisjunction(SetDisjunction(a, b), c),
        rhs=lambda a, b, c: SetDisjunction(a, SetDisjunction(b, c)),
        description="(A , B) , C == A , (B , C)",
    ),
    Law(
        name="conjunction_idempotence",
        arity=1,
        lhs=lambda a: SetConjunction(a, a),
        rhs=lambda a: a,
        description="A + A == A",
    ),
    Law(
        name="disjunction_idempotence",
        arity=1,
        lhs=lambda a: SetDisjunction(a, a),
        rhs=lambda a: a,
        description="A , A == A",
    ),
    Law(
        name="conjunction_over_disjunction",
        arity=3,
        lhs=lambda a, b, c: SetConjunction(a, SetDisjunction(b, c)),
        rhs=lambda a, b, c: SetDisjunction(SetConjunction(a, b), SetConjunction(a, c)),
        guarantee=ACTIVATION,
        description="A + (B , C) == (A + B) , (A + C)",
    ),
    Law(
        name="disjunction_over_conjunction",
        arity=3,
        lhs=lambda a, b, c: SetDisjunction(a, SetConjunction(b, c)),
        rhs=lambda a, b, c: SetConjunction(SetDisjunction(a, b), SetDisjunction(a, c)),
        guarantee=ACTIVITY,
        description="A , (B + C) == (A , B) + (A , C)",
    ),
    Law(
        name="precedence_left_factoring_disjunction",
        arity=3,
        lhs=lambda a, b, c: SetPrecedence(SetDisjunction(a, b), c),
        rhs=lambda a, b, c: SetDisjunction(SetPrecedence(a, c), SetPrecedence(b, c)),
        guarantee=EXACT,
        description="(A , B) < C == (A < C) , (B < C)",
    ),
    Law(
        name="precedence_right_factoring_disjunction",
        arity=3,
        lhs=lambda a, b, c: SetPrecedence(a, SetDisjunction(b, c)),
        rhs=lambda a, b, c: SetDisjunction(SetPrecedence(a, b), SetPrecedence(a, c)),
        guarantee=EXACT,
        negation_free_operands_only=True,
        description="A < (B , C) == (A < B) , (A < C)",
    ),
    Law(
        name="precedence_left_factoring_conjunction",
        arity=3,
        lhs=lambda a, b, c: SetPrecedence(SetConjunction(a, b), c),
        rhs=lambda a, b, c: SetConjunction(SetPrecedence(a, c), SetPrecedence(b, c)),
        guarantee=EXACT,
        description="(A + B) < C == (A < C) + (B < C)",
    ),
)


def law_by_name(name: str) -> Law:
    """Look a law up by its registry name."""
    for law in LAWS:
        if law.name == name:
            return law
    raise KeyError(f"unknown law: {name!r}")


def check_law(
    law: Law,
    operands: Sequence[EventExpression],
    window: WindowLike,
    instant: Timestamp,
) -> LawCheckResult:
    """Evaluate both sides of a law over concrete operands and compare them."""
    if len(operands) != law.arity:
        raise ValueError(
            f"law {law.name} needs {law.arity} operands, got {len(operands)}"
        )
    binder = CheckBinder()
    lhs_value = binder.bind(law.lhs(*operands)).ts(window, instant)
    rhs_value = binder.bind(law.rhs(*operands)).ts(window, instant)
    return LawCheckResult(
        law=law, lhs_value=lhs_value, rhs_value=rhs_value, instant=instant
    )


def expressions_equivalent(
    left: EventExpression,
    right: EventExpression,
    window: WindowLike,
    instants: Sequence[Timestamp],
    exact: bool = True,
) -> bool:
    """True when two expressions agree over every instant of ``instants``.

    ``exact=True`` compares raw ts values; ``exact=False`` only compares the
    activity flag and the activation time stamp when active.
    """
    binder = CheckBinder()
    left_binding, right_binding = binder.bind(left), binder.bind(right)
    for instant in instants:
        left_value = left_binding.ts(window, instant)
        right_value = right_binding.ts(window, instant)
        if exact:
            if left_value != right_value:
                return False
        else:
            if (left_value > 0) != (right_value > 0):
                return False
            if left_value > 0 and left_value != right_value:
                return False
    return True


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


def eliminate_double_negation(expression: EventExpression) -> EventExpression:
    """Rewrite ``--E`` (and ``-=-=E``) into ``E`` throughout the tree.

    The set-oriented rewrite is exact.  The instance-oriented rewrite is exact
    for per-object (``ots``) evaluation, but a rewritten sub-expression lifts
    differently into a set-oriented context (negations lift universally over
    the affected objects, other operators existentially); the conservative
    :func:`repro.core.simplify.simplify_expression` therefore leaves ``-=-=E``
    alone.  The same caveat applies to :func:`negation_normal_form`.
    """
    if isinstance(expression, SetNegation):
        operand = eliminate_double_negation(expression.operand)
        if isinstance(operand, SetNegation):
            return operand.operand
        return SetNegation(operand)
    if isinstance(expression, InstanceNegation):
        operand = eliminate_double_negation(expression.operand)
        if isinstance(operand, InstanceNegation):
            return operand.operand
        return InstanceNegation(operand)
    return _rebuild(
        expression, [eliminate_double_negation(c) for c in expression.children()]
    )


def negation_normal_form(expression: EventExpression) -> EventExpression:
    """Push negations down to the primitives using De Morgan's rules.

    The result contains negations only directly above primitive event types
    (or above precedence operators, which De Morgan does not distribute over).
    Set-oriented and instance-oriented negations are pushed through operators
    of their own granularity.
    """
    if isinstance(expression, SetNegation):
        return _negate_set(negation_normal_form(expression.operand))
    if isinstance(expression, InstanceNegation):
        return _negate_instance(negation_normal_form(expression.operand))
    return _rebuild(
        expression, [negation_normal_form(c) for c in expression.children()]
    )


def _negate_set(expression: EventExpression) -> EventExpression:
    if isinstance(expression, SetNegation):
        return expression.operand
    if isinstance(expression, SetConjunction):
        return SetDisjunction(
            _negate_set(expression.left), _negate_set(expression.right)
        )
    if isinstance(expression, SetDisjunction):
        return SetConjunction(
            _negate_set(expression.left), _negate_set(expression.right)
        )
    return SetNegation(expression)


def _negate_instance(expression: EventExpression) -> EventExpression:
    if isinstance(expression, InstanceNegation):
        return expression.operand
    if isinstance(expression, InstanceConjunction):
        return InstanceDisjunction(
            _negate_instance(expression.left), _negate_instance(expression.right)
        )
    if isinstance(expression, InstanceDisjunction):
        return InstanceConjunction(
            _negate_instance(expression.left), _negate_instance(expression.right)
        )
    return InstanceNegation(expression)


def _rebuild(
    expression: EventExpression, children: list[EventExpression]
) -> EventExpression:
    """Rebuild a node with new children (primitives are returned unchanged)."""
    if isinstance(expression, Primitive):
        return expression
    if isinstance(expression, (SetNegation, InstanceNegation)):
        return type(expression)(children[0])
    if isinstance(
        expression,
        (
            SetConjunction,
            SetDisjunction,
            SetPrecedence,
            InstanceConjunction,
            InstanceDisjunction,
            InstancePrecedence,
        ),
    ):
        return type(expression)(children[0], children[1])
    raise TypeError(f"cannot rebuild node of type {type(expression).__name__}")
