"""Static optimization of rule triggering (paper §5.1, Fig. 6 and Fig. 7).

Recomputing ``ts`` for every rule after every execution block is expensive when
many rules are defined.  The paper's static analysis extracts, once per rule,
the set ``V(E)`` of *variations* of primitive event types that may cause the
rule's ``ts`` value to become positive; at run time the Trigger Support skips
the recomputation whenever the newly arrived occurrences cannot match ``V(E)``.

A variation is written ``Δ+E`` (positive: ``ts`` may switch from negative to
positive when ``E`` occurs), ``Δ−E`` (negative), ``ΔE`` (either), and carries a
granularity: set-level (``Δ…E``) or object-level (``Δ…O E``).

Derivation rules (Fig. 6, reconstructed; tests/core/test_optimization.py's
``TestDerivationRules`` and ``TestPaperExample`` pin each one):

* negation flips the sign of the requested variation;
* conjunction and disjunction propagate the variation to both operands;
* precedence marks every primitive of its *right* operand with **both** signs:
  a new right-operand occurrence re-anchors the instant at which the left
  operand is probed and can flip the precedence in either direction
  (``-(-A < B)`` becomes active on a new ``B``, for example).  When the right
  operand is negation-free its activation time stamp can only move when one of
  its own primitives occurs, so the left operand can be ignored — a new left
  occurrence is more recent than ``ts(E2)`` and invisible to the probe.  When
  the right operand *does* contain a negation its activation time stamp tracks
  the current time, the left operand is probed at "now", and every primitive of
  the whole precedence must be watched (``A < -B`` becomes active on a new
  ``A``);
* crossing into an instance-oriented sub-expression switches the granularity
  to object-level.  The crossing is also a *lift boundary*: the set-oriented
  evaluation quantifies the sub-expression over the objects affected by any of
  its event types, so a new occurrence of any of them can enlarge that domain.
  A universal lift (instance negation) only moves down when the domain grows
  (the flipped sign covers it); an existential lift containing an instance
  negation can activate on a fresh object (its negated branches default
  active), so every primitive of the sub-expression is watched in the
  requested direction.

Simplification rules (Fig. 7) merge variations of the same primitive type:
opposite signs collapse to ``Δ``, and a set-level variation absorbs an
object-level variation of the same type (the set level is the coarser view).

The run-time counterpart is the Rule Table's subscription index
(:mod:`repro.rules.rule_table`).  A new occurrence is a positive variation of
its own type, so a block can flip a rule's ``ts`` positive only when one of
its types matches an entry of :func:`watched_event_types` — the ``V(E)``
entries whose sign includes ``+``.  Skipping the negative ones is sound for
*triggering* because a rule, once triggered, stays triggered until it is
considered: a variation that can only drive ``ts`` downwards can never create
a missed triggering.  Matching is :meth:`EventType.matches` in either
direction (a class-level ``modify(stock)`` and ``modify(stock.quantity)``
reach each other) and nothing more: the calculus compares class names
exactly, so ``create(rush)`` is no ``create(order)`` occurrence whatever the
schema says.  The triggering graph of :mod:`repro.rules.analysis` reads the
same entries.

One caveat (found by the property tests and enforced by the Rule Table and
the Trigger Support, not by ``V(E)`` itself): the triggering predicate also
requires a non-empty window ``R``.  A rule whose expression is *vacuous* —
active over an empty log, ``ts(E, {}, 1) > 0``, e.g. a pure negation — is
blocked only by that condition, and then *any* new occurrence can trigger it
regardless of its type.  Such a rule is a *rider*, checked on every block,
until a check sees its window non-empty, and again after each consideration
or reset.  A non-vacuous rule's ``ts`` over an empty window is negative, so
from an empty window on only its positive variations can flip it
(``tests/core/test_properties.py::test_variation_set_is_sound_for_triggering``
covers empty windows): it rides only after an add or an enable, whose window
may already hold rows no later block routes, and only until one check
(see :mod:`repro.rules.rule_table`).  Both facts are functions of the
expression's shape alone, so the table derives them once per shape
(:func:`watched_slots`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
from repro.events.event import EventType

__all__ = [
    "Sign",
    "Scope",
    "Variation",
    "derive_variations",
    "simplify_variations",
    "variation_set",
    "format_variations",
    "watched_event_types",
    "watched_slots",
]


class Sign(Enum):
    """Direction of a ``ts`` variation."""

    POSITIVE = "+"
    NEGATIVE = "-"
    BOTH = "±"

    def flipped(self) -> "Sign":
        """The opposite sign (``±`` is its own opposite)."""
        if self is Sign.POSITIVE:
            return Sign.NEGATIVE
        if self is Sign.NEGATIVE:
            return Sign.POSITIVE
        return Sign.BOTH

    def includes_positive(self) -> bool:
        """True when the variation covers upward (activating) changes."""
        return self is not Sign.NEGATIVE

    @staticmethod
    def merge(first: "Sign", second: "Sign") -> "Sign":
        """Union of the directions covered by two signs."""
        if first is second:
            return first
        return Sign.BOTH


class Scope(Enum):
    """Granularity of a variation: set-level or per-object."""

    SET = "set"
    OBJECT = "object"

    @staticmethod
    def merge(first: "Scope", second: "Scope") -> "Scope":
        """The coarser of two scopes (set-level absorbs object-level)."""
        if Scope.SET in (first, second):
            return Scope.SET
        return Scope.OBJECT


@dataclass(frozen=True)
class Variation:
    """A variation ``Δ<sign>[O] <event type>`` of a primitive event type."""

    event_type: EventType
    sign: Sign
    scope: Scope

    def __str__(self) -> str:
        sign = "" if self.sign is Sign.BOTH else self.sign.value
        scope = "O " if self.scope is Scope.OBJECT else ""
        return f"Δ{sign}{scope}{self.event_type}"


# ---------------------------------------------------------------------------
# Derivation (Fig. 6)
# ---------------------------------------------------------------------------


def derive_variations(
    expression: EventExpression,
    sign: Sign = Sign.POSITIVE,
    scope: Scope = Scope.SET,
) -> set[Variation]:
    """Apply the Fig. 6 derivation rules down to primitive event types.

    The initial request is ``Δ+E`` at set level: which primitive variations can
    make the whole expression's ``ts`` become positive.
    """
    if isinstance(expression, Primitive):
        return {Variation(expression.event_type, sign, scope)}

    if scope is Scope.SET and isinstance(
        expression,
        (
            InstanceNegation,
            InstanceConjunction,
            InstanceDisjunction,
            InstancePrecedence,
        ),
    ):
        # Lift boundary: evaluating an instance-oriented sub-expression in set
        # context quantifies it over the objects affected by *any* of its
        # event types, so a new occurrence of any of them can enlarge that
        # domain on top of the per-object value changes tracked below.
        # A universal lift (instance negation; empty domain is vacuously
        # active) can only move *down* when the domain grows, so the flipped
        # sign covers it.  An existential lift can only move *up*, and a fresh
        # object's value can come out positive "for free" exactly when the
        # sub-expression contains an instance negation (a type the fresh
        # object has no occurrences of defaults to active) — without one, a
        # fresh object needs positive occurrences of its own, which the
        # per-object derivation already watches.
        derived = derive_variations(expression, sign, Scope.OBJECT)
        if isinstance(expression, InstanceNegation):
            growth_sign = sign.flipped()
        elif any(isinstance(node, InstanceNegation) for node in expression.walk()):
            growth_sign = sign
        else:
            return derived
        return derived | {
            Variation(event_type, growth_sign, Scope.OBJECT)
            for event_type in expression.event_types()
        }

    if isinstance(expression, SetNegation):
        return derive_variations(expression.operand, sign.flipped(), scope)
    if isinstance(expression, InstanceNegation):
        return derive_variations(expression.operand, sign.flipped(), Scope.OBJECT)

    if isinstance(expression, (SetConjunction, SetDisjunction)):
        return derive_variations(expression.left, sign, scope) | derive_variations(
            expression.right, sign, scope
        )
    if isinstance(expression, (InstanceConjunction, InstanceDisjunction)):
        left = derive_variations(expression.left, sign, Scope.OBJECT)
        return left | derive_variations(expression.right, sign, Scope.OBJECT)

    if isinstance(expression, (SetPrecedence, InstancePrecedence)):
        # A new occurrence matching the right operand moves ts(E2) and with it
        # the instant the left operand is probed at, so it can flip the
        # precedence in either direction.  With a negation-free right operand
        # that instant only moves on right-operand occurrences and the left
        # operand can be ignored; with a negation in the right operand the
        # probe instant tracks the current time and every primitive of the
        # precedence must be watched.
        target_scope = (
            Scope.OBJECT if isinstance(expression, InstancePrecedence) else scope
        )
        right_has_negation = any(
            isinstance(node, (SetNegation, InstanceNegation))
            for node in expression.right.walk()
        )
        watched = (
            expression.event_types()
            if right_has_negation
            else expression.right.event_types()
        )
        return {
            Variation(event_type, Sign.BOTH, target_scope) for event_type in watched
        }

    raise TypeError(f"cannot derive variations for {type(expression).__name__}")


# ---------------------------------------------------------------------------
# Simplification (Fig. 7)
# ---------------------------------------------------------------------------


def simplify_variations(variations: Iterable[Variation]) -> set[Variation]:
    """Apply the Fig. 7 simplification rules.

    Variations of the same primitive event type are merged: their signs are
    united (``Δ+`` with ``Δ−`` becomes ``Δ``) and the coarser scope wins
    (a set-level variation absorbs an object-level one).
    """
    merged: dict[EventType, tuple[Sign, Scope]] = {}
    for variation in variations:
        current = merged.get(variation.event_type)
        if current is None:
            merged[variation.event_type] = (variation.sign, variation.scope)
        else:
            sign, scope = current
            merged[variation.event_type] = (
                Sign.merge(sign, variation.sign),
                Scope.merge(scope, variation.scope),
            )
    return {
        Variation(event_type, sign, scope)
        for event_type, (sign, scope) in merged.items()
    }


def variation_set(expression: EventExpression) -> set[Variation]:
    """``V(E)``: derive and simplify the variations of an event expression."""
    return simplify_variations(derive_variations(expression))


def watched_event_types(expression: EventExpression) -> tuple[EventType, ...]:
    """The positive side of ``V(E)``: types whose new occurrences may trigger.

    The one reading of "which occurrences can trigger this rule": the Rule
    Table indexes a rule under these types and the triggering graph matches
    action types against them.  Sorted, so no consumer depends on the
    interpreter's hash order.
    """
    return tuple(
        sorted(
            (
                variation.event_type
                for variation in variation_set(expression)
                if variation.sign.includes_positive()
            ),
            key=str,
        )
    )


def watched_slots(
    expression: EventExpression, slot_types: tuple[EventType, ...]
) -> tuple[int, ...]:
    """Where :func:`watched_event_types` falls among the expression's slots.

    ``slot_types`` are the expression's distinct types in first-appearance
    order (:func:`repro.core.compile.shape_of`).  ``V(E)`` is derived from
    the tree and from type identity only, so every expression of one shape
    watches the same slots: the Rule Table derives them once per shape and
    reads each rule's watched types off its own slot types.
    """
    slot_of = {event_type: slot for slot, event_type in enumerate(slot_types)}
    return tuple(slot_of[event_type] for event_type in watched_event_types(expression))


def format_variations(variations: Iterable[Variation]) -> str:
    """Render a variation set as ``{ΔA, ΔB, Δ+C}`` (sorted, for reports/tests)."""
    rendered = sorted(str(variation) for variation in variations)
    return "{" + ", ".join(rendered) + "}"
