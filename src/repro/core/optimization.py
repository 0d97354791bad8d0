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

The run-time counterpart is :class:`RecomputationFilter`: new event
occurrences are positive variations of their own type (at both granularities),
so a recomputation is required only when some arrived occurrence matches a
variation of ``V(E)`` whose sign includes ``+``.  Skipping negative variations
is sound for *triggering* because a rule, once triggered, stays triggered until
it is considered: a variation that can only drive ``ts`` downwards can never
create a missed triggering.

One caveat (found by the property tests and enforced by the Trigger Support,
not by the filter itself): the triggering predicate also requires a non-empty
window ``R``.  A rule whose expression is vacuously active — e.g. a pure
negation — is blocked only by that condition, and then *any* new occurrence
can trigger it regardless of its type.  The filter is therefore only applied
once the rule's window has been evaluated non-empty since its last
consideration (see :mod:`repro.rules.trigger_support`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

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
from repro.events.event import EventOccurrence, EventType

__all__ = [
    "Sign",
    "Scope",
    "Variation",
    "derive_variations",
    "simplify_variations",
    "variation_set",
    "format_variations",
    "expand_event_type",
    "RecomputationFilter",
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


def format_variations(variations: Iterable[Variation]) -> str:
    """Render a variation set as ``{ΔA, ΔB, Δ+C}`` (sorted, for reports/tests)."""
    rendered = sorted(str(variation) for variation in variations)
    return "{" + ", ".join(rendered) + "}"


# ---------------------------------------------------------------------------
# Run-time filter
# ---------------------------------------------------------------------------


def expand_event_type(event_type: EventType, schema) -> tuple[EventType, ...]:
    """The occurrence type plus its superclass retargets under ``schema``.

    An occurrence on class ``c`` is also an occurrence on every ancestor of
    ``c`` (creating a ``notFilledOrder`` creates an ``order``), so matching an
    occurrence type against watched patterns must consider the retargeted
    types ``operation(ancestor[.attribute])`` as well.  ``schema`` is any
    object with ``__contains__`` and ``ancestors(name)`` (duck-typed to keep
    the calculus layer free of an oodb dependency); classes the schema does
    not know — abstract test universes, external ``raise`` events — expand to
    just themselves.  The expansion goes upward only: an occurrence on a
    superclass is *not* an occurrence on its specializations.
    """
    if schema is None or event_type.class_name not in schema:
        return (event_type,)
    expanded = [event_type]
    for ancestor in schema.ancestors(event_type.class_name):
        expanded.append(EventType(event_type.operation, ancestor, event_type.attribute))
    return tuple(expanded)


class RecomputationFilter:
    """Decides whether newly arrived occurrences require a ``ts`` recomputation.

    Built once per rule from ``V(E)``.  A new occurrence is an upward (positive)
    variation of its own event type, so recomputation is needed only when the
    occurrence's type matches a ``V(E)`` entry whose sign includes ``+``.
    Class-level entries (``modify(stock)``) match attribute-specific
    occurrences (``modify(stock.quantity)``) and vice versa, mirroring the
    subscription semantics of primitive event types.

    With a schema bound (:meth:`bind_schema`) the matching is additionally
    subclass-aware: an occurrence on a class also counts for watched patterns
    on any of its ancestors (see :func:`expand_event_type`).  Memoized
    verdicts then carry the schema version they were computed at — a schema
    that gains a subclass after a verdict was cached would otherwise keep
    serving the stale ``False``.
    """

    def __init__(self, expression: EventExpression, schema=None) -> None:
        self.expression = expression
        self.variations = variation_set(expression)
        self._positive_types: tuple[EventType, ...] = tuple(
            variation.event_type
            for variation in self.variations
            if variation.sign.includes_positive()
        )
        # The watched set is fixed at construction, so the verdict per concrete
        # event type only changes when the bound schema does: memoize it
        # instead of re-running the O(|V(E)|) pattern loop for every
        # occurrence type of every block, and stamp the cache with the schema
        # version so hierarchy growth invalidates it.
        self._match_cache: dict[EventType, bool] = {}
        self._schema = schema
        self._cached_schema_version = schema.version if schema is not None else 0
        self.checks = 0
        self.skipped = 0

    def bind_schema(self, schema) -> None:
        """Make matching subclass-aware under ``schema`` (idempotent)."""
        if schema is self._schema:
            return
        self._schema = schema
        self._match_cache.clear()
        self._cached_schema_version = schema.version if schema is not None else 0

    def relevant_event_types(self) -> set[EventType]:
        """Event types whose new occurrences can possibly trigger the rule."""
        return set(self._positive_types)

    def matches(self, event_type: EventType) -> bool:
        """True when a new occurrence of ``event_type`` may activate the rule."""
        schema = self._schema
        if schema is not None and schema.version != self._cached_schema_version:
            self._match_cache.clear()
            self._cached_schema_version = schema.version
        verdict = self._match_cache.get(event_type)
        if verdict is None:
            verdict = any(
                watched.matches(candidate) or candidate.matches(watched)
                for candidate in expand_event_type(event_type, schema)
                for watched in self._positive_types
            )
            self._match_cache[event_type] = verdict
        return verdict

    def needs_recomputation(
        self, occurrences: Iterable[EventOccurrence | EventType]
    ) -> bool:
        """True when any of the new occurrences may flip the rule's ``ts`` positive."""
        self.checks += 1
        for item in occurrences:
            event_type = item.event_type if isinstance(item, EventOccurrence) else item
            if self.matches(event_type):
                return True
        self.skipped += 1
        return False

    @property
    def statistics(self) -> Mapping[str, int]:
        """Counters: how many batches were checked and how many were skipped."""
        return {"checks": self.checks, "skipped": self.skipped}

    def __str__(self) -> str:
        return f"RecomputationFilter({format_variations(self.variations)})"
