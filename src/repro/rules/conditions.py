"""Rule conditions: class ranges, event formulas and comparisons.

A Chimera condition is a logical formula evaluated in a set-oriented way: it
produces *all* the variable bindings that satisfy it, and the action is then
applied to every binding.  The atoms supported here cover the paper's examples:

* class ranges — ``stock(S)`` declares a variable ranging over a class extent;
* ``occurred(<event expression>, S)`` — binds ``S`` to the objects affected by
  the (instance-oriented) event expression within the observed window
  (paper §3.3);
* ``at(<event expression>, S, T)`` — like ``occurred`` but additionally binds
  ``T`` to every time stamp at which the composite event arises for that
  object (paper §3.3, "occurrence time stamp" predicate);
* ``holds(<event expression>, S)`` — kept for compatibility with pre-calculus
  Chimera; with composite events available it behaves exactly like
  ``occurred`` (the paper notes the calculus subsumes it);
* comparisons between terms — ``S.quantity > S.maxquantity``.

The observed window depends on the rule's event-consumption mode and is chosen
by the caller (the rule engine): a :class:`~repro.events.event_base.BoundedView`
of the Event Base, whose lower bound is the rule's last consumption for
consuming rules and the transaction start for preserving ones.  A hand-built
context may pass the Event Base itself, the whole log.

The event formulas run on the compiled instance kernels of
:mod:`repro.core.compile`, the same evaluator triggering uses: each formula's
expression is bound once per binder (:meth:`CheckBinder.bind_instance`), and
its binding set costs the objects the window's rows touched.  The engine owns
one formula binder and hands it to every context; the interpreter's
``active_objects`` / ``activation_instants`` are the tests' oracle only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ConditionError
from repro.core.compile import CheckBinder
from repro.core.expressions import EventExpression
from repro.events.clock import Timestamp
from repro.events.event_base import WindowLike
from repro.oodb.objects import ObjectStore
from repro.oodb.schema import Schema
from repro.rules.terms import Binding, Term

__all__ = [
    "ConditionContext",
    "ConditionAtom",
    "ClassRange",
    "OccurredFormula",
    "AtFormula",
    "Comparison",
    "CallableAtom",
    "Condition",
    "TRUE_CONDITION",
]


@dataclass
class ConditionContext:
    """Everything a condition needs to evaluate itself (one per consideration)."""

    schema: Schema
    store: ObjectStore
    window: WindowLike
    now: Timestamp
    #: Binds the event formulas (logical mode).  The engine passes its own,
    #: so a formula is bound once per engine; a hand-built context gets a
    #: private one.
    formulas: CheckBinder = field(
        default_factory=CheckBinder, repr=False, compare=False
    )
    _affected: dict[EventExpression, set[Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def affected_by(self, expression: EventExpression) -> set[Any]:
        """The objects ``expression`` is active for, computed once per context.

        The binding set of ``occurred`` / ``at``; a class range that a later
        event formula restricts asks for it ahead of the formula, which then
        reuses it.
        """
        affected = self._affected.get(expression)
        if affected is None:
            binding = self.formulas.bind_instance(expression)
            affected = self._affected[expression] = binding.affected(
                self.window, self.now
            )
        return affected


class ConditionAtom:
    """Base class of condition atoms.

    ``extend`` receives the bindings produced so far and returns the bindings
    that survive (and possibly grow) after this atom.
    """

    def extend(
        self, bindings: list[dict[str, Any]], context: ConditionContext
    ) -> list[dict[str, Any]]:
        raise NotImplementedError

    def variables(self) -> set[str]:
        """Variables mentioned by the atom."""
        return set()


@dataclass(frozen=True)
class ClassRange(ConditionAtom):
    """``stock(S)`` — ``S`` ranges over the live members of a class extent.

    An unbound ``S`` is enumerated in ``(class_name, serial)`` order.  When a
    later ``occurred`` / ``at`` formula of the condition binds the same
    variable, :meth:`Condition.evaluate` hands that formula's affected
    objects in as ``restrict_to`` and the range enumerates only the affected
    objects that are live members — the bindings enumerate-then-filter would
    keep, in the same order, without touching the rest of the extent.  An
    already bound ``S`` is checked with one store lookup.
    """

    variable: str
    class_name: str
    include_subclasses: bool = True

    def extend(
        self,
        bindings: list[dict[str, Any]],
        context: ConditionContext,
        restrict_to: OccurredFormula | AtFormula | None = None,
    ) -> list[dict[str, Any]]:
        subclasses = (
            context.schema.descendants(self.class_name)
            if self.include_subclasses
            else set()
        )
        names = {self.class_name} | subclasses
        find = context.store.find
        members: list[Any] | None = None
        extended: list[dict[str, Any]] = []
        for binding in bindings:
            if self.variable in binding:
                # Already bound (e.g. by a previous occurred formula): keep the
                # binding only if the object really belongs to the range.
                obj = find(binding[self.variable])
                if obj is not None and obj.class_name in names:
                    extended.append(binding)
                continue
            if members is None:
                members = self._members(context, names, restrict_to)
            for oid in members:
                grown = dict(binding)
                grown[self.variable] = oid
                extended.append(grown)
        return extended

    def _members(
        self,
        context: ConditionContext,
        names: set[str],
        restrict_to: OccurredFormula | AtFormula | None,
    ) -> list[Any]:
        """OIDs of the range, in ``(class_name, serial)`` order."""
        store = context.store
        if restrict_to is None:
            return [obj.oid for obj in store.objects_of_class(self.class_name, names)]
        # Affected ids that are not store OIDs (hand-built Event Bases use
        # strings) are not members of any extent.
        live = (store.find(oid) for oid in context.affected_by(restrict_to.expression))
        return sorted(
            (obj.oid for obj in live if obj is not None and obj.class_name in names),
            key=lambda oid: (oid.class_name, oid.serial),
        )

    def variables(self) -> set[str]:
        return {self.variable}

    def __str__(self) -> str:
        return f"{self.class_name}({self.variable})"


@dataclass(frozen=True)
class OccurredFormula(ConditionAtom):
    """``occurred(<expr>, S)`` — ``S`` ranges over the objects affected by ``expr``."""

    expression: EventExpression
    variable: str
    #: Rendered keyword: ``occurred`` or the legacy ``holds`` alias.
    keyword: str = "occurred"

    def __post_init__(self) -> None:
        if not self.expression.may_be_instance_operand():
            raise ConditionError(
                "occurred only supports event expressions limited to instance-oriented "
                f"operators (got {self.expression})"
            )

    def extend(
        self, bindings: list[dict[str, Any]], context: ConditionContext
    ) -> list[dict[str, Any]]:
        affected = context.affected_by(self.expression)
        extended: list[dict[str, Any]] = []
        for binding in bindings:
            if self.variable in binding:
                if binding[self.variable] in affected:
                    extended.append(binding)
                continue
            for oid in sorted(affected, key=str):
                grown = dict(binding)
                grown[self.variable] = oid
                extended.append(grown)
        return extended

    def variables(self) -> set[str]:
        return {self.variable}

    def __str__(self) -> str:
        return f"{self.keyword}({self.expression}, {self.variable})"


@dataclass(frozen=True)
class AtFormula(ConditionAtom):
    """``at(<expr>, S, T)`` — also binds ``T`` to the composite occurrence instants."""

    expression: EventExpression
    variable: str
    time_variable: str

    def __post_init__(self) -> None:
        if not self.expression.may_be_instance_operand():
            raise ConditionError(
                "at only supports event expressions limited to instance-oriented "
                f"operators (got {self.expression})"
            )

    def extend(
        self, bindings: list[dict[str, Any]], context: ConditionContext
    ) -> list[dict[str, Any]]:
        affected = context.affected_by(self.expression)
        arises = context.formulas.bind_instance(self.expression).arises
        extended: list[dict[str, Any]] = []
        for binding in bindings:
            if self.variable in binding:
                candidates: Iterable[Any] = (
                    [binding[self.variable]]
                    if binding[self.variable] in affected
                    else []
                )
            else:
                candidates = sorted(affected, key=str)
            for oid in candidates:
                for instant in arises(context.window, oid, context.now):
                    grown = dict(binding)
                    grown[self.variable] = oid
                    grown[self.time_variable] = instant
                    extended.append(grown)
        return extended

    def variables(self) -> set[str]:
        return {self.variable, self.time_variable}

    def __str__(self) -> str:
        return f"at({self.expression}, {self.variable}, {self.time_variable})"


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(ConditionAtom):
    """A comparison between two terms (``S.quantity > S.maxquantity``)."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ConditionError(f"unsupported comparison operator {self.op!r}")

    def extend(
        self, bindings: list[dict[str, Any]], context: ConditionContext
    ) -> list[dict[str, Any]]:
        compare = _COMPARATORS[self.op]
        kept: list[dict[str, Any]] = []
        for binding in bindings:
            left = self.left.evaluate(binding, context.store)
            right = self.right.evaluate(binding, context.store)
            if left is None or right is None:
                continue
            try:
                if compare(left, right):
                    kept.append(binding)
            except TypeError as exc:
                raise ConditionError(f"cannot evaluate {self}: {exc}") from exc
        return kept

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class CallableAtom(ConditionAtom):
    """Programmatic escape hatch: filter/expand bindings with a Python callable.

    The callable receives ``(binding, context)`` and returns either a boolean
    (filter) or an iterable of new bindings (expansion).
    """

    function: Callable[[Binding, ConditionContext], Any]
    description: str = "callable"

    def extend(
        self, bindings: list[dict[str, Any]], context: ConditionContext
    ) -> list[dict[str, Any]]:
        extended: list[dict[str, Any]] = []
        for binding in bindings:
            outcome = self.function(binding, context)
            if isinstance(outcome, bool):
                if outcome:
                    extended.append(binding)
            elif outcome is None:
                continue
            else:
                extended.extend(dict(item) for item in outcome)
        return extended

    def __str__(self) -> str:
        return f"<{self.description}>"


@dataclass
class Condition:
    """An ordered conjunction of condition atoms."""

    atoms: Sequence[ConditionAtom] = field(default_factory=tuple)

    def evaluate(self, context: ConditionContext) -> list[dict[str, Any]]:
        """All bindings satisfying the condition (empty list when unsatisfied)."""
        bindings: list[dict[str, Any]] = [{}]
        for index, atom in enumerate(self.atoms):
            if isinstance(atom, ClassRange):
                bindings = atom.extend(bindings, context, self._binder_after(index))
            else:
                bindings = atom.extend(bindings, context)
            if not bindings:
                return []
        return bindings

    def _binder_after(self, index: int) -> OccurredFormula | AtFormula | None:
        """The event formula after atom ``index`` that binds its range variable.

        Every binding the range produces has to pass that formula, so the
        range may enumerate the formula's affected objects instead of its
        extent.  The look-ahead stops at a :class:`CallableAtom`, which may
        observe or expand the bindings in between.
        """
        variable = self.atoms[index].variable
        for atom in self.atoms[index + 1 :]:
            if isinstance(atom, CallableAtom):
                return None
            if isinstance(atom, AtFormula) and atom.time_variable == variable:
                return None  # rebinds the range variable to an instant
            if isinstance(atom, (OccurredFormula, AtFormula)):
                if atom.variable == variable:
                    return atom
        return None

    def is_satisfied(self, context: ConditionContext) -> bool:
        """True when at least one binding satisfies the condition."""
        return bool(self.evaluate(context))

    def variables(self) -> set[str]:
        """Every variable mentioned by the condition."""
        names: set[str] = set()
        for atom in self.atoms:
            names |= atom.variables()
        return names

    def event_expressions(self) -> list[EventExpression]:
        """The event expressions referenced by occurred/at formulas."""
        expressions: list[EventExpression] = []
        for atom in self.atoms:
            if isinstance(atom, (OccurredFormula, AtFormula)):
                expressions.append(atom.expression)
        return expressions

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return ", ".join(str(atom) for atom in self.atoms)


#: The always-true condition (a rule with no condition clause).
TRUE_CONDITION = Condition(())
