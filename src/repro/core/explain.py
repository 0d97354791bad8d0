"""Explanation of composite-event activations.

``ts`` answers *whether* a composite event is active and *when* it last
occurred; developers debugging a rule usually also want to know *why* — which
primitive occurrences support the activation, or which missing / blocking
occurrence keeps the expression inactive.  :func:`explain` evaluates an
expression with the same compiled kernels that decide every triggering
(:mod:`repro.core.compile`, one binder per call) and returns an
:class:`Explanation` tree carrying, per node:

* the node's ts value and activity flag;
* for active primitives, the supporting occurrence;
* for negations, the occurrence that blocks them (when inactive);
* for instance-oriented sub-expressions lifted into a set context, the object
  the lift selected (the witness for "at least one object ..." or the
  counter-example for "no object ...").

The explanation is plain data (easy to render or assert on in tests) and
:meth:`Explanation.render` produces an indented textual report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.compile import CheckBinder
from repro.core.expressions import (
    EventExpression,
    InstanceNegation,
    Primitive,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.events.clock import Timestamp
from repro.events.event import EventOccurrence
from repro.events.event_base import WindowLike

__all__ = ["Explanation", "explain"]


@dataclass
class Explanation:
    """One node of the explanation tree."""

    expression: EventExpression
    value: int
    instant: Timestamp
    role: str = "set"
    witness_object: Any | None = None
    supporting_occurrence: EventOccurrence | None = None
    blocking_occurrence: EventOccurrence | None = None
    children: list["Explanation"] = field(default_factory=list)

    @property
    def active(self) -> bool:
        """True when this sub-expression is active at :attr:`instant`."""
        return self.value > 0

    @property
    def activation_timestamp(self) -> Timestamp | None:
        """The activation time stamp when active."""
        return self.value if self.value > 0 else None

    def leaves(self) -> list["Explanation"]:
        """Every primitive-level explanation node."""
        if not self.children:
            return [self]
        collected: list[Explanation] = []
        for child in self.children:
            collected.extend(child.leaves())
        return collected

    def supporting_occurrences(self) -> list[EventOccurrence]:
        """All primitive occurrences that support active nodes of the tree."""
        occurrences = []
        if self.supporting_occurrence is not None and self.active:
            occurrences.append(self.supporting_occurrence)
        for child in self.children:
            occurrences.extend(child.supporting_occurrences())
        return occurrences

    def render(self, indent: int = 0) -> str:
        """An indented, human-readable description of the explanation tree."""
        status = f"active@t{self.value}" if self.active else "inactive"
        details = []
        if self.witness_object is not None:
            details.append(f"object={self.witness_object}")
        if self.supporting_occurrence is not None and self.active:
            details.append(f"because of e{self.supporting_occurrence.eid}")
        if self.blocking_occurrence is not None and not self.active:
            details.append(f"blocked by e{self.blocking_occurrence.eid}")
        suffix = f"  [{', '.join(details)}]" if details else ""
        line = "  " * indent + f"{self.expression}  ->  {status}{suffix}"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _last_occurrence(
    window: WindowLike, primitive: Primitive, instant: Timestamp, oid: Any | None
) -> EventOccurrence | None:
    occurrences = window.occurrences_of(primitive.event_type, instant)
    if oid is not None:
        occurrences = [
            occurrence for occurrence in occurrences if occurrence.oid == oid
        ]
    return occurrences[-1] if occurrences else None


def explain(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any | None = None,
) -> Explanation:
    """Build the explanation tree of ``expression`` at ``instant``.

    ``window`` is the occurrence set ``R``: the Event Base (the whole log) or
    a :class:`~repro.events.event_base.BoundedView` of it.  With ``oid`` the
    explanation is instance-oriented (``ots``); without it, set-oriented
    (``ts``), and instance-oriented sub-expressions record the witness object
    their lift selected.  Every node is valued by one binder's kernels, which
    it interns by shape, so a tree costs one lowering per distinct shape.
    """
    return _explain(CheckBinder(), expression, window, instant, oid)


def _explain(
    binder: CheckBinder,
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any | None,
) -> Explanation:
    if oid is None and expression.is_instance_oriented:
        return _explain_lifted(binder, expression, window, instant)

    value = (
        binder.bind(expression).ts(window, instant)
        if oid is None
        else binder.bind_instance(expression).ots(window, instant, oid)
    )
    node = Explanation(
        expression=expression,
        value=value,
        instant=instant,
        role="set" if oid is None else "instance",
        witness_object=oid,
    )

    if isinstance(expression, Primitive):
        occurrence = _last_occurrence(window, expression, instant, oid)
        if value > 0:
            node.supporting_occurrence = occurrence
        return node

    if isinstance(expression, (SetNegation, InstanceNegation)):
        child = _explain(binder, expression.operand, window, instant, oid)
        node.children.append(child)
        if not node.active:
            blocking = child.supporting_occurrences()
            node.blocking_occurrence = blocking[-1] if blocking else None
        return node

    if (
        isinstance(expression, (SetPrecedence,))
        or expression.operator_name == "precedence"
    ):
        right = _explain(binder, expression.right, window, instant, oid)
        # The left operand is probed at the right operand's activation instant.
        probe_instant = right.value if right.active else instant
        left = _explain(binder, expression.left, window, probe_instant, oid)
        node.children.extend([left, right])
        return node

    if (
        isinstance(expression, (SetConjunction, SetDisjunction))
        or expression.operator_name in ("conjunction", "disjunction")
    ):
        node.children.append(_explain(binder, expression.left, window, instant, oid))
        node.children.append(_explain(binder, expression.right, window, instant, oid))
        return node

    return node


def _explain_lifted(
    binder: CheckBinder,
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
) -> Explanation:
    """Explain an instance-oriented sub-expression appearing in a set context.

    The lift is a maximum of the per-object ``ots`` (a minimum for instance
    negation), so its witness is the object that attains it, ties broken by
    ``str(oid)``.
    """
    value = binder.bind(expression).ts(window, instant)
    candidates = window.objects_affected_by(expression.event_types(), instant)
    witness: Any | None = None
    if candidates:
        per_object = binder.bind_instance(expression)
        values = {
            candidate: per_object.ots(window, instant, candidate)
            for candidate in candidates
        }
        pick = min if isinstance(expression, InstanceNegation) else max
        witness = pick(values, key=lambda oid: (values[oid], str(oid)))
    node = Explanation(
        expression=expression,
        value=value,
        instant=instant,
        role="lifted",
        witness_object=witness,
    )
    if witness is not None:
        node.children.append(_explain(binder, expression, window, instant, witness))
    return node
