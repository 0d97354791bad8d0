"""Static analysis of rule sets: the triggering graph and termination.

Active-rule sets can cascade (a rule's action generates events that trigger
other rules) and can fail to terminate (a cycle of rules that keep triggering
each other).  The classic tool for reasoning about this — introduced for
set-oriented production rules and used throughout the active-database
literature the paper builds on — is the **triggering graph**: a node per rule
and an edge ``r1 -> r2`` whenever the action of ``r1`` can generate an event
occurrence that may trigger ``r2``.

With composite events the edge test becomes more interesting: ``r2`` is
triggerable by ``r1`` when some event type that ``r1``'s action can generate
matches a *positive variation* of ``r2``'s event expression — the same
:func:`~repro.core.optimization.watched_event_types` the Rule Table routes
blocks by, matched with the same :meth:`EventType.matches` — or when ``r2``'s
expression is vacuously active (active over a log without any of its types,
blocked only by the ``R != {}`` condition — then any event unblocks it).

The module is self-contained (no third-party graph library needed) but can
export the graph to :mod:`networkx` when available, for further analysis or
drawing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.compile import is_vacuous
from repro.core.optimization import watched_event_types
from repro.events.event import EventType, Operation
from repro.rules.actions import (
    Action,
    CallableStatement,
    CreateStatement,
    DeleteStatement,
    ModifyStatement,
)
from repro.rules.rule import Rule

__all__ = [
    "action_event_types",
    "positive_trigger_types",
    "can_trigger",
    "TriggeringEdge",
    "TriggeringGraph",
    "analyze_rules",
]


def action_event_types(action: Action) -> set[EventType]:
    """Event types an action can generate, derived from its statements.

    ``CallableStatement`` bodies are opaque: they are reported as able to
    generate *no* statically known event type, which makes the analysis
    optimistic about termination; callers that rely on the termination verdict
    should avoid opaque actions or treat :attr:`TriggeringGraph.has_opaque_actions`
    as a warning.
    """
    generated: set[EventType] = set()
    for statement in action.statements:
        if isinstance(statement, ModifyStatement):
            generated.add(
                EventType(Operation.MODIFY, statement.class_name, statement.attribute)
            )
        elif isinstance(statement, CreateStatement):
            generated.add(EventType(Operation.CREATE, statement.class_name))
        elif isinstance(statement, DeleteStatement):
            # The deleted object's class is only known at run time; a delete
            # statement is recorded without a class and matched pessimistically.
            generated.add(EventType(Operation.DELETE, "*"))
    return generated


def positive_trigger_types(rule: Rule) -> set[EventType]:
    """Event types whose new occurrences may trigger ``rule`` (positive V(E) entries)."""
    return set(watched_event_types(rule.events))


def _event_types_may_match(generated: EventType, watched: EventType) -> bool:
    if generated.class_name == "*" or watched.class_name == "*":
        return generated.operation is watched.operation
    return generated.matches(watched) or watched.matches(generated)


def _is_vacuously_activatable(rule: Rule) -> bool:
    """True when the rule's expression is active over a log of unrelated events.

    Such a rule (``-create(a)``, and also ``-create(a) , create(b)``, which
    has a positive ``V(E)`` entry) is blocked only by the ``R != {}``
    condition, so *any* generated occurrence can trigger it.  Occurrences of
    types the expression does not name change none of its values, so the
    exact test is its sign over the empty log — the vacuity the Rule Table
    reads for its riders; the sign does not depend on the instant
    (``tests/rules/test_analysis.py``).
    """
    return is_vacuous(rule.events)


def _target_profile(rule: Rule) -> tuple[bool, tuple[EventType, ...]]:
    """What the edge test reads of a target: its vacuity and watched types."""
    return _is_vacuously_activatable(rule), watched_event_types(rule.events)


def _edge(
    source: Rule, target: Rule, profile: tuple[bool, tuple[EventType, ...]]
) -> TriggeringEdge | None:
    """The edge ``source -> target`` when the source's action may trigger it."""
    vacuous, watched = profile
    generated = action_event_types(source.action)
    if vacuous:
        # Any occurrence unblocks the R != {} condition.
        if not source.action.statements:
            return None
        via = generated
    else:
        via = {
            generated_type
            for generated_type in generated
            if any(_event_types_may_match(generated_type, w) for w in watched)
        }
        if not via:
            return None
    return TriggeringEdge(source.name, target.name, tuple(sorted(via, key=str)))


def can_trigger(source: Rule, target: Rule) -> bool:
    """True when ``source``'s action may generate an event that triggers ``target``."""
    return _edge(source, target, _target_profile(target)) is not None


@dataclass(frozen=True)
class TriggeringEdge:
    """One edge of the triggering graph: ``source`` may trigger ``target``."""

    source: str
    target: str
    #: The event types of the source's action that justify the edge.
    via: tuple[EventType, ...] = ()

    def __str__(self) -> str:
        via = ", ".join(str(event_type) for event_type in self.via) or "any event"
        return f"{self.source} -> {self.target} (via {via})"


@dataclass
class TriggeringGraph:
    """The triggering graph of a rule set plus derived facts."""

    rules: tuple[Rule, ...]
    edges: tuple[TriggeringEdge, ...]
    has_opaque_actions: bool = False
    _adjacency: dict[str, set[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        adjacency: dict[str, set[str]] = {rule.name: set() for rule in self.rules}
        for edge in self.edges:
            adjacency.setdefault(edge.source, set()).add(edge.target)
        self._adjacency = adjacency

    # -- queries ----------------------------------------------------------
    def successors(self, rule_name: str) -> set[str]:
        """Rules that ``rule_name``'s action may trigger."""
        return set(self._adjacency.get(rule_name, set()))

    def predecessors(self, rule_name: str) -> set[str]:
        """Rules whose action may trigger ``rule_name``."""
        return {edge.source for edge in self.edges if edge.target == rule_name}

    def cycles(self) -> list[list[str]]:
        """Elementary cycles of the graph (each as a list of rule names)."""
        cycles: list[list[str]] = []
        names = [rule.name for rule in self.rules]

        def search(
            start: str, current: str, path: list[str], visited: set[str]
        ) -> None:
            for successor in sorted(self._adjacency.get(current, set())):
                if successor == start:
                    cycles.append(path[:])
                elif successor not in visited and successor > start:
                    # Only explore nodes "after" start to report each cycle once.
                    visited.add(successor)
                    search(start, successor, path + [successor], visited)
                    visited.discard(successor)

        for name in sorted(names):
            search(name, name, [name], {name})
        return cycles

    def is_acyclic(self) -> bool:
        """True when the graph has no cycle (a sufficient condition for termination)."""
        return not self.cycles()

    def guaranteed_to_terminate(self) -> bool:
        """Acyclic and with no opaque (Python-callable) actions."""
        return self.is_acyclic() and not self.has_opaque_actions

    def reachable_from(self, rule_name: str) -> set[str]:
        """Rules transitively triggerable from ``rule_name`` (excluding itself unless cyclic)."""
        frontier = [rule_name]
        seen: set[str] = set()
        while frontier:
            current = frontier.pop()
            for successor in self._adjacency.get(current, set()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    def stratification(self) -> list[list[str]] | None:
        """Topological strata of the graph, or None when it is cyclic.

        Stratum 0 contains the rules no other rule can trigger; stratum *k*
        contains rules only triggerable by earlier strata.  Useful both as a
        termination certificate and as a priority-assignment aid.
        """
        if not self.is_acyclic():
            return None
        remaining = {rule.name for rule in self.rules}
        strata: list[list[str]] = []
        while remaining:
            frontier = sorted(
                name
                for name in remaining
                if not (self.predecessors(name) & remaining - {name})
                and not (name in self.predecessors(name))
            )
            if not frontier:
                return None  # defensive: should not happen on an acyclic graph
            strata.append(frontier)
            remaining -= set(frontier)
        return strata

    # -- export ------------------------------------------------------------
    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` (networkx must be installed)."""
        import networkx

        graph = networkx.DiGraph()
        for rule in self.rules:
            graph.add_node(
                rule.name, priority=rule.priority, coupling=rule.coupling.value
            )
        for edge in self.edges:
            graph.add_edge(edge.source, edge.target, via=[str(t) for t in edge.via])
        return graph

    def describe(self) -> str:
        """A human-readable multi-line summary."""
        lines = [f"{len(self.rules)} rules, {len(self.edges)} triggering edges"]
        for edge in self.edges:
            lines.append(f"  {edge}")
        cycles = self.cycles()
        if cycles:
            lines.append("cycles:")
            for cycle in cycles:
                lines.append("  " + " -> ".join(cycle + [cycle[0]]))
        else:
            lines.append("no cycles: the rule set terminates on every input")
        if self.has_opaque_actions:
            lines.append("warning: some actions are opaque Python callables")
        return "\n".join(lines)


def analyze_rules(rules: Sequence[Rule] | Iterable[Rule]) -> TriggeringGraph:
    """Build the triggering graph of a rule set."""
    rule_list = tuple(rules)
    profiles = [_target_profile(rule) for rule in rule_list]
    edges = [
        edge
        for source in rule_list
        for target, profile in zip(rule_list, profiles)
        if (edge := _edge(source, target, profile)) is not None
    ]
    has_opaque = any(
        isinstance(statement, CallableStatement)
        for rule in rule_list
        for statement in rule.action.statements
    )
    return TriggeringGraph(
        rules=rule_list, edges=tuple(edges), has_opaque_actions=has_opaque
    )
