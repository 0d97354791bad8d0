"""The Rule Table: the registry of defined rules and their states.

Paper §5: "The Trigger Support maintains in the Rule Table the current status
of all defined rules; this table is managed by means of a hash table for fast
access, but rules are also linked together by means of a queue on the basis of
the priority order."  Here the hash table is a dict keyed by rule name; the
priority queue is the triggered set itself, kept as one sorted list per
coupling mode of ``(-priority, definition_order, name)`` entries: a rule is
inserted when it triggers and deleted when it leaves the set, so the head of
a list is the next rule to consider.

The table additionally maintains the *inverted subscription index* that the
:class:`~repro.rules.trigger_support.TriggerPlanner` consults after every
execution block: for every primitive event type a rule's ``V(E)`` watches
(:func:`repro.core.optimization.watched_event_types`, kept on the state as
``watched_types``), the rule is registered under

* the exact watched type, and
* the ``(operation, class name)`` bucket of that type,

so a block's type signature can be routed to the subscribed rules without
scanning the whole table.  Class-level patterns such as ``modify(stock)``
reach attribute-specific occurrences (``modify(stock.quantity)``) through the
class bucket, and attribute-specific patterns are reached by class-level
occurrences the same way — :meth:`EventType.matches` in both directions and
nothing more.  Class names are compared exactly, as the calculus compares
them: an occurrence on a subclass does not reach a superclass watcher.

``V(E)`` is derived once per expression *shape* (the operator tree with its
types replaced by slots, :func:`repro.core.compile.shape_of`), not once per
rule: the table keeps, per shape, the watched slots and whether the shape is
*vacuous* (active over an empty log), and reads each rule's watched types off
its own slot types.  Twenty thousand rules of two shapes derive ``V(E)``
twice.

Consistency is kept through the observer hook on :class:`RuleState`: every
``mark_triggered`` / ``mark_considered`` / ``disarm`` / ``reset`` notifies the
owning table, which updates the triggered queues and the *pending-full-check*
set: the *riders*, rules the ``V(E)`` index cannot route yet, which the
planner visits on every block whatever its types.  Both are exact at all
times.
:meth:`add` and :meth:`enable` arm a rider, because its window may hold rows
no later block routes again.  A consideration or a reset re-arms it only if
it is vacuous: its window is then empty, and a non-vacuous rule's ``ts``
over an empty window is negative, so only a positive ``V(E)`` variation can
flip it — which the index routes (:mod:`repro.core.optimization`).  So a
rule defined through ``ChimeraDatabase.define_rule`` (an add, then a reset
at "now") is never a rider unless it is vacuous.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Iterable, Iterator

from repro.core.compile import is_vacuous, shape_of
from repro.core.optimization import watched_slots
from repro.errors import DuplicateRuleError, UnknownRuleError
from repro.events.clock import Timestamp
from repro.events.event import EventType, Operation
from repro.rules.rule import ECCoupling, Rule, RuleState

__all__ = ["RuleTable"]

#: A subscription bucket: the subscribed states keyed by rule name.
_StatesByName = dict[str, RuleState]

#: A triggered rule's queue entry: ``(-priority, definition_order, name)``.
#: Definition orders are unique, so entries order exactly as the paper's
#: priority queue and never tie.
_QueueEntry = tuple[int, int, str]


class RuleTable:
    """Registry of rules, their run-time state, priority order and subscriptions."""

    def __init__(self) -> None:
        self._states: dict[str, RuleState] = {}
        self._definition_counter = 0
        #: Per expression shape (:func:`repro.core.compile.shape_of`'s key):
        #: ``(key, watched slots, vacuous)``, derived by the first rule of the
        #: shape; every later one reads them and shares that rule's key.
        self._shapes: dict[Any, tuple[Any, tuple[int, ...], bool]] = {}
        # -- inverted subscription index (event type -> subscribed states) --
        self._subscriptions_exact: dict[EventType, _StatesByName] = {}
        self._subscriptions_class: dict[tuple[Operation, str], _StatesByName] = {}
        #: The riders: enabled, untriggered rules whose ``RuleState.rider`` is
        #: set, which must be visited on *every* non-empty block because the
        #: V(E) index cannot route them yet.
        self._pending_full_check: dict[str, RuleState] = {}
        #: Bumped whenever the subscription index changes shape (rule added or
        #: removed): :meth:`plan_epoch`.
        self._index_version = 0
        # -- the priority queue: the triggered set, sorted per coupling --
        #: Each triggered rule's queue entry, as inserted (its removal
        #: deletes exactly that entry).
        self._triggered: dict[str, _QueueEntry] = {}
        self._queues: dict[ECCoupling, list[_QueueEntry]] = {
            coupling: [] for coupling in ECCoupling
        }
        self._disabled: set[str] = set()

    # -- registration -------------------------------------------------------
    def add(self, rule: Rule) -> RuleState:
        """Register a rule; raises :class:`DuplicateRuleError` on name clashes."""
        if rule.name in self._states:
            raise DuplicateRuleError(rule.name)
        key, types = shape_of(rule.events)
        facts = self._shapes.get(key)
        if facts is None:
            facts = self._shapes[key] = (
                key,
                watched_slots(rule.events, types),
                is_vacuous(rule.events),
            )
        key, watched, vacuous = facts
        state = RuleState(
            rule=rule,
            definition_order=self._definition_counter,
            watched_types=tuple(sorted([types[slot] for slot in watched], key=str)),
            shape=(key, types),
            vacuous=vacuous,
            observer=self,
        )
        self._definition_counter += 1
        self._states[rule.name] = state
        self._index_subscriptions(state)
        self._index_version += 1
        # Armed: its window may already hold rows no later block routes again.
        self._pending_full_check[rule.name] = state
        return state

    def remove(self, name: str) -> Rule:
        """Drop a rule definition and return it."""
        state = self._states.pop(name, None)
        if state is None:
            raise UnknownRuleError(name)
        state.observer = None
        self._unindex_subscriptions(state)
        self._index_version += 1
        self._drop_rider(name)
        self._dequeue(state)
        self._disabled.discard(name)
        return state.rule

    def plan_epoch(self) -> int:
        """Cache-validity token for plan-derived structures.

        The index version: it moves on every add and remove, the only events
        that can alter :meth:`subscribers_for_signature` for a fixed
        signature.  The planner's signature memo
        (:class:`repro.rules.trigger_support.TriggerPlanner`) keys on it.
        """
        return self._index_version

    # -- subscription index ---------------------------------------------------
    def _index_subscriptions(self, state: RuleState) -> None:
        name = state.rule.name
        for watched in state.watched_types:
            self._subscriptions_exact.setdefault(watched, {})[name] = state
            class_key = (watched.operation, watched.class_name)
            self._subscriptions_class.setdefault(class_key, {})[name] = state

    def _unindex_subscriptions(self, state: RuleState) -> None:
        name = state.rule.name
        for watched in state.watched_types:
            bucket = self._subscriptions_exact.get(watched)
            if bucket is not None:
                bucket.pop(name, None)
                if not bucket:
                    del self._subscriptions_exact[watched]
            class_key = (watched.operation, watched.class_name)
            class_bucket = self._subscriptions_class.get(class_key)
            if class_bucket is not None:
                class_bucket.pop(name, None)
                if not class_bucket:
                    del self._subscriptions_class[class_key]

    def subscribers_for_signature(
        self, type_signature: Iterable[EventType]
    ) -> dict[str, RuleState]:
        """States whose ``V(E)`` may match an occurrence of any signature type.

        Rule ``r`` is routed iff some signature type ``t`` and watched type
        ``w`` satisfy ``w.matches(t) or t.matches(w)``: an attribute-specific
        occurrence reaches exact subscribers plus class-level subscribers; a
        class-level occurrence reaches every subscriber of its ``(operation,
        class)`` bucket (it matches any attribute-specific watch).
        """
        exact = self._subscriptions_exact
        class_buckets = self._subscriptions_class
        matched: dict[str, RuleState] = {}
        for event_type in type_signature:
            if event_type.attribute is None:
                bucket = class_buckets.get(
                    (event_type.operation, event_type.class_name)
                )
                if bucket:
                    matched.update(bucket)
            else:
                bucket = exact.get(event_type)
                if bucket:
                    matched.update(bucket)
                bucket = exact.get(event_type.class_level)
                if bucket:
                    matched.update(bucket)
        return matched

    def pending_full_check_states(self) -> dict[str, RuleState]:
        """The riders: states the ``V(E)`` index cannot route yet.

        A state leaves the set when a check disarms it, or when it triggers,
        is disabled or removed; it re-enters through the observer hook when
        enabled, or, if vacuous, when considered or reset.
        """
        return self._pending_full_check

    # -- observer hook (called by RuleState on flag transitions) ----------------
    def state_changed(self, state: RuleState) -> None:
        """Re-derive one state's membership of the queues and the rider set."""
        name = state.rule.name
        if self._states.get(name) is not state:
            return  # detached state (removed rule): nothing to maintain
        if state.enabled and state.triggered:
            if name not in self._triggered:
                entry = (-state.rule.priority, state.definition_order, name)
                self._triggered[name] = entry
                insort(self._queues[state.rule.coupling], entry)
        else:
            self._dequeue(state)
        if state.enabled and not state.triggered and state.rider:
            self._pending_full_check[name] = state
        else:
            # Disarmed, triggered or disabled: not a rider now (a
            # consideration, a reset or enable() arms it again).
            self._drop_rider(name)

    def _dequeue(self, state: RuleState) -> None:
        """Take ``state`` out of the triggered set, if it is there."""
        entry = self._triggered.pop(state.rule.name, None)
        if entry is not None:
            queue = self._queues[state.rule.coupling]
            del queue[bisect_left(queue, entry)]

    def _drop_rider(self, name: str) -> None:
        """Take ``name`` out of the rider set, if it is there.

        The set that a removal empties is replaced by a fresh one: a CPython
        dict never shrinks its slot table, and the planner walks this set on
        every block (after 20 000 bare adds, walking the emptied dict costs
        11 µs against 0.2 µs for a fresh one).
        """
        pending = self._pending_full_check
        if pending.pop(name, None) is not None and not pending:
            self._pending_full_check = {}

    # -- access ---------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._states

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[RuleState]:
        return iter(self._states.values())

    def get(self, name: str) -> RuleState:
        """The state record of rule ``name``."""
        try:
            return self._states[name]
        except KeyError as exc:
            raise UnknownRuleError(name) from exc

    def rules(self) -> list[Rule]:
        """Every registered rule, in definition order."""
        return [state.rule for state in self.states()]

    def states(self) -> list[RuleState]:
        """Every state record, in definition order."""
        # Insertion order is definition order: ``add`` appends under a rising
        # counter, and a remove + re-add moves the name to the end.
        return list(self._states.values())

    # -- enable / disable -------------------------------------------------------
    def enable(self, name: str) -> None:
        """Re-enable a rule as a rider: its window may hold a triggering."""
        state = self.get(name)
        state.enabled = True
        state.rider = True
        self._disabled.discard(name)
        self.state_changed(state)

    def disable(self, name: str) -> None:
        """Disable a rule: it keeps its definition but never triggers."""
        state = self.get(name)
        state.enabled = False
        state.triggered = False
        self._disabled.add(name)
        self.state_changed(state)

    # -- selection ----------------------------------------------------------------
    def untriggered_states(self) -> list[RuleState]:
        """Enabled rules that are currently not triggered (candidates for triggering)."""
        return [
            state for state in self.states() if state.enabled and not state.triggered
        ]

    def untriggered_count(self) -> int:
        """How many enabled rules are currently not triggered (O(1))."""
        # Disabled rules are never triggered (disable() clears the flag) and
        # the triggered set only holds enabled rules, so the three sets
        # partition the table.
        return len(self._states) - len(self._triggered) - len(self._disabled)

    def triggered_states(self, coupling: ECCoupling | None = None) -> list[RuleState]:
        """Triggered rules, optionally filtered by coupling mode, in priority order."""
        entries = (
            sorted(self._triggered.values())
            if coupling is None
            else self._queues[coupling]
        )
        return [self._states[name] for _, _, name in entries]

    def select_for_consideration(
        self, coupling: ECCoupling | None = None
    ) -> RuleState | None:
        """The highest-priority triggered rule, or None when nothing is triggered.

        The head of the coupling's queue, or the smaller of the two heads; the
        selected rule stays queued until it is considered.
        """
        if coupling is not None:
            queue = self._queues[coupling]
            return self._states[queue[0][2]] if queue else None
        heads = [queue[0] for queue in self._queues.values() if queue]
        return self._states[min(heads)[2]] if heads else None

    # -- transaction boundaries -------------------------------------------------------
    def reset_all(self, transaction_start: Timestamp) -> None:
        """Reset every rule's dynamic state at a transaction boundary."""
        for state in self._states.values():
            state.reset(transaction_start)
