"""The Rule Table: the registry of defined rules and their states.

Paper §5: "The Trigger Support maintains in the Rule Table the current status
of all defined rules; this table is managed by means of a hash table for fast
access, but rules are also linked together by means of a queue on the basis of
the priority order."  Here the hash table is a dict keyed by rule name; the
priority queue is a real structure — one lazily-invalidated binary heap per
coupling mode keyed on ``(-priority, definition_order)`` — instead of a sort
of the triggered set on every selection.

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
``mark_triggered`` / ``mark_considered`` / ``reset`` notifies the owning
table, which updates the triggered set, pushes fresh heap entries and keeps
the *pending-full-check* set: the *riders*, rules the ``V(E)`` index cannot
route yet, which the planner visits on every block whatever its types.
:meth:`add` and :meth:`enable` arm a rider, because its window may hold rows
no later block routes again.  A consideration or a reset re-arms it only if
it is vacuous: its window is then empty, and a non-vacuous rule's ``ts``
over an empty window is negative, so only a positive ``V(E)`` variation can
flip it — which the index routes (:mod:`repro.core.optimization`).  So a
rule defined through ``ChimeraDatabase.define_rule`` (an add, then a reset
at "now") is never a rider unless it is vacuous.  Heap entries are
invalidated lazily: a stale entry (rule considered, disabled, removed or
re-triggered since it was pushed) is discarded when it surfaces.
"""

from __future__ import annotations

import heapq
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

#: A heap entry: ``(-priority, definition_order, token, rule name)``.  The
#: token makes entries of superseded pushes (rule re-triggered after a
#: consideration) detectably stale.
_HeapEntry = tuple[int, int, int, str]

#: Below this heap size a compaction saves too little to pay for the rebuild:
#: stale entries are discarded lazily by ``_peek`` as they surface.
_HEAP_COMPACT_THRESHOLD = 32


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
        #: The riders: rules that must be visited on *every* non-empty block
        #: because the V(E) index cannot route them yet (``RuleState.rider``).
        #: Over-approximating: a check disarms a rider without a
        #: notification, and the planner's accessor prunes it lazily.
        self._pending_full_check: dict[str, RuleState] = {}
        #: Bumped whenever the subscription index changes shape (rule added or
        #: removed): :meth:`plan_epoch`.
        self._index_version = 0
        # -- priority structure over the triggered set --
        self._triggered: dict[str, RuleState] = {}
        self._heaps: dict[ECCoupling, list[_HeapEntry]] = {
            coupling: [] for coupling in ECCoupling
        }
        self._heap_tokens: dict[str, int] = {}
        #: Table-global monotonic source of heap tokens.  Global, not
        #: per-name: if a rule is removed and its name re-added, a per-name
        #: counter would restart and a surviving stale entry (old rule's
        #: priority, same token value) could pass the validity check.
        self._token_counter = 0
        self._disabled: set[str] = set()
        #: Per-coupling count of heap entries known stale (their rule left the
        #: triggered set or was removed since the push).  Drives
        #: :meth:`_maybe_compact`: when stale entries outnumber live ones the
        #: heap is rebuilt instead of leaking until they surface in ``_peek``.
        self._stale_counts: dict[ECCoupling, int] = {
            coupling: 0 for coupling in ECCoupling
        }
        #: How many counter-driven heap compactions have run (observability).
        self.heap_compactions = 0

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
        self._pending_full_check.pop(name, None)
        if self._triggered.pop(name, None) is not None:
            self._note_stale(state.rule.coupling)
        self._heap_tokens.pop(name, None)  # surviving heap entries go stale
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
        """The riders: states the ``V(E)`` index cannot route yet (lazily pruned).

        A state leaves the set once a check disarms it (the Trigger Support
        clears ``rider`` without a notification; pruning here keeps the set
        tight) and re-enters it through the observer hook when enabled, or,
        if vacuous, when considered or reset.
        """
        pending = self._pending_full_check
        pruned = [
            name
            for name, state in pending.items()
            if not state.rider or self._states.get(name) is not state
        ]
        if 4 * len(pruned) >= len(pending):
            # Heavy prune (rules added by a bare add or re-enabled in bulk
            # leave the set after their first checked block).  Rebuild
            # instead of deleting in place: a CPython dict never shrinks its
            # slot table, so a once-huge pending dict would make every later
            # iteration O(peak size) — the planner walks this set on every
            # block.
            if pruned:
                dropped = set(pruned)
                self._pending_full_check = {
                    name: state
                    for name, state in pending.items()
                    if name not in dropped
                }
        else:
            for name in pruned:
                del pending[name]
        return self._pending_full_check

    # -- observer hook (called by RuleState on flag transitions) ----------------
    def state_changed(self, state: RuleState) -> None:
        """Re-derive the triggered set, heaps and pending set for one state."""
        name = state.rule.name
        if self._states.get(name) is not state:
            return  # detached state (removed rule): nothing to maintain
        if state.enabled and state.triggered:
            if name not in self._triggered:
                self._triggered[name] = state
                self._token_counter += 1
                token = self._token_counter
                self._heap_tokens[name] = token
                heapq.heappush(
                    self._heaps[state.rule.coupling],
                    (-state.rule.priority, state.definition_order, token, name),
                )
        else:
            if self._triggered.pop(name, None) is not None:
                # The rule's current heap entry just went stale (considered,
                # disabled or detriggered before surfacing in _peek).
                self._note_stale(state.rule.coupling)
        if state.enabled and not state.triggered and state.rider:
            self._pending_full_check[name] = state
        else:
            # Disarmed, triggered or disabled: not a rider candidate now (a
            # consideration, a reset or enable() arms it again).
            self._pending_full_check.pop(name, None)

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
        return sorted(self._states.values(), key=lambda state: state.definition_order)

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
        """Triggered rules, optionally filtered by coupling mode, in priority order.

        Sorts only the triggered set (maintained incrementally via the state
        observer), not the whole table.
        """
        candidates = [
            state
            for state in self._triggered.values()
            if state.enabled
            and state.triggered
            and (coupling is None or state.rule.coupling is coupling)
        ]
        candidates.sort(
            key=lambda state: (-state.rule.priority, state.definition_order)
        )
        return candidates

    def _entry_valid(self, entry: _HeapEntry) -> bool:
        """Does this heap entry still describe a triggered, enabled rule?"""
        _, _, token, name = entry
        state = self._states.get(name)
        return (
            state is not None
            and state.enabled
            and state.triggered
            and self._heap_tokens.get(name) == token
        )

    def _note_stale(self, coupling: ECCoupling) -> None:
        """Record that one entry of ``coupling``'s heap went stale; maybe compact."""
        self._stale_counts[coupling] += 1
        self._maybe_compact(coupling)

    def _maybe_compact(self, coupling: ECCoupling) -> None:
        """Rebuild one heap when its stale entries outnumber the live ones.

        The lazy invalidation scheme leaks entries until they surface at the
        top; under heavy trigger/consider churn (ROADMAP open item) a heap can
        grow far beyond the triggered population.  Counter-driven compaction
        bounds it: each heap holds at most ``2 * live + 1`` entries (plus the
        small constant threshold below which rebuilding is not worth it), so
        selection stays O(log live) amortized whatever the churn.
        """
        heap = self._heaps[coupling]
        stale = self._stale_counts[coupling]
        if len(heap) < _HEAP_COMPACT_THRESHOLD or 2 * stale <= len(heap):
            return
        survivors = [entry for entry in heap if self._entry_valid(entry)]
        heapq.heapify(survivors)
        self._heaps[coupling] = survivors
        self._stale_counts[coupling] = 0
        self.heap_compactions += 1

    def heap_sizes(self) -> dict[ECCoupling, int]:
        """Current entry count per coupling heap (stale entries included)."""
        return {coupling: len(heap) for coupling, heap in self._heaps.items()}

    def _peek(self, coupling: ECCoupling) -> _HeapEntry | None:
        """Top valid entry of one heap, discarding stale entries on the way.

        Every discarded entry was accounted by :meth:`_note_stale` when it
        went stale, so the counter is decremented in step — it always equals
        the number of stale entries actually present in the heap.
        """
        heap = self._heaps[coupling]
        while heap:
            if self._entry_valid(heap[0]):
                return heap[0]
            heapq.heappop(heap)
            self._stale_counts[coupling] -= 1
        return None

    def select_for_consideration(
        self, coupling: ECCoupling | None = None
    ) -> RuleState | None:
        """The highest-priority triggered rule, or None when nothing is triggered.

        O(log k) amortized via the per-coupling heaps (k = triggered rules);
        the selected rule stays queued — its entry goes stale when the rule is
        actually considered (``mark_considered`` clears the flag).
        """
        if coupling is not None:
            entry = self._peek(coupling)
            return self._states[entry[3]] if entry is not None else None
        best: _HeapEntry | None = None
        for heap_coupling in self._heaps:
            entry = self._peek(heap_coupling)
            if entry is not None and (best is None or entry[:2] < best[:2]):
                best = entry
        return self._states[best[3]] if best is not None else None

    # -- transaction boundaries -------------------------------------------------------
    def reset_all(self, transaction_start: Timestamp) -> None:
        """Reset every rule's dynamic state at a transaction boundary."""
        for state in self._states.values():
            state.reset(transaction_start)
        # The notifications above emptied the triggered set; drop the stale
        # heap entries wholesale instead of leaking them until they surface.
        for coupling, heap in self._heaps.items():
            heap.clear()
            self._stale_counts[coupling] = 0
