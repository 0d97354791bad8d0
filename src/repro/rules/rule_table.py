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
(``RecomputationFilter.relevant_event_types()``), the rule is registered under

* the exact watched type, and
* the ``(operation, class name)`` bucket of that type,

so a block's type signature can be routed to the subscribed rules without
scanning the whole table.  Class-level patterns such as ``modify(stock)``
reach attribute-specific occurrences (``modify(stock.quantity)``) through the
class bucket, and attribute-specific patterns are reached by class-level
occurrences the same way — mirroring :meth:`EventType.matches` in both
directions, which is exactly the matching the ``V(E)`` run-time filter
performs one rule at a time.

Consistency is kept through the observer hook on :class:`RuleState`: every
``mark_triggered`` / ``mark_considered`` / ``reset`` notifies the owning
table, which updates the triggered set, pushes fresh heap entries and re-arms
the *pending-full-check* set (rules whose ``V(E)`` filter is not applicable
yet and therefore must be visited on every block — see
:mod:`repro.core.optimization` for why).  Heap entries are invalidated lazily:
a stale entry (rule considered, disabled, removed or re-triggered since it was
pushed) is discarded when it surfaces.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.core.optimization import RecomputationFilter, expand_event_type
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
        # -- inverted subscription index (event type -> subscribed states) --
        self._subscriptions_exact: dict[EventType, _StatesByName] = {}
        self._subscriptions_class: dict[tuple[Operation, str], _StatesByName] = {}
        #: Rules that must be visited on *every* non-empty block because their
        #: V(E) filter is not applicable yet (window never evaluated non-empty
        #: since the last consideration).  Over-approximating: entries whose
        #: flag has since been set are pruned lazily by the planner accessor.
        self._pending_full_check: dict[str, RuleState] = {}
        #: Optional schema for subclass-aware signature routing (see
        #: :meth:`bind_schema`); version-stamped expansion memo alongside.
        self._schema = None
        self._expansion_cache: dict[EventType, tuple[EventType, ...]] = {}
        self._expansion_schema_version = 0
        #: Bumped whenever the subscription index changes shape (rule added or
        #: removed) or a schema is bound.  The planner's signature memo
        #: (:class:`repro.rules.trigger_support.TriggerPlanner`) keys on it.
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
        state = RuleState(rule=rule, definition_order=self._definition_counter)
        self._definition_counter += 1
        state.recomputation_filter = RecomputationFilter(
            rule.events, schema=self._schema
        )
        state.observer = self
        self._states[rule.name] = state
        self._index_subscriptions(state)
        self._index_version += 1
        # A fresh rule has never seen a non-empty window: full-check until then.
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

    # -- schema binding -------------------------------------------------------
    def bind_schema(self, schema) -> None:
        """Make signature routing and the per-rule filters subclass-aware.

        ``schema`` is duck-typed (``__contains__``, ``ancestors``, ``version``
        — see :func:`repro.core.optimization.expand_event_type`).  Binding is
        idempotent and also rebinds the filters of already-registered rules so
        the routed path and the per-rule scan path keep making identical
        decisions.  Another schema may relate the same class names
        differently at an equal ``version``, so binding one moves
        :meth:`plan_epoch` too.
        """
        if schema is self._schema:
            return
        self._schema = schema
        self._index_version += 1
        self._expansion_cache.clear()
        self._expansion_schema_version = schema.version if schema is not None else 0
        for state in self._states.values():
            if state.recomputation_filter is not None:
                state.recomputation_filter.bind_schema(schema)

    def plan_epoch(self) -> tuple[int, int]:
        """Cache-validity token for plan-derived structures.

        Changes whenever the subscription index changes shape (add/remove), a
        schema is bound or the bound schema gains definitions — exactly the
        events that can alter the outcome of :meth:`subscribers_for_signature`
        for a fixed signature.
        """
        return (
            self._index_version,
            self._schema.version if self._schema is not None else 0,
        )

    # -- subscription index ---------------------------------------------------
    def _index_subscriptions(self, state: RuleState) -> None:
        name = state.rule.name
        for watched in state.recomputation_filter.relevant_event_types():
            self._subscriptions_exact.setdefault(watched, {})[name] = state
            class_key = (watched.operation, watched.class_name)
            self._subscriptions_class.setdefault(class_key, {})[name] = state

    def _unindex_subscriptions(self, state: RuleState) -> None:
        name = state.rule.name
        for watched in state.recomputation_filter.relevant_event_types():
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

        Exactly the rules for which ``RecomputationFilter.matches`` would
        return True for some type of the signature: an attribute-specific
        occurrence reaches exact subscribers plus class-level subscribers; a
        class-level occurrence reaches every subscriber of its ``(operation,
        class)`` bucket (it matches any attribute-specific watch).  With a
        schema bound, each signature type is first expanded with its
        superclass retargets (an occurrence on a subclass counts for watchers
        of any ancestor), mirroring the filter's subclass-aware matching.
        The expansion of each concrete type is memoized and dropped when the
        schema version moves (a newly defined subclass changes its own chain
        only, but a wholesale drop keeps the bookkeeping trivially correct).
        """
        schema = self._schema
        chains = self._expansion_cache
        if schema is not None and schema.version != self._expansion_schema_version:
            chains.clear()
            self._expansion_schema_version = schema.version
        exact = self._subscriptions_exact
        class_buckets = self._subscriptions_class
        matched: dict[str, RuleState] = {}
        for concrete in type_signature:
            chain = chains.get(concrete)
            if chain is None:
                chain = chains[concrete] = expand_event_type(concrete, schema)
            for event_type in chain:
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
        """States whose ``V(E)`` filter cannot be applied yet (lazily pruned).

        A state leaves the set as soon as its window has been evaluated
        non-empty (the flag is set by the Trigger Support without a
        notification; pruning here keeps the set tight) and re-enters it on
        consideration / reset through the observer hook.
        """
        pending = self._pending_full_check
        pruned = [
            name
            for name, state in pending.items()
            if state.had_nonempty_window or self._states.get(name) is not state
        ]
        if 4 * len(pruned) >= len(pending):
            # Heavy prune (the common case: every fresh rule leaves the set
            # after its first checked block).  Rebuild instead of deleting in
            # place: a CPython dict never shrinks its slot table, so a
            # once-huge pending dict would make every later iteration O(peak
            # size) — the planner walks this set on every block.
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
        if state.enabled and not state.triggered and not state.had_nonempty_window:
            self._pending_full_check[name] = state
        elif not state.enabled:
            # A disabled rule is never a candidate; without this the planner
            # would keep re-scanning it every block (it is re-armed by the
            # enable() notification).
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
        """Re-enable a disabled rule."""
        state = self.get(name)
        state.enabled = True
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
