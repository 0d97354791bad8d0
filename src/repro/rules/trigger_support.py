"""The Trigger Support component.

Paper §5: after the Event Handler stores a block's occurrences, the Trigger
Support determines the newly triggered rules.  For every rule that is not
currently triggered it computes the ``ts`` value of the rule's event expression
over the window of occurrences newer than the rule's last consideration; when
the value is positive the rule becomes triggered (the flag is cleared again
only when the rule is considered).

A block reaches the Trigger Support as its type signature alone — the set of
event types the Event Handler's flush returned.  The occurrences stay in the
Event Base, which every exact check reads by window; an empty signature means
the block produced nothing and no rule is checked.

The static optimization of §5.1 plugs in here: the ``ts`` recomputation is
skipped whenever the block's occurrences cannot possibly flip the rule's
``ts`` positive, i.e. when no type of the block matches the positive side of
the rule's ``V(E)`` (:func:`repro.core.optimization.watched_event_types`).

The test is applied *wholesale* through the Rule Table's inverted
subscription index, never rule by rule: the :class:`TriggerPlanner` takes the
block's type signature (the set of event types it contains) and asks the
table which untriggered rules are subscribed to any of them, plus the
*riders*, rules the index cannot route yet, which must be visited on every
block: a rule added or re-enabled until its first check, and a vacuous rule
(active over an empty log, so any occurrence can trigger it) until a check
sees its window non-empty.  A rule defined over an empty log that is not
vacuous never rides, so the first block after defining thousands of rules
checks only the rules its types route.  Per-block planning cost therefore scales with the
rules *actually subscribed* to the block's types, not with the whole table,
and a block whose signature recurs skips even that: the planner memoises the
definition-ordered subscribers per signature (a small LRU, validated against
the table's ``plan_epoch``).  ``use_static_optimization=False`` is the
paper's baseline — the exhaustive scan that recomputes ``ts`` for every
untriggered rule on every block — and the oracle the routed planner is pinned
against (``tests/rules/test_planner_equivalence.py``).

There is one planner and one check path: the candidates (or the exhaustive
list) are evaluated through :meth:`TriggerSupport._evaluate_states` and the
decisions applied in definition order.  The shard coordinator
(:mod:`repro.cluster.coordinator`) plans through this same planner and
overrides only that evaluation hook.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter

from repro.config import EngineConfig
from repro.core.compile import CheckBinder, CompiledCheck
from repro.core.triggering import TriggeringDecision, is_triggered
from repro.events.clock import Timestamp
from repro.events.event import EventType
from repro.events.event_base import EventBase
from repro.obs.registry import MetricsRegistry
from repro.rules.rule import RuleState
from repro.rules.rule_table import RuleTable

#: ``is_triggered`` is a re-export, not a dependency: every production check
#: runs through :mod:`repro.core.compile`.  The name stays bound here as the
#: reference oracle's handle on this layer — ``benchmarks/e2e`` wraps it for
#: its ``core.check`` span, and an oracle Trigger Support (tests) calls it.
__all__ = [
    "TriggerSupportStats",
    "TriggerPlan",
    "TriggerPlanner",
    "TriggerSupport",
    "is_triggered",
]

#: Capacity of the planner's signature memo.  A steady stream re-issues a
#: few dozen block signatures (24 on ``stream.check_heavy``, 13 on
#: ``tx.stock_orders``); a stream whose signatures never repeat only evicts,
#: and a larger memo would merely retain wide frozensets it never hits
#: (PERFORMANCE.md, "One planner").
PLAN_MEMO_SIZE = 64

_definition_order = attrgetter("definition_order")


@dataclass
class TriggerSupportStats:
    """Aggregate counters of the exact checks, folded into every snapshot.

    The registry exports them as ``trigger.*`` (read through
    ``dataclasses.asdict``); the cross-mode differential tests compare them
    byte for byte, and ``benchmarks/e2e`` derives its per-candidate figures
    from them.
    """

    blocks: int = 0
    rules_checked: int = 0
    ts_computations: int = 0
    #: Untriggered rules the index proved irrelevant to a block — the checks
    #: the exhaustive scan would have run and the ``V(E)`` test skips.
    ts_skipped_by_filter: int = 0
    #: Exact checks that observed an empty window, on *either* path (per-block
    #: checks and commit-time rechecks share one helper since PR 1, so unlike
    #: the seed this also counts empty windows seen by recheck_all).
    ts_skipped_empty_window: int = 0
    rules_triggered: int = 0
    #: Candidate instants actually sampled across all exact checks: per check,
    #: the first distinct stamp past the memo's frontier and the rule's own
    #: types' stamps after it, up to the first positive one.  It grows with
    #: the new rows of the types a rule watches, not with the window or the
    #: log (see PERFORMANCE.md).
    instants_sampled: int = 0
    #: Untriggered rules the subscription index routed to a block (the
    #: block's type signature matched their ``V(E)``).
    rules_routed: int = 0


@dataclass
class TriggerPlan:
    """Which rules a block's type signature obliges the Trigger Support to visit."""

    #: Untriggered, enabled rules to check, in definition order (the same
    #: order the exhaustive scan visits them, so observable side effects —
    #: the newly-triggered list, counters — line up exactly).
    candidates: list[RuleState]
    #: How many candidates the subscription index routed (signature matched
    #: their ``V(E)``; the rest are full-check rules the index cannot route
    #: yet).
    routed: int
    #: Untriggered rules the index proved irrelevant — the exhaustive scan
    #: would have checked each.
    bypassed: int


class TriggerPlanner:
    """Routes a block's type signature to the subscribed rules.

    Thin façade over the Rule Table's inverted subscription index: given the
    set of event types a block produced, it returns the untriggered rules
    whose ``V(E)`` may match any of them — plus every rider (a rule whose
    window may hold rows no block routes again, or a vacuous rule, blocked
    only by ``R != {}``, which an occurrence of *any* type can trigger), so
    the index hides nothing the exhaustive scan would trigger.  A planned
    visit set makes the decisions of the exhaustive scan (pinned by the
    property tests of ``tests/rules/test_planner_equivalence.py``).

    The subscriber lookup is memoised per signature: an LRU of
    :data:`PLAN_MEMO_SIZE` definition-ordered subscriber tuples, dropped
    wholesale whenever the table's ``plan_epoch`` moves (rule added or
    removed).  Enabled/triggered flags change without touching the
    subscription shape, so they never key the memo; every block filters them
    afresh.
    """

    def __init__(self, rule_table: RuleTable) -> None:
        self.rule_table = rule_table
        self._memo: OrderedDict[frozenset[EventType], tuple[RuleState, ...]] = (
            OrderedDict()
        )
        self._memo_epoch: int | None = None

    def subscribers(self, signature: frozenset[EventType]) -> tuple[RuleState, ...]:
        """Every rule subscribed to the signature, in definition order (memoised)."""
        table = self.rule_table
        epoch = table.plan_epoch()
        memo = self._memo
        if self._memo_epoch != epoch:
            memo.clear()
            self._memo_epoch = epoch
        subscribed = memo.get(signature)
        if subscribed is None:
            subscribed = memo[signature] = tuple(
                sorted(
                    table.subscribers_for_signature(signature).values(),
                    key=_definition_order,
                )
            )
            if len(memo) > PLAN_MEMO_SIZE:
                memo.popitem(last=False)
        else:
            memo.move_to_end(signature)
        return subscribed

    def plan(self, type_signature: frozenset[EventType]) -> TriggerPlan:
        """The visit plan for one block with the given type signature."""
        table = self.rule_table
        candidates = [
            state
            for state in self.subscribers(type_signature)
            if state.enabled and not state.triggered
        ]
        routed = len(candidates)
        for state in table.pending_full_check_states().values():
            if state.enabled and not state.triggered:
                # A rider joins at its definition-order place, unless the
                # signature already routed it.
                at = bisect_left(
                    candidates, state.definition_order, key=_definition_order
                )
                if at == len(candidates) or candidates[at] is not state:
                    candidates.insert(at, state)
        bypassed = table.untriggered_count() - len(candidates)
        return TriggerPlan(candidates=candidates, routed=routed, bypassed=bypassed)


class TriggerSupport:
    """Determines newly triggered rules after every execution block."""

    def __init__(
        self,
        rule_table: RuleTable,
        event_base: EventBase,
        config: EngineConfig = EngineConfig(),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.rule_table = rule_table
        self.event_base = event_base
        self.config = config
        self.use_static_optimization = config.use_static_optimization
        #: This evaluator's shape kernels; rules are bound to it on their
        #: first check (:meth:`_binding`).
        self.binder = CheckBinder()
        self.planner = TriggerPlanner(rule_table)
        self.stats = TriggerSupportStats()
        # Metrics are opt-in per engine: callers that do not pass a registry
        # get an enabled private one (snapshots still work standalone), while
        # the engine threads a single registry through every component so one
        # snapshot covers the whole pipeline.  The stats record is folded into
        # snapshots as a *source* — the report and the export can never
        # disagree with the benchmark counters.  Histogram handles are cached
        # here because the hot loops probe them per block, not per rule.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register_source("trigger", self.stats)
        self._block_hist = self.metrics.histogram("block.check")

    # -- the core check -----------------------------------------------------
    def check_after_block(
        self,
        type_signature: frozenset[EventType],
        now: Timestamp,
        transaction_start: Timestamp,
    ) -> list[RuleState]:
        """Update the triggered flag of every untriggered rule; return the new ones.

        ``type_signature`` is the set of event types the block that just
        finished produced (what the Event Handler's flush returns); the
        block's occurrences themselves are read from the Event Base.  With
        static optimization enabled the signature is routed through the
        ``V(E)`` index, and a bypass is that test applied wholesale: the
        index proved no occurrence of the block can flip those rules' ``ts``
        positive.  The triggering window of each rule spans from its last
        consideration (or the transaction start) to ``now``.
        """
        self.stats.blocks += 1
        if not type_signature:
            # Nothing happened in this block: no rule can become triggered
            # (T(r, t) requires at least one new occurrence for untriggered
            # rules whose window was already evaluated; rules whose window was
            # non-empty were evaluated when those occurrences arrived).
            return []

        with self._block_hist.time():
            if self.use_static_optimization:
                plan = self.planner.plan(type_signature)
                self.stats.rules_routed += plan.routed
                self.stats.ts_skipped_by_filter += plan.bypassed
                candidates = plan.candidates
            else:
                candidates = self.rule_table.untriggered_states()
            self.stats.rules_checked += len(candidates)
            return self._check_states(candidates, now, transaction_start)

    def recheck_all(
        self, now: Timestamp, transaction_start: Timestamp
    ) -> list[RuleState]:
        """Force a full re-evaluation of every untriggered rule (no routing).

        Used at commit time to make sure deferred processing starts from an
        up-to-date picture even if the last blocks were empty.
        """
        return self._check_states(
            self.rule_table.untriggered_states(), now, transaction_start
        )

    def _check_states(
        self, states: list[RuleState], now: Timestamp, transaction_start: Timestamp
    ) -> list[RuleState]:
        """Run the exact check for ``states`` and return the newly triggered.

        Shared by :meth:`check_after_block` and :meth:`recheck_all`, so the
        incremental memo, the non-empty-window flag and the counters are
        maintained consistently whichever path reached the rule: evaluate
        through :meth:`_evaluate_states`, then apply the decisions in
        definition order.
        """
        newly_triggered: list[RuleState] = []
        for state, decision in self._evaluate_states(states, now, transaction_start):
            if self._apply_decision(state, decision, now):
                newly_triggered.append(state)
        return newly_triggered

    def _evaluate_states(
        self, states: list[RuleState], now: Timestamp, transaction_start: Timestamp
    ) -> list[tuple[RuleState, TriggeringDecision]]:
        """The read side of one check round: ``(state, decision)`` pairs in
        definition order.

        ``states`` arrive definition-ordered.  This evaluator checks them
        inline; the shard coordinator overrides this hook to deal them to
        its evaluation homes.
        """
        return [
            (state, self._evaluate_rule(state, now, transaction_start))
            for state in states
        ]

    def _evaluate_rule(
        self, state: RuleState, now: Timestamp, transaction_start: Timestamp
    ) -> TriggeringDecision:
        """The exact check's read side: compute the triggering decision.

        Touches only per-rule state (the incremental memo), so independent
        rules can be evaluated concurrently — the shard coordinator's worker
        pool relies on this split, applying the decisions serially afterwards
        (:meth:`_apply_decision`).  Every in-process check — per block,
        commit-time recheck, the coordinator's own share — ends here.
        """
        return self._binding(state).check(
            self.event_base,
            state.trigger_window_start(transaction_start),
            now,
            memo=state.trigger_memo,
        )

    def _binding(self, state: RuleState) -> CompiledCheck:
        """The rule's binding to this evaluator's kernels, made on first use.

        The one place a binding is ensured, so no path into the evaluation
        kernels can miss it — whichever way the rule entered the table
        (``ChimeraDatabase.define_rule``, a bare ``RuleTable.add``, a re-add
        under a live name) and whichever check reaches it first.
        """
        compiled = state.compiled_check
        if compiled is None or compiled.binder is not self.binder:
            compiled = state.compiled_check = self.binder.bind(
                state.rule.events, state.shape
            )
        return compiled

    def _apply_decision(self, state: RuleState, decision, now: Timestamp) -> bool:
        """The exact check's write side: counters, rider flag, triggering."""
        state.ts_computations += 1
        self.stats.ts_computations += 1
        self.stats.instants_sampled += decision.instants_sampled
        if decision.window_size == 0:
            self.stats.ts_skipped_empty_window += 1
        if state.rider and (decision.window_size or not state.vacuous):
            # Checked once: from here on the index routes every row that can
            # flip the rule's ts (a vacuous rule only once its window holds
            # a row, which is what R != {} waits for).
            state.disarm()
        if decision.triggered:
            state.mark_triggered(now)
            self.stats.rules_triggered += 1
            return True
        return False

    def reset_worker_mirrors(self) -> None:
        """Empty the process workers' mirrors with the log (none in-process)."""
