"""The Shard Coordinator: fan a block's type signature out to the owning shards.

After the Event Handler flushes a block, the coordinator takes the block's
type signature (computed once by :class:`~repro.rules.event_handler.BlockIngest`),
expands it through the table's schema binding, and routes each type to the
single shard owning its ``(operation, class)`` bucket.  Per consulted shard
the candidate set comes from the shard's memoized sub-signature plan
(:meth:`~repro.cluster.sharding.ShardedRuleTable.shard_plan`); a rule
registered on several shards is planned exactly once (the lowest consulted
owning shard wins, deterministically), and pending-full-check rules — which
every block must visit regardless of signature — ride on their name's home
shard.

Each candidate is then *checked* by its **evaluation home**, the shard
:func:`~repro.cluster.sharding.home_shard` assigns its name when the rule is
added: a per-rule constant, so rules spread evenly across homes whatever
buckets they watch, and a rule's incremental memo stays resident with one
evaluator for its lifetime.  The exact checks run in one of two execution
modes (``shard_mode``):

* **serial deterministic** (default) — every home's batch is evaluated
  inline, over shared zero-copy
  :class:`~repro.events.event_base.BoundedView` windows carved out of the one
  Event Base.  The check path is index-bisection-bound (pure-Python
  ``bisect`` over the shared indexes), so this is also the fastest
  single-core mode on a GIL-bound interpreter;
* **processes** — the coordinator is the evaluator of home 0 and a
  :class:`~repro.cluster.process_pool.ProcessShardPool` of N − 1 long-lived
  workers evaluates homes 1 … N − 1: each worker owns its home's expressions
  and memos plus a mirror Event Base grown from per-block log deltas, and
  replies with decisions.  The coordinator sends the block's items, checks
  its own share through the serial kernels while the workers check theirs,
  then drains the replies — so ``shards=2`` runs two evaluators on two
  cores, and ``shards=1`` spawns nothing.  A block whose candidates are all
  homed on the coordinator never contacts the pool.

Whatever the mode, the decisions are **applied serially in definition
order**, so the triggered set, the priority heaps, every counter and the
returned newly-triggered list are byte-for-byte identical to the
single-table ``check_after_block`` — the equivalence the ``tests/cluster``
property tests pin for shard counts 1–8 under rule churn, in both modes
(``tests/cluster/test_mode_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.config import EngineConfig
from repro.core.evaluation import EvaluationStats
from repro.core.triggering import TriggeringDecision
from repro.cluster.process_pool import ProcessShardPool
from repro.cluster.sharding import ShardedRuleTable
from repro.events.clock import Timestamp
from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import MergeableStats
from repro.rules.rule import RuleState
from repro.rules.trigger_support import TriggerSupport

__all__ = ["ShardedPlan", "ShardCoordinatorStats", "ShardCoordinator"]


@dataclass
class ShardedPlan:
    """One block's fan-out: which shard's plan reached which rules."""

    #: ``(shard id, candidates)`` pairs in shard order; candidates are
    #: deduplicated across shards and definition-ordered within each shard.
    per_shard: list[tuple[int, list[RuleState]]]
    #: Candidates reached through shard subscription plans.
    routed: int
    #: Pending-full-check candidates dealt to their home shards.
    pending: int
    #: Untriggered rules no shard needs to look at for this block.
    bypassed: int

    @property
    def candidates(self) -> int:
        return self.routed + self.pending


@dataclass
class ShardCoordinatorStats(MergeableStats):
    """Fan-out observability, on top of the inherited TriggerSupport stats.

    ``as_dict()``/``merge()`` follow the shared stats protocol;
    ``max_shards_per_block`` is a high-water mark and merges via ``max``.
    """

    blocks_fanned_out: int = 0
    shards_consulted: int = 0
    max_shards_per_block: int = 0
    #: Worker batches dispatched to process workers.
    parallel_batches: int = 0
    #: Blocks that had at least one candidate to evaluate.
    dispatch_trips: int = 0
    #: Route-cache entries evicted by the LRU bound (adversarial signatures).
    route_cache_evictions: int = 0


class ShardCoordinator(TriggerSupport):
    """A Trigger Support that plans and checks through a sharded rule table.

    Drop-in for :class:`TriggerSupport` (``recheck_all``, the stats object and
    the exhaustive-scan baseline are inherited); only the routed
    ``check_after_block`` path is replaced by the shard fan-out.  The shard
    count is the table's; ``config.shard_mode`` / ``config.transport`` decide
    how the per-shard checks execute.
    """

    def __init__(
        self,
        rule_table: ShardedRuleTable,
        event_base: EventBase,
        config: EngineConfig = EngineConfig(),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not isinstance(rule_table, ShardedRuleTable):
            raise TypeError("ShardCoordinator requires a ShardedRuleTable")
        super().__init__(rule_table, event_base, config, metrics)
        self.shard_mode = config.shard_mode
        self._process_pool: ProcessShardPool | None = None
        #: Plan epoch at the last worker-definition prune (processes mode).
        self._pruned_epoch: tuple[int, int] | None = None
        #: Full-signature -> per-shard sub-signatures, so a recurring block
        #: shape costs two dictionary hits before the shard plans take over
        #: (BlockIngest already interns the signature as a frozenset, whose
        #: hash is computed once).  Validated against the table's plan epoch
        #: like the shard caches, and LRU-bounded by the same cap so
        #: adversarial never-repeating signatures cannot grow it.
        self._route_cache: OrderedDict[
            frozenset[EventType], list[tuple[int, frozenset[EventType]]]
        ] = OrderedDict()
        self._route_epoch: tuple[int, int] | None = None
        self.cluster_stats = ShardCoordinatorStats()
        self.metrics.register_source("cluster", self.cluster_stats)
        #: Dispatch = dealing a planned block to home workers; plan/check/apply
        #: histograms are inherited from the base Trigger Support.
        self._dispatch_hist = self.metrics.histogram("trip.dispatch")
        #: Per-shard candidate counts — the skew signal.  Planning is
        #: mode-independent, so these counters are byte-equal across serial
        #: and processes at the same shard count.
        self._shard_candidate_counters = [
            self.metrics.counter(f"shard.candidates.{shard_id}")
            for shard_id in range(rule_table.num_shards)
        ]

    # -- planning -------------------------------------------------------------
    def plan_sharded(self, type_signature: Sequence[EventType]) -> ShardedPlan:
        """The fan-out plan for one block signature.

        Semantically identical to :meth:`TriggerPlanner.plan` — same candidate
        set, same routed/bypassed accounting — but resolved through the
        per-shard sub-signature caches instead of per-block bucket unions.
        """
        table = self.rule_table
        epoch = table.plan_epoch()
        if self._route_epoch != epoch:
            self._route_cache.clear()
            self._route_epoch = epoch
        key = (
            type_signature
            if isinstance(type_signature, frozenset)
            else frozenset(type_signature)
        )
        routing = self._route_cache.get(key)
        if routing is None:
            routed_types = table.route_signature(table.expand_signature(key))
            routing = [
                (shard_id, frozenset(types))
                for shard_id, types in sorted(routed_types.items())
            ]
            self._route_cache[key] = routing
            if len(self._route_cache) > table.plan_cache_size:
                self._route_cache.popitem(last=False)
                self.cluster_stats.route_cache_evictions += 1
        else:
            self._route_cache.move_to_end(key)
        chosen: set[str] = set()
        batches: dict[int, list[RuleState]] = {}
        routed = 0
        for shard_id, sub_signature in routing:
            local: list[RuleState] = []
            for state in table.shard_plan(shard_id, sub_signature):
                name = state.rule.name
                if state.enabled and not state.triggered and name not in chosen:
                    chosen.add(name)
                    local.append(state)
            if local:
                routed += len(local)
                batches[shard_id] = local
        pending = 0
        for name, state in table.pending_full_check_states().items():
            if state.enabled and not state.triggered and name not in chosen:
                chosen.add(name)
                pending += 1
                batches.setdefault(table.home_shard_of(name), []).append(state)
        per_shard = sorted(batches.items())
        bypassed = table.untriggered_count() - routed - pending
        return ShardedPlan(
            per_shard=per_shard, routed=routed, pending=pending, bypassed=bypassed
        )

    # -- the sharded check ------------------------------------------------------
    def check_after_block(
        self,
        new_occurrences: Sequence[EventOccurrence],
        now: Timestamp,
        transaction_start: Timestamp,
        type_signature: frozenset[EventType] | None = None,
    ) -> list[RuleState]:
        if not self.use_static_optimization:
            # The exhaustive baseline has nothing to fan out.
            return super().check_after_block(
                new_occurrences, now, transaction_start, type_signature
            )
        self.stats.blocks += 1
        newly_triggered: list[RuleState] = []
        if not new_occurrences:
            return newly_triggered
        with self._plan_hist.time():
            plan = self._plan_block(new_occurrences, type_signature)
        if plan.candidates:
            self.cluster_stats.dispatch_trips += 1

        with self._check_hist.time():
            evaluated, merged_stats = self._evaluate_states(
                [state for _, states in plan.per_shard for state in states],
                now,
                transaction_start,
            )
            self.stats.evaluation.merge(merged_stats)

        # Deterministic merge: decisions applied in definition order —
        # exactly the order the single-table check applies them, so heaps,
        # counters and the returned list line up.
        evaluated.sort(key=lambda pair: pair[0].definition_order)
        with self._apply_hist.time():
            for state, decision in evaluated:
                self.stats.rules_checked += 1
                if self._apply_decision(state, decision, now):
                    newly_triggered.append(state)
        return newly_triggered

    def _evaluate_shard(
        self,
        states: list[RuleState],
        now: Timestamp,
        transaction_start: Timestamp,
    ) -> tuple[list[tuple[RuleState, TriggeringDecision]], EvaluationStats]:
        """Evaluate candidates inline, through the serial kernel."""
        local_stats = EvaluationStats()
        decisions: list[tuple[RuleState, TriggeringDecision]] = []
        for state in states:
            decisions.append(
                (state, self._evaluate_rule(state, now, transaction_start, local_stats))
            )
        return decisions, local_stats

    def _plan_block(self, occurrences, type_signature=None) -> ShardedPlan:
        """Plan one non-empty block through the shard fan-out (stats included).

        The coordinator's override of the base helper: same signature
        derivation and plan-time counters, but resolved through
        :meth:`plan_sharded` and additionally accounted in the fan-out
        observability stats.
        """
        if type_signature is None:
            type_signature = getattr(occurrences, "type_signature", None)
        if type_signature is None:
            type_signature = frozenset(
                occurrence.event_type for occurrence in occurrences
            )
        plan = self.plan_sharded(type_signature)
        self.stats.rules_routed += plan.routed
        self.stats.rules_bypassed_by_index += plan.bypassed
        self.stats.ts_skipped_by_filter += plan.bypassed
        cluster = self.cluster_stats
        cluster.blocks_fanned_out += 1
        cluster.shards_consulted += len(plan.per_shard)
        cluster.max_shards_per_block = max(
            cluster.max_shards_per_block, len(plan.per_shard)
        )
        counters = self._shard_candidate_counters
        for shard_id, states in plan.per_shard:
            counters[shard_id].inc(len(states))
        return plan

    # -- the evaluation homes ---------------------------------------------------
    def _worker_of(self, state: RuleState) -> int:
        """The rule's evaluation home; in processes mode 0 is the coordinator.

        The name's home shard, hashed once when the rule was added.  The
        plan's "lowest consulted owning shard wins" varies with the block
        signature and piles every rule sharing a popular bucket onto one
        shard; the name spreads rules evenly and pins each to one evaluator
        for its lifetime, so the resident memo sees exactly the check
        sequence the serial mode's memo sees.  Home *k* ≥ 1 is pool worker
        *k − 1*.
        """
        return self.rule_table.home_shard_of(state.rule.name)

    def _evaluate_states(
        self,
        states: list[RuleState],
        now: Timestamp,
        transaction_start: Timestamp,
    ) -> tuple[list[tuple[RuleState, TriggeringDecision]], EvaluationStats]:
        """Evaluate one block's candidates (or a recheck's) at ``now``.

        Serial mode checks them all inline; processes mode sends the remote
        homes their items, checks home 0's inline meanwhile, and contacts
        the pool only when some candidate lives on a worker.
        """
        if self.shard_mode != "processes":
            return self._evaluate_shard(states, now, transaction_start)
        self._prune_worker_defs()
        local: list[RuleState] = []
        remote: dict[int, list[tuple[RuleState, Timestamp]]] = {}
        with self._dispatch_hist.time():
            for state in states:
                home = self._worker_of(state)
                if home:
                    remote.setdefault(home - 1, []).append(
                        (state, state.triggering_window_start(transaction_start))
                    )
                else:
                    local.append(state)

        def evaluate_inline():
            return self._evaluate_shard(local, now, transaction_start)

        if not remote:
            return evaluate_inline()
        pool = self._ensure_process_pool()
        self.cluster_stats.parallel_batches += len(remote)
        return pool.evaluate(self.event_base, remote, now, evaluate_inline)

    def _prune_worker_defs(self) -> None:
        """Queue worker-side eviction of removed rules (epoch-gated).

        The plan epoch moves on every add/remove, so the shipped-definition
        scan only runs under table churn — steady state pays one tuple
        comparison per block, and a long-lived pool stays bounded by the
        live rule population (pruning touches no worker — drops piggyback
        on the next send).  A pool spawned later starts with nothing shipped.
        """
        pool = self._process_pool
        epoch = self.rule_table.plan_epoch()
        if pool is not None and self._pruned_epoch != epoch:
            pool.prune(self.rule_table.__contains__)
            self._pruned_epoch = epoch

    def recheck_all(
        self, now: Timestamp, transaction_start: Timestamp
    ) -> list[RuleState]:
        """Commit-time recheck; in process mode it follows the home split too.

        The worker-resident memos must observe *every* check of their rule —
        a coordinator-side recheck would both miss their frontier and leave
        them stale — so the process mode routes the exhaustive recheck
        through the same fixed-home dealing as the per-block checks (home 0
        inline, the rest on the workers).  The serial mode keeps the
        inherited recheck (its memos all live on the coordinator's rule
        states).
        """
        if self.shard_mode != "processes" or not self.use_static_optimization:
            return super().recheck_all(now, transaction_start)
        evaluated, merged_stats = self._evaluate_states(
            self.rule_table.untriggered_states(), now, transaction_start
        )
        self.stats.evaluation.merge(merged_stats)
        evaluated.sort(key=lambda pair: pair[0].definition_order)
        newly_triggered: list[RuleState] = []
        for state, decision in evaluated:
            if self._apply_decision(state, decision, now):
                newly_triggered.append(state)
        return newly_triggered

    def forget_incremental_state(self) -> None:
        """Drop the coordinator's memos *and* the workers' mirrors/memos."""
        super().forget_incremental_state()
        if self._process_pool is not None:
            self._process_pool.reset()

    # -- the worker pool ---------------------------------------------------------
    def _ensure_process_pool(self) -> ProcessShardPool:
        if self._process_pool is None:
            # Home 0 is the coordinator's own: one process fewer than shards.
            self._process_pool = ProcessShardPool(
                self.rule_table.num_shards - 1, self.config, metrics=self.metrics
            )
            # Transport health (messages, bytes, worker restarts) folds into
            # the same snapshot as everything else.
            self.metrics.register_source("pool", self._process_pool.transport_stats)
        return self._process_pool

    @property
    def process_pool(self) -> ProcessShardPool | None:
        """The process pool, if the processes mode has spawned one."""
        return self._process_pool

    def close(self) -> None:
        """Shut the process pool down (idempotent; serial mode has none)."""
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
