"""The Shard Coordinator: one planner, N evaluators.

A :class:`ShardCoordinator` is a :class:`~repro.rules.trigger_support.
TriggerSupport` in every respect but one: where the checks run.  It plans each
block through the inherited :class:`~repro.rules.trigger_support.
TriggerPlanner` over the one Rule Table, and overrides only the evaluation
hook, :meth:`~repro.rules.trigger_support.TriggerSupport._evaluate_states`.

Each candidate is checked by its **evaluation home**, :func:`home_shard` of
its name: a per-rule constant, so rules spread evenly across homes whatever
they watch, and a rule's incremental memo stays resident with one evaluator
for its lifetime.  The coordinator is the evaluator of home 0 and a
:class:`~repro.cluster.process_pool.ProcessShardPool` of N − 1 long-lived
workers evaluates homes 1 … N − 1: each worker owns its home's expressions and
memos plus a mirror of the Event Base's stamp indexes grown from per-block log
deltas, and replies with decisions.  The coordinator sends the block's items,
checks its own share inline while the workers check theirs, then drains the
replies — so ``shards=2`` runs two evaluators on two cores, and ``shards=1``
spawns nothing.  A round whose candidates are all homed on the coordinator
never contacts the pool.

The decisions are **applied serially in definition order** by the inherited
check path, so the triggered set, the priority queues, every counter and the
returned newly-triggered list are byte-for-byte identical to the single
table's — the equivalence ``tests/cluster/test_mode_equivalence.py`` pins for
shard counts 1–8 under rule churn.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.config import EngineConfig
from repro.core.triggering import TriggeringDecision
from repro.cluster.process_pool import ProcessShardPool
from repro.events.clock import Timestamp
from repro.events.event_base import EventBase
from repro.obs.registry import MetricsRegistry
from repro.rules.rule import RuleState
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

__all__ = ["ShardCoordinatorStats", "ShardCoordinator", "home_shard"]


def home_shard(rule_name: str, num_shards: int) -> int:
    """A rule's evaluation home: the shard whose evaluator checks it.

    Keyed by the name alone, so rules spread evenly whatever they watch (the
    paper's Trigger Support checks each rule independently), and a rule keeps
    its home — hence its resident memo — for its lifetime.  crc32 rather than
    ``hash()``: the builtin string hash is salted per process, and placement
    must be reproducible across runs.
    """
    return zlib.crc32(rule_name.encode()) % num_shards


@dataclass
class ShardCoordinatorStats:
    """Dispatch observability, on top of the inherited TriggerSupport stats."""

    #: Worker batches dispatched to process workers.
    parallel_batches: int = 0
    #: Check rounds (blocks and commit-time rechecks) with at least one
    #: candidate to evaluate.
    dispatch_trips: int = 0


class ShardCoordinator(TriggerSupport):
    """A Trigger Support whose checks run on ``config.shards`` evaluators.

    Drop-in for :class:`TriggerSupport`: planning, ``check_after_block``,
    ``recheck_all`` and the decision apply are inherited.  Built by the
    engine when ``shard_mode="processes"`` and ``shards > 0``.
    """

    def __init__(
        self,
        rule_table: RuleTable,
        event_base: EventBase,
        config: EngineConfig = EngineConfig(),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if config.shards < 1:
            raise ValueError(
                f"a shard coordinator needs at least 1 shard (got {config.shards})"
            )
        super().__init__(rule_table, event_base, config, metrics)
        self.shards = config.shards
        self._process_pool: ProcessShardPool | None = None
        #: rule name -> evaluation home, hashed on first sight and pruned with
        #: the workers' definitions when the table changes shape.
        self._homes: dict[str, int] = {}
        #: Plan epoch at the last prune of homes and worker definitions.
        self._pruned_epoch: int | None = None
        self.cluster_stats = ShardCoordinatorStats()
        self.metrics.register_source("cluster", self.cluster_stats)
        #: Dispatch = dealing a round's candidates to their homes.
        self._dispatch_hist = self.metrics.histogram("trip.dispatch")

    # -- the evaluation homes ---------------------------------------------------
    def _worker_of(self, state: RuleState) -> int:
        """The rule's evaluation home; 0 is the coordinator, *k* ≥ 1 is pool
        worker *k − 1*."""
        name = state.rule.name
        home = self._homes.get(name)
        if home is None:
            home = self._homes[name] = home_shard(name, self.shards)
        return home

    def home_population(self) -> list[int]:
        """Rules per evaluation home, home 0 first — where the checks go."""
        population = [0] * self.shards
        for state in self.rule_table:
            population[self._worker_of(state)] += 1
        return population

    def _evaluate_states(
        self,
        states: list[RuleState],
        now: Timestamp,
        transaction_start: Timestamp,
    ) -> list[tuple[RuleState, TriggeringDecision]]:
        """Deal one round's candidates to their homes and evaluate them.

        Remote homes get their items, home 0 is checked inline meanwhile (the
        inherited evaluator), and the pool is contacted only when some
        candidate lives on a worker.
        """
        self._prune_worker_defs()
        if states:
            self.cluster_stats.dispatch_trips += 1
        local: list[RuleState] = []
        remote: dict[int, list[tuple[RuleState, Timestamp]]] = {}
        with self._dispatch_hist.time():
            for state in states:
                home = self._worker_of(state)
                if home:
                    remote.setdefault(home - 1, []).append(
                        (state, state.trigger_window_start(transaction_start))
                    )
                else:
                    local.append(state)

        evaluate = super()._evaluate_states
        if not remote:
            return evaluate(local, now, transaction_start)

        pool = self._ensure_process_pool()
        self.cluster_stats.parallel_batches += len(remote)
        evaluated = pool.evaluate(
            self.event_base,
            remote,
            now,
            lambda: evaluate(local, now, transaction_start),
        )
        evaluated.sort(key=lambda pair: pair[0].definition_order)
        return evaluated

    def _prune_worker_defs(self) -> None:
        """Forget homes and queue worker-side eviction of removed rules.

        The plan epoch moves on every add/remove, so the scan only runs under
        table churn — steady state pays one integer comparison per round, and a
        long-lived pool stays bounded by the live rule population (pruning
        touches no worker — drops piggyback on the next send).  A pool
        spawned later starts with nothing shipped.
        """
        table = self.rule_table
        epoch = table.plan_epoch()
        if self._pruned_epoch == epoch:
            return
        self._pruned_epoch = epoch
        self._homes = {
            name: home for name, home in self._homes.items() if name in table
        }
        if self._process_pool is not None:
            self._process_pool.prune(table.__contains__)

    def reset_worker_mirrors(self) -> None:
        """Empty every worker's mirror and memos with the coordinator's log."""
        if self._process_pool is not None:
            self._process_pool.reset()

    # -- the worker pool ---------------------------------------------------------
    def _ensure_process_pool(self) -> ProcessShardPool:
        if self._process_pool is None:
            # Home 0 is the coordinator's own: one process fewer than shards.
            self._process_pool = ProcessShardPool(
                self.shards - 1, self.config, metrics=self.metrics
            )
            # Transport health (messages, bytes, rows encoded) folds into
            # the same snapshot as everything else.
            self.metrics.register_source("pool", self._process_pool.transport_stats)
        return self._process_pool

    @property
    def process_pool(self) -> ProcessShardPool | None:
        """The process pool, once a round has needed one."""
        return self._process_pool

    def close(self) -> None:
        """Shut the process pool down (idempotent)."""
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
