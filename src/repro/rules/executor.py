"""The Block Executor and the rule-processing loop.

Paper §2/§5: Chimera executes *non-interruptible execution blocks* — user
transaction lines and rule actions.  After each block:

1. the Event Handler stores the block's event occurrences;
2. the Trigger Support determines newly triggered rules;
3. if any triggered rule with the right coupling mode exists, the
   highest-priority one is selected, *considered* (its condition is evaluated
   over the window allowed by its consumption mode) and, when the condition
   produces bindings, its action is executed as a new block — which loops back
   to step 1.

A rule is detriggered as soon as it is considered; only new event occurrences
can trigger it again.  Immediate rules are processed during the transaction,
deferred rules when the transaction commits.  An execution budget
(``max_rule_executions``) guards against non-terminating rule sets: one per
transaction, and one per stream block on the stream path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.config import EngineConfig
from repro.core.compile import CheckBinder
from repro.errors import NonTerminationError
from repro.events.clock import Timestamp, TransactionClock
from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase
from repro.obs.export import JsonLinesExporter
from repro.obs.registry import MetricsRegistry
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema
from repro.rules.conditions import ConditionContext
from repro.rules.event_handler import EventHandler
from repro.rules.rule import ECCoupling, RuleState
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

__all__ = ["ConsiderationRecord", "RuleEngine"]


@dataclass(frozen=True)
class ConsiderationRecord:
    """One rule consideration: who, when, how many bindings, executed or not."""

    rule_name: str
    instant: Timestamp
    bindings: int
    executed: bool
    phase: str


@dataclass
class RuleEngine:
    """Wires the Event Handler, Trigger Support and rule-processing loop together."""

    schema: Schema
    store: ObjectStore
    event_base: EventBase
    clock: TransactionClock
    operations: OperationExecutor
    #: ``None`` builds an empty table.  There is one Rule Table whatever the
    #: shard settings: shards are evaluators, not slices of the table.
    rule_table: RuleTable | None = None
    #: The engine's settings; ``None`` resolves them from the environment
    #: (``EngineConfig.from_env()``).  This record is what every layer below
    #: — Trigger Support, coordinator, pool, workers — reads.  A shard
    #: coordinator is built only for ``shard_mode="processes"`` with
    #: ``shards > 0``; otherwise the single-table Trigger Support checks
    #: everything inline.
    config: EngineConfig | None = None
    #: The engine's metrics registry — threaded through the Trigger Support /
    #: Shard Coordinator (and from there the process pool), so one
    #: :meth:`metrics_snapshot` covers the whole logical engine.  ``None``
    #: creates an enabled private registry; pass
    #: ``MetricsRegistry(enabled=False)`` to run uninstrumented.
    metrics: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        from repro.cluster.coordinator import ShardCoordinator

        if self.config is None:
            self.config = EngineConfig.from_env()
        config = self.config
        if self.rule_table is None:
            self.rule_table = RuleTable()
        self.event_handler = EventHandler(self.event_base)
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        support = (
            ShardCoordinator
            if config.shard_mode == "processes" and config.shards > 0
            else TriggerSupport
        )
        self.trigger_support: TriggerSupport = support(
            self.rule_table, self.event_base, config, self.metrics
        )
        #: The condition side's evaluator: every ``occurred`` / ``at`` formula
        #: is bound through it once.
        self.formulas = CheckBinder()
        self.transaction_start: Timestamp = self.clock.now()
        self.considerations: list[ConsiderationRecord] = []
        self._budget_spent = 0
        self._commit_hist = self.metrics.histogram("oodb.commit")
        self._commit_counter = self.metrics.counter("oodb.commits")
        #: JSON-lines export (``config.metrics_path``): snapshots are appended
        #: at block/commit boundaries, rate-limited by the exporter, with a
        #: final forced snapshot on close().
        self._metrics_exporter = (
            JsonLinesExporter(config.metrics_path) if config.metrics_path else None
        )

    # -- transaction boundaries ------------------------------------------------
    def begin_transaction(self) -> None:
        """The one transaction boundary: empty the log in place, reset rules."""
        self.event_base.clear()
        self.trigger_support.reset_worker_mirrors()
        self.transaction_start = self.clock.now()
        self.rule_table.reset_all(self.transaction_start)
        self.event_handler.reset()
        self._budget_spent = 0

    def close(self) -> None:
        """Release worker pools held by the Trigger Support (idempotent).

        Process shard workers are additionally reaped by a finalizer when the
        engine is garbage collected; explicit close is for deterministic
        teardown (benchmarks, long-lived services).
        """
        closer = getattr(self.trigger_support, "close", None)
        if closer is not None:
            closer()
        if self._metrics_exporter is not None:
            self._metrics_exporter.export(self.metrics)
            self._metrics_exporter.close()
            self._metrics_exporter = None

    # -- observability -----------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """One snapshot covering the whole logical engine (workers included)."""
        return self.metrics.snapshot()

    def _export_metrics(self) -> None:
        if self._metrics_exporter is not None:
            self._metrics_exporter.maybe_export(self.metrics)

    # -- block execution ----------------------------------------------------------
    def run_user_block(self, block: Callable[[], Any]) -> Any:
        """Run one user transaction line, then process immediate rules."""
        outcome = block()
        self._after_block(ECCoupling.IMMEDIATE, phase="transaction")
        return outcome

    def run_stream_block(self, occurrences: Sequence[EventOccurrence]) -> None:
        """Ingest externally produced occurrences as one execution block.

        The batch enters the Event Base through its bulk ``extend``, is
        flushed as a single block and processed exactly like a user block:
        checked on its own, then its triggered rules considered before the
        next block arrives.  A stream is not a transaction: the execution
        budget guards one quiescence loop, so every block starts with a
        fresh one.  The occurrences the actions record take EIDs above the
        largest the Event Base holds; a later block that reuses one of them
        is refused as a duplicate EID, like any other.
        """
        self._budget_spent = 0
        signature = self.event_handler.store_external(occurrences)
        if signature:
            # Pre-stamped streams outrun the transaction clock; the check's
            # window is (start, clock.now()], so catch the clock up or the
            # batch would be invisible to its own trigger check.
            last = self.event_base.latest_timestamp()
            if last > self.clock.now():
                self.clock.advance_to(last)
        self._check_block(signature)
        self._processing_loop(ECCoupling.IMMEDIATE, phase="stream")
        self._export_metrics()

    def process_commit(self) -> None:
        """Process deferred (and any remaining triggered) rules at commit time."""
        with self._commit_hist.time():
            # Make sure anything recorded since the last flush is accounted for.
            self._after_block(ECCoupling.IMMEDIATE, phase="commit")
            now = self.clock.now()
            self.trigger_support.recheck_all(now, self.transaction_start)
            self._processing_loop(coupling=None, phase="commit")
        self._commit_counter.inc()
        self._export_metrics()

    # -- internals -------------------------------------------------------------------
    def _after_block(self, coupling: ECCoupling | None, phase: str) -> None:
        self._check_block(self.event_handler.flush_block())
        self._processing_loop(coupling, phase)

    def _check_block(self, type_signature: frozenset[EventType]) -> None:
        """Hand one flushed block's type signature to the Trigger Support."""
        self.trigger_support.check_after_block(
            type_signature, self.clock.now(), self.transaction_start
        )

    def _processing_loop(self, coupling: ECCoupling | None, phase: str) -> None:
        """Consider and execute triggered rules until quiescence."""
        while True:
            state = self.rule_table.select_for_consideration(coupling)
            if state is None:
                return
            self._consider(state, phase)
            # The consideration (and possible action) is itself a block: flush
            # its occurrences and look for newly triggered rules before picking
            # the next one.
            self._check_block(self.event_handler.flush_block())

    def _consider(self, state: RuleState, phase: str) -> None:
        """Consider one rule: evaluate its condition and maybe run its action."""
        rule = state.rule
        now = self.clock.now()
        window = self.event_base.view(
            after=state.observation_window_start(self.transaction_start),
            until=now,
        )
        context = ConditionContext(
            schema=self.schema,
            store=self.store,
            window=window,
            now=max(now, 1),
            formulas=self.formulas,
        )
        bindings = rule.condition.evaluate(context)
        # The consideration time stamp is taken *before* the action runs:
        # events occurred up to now lose the capability of triggering the rule,
        # but the action's own occurrences are more recent than the
        # consideration and may legitimately re-trigger it (the execution
        # budget guards against non-terminating rule sets).
        consideration_time = now
        executed = False
        if bindings:
            self._budget_spent += 1
            if self._budget_spent > self.config.max_rule_executions:
                raise NonTerminationError(self.config.max_rule_executions)
            rule.action.execute(bindings, self.operations)
            executed = True
        state.mark_considered(consideration_time, executed)
        self.considerations.append(
            ConsiderationRecord(
                rule_name=rule.name,
                instant=consideration_time,
                bindings=len(bindings),
                executed=executed,
                phase=phase,
            )
        )
