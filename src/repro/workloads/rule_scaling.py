"""Rule-count scaling workloads: type-routed planning vs the exhaustive scan.

The X7 benchmark (``benchmarks/bench_x7_rule_scaling.py``) and the
``chimera-events workload`` / ``chimera-events bench x7`` CLI commands share
this harness.  It drives a Rule Table + Event Handler + Trigger Support
pipeline (no object store — the same detector-style setup the unit tests use)
over synthetic streams and measures what the PR-2 refactor targets:

* **per-block trigger-planning cost** as a function of total rule count at a
  fixed *subscription density*: the event-type universe grows with the rule
  pool, so the number of rules subscribed to an average block stays roughly
  constant while the table grows.  The routed path (subscription index)
  should stay flat; the paper's baseline — the exhaustive scan that
  recomputes ``ts`` for every untriggered rule (``use_static_optimization``
  off, §5 / Fig. 6–7) — grows linearly.
* **bulk vs per-append ingestion**: the Event Base's segmented ``extend``
  against the historical per-occurrence ``append`` loop.

Both paths are run over identical streams and rule pools and must make
identical triggering decisions and priority-order selections (also pinned by
``tests/rules/test_planner_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.reporting import render_table
from repro.config import EngineConfig
from repro.core.expressions import Primitive, SetConjunction
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport
from repro.workloads.generator import (
    EventStreamGenerator,
    ExpressionGenerator,
    event_type_universe,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "ScalingWorkload",
    "WorkloadOutcome",
    "build_scaling_universe",
    "build_scaling_rules",
    "measure_rule_scaling",
    "measure_ingestion",
    "run_x7_sweeps",
    "render_x7",
]

#: Full / smoke grids of the X7 sweep (shared by ``benchmarks/bench_x7_rule_scaling.py``
#: and ``chimera-events bench x7``).
X7_RULE_SWEEP = [100, 1_000, 10_000]
X7_SMOKE_RULE_SWEEP = [50, 200]
X7_BATCH_SWEEP = [16, 256, 2_048]
X7_SMOKE_BATCH_SWEEP = [256]

#: An event type never emitted by the generated streams.  Conjoining it keeps
#: a monitor rule forever untriggered (the worst case: it must be planned /
#: scanned on every relevant block) without silencing its ``V(E)`` — the
#: conjunction still watches the rule's real primitives.
GHOST = EventType(Operation.CREATE, "ghost")


def build_scaling_universe(rule_count: int) -> list[EventType]:
    """A type universe that grows with the rule pool (fixed subscription density).

    Each class contributes four types (create / delete / two modifies); with
    ``rule_count / 8`` classes an average block's types reach a roughly
    constant number of rules however large the table is.
    """
    return event_type_universe(classes=max(2, rule_count // 8), attributes_per_class=2)


def build_scaling_rules(
    rule_count: int,
    universe: list[EventType],
    seed: int = 61,
    monitor_fraction: float = 0.9,
    operators: int = 2,
) -> list[Rule]:
    """A rule pool over ``universe``: mostly never-triggering monitors.

    ``monitor_fraction`` of the rules are conjoined with :data:`GHOST` so they
    never trigger and keep the untriggered population — the set both planning
    strategies must cover — at full size; the rest trigger and are considered
    normally.  Expressions are negation-free: a top-level negation is
    vacuously active and triggers on *every* block, which would flood both
    strategies with identical consideration churn and drown the planning-cost
    signal this workload isolates (negation coverage lives in the equivalence
    property tests).  Priorities cycle so the priority structure is exercised.
    """
    generator = ExpressionGenerator(
        event_types=universe, seed=seed, instance_probability=0.15, allow_negation=False
    )
    monitors = int(rule_count * monitor_fraction)
    rules: list[Rule] = []
    for index, expression in enumerate(
        generator.expressions(rule_count, operators=operators)
    ):
        if index < monitors:
            expression = SetConjunction(expression, Primitive(GHOST))
        rules.append(
            Rule(
                name=f"r{index}",
                events=expression,
                condition=TRUE_CONDITION,
                action=NO_ACTION,
                priority=index % 7,
            )
        )
    return rules


@dataclass
class WorkloadOutcome:
    """What one workload run produced, for timing tables and equivalence checks."""

    blocks: int = 0
    events: int = 0
    check_seconds: float = 0.0
    select_seconds: float = 0.0
    ingest_seconds: float = 0.0
    #: Names of rules considered, in selection order (priority-queue output).
    considerations: list[str] = field(default_factory=list)
    #: Per-rule triggering counters keyed by rule name.
    triggerings: dict[str, int] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def check_us_per_block(self) -> float:
        """Mean trigger-planning + checking cost per block, in microseconds."""
        return 1e6 * self.check_seconds / max(1, self.blocks)


class ScalingWorkload:
    """Feeds a synthetic stream through the full block→trigger pipeline."""

    def __init__(
        self,
        rules: list[Rule],
        config: EngineConfig | None = None,
        bulk_ingest: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        #: The one record every setting is read from; ``None`` resolves it
        #: from the environment like the database facade does.
        self.config = config if config is not None else EngineConfig.from_env()
        config = self.config
        self.event_base = EventBase()
        if config.shards > 0:
            from repro.cluster.coordinator import ShardCoordinator
            from repro.cluster.sharding import ShardedRuleTable

            self.rule_table: RuleTable = ShardedRuleTable(
                config.shards, config.plan_cache_size
            )
            support = ShardCoordinator
        else:
            self.rule_table = RuleTable()
            support = TriggerSupport
        for rule in rules:
            state = self.rule_table.add(rule)
            state.reset(0)
        self.handler = EventHandler(self.event_base)
        self.support: TriggerSupport = support(
            self.rule_table, self.event_base, config, metrics
        )
        self.bulk_ingest = bulk_ingest
        self.outcome = WorkloadOutcome()

    def close(self) -> None:
        """Release coordinator worker pools, if any (idempotent)."""
        closer = getattr(self.support, "close", None)
        if closer is not None:
            closer()

    def feed_block(self, block: list[EventOccurrence]) -> None:
        """Ingest one block, run the trigger check, drain the priority queue."""
        outcome = self.outcome
        started = time.perf_counter()
        batch = self.handler.store_external(block, bulk=self.bulk_ingest)
        outcome.ingest_seconds += time.perf_counter() - started
        now = block[-1].timestamp if block else 1
        started = time.perf_counter()
        self.support.check_after_block(
            batch, now, 0, type_signature=batch.type_signature
        )
        outcome.check_seconds += time.perf_counter() - started
        started = time.perf_counter()
        while (state := self.rule_table.select_for_consideration()) is not None:
            outcome.considerations.append(state.rule.name)
            state.mark_considered(now, executed=False)
        outcome.select_seconds += time.perf_counter() - started
        outcome.blocks += 1
        outcome.events += len(block)

    def feed_trip(self, chunk: list[list[EventOccurrence]]) -> None:
        """Ingest a micro-batch of blocks, check them as one dispatch trip.

        Every block of the chunk is ingested and flushed as its own
        execution block; the trigger checks run through
        ``check_after_blocks`` — one trip — and the priority queue is
        drained once at the end of the trip (micro-batching trades
        consideration latency for dispatch amortization).  A one-block chunk
        is identical to :meth:`feed_block`.
        """
        outcome = self.outcome
        segments = []
        started = time.perf_counter()
        for block in chunk:
            batch = self.handler.store_external(block, bulk=self.bulk_ingest)
            now = block[-1].timestamp if block else (
                self.event_base.latest_timestamp() or 1
            )
            segments.append((batch, now))
        outcome.ingest_seconds += time.perf_counter() - started
        started = time.perf_counter()
        self.support.check_after_blocks(segments, 0)
        outcome.check_seconds += time.perf_counter() - started
        now = segments[-1][1]
        started = time.perf_counter()
        while (state := self.rule_table.select_for_consideration()) is not None:
            outcome.considerations.append(state.rule.name)
            state.mark_considered(now, executed=False)
        outcome.select_seconds += time.perf_counter() - started
        outcome.blocks += len(chunk)
        outcome.events += sum(len(block) for block in chunk)

    def run(self, blocks: list[list[EventOccurrence]]) -> WorkloadOutcome:
        """Feed every block and return the accumulated outcome.

        ``config.batch_blocks`` stream blocks are coalesced per trigger-check
        dispatch trip (1 = the historical block-at-a-time pipeline); with
        ``config.adaptive_batch`` that becomes the *ceiling* and each trip is
        sized by the closed-loop dispatch controller instead.
        """
        batch = self.config.batch_blocks
        if self.config.adaptive_batch and batch > 1:
            self._run_adaptive(blocks)
        elif batch == 1:
            for block in blocks:
                self.feed_block(block)
        else:
            for start in range(0, len(blocks), batch):
                self.feed_trip(blocks[start : start + batch])
        outcome = self.outcome
        outcome.triggerings = {
            state.rule.name: state.times_triggered for state in self.rule_table.states()
        }
        outcome.stats = self.support.stats.as_dict()
        return outcome

    def _run_adaptive(self, blocks: list[list[EventOccurrence]]) -> None:
        """Replay the stream with controller-sized trips.

        The offline replay models its backlog as the number of blocks not
        yet fed: the controller widens toward ``batch_blocks`` while the
        backlog is deep and falls back to block-at-a-time near the tail.
        With a disabled metrics registry the controller is inert and this
        degenerates to the static ``batch_blocks`` chunking.
        """
        from repro.cluster.streaming import DispatchController

        metrics = self.support.metrics
        controller = DispatchController(metrics, self.config.batch_blocks)
        queue_gauge = metrics.gauge("ingest.queue_depth")
        start = 0
        while start < len(blocks):
            queue_gauge.set(len(blocks) - start)
            bound = controller.observe()
            chunk = blocks[start : start + bound]
            if len(chunk) == 1:
                self.feed_block(chunk[0])
            else:
                self.feed_trip(chunk)
            start += len(chunk)
        queue_gauge.set(0)


def _measure_planning_only(
    workload: ScalingWorkload, signatures: list[frozenset], repetitions: int
) -> float:
    """Per-block ``TriggerPlanner.plan`` cost, in seconds, on a frozen state.

    Timed dry (no state mutation) over the measured blocks' signatures on the
    workload's steady state — the quantity that must stay flat as the table
    grows.  The exhaustive scan has no planning step to compare it with: its
    whole cost is the per-rule ``ts`` recomputation, which the end-to-end
    check figures report.
    """
    planner = workload.support.planner
    started = time.perf_counter()
    for _ in range(repetitions):
        for signature in signatures:
            planner.plan(signature)
    return (time.perf_counter() - started) / repetitions / len(signatures)


def measure_rule_scaling(
    rule_count: int,
    blocks: int = 40,
    warmup_blocks: int = 4,
    events_per_block: int = 6,
    seed: int = 7,
    planning_repetitions: int = 3,
    check_equivalence: bool = True,
) -> dict:
    """Routed vs exhaustive-scan cost at one rule-count grid point.

    Both strategies face the identical stream and rule pool; the warm-up
    blocks bring every rule past its first (unavoidably exhaustive) check so
    the measured blocks see the steady state.  Reported per block:

    * ``routed_plan_us_per_block`` — the pure planning cost (deciding *which*
      rules to check), measured dry on the frozen steady state: flat in the
      rule count.
    * ``*_check_us_per_block`` — end-to-end ``check_after_block`` cost of
      the routed planner and of the exhaustive scan (``ts`` recomputed for
      every untriggered rule, the paper's unoptimized baseline), and their
      ratio ``check_speedup`` — the headline, growing with the table.

    With ``check_equivalence`` the two live runs' triggering counters and
    priority-order selections are asserted equal.
    """
    universe = build_scaling_universe(rule_count)
    stream = EventStreamGenerator(
        event_types=universe, seed=seed + 1, events_per_block=events_per_block
    ).blocks(warmup_blocks + blocks)

    outcomes: dict[bool, WorkloadOutcome] = {}
    workloads: dict[bool, ScalingWorkload] = {}
    for routed_arm in (True, False):
        workload = ScalingWorkload(
            build_scaling_rules(rule_count, universe, seed=seed),
            EngineConfig.from_env(use_static_optimization=routed_arm),
        )
        for block in stream[:warmup_blocks]:
            workload.feed_block(block)
        workload.outcome = WorkloadOutcome()  # drop warm-up timings
        outcomes[routed_arm] = workload.run(stream[warmup_blocks:])
        workloads[routed_arm] = workload

    routed, scanned = outcomes[True], outcomes[False]
    if check_equivalence:
        assert routed.triggerings == scanned.triggerings, (
            "routed and exhaustive-scan runs made different triggering decisions"
        )
        assert routed.considerations == scanned.considerations, (
            "routed and exhaustive-scan runs selected rules in different orders"
        )

    signatures = [
        frozenset(occurrence.event_type for occurrence in block)
        for block in stream[warmup_blocks:]
    ]
    plan_routed = _measure_planning_only(
        workloads[True], signatures, planning_repetitions
    )

    stats = routed.stats
    return {
        "rules": rule_count,
        "universe_types": len(universe),
        "blocks": routed.blocks,
        "routed_plan_us_per_block": round(1e6 * plan_routed, 1),
        "routed_check_us_per_block": round(routed.check_us_per_block, 1),
        "scan_check_us_per_block": round(scanned.check_us_per_block, 1),
        "check_speedup": round(
            scanned.check_us_per_block / max(1e-9, routed.check_us_per_block), 1
        ),
        "routed_per_block": round(stats["rules_routed"] / max(1, routed.blocks), 1),
        "bypassed_per_block": round(
            stats["rules_bypassed_by_index"] / max(1, routed.blocks), 1
        ),
        "triggerings": sum(routed.triggerings.values()),
    }


def measure_ingestion(
    total_events: int = 50_000, batch_size: int = 256, seed: int = 19
) -> dict:
    """Bulk ``extend`` vs per-occurrence ``append`` over an identical stream."""
    universe = event_type_universe(classes=6, attributes_per_class=2)
    blocks = EventStreamGenerator(
        event_types=universe, seed=seed, events_per_block=batch_size
    ).blocks(max(1, total_events // batch_size))

    timings: dict[str, float] = {}
    for label, bulk in (("bulk", True), ("loop", False)):
        event_base = EventBase()
        started = time.perf_counter()
        for block in blocks:
            if bulk:
                event_base.extend(block)
            else:
                for occurrence in block:
                    event_base.append(occurrence)
        timings[label] = time.perf_counter() - started
        assert len(event_base) == len(blocks) * batch_size

    events = len(blocks) * batch_size
    return {
        "batch_size": batch_size,
        "events": events,
        "bulk_events_per_sec": round(events / timings["bulk"], 1),
        "loop_events_per_sec": round(events / timings["loop"], 1),
        "speedup": round(timings["loop"] / timings["bulk"], 2),
    }


def run_x7_sweeps(smoke: bool = False) -> dict:
    """The X7 grid: rule-count sweep plus ingestion batch-size sweep."""
    if smoke:
        rule_rows = [
            measure_rule_scaling(rules, blocks=10, warmup_blocks=2)
            for rules in X7_SMOKE_RULE_SWEEP
        ]
        ingestion_rows = [
            measure_ingestion(total_events=5_000, batch_size=batch)
            for batch in X7_SMOKE_BATCH_SWEEP
        ]
    else:
        rule_rows = [measure_rule_scaling(rules) for rules in X7_RULE_SWEEP]
        ingestion_rows = [
            measure_ingestion(total_events=100_000, batch_size=batch)
            for batch in X7_BATCH_SWEEP
        ]
    return {
        "benchmark": "x7_rule_scaling",
        "description": (
            "Per-block trigger-check cost vs total rule count at fixed "
            "subscription density (type-routed subscription index vs the "
            "paper's exhaustive scan without the V(E) static optimization), "
            "plus bulk-vs-loop EventBase ingestion.  The routed planning "
            "figure is measured dry on the steady state; check figures are "
            "end-to-end."
        ),
        "headline": rule_rows[-1],
        "rule_scaling": rule_rows,
        "ingestion": ingestion_rows,
        "equivalence": {
            "checked": True,
            "note": (
                "each grid point asserts identical triggering decisions and "
                "priority-order selections between routed and exhaustive runs"
            ),
        },
    }


def render_x7(results: dict) -> str:
    """Human-readable tables for an X7 result dict."""
    scaling_rows = [
        [
            row["rules"],
            row["universe_types"],
            row["routed_plan_us_per_block"],
            row["routed_check_us_per_block"],
            row["scan_check_us_per_block"],
            f"{row['check_speedup']}x",
        ]
        for row in results["rule_scaling"]
    ]
    ingestion_rows = [
        [
            row["batch_size"],
            row["events"],
            row["loop_events_per_sec"],
            row["bulk_events_per_sec"],
            f"{row['speedup']}x",
        ]
        for row in results["ingestion"]
    ]
    return "\n\n".join(
        [
            render_table(
                [
                    "rules",
                    "types",
                    "routed plan µs/blk",
                    "routed check µs/blk",
                    "scan check µs/blk",
                    "check speedup",
                ],
                scaling_rows,
                title="X7 — trigger check, subscription index vs exhaustive scan",
            ),
            render_table(
                ["batch", "events", "loop ev/s", "bulk ev/s", "speedup"],
                ingestion_rows,
                title="X7 — EventBase ingestion, bulk extend vs per-append loop",
            ),
        ]
    )
