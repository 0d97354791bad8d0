"""Shard-count scaling workloads: sharded coordinator vs single-table planner.

The X8 benchmark (``benchmarks/bench_x8_shard_scaling.py``) and the
``chimera-events bench x8`` CLI command share this harness.  It extends the
X7 setup (``repro.workloads.rule_scaling``) along the PR-3 axes:

* **per-block planning cost vs shard count** at 10k–100k rules: the
  single-table :class:`~repro.rules.trigger_support.TriggerPlanner` re-unions
  the subscription buckets and re-sorts the candidate set on every block; the
  :class:`~repro.cluster.coordinator.ShardCoordinator` resolves the same
  candidate set through its signature route cache and the per-shard
  sub-signature plan caches, so a steady-state block costs a few dictionary
  hits plus an eligibility filter over pre-sorted shard tuples;
* **sharded-vs-unsharded end-to-end check cost** (the exact ``ts`` work is
  identical either way — every grid point asserts identical triggering
  decisions and consideration orders);
* **ingestion throughput with pipelining on/off**: a driver thread feeding
  ``RuleEngine.run_stream_block`` directly versus through the bounded-queue
  :class:`~repro.cluster.streaming.StreamIngestor`.

Streams are drawn from a pool of recurring *block shapes* (each shape a small
set of event types) rather than uniformly from the whole universe: real
workloads re-issue the same transaction shapes over and over, which is
exactly the regime signature memoization targets.  The rule pool mirrors
``build_scaling_rules`` (90% never-triggering ghost-conjoined monitors,
cycling priorities) but is built directly — the generic expression generator
needs minutes at 100k rules while the planning cost only depends on the
subscription shape.
"""

from __future__ import annotations

import random
import time

from repro.analysis.reporting import render_table
from repro.config import EngineConfig
from repro.cluster.streaming import StreamIngestor
from repro.core.expressions import Primitive, SetConjunction, SetDisjunction
from repro.events.clock import TransactionClock
from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.executor import RuleEngine
from repro.rules.rule import Rule
from repro.workloads.rule_scaling import (
    GHOST,
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_universe,
)

__all__ = [
    "build_shard_rules",
    "build_shaped_blocks",
    "measure_shard_scaling",
    "measure_pipelined_ingestion",
    "run_x8_sweeps",
    "render_x8",
]

#: Full / smoke grids (shared by ``benchmarks/bench_x8_shard_scaling.py`` and
#: ``chimera-events bench x8``).
X8_RULE_SWEEP = [10_000, 30_000, 100_000]
X8_SMOKE_RULE_SWEEP = [500, 2_000]
X8_SHARD_SWEEP = [1, 2, 4, 8]
X8_SMOKE_SHARD_SWEEP = [2, 4]


def build_shard_rules(
    rule_count: int,
    universe: list[EventType],
    seed: int = 61,
    monitor_fraction: float = 0.9,
) -> list[Rule]:
    """An X7-style rule pool (mostly ghost-conjoined monitors), built directly.

    Each rule watches a two-type disjunction drawn from the universe;
    ``monitor_fraction`` of them are conjoined with :data:`GHOST` so they
    never trigger and keep the untriggered population at full size.
    """
    rng = random.Random(seed)
    monitors = int(rule_count * monitor_fraction)
    ghost = Primitive(GHOST)
    rules: list[Rule] = []
    for index in range(rule_count):
        left, right = rng.sample(universe, 2)
        expression = SetDisjunction(Primitive(left), Primitive(right))
        if index < monitors:
            expression = SetConjunction(expression, ghost)
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


def build_shaped_blocks(
    universe: list[EventType],
    blocks: int,
    events_per_block: int = 12,
    shapes: int = 24,
    types_per_shape: tuple[int, int] = (4, 8),
    seed: int = 7,
    start_eid: int = 1,
) -> list[list[EventOccurrence]]:
    """Blocks drawn from a recurring pool of type-signature shapes."""
    rng = random.Random(seed)
    low, high = types_per_shape
    shape_pool = [
        tuple(rng.sample(universe, rng.randint(low, min(high, len(universe)))))
        for _ in range(shapes)
    ]
    stream: list[list[EventOccurrence]] = []
    eid = start_eid
    for stamp in range(1, blocks + 1):
        shape = rng.choice(shape_pool)
        block: list[EventOccurrence] = []
        for _ in range(events_per_block):
            event_type = rng.choice(shape)
            block.append(
                EventOccurrence(
                    eid=eid,
                    event_type=event_type,
                    oid=f"{event_type.class_name}#{rng.randint(1, 4)}",
                    timestamp=stamp,
                )
            )
            eid += 1
        stream.append(block)
    return stream


def _best_pass(plan_one, signatures, repetitions: int) -> float:
    """Best-of-N per-block planning cost (seconds) over the signature list.

    These are microsecond-scale loops: a single scheduler hiccup inside one
    pass distorts a mean badly, so each full pass is timed separately and the
    fastest pass — the one least disturbed by the machine — is reported.
    """
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        for signature in signatures:
            plan_one(signature)
        best = min(best, time.perf_counter() - started)
    return best / len(signatures)


def _dry_plan_single(workload: ScalingWorkload, signatures, repetitions: int) -> float:
    """Per-block single-table planning cost on a frozen steady state."""
    return _best_pass(workload.support.planner.plan, signatures, repetitions)


def _dry_plan_sharded(workload: ScalingWorkload, signatures, repetitions: int) -> float:
    """Per-block sharded planning cost; caches warmed by the live run."""
    return _best_pass(workload.support.plan_sharded, signatures, repetitions)


def measure_shard_scaling(
    rule_count: int,
    shard_counts: list[int] | None = None,
    blocks: int = 40,
    warmup_blocks: int = 4,
    events_per_block: int = 12,
    seed: int = 7,
    planning_repetitions: int = 15,
    check_equivalence: bool = True,
) -> dict:
    """Sharded vs single-table planning/checking at one rule-count grid point.

    Every configuration (single-table routed, and one sharded coordinator per
    shard count) faces the identical shaped stream and the identical rule
    pool; with ``check_equivalence`` their triggering counters and
    priority-order selections are asserted equal.  Planning cost is measured
    dry on each configuration's own steady state, caches warm — the regime a
    long-running server sits in.
    """
    if shard_counts is None:
        shard_counts = list(X8_SHARD_SWEEP)
    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 53)
    stream = build_shaped_blocks(
        universe, warmup_blocks + blocks, events_per_block=events_per_block, seed=seed
    )
    measured = stream[warmup_blocks:]
    signatures = [
        frozenset(occurrence.event_type for occurrence in block) for block in measured
    ]

    def run(shards: int) -> tuple[ScalingWorkload, WorkloadOutcome]:
        workload = ScalingWorkload(rules, EngineConfig.from_env(shards=shards))
        for block in stream[:warmup_blocks]:
            workload.feed_block(block)
        workload.outcome = WorkloadOutcome()  # drop warm-up timings
        outcome = workload.run(measured)
        return workload, outcome

    single_workload, single_outcome = run(0)
    sharded: dict[int, tuple[ScalingWorkload, WorkloadOutcome]] = {
        shards: run(shards) for shards in shard_counts
    }
    # Snapshot the plan-cache counters now: the dry planning loops below
    # replay the same warm signatures and would inflate the live hit rate.
    live_cache_stats = {
        shards: (
            workload.rule_table.plan_cache_hits, workload.rule_table.plan_cache_misses
        )
        for shards, (workload, _) in sharded.items()
    }
    if check_equivalence:
        for shards, (_, outcome) in sharded.items():
            assert outcome.triggerings == single_outcome.triggerings, (
                f"{shards}-shard run made different triggering decisions"
            )
            assert outcome.considerations == single_outcome.considerations, (
                f"{shards}-shard run selected rules in a different order"
            )

    single_plan = _dry_plan_single(single_workload, signatures, planning_repetitions)
    sharded_plan = {
        shards: _dry_plan_sharded(workload, signatures, planning_repetitions)
        for shards, (workload, _) in sharded.items()
    }

    reference_shards = min(
        (shards for shards in shard_counts if shards >= 4), default=shard_counts[-1]
    )
    reference_plan = sharded_plan[reference_shards]
    reference_workload, reference_outcome = sharded[reference_shards]
    table = reference_workload.rule_table
    cache_hits, cache_misses = live_cache_stats[reference_shards]
    cache_lookups = cache_hits + cache_misses
    stats = reference_outcome.stats
    return {
        "rules": rule_count,
        "universe_types": len(universe),
        "blocks": single_outcome.blocks,
        "single_plan_us_per_block": round(1e6 * single_plan, 2),
        "sharded_plan_us_per_block": {
            str(shards): round(1e6 * cost, 2) for shards, cost in sharded_plan.items()
        },
        "reference_shards": reference_shards,
        "planning_speedup": round(single_plan / max(1e-9, reference_plan), 2),
        "single_check_us_per_block": round(single_outcome.check_us_per_block, 1),
        "sharded_check_us_per_block": round(reference_outcome.check_us_per_block, 1),
        "routed_per_block": round(
            stats["rules_routed"] / max(1, reference_outcome.blocks), 1
        ),
        "plan_cache_hit_rate": round(cache_hits / max(1, cache_lookups), 3),
        "shard_population": table.shard_population(),
        "triggerings": sum(single_outcome.triggerings.values()),
    }


# ---------------------------------------------------------------------------
# Pipelined ingestion
# ---------------------------------------------------------------------------


def _build_stream_engine(rules: list[Rule], shards: int) -> RuleEngine:
    """A minimal engine (no object store traffic) for stream-ingestion runs."""
    schema = Schema()
    store = ObjectStore()
    event_base = EventBase()
    clock = TransactionClock()
    operations = OperationExecutor(
        schema, store, event_base, clock, emit_select_events=False
    )
    engine = RuleEngine(
        schema=schema,
        store=store,
        event_base=event_base,
        clock=clock,
        operations=operations,
        config=EngineConfig.from_env(shards=shards),
    )
    for rule in rules:
        engine.rule_table.add(rule).reset(0)
    return engine


def measure_pipelined_ingestion(
    rule_count: int = 2_000,
    blocks: int = 200,
    events_per_block: int = 64,
    shards: int = 4,
    max_pending: int = 32,
    seed: int = 19,
) -> dict:
    """Stream throughput: direct ``run_stream_block`` vs the bounded-queue pipeline.

    Both paths construct the occurrence objects inside the timed loop (that is
    the producer work the pipeline overlaps with rule evaluation) and face
    identical rule pools; the runs must reach identical triggering counters
    and consideration sequences.
    """
    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 3)
    specs = [
        [
            (occurrence.event_type, occurrence.oid, occurrence.timestamp)
            for occurrence in block
        ]
        for block in build_shaped_blocks(
            universe, blocks, events_per_block=events_per_block, seed=seed
        )
    ]

    def materialize(block_spec, eid_base: int) -> list[EventOccurrence]:
        return [
            EventOccurrence(
                eid=eid_base + offset, event_type=event_type, oid=oid, timestamp=stamp
            )
            for offset, (event_type, oid, stamp) in enumerate(block_spec)
        ]

    results: dict[str, float] = {}
    engines: dict[str, RuleEngine] = {}

    for label in ("direct", "pipelined"):
        engine = _build_stream_engine(rules, shards)
        engines[label] = engine
        eid = 1
        started = time.perf_counter()
        if label == "direct":
            for block_spec in specs:
                engine.run_stream_block(materialize(block_spec, eid))
                eid += len(block_spec)
        else:
            with StreamIngestor(engine, max_pending=max_pending) as ingestor:
                for block_spec in specs:
                    ingestor.submit(materialize(block_spec, eid))
                    eid += len(block_spec)
                ingestor.flush()
        results[label] = time.perf_counter() - started

    direct_counts = {
        state.rule.name: state.times_triggered
        for state in engines["direct"].rule_table.states()
    }
    pipelined_counts = {
        state.rule.name: state.times_triggered
        for state in engines["pipelined"].rule_table.states()
    }
    assert direct_counts == pipelined_counts, (
        "pipelined ingestion made different triggering decisions"
    )
    assert [record.rule_name for record in engines["direct"].considerations] == [
        record.rule_name for record in engines["pipelined"].considerations
    ], "pipelined ingestion considered rules in a different order"

    events = sum(len(block_spec) for block_spec in specs)
    return {
        "rules": rule_count,
        "shards": shards,
        "blocks": blocks,
        "events": events,
        "direct_events_per_sec": round(events / results["direct"], 1),
        "pipelined_events_per_sec": round(events / results["pipelined"], 1),
        "pipelining_ratio": round(results["direct"] / results["pipelined"], 2),
        "max_queue_depth": max_pending,
    }


# ---------------------------------------------------------------------------
# Sweeps and rendering
# ---------------------------------------------------------------------------


def run_x8_sweeps(smoke: bool = False) -> dict:
    """The X8 grid: shard-count sweep plus pipelined-ingestion comparison."""
    if smoke:
        rule_rows = [
            measure_shard_scaling(
                rules,
                shard_counts=list(X8_SMOKE_SHARD_SWEEP),
                blocks=12,
                warmup_blocks=2,
                planning_repetitions=3,
            )
            for rules in X8_SMOKE_RULE_SWEEP
        ]
        ingestion = measure_pipelined_ingestion(
            rule_count=300, blocks=40, events_per_block=32
        )
    else:
        rule_rows = [measure_shard_scaling(rules) for rules in X8_RULE_SWEEP]
        ingestion = measure_pipelined_ingestion()
    return {
        "benchmark": "x8_shard_scaling",
        "description": (
            "Per-block trigger-planning cost, sharded coordinator (signature "
            "route cache + per-shard sub-signature plan caches, serial "
            "deterministic mode) vs the single-table planner, at fixed "
            "subscription density over shape-recurring streams; plus stream "
            "ingestion throughput through the bounded-queue pipeline vs "
            "direct run_stream_block calls.  Planning figures are measured "
            "dry on each configuration's own steady state with warm caches; "
            "check figures are end-to-end and include the identical exact ts "
            "work all configurations perform."
        ),
        "headline": rule_rows[-1],
        "shard_scaling": rule_rows,
        "ingestion": ingestion,
        "equivalence": {
            "checked": True,
            "note": (
                "each grid point asserts identical triggering decisions and "
                "priority-order selections between the single-table run and "
                "every shard count; the ingestion comparison asserts the "
                "same between direct and pipelined runs"
            ),
        },
    }


def render_x8(results: dict) -> str:
    """Human-readable tables for an X8 result dict."""
    shard_columns = sorted(
        {
            int(shards)
            for row in results["shard_scaling"]
            for shards in row["sharded_plan_us_per_block"]
        }
    )
    scaling_rows = [
        [
            row["rules"],
            row["single_plan_us_per_block"],
            *[
                row["sharded_plan_us_per_block"].get(str(shards), "-")
                for shards in shard_columns
            ],
            f"{row['planning_speedup']}x",
            row["single_check_us_per_block"],
            row["sharded_check_us_per_block"],
        ]
        for row in results["shard_scaling"]
    ]
    ingestion = results["ingestion"]
    ingestion_rows = [
        [
            ingestion["rules"],
            ingestion["events"],
            ingestion["direct_events_per_sec"],
            ingestion["pipelined_events_per_sec"],
            f"{ingestion['pipelining_ratio']}x",
        ]
    ]
    return "\n\n".join(
        [
            render_table(
                [
                    "rules",
                    "single plan µs/blk",
                    *[f"{shards}-shard µs/blk" for shards in shard_columns],
                    "speedup",
                    "single check µs/blk",
                    "sharded check µs/blk",
                ],
                scaling_rows,
                title="X8 — trigger planning, shard coordinator vs single table",
            ),
            render_table(
                ["rules", "events", "direct ev/s", "pipelined ev/s", "ratio"],
                ingestion_rows,
                title="X8 — stream ingestion, pipelined vs direct",
            ),
        ]
    )
