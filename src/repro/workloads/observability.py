"""Observability-overhead workloads: the X12 benchmark (PR 8).

PR 8 threads a :class:`~repro.obs.registry.MetricsRegistry` through the whole
block→trigger pipeline — pipeline-phase histograms, queue gauges, per-shard
candidate counters, worker-side registries shipped back as deltas.  The deal
is that all of it stays effectively free: a disabled registry hands out
shared null instruments (one attribute lookup per probe) and an enabled one
stays off the per-rule hot loops (histogram handles are cached per component
and timed per *trip*, not per rule).  X12 puts a number on that deal:

* **X7-style grid** — the single-table rule-scaling pipeline, instrumented
  vs uninstrumented, identical streams and rule pools;
* **X10-style grid** — the sharded pipeline across execution modes and
  micro-batch sizes, where the processes mode additionally exercises the
  cross-process delta path (worker registries piggybacked on trip replies).

Per grid point both arms run **interleaved repetitions** and the per-arm
cost is the minimum over repetitions — the standard way to compare two
near-identical pipelines under scheduler noise.  Every point asserts the two
arms made identical triggering decisions, selections and stats (metrics must
observe, never steer), and the enabled arm's snapshot is structurally
checked: source counters equal to the live stats object, and — in the
processes mode — ``worker.*`` counters present, proving the reply deltas
merged coordinator-side.

A caveat on the processes points: their cost is dominated by worker
round-trip latency, and the scheduler jitter on four concurrent workers
(several percent run to run, with either sign — measured well above the
instrumentation effect) does not fully converge even under min-of-reps.
Those rows therefore run extra repetitions, carry a looser timing cap in
the guard, and lean on the structural snapshot checks as the primary
acceptance; the strict ≤3% cap is enforced on the deterministic
single-table and serial rows where the measurement is reliable.

``benchmarks/bench_x12_observability_overhead.py`` writes the results to
BENCH_PR8.json; ``benchmarks/check_bench_guard.py`` fails CI when the
measured overhead exceeds the guard cap (3% nominal).
"""

from __future__ import annotations

import time

from repro.analysis.reporting import render_table
from repro.config import EngineConfig
from repro.obs.registry import MetricsRegistry
from repro.workloads.generator import EventStreamGenerator
from repro.workloads.rule_scaling import (
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_rules,
    build_scaling_universe,
)

__all__ = [
    "X12_RULE_SWEEP",
    "X12_SMOKE_RULE_SWEEP",
    "X12_MODE_SWEEP",
    "measure_overhead",
    "run_x12_sweeps",
    "render_x12",
]

#: Rule counts of the single-table (X7-style) grid.
X12_RULE_SWEEP = [1_000, 4_000]
X12_SMOKE_RULE_SWEEP = [300]

#: ``(shard mode, batch blocks)`` points of the sharded (X10-style) grid.
X12_MODE_SWEEP = [("serial", 1), ("serial", 4), ("processes", 4)]
X12_SMOKE_MODE_SWEEP = [("serial", 2), ("processes", 4)]


def _arm_seconds(outcome: WorkloadOutcome) -> float:
    """One arm's end-to-end cost: ingest + check + select."""
    return outcome.ingest_seconds + outcome.check_seconds + outcome.select_seconds


def measure_overhead(
    rule_count: int,
    shards: int = 0,
    shard_mode: str | None = None,
    batch_blocks: int = 1,
    blocks: int = 60,
    warmup_blocks: int = 4,
    events_per_block: int = 8,
    seed: int = 7,
    repetitions: int = 5,
) -> dict:
    """Instrumented vs uninstrumented cost at one grid point.

    Runs ``repetitions`` interleaved (off, on) pairs over the identical
    stream and rule pool; each arm's cost is the minimum total over its
    repetitions.  Asserts both arms produce identical triggerings,
    selections and stats, and checks the enabled arm's snapshot structure
    (stats sources folded in; ``worker.*`` deltas merged in processes mode).
    """
    universe = build_scaling_universe(rule_count)
    rules = build_scaling_rules(rule_count, universe, seed=seed)
    stream = EventStreamGenerator(
        event_types=universe, seed=seed + 1, events_per_block=events_per_block
    ).blocks(warmup_blocks + blocks)
    measured = stream[warmup_blocks:]

    best: dict[bool, float] = {False: float("inf"), True: float("inf")}
    outcomes: dict[bool, WorkloadOutcome] = {}
    snapshot: dict | None = None
    for _ in range(repetitions):
        for enabled in (False, True):
            registry = MetricsRegistry(enabled=enabled)
            workload = ScalingWorkload(
                rules,
                EngineConfig.from_env(
                    shards=shards,
                    shard_mode=shard_mode,
                    batch_blocks=batch_blocks,
                ),
                metrics=registry,
            )
            try:
                for start in range(0, warmup_blocks, batch_blocks):
                    workload.feed_trip(
                        stream[start : min(start + batch_blocks, warmup_blocks)]
                    )
                workload.outcome = WorkloadOutcome()  # drop warm-up timings
                outcome = workload.run(measured)
                best[enabled] = min(best[enabled], _arm_seconds(outcome))
                outcomes[enabled] = outcome
                if enabled:
                    snapshot = registry.snapshot()
            finally:
                workload.close()

    off, on = outcomes[False], outcomes[True]
    assert on.triggerings == off.triggerings, (
        "instrumented run made different triggering decisions"
    )
    assert on.considerations == off.considerations, (
        "instrumented run selected rules in a different order"
    )
    assert on.stats == off.stats, (
        "instrumented run diverged from the uninstrumented stats"
    )

    assert snapshot is not None
    counters = snapshot["counters"]
    # The trigger stats source must fold into the snapshot byte-equal to the
    # live stats dict — report and export can never disagree.
    counters_match_stats = all(
        counters.get(f"trigger.{key}") == value for key, value in on.stats.items()
    )
    worker_deltas_merged = shard_mode != "processes" or (
        counters.get("worker.trips", 0) > 0
        and counters.get("worker.rules_evaluated", 0) > 0
    )
    assert counters_match_stats, "snapshot counters diverged from the stats source"
    assert worker_deltas_merged, "process-worker metric deltas were not merged"

    off_seconds, on_seconds = best[False], best[True]
    return {
        "rules": rule_count,
        "shards": shards,
        "shard_mode": shard_mode or ("serial" if shards else "single"),
        "batch_blocks": batch_blocks,
        "blocks": len(measured),
        "repetitions": repetitions,
        "off_ms": round(1e3 * off_seconds, 2),
        "on_ms": round(1e3 * on_seconds, 2),
        "overhead_pct": round(100.0 * (on_seconds - off_seconds) / off_seconds, 2),
        "span_count": sum(
            values["count"] for values in snapshot["histograms"].values()
        ),
        "counters_match_stats": counters_match_stats,
        "worker_deltas_merged": worker_deltas_merged,
        "triggerings": sum(on.triggerings.values()),
    }


def run_x12_sweeps(smoke: bool = False) -> dict:
    """The X12 grid: overhead on the X7 pipeline and the sharded X10 pipeline."""
    if smoke:
        rule_sweep = X12_SMOKE_RULE_SWEEP
        mode_sweep = X12_SMOKE_MODE_SWEEP
        kwargs = {"blocks": 32, "warmup_blocks": 3, "repetitions": 4}
    else:
        rule_sweep = X12_RULE_SWEEP
        mode_sweep = X12_MODE_SWEEP
        kwargs = {"blocks": 60, "warmup_blocks": 4, "repetitions": 5}
    started = time.perf_counter()
    x7_grid = [measure_overhead(rules, **kwargs) for rules in rule_sweep]
    sharded_rules = rule_sweep[-1]
    x10_grid = [
        measure_overhead(
            sharded_rules,
            shards=4,
            shard_mode=mode,
            batch_blocks=batch,
            **{
                **kwargs,
                # Worker round-trip jitter converges slowly: see module docs.
                "repetitions": kwargs["repetitions"]
                + (2 if mode == "processes" else 0),
            },
        )
        for mode, batch in mode_sweep
    ]
    worst = max(row["overhead_pct"] for row in x7_grid + x10_grid)
    return {
        "benchmark": "x12_observability_overhead",
        "description": (
            "Instrumented vs uninstrumented end-to-end pipeline cost "
            "(ingest + check + select), interleaved repetitions, min-of-reps "
            "per arm.  The X7 grid covers the single-table pipeline, the X10 "
            "grid the shard coordinator across execution modes and "
            "micro-batch sizes (the processes mode exercises the "
            "cross-process metric-delta path).  Every point asserts the two "
            "arms made identical triggering decisions, selections and stats."
        ),
        "elapsed_seconds": round(time.perf_counter() - started, 1),
        "headline": {
            "worst_overhead_pct": round(worst, 2),
            "points": len(x7_grid) + len(x10_grid),
        },
        "x7_grid": x7_grid,
        "x10_grid": x10_grid,
        "snapshot": {
            "counters_match_stats": all(
                row["counters_match_stats"] for row in x7_grid + x10_grid
            ),
            "worker_deltas_merged": all(
                row["worker_deltas_merged"] for row in x10_grid
            ),
        },
        "equivalence": {
            "checked": True,
            "note": (
                "each grid point asserts identical triggering decisions, "
                "priority-order selections and Trigger Support stats between "
                "the instrumented and uninstrumented arms"
            ),
        },
    }


def render_x12(results: dict) -> str:
    """Human-readable tables for an X12 result dict."""

    def rows_for(grid: list[dict]) -> list[list]:
        return [
            [
                row["rules"],
                row["shard_mode"],
                row["batch_blocks"],
                row["blocks"],
                row["off_ms"],
                row["on_ms"],
                f"{row['overhead_pct']}%",
                row["span_count"],
            ]
            for row in grid
        ]

    headers = [
        "rules",
        "mode",
        "batch",
        "blocks",
        "off ms",
        "on ms",
        "overhead",
        "spans",
    ]
    return "\n\n".join(
        [
            render_table(
                headers,
                rows_for(results["x7_grid"]),
                title="X12 — observability overhead, single-table pipeline",
            ),
            render_table(
                headers,
                rows_for(results["x10_grid"]),
                title="X12 — observability overhead, shard coordinator (4 shards)",
            ),
        ]
    )
