"""Dispatch-amortization workloads: the X10 benchmark (PR 5).

PR 4 put a number on the process shard mode's fixed cost: ~250–500 µs per
consulted worker round trip plus ~50–130 µs of snapshot encoding per block,
paid *per block* — which on check-light blocks swamps the evaluate work the
workers buy back (PERFORMANCE.md "crossover").  PR 5's micro-batched worker
dispatch attacks exactly that term: the stream path coalesces up to
``batch_blocks`` consecutive blocks into one **trip**, and the coordinator
contacts each consulted worker once per trip (one combined Event-Base delta
plus N ordered work segments) instead of once per block.

The X10 benchmark (``benchmarks/bench_x10_dispatch_amortization.py`` and
``chimera-events bench x10``) sweeps the batch size over the X9 grid's
check-heavy stream and reports, per batch size:

* **trips and worker round trips** — the structural headline: trips scale
  with ``ceil(blocks / batch)``, not with blocks, so the per-block round
  trips fall as ``1 / batch``;
* **per-block dispatch overhead** — the end-to-end process-mode check cost
  minus the serial coordinator's (the two modes do identical exact ``ts``
  work, so the difference is transport: encode + scheduler round trips);
* **per-block encode cost and shipped bytes** — one delta per trip covers
  the whole micro-batch, so the snapshot cost amortizes with the round
  trips.

Every grid point asserts identical triggering decisions, priority-order
selections and Trigger Support stats across the single-table reference and
the serial / threads / processes coordinator modes *at that batch size* (the
differential harness in ``tests/cluster/test_mode_equivalence.py`` pins the
same property down to the per-rule counters for batch sizes 1–8).
"""

from __future__ import annotations

import math
import os

from repro.analysis.reporting import render_table
from repro.config import EngineConfig
from repro.workloads.rule_scaling import (
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_universe,
)
from repro.workloads.shard_scaling import build_shard_rules, build_shaped_blocks

__all__ = [
    "X10_BATCH_SWEEP",
    "X10_MODES",
    "measure_dispatch_amortization",
    "run_x10_sweeps",
    "render_x10",
]

#: Batch sizes swept by every X10 grid point (1 = the PR-4 per-block regime).
X10_BATCH_SWEEP = [1, 2, 4, 8]

#: Coordinator execution modes compared at every batch size (plus the
#: single-table reference).
X10_MODES = ("serial", "threads", "processes")

#: Full / smoke rule grids (shared by the benchmark script and the CLI).
X10_RULE_SWEEP = [10_000]
X10_SMOKE_RULE_SWEEP = [800]


def measure_dispatch_amortization(
    rule_count: int,
    workers: int = 4,
    blocks: int = 48,
    warmup_blocks: int = 4,
    events_per_block: int = 12,
    types_per_shape: tuple[int, int] = (4, 8),
    shapes: int = 16,
    seed: int = 7,
    batch_sizes: tuple[int, ...] = tuple(X10_BATCH_SWEEP),
    check_equivalence: bool = True,
) -> dict:
    """Sweep the micro-batch size over one grid point, all execution modes.

    Per batch size the identical stream and rule pool run through the
    single-table planner and the three coordinator modes; the process run's
    transport counters are read for the measured phase only (the warm-up
    ships every rule definition once, which would drown the steady state).
    """
    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 53)
    stream = build_shaped_blocks(
        universe,
        warmup_blocks + blocks,
        events_per_block=events_per_block,
        shapes=shapes,
        types_per_shape=types_per_shape,
        seed=seed,
    )
    measured = stream[warmup_blocks:]

    def run(shards: int, shard_mode: str | None, batch: int):
        workload = ScalingWorkload(
            rules,
            EngineConfig.from_env(
                shards=shards, shard_mode=shard_mode, batch_blocks=batch
            ),
        )
        for start in range(0, warmup_blocks, batch):
            workload.feed_trip(stream[start : min(start + batch, warmup_blocks)])
        workload.outcome = WorkloadOutcome()  # drop warm-up timings
        pool = getattr(workload.support, "process_pool", None)
        baseline = pool.transport_stats() if pool is not None else {}
        outcome = workload.run(measured)
        if pool is not None:
            steady = pool.transport_stats()
            outcome.transport = {
                key: round(value - baseline.get(key, 0), 2)
                if isinstance(value, (int, float)) and key != "workers"
                else value
                for key, value in steady.items()
            }
        return workload, outcome

    rows = []
    for batch in batch_sizes:
        single_workload, single_outcome = run(0, None, batch)
        runs = {mode: run(workers, mode, batch) for mode in X10_MODES}
        if check_equivalence:
            for mode, (_, outcome) in runs.items():
                assert outcome.triggerings == single_outcome.triggerings, (
                    f"batch {batch}: {mode} mode made different triggering decisions"
                )
                assert outcome.considerations == single_outcome.considerations, (
                    f"batch {batch}: {mode} mode selected rules in a different order"
                )
                assert outcome.stats == single_outcome.stats, (
                    f"batch {batch}: {mode} mode diverged from the single-table stats"
                )
        process_outcome = runs["processes"][1]
        transport = getattr(process_outcome, "transport", {})
        serial_check = runs["serial"][1].check_us_per_block
        process_check = process_outcome.check_us_per_block
        measured_blocks = process_outcome.blocks
        trips = int(transport.get("dispatches", 0))
        round_trips = int(transport.get("worker_round_trips", 0))
        rows.append(
            {
                "batch_blocks": batch,
                "blocks": measured_blocks,
                "expected_trips": math.ceil(measured_blocks / batch),
                "trips": trips,
                "worker_round_trips": round_trips,
                "blocks_dispatched": int(transport.get("blocks_dispatched", 0)),
                "round_trips_per_block": round(
                    round_trips / max(1, measured_blocks), 2
                ),
                "encode_us_per_block": round(
                    1e3 * transport.get("encode_ms", 0.0) / max(1, measured_blocks), 1
                ),
                "bytes_shipped_per_block": round(
                    transport.get("bytes_shipped", 0) / max(1, measured_blocks), 1
                ),
                "check_us_per_block": {
                    "single": round(single_outcome.check_us_per_block, 1),
                    **{
                        mode: round(outcome.check_us_per_block, 1)
                        for mode, (_, outcome) in runs.items()
                    },
                },
                "dispatch_overhead_us_per_block": round(
                    max(0.0, process_check - serial_check), 1
                ),
                "triggerings": sum(single_outcome.triggerings.values()),
            }
        )
        for workload, _ in (
            (single_workload, single_outcome),
            *runs.values(),
        ):
            workload.close()

    by_batch = {row["batch_blocks"]: row for row in rows}
    base = by_batch.get(1, rows[0])
    best = rows[-1]
    return {
        "rules": rule_count,
        "workers": workers,
        "universe_types": len(universe),
        "blocks": blocks,
        "events_per_block": events_per_block,
        "batch_sizes": list(batch_sizes),
        "rows": rows,
        "amortization": {
            "trips_at_batch_1": base["trips"],
            "trips_at_batch_max": best["trips"],
            "round_trips_per_block_at_batch_1": base["round_trips_per_block"],
            "round_trips_per_block_at_batch_max": best["round_trips_per_block"],
            "overhead_us_per_block_at_batch_1": base[
                "dispatch_overhead_us_per_block"
            ],
            "overhead_us_per_block_at_batch_max": best[
                "dispatch_overhead_us_per_block"
            ],
        },
    }


def run_x10_sweeps(smoke: bool = False) -> dict:
    """The X10 grid: a batch-size sweep per rule-count grid point."""
    if smoke:
        grid = [
            measure_dispatch_amortization(
                rules,
                workers=2,
                blocks=24,
                warmup_blocks=2,
                events_per_block=8,
                shapes=8,
            )
            for rules in X10_SMOKE_RULE_SWEEP
        ]
    else:
        grid = [measure_dispatch_amortization(rules) for rules in X10_RULE_SWEEP]
    host_cpus = os.cpu_count() or 1
    return {
        "benchmark": "x10_dispatch_amortization",
        "description": (
            "Micro-batched worker dispatch: batch-size sweep of the "
            "process-mode stream path on the X9 check-heavy configuration.  "
            "Trips and worker round trips are structural (they scale with "
            "ceil(blocks/batch), asserted by the bench guard); the per-block "
            "dispatch overhead is the end-to-end process-mode check cost "
            "minus the serial coordinator's, i.e. the transport term the "
            "batching amortizes.  Every batch size asserts identical "
            "triggering decisions, selections and stats across the single "
            "table and all three coordinator modes."
        ),
        "host_cpus": host_cpus,
        "headline": grid[-1],
        "dispatch_amortization": grid,
        "equivalence": {
            "checked": True,
            "note": (
                "each (rules, batch) point asserts identical triggering "
                "decisions, priority-order selections and Trigger Support "
                "stats between the single-table run and every execution mode"
            ),
        },
    }


def render_x10(results: dict) -> str:
    """Human-readable tables for an X10 result dict."""
    sections = []
    for grid_point in results["dispatch_amortization"]:
        rows = [
            [
                row["batch_blocks"],
                row["blocks"],
                row["trips"],
                row["worker_round_trips"],
                row["round_trips_per_block"],
                row["encode_us_per_block"],
                row["check_us_per_block"]["serial"],
                row["check_us_per_block"]["processes"],
                row["dispatch_overhead_us_per_block"],
            ]
            for row in grid_point["rows"]
        ]
        sections.append(
            render_table(
                [
                    "batch",
                    "blocks",
                    "trips",
                    "round trips",
                    "rt/blk",
                    "encode µs/blk",
                    "serial chk µs",
                    "process chk µs",
                    "dispatch ovh µs/blk",
                ],
                rows,
                title=(
                    f"X10 — dispatch amortization, {grid_point['rules']} rules, "
                    f"{grid_point['workers']} workers "
                    f"(host has {results.get('host_cpus', '?')} CPU(s))"
                ),
            )
        )
    return "\n\n".join(sections)
