"""Process-mode scaling workloads: the X9 benchmark (PR 4).

The X9 benchmark (``benchmarks/bench_x9_process_scaling.py`` and
``chimera-events bench x9``) measures the multi-process shard workers against
every other execution mode on the X8 grid's check-heavy configuration:
shape-recurring streams over the ghost-monitor rule pool, with denser shapes
and larger blocks so the exact ``ts`` work — the part the process pool moves
onto other cores — dominates each block.

Four configurations face the identical stream and rule pool, and every grid
point asserts identical triggering decisions and priority-order selections
across all of them (the differential harness in
``tests/cluster/test_mode_equivalence.py`` pins the same property down to the
stats):

* **single** — the single-table :class:`TriggerPlanner` (shards=0);
* **serial** — the shard coordinator, inline deterministic mode;
* **threads** — the shard coordinator on its thread pool (GIL-bound);
* **processes** — the shard coordinator on the
  :class:`~repro.cluster.process_pool.ProcessShardPool`.

Reported per grid point: dry per-block planning cost (single table vs the
coordinator's route/plan caches — the planning the process mode also uses,
since planning stays coordinator-side), end-to-end check cost per mode, the
process transport decomposition (snapshot/encode cost, bytes, round trips)
and the host's CPU count.  The transport figures feed the snapshot-cost vs
check-cost crossover discussion in PERFORMANCE.md: on a single-core host the
pool pays scheduler round trips with nothing to overlap them with, while the
evaluate phase itself — the dominant term as checks get heavier — is the part
that scales with cores.
"""

from __future__ import annotations

import os

from repro.analysis.reporting import render_table
from repro.config import EngineConfig
from repro.workloads.rule_scaling import (
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_universe,
)
from repro.workloads.shard_scaling import (
    _dry_plan_sharded,
    _dry_plan_single,
    build_shard_rules,
    build_shaped_blocks,
)

__all__ = [
    "X9_MODES",
    "measure_process_scaling",
    "run_x9_sweeps",
    "render_x9",
]

#: Execution modes compared by every X9 grid point (plus the single table).
X9_MODES = ("serial", "threads", "processes")

#: Full / smoke rule grids (shared by ``benchmarks/bench_x9_process_scaling.py``
#: and ``chimera-events bench x9``).
X9_RULE_SWEEP = [10_000, 100_000]
X9_SMOKE_RULE_SWEEP = [500, 2_000]


def measure_process_scaling(
    rule_count: int,
    workers: int = 4,
    blocks: int = 40,
    warmup_blocks: int = 4,
    events_per_block: int = 24,
    types_per_shape: tuple[int, int] = (8, 14),
    shapes: int = 24,
    seed: int = 7,
    planning_repetitions: int = 15,
    check_equivalence: bool = True,
) -> dict:
    """All four execution modes over one check-heavy grid point.

    The check-heavy twist on the X8 configuration: denser shapes and bigger
    blocks raise the routed-candidate count per block, so the exact ``ts``
    sampling — identical work in every mode — dominates and the planning /
    dispatch differences are measured against a realistic evaluate phase.
    The warm-up blocks absorb each rule's first (unavoidably exhaustive)
    check and, for the process mode, the one-time definition shipping.
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
    signatures = [
        frozenset(occurrence.event_type for occurrence in block) for block in measured
    ]

    def run(shards: int, shard_mode: str | None):
        workload = ScalingWorkload(
            rules, EngineConfig.from_env(shards=shards, shard_mode=shard_mode)
        )
        for block in stream[:warmup_blocks]:
            workload.feed_block(block)
        workload.outcome = WorkloadOutcome()  # drop warm-up timings
        pool = getattr(workload.support, "process_pool", None)
        baseline = pool.transport_stats() if pool is not None else {}
        outcome = workload.run(measured)
        # Transport counters for the measured phase only: the warm-up ships
        # every rule definition once, which would drown the steady state.
        if pool is not None:
            steady = pool.transport_stats()
            outcome.transport = {
                key: round(value - baseline.get(key, 0), 2)
                if isinstance(value, (int, float)) and key != "workers"
                else value
                for key, value in steady.items()
            }
        return workload, outcome

    single_workload, single_outcome = run(0, None)
    runs: dict[str, tuple[ScalingWorkload, WorkloadOutcome]] = {
        mode: run(workers, mode) for mode in X9_MODES
    }

    if check_equivalence:
        for mode, (_, outcome) in runs.items():
            assert outcome.triggerings == single_outcome.triggerings, (
                f"{mode} mode made different triggering decisions"
            )
            assert outcome.considerations == single_outcome.considerations, (
                f"{mode} mode selected rules in a different order"
            )
            assert outcome.stats == single_outcome.stats, (
                f"{mode} mode diverged from the single-table stats"
            )

    # Dry planning on the steady state (coordinator planning is identical in
    # every shard mode — it happens before dispatch — so the serial run's
    # caches stand in for all three).
    single_plan = _dry_plan_single(single_workload, signatures, planning_repetitions)
    sharded_plan = _dry_plan_sharded(
        runs["serial"][0], signatures, planning_repetitions
    )

    process_workload, process_outcome = runs["processes"]
    transport = getattr(process_outcome, "transport", {})
    serial_check = runs["serial"][1].check_us_per_block
    process_check = process_outcome.check_us_per_block

    result = {
        "rules": rule_count,
        "workers": workers,
        "universe_types": len(universe),
        "blocks": single_outcome.blocks,
        "events_per_block": events_per_block,
        "routed_per_block": round(
            single_outcome.stats["rules_routed"] / max(1, single_outcome.blocks), 1
        ),
        "single_plan_us_per_block": round(1e6 * single_plan, 2),
        "process_plan_us_per_block": round(1e6 * sharded_plan, 2),
        "planning_speedup": round(single_plan / max(1e-9, sharded_plan), 2),
        "check_us_per_block": {
            "single": round(single_outcome.check_us_per_block, 1),
            **{
                mode: round(outcome.check_us_per_block, 1)
                for mode, (_, outcome) in runs.items()
            },
        },
        "check_ratio_vs_single": {
            mode: round(
                single_outcome.check_us_per_block
                / max(1e-9, outcome.check_us_per_block),
                2,
            )
            for mode, (_, outcome) in runs.items()
        },
        #: The crossover decomposition: coordinator-side snapshot/encode cost
        #: vs the scheduler round trips vs the (mode-identical) check work.
        "process_transport": {
            **transport,
            "dispatch_overhead_us_per_block": round(
                max(0.0, process_check - serial_check), 1
            ),
            "encode_us_per_block": round(
                1e3 * transport.get("encode_ms", 0.0) / max(1, process_outcome.blocks),
                1,
            ),
        },
        "triggerings": sum(single_outcome.triggerings.values()),
    }
    for workload, _ in (
        (single_workload, single_outcome),
        *runs.values(),
    ):
        workload.close()
    return result


def run_x9_sweeps(smoke: bool = False) -> dict:
    """The X9 grid: every execution mode at 10k/100k rules, 4 workers."""
    if smoke:
        rows = [
            measure_process_scaling(
                rules,
                workers=2,
                blocks=10,
                warmup_blocks=2,
                events_per_block=12,
                types_per_shape=(4, 8),
                planning_repetitions=3,
            )
            for rules in X9_SMOKE_RULE_SWEEP
        ]
    else:
        rows = [measure_process_scaling(rules) for rules in X9_RULE_SWEEP]
    host_cpus = os.cpu_count() or 1
    return {
        "benchmark": "x9_process_scaling",
        "description": (
            "Multi-process shard workers vs the serial / thread coordinator "
            "modes and the single-table planner, on the X8 grid's check-heavy "
            "configuration (dense recurring shapes, large blocks).  Planning "
            "figures are dry, warm-cache, per block; check figures are "
            "end-to-end and include the exact ts work, which every mode "
            "performs identically (asserted per grid point, and down to the "
            "stats by tests/cluster/test_mode_equivalence.py).  The process "
            "transport block decomposes the dispatch overhead: snapshot/"
            "encode cost on the coordinator plus worker round trips."
        ),
        "host_cpus": host_cpus,
        "parallelism_note": (
            "The evaluate phase is the term that scales with cores; on a "
            f"host with {host_cpus} CPU(s) the worker round trips serialize "
            "behind the same core as the checks, so the end-to-end process "
            "ratio on this host is a floor, not the multi-core figure."
        ),
        "headline": rows[-1],
        "process_scaling": rows,
        "equivalence": {
            "checked": True,
            "note": (
                "each grid point asserts identical triggering decisions, "
                "priority-order selections and Trigger Support stats between "
                "the single-table run and every execution mode"
            ),
        },
    }


def render_x9(results: dict) -> str:
    """Human-readable tables for an X9 result dict."""
    rows = [
        [
            row["rules"],
            row["routed_per_block"],
            row["single_plan_us_per_block"],
            row["process_plan_us_per_block"],
            f"{row['planning_speedup']}x",
            row["check_us_per_block"]["single"],
            row["check_us_per_block"]["serial"],
            row["check_us_per_block"]["threads"],
            row["check_us_per_block"]["processes"],
            f"{row['check_ratio_vs_single']['processes']}x",
        ]
        for row in results["process_scaling"]
    ]
    transport_rows = [
        [
            row["rules"],
            row["process_transport"].get("workers", "-"),
            row["process_transport"].get("worker_round_trips", "-"),
            row["process_transport"].get("encode_us_per_block", "-"),
            row["process_transport"].get("dispatch_overhead_us_per_block", "-"),
            row["process_transport"].get("bytes_shipped", "-"),
        ]
        for row in results["process_scaling"]
    ]
    return "\n\n".join(
        [
            render_table(
                [
                    "rules",
                    "routed/blk",
                    "single plan µs",
                    "coord plan µs",
                    "plan speedup",
                    "single chk µs",
                    "serial chk µs",
                    "threads chk µs",
                    "process chk µs",
                    "proc ratio",
                ],
                rows,
                title=(
                    "X9 — execution modes, check-heavy grid "
                    f"(host has {results.get('host_cpus', '?')} CPU(s))"
                ),
            ),
            render_table(
                [
                    "rules",
                    "workers",
                    "round trips",
                    "encode µs/blk",
                    "dispatch ovh µs/blk",
                    "bytes shipped",
                ],
                transport_rows,
                title="X9 — process transport (snapshot cost vs check cost)",
            ),
        ]
    )
