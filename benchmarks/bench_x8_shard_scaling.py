"""X8 — sharded trigger planning and pipelined ingestion (PR 3).

PR 2 made per-block planning flat in the rule count via the inverted
subscription index; this bench quantifies the PR-3 scale-out subsystem built
on top of it (``repro/cluster/``):

* **sharded planning** — the :class:`ShardCoordinator` fans each block's type
  signature out to the shards owning the matching ``(operation, class)``
  buckets.  The win over the single-table planner is structural: the full
  signature hits the coordinator's route cache, each shard resolves its
  sub-signature through a memoized, definition-ordered subscriber tuple, and
  no per-block bucket union or candidate sort remains.  Sub-signature keys
  recur far more often than full signatures, so the caches stay warm across
  varying block shapes.  Measured dry on each configuration's steady state,
  warm caches, over shape-recurring streams — the regime a long-running
  server sits in.  The exact ``ts`` checks are the identical set of
  computations on every configuration (asserted here and in
  ``tests/cluster/test_shard_equivalence.py``).
* **end-to-end check cost** — same comparison including the checks.
* **pipelined ingestion** — ``StreamIngestor``'s bounded-queue hand-off
  (producer builds occurrences and signatures while the consumer checks)
  against direct ``run_stream_block`` calls.

Run as a script to execute the full sweep and write machine-readable results
to ``BENCH_PR3.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_x8_shard_scaling.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI) and writes nothing unless
``--out`` is given.  The pytest entry points run reduced configurations and
assert the acceptance criteria: sharded planning beats the single-table
planner, decisions identical, pipelining not slower than direct ingestion by
more than a small margin.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis import render_table
from repro.config import EngineConfig
from repro.workloads.shard_scaling import (
    measure_pipelined_ingestion,
    measure_shard_scaling,
    render_x8,
    run_x8_sweeps,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_PR3.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument(
        "--out",
        default=None,
        help="results file (default: BENCH_PR3.json; smoke writes nowhere)",
    )
    args = parser.parse_args(argv)
    results = run_x8_sweeps(smoke=args.smoke)
    print(render_x8(results))
    out = Path(args.out) if args.out else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    reference = headline["reference_shards"]
    print(
        f"headline: {headline['rules']} rules -> sharded planning "
        f"{headline['planning_speedup']}x at {reference} shards "
        f"(single {headline['single_plan_us_per_block']} µs/block vs sharded "
        f"{headline['sharded_plan_us_per_block'][str(reference)]} µs/block); "
        f"pipelined ingestion {results['ingestion']['pipelining_ratio']}x direct"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced configuration)
# ---------------------------------------------------------------------------


def test_x8_sharded_and_single_decisions_are_identical():
    # measure_shard_scaling asserts triggering + selection equivalence itself,
    # for every shard count in the sweep.
    measure_shard_scaling(
        400, shard_counts=[1, 3, 4], blocks=10, warmup_blocks=2, planning_repetitions=2
    )


def test_x8_sharded_planning_beats_single_table(benchmark):
    small = measure_shard_scaling(
        500, shard_counts=[4], blocks=10, warmup_blocks=2, planning_repetitions=3
    )
    large = measure_shard_scaling(
        3_000, shard_counts=[4], blocks=10, warmup_blocks=2, planning_repetitions=3
    )
    print()
    print(
        render_table(
            ["rules", "single plan µs/blk", "4-shard plan µs/blk", "speedup"],
            [
                [
                    row["rules"],
                    row["single_plan_us_per_block"],
                    row["sharded_plan_us_per_block"]["4"],
                    f"{row['planning_speedup']}x",
                ]
                for row in (small, large)
            ],
            title="X8 (reduced) — planning cost",
        )
    )
    # The acceptance criterion, at a CI-sized grid point: the sharded
    # coordinator must beat the single-table planner outright (the full run
    # at >=10k rules shows larger margins; keep head-room for noisy boxes).
    assert large["planning_speedup"] >= 1.2, large

    from repro.workloads.rule_scaling import build_scaling_universe
    from repro.workloads.shard_scaling import (
        ScalingWorkload,
        build_shard_rules,
        build_shaped_blocks,
    )

    universe = build_scaling_universe(3_000)
    workload = ScalingWorkload(
        build_shard_rules(3_000, universe), EngineConfig.from_env(shards=4)
    )
    stream = build_shaped_blocks(universe, 12, seed=5)
    for block in stream:
        workload.feed_block(block)
    signatures = [frozenset(o.event_type for o in block) for block in stream]

    def plan_all():
        for signature in signatures:
            workload.support.plan_sharded(signature)

    benchmark(plan_all)


def test_x8_pipelined_ingestion_not_slower():
    row = measure_pipelined_ingestion(rule_count=300, blocks=40, events_per_block=32)
    # The pipeline must at least roughly keep up with the direct path (the
    # full run shows >1x; generous head-room for noisy CI boxes).
    assert row["pipelining_ratio"] >= 0.7, row


if __name__ == "__main__":
    main()
