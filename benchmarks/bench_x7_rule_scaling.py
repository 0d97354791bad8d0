"""X7 — trigger planning and ingestion vs rule count (type-routed index).

PR 1 made each triggering check cheap (zero-copy views + incremental memos),
but ``check_after_block`` still visited *every* untriggered rule on every
block and ``EventBase.extend`` maintained its indexes one occurrence at a
time.  This bench quantifies the PR-2 refactor:

* **trigger planning** — deciding which rules a block obliges the Trigger
  Support to visit: one ``TriggerPlanner.plan`` over the block's type
  signature (inverted subscription index), measured dry on the frozen steady
  state.  At fixed subscription density (the type universe grows with the
  rule pool) it should stay roughly flat.
* **end-to-end check cost** — the routed ``check_after_block`` against the
  paper's baseline, the exhaustive scan that recomputes ``ts`` for every
  untriggered rule (``use_static_optimization=False``, §5 / Fig. 6–7), which
  grows linearly with the table.  Both arms make identical decisions
  (asserted here and in ``tests/rules/test_planner_equivalence.py``).
* **ingestion** — the segmented bulk ``extend`` fast path against the
  historical per-occurrence ``append`` loop, at several batch sizes.

Run as a script to execute the full sweep and write machine-readable results
to ``BENCH_PR2.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_x7_rule_scaling.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI) and writes nothing unless
``--out`` is given.  The pytest entry points run reduced configurations and
assert the acceptance criteria: the routed check beats the exhaustive scan and
its planning stays roughly flat, bulk ingestion beats the loop, decisions
identical.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis import render_table
from repro.workloads.rule_scaling import (
    measure_ingestion,
    measure_rule_scaling,
    render_x7,
    run_x7_sweeps,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_PR2.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument(
        "--out",
        default=None,
        help="results file (default: BENCH_PR2.json; smoke writes nowhere)",
    )
    args = parser.parse_args(argv)
    results = run_x7_sweeps(smoke=args.smoke)
    print(render_x7(results))
    out = Path(args.out) if args.out else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    print(
        f"headline: {headline['rules']} rules -> check {headline['check_speedup']}x "
        f"(routed {headline['routed_check_us_per_block']} µs/block vs exhaustive "
        f"scan {headline['scan_check_us_per_block']} µs/block)"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced configuration)
# ---------------------------------------------------------------------------


def test_x7_routed_and_scan_decisions_are_identical():
    # measure_rule_scaling asserts triggering + selection equivalence itself.
    measure_rule_scaling(300, blocks=12, warmup_blocks=2)


def test_x7_planning_flat_vs_linear(benchmark):
    small = measure_rule_scaling(200, blocks=10, warmup_blocks=2)
    large = measure_rule_scaling(1_500, blocks=10, warmup_blocks=2)
    print()
    print(
        render_table(
            ["rules", "routed plan µs/blk", "routed check", "scan check", "speedup"],
            [
                [
                    r["rules"],
                    r["routed_plan_us_per_block"],
                    r["routed_check_us_per_block"],
                    r["scan_check_us_per_block"],
                    f"{r['check_speedup']}x",
                ]
                for r in (small, large)
            ],
            title="X7 (reduced) — planning and check cost",
        )
    )
    # The index must beat the exhaustive scan outright at the larger size...
    assert large["check_speedup"] >= 5.0
    # ...and its planning must stay roughly flat while the scan grows with
    # the table: going 200 -> 1500 rules (7.5x) the routed planning cost may
    # at most triple, while the scan's check must have grown at least 3x.
    assert large["routed_plan_us_per_block"] <= 3.0 * max(
        1.0, small["routed_plan_us_per_block"]
    )
    assert large["scan_check_us_per_block"] >= 3.0 * small["scan_check_us_per_block"]

    from repro.workloads.rule_scaling import (
        ScalingWorkload, build_scaling_rules, build_scaling_universe
    )
    from repro.workloads.generator import EventStreamGenerator

    universe = build_scaling_universe(1_500)
    workload = ScalingWorkload(build_scaling_rules(1_500, universe))
    stream = EventStreamGenerator(
        event_types=universe, seed=5, events_per_block=6
    ).blocks(12)
    for block in stream:
        workload.feed_block(block)
    signatures = [frozenset(o.event_type for o in block) for block in stream]

    def plan_all():
        for signature in signatures:
            workload.support.planner.plan(signature)

    benchmark(plan_all)


def test_x7_bulk_ingestion_not_slower():
    row = measure_ingestion(total_events=40_000, batch_size=1_024)
    # The full run shows >1x; keep head-room for noisy CI boxes.
    assert row["speedup"] >= 0.9, row


if __name__ == "__main__":
    main()
