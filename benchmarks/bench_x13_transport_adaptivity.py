"""X13 — adaptive dispatch sizing.

X10 amortized the process shard mode's round trips with a static
``batch_blocks`` bound; the ``DispatchController`` closes the loop on the
trip size itself, sizing each stream drain from the live queue-depth /
dispatch-latency signals.  This bench shows:

* **the controller adapts** — a bursty stream through static-1 / static-8 /
  adaptive ingestor arms: per-block trips while idle (latency within 10% of
  static-1), widened trips under backlog (throughput within 10% of
  static-8), and a shrink back to 1 when the burst drains (structural,
  asserted);
* **behavioral invisibility** — every arm is pinned against an unsharded
  replay of its realized trip partition.

(Until PR 14 this bench also compared a pickled-snapshot and a shared-memory
delta encoding; both are gone — ``BENCH_PR9.json`` keeps their last figures
and X14 prices the surviving transport.)

Run as a script to execute the full sweep; ``--out`` writes the
machine-readable results (``BENCH_PR9.json`` is the PR-9 record and is no
longer this script's default target)::

    PYTHONPATH=src python benchmarks/bench_x13_transport_adaptivity.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI).  The pytest entry point runs
a reduced configuration and asserts the structural acceptance criteria.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.workloads.transport_adaptivity import (
    measure_bursty_adaptivity,
    render_x13,
    run_x13_sweeps,
)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument("--out", default=None, help="write the JSON results here")
    args = parser.parse_args(argv)
    results = run_x13_sweeps(smoke=args.smoke)
    print(render_x13(results))
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    print(
        f"headline: adaptive idle latency ratio "
        f"{headline['idle_latency_ratio']} vs static-1, backlog throughput "
        f"ratio {headline['backlog_throughput_ratio']} vs static-8 "
        f"(widened {headline['adaptive_widened']}x, settled back to bound "
        f"{headline['adaptive_final_bound']})"
    )


# ---------------------------------------------------------------------------
# pytest entry point (reduced configuration)
# ---------------------------------------------------------------------------


def test_x13_adaptive_controller_widens_and_shrinks():
    result = measure_bursty_adaptivity(
        rule_count=200,
        shards=2,
        idle_blocks=6,
        backlog_blocks=24,
        cooldown_blocks=6,
        events_per_block=8,
    )
    arms = result["arms"]
    adaptive = arms["adaptive"]
    # Structural: the controller widened under backlog, shrank when it
    # drained, and finished back at per-block trips.
    assert adaptive["widened"] >= 1, adaptive
    assert adaptive["shrunk"] >= 1, adaptive
    assert adaptive["final_bound"] == 1, adaptive
    # Idle phases never coalesce (latency mode)...
    assert adaptive["idle_trips"] == result["idle_blocks"], adaptive
    # ...while the backlog drains in fewer trips than blocks (amortization).
    assert adaptive["backlog_trips"] < result["backlog_blocks"], adaptive
    assert adaptive["max_blocks_per_trip"] > 1, adaptive
    # The static arms never touch the controller.
    assert arms["static_1"]["widened"] == arms["static_8"]["widened"] == 0, arms


if __name__ == "__main__":
    main()
