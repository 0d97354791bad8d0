"""X14 — the delta transport: one encoding, ``pipe`` vs ``tcp`` placement.

The process shard pool ships Event Base deltas as slices of one row log
(``repro.cluster.transport``); a transport only decides where the workers
live — forked on pipes, or behind an asyncio coordinator endpoint on
sockets (localhost workers spawned by the pool, or remote workers started
via ``chimera-events worker``).  This bench shows:

* **the socket placement is priced** — per-block delta-encode and
  end-to-end check cost, pipe vs tcp, on a check-heavy stream (the encode
  work is the same code on both; tcp adds a localhost socket round trip per
  consulted worker per trip and must stay within a small factor of pipe);
* **the log is encoded once** — every EB position is encoded exactly once
  however many workers slice the log; payload-free rows all ride inline,
  payload-bearing rows all take the per-row fallback;
* **the trip protocol holds on both** — every rule definition shipped
  exactly once per ``definition_order`` version, exactly one coordinator
  message per consulted worker per trip, zero reconnects in an undisturbed
  run;
* **reconnects are absorbed, not absorbed-into-wrongness** — a tcp worker
  bounced mid-run re-syncs defs + a fresh mirror and the run's triggering
  counters and consideration sequences stay byte-identical to an
  uninterrupted run;
* **behavioral invisibility** — every grid point asserts identical
  triggering decisions, selections and stats across the single table, the
  serial coordinator and both placements.

Run as a script to execute the full sweep and write machine-readable
results to ``BENCH_PR14.json`` at the repo root (``BENCH_PR10.json`` keeps
the last three-encoding figures)::

    PYTHONPATH=src python benchmarks/bench_x14_socket_transport.py [--smoke]

``--smoke`` runs a tiny grid (seconds, for CI) and writes nothing unless
``--out`` is given.  The pytest entry points run reduced configurations and
assert the structural acceptance criteria.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.workloads.socket_transport import (
    measure_reconnect_resync,
    measure_socket_transport,
    render_x14,
    run_x14_sweeps,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_PR14.json"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny grid for CI")
    parser.add_argument(
        "--out",
        default=None,
        help="results file (default: BENCH_PR14.json; smoke writes nowhere)",
    )
    args = parser.parse_args(argv)
    results = run_x14_sweeps(smoke=args.smoke)
    print(render_x14(results))
    out = Path(args.out) if args.out else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {out}")
    headline = results["headline"]
    print(
        f"headline: tcp check cost {headline['tcp_vs_pipe_check']}x of pipe; "
        f"every EB position encoded once: {headline['encoded_once']}; defs "
        f"shipped once per version on both placements: "
        f"{headline['defs_shipped_once']}; reconnect re-shipped "
        f"{headline['reconnect_resync_defs']} defs with byte-identical outcomes"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced configuration)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("payloads", [False, True])
def test_x14_structural_trip_facts_per_transport(payloads):
    # measure_socket_transport asserts triggering + selection + stats
    # equivalence itself across the single table, serial, and both
    # placements.
    result = measure_socket_transport(
        300,
        workers=2,
        blocks=12,
        warmup_blocks=2,
        events_per_block=8,
        shapes=8,
        payloads=payloads,
        reps=2,
    )
    assert set(result["transports"]) == {"pipe", "tcp"}
    for transport, row in result["transports"].items():
        # Definitions ship exactly once per definition_order version: with a
        # stable table that is each rule once, to its single home worker.
        assert row["defs_shipped"] == result["rules"], (transport, row)
        # One coordinator message per consulted worker per trip.
        assert row["worker_round_trips"] == row["parallel_batches"], (transport, row)
        assert row["reconnects"] == 0, (transport, row)
        assert row["deltas_framed"] > 0, (transport, row)
        # Every EB position encoded once, in the form its payload dictates.
        fallback, inline = row["frame_rows_fallback"], row["frame_rows_inline"]
        assert (fallback, inline) == (
            (row["events"], 0) if payloads else (0, row["events"])
        ), (transport, row)


def test_x14_reconnect_resyncs_and_outcomes_hold():
    result = measure_reconnect_resync(
        rule_count=150, workers=2, blocks=12, events_per_block=6
    )
    assert result["reconnects_uninterrupted"] == 0, result
    assert result["reconnects"] == 1, result
    # The bounced worker's definitions re-ship at their current version.
    assert result["resync_defs"] > 0, result
    assert result["equivalent"] is True, result


if __name__ == "__main__":
    main()
