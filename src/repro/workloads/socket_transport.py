"""Transport workloads: the X14 benchmark, ``pipe`` vs ``tcp``.

The process pool ships Event Base deltas in one encoding — the row log of
:mod:`repro.cluster.transport` — over one of two worker placements: forked
workers on pipes, or socket workers behind :mod:`repro.cluster.net`.  The X14
benchmark (``benchmarks/bench_x14_socket_transport.py`` and ``chimera-events
bench x14``) prices the placements against each other and pins what neither
may change:

* **transport grid** — a check-heavy stream through the process coordinator
  once per placement, payload-free and payload-bearing: the per-block
  delta-encode and end-to-end check cost, plus the *structural* facts —
  every EB position encoded exactly once however many workers slice the log
  (``frame_rows_inline + frame_rows_fallback == events``), payload-free rows
  all inline and payload-bearing rows all on the per-row fallback, every
  rule definition shipped exactly once per ``definition_order`` version
  (``defs_shipped == rules``), exactly one coordinator message per consulted
  worker per trip (``worker_round_trips == parallel_batches``);
* **reconnect** — a tcp worker bounced between trips: the pool must absorb
  exactly one reconnect, re-ship the bounced worker's definitions, and end
  the run with triggering counters and consideration sequences
  byte-identical to an uninterrupted run (worker memos are
  decision-invariant by design, so a fresh mirror changes no outcome).

Every grid point asserts identical triggering decisions, priority-order
selections and Trigger Support stats across the single table, the serial
coordinator and both placements — the differential harness in
``tests/cluster/test_mode_equivalence.py`` pins the same properties
per-rule and per-counter.
"""

from __future__ import annotations

import gc
import os

from repro.analysis.reporting import render_table
from repro.config import TRANSPORTS, EngineConfig
from repro.events.event import EventOccurrence
from repro.workloads.rule_scaling import (
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_universe,
)
from repro.workloads.shard_scaling import build_shard_rules, build_shaped_blocks

__all__ = [
    "measure_socket_transport",
    "measure_reconnect_resync",
    "run_x14_sweeps",
    "render_x14",
]


def _with_payloads(
    blocks: list[list[EventOccurrence]],
) -> list[list[EventOccurrence]]:
    """The same stream with a small payload on every occurrence.

    Payload-bearing rows cannot use the fixed-width encoding, so this arm
    drives the row log's per-row fallback end to end.
    """
    return [
        [
            EventOccurrence(
                eid=occurrence.eid,
                event_type=occurrence.event_type,
                oid=occurrence.oid,
                timestamp=occurrence.timestamp,
                payload={"seq": occurrence.eid},
            )
            for occurrence in block
        ]
        for block in blocks
    ]


def measure_socket_transport(
    rule_count: int,
    workers: int = 4,
    blocks: int = 48,
    warmup_blocks: int = 4,
    events_per_block: int = 12,
    types_per_shape: tuple[int, int] = (4, 8),
    shapes: int = 16,
    seed: int = 11,
    batch: int = 4,
    payloads: bool = False,
    reps: int = 3,
    check_equivalence: bool = True,
) -> dict:
    """One grid point: the same stream through both placements.

    The identical rule pool and stream run through the single-table
    planner, the serial coordinator, and the process coordinator once per
    placement.  The encode cost of one ``blocks``-block pass totals well
    under a millisecond, so a single scheduler preemption on a shared host
    can multiply it: the measured stream continues for ``reps`` passes of
    ``blocks`` fresh blocks each and the per-block encode figures take the
    **minimum per-pass cost** (warm-up, which ships every rule definition
    once, excluded).  The structural counters — ``defs_shipped``,
    ``worker_round_trips`` vs the coordinator's ``parallel_batches``, the
    row counts and ``reconnects`` — cover the whole run including warm-up,
    because the facts they pin are exact at any length.
    """
    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 53)
    stream = build_shaped_blocks(
        universe,
        warmup_blocks + blocks * reps,
        events_per_block=events_per_block,
        shapes=shapes,
        types_per_shape=types_per_shape,
        seed=seed,
    )
    if payloads:
        stream = _with_payloads(stream)
    measured = stream[warmup_blocks:]

    def run(shards: int, shard_mode: str | None, transport: str | None):
        workload = ScalingWorkload(
            rules,
            EngineConfig.from_env(
                shards=shards,
                shard_mode=shard_mode,
                batch_blocks=batch,
                transport=transport,
                adaptive_batch=False,
            ),
        )
        for start in range(0, warmup_blocks, batch):
            workload.feed_trip(stream[start : min(start + batch, warmup_blocks)])
        workload.outcome = WorkloadOutcome()  # drop warm-up timings
        pool = getattr(workload.support, "process_pool", None)
        # Collect the previous arm's garbage now: a deferred gen-2 pass over
        # a freed engine landing inside the measured phase would dwarf the
        # µs-scale encode costs this grid measures.
        gc.collect()
        pass_costs: list[dict[str, float]] = []
        outcome = workload.outcome
        for rep in range(reps):
            chunk = measured[rep * blocks : (rep + 1) * blocks]
            before = pool.transport_stats() if pool is not None else {}
            outcome = workload.run(chunk)
            if pool is not None:
                after = pool.transport_stats()
                pass_costs.append(
                    {
                        "delta_encode_ms": after["delta_encode_ms"]
                        - before["delta_encode_ms"],
                        "encode_ms": after["encode_ms"] - before["encode_ms"],
                    }
                )
        if pool is not None:
            outcome.transport = dict(pool.transport_stats())
            outcome.transport["parallel_batches"] = (
                workload.support.cluster_stats.parallel_batches
            )
            outcome.transport["events"] = len(workload.event_base.occurrences)
            outcome.transport["min_pass_delta_encode_ms"] = round(
                min(cost["delta_encode_ms"] for cost in pass_costs), 3
            )
            outcome.transport["min_pass_encode_ms"] = round(
                min(cost["encode_ms"] for cost in pass_costs), 3
            )
        return workload, outcome

    single_workload, single_outcome = run(0, None, None)
    serial_workload, serial_outcome = run(workers, "serial", None)
    process_runs = {
        transport: run(workers, "processes", transport) for transport in TRANSPORTS
    }
    if check_equivalence:
        compared = {"serial": serial_outcome} | {
            f"processes/{transport}": outcome
            for transport, (_, outcome) in process_runs.items()
        }
        for label, outcome in compared.items():
            assert outcome.triggerings == single_outcome.triggerings, (
                f"{label} made different triggering decisions"
            )
            assert outcome.considerations == single_outcome.considerations, (
                f"{label} selected rules in a different order"
            )
            assert outcome.stats == single_outcome.stats, (
                f"{label} diverged from the single-table stats"
            )

    rows = {}
    for transport, (_, outcome) in process_runs.items():
        stats = getattr(outcome, "transport", {})
        rows[transport] = {
            "delta_encode_us_per_block": round(
                1e3 * stats.get("min_pass_delta_encode_ms", 0.0) / max(1, blocks), 2
            ),
            "encode_us_per_block": round(
                1e3 * stats.get("min_pass_encode_ms", 0.0) / max(1, blocks), 1
            ),
            "bytes_shipped": int(stats.get("bytes_shipped", 0)),
            "events": int(stats.get("events", 0)),
            "dispatches": int(stats.get("dispatches", 0)),
            "worker_round_trips": int(stats.get("worker_round_trips", 0)),
            "parallel_batches": int(stats.get("parallel_batches", 0)),
            "defs_shipped": int(stats.get("defs_shipped", 0)),
            "reconnects": int(stats.get("reconnects", 0)),
            "deltas_framed": int(stats.get("deltas_framed", 0)),
            "frame_rows_inline": int(stats.get("frame_rows_inline", 0)),
            "frame_rows_fallback": int(stats.get("frame_rows_fallback", 0)),
            "check_us_per_block": round(outcome.check_us_per_block, 1),
        }
    for workload in (
        single_workload,
        serial_workload,
        *(workload for workload, _ in process_runs.values()),
    ):
        workload.close()
    return {
        "rules": rule_count,
        "workers": workers,
        "blocks": single_outcome.blocks,
        "blocks_per_pass": blocks,
        "reps": reps,
        "events_per_block": events_per_block,
        "batch_blocks": batch,
        "payloads": payloads,
        "transports": rows,
        "check_us_per_block_single": round(single_outcome.check_us_per_block, 1),
        "tcp_vs_pipe_check": round(
            rows["tcp"]["check_us_per_block"]
            / max(1e-9, rows["pipe"]["check_us_per_block"]),
            2,
        ),
        "triggerings": sum(single_outcome.triggerings.values()),
    }


def measure_reconnect_resync(
    rule_count: int = 300,
    workers: int = 2,
    blocks: int = 24,
    events_per_block: int = 8,
    shapes: int = 8,
    seed: int = 3,
    batch: int = 3,
) -> dict:
    """Bounce one tcp worker mid-run; the outcomes must not move.

    Two identical tcp runs over the same stream; halfway through, the
    second run kills and respawns the worker holding the most shipped
    definitions.  The reconnected worker re-syncs its definitions and a
    fresh mirror from position 0, so the only admissible differences are
    the re-shipped definition count and the reconnect counter — triggering
    counters and consideration sequences must be byte-identical (Trigger
    Support stats are *not* compared: a fresh memo re-samples instants,
    which is the one memo-dependent observable).
    """
    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 7)
    stream = build_shaped_blocks(
        universe, blocks, events_per_block=events_per_block, shapes=shapes, seed=seed
    )
    half = len(stream) // 2

    def run(bounce: bool):
        workload = ScalingWorkload(
            rules,
            EngineConfig.from_env(
                shards=workers,
                shard_mode="processes",
                batch_blocks=batch,
                transport="tcp",
                adaptive_batch=False,
            ),
        )
        try:
            workload.run(stream[:half])
            pool = workload.support.process_pool
            if bounce:
                loaded = max(pool._workers, key=lambda handle: len(handle.shipped_defs))
                pool._transport.respawn_worker(loaded.worker_id)
            outcome = workload.run(stream[half:])
            return {
                "triggerings": outcome.triggerings,
                "considerations": list(outcome.considerations),
                "reconnects": pool.reconnects,
                "defs_shipped": pool.defs_shipped,
            }
        finally:
            workload.close()

    uninterrupted = run(bounce=False)
    bounced = run(bounce=True)
    equivalent = (
        bounced["triggerings"] == uninterrupted["triggerings"]
        and bounced["considerations"] == uninterrupted["considerations"]
    )
    return {
        "rules": rule_count,
        "workers": workers,
        "blocks": blocks,
        "batch_blocks": batch,
        "reconnects": bounced["reconnects"],
        "reconnects_uninterrupted": uninterrupted["reconnects"],
        "defs_shipped": bounced["defs_shipped"],
        "defs_shipped_uninterrupted": uninterrupted["defs_shipped"],
        "resync_defs": bounced["defs_shipped"] - uninterrupted["defs_shipped"],
        "equivalent": equivalent,
    }


def run_x14_sweeps(smoke: bool = False) -> dict:
    """The X14 grid: both placements, both row forms, plus the reconnect pin."""
    if smoke:
        grid = [
            measure_socket_transport(
                600,
                workers=2,
                blocks=18,
                warmup_blocks=2,
                events_per_block=8,
                shapes=8,
                payloads=payloads,
                reps=2,
            )
            for payloads in (False, True)
        ]
        reconnect = measure_reconnect_resync(
            rule_count=200, workers=2, blocks=18, events_per_block=6
        )
    else:
        grid = [
            measure_socket_transport(6_000, payloads=payloads)
            for payloads in (False, True)
        ]
        reconnect = measure_reconnect_resync()
    payload_free = grid[0]
    return {
        "benchmark": "x14_socket_transport",
        "description": (
            "One delta encoding, two worker placements.  The grid runs a "
            "check-heavy stream through the process coordinator once per "
            "placement (forked pipe workers / localhost tcp workers), "
            "payload-free and payload-bearing: per-block delta-encode and "
            "check cost, plus the structural facts — every EB position "
            "encoded once, definitions shipped once per version, one "
            "coordinator message per consulted worker per trip.  The "
            "reconnect section bounces a tcp worker mid-run: one absorbed "
            "reconnect, definitions re-shipped, outcomes byte-identical to "
            "the uninterrupted run."
        ),
        "host_cpus": os.cpu_count() or 1,
        "headline": {
            "tcp_vs_pipe_check": payload_free["tcp_vs_pipe_check"],
            "encoded_once": all(
                row["frame_rows_inline"] + row["frame_rows_fallback"] == row["events"]
                for point in grid
                for row in point["transports"].values()
            ),
            "defs_shipped_once": all(
                row["defs_shipped"] == point["rules"]
                for point in grid
                for row in point["transports"].values()
            ),
            "reconnect_resync_defs": reconnect["resync_defs"],
        },
        "transport": grid,
        "reconnect": reconnect,
        "equivalence": {
            "checked": True,
            "note": (
                "each grid point asserts identical triggering decisions, "
                "priority-order selections and Trigger Support stats across "
                "the single table, the serial coordinator and both worker "
                "placements; the reconnect section asserts identical "
                "triggering counters and consideration sequences against an "
                "uninterrupted tcp run"
            ),
        },
    }


def render_x14(results: dict) -> str:
    """Human-readable tables for an X14 result dict."""
    sections = []
    for grid in results["transport"]:
        rows = [
            [
                transport,
                stats["delta_encode_us_per_block"],
                stats["encode_us_per_block"],
                stats["bytes_shipped"],
                stats["defs_shipped"],
                stats["worker_round_trips"],
                stats["parallel_batches"],
                stats["deltas_framed"],
                stats["frame_rows_inline"],
                stats["frame_rows_fallback"],
                stats["check_us_per_block"],
            ]
            for transport, stats in grid["transports"].items()
        ]
        flavor = "payload-bearing" if grid["payloads"] else "payload-free"
        sections.append(
            render_table(
                [
                    "transport",
                    "delta enc µs/blk",
                    "encode µs/blk",
                    "bytes shipped",
                    "defs",
                    "round trips",
                    "batches",
                    "deltas",
                    "rows inline",
                    "rows fallback",
                    "process chk µs",
                ],
                rows,
                title=(
                    f"X14 — pipe vs tcp, {grid['rules']} rules, "
                    f"{grid['workers']} workers, {flavor} "
                    f"(tcp check {grid['tcp_vs_pipe_check']}x of pipe; single "
                    f"table {grid['check_us_per_block_single']} µs/blk; "
                    f"host has {results.get('host_cpus', '?')} CPU(s))"
                ),
            )
        )
    reconnect = results["reconnect"]
    sections.append(
        render_table(
            ["fact", "value"],
            [
                ["reconnects absorbed", reconnect["reconnects"]],
                ["defs re-shipped on re-sync", reconnect["resync_defs"]],
                ["outcomes identical", reconnect["equivalent"]],
            ],
            title=(
                f"X14 — tcp reconnect, {reconnect['rules']} rules, "
                f"{reconnect['workers']} workers, worker bounced mid-run"
            ),
        )
    )
    return "\n\n".join(sections)
