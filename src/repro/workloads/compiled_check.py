"""Compiled exact-check workloads: the X11 benchmark (PR 6).

The X11 benchmark (``benchmarks/bench_x11_compiled_check.py`` and
``chimera-events bench x11``) measures the per-candidate cost of the exact
triggering check — the ``ts`` evaluation the Trigger Support runs for every
planned candidate — through the engine's shape kernels
(:mod:`repro.core.compile`) against the reference oracle
(:func:`repro.core.triggering.is_triggered`) called directly.

Three sections share one result dict:

* **kernel** — the X7 grid's steady state, per rule count: a sample of
  planned candidates is re-checked dry (memo-less, full-window — the exact
  work the closures lower) through the engine's bindings and through the
  oracle.  Per-candidate decisions and evaluation stats are asserted
  identical; the timing columns are the headline and carry the >= 5x
  acceptance bar.
* **process** — the X9 grid's check-heavy 4-worker configuration, end to
  end: single table, serial coordinator and process workers, all asserted to
  make identical triggering decisions, selections and Trigger Support stats;
  the same dry kernel measurement runs on this grid point's (much denser)
  steady state.
* **sweep** — the behavioral-invisibility grid: unsharded / serial /
  threads / processes x batch sizes 1-8, every run byte-identical
  (triggerings, selection order, stats) to the unsharded reference at the
  same batch size.  ``tests/core/test_compiled_equivalence.py`` pins the
  engine to the oracle down to the per-instant memo contents, whole
  scenarios included.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.analysis.reporting import render_table
from repro.config import EngineConfig
from repro.core.evaluation import EvaluationStats
from repro.core.triggering import is_triggered
from repro.events.event import EventOccurrence
from repro.workloads.generator import EventStreamGenerator
from repro.workloads.rule_scaling import (
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_rules,
    build_scaling_universe,
)
from repro.workloads.shard_scaling import build_shard_rules, build_shaped_blocks

__all__ = [
    "X11_KERNEL_RULE_SWEEP",
    "X11_SMOKE_KERNEL_RULE_SWEEP",
    "measure_check_kernel",
    "measure_compiled_process_scaling",
    "measure_compiled_sweep",
    "run_x11_sweeps",
    "render_x11",
]

#: Full / smoke rule grids for the kernel section (shared by
#: ``benchmarks/bench_x11_compiled_check.py`` and ``chimera-events bench x11``).
X11_KERNEL_RULE_SWEEP = [1_000, 10_000]
X11_SMOKE_KERNEL_RULE_SWEEP = [200]


def _decision_tuple(decision) -> tuple:
    """The comparable payload of a ``TriggeringDecision``."""
    return (
        decision.triggered,
        decision.instant,
        decision.ts_value,
        decision.window_size,
        decision.instants_sampled,
    )


def _run_to_steady_state(
    workload: ScalingWorkload,
    stream: Sequence[list[EventOccurrence]],
    warmup_blocks: int,
) -> WorkloadOutcome:
    """Warm a workload past every rule's first exhaustive check, then run it."""
    for block in stream[:warmup_blocks]:
        workload.feed_block(block)
    workload.outcome = WorkloadOutcome()  # drop warm-up timings
    return workload.run(list(stream[warmup_blocks:]))


def _measure_kernel(
    workload: ScalingWorkload,
    last_block: list[EventOccurrence],
    repetitions: int,
    sample: int,
) -> dict:
    """Dry per-candidate cost of the exact check on a frozen steady state.

    The candidates come from the (unsharded) workload's own planner, planned
    for the stream's final block — the population a real check visits.  Each
    candidate is evaluated **memo-less** over its full triggering window:
    that is the evaluation work itself, the part the closures lower, with the
    incremental-coverage bookkeeping (identical on both sides) out of the
    picture.  Before timing, every sampled candidate's decision and
    evaluation stats are asserted identical between the engine's binding and
    the oracle.
    """
    support = workload.support
    plan = support.planner.plan(
        frozenset(occurrence.event_type for occurrence in last_block)
    )
    candidates = plan.candidates[:sample]
    assert candidates, "steady state planned no candidates to measure"
    now = last_block[-1].timestamp
    event_base = workload.event_base
    mode = support.mode
    #: (expression, the engine's binding, window start) per candidate —
    #: resolved up front so the timed loops run nothing but the evaluators.
    items = [
        (
            state.rule.events,
            support.binder.bind(state.rule.events),
            state.triggering_window_start(0),
        )
        for state in candidates
    ]

    for expression, compiled, window_start in items:
        oracle_stats, compiled_stats = EvaluationStats(), EvaluationStats()
        reference = is_triggered(
            expression, event_base, window_start, now, mode, oracle_stats
        )
        decision = compiled.check(event_base, window_start, now, stats=compiled_stats)
        assert _decision_tuple(decision) == _decision_tuple(reference), (
            f"compiled kernel diverged for {expression!r}"
        )
        assert compiled_stats == oracle_stats, (
            f"compiled kernel stats diverged for {expression!r}"
        )

    stats = EvaluationStats()
    started = time.perf_counter()
    for _ in range(repetitions):
        for expression, _compiled, window_start in items:
            is_triggered(expression, event_base, window_start, now, mode, stats)
    interpreted_seconds = (time.perf_counter() - started) / (repetitions * len(items))

    stats = EvaluationStats()
    started = time.perf_counter()
    for _ in range(repetitions):
        for _expression, compiled, window_start in items:
            compiled.check(event_base, window_start, now, stats=stats)
    compiled_seconds = (time.perf_counter() - started) / (repetitions * len(items))

    return {
        "candidates_sampled": len(items),
        "interpreted_check_us_per_candidate": round(1e6 * interpreted_seconds, 1),
        "compiled_check_us_per_candidate": round(1e6 * compiled_seconds, 1),
        "check_speedup": round(interpreted_seconds / max(1e-9, compiled_seconds), 2),
    }


def _assert_outcomes_identical(
    reference: WorkloadOutcome, outcome: WorkloadOutcome, label: str
) -> None:
    assert outcome.triggerings == reference.triggerings, (
        f"{label}: triggering decisions diverged"
    )
    assert outcome.considerations == reference.considerations, (
        f"{label}: priority-order selections diverged"
    )
    assert outcome.stats == reference.stats, (
        f"{label}: Trigger Support stats diverged"
    )


def measure_check_kernel(
    rule_count: int,
    blocks: int = 24,
    warmup_blocks: int = 4,
    events_per_block: int = 6,
    seed: int = 7,
    repetitions: int = 20,
    sample: int = 64,
) -> dict:
    """Engine vs oracle exact checks at one X7-style grid point.

    One live run brings the rule pool to its steady state; the dry kernel
    measurement then isolates the per-candidate evaluation cost there,
    asserting the engine's decisions and stats against the oracle's.
    """
    universe = build_scaling_universe(rule_count)
    stream = EventStreamGenerator(
        event_types=universe, seed=seed + 1, events_per_block=events_per_block
    ).blocks(warmup_blocks + blocks)
    workload = ScalingWorkload(
        build_scaling_rules(rule_count, universe, seed=seed), EngineConfig.from_env()
    )
    try:
        outcome = _run_to_steady_state(workload, stream, warmup_blocks)
        kernel = _measure_kernel(workload, stream[-1], repetitions, sample)
    finally:
        workload.close()
    return {
        "rules": rule_count,
        "universe_types": len(universe),
        "blocks": outcome.blocks,
        **kernel,
        "check_us_per_block": round(outcome.check_us_per_block, 1),
    }


def measure_compiled_process_scaling(
    rule_count: int,
    workers: int = 4,
    blocks: int = 40,
    warmup_blocks: int = 4,
    events_per_block: int = 24,
    types_per_shape: tuple[int, int] = (8, 14),
    shapes: int = 24,
    seed: int = 7,
    repetitions: int = 6,
    sample: int = 48,
) -> dict:
    """The execution modes on the X9 check-heavy grid point.

    Three runs over the identical shaped stream: the single table, the serial
    coordinator and the process worker pool, asserted identical.  The process
    workers bind each rule once per shipped definition version, so the
    compiled win lands on the worker cores.  The dry kernel measurement runs
    on the single-table steady state — the same kernels the workers execute.
    """
    universe = build_scaling_universe(rule_count)
    stream = build_shaped_blocks(
        universe,
        warmup_blocks + blocks,
        events_per_block=events_per_block,
        shapes=shapes,
        types_per_shape=types_per_shape,
        seed=seed,
    )

    def run(shards: int, shard_mode: str | None):
        workload = ScalingWorkload(
            build_shard_rules(rule_count, universe, seed=seed + 53),
            EngineConfig.from_env(shards=shards, shard_mode=shard_mode),
        )
        return workload, _run_to_steady_state(workload, stream, warmup_blocks)

    single_workload, single_outcome = run(0, None)
    runs = {
        shard_mode: run(workers, shard_mode) for shard_mode in ("serial", "processes")
    }
    try:
        for shard_mode, (_, outcome) in runs.items():
            _assert_outcomes_identical(single_outcome, outcome, shard_mode)
        kernel = _measure_kernel(single_workload, stream[-1], repetitions, sample)
    finally:
        for workload, _ in (single_workload, single_outcome), *runs.values():
            workload.close()
    return {
        "rules": rule_count,
        "workers": workers,
        "universe_types": len(universe),
        "blocks": single_outcome.blocks,
        "routed_per_block": round(
            single_outcome.stats["rules_routed"] / max(1, single_outcome.blocks), 1
        ),
        **kernel,
        "check_us_per_block": {
            "single": round(single_outcome.check_us_per_block, 1),
            **{
                shard_mode: round(outcome.check_us_per_block, 1)
                for shard_mode, (_, outcome) in runs.items()
            },
        },
        "triggerings": sum(single_outcome.triggerings.values()),
    }


def measure_compiled_sweep(
    rule_count: int = 240,
    blocks: int = 16,
    events_per_block: int = 6,
    seed: int = 11,
    batch_sizes: Sequence[int] = tuple(range(1, 9)),
    workers: int = 4,
) -> dict:
    """The behavioral-invisibility grid: execution mode x batch size.

    For every batch size, the unsharded run is the reference; the three
    coordinator runs (serial / threads / processes) must reproduce its
    triggering counters, selection order and Trigger Support stats
    byte-identically.
    """
    universe = build_scaling_universe(rule_count)
    stream = EventStreamGenerator(
        event_types=universe, seed=seed + 1, events_per_block=events_per_block
    ).blocks(blocks)
    modes = ("serial", "threads", "processes")

    def run(shards: int, shard_mode: str | None, batch: int) -> dict:
        workload = ScalingWorkload(
            build_scaling_rules(rule_count, universe, seed=seed),
            EngineConfig.from_env(
                shards=shards, shard_mode=shard_mode, batch_blocks=batch
            ),
        )
        try:
            outcome = workload.run(stream)
        finally:
            workload.close()
        return {
            "triggerings": outcome.triggerings,
            "considerations": outcome.considerations,
            "stats": outcome.stats,
        }

    runs = 0
    for batch in batch_sizes:
        reference = run(0, None, batch)
        runs += 1
        for shard_mode in modes:
            result = run(workers, shard_mode, batch)
            runs += 1
            assert result == reference, (
                f"batch {batch}, {shard_mode}: diverged from reference"
            )
    return {
        "rules": rule_count,
        "blocks": blocks,
        "batch_sizes": list(batch_sizes),
        "modes": list(modes),
        "workers": workers,
        "runs": runs,
        "identical": True,
    }


def run_x11_sweeps(smoke: bool = False) -> dict:
    """The X11 grid: kernel sweep, process grid point, invisibility sweep."""
    if smoke:
        kernel_rows = [
            measure_check_kernel(
                rules, blocks=12, warmup_blocks=2, repetitions=5, sample=32
            )
            for rules in X11_SMOKE_KERNEL_RULE_SWEEP
        ]
        process_row = measure_compiled_process_scaling(
            400,
            workers=2,
            blocks=10,
            warmup_blocks=2,
            events_per_block=12,
            types_per_shape=(4, 8),
            repetitions=3,
            sample=24,
        )
        sweep = measure_compiled_sweep(
            rule_count=120, blocks=8, batch_sizes=(1, 2, 4, 8), workers=2
        )
    else:
        kernel_rows = [measure_check_kernel(rules) for rules in X11_KERNEL_RULE_SWEEP]
        process_row = measure_compiled_process_scaling(10_000, workers=4)
        sweep = measure_compiled_sweep()
    return {
        "benchmark": "x11_compiled_check",
        "description": (
            "Per-candidate exact triggering check, the engine's shape "
            "kernels (per-rule handle bindings, unrolled operator dispatch) "
            "vs the recursive reference evaluator called directly.  Kernel "
            "figures are dry, memo-less, per planned candidate on the frozen "
            "steady state, every candidate's decision and stats asserted "
            "equal to the oracle's; the per-block figures are the live "
            "engine's.  The process and sweep sections assert identical "
            "triggering decisions, selections and stats across the full "
            "mode x batch-size grid (tests/core/test_compiled_equivalence.py "
            "pins engine == oracle per instant and per scenario)."
        ),
        "headline": kernel_rows[-1],
        "kernel": kernel_rows,
        "process": process_row,
        "sweep": sweep,
        "equivalence": {
            "checked": True,
            "note": (
                "each kernel sample asserts engine == oracle decisions and "
                "evaluation stats; the sweep section covers "
                "unsharded/serial/threads/processes at batch sizes "
                + "/".join(str(batch) for batch in sweep["batch_sizes"])
            ),
        },
    }


def render_x11(results: dict) -> str:
    """Human-readable tables for an X11 result dict."""
    kernel_rows = [
        [
            row["rules"],
            row["universe_types"],
            row["candidates_sampled"],
            row["interpreted_check_us_per_candidate"],
            row["compiled_check_us_per_candidate"],
            f"{row['check_speedup']}x",
            row["check_us_per_block"],
        ]
        for row in results["kernel"]
    ]
    process = results["process"]
    check_us = process["check_us_per_block"]
    process_rows = [
        [
            process["rules"],
            process["workers"],
            f"{process['check_speedup']}x",
            check_us["single"],
            check_us["serial"],
            check_us["processes"],
        ]
    ]
    sweep = results["sweep"]
    sweep_line = (
        f"sweep: {sweep['runs']} runs byte-identical — modes "
        f"{'/'.join(sweep['modes'])} (+unsharded), batch sizes "
        f"{'/'.join(str(batch) for batch in sweep['batch_sizes'])}, "
        f"{sweep['rules']} rules x {sweep['blocks']} blocks"
    )
    return "\n\n".join(
        [
            render_table(
                [
                    "rules",
                    "types",
                    "cands",
                    "oracle µs/cand",
                    "engine µs/cand",
                    "speedup",
                    "engine chk µs/blk",
                ],
                kernel_rows,
                title="X11 — exact check, engine kernels vs the oracle (X7 grid)",
            ),
            render_table(
                [
                    "rules",
                    "workers",
                    "kernel speedup",
                    "single µs/blk",
                    "serial µs/blk",
                    "processes µs/blk",
                ],
                process_rows,
                title="X11 — the execution modes on the X9 check-heavy grid",
            ),
            sweep_line,
        ]
    )
