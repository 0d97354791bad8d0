#!/usr/bin/env python3
"""End-to-end benchmark: events in -> rule considerations out.

One closed-loop client drives the engine through its public surface only —
``ChimeraDatabase(...)``, ``define_class`` / ``define_rule``,
``db.engine.run_stream_block``, ``db.transaction()``, ``db.considerations``,
``db.trigger_statistics()``, ``db.rule_table.states()``, ``db.close()`` — with
the engine's default settings, over inputs made by :mod:`e2e_gen` from a seed.

Three ways to run it (see README.md for the metrics and the workloads):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one workload,
  the last line of standard output is one JSON object (``BENCHMARK.json``'s
  contract): the end-to-end metrics with ``--trace 0``, the per-layer metrics
  of a traced pass with ``--trace 1``;
* ``run.py [--reps N] [--trace] [--smoke] [--out FILE]`` — all workloads, a
  result file and a table per workload; ``--check-repeat`` does it twice and
  compares, ``--write-expected`` pins the reference digests;
* ``run.py compare A.json B.json`` — two result files side by side.

Every pass runs in a fresh subprocess (``--child``); a run's length is a fixed
*count* of operations worked out from ``--seconds``, never a wall-clock budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
CONTRACT = ROOT / "BENCHMARK.json"

#: Fresh-subprocess passes per measurement.  A metric is computed from the
#: op-wise median latency across them, so a pass (or a stretch of one) that
#: shared the host with a noisy neighbour does not move it; set-up time and
#: peak memory are the median over the passes.
PASSES = 3
#: Smoke mode: a fifth of the rules and classes, this many ops, one pass.
SMOKE_OPS = 60
SMOKE_SCALE = 0.2
#: A stream is not a transaction, so the engine's per-transaction budget of
#: rule executions (a non-termination guard, not a tuning knob) would end a
#: long run; lift it.
NO_EXECUTION_BUDGET = 2**62


# ---------------------------------------------------------------------------
# Child: one pass in a fresh process
# ---------------------------------------------------------------------------


def _classify_unfilled_rule():
    """``classifyUnfilled`` of examples/order_workflow.py (Python action)."""
    from repro.core import parse_expression
    from repro.rules import (
        Action,
        CallableStatement,
        Condition,
        ECCoupling,
        OccurredFormula,
        Rule,
    )

    def specialize_empty_orders(binding, operations):
        oid = binding["O"]
        obj = operations.store.get(oid)
        if obj.class_name == "order" and not obj.get("amount"):
            return operations.specialize(oid, "notFilledOrder").occurrences
        return []

    created = parse_expression("create(order)")
    return Rule(
        name="classifyUnfilled",
        events=created,
        condition=Condition((OccurredFormula(created, "O"),)),
        action=Action(
            (CallableStatement(specialize_empty_orders, "specialize empty orders"),)
        ),
        coupling=ECCoupling.DEFERRED,
        priority=0,
    )


def _transaction_runner(db, population):
    """Seed the object population; return ``steps -> events stored``."""
    slots: dict[int, object] = {}
    with db.transaction() as tx:
        for slot, (class_name, values) in enumerate(population):
            slots[slot] = tx.create(class_name, values).oid

    def run_transaction(steps) -> int:
        with db.transaction() as tx:
            for step in steps:
                kind = step[0]
                if kind == "modify":
                    tx.modify(slots[step[1]], step[2], step[3])
                elif kind == "create":
                    slots[step[1]] = tx.create(step[2], step[3]).oid
                else:
                    tx.delete(slots.pop(step[1]))
        return len(db.event_base)

    return run_transaction


def _stream_runner(db):
    run_stream_block = db.engine.run_stream_block

    def run_block(block) -> int:
        run_stream_block(block)
        return len(block)

    return run_block


def _counters(db) -> dict[str, float]:
    """The counts taken at the timed phase's boundaries."""
    counts = dict(db.trigger_statistics())
    counts["considerations"] = len(db.considerations)
    pool = getattr(db.engine.trigger_support, "process_pool", None)
    if pool is not None:
        wire = pool.transport_stats()
        counts["wire_bytes"] = wire["bytes_shipped"] + wire["bytes_received"]
    return counts


def child_main(spec: dict) -> int:
    """Generate, set up, warm up, time ``ops`` operations, digest; print JSON."""
    import resource

    import e2e_gen
    from repro import ChimeraDatabase

    gen_started = time.monotonic()
    inputs = e2e_gen.generate(
        spec["workload"], spec["seed"], spec["ops"], spec["scale"]
    )
    gen_s = time.monotonic() - gen_started
    workload = e2e_gen.WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        from e2e_trace import Tracer

        tracer = Tracer()
        tracer.install()

    db = ChimeraDatabase(max_rule_executions=NO_EXECUTION_BUDGET, **workload.database)
    latencies: list[float | None] = []
    events = 0
    failed = 0
    try:
        for name, attributes, superclass in inputs.classes:
            db.define_class(name, attributes, superclass)
        for text in inputs.rule_texts:
            db.define_rule(text)
        if workload.kind == "tx":
            db.define_rule(_classify_unfilled_rule())
            run_op = _transaction_runner(db, inputs.population)
        else:
            run_op = _stream_runner(db)
        for op in inputs.warmup:
            run_op(op)
        before = _counters(db)
        # Process start -> first timed op, without input generation.
        setup_s = time.monotonic() - spec["spawned_at"] - gen_s

        clock = time.perf_counter
        for index, op in enumerate(inputs.timed):
            try:
                if tracer is None:
                    started = clock()
                    stored = run_op(op)
                    latency = clock() - started
                else:
                    latency, stored = tracer.run_op(index, lambda: run_op(op))
            except Exception:
                failed += 1
                latencies.append(None)
                if failed <= 3:
                    traceback.print_exc()
                continue
            latencies.append(latency)
            events += stored
        after = _counters(db)
        records = [
            (r.rule_name, r.instant, r.bindings, r.executed, r.phase)
            for r in db.considerations
        ]
        triggered = {
            state.rule.name: state.times_triggered for state in db.rule_table.states()
        }
    finally:
        db.close()

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "ops": len(inputs.timed),
        "failed_ops": failed,
        "events": events,
        "latencies": latencies,
        "setup_s": setup_s,
        "gen_s": gen_s,
        "peak_rss_mb": usage / 1024.0,
        "digest": e2e_gen.digest(records, triggered),
        "oracle_digest": (
            e2e_gen.digest(*e2e_gen.stream_oracle(inputs))
            if workload.kind == "stream"
            else None
        ),
        "counts": {key: after[key] - before.get(key, 0) for key in after},
        "facts": inputs.facts,
    }
    if tracer is not None:
        from e2e_trace import layer_totals

        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{spec['workload']}.jsonl")
        result["layers"] = layer_totals(tracer.spans)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: passes, verification, metrics
# ---------------------------------------------------------------------------


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text(encoding="utf-8"))


def ops_for(workload: str, seconds: float) -> int:
    """Timed ops per pass: the passes of one measurement share ``seconds``."""
    import e2e_gen

    rate = e2e_gen.WORKLOADS[workload].ops_per_second
    return max(SMOKE_OPS, round(rate * seconds / PASSES))


def run_pass(workload: str, seed: int, ops: int, scale: float, trace: bool) -> dict:
    """One pass in a fresh subprocess; never raises, failures are in the dict."""
    import e2e_gen

    # Hard limit: five times the pass's nominal length plus set-up allowance;
    # a pass over it counts all its ops as failed.
    timeout_s = 30 + 5 * ops / e2e_gen.WORKLOADS[workload].ops_per_second
    # Engine defaults only: no CHIMERA_* knob leaks in from the caller (the
    # test suite exports some).  A fixed hash seed makes set and dict order,
    # and with it allocation and GC timing, the same in every pass.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHIMERA_")}
    env["PYTHONHASHSEED"] = "0"
    spec = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "scale": scale,
        "trace": trace,
        "spawned_at": time.monotonic(),
    }
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        # The session holds the pass and its shard workers.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"timeout after {timeout_s:.0f} s"}
    if process.returncode != 0:
        return {"error": f"pass exited with code {process.returncode}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "pass printed no result"}


def expected_key(workload: str, seed: int, ops: int, scale: float) -> str:
    return f"{workload}|seed={seed}|ops={ops}|scale={scale}"


def load_expected() -> dict[str, str]:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def timing_metrics(latencies: list[float], events: int) -> dict[str, float]:
    """Throughput and latency percentiles of one series of op latencies."""
    return {
        "events_per_s": events / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p99_ms": 1e3 * percentile(latencies, 0.99),
    }


def succeeded(run: dict) -> list[float]:
    """The latencies of a pass's ops that did not raise."""
    return [latency for latency in run["latencies"] if latency is not None]


def check_pass(run: dict, reference: str | None) -> str | None:
    """Why this pass fails all its ops, or ``None`` when its outputs are right."""
    if "error" in run:
        return run["error"]
    for label, digest in (("reference", reference), ("oracle", run["oracle_digest"])):
        if digest is not None and run["digest"] != digest:
            return f"digest differs from the {label}"
    return None


def measure(
    workload: str,
    seed: int,
    ops: int,
    scale: float = 1.0,
    passes: int = PASSES,
    expected: dict[str, str] | None = None,
) -> dict:
    """Untraced passes of one workload -> verified end-to-end metrics.

    A pass that times out, crashes or produces a digest other than the
    reference fails *all* its ops; an op that raises fails alone.  The
    reference is the pinned digest of ``expected.json`` where one exists for
    these inputs, and always the generator's oracle for stream workloads;
    transactions on an unpinned seed get an extra untimed reference pass.
    """
    import e2e_gen

    expected = load_expected() if expected is None else expected
    reference = expected.get(expected_key(workload, seed, ops, scale))
    runs = [run_pass(workload, seed, ops, scale, trace=False) for _ in range(passes)]
    if reference is None and e2e_gen.WORKLOADS[workload].kind == "tx":
        reference = run_pass(workload, seed, ops, scale, trace=False).get("digest", "")
    failed_ops = 0
    good: list[dict] = []
    problems: list[str] = []
    for number, run in enumerate(runs):
        problem = check_pass(run, reference)
        if problem is None:
            failed_ops += run["failed_ops"]
            good.append(run)
        else:
            failed_ops += ops
            problems.append(f"pass {number}: {problem}")
    result: dict = {
        "ops": ops * passes,
        "failed_ops": failed_ops,
        "seed": seed,
        "problems": problems,
        "metrics": {},
        "info": {},
    }
    if not good:
        return result
    # Op-wise median across the passes, then the metrics over those.
    per_op = [
        statistics.median(samples)
        for samples in (
            [x for x in (run["latencies"][index] for run in good) if x is not None]
            for index in range(ops)
        )
        if samples
    ]
    first = good[0]
    values = timing_metrics(per_op, first["events"])
    per_pass = [timing_metrics(succeeded(run), run["events"]) for run in good]
    for name in ("setup_s", "peak_rss_mb"):
        values[name] = statistics.median(run[name] for run in good)
        for row, run in zip(per_pass, good):
            row[name] = run[name]
    units = {m["name"]: m["unit"] for m in load_contract()["end_to_end"]}
    result["metrics"] = {
        name: {
            "value": values[name],
            "unit": units[name],
            "per_pass": [row[name] for row in per_pass],
        }
        for name in units
    }
    result["info"] = {
        "gen_s": statistics.median(run["gen_s"] for run in good),
        "events_per_pass": first["events"],
        "ops_per_pass": ops,
        "samples_beyond_p99": len(per_op) - math.ceil(0.99 * len(per_op)),
        "counts_per_op": {
            key: value / ops for key, value in sorted(first["counts"].items())
        },
        "facts": first["facts"],
        "digest": first["digest"],
    }
    return result


def layer_metrics(run: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (``BENCHMARK.json`` names)."""
    layers = run["layers"]
    counts = run["counts"]
    ops = run["ops"] - run["failed_ops"]

    def self_us(layer: str) -> float:
        return 1e6 * layers.get(layer, {}).get("self_s", 0.0)

    def per(amount: float, count: float) -> float:
        return amount / count if count else 0.0

    checked = counts.get("ts_computations", 0)
    return {
        "events.extend_us_per_event": per(self_us("events.extend"), run["events"]),
        "rules.ingest_self_us_per_op": per(self_us("rules.ingest"), ops),
        "rules.plan_us_per_op": per(self_us("rules.plan"), ops),
        "rules.check_self_us_per_op": per(self_us("rules.check"), ops),
        "core.check_us_per_candidate": per(self_us("core.check"), checked),
        "core.candidates_per_op": per(checked, ops),
        "core.triggered_per_checked": per(counts.get("rules_triggered", 0), checked),
        "cluster.evaluate_self_us_per_op": per(self_us("cluster.evaluate"), ops),
        "cluster.delta_us_per_op": per(self_us("cluster.delta"), ops),
        "cluster.bytes_per_op": per(counts.get("wire_bytes", 0), ops),
        "rules.consider_us_per_consideration": per(
            self_us("rules.consider"), counts.get("considerations", 0)
        ),
        "oodb.begin_us_per_op": per(self_us("oodb.begin"), ops),
        "oodb.op_self_us_per_event": per(self_us("oodb.op"), run["events"]),
        "oodb.commit_self_us_per_op": per(self_us("oodb.commit"), ops),
    }


def measure_traced(workload: str, seed: int, ops: int, scale: float = 1.0) -> dict:
    """One untraced and one traced pass -> per-layer metrics and the overhead."""
    reference = load_expected().get(expected_key(workload, seed, ops, scale))
    plain = run_pass(workload, seed, ops, scale, trace=False)
    traced = run_pass(workload, seed, ops, scale, trace=True)
    result: dict = {"ops": ops, "failed_ops": ops, "metrics": {}, "problems": []}
    for label, run, digest in (
        ("untraced", plain, reference),
        ("traced", traced, plain.get("digest", "")),
    ):
        problem = check_pass(run, digest)
        if problem is not None:
            result["problems"].append(f"{label} pass: {problem}")
    if result["problems"]:
        return result
    result["failed_ops"] = traced["failed_ops"]
    units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in layer_metrics(traced).items()
    }
    op_s = sum(succeeded(traced))
    slower = plain["events"] / sum(succeeded(plain)) / (traced["events"] / op_s)
    result["trace_overhead_pct"] = 100.0 * (slower - 1.0)
    result["layers"] = {
        layer: {
            "calls": row["calls"],
            "total_ms": 1e3 * row["total_s"],
            "self_ms": 1e3 * row["self_s"],
            "share_of_op_time_pct": 100.0 * row["self_s"] / op_s,
        }
        for layer, row in sorted(traced["layers"].items())
    }
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def host_record(seed: int, reps: int) -> dict:
    load1 = os.getloadavg()[0]
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "repetitions": reps,
        "passes_per_repetition": PASSES,
        "load1_at_start": load1,
        "load_flag": "busy host: 1-minute load above 1.0" if load1 > 1.0 else "",
    }


def print_layers(workload: str, traced: dict) -> None:
    print(f"\n{workload}: where the op time goes (traced pass, self times)")
    print(f"  {'layer':<18}{'calls':>9}{'total ms':>12}{'self ms':>12}{'share':>8}")
    for layer, row in traced.get("layers", {}).items():
        print(
            f"  {layer:<18}{row['calls']:>9}{row['total_ms']:>12.1f}"
            f"{row['self_ms']:>12.1f}{row['share_of_op_time_pct']:>7.1f}%"
        )
    if "trace_overhead_pct" in traced:
        print(f"  trace_overhead_pct = {traced['trace_overhead_pct']:.1f}")
    for problem in traced["problems"]:
        print(f"  PROBLEM {problem}")


def summarise(samples: list[float]) -> dict:
    """Median and quartiles of one metric over the repetitions."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "samples": samples,
    }


def run_all(args) -> dict:
    """Every workload, ``reps`` times on consecutive seeds; one result record."""
    contract = load_contract()
    results: dict = {
        "benchmark": "benchmarks/e2e",
        "comparable": not args.smoke,
        "host": host_record(args.seed, args.reps),
        "seconds": args.seconds,
        "workloads": {},
    }
    if results["host"]["load_flag"]:
        print(f"WARNING {results['host']['load_flag']}")
    if args.smoke:
        print("SMOKE RUN: shrunk workloads, numbers are not comparable")
    for entry in contract["workloads"]:
        name = entry["name"]
        scale = SMOKE_SCALE if args.smoke else 1.0
        ops = SMOKE_OPS if args.smoke else ops_for(name, args.seconds)
        passes = 1 if args.smoke else PASSES
        reps = [
            measure(name, args.seed + rep, ops, scale, passes)
            for rep in range(args.reps)
        ]
        record: dict = {
            "why": entry["why"],
            "ops": sum(rep["ops"] for rep in reps),
            "failed_ops": sum(rep["failed_ops"] for rep in reps),
            "problems": [p for rep in reps for p in rep["problems"]],
            "metrics": {},
            "info": reps[0]["info"],
        }
        for metric in contract["end_to_end"]:
            samples = [
                rep["metrics"][metric["name"]]["value"]
                for rep in reps
                if rep["metrics"]
            ]
            if samples:
                record["metrics"][metric["name"]] = {
                    "unit": metric["unit"],
                    **summarise(samples),
                }
        print(f"\n{name}: ops={record['ops']} failed_ops={record['failed_ops']}")
        print(f"  why: {record['why']}")
        print(f"  inputs: {json.dumps(record['info'].get('facts', {}))}")
        for metric_name, row in record["metrics"].items():
            print(
                f"  {metric_name:<14}{row['median']:>12.3f} {row['unit']:<9}"
                f" q1={row['q1']:.3f} q3={row['q3']:.3f} n={len(row['samples'])}"
            )
        for problem in record["problems"]:
            print(f"  PROBLEM {problem}")
        if args.trace:
            record["traced"] = measure_traced(name, args.seed, ops, scale)
            print_layers(name, record["traced"])
        results["workloads"][name] = record
    single = results["workloads"]["stream.check_heavy"]["metrics"]
    cluster = results["workloads"]["cluster.processes"]["metrics"]
    if single and cluster:
        ratio = cluster["events_per_s"]["median"] / single["events_per_s"]["median"]
        results["processes_vs_single"] = ratio
        print(
            f"\nprocesses_vs_single = {ratio:.3f}x "
            "(events_per_s of cluster.processes / stream.check_heavy)"
        )
    return results


def write_expected(args) -> int:
    """Pin the default seed's digests (full size and smoke size) from one pass."""
    expected: dict[str, str] = {}
    for entry in load_contract()["workloads"]:
        name = entry["name"]
        for ops, scale in (
            (ops_for(name, args.seconds), 1.0),
            (SMOKE_OPS, SMOKE_SCALE),
        ):
            run = run_pass(name, args.seed, ops, scale, trace=False)
            if "error" in run or run["failed_ops"]:
                print(f"{name}: {run.get('error', 'ops failed')}", file=sys.stderr)
                return 1
            expected[expected_key(name, args.seed, ops, scale)] = run["digest"]
            print(f"{name} ops={ops} scale={scale}: {run['digest']}")
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    return 0


def driver_run(args) -> int:
    """``BENCHMARK.json``'s contract: one workload, last line one JSON object."""
    ops = ops_for(args.workload, args.seconds)
    if args.trace:
        result = measure_traced(args.workload, args.seed, ops)
        print_layers(args.workload, result)
    else:
        result = measure(args.workload, args.seed, ops)
        for problem in result["problems"]:
            print(f"PROBLEM {problem}")
        print(json.dumps(result["info"], indent=1))
    if not result["metrics"]:
        print("no pass succeeded", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": result["failed_ops"] == 0,
                "attempted": result["ops"],
                "failed": result["failed_ops"],
                "metrics": {
                    name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in result["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv: list[str]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no engine to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC), str(HERE)]
    if argv[:1] == ["--child"]:
        return child_main(json.loads(argv[1]))
    if argv[:1] == ["compare"]:
        import e2e_compare

        return e2e_compare.main(argv[1:], load_contract())

    import e2e_gen

    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(e2e_gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=e2e_gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.write_expected:
        return write_expected(args)
    if args.workload:
        return driver_run(args)
    if args.smoke:
        args.reps = 1
    OUT.mkdir(exist_ok=True)
    if args.check_repeat:
        import e2e_compare

        paths = []
        for label in "AB":
            print(f"\n===== set {label} =====")
            path = OUT / f"repeat-{label}.json"
            path.write_text(json.dumps(run_all(args), indent=1), encoding="utf-8")
            paths.append(str(path))
        return e2e_compare.main(paths, contract)
    results = run_all(args)
    out = args.out or OUT / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    failed = sum(w["failed_ops"] for w in results["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
