"""Smoke test of the end-to-end benchmark (collected by the root pytest run).

Shrunk workloads, one pass each, a few seconds in total: the numbers mean
nothing, the plumbing is what is checked — seeded inputs, digests and their
verification, the tracer's arithmetic and the names ``BENCHMARK.json``
promises.  Every engine run happens in the benchmark's own subprocesses, so
the ``--shards`` / ``--compiled-checks`` axes of the suite do not leak in.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import e2e_gen  # noqa: E402
import run  # noqa: E402
from e2e_trace import ROOT as ROOT_SPAN  # noqa: E402

SEED = e2e_gen.DEFAULT_SEED
OPS, SCALE = run.SMOKE_OPS, run.SMOKE_SCALE
CONTRACT = run.load_contract()


def smoke_pass(workload: str, seed: int = SEED, trace: bool = False) -> dict:
    result = run.run_pass(workload, seed, OPS, SCALE, trace)
    assert "error" not in result, result
    assert result["failed_ops"] == 0
    return result


@pytest.fixture(scope="module")
def tx_traced() -> dict:
    return run.measure_traced("tx.stock_orders", SEED, OPS, SCALE)


def test_same_seed_gives_identical_inputs_and_digest():
    for workload in e2e_gen.WORKLOADS:
        first = e2e_gen.fingerprint(e2e_gen.generate(workload, 7, OPS, SCALE))
        again = e2e_gen.fingerprint(e2e_gen.generate(workload, 7, OPS, SCALE))
        other = e2e_gen.fingerprint(e2e_gen.generate(workload, 8, OPS, SCALE))
        assert first == again
        assert first != other
    first, again = smoke_pass("tx.stock_orders", 7), smoke_pass("tx.stock_orders", 7)
    assert first["digest"] == again["digest"]


def test_process_workers_reproduce_the_single_table_digest():
    single = smoke_pass("stream.check_heavy")
    cluster = smoke_pass("cluster.processes")
    assert single["counts"]["considerations"] > 0
    assert cluster["counts"]["wire_bytes"] > 0
    assert single["digest"] == cluster["digest"] == single["oracle_digest"]
    pinned = run.load_expected()
    for workload in ("stream.check_heavy", "cluster.processes"):
        assert pinned[run.expected_key(workload, SEED, OPS, SCALE)] == single["digest"]


def test_wrong_expected_digest_fails_every_op():
    for workload in ("tx.stock_orders", "stream.ingest_heavy"):
        wrong = {run.expected_key(workload, SEED, OPS, SCALE): "0" * 64}
        result = run.measure(workload, SEED, OPS, SCALE, passes=1, expected=wrong)
        assert result["ops"] == OPS
        assert result["failed_ops"] == result["ops"]
        assert result["problems"]
        assert not result["metrics"]


def test_self_times_add_up_to_the_root_spans(tx_traced):
    assert not tx_traced["problems"]
    spans = [
        json.loads(line)
        for line in (run.OUT / "trace-tx.stock_orders.jsonl").read_text().splitlines()
    ]
    spans = [span for span in spans if span["op"] >= 0]
    by_id = {span["id"]: span for span in spans}
    self_time = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            assert by_id[span["parent"]]["op"] == span["op"]
            self_time[span["parent"]] -= span["end"] - span["start"]
    roots = [span for span in spans if span["name"] == ROOT_SPAN]
    assert len(roots) == OPS
    for root in roots:
        total = sum(self_time[s["id"]] for s in spans if s["op"] == root["op"])
        assert total == pytest.approx(root["end"] - root["start"], rel=0.01)
    # The layer table is the same arithmetic, summed per layer.
    root_ms = sum(1e3 * (root["end"] - root["start"]) for root in roots)
    layers = tx_traced["layers"]
    assert sum(row["self_ms"] for row in layers.values()) == pytest.approx(
        root_ms, rel=0.01
    )
    for layer in ("oodb.begin", "oodb.op", "oodb.commit", "rules.consider"):
        assert layers[layer]["calls"] > 0
    assert "cluster.evaluate" not in layers


def test_names_match_benchmark_json(tx_traced):
    assert [w["name"] for w in CONTRACT["workloads"]] == list(e2e_gen.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    for entry in CONTRACT["workloads"]:
        assert len(entry["why"]) <= 200
    assert set(tx_traced["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert "trace_overhead_pct" in tx_traced
    # The contract's command line, end to end: last line one JSON object.
    done = subprocess.run(
        [*CONTRACT["command"], "--workload", "tx.stock_orders"]
        + ["--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for metric in CONTRACT["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0
        assert 0 < metric["bound"] <= 0.25


def test_without_the_engine_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.CONTRACT, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [*CONTRACT["command"], "--workload", "tx.stock_orders"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
