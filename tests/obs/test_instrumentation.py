"""End-to-end instrumentation tests: the registry wired through the engine.

These drive the real pipeline — :class:`ChimeraDatabase` transactions, the
process-mode shard coordinator, the CLI — and assert
the metrics snapshot reflects what actually happened: source counters equal
to the canonical stats, worker deltas merged across the process boundary,
ambient ``$CHIMERA_METRICS`` exports, and the ``workload`` command's
``--metrics`` / ``--metrics-json`` surfaces.
"""

import dataclasses
import json
import multiprocessing
import re

import pytest

from repro.cli import main
from repro.cluster.coordinator import home_shard
from repro.obs import MetricsRegistry
from repro.oodb.database import ChimeraDatabase
from repro.rules.trigger_support import TriggerSupportStats
from repro.workloads.stock import CHECK_STOCK_QTY_RULE


#: The same rule under a name homed on shard 1 of 2, so a two-shard
#: processes database checks it on its worker, not inline on the coordinator.
REMOTE_CHECK_STOCK_QTY_RULE = CHECK_STOCK_QTY_RULE.replace(
    "checkStockQty", "checkStockQty1"
)


def _stock_db(rule: str = CHECK_STOCK_QTY_RULE, **kwargs) -> ChimeraDatabase:
    db = ChimeraDatabase(**kwargs)
    db.define_class(
        "stock", {"name": str, "quantity": int, "minquantity": int, "maxquantity": int}
    )
    db.define_rule(rule)
    return db


def _drive(db: ChimeraDatabase, transactions: int = 3) -> None:
    for index in range(transactions):
        with db.transaction() as tx:
            tx.create("stock", {"quantity": 500 + index, "maxquantity": 100})


class TestDatabaseSnapshot:
    def test_trigger_counters_equal_the_canonical_stats(self):
        db = _stock_db()
        try:
            _drive(db)
            snapshot = db.metrics_snapshot()
            stats = db.trigger_statistics()
            assert stats["blocks"] > 0
            for key, value in stats.items():
                assert snapshot["counters"][f"trigger.{key}"] == value
        finally:
            db.close()
        # The probes observe; they never steer: an uninstrumented engine
        # does exactly the same work.
        off = _stock_db(metrics=MetricsRegistry(enabled=False))
        try:
            _drive(off)
            assert off.trigger_statistics() == stats
        finally:
            off.close()

    @pytest.mark.parametrize(
        "placement",
        [{}, {"shards": 2, "shard_mode": "processes"}],
        ids=["single-table", "processes"],
    )
    def test_trigger_family_is_exactly_the_stats_record(self, placement):
        """The ``trigger.*`` counters are the ``TriggerSupportStats`` fields
        and nothing more on every placement: the retired evaluator counters
        (``node_visits``, ``primitive_lookups``, ``lifted_objects``,
        ``evaluations``) come back from no worker reply."""
        db = _stock_db(REMOTE_CHECK_STOCK_QTY_RULE, **placement)
        try:
            _drive(db)
            counters = db.metrics_snapshot()["counters"]
        finally:
            db.close()
        exported = {name for name in counters if name.startswith("trigger.")}
        assert exported == {
            f"trigger.{field.name}" for field in dataclasses.fields(TriggerSupportStats)
        }
        assert counters["trigger.instants_sampled"] > 0
        retired = ("node_visits", "primitive_lookups", "lifted_objects", "evaluations")
        for name in retired:
            assert f"trigger.{name}" not in counters

    def test_commit_path_is_instrumented(self):
        db = _stock_db()
        try:
            _drive(db, transactions=2)
            snapshot = db.metrics_snapshot()
            assert snapshot["counters"]["oodb.commits"] == 2
            assert snapshot["histograms"]["oodb.commit"]["count"] == 2
        finally:
            db.close()

    def test_process_database_folds_cluster_counters(self):
        """The coordinator's dispatch counters fold into the snapshot; the
        planning counters are the single table's ``trigger.*`` ones."""
        db = _stock_db(REMOTE_CHECK_STOCK_QTY_RULE, shards=2, shard_mode="processes")
        try:
            _drive(db)
            snapshot = db.metrics_snapshot()
            counters = snapshot["counters"]
            assert counters["cluster.dispatch_trips"] > 0
            assert counters["cluster.parallel_batches"] > 0
            assert counters["trigger.rules_routed"] > 0
            assert not [name for name in counters if name.startswith("shard.")]
            assert snapshot["histograms"]["block.check"]["count"] > 0
            assert snapshot["histograms"]["trip.dispatch"]["count"] > 0
        finally:
            db.close()

    def test_process_mode_merges_worker_deltas(self):
        db = _stock_db(REMOTE_CHECK_STOCK_QTY_RULE, shards=2, shard_mode="processes")
        try:
            _drive(db)
            counters = db.metrics_snapshot()["counters"]
            assert counters["worker.trips"] > 0
            assert counters["worker.rules_evaluated"] > 0
            # The canonical trigger stats still fold in alongside them.
            for key, value in db.trigger_statistics().items():
                assert counters[f"trigger.{key}"] == value
        finally:
            db.close()

    def test_worker_probes_time_every_trip(self):
        """``worker.mirror`` (frame decode + mirror extend) and
        ``worker.reply`` (reply encode) sit beside ``worker.check``: one
        observation each per trip, all merged through the reply deltas."""
        db = _stock_db(REMOTE_CHECK_STOCK_QTY_RULE, shards=2, shard_mode="processes")
        try:
            _drive(db)
            snapshot = db.metrics_snapshot()
            trips = snapshot["counters"]["worker.trips"]
            assert trips > 0
            for probe in ("worker.mirror", "worker.check", "worker.reply"):
                assert snapshot["histograms"][probe]["count"] == trips, probe
                assert snapshot["histograms"][probe]["sum"] > 0, probe
        finally:
            db.close()


class TestAmbientExport:
    def test_chimera_metrics_env_writes_json_lines(self, tmp_path, monkeypatch):
        path = tmp_path / "ambient.jsonl"
        monkeypatch.setenv("CHIMERA_METRICS", str(path))
        db = _stock_db()
        try:
            _drive(db)
        finally:
            db.close()
        lines = path.read_text().splitlines()
        assert lines, "engine close must write a final ambient snapshot"
        final = json.loads(lines[-1])
        assert final["counters"]["oodb.commits"] == 3
        assert final["counters"]["trigger.blocks"] > 0


class TestWorkloadCliSurfaces:
    ARGS = ["workload", "--rules", "30", "--blocks", "8", "--events-per-block", "4"]

    def test_metrics_flag_prints_the_text_report(self, capsys):
        assert main([*self.ARGS, "--metrics"]) == 0
        output = capsys.readouterr().out
        assert "counters" in output
        assert "trigger.blocks" in output

    def test_metrics_json_writes_a_snapshot_line(self, tmp_path, capsys):
        path = tmp_path / "workload.jsonl"
        assert main([*self.ARGS, "--metrics-json", str(path)]) == 0
        assert "wrote metrics snapshot" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        snapshot = json.loads(lines[0])
        # 8 stream blocks plus the (empty) block every consideration ends.
        assert snapshot["counters"]["trigger.blocks"] >= 8
        # One timed check per stream block, on every placement.
        assert snapshot["histograms"]["block.check"]["count"] == 8

    def test_skew_row_counts_rules_per_evaluation_home(self, capsys):
        """The workload's pool is the ghost shape: nine rules in ten are
        conjoined with ``create(ghost)``, so nearly every rule watches one
        bucket.  The row reports where the checks go — each rule once, on
        its evaluation home, home 0 first."""
        rules = 400
        argv = [
            "workload",
            "--rules",
            str(rules),
            "--blocks",
            "4",
            "--shards",
            "2",
            "--shard-mode",
            "processes",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        row = re.search(r"\| shard_population +\| ([\d/]+)", output).group(1)
        expected = [0, 0]
        for index in range(rules):
            expected[home_shard(f"r{index}", 2)] += 1
        assert [int(count) for count in row.split("/")] == expected
        skew = float(re.search(r"\| shard_skew +\| ([\d.]+)", output).group(1))
        assert skew <= 1.1

    PLACEMENTS = {
        "single": [],
        "serial": ["--shards", "4"],
        "pipe": ["--shards", "2", "--shard-mode", "processes"],
    }

    def test_one_seed_gives_one_outcome_on_every_placement(self, tmp_path, capsys):
        outcomes = {}
        for name, flags in self.PLACEMENTS.items():
            path = tmp_path / f"{name}.jsonl"
            code = main([*self.ARGS, *flags, "--metrics-json", str(path)])
            output = capsys.readouterr().out
            assert code == 0, name
            assert not multiprocessing.active_children(), f"{name}: workers leaked"
            snapshot = json.loads(path.read_text())
            outcomes[name] = (
                re.search(r"\| considerations \| (\d+)", output).group(1),
                {
                    key: value
                    for key, value in snapshot["counters"].items()
                    if key.startswith("trigger.")
                },
            )
            # The timings printed are the registry's own.
            assert "block.check" in output
            if "processes" in flags:
                assert snapshot["histograms"]["worker.check"]["count"] > 0
        reference = outcomes.pop("single")
        assert int(reference[0]) > 0 and reference[1]["trigger.rules_triggered"] > 0
        for name, outcome in outcomes.items():
            assert outcome == reference, name

    @pytest.mark.parametrize(
        "flags",
        [["--batch-blocks", "2"], ["--adaptive-batch"], ["--plan-cache-size", "64"]],
        ids=["batch-blocks", "adaptive-batch", "plan-cache-size"],
    )
    def test_retired_trip_flags_are_argparse_errors(self, flags, capsys):
        """One block, one check, one planner: the micro-batching flags and
        the plan-cache bound have no alias."""
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
