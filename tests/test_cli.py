"""Tests for the chimera-events command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.events.persistence import save_event_base
from repro.oodb.objects import OID
from repro.workloads.stock import build_figure3_event_base


@pytest.fixture
def figure3_log(tmp_path):
    path = tmp_path / "figure3.jsonl"
    save_event_base(build_figure3_event_base(), path)
    return str(path)


class TestParser:
    def test_every_command_is_registered(self):
        parser = build_parser()
        args = parser.parse_args(["variations", "create(stock)"])
        assert args.command == "variations"

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workload_has_one_ingest_path(self):
        # The per-append fork and its flag are gone; bulk extend is the path.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--bulk-ingest"])


class TestEvaluate:
    def test_active_expression(self, figure3_log, capsys):
        code = main(
            ["evaluate", "create(stock) < modify(stock.quantity)", "--log", figure3_log]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ts value   : 6" in output
        assert "active" in output

    def test_explicit_instant(self, figure3_log, capsys):
        code = main(
            ["evaluate", "modify(stock.quantity)", "--log", figure3_log, "--at", "2"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ts value   : -2" in output

    def test_instance_evaluation(self, figure3_log, capsys):
        code = main(
            [
                "evaluate",
                "create(stock) += modify(stock.quantity)",
                "--log",
                figure3_log,
                "--oid",
                "o2",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "object     : o2" in output

    def test_bad_expression_reports_an_error(self, figure3_log, capsys):
        code = main(["evaluate", "create(", "--log", figure3_log])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "evaluate", "explain"])
    def test_malformed_log_reports_an_error(self, tmp_path, command, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        expression = [] if command == "replay" else ["create(stock)"]
        code = main([command, *expression, "--log", str(path)])
        assert code == 1
        assert "error: line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "oid, argument",
        [(7, "7"), (OID("stock", 3), "stock#3")],
        ids=["int", "oid"],
    )
    def test_oid_argument_names_the_logged_object(
        self, tmp_path, oid, argument, capsys
    ):
        event_base = EventBase()
        event_base.record(EventType(Operation.CREATE, "stock"), "o1", 1)
        event_base.record(EventType(Operation.CREATE, "stock"), oid, 7)
        path = tmp_path / "oids.jsonl"
        save_event_base(event_base, path)
        code = main(
            ["evaluate", "create(stock)", "--log", str(path), "--oid", argument]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert f"object     : {argument}" in output
        assert "ts value   : 7" in output

    def test_oid_the_log_never_touched_is_legal(self, figure3_log, capsys):
        code = main(
            ["evaluate", "--log", figure3_log, "--oid", "o9", "--", "-=create(stock)"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ts value   : 7" in output

    def test_missing_log_reports_an_error(self, tmp_path, capsys):
        code = main(
            ["evaluate", "create(stock)", "--log", str(tmp_path / "missing.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_explain(self, figure3_log, capsys):
        code = main(["explain", "create(stock) + -create(order)", "--log", figure3_log])
        output = capsys.readouterr().out
        assert code == 0
        assert "create(stock)" in output
        assert "->" in output

    def test_variations(self, capsys):
        code = main(["variations", "create(stock) + -delete(stock)"])
        output = capsys.readouterr().out
        assert code == 0
        assert "V(E)" in output
        assert "Δ+create(stock)" in output
        assert "Δ-delete(stock)" in output

    def test_simplify(self, capsys):
        code = main(["simplify", "--", "--create(stock) + create(stock)"])
        output = capsys.readouterr().out
        assert code == 0
        assert "simplified : create(stock)" in output

    def test_replay(self, figure3_log, capsys):
        code = main(["replay", "--log", figure3_log])
        output = capsys.readouterr().out
        assert code == 0
        assert "e1" in output and "delete(stock)" in output

    def test_stock_demo(self, capsys):
        code = main(
            [
                "stock-demo",
                "--days",
                "1",
                "--operations",
                "10",
                "--items",
                "5",
                "--seed",
                "3",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "checkStockQty" in output
        assert "ts_computations" in output

    def test_stock_demo_without_optimization(self, capsys):
        code = main(
            [
                "stock-demo",
                "--days",
                "1",
                "--operations",
                "10",
                "--items",
                "5",
                "--no-optimization",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ts_skipped_by_filter" in output
