"""Tests for traces and text reporting."""

import pytest

from repro.analysis.reporting import render_kv, render_table, render_traces
from repro.analysis.traces import ots_trace, sample_instants, ts_trace
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation

from tests.conftest import history

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")


@pytest.fixture
def window():
    return history(
        (CREATE_STOCK, "o1", 1), (CREATE_STOCK, "o2", 3), (MODIFY_QTY, "o1", 5)
    )


class TestTraces:
    def test_sample_instants_cover_every_stamp_plus_padding(self, window):
        assert sample_instants(window) == [1, 3, 5, 6]

    def test_sample_instants_of_empty_window(self):
        assert sample_instants(history()) == [1]

    def test_ts_trace_values(self, window):
        trace = ts_trace(parse_expression("create(stock)"), window)
        assert trace.values() == [1, 3, 3, 3]
        assert trace.activity() == [True, True, True, True]
        assert len(trace) == 4

    def test_ts_trace_negation(self, window):
        trace = ts_trace(parse_expression("-modify(stock.quantity)"), window)
        assert trace.values() == [1, 3, -5, -5]

    def test_ots_trace_is_per_object(self, window):
        trace = ots_trace(parse_expression("create(stock)"), window, "o2")
        assert trace.values() == [-1, 3, 3, 3]

    def test_trace_custom_instants_and_label(self, window):
        trace = ts_trace(
            parse_expression("create(stock)"), window, instants=[2, 4], label="A"
        )
        assert trace.label == "A"
        assert [point.instant for point in trace] == [2, 4]


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "| name" in lines[2]
        assert all(line.startswith(("|", "+", "T")) for line in lines)

    def test_render_kv(self):
        text = render_kv({"blocks": 3, "rules": 2})
        assert "blocks" in text and "3" in text

    def test_render_traces(self, window):
        traces = [
            ts_trace(parse_expression("create(stock)"), window, label="A"),
            ts_trace(parse_expression("-create(stock)"), window, label="-A"),
        ]
        text = render_traces(traces, title="Fig. 5")
        assert "Fig. 5" in text
        assert "-A" in text
        assert "+" in text and "-" in text

    def test_render_traces_empty(self):
        assert render_traces([], title="empty") == "empty"

