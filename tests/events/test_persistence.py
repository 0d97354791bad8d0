"""Tests for Event Base persistence (JSON-lines save / load / replay)."""

import io

import pytest

from repro.errors import EventCalculusError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.persistence import (
    dump_occurrences,
    load_event_base,
    load_occurrences,
    occurrence_from_dict,
    occurrence_to_dict,
    save_event_base,
)
from repro.oodb.objects import OID
from repro.workloads.stock import build_figure3_event_base

MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")


class TestRecordConversion:
    def test_round_trip_with_string_oid(self):
        occurrence = EventOccurrence(
            3, MODIFY_QTY, "o1", 7, {"old_value": 1, "new_value": 2}
        )
        restored = occurrence_from_dict(occurrence_to_dict(occurrence))
        assert restored == occurrence
        assert dict(restored.payload) == {"old_value": 1, "new_value": 2}

    def test_round_trip_with_structured_oid(self):
        occurrence = EventOccurrence(1, MODIFY_QTY, OID("stock", 4), 2)
        restored = occurrence_from_dict(occurrence_to_dict(occurrence))
        assert restored.oid == OID("stock", 4)

    def test_malformed_record_rejected(self):
        with pytest.raises(EventCalculusError):
            occurrence_from_dict({"eid": 1})

    def test_unknown_operation_rejected(self):
        record = occurrence_to_dict(EventOccurrence(1, MODIFY_QTY, "o1", 2))
        record["operation"] = "truncate"
        with pytest.raises(EventCalculusError):
            occurrence_from_dict(record)


class TestStreams:
    def test_dump_and_load_streams(self):
        eb = build_figure3_event_base()
        buffer = io.StringIO()
        written = dump_occurrences(eb.occurrences, buffer)
        assert written == 7
        buffer.seek(0)
        restored = list(load_occurrences(buffer))
        assert restored == list(eb.occurrences)

    def test_blank_lines_are_ignored(self):
        eb = build_figure3_event_base()
        buffer = io.StringIO()
        dump_occurrences(eb.occurrences, buffer)
        text = "\n" + buffer.getvalue() + "\n\n"
        restored = list(load_occurrences(io.StringIO(text)))
        assert len(restored) == 7

    def test_invalid_json_line_reports_its_number(self):
        with pytest.raises(EventCalculusError) as excinfo:
            list(load_occurrences(io.StringIO("not json\n")))
        assert "line 1" in str(excinfo.value)

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2, 3]",
            "null",
            '"create(stock)"',
            '{"eid": null, "operation": "create", "class": "stock", '
            '"oid": "o1", "timestamp": 3}',
            '{"eid": 2, "operation": "create", "class": "stock", '
            '"oid": {"__oid__": 5}, "timestamp": 3}',
        ],
        ids=["array", "null", "string", "null-eid", "bad-oid"],
    )
    def test_malformed_record_line_reports_its_number(self, line):
        good = io.StringIO()
        dump_occurrences([EventOccurrence(1, MODIFY_QTY, "o1", 1)], good)
        with pytest.raises(EventCalculusError) as excinfo:
            list(load_occurrences(io.StringIO(good.getvalue() + line + "\n")))
        assert "line 2" in str(excinfo.value)


class TestFiles:
    def test_save_and_load_event_base(self, tmp_path):
        eb = build_figure3_event_base()
        path = tmp_path / "figure3.jsonl"
        assert save_event_base(eb, path) == 7
        restored = load_event_base(path)
        assert len(restored) == 7
        assert restored.timestamp(5) == 5
        assert str(restored.type_of(7)) == "delete(stock)"

    def test_loaded_event_base_supports_the_calculus(self, tmp_path):
        from repro.core import parse_expression, ts

        eb = build_figure3_event_base()
        path = tmp_path / "figure3.jsonl"
        save_event_base(eb, path)
        restored = load_event_base(path)
        expression = parse_expression("create(stock) < modify(stock.quantity)")
        assert ts(expression, restored.full_window(), 7) == ts(
            expression, eb.full_window(), 7
        )
