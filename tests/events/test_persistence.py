"""Tests for Event Base persistence (JSON-lines save / load / replay)."""

import io

import pytest

from repro.errors import EventCalculusError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.events.persistence import (
    dump_occurrences,
    load_event_base,
    load_occurrences,
    occurrence_from_dict,
    occurrence_to_dict,
    save_event_base,
)
from repro.oodb.database import ChimeraDatabase
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
        assert ts(expression, restored, 7) == ts(expression, eb, 7)

    def test_record_after_load_mints_a_fresh_eid(self, tmp_path):
        path = tmp_path / "figure3.jsonl"
        save_event_base(build_figure3_event_base(), path)
        restored = load_event_base(path)
        assert restored.record(MODIFY_QTY, "o1", 8).eid == len(restored) == 8


class TestReferenceAttributes:
    """Chimera objects reference each other: an OID inside a payload."""

    @staticmethod
    def stock_then_order() -> EventBase:
        db = ChimeraDatabase()
        db.define_class("stock", {"name": str, "quantity": int})
        db.define_class("order", {"item": object, "lines": list})
        with db.transaction() as tx:
            stock = tx.create("stock", {"name": "bolt", "quantity": 3})
            tx.create(
                "order", {"item": stock.oid, "lines": [stock.oid, {"of": stock.oid}]}
            )
            event_base = db.event_base
        return event_base

    def test_oid_in_a_payload_round_trips(self, tmp_path):
        event_base = self.stock_then_order()
        path = tmp_path / "orders.jsonl"
        assert save_event_base(event_base, path) == 2
        restored = load_event_base(path)
        assert list(restored.occurrences) == list(event_base.occurrences)
        assert [dict(o.payload) for o in restored.occurrences] == [
            dict(o.payload) for o in event_base.occurrences
        ]
        (order,) = [o for o in restored.occurrences if o.oid.class_name == "order"]
        assert isinstance(order.payload["values"]["item"], OID)

    @pytest.mark.parametrize(
        "payload",
        [
            {"item": OID("stock", 1)},
            {"lines": [OID("stock", 1), OID("stock", 2)]},
            {"values": {"item": OID("stock", 1), "quantity": 3}},
            {"lines": [{"of": OID("stock", 1)}, 4, "bolt"]},
            {"old_value": OID("stock", 1), "new_value": OID("supplier", 7)},
        ],
        ids=["top", "list", "nested-dict", "dict-in-list", "old-and-new"],
    )
    def test_every_oid_placement_round_trips(self, payload):
        occurrence = EventOccurrence(5, MODIFY_QTY, OID("order", 2), 3, payload)
        buffer = io.StringIO()
        assert dump_occurrences([occurrence], buffer) == 1
        (restored,) = load_occurrences(io.StringIO(buffer.getvalue()))
        assert restored == occurrence
        assert dict(restored.payload) == payload

    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, b"bytes", 1j, {OID("stock", 1): 3}],
        ids=["object", "set", "bytes", "complex", "oid-key"],
    )
    def test_a_value_json_cannot_hold_is_named_by_its_eid(self, value, tmp_path):
        event_base = EventBase()
        event_base.append(EventOccurrence(1, MODIFY_QTY, "o1", 1, {"new_value": 2}))
        event_base.append(EventOccurrence(2, MODIFY_QTY, "o1", 2, {"new_value": value}))
        path = tmp_path / "log.jsonl"
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(EventCalculusError, match="eid=2"):
            save_event_base(event_base, path)
        assert path.read_text(encoding="utf-8") == "kept\n"  # left as it was

    def test_unencodable_value_names_its_eid_and_writes_nothing(self, tmp_path):
        good = EventOccurrence(1, MODIFY_QTY, "o1", 1, {"new_value": 2})
        bad = EventOccurrence(2, MODIFY_QTY, "o1", 2, {"new_value": object()})
        event_base = EventBase()
        event_base.append(good)
        event_base.append(bad)
        path = tmp_path / "broken.jsonl"
        with pytest.raises(EventCalculusError, match="eid=2"):
            save_event_base(event_base, path)
        assert not path.exists()
        buffer = io.StringIO()
        with pytest.raises(EventCalculusError, match="eid=2"):
            dump_occurrences([good, bad], buffer)
        # Only whole records reach a stream.
        assert buffer.getvalue().count("\n") == 1
        assert list(load_occurrences(io.StringIO(buffer.getvalue()))) == [good]
