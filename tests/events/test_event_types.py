"""Tests for event types and event occurrences."""

import pytest

from repro.errors import EventCalculusError
from repro.events.event import (
    EventOccurrence,
    EventType,
    Operation,
    parse_event_type,
)


class TestOperation:
    def test_from_name_accepts_every_operation(self):
        for member in Operation:
            assert Operation.from_name(member.value) is member

    def test_from_name_is_case_insensitive(self):
        assert Operation.from_name("CREATE") is Operation.CREATE
        assert Operation.from_name("  Modify ") is Operation.MODIFY

    def test_from_name_rejects_unknown(self):
        with pytest.raises(EventCalculusError):
            Operation.from_name("truncate")


class TestEventType:
    def test_str_without_attribute(self):
        assert str(EventType(Operation.CREATE, "stock")) == "create(stock)"

    def test_str_with_attribute(self):
        event_type = EventType(Operation.MODIFY, "stock", "quantity")
        assert str(event_type) == "modify(stock.quantity)"

    def test_requires_class_name(self):
        with pytest.raises(EventCalculusError):
            EventType(Operation.CREATE, "")

    def test_attribute_only_for_modify(self):
        with pytest.raises(EventCalculusError):
            EventType(Operation.CREATE, "stock", "quantity")

    def test_is_attribute_specific(self):
        assert EventType(Operation.MODIFY, "stock", "quantity").is_attribute_specific
        assert not EventType(Operation.MODIFY, "stock").is_attribute_specific

    def test_equality_and_hash(self):
        first = EventType(Operation.MODIFY, "stock", "quantity")
        second = EventType(Operation.MODIFY, "stock", "quantity")
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_class_level_matches_attribute_specific(self):
        class_level = EventType(Operation.MODIFY, "stock")
        specific = EventType(Operation.MODIFY, "stock", "quantity")
        assert class_level.matches(specific)

    def test_attribute_specific_does_not_match_other_attribute(self):
        quantity = EventType(Operation.MODIFY, "stock", "quantity")
        minquantity = EventType(Operation.MODIFY, "stock", "minquantity")
        assert not quantity.matches(minquantity)

    def test_matches_requires_same_operation_and_class(self):
        create_stock = EventType(Operation.CREATE, "stock")
        delete_stock = EventType(Operation.DELETE, "stock")
        create_show = EventType(Operation.CREATE, "show")
        assert not create_stock.matches(delete_stock)
        assert not create_stock.matches(create_show)

    def test_matches_is_reflexive(self):
        event_type = EventType(Operation.MODIFY, "stock", "quantity")
        assert event_type.matches(event_type)


class TestParseEventType:
    def test_parse_simple(self):
        assert parse_event_type("create(stock)") == EventType(Operation.CREATE, "stock")

    def test_parse_with_attribute(self):
        parsed = parse_event_type("modify(stock.quantity)")
        assert parsed == EventType(Operation.MODIFY, "stock", "quantity")

    def test_parse_tolerates_whitespace(self):
        parsed = parse_event_type("  modify ( stock . quantity ) ")
        assert parsed == EventType(Operation.MODIFY, "stock", "quantity")

    def test_parse_rejects_missing_parentheses(self):
        with pytest.raises(EventCalculusError):
            parse_event_type("create stock")

    def test_parse_rejects_empty_target(self):
        with pytest.raises(EventCalculusError):
            parse_event_type("create()")

    def test_parse_rejects_unknown_operation(self):
        with pytest.raises(EventCalculusError):
            parse_event_type("upsert(stock)")

    def test_round_trip(self):
        for text in ("create(stock)", "modify(stock.quantity)", "delete(show)"):
            assert str(parse_event_type(text)) == text


class TestEventOccurrence:
    def test_accessor_functions(self):
        event_type = EventType(Operation.MODIFY, "stock", "quantity")
        occurrence = EventOccurrence(
            eid=5, event_type=event_type, oid="o1", timestamp=7
        )
        assert occurrence.type == event_type
        assert occurrence.obj == "o1"
        assert occurrence.event_on_class == "stock"
        assert occurrence.timestamp == 7

    def test_positive_timestamp_required(self):
        with pytest.raises(EventCalculusError):
            EventOccurrence(
                eid=1,
                event_type=EventType(Operation.CREATE, "stock"),
                oid="o1",
                timestamp=0,
            )

    def test_str_shows_eid_and_timestamp(self):
        occurrence = EventOccurrence(
            eid=3,
            event_type=EventType(Operation.CREATE, "stock"),
            oid="o2",
            timestamp=4,
        )
        assert "e3" in str(occurrence)
        assert "t4" in str(occurrence)

    def test_payload_defaults_to_empty(self):
        occurrence = EventOccurrence(
            eid=1,
            event_type=EventType(Operation.CREATE, "stock"),
            oid="o1",
            timestamp=1,
        )
        assert dict(occurrence.payload) == {}

