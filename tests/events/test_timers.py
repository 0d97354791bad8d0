"""Tests for external and temporal events (extension module)."""

import pytest

from repro.core.compile import ts
from repro.core.parser import parse_expression
from repro.errors import EventCalculusError
from repro.events.clock import TransactionClock
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.events.timers import (
    ExternalEventSource, TemporalEventPlanner, external_event_type
)

from tests.conftest import event_base_from, event_base_of

CREATE_STOCK = EventType(Operation.CREATE, "stock")


class TestExternalEventType:
    def test_uses_the_raise_operation(self):
        event_type = external_event_type("deadline")
        assert event_type.operation is Operation.RAISE
        assert str(event_type) == "raise(deadline)"

    def test_invalid_names_rejected(self):
        with pytest.raises(EventCalculusError):
            external_event_type("not a name")
        with pytest.raises(EventCalculusError):
            external_event_type("")

    def test_raise_events_parse_in_expressions(self):
        expression = parse_expression("create(stock) < raise(deadline)")
        assert external_event_type("deadline") in expression.event_types()


class TestExternalEventSource:
    def test_raise_event_records_an_occurrence(self):
        event_base = EventBase()
        clock = TransactionClock()
        source = ExternalEventSource(event_base, clock)
        occurrence = source.raise_event(
            "alarm", subject="sensor-1", payload={"level": 3}
        )
        assert occurrence.event_type == external_event_type("alarm")
        assert occurrence.oid == "sensor-1"
        assert occurrence.payload["level"] == 3
        assert len(event_base) == 1
        assert source.raised == 1

    def test_external_events_interleave_with_internal_ones(self):
        event_base = EventBase()
        clock = TransactionClock()
        source = ExternalEventSource(event_base, clock)
        event_base.record(CREATE_STOCK, "o1", clock.tick())
        source.raise_event("deadline")
        expression = parse_expression("create(stock) < raise(deadline)")
        assert ts(expression, event_base, clock.now()) > 0


class TestTemporalEventPlanner:
    def test_absolute(self):
        planner = TemporalEventPlanner()
        occurrence = planner.absolute("midnight", at=10)
        assert occurrence.timestamp == 10
        with pytest.raises(EventCalculusError):
            planner.absolute("midnight", at=0)

    def test_periodic(self):
        planner = TemporalEventPlanner()
        ticks = planner.periodic("tick", period=3, start=2, until=11)
        assert [occurrence.timestamp for occurrence in ticks] == [2, 5, 8, 11]
        assert len({occurrence.eid for occurrence in ticks}) == 4

    def test_periodic_validation(self):
        planner = TemporalEventPlanner()
        with pytest.raises(EventCalculusError):
            planner.periodic("tick", period=0, start=1, until=5)
        with pytest.raises(EventCalculusError):
            planner.periodic("tick", period=2, start=6, until=5)

    def test_relative_follows_reference_occurrences(self):
        eb = event_base_from((CREATE_STOCK, "o1", 2), (CREATE_STOCK, "o2", 7))
        planner = TemporalEventPlanner()
        timeouts = planner.relative("timeout", delay=3, after=CREATE_STOCK, history=eb)
        assert [occurrence.timestamp for occurrence in timeouts] == [5, 10]

    def test_relative_respects_the_until_bound(self):
        eb = event_base_from((CREATE_STOCK, "o1", 2), (CREATE_STOCK, "o2", 7))
        planner = TemporalEventPlanner()
        timeouts = planner.relative(
            "timeout", delay=3, after=CREATE_STOCK, history=eb, until=6
        )
        assert [occurrence.timestamp for occurrence in timeouts] == [5]

    def test_relative_validation(self):
        planner = TemporalEventPlanner()
        with pytest.raises(EventCalculusError):
            planner.relative("timeout", delay=0, after=CREATE_STOCK, history=[])

    def test_timeout_composite_event(self):
        """A watchdog: stock created but not modified before the timeout fires."""
        eb = event_base_from((CREATE_STOCK, "o1", 2))
        planner = TemporalEventPlanner()
        merged = event_base_of(
            [*eb, *planner.relative("timeout", delay=5, after=CREATE_STOCK, history=eb)]
        )
        watchdog = parse_expression(
            "(create(stock) < raise(timeout)) + -modify(stock.quantity)"
        )
        assert ts(watchdog, merged, 8) > 0

        answered = event_base_from(
            (CREATE_STOCK, "o1", 2),
            (EventType(Operation.MODIFY, "stock", "quantity"), "o1", 4),
        )
        merged_answered = event_base_of(
            [
                *answered,
                *planner.relative(
                    "timeout", delay=5, after=CREATE_STOCK, history=answered
                ),
            ]
        )
        assert ts(watchdog, merged_answered, 8) < 0
