"""The zero-copy :class:`BoundedView` must be indistinguishable from
:class:`EventWindow` under the whole query API the calculus uses."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import EventCalculusError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import BoundedView, EventBase, EventWindow

A = EventType(Operation.CREATE, "A")
B = EventType(Operation.CREATE, "B")
MOD_AX = EventType(Operation.MODIFY, "A", "x")
MOD_AY = EventType(Operation.MODIFY, "A", "y")
MOD_A = EventType(Operation.MODIFY, "A")  # class-level pattern

EVENT_TYPES = [A, B, MOD_AX, MOD_AY]
QUERY_TYPES = EVENT_TYPES + [MOD_A]
OIDS = ["o1", "o2", "o3"]

event_types = st.sampled_from(EVENT_TYPES)
oids = st.sampled_from(OIDS)
instants = st.integers(min_value=1, max_value=30)
bounds = st.one_of(st.none(), st.integers(min_value=0, max_value=32))


def build_event_base(entries: list[tuple[EventType, str, int]]) -> EventBase:
    event_base = EventBase()
    for event_type, oid, timestamp in sorted(entries, key=lambda entry: entry[2]):
        event_base.record(event_type, oid, timestamp)
    return event_base


@st.composite
def event_bases(draw, min_size: int = 0, max_size: int = 15) -> EventBase:
    entries = draw(
        st.lists(
            st.tuples(event_types, oids, instants), min_size=min_size, max_size=max_size
        )
    )
    return build_event_base(entries)


@st.composite
def bounded_pairs(draw) -> tuple[EventBase, int | None, int | None]:
    """An event base plus random valid ``(after, until]`` bounds."""
    event_base = draw(event_bases())
    after = draw(bounds)
    until = draw(bounds)
    if after is not None and until is not None and after > until:
        after, until = until, after
    return event_base, after, until


# ---------------------------------------------------------------------------
# Equivalence with the materialized window
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(pair=bounded_pairs())
def test_view_and_window_agree_on_contents(pair):
    event_base, after, until = pair
    view = event_base.view(after=after, until=until)
    window = event_base.window(after=after, until=until)
    assert len(view) == len(window)
    assert view.is_empty() == window.is_empty()
    assert bool(view) == bool(window)
    assert list(view.occurrences) == list(window.occurrences)
    assert [occurrence.eid for occurrence in view] == [
        occurrence.eid for occurrence in window
    ]
    assert view.latest_timestamp() == window.latest_timestamp()
    assert view.timestamps() == window.timestamps()
    assert view.oids() == window.oids()
    assert view.event_types() == window.event_types()


@settings(max_examples=200, deadline=None)
@given(pair=bounded_pairs(), instant=instants, oid=oids)
def test_view_and_window_agree_on_calculus_queries(pair, instant, oid):
    event_base, after, until = pair
    view = event_base.view(after=after, until=until)
    window = event_base.window(after=after, until=until)
    for event_type in QUERY_TYPES:
        assert view.last_timestamp(event_type, instant) == window.last_timestamp(
            event_type, instant
        )
        assert (
            view.last_timestamp_on(event_type, oid, instant)
            == window.last_timestamp_on(event_type, oid, instant)
        )
        assert [occurrence.eid for occurrence in view.occurrences_of(event_type)] == [
            occurrence.eid for occurrence in window.occurrences_of(event_type)
        ]
        assert [
            occurrence.eid
            for occurrence in view.occurrences_of(event_type, until=instant)
        ] == [
            occurrence.eid
            for occurrence in window.occurrences_of(event_type, until=instant)
        ]
    assert view.objects_affected_by(QUERY_TYPES) == window.objects_affected_by(
        QUERY_TYPES
    )
    assert (
        view.objects_affected_by(QUERY_TYPES, until=instant)
        == window.objects_affected_by(QUERY_TYPES, until=instant)
    )
    assert [
        occurrence.eid for occurrence in view.select(lambda o: o.oid == oid)
    ] == [occurrence.eid for occurrence in window.select(lambda o: o.oid == oid)]


@settings(max_examples=100, deadline=None)
@given(pair=bounded_pairs(), lower=st.integers(min_value=0, max_value=32))
def test_timestamps_after_matches_filtered_timestamps(pair, lower):
    event_base, after, until = pair
    view = event_base.view(after=after, until=until)
    assert view.timestamps_after(lower) == [
        stamp for stamp in view.timestamps() if stamp > lower
    ]


# ---------------------------------------------------------------------------
# View-specific behaviour
# ---------------------------------------------------------------------------


class TestBoundedViewBasics:
    def test_invalid_bounds_are_rejected(self):
        event_base = EventBase()
        with pytest.raises(EventCalculusError):
            BoundedView(event_base, after=5, until=3)

    def test_view_is_zero_copy_and_live_below_until(self):
        event_base = build_event_base([(A, "o1", 1)])
        view = event_base.view(after=None, until=None)
        assert len(view) == 1
        event_base.record(B, "o2", 2)
        # No bound: the view sees the appended occurrence without rebuilding.
        assert len(view) == 2
        assert view.latest_timestamp() == 2

    def test_bounded_view_over_eb_is_effectively_frozen(self):
        event_base = build_event_base([(A, "o1", 1), (B, "o2", 3)])
        view = event_base.view(after=None, until=3)
        before = list(view.occurrences)
        # The EB log is append-only in non-decreasing time-stamp order, so new
        # occurrences can never enter a view whose until bound has passed.
        event_base.record(A, "o3", 4)
        assert list(view.occurrences) == before

    def test_empty_window_case(self):
        event_base = build_event_base([(A, "o1", 1)])
        view = event_base.view(after=1, until=1)
        assert view.is_empty()
        assert view.timestamps() == []
        assert view.oids() == set()
        assert view.latest_timestamp() is None
        assert view.last_timestamp(A, 10) is None

    def test_class_level_pattern_sees_types_registered_after_first_query(self):
        """The _indexes_matching cache must be invalidated by new types."""
        event_base = build_event_base([(MOD_AX, "o1", 1)])
        view = event_base.full_view()
        assert view.last_timestamp(MOD_A, 10) == 1  # caches the resolution
        event_base.record(MOD_AY, "o1", 5)
        assert view.last_timestamp(MOD_A, 10) == 5

    def test_occurrences_property_is_cached_until_mutation(self):
        event_base = build_event_base([(A, "o1", 1)])
        first = event_base.occurrences
        assert event_base.occurrences is first
        event_base.record(B, "o2", 2)
        second = event_base.occurrences
        assert second is not first
        assert len(second) == 2

    def test_occurrence_at_returns_log_order(self):
        event_base = build_event_base([(A, "o1", 1), (B, "o2", 2)])
        assert event_base.occurrence_at(0).event_type == A
        assert event_base.occurrence_at(1).event_type == B


class TestTypeIndexFastPath:
    def test_out_of_order_window_construction_still_sorts(self):
        # The indexes only ever append, so EventWindow must sort unsorted
        # input before indexing it.
        occurrences = [
            EventOccurrence(eid=1, event_type=A, oid="o1", timestamp=5),
            EventOccurrence(eid=2, event_type=A, oid="o1", timestamp=2),
            EventOccurrence(eid=3, event_type=A, oid="o2", timestamp=9),
        ]
        window = EventWindow.of(occurrences)
        assert window.timestamps() == [2, 5, 9]
        assert window.last_timestamp(A, 6) == 5
        assert window.last_timestamp_on(A, "o1", 9) == 5

    def test_tied_timestamps_keep_insertion_order(self):
        event_base = EventBase()
        event_base.record(A, "o1", 3)
        event_base.record(B, "o2", 3)
        assert [occurrence.eid for occurrence in event_base] == [1, 2]
        assert event_base.timestamps() == [3]
