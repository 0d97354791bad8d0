"""Every query of the Event Base, over the whole log or a :class:`BoundedView`,
against a brute-force scan of the occurrence list.

The reference shares no code with the store: it filters the log by
``after < timestamp <= until`` and matches types with ``EventType.matches``.
The whole log is the window ``(None, None]``, asked of the Event Base itself.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import EventCalculusError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import BoundedView, EventBase

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
# The brute-force reference
# ---------------------------------------------------------------------------


def scan(event_base: EventBase, after, until) -> list[EventOccurrence]:
    """The occurrences of ``(after, until]``, in log order, by a linear scan."""
    return [
        occurrence
        for occurrence in event_base
        if (after is None or occurrence.timestamp > after)
        and (until is None or occurrence.timestamp <= until)
    ]


def last_of(rows: list[EventOccurrence]):
    return max((occurrence.timestamp for occurrence in rows), default=None)


def windows(event_base: EventBase, after, until):
    """What answers for ``(after, until]``: a view, and for the whole log the EB."""
    view = event_base.view(after=after, until=until)
    if after is None and until is None:
        return [view, event_base]
    return [view]


@settings(max_examples=200, deadline=None)
@given(pair=bounded_pairs())
def test_contents_match_a_scan(pair):
    event_base, after, until = pair
    rows = scan(event_base, after, until)
    for window in windows(event_base, after, until):
        assert len(window) == len(rows)
        assert window.is_empty() == (not rows)
        assert bool(window) == bool(rows)
        assert list(window.occurrences) == rows
        assert list(window) == rows
        assert window.latest_timestamp() == last_of(rows)
        assert window.timestamps() == sorted({row.timestamp for row in rows})
        assert window.oids() == {row.oid for row in rows}
        assert window.event_types() == {row.event_type for row in rows}


@settings(max_examples=200, deadline=None)
@given(pair=bounded_pairs(), instant=instants, oid=oids)
def test_calculus_queries_match_a_scan(pair, instant, oid):
    event_base, after, until = pair
    rows = scan(event_base, after, until)
    for window in windows(event_base, after, until):
        for event_type in QUERY_TYPES:
            typed = [row for row in rows if event_type.matches(row.event_type)]
            typed_early = [row for row in typed if row.timestamp <= instant]
            on_oid = [row for row in typed_early if row.oid == oid]
            assert window.last_timestamp(event_type, instant) == last_of(typed_early)
            assert window.last_timestamp_on(event_type, oid, instant) == last_of(on_oid)
            assert window.occurrences_of(event_type) == typed
            assert window.occurrences_of(event_type, instant) == typed_early
        matching = [
            row
            for row in rows
            if any(event_type.matches(row.event_type) for event_type in QUERY_TYPES)
        ]
        assert window.objects_affected_by(QUERY_TYPES) == {row.oid for row in matching}
        assert window.objects_affected_by(QUERY_TYPES, instant) == {
            row.oid for row in matching if row.timestamp <= instant
        }
        assert window.select(lambda row: row.oid == oid) == [
            row for row in rows if row.oid == oid
        ]


@settings(max_examples=100, deadline=None)
@given(pair=bounded_pairs(), lower=st.integers(min_value=0, max_value=32))
def test_timestamps_after_match_a_scan(pair, lower):
    event_base, after, until = pair
    rows = scan(event_base, after, until)
    expected = sorted({row.timestamp for row in rows if row.timestamp > lower})
    for window in windows(event_base, after, until):
        assert window.timestamps_after(lower) == expected


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

    def test_occurrence_at_returns_log_order(self):
        event_base = build_event_base([(A, "o1", 1), (B, "o2", 2)])
        assert event_base.occurrence_at(0).event_type == A
        assert event_base.occurrence_at(1).event_type == B


class TestTypeIndexFastPath:
    def test_tied_timestamps_keep_insertion_order(self):
        event_base = EventBase()
        event_base.record(A, "o1", 3)
        event_base.record(B, "o2", 3)
        assert [occurrence.eid for occurrence in event_base] == [1, 2]
        assert event_base.timestamps() == [3]
