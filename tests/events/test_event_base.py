"""Tests for the Event Base and its windows (paper Fig. 3 / Fig. 4)."""

import pytest

from repro.core.compile import compile_check, ots, ts
from repro.core.expressions import Primitive
from repro.errors import EventCalculusError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase

from tests.conftest import A, B, C, PA, PB, event_base_from, history, last_stamp

MODIFY_STOCK_QTY = EventType(Operation.MODIFY, "stock", "quantity")
MODIFY_STOCK = EventType(Operation.MODIFY, "stock")
CREATE_STOCK = EventType(Operation.CREATE, "stock")


class TestEventBaseRecording:
    def test_record_assigns_sequential_eids(self):
        eb = EventBase()
        first = eb.record(A, "o1", 1)
        second = eb.record(B, "o2", 2)
        assert (first.eid, second.eid) == (1, 2)

    def test_append_rejects_duplicate_eids(self):
        eb = EventBase()
        eb.append(EventOccurrence(1, A, "o1", 1))
        with pytest.raises(EventCalculusError):
            eb.append(EventOccurrence(1, B, "o1", 2))

    def test_append_rejects_time_going_backwards(self):
        eb = EventBase()
        eb.record(A, "o1", 5)
        with pytest.raises(EventCalculusError):
            eb.record(B, "o1", 3)

    def test_append_allows_equal_timestamps(self):
        eb = EventBase()
        eb.record(A, "o1", 3)
        eb.record(B, "o2", 3)
        assert len(eb) == 2

    def test_extend(self):
        eb = EventBase()
        eb.extend([EventOccurrence(1, A, "o1", 1), EventOccurrence(2, B, "o2", 2)])
        assert len(eb) == 2

    def test_record_mints_above_the_eids_extend_stored(self):
        eb = EventBase()
        eb.extend([EventOccurrence(1, A, "o1", 1), EventOccurrence(2, B, "o2", 2)])
        assert eb.record(C, "o3", 3).eid == 3
        assert [occurrence.eid for occurrence in eb] == [1, 2, 3]

    def test_record_mints_above_the_eid_append_stored(self):
        eb = EventBase()
        eb.record(A, "o1", 1)
        eb.append(EventOccurrence(7, B, "o2", 2))
        assert eb.record(C, "o3", 3).eid == 8

    def test_refused_batch_does_not_move_the_minted_eid(self):
        eb = EventBase()
        eb.record(A, "o1", 5)
        with pytest.raises(EventCalculusError):
            eb.extend(
                [EventOccurrence(50, B, "o1", 6), EventOccurrence(51, B, "o1", 4)]
            )
        assert eb.record(C, "o2", 6).eid == 2

    def test_len_and_bool(self):
        eb = EventBase()
        assert not eb
        eb.record(A, "o1", 1)
        assert eb
        assert len(eb) == 1


class TestBulkExtend:
    """The single-pass bulk ``extend`` must be indistinguishable from a
    per-occurrence ``append`` loop — same indexes, same compiled reads — and
    must reject a bad batch atomically."""

    def stream(self, count: int, start_eid: int = 1, start_stamp: int = 1):
        types = [A, B, C, MODIFY_STOCK_QTY, MODIFY_STOCK]
        return [
            EventOccurrence(
                eid=start_eid + index,
                event_type=types[index % len(types)],
                oid=f"o{index % 7}",
                timestamp=start_stamp + index // 3,  # plenty of stamp ties
            )
            for index in range(count)
        ]

    def test_bulk_matches_per_append(self):
        batch = self.stream(300)
        bulk, loop = EventBase(), EventBase()
        bulk.extend(batch)
        for occurrence in batch:
            loop.append(occurrence)
        assert bulk.occurrences == loop.occurrences
        assert index_state(bulk) == index_state(loop)
        assert bulk.timestamps() == loop.timestamps()
        assert bulk.oids() == loop.oids()
        latest = bulk.latest_timestamp()
        for event_type in (A, MODIFY_STOCK, MODIFY_STOCK_QTY):
            assert last_stamp(bulk, event_type, latest) == last_stamp(
                loop, event_type, latest
            )
            assert bulk.occurrences_of(event_type) == loop.occurrences_of(event_type)
        for oid in bulk.oids():
            assert last_stamp(bulk, A, latest, oid) == last_stamp(loop, A, latest, oid)

    def test_bulk_extend_after_appends_continues_the_log(self):
        eb = EventBase()
        eb.record(A, "o1", 1)
        eb.extend(self.stream(200, start_eid=100, start_stamp=2))
        assert len(eb) == 201
        assert eb.get(100).timestamp == 2

    def test_bulk_extend_is_atomic_on_decreasing_stamp(self):
        eb = EventBase()
        eb.record(A, "o1", 5)
        bad = self.stream(200, start_eid=10, start_stamp=6)
        bad[150] = EventOccurrence(999, B, "o1", 1)  # stamp goes backwards
        with pytest.raises(EventCalculusError):
            eb.extend(bad)
        assert len(eb) == 1  # nothing of the batch was applied
        with pytest.raises(EventCalculusError):
            eb.get(10)

    def test_bulk_extend_is_atomic_on_duplicate_eid(self):
        eb = EventBase()
        eb.record(A, "o1", 1)  # takes EID 1
        bad = self.stream(200, start_eid=2, start_stamp=2)
        bad[40] = EventOccurrence(1, B, "o9", 3)  # clashes with the stored EID
        with pytest.raises(EventCalculusError):
            eb.extend(bad)
        assert len(eb) == 1

    def test_bulk_extend_rejects_intra_batch_duplicate_eids(self):
        eb = EventBase()
        batch = self.stream(200)
        batch[199] = EventOccurrence(batch[0].eid, B, "o9", batch[199].timestamp)
        with pytest.raises(EventCalculusError):
            eb.extend(batch)
        assert len(eb) == 0

    def test_small_batches_are_atomic_too(self):
        eb = EventBase()
        batch = self.stream(5)
        eb.extend(batch)
        assert len(eb) == 5
        bad = self.stream(5, start_eid=50, start_stamp=1)  # stamp 1 < current 2
        with pytest.raises(EventCalculusError):
            eb.extend(bad)
        assert len(eb) == 5

    def test_decreasing_stamp_leaves_every_index_untouched(self):
        # Nothing reorders rows inside the indexes: append and extend must
        # refuse a stamp that goes backwards before anything is indexed.
        eb = EventBase()
        eb.extend(self.stream(5, start_stamp=4))
        before = index_state(eb)
        with pytest.raises(EventCalculusError):
            eb.append(EventOccurrence(90, A, "o1", 3))
        with pytest.raises(EventCalculusError):
            eb.extend(
                [EventOccurrence(91, A, "o1", 6), EventOccurrence(92, B, "o2", 5)]
            )
        assert index_state(eb) == before
        assert eb.occurrences == tuple(self.stream(5, start_stamp=4))

    def test_extend_returns_the_type_signature_at_every_size(self):
        eb = EventBase()
        start = 1
        for size in (0, 1, 2, 24, 127, 128, 300):
            batch = self.stream(size, start_eid=start, start_stamp=start)
            start += size
            assert eb.extend(batch) == frozenset(o.event_type for o in batch)

    def test_bulk_extend_registers_new_types_for_class_patterns(self):
        # A class-level pattern bound before the bulk insert must see the
        # attribute-specific types the batch introduces: the binding's handle
        # is the store's live pattern list.
        eb = EventBase()
        eb.record(CREATE_STOCK, "o1", 1)
        check = compile_check(Primitive(MODIFY_STOCK))
        assert check.ts(eb, 10) == -10  # resolves the handle
        batch = [
            EventOccurrence(100 + i, MODIFY_STOCK_QTY, "o1", 2 + i) for i in range(150)
        ]
        eb.extend(batch)
        assert check.ts(eb, 1000) == batch[-1].timestamp


def index_state(store) -> tuple:
    """Everything the compiled kernels can read from ``store``, as plain data."""
    return (
        list(store._all_timestamps),
        list(store._distinct_timestamps),
        [
            (
                event_type,
                list(index.timestamps),
                list(index.positions),
                list(index.oids),
                {oid: list(times) for oid, times in index.per_oid.items()},
            )
            for event_type, index in store._by_type.items()
        ],
    )


def assert_columns(store, oid_at) -> int:
    """Every type index's columns are parallel, and ``oids[i]`` is the OID
    at log position ``positions[i]`` (``oid_at(position)``).  Returns the
    number of rows the columns hold, so callers can check nothing is lost."""
    rows = 0
    for index in store._by_type.values():
        assert len(index.oids) == len(index.timestamps) == len(index.positions)
        assert list(index.oids) == [oid_at(position) for position in index.positions]
        rows += len(index.oids)
    return rows


class TestTypeColumns:
    """``_TypeIndex.oids`` rides along with ``timestamps`` / ``positions``."""

    @staticmethod
    def oid_at(store):
        return lambda position: store.occurrence_at(position).oid

    def test_after_append(self):
        eb = EventBase()
        for eid, occurrence in enumerate(TestBulkExtend().stream(12), start=1):
            eb.append(occurrence)
            assert assert_columns(eb, self.oid_at(eb)) == eid

    @pytest.mark.parametrize("size", [0, 1, 5, 130])
    def test_after_extend(self, size):
        eb = EventBase()
        eb.record(A, "first", 1)
        eb.extend(TestBulkExtend().stream(size, start_eid=10, start_stamp=2))
        assert assert_columns(eb, self.oid_at(eb)) == size + 1


class TestFigure4Accessors:
    """The ``type / obj / timestamp / event_on_class`` functions of Fig. 4."""

    def test_type_of(self, figure3_eb):
        assert str(figure3_eb.type_of(1)) == "create(stock)"
        assert str(figure3_eb.type_of(5)) == "modify(stock.quantity)"
        assert str(figure3_eb.type_of(7)) == "delete(stock)"

    def test_obj(self, figure3_eb):
        assert figure3_eb.obj(3) == "o3"
        assert figure3_eb.obj(5) == "o1"
        assert figure3_eb.obj(6) == "o2"

    def test_timestamp(self, figure3_eb):
        assert figure3_eb.timestamp(5) == 5
        assert figure3_eb.timestamp(6) == 6
        assert figure3_eb.timestamp(7) == 7
        # e3 and e4 were generated by one block.
        assert figure3_eb.timestamp(3) == figure3_eb.timestamp(4) == 3

    def test_event_on_class(self, figure3_eb):
        assert figure3_eb.event_on_class(1) == "stock"
        assert figure3_eb.event_on_class(4) == "notFilledOrder"

    def test_unknown_eid_raises(self, figure3_eb):
        with pytest.raises(EventCalculusError):
            figure3_eb.get(99)


class TestQueries:
    """What the store answers, and what the compiled ``ts`` / ``ots`` of a
    primitive read from its indexes."""

    def test_last_timestamp(self):
        eb = event_base_from((A, "o1", 1), (A, "o2", 4), (B, "o1", 6))
        assert ts(PA, eb, 10) == 4
        assert ts(PA, eb, 3) == 1
        assert ts(PB, eb, 5) == -5

    def test_last_timestamp_on_object(self):
        eb = event_base_from((A, "o1", 1), (A, "o2", 4))
        assert ots(PA, eb, 10, "o1") == 1
        assert ots(PA, eb, 10, "o2") == 4
        assert ots(PA, eb, 10, "o3") == -10

    def test_class_level_modify_matches_attribute_specific(self, figure3_eb):
        # modify(stock) subscriptions must see modify(stock.quantity) rows.
        assert ts(Primitive(MODIFY_STOCK), figure3_eb, 10) == 6
        assert ts(Primitive(MODIFY_STOCK_QTY), figure3_eb, 10) == 6
        assert ots(Primitive(MODIFY_STOCK), figure3_eb, 10, "o1") == 5

    def test_occurrences_of_sorted_by_time(self, figure3_eb):
        occurrences = figure3_eb.occurrences_of(CREATE_STOCK)
        assert [occurrence.timestamp for occurrence in occurrences] == [1, 2]

    def test_occurrences_of_with_until(self, figure3_eb):
        occurrences = figure3_eb.occurrences_of(MODIFY_STOCK_QTY, until=5)
        assert [occurrence.eid for occurrence in occurrences] == [5]

    def test_objects_affected_by(self, figure3_eb):
        affected = figure3_eb.objects_affected_by([CREATE_STOCK, MODIFY_STOCK_QTY])
        assert affected == {"o1", "o2"}

    def test_event_types_and_oids(self, figure3_eb):
        assert last_stamp(figure3_eb, CREATE_STOCK, 7) == 2
        assert figure3_eb.oids() == {"o1", "o2", "o3", "o4"}

    def test_timestamps_deduplicated_and_sorted(self, figure3_eb):
        assert figure3_eb.timestamps() == [1, 2, 3, 5, 6, 7]

    def test_occurrences_of_a_class_match_a_scan(self, figure3_eb):
        stock_types = (CREATE_STOCK, MODIFY_STOCK, EventType(Operation.DELETE, "stock"))
        found = [row for t in stock_types for row in figure3_eb.occurrences_of(t)]
        scanned = [row for row in figure3_eb if row.event_on_class == "stock"]
        assert sorted(found, key=lambda row: row.eid) == scanned
        assert len(scanned) == 5


class TestOccurredEventsStructure:
    """Paper §5's Occurred-Events structure is the Event Base's type index.

    Each event type that occurred has one index of its occurrences, which
    keeps the type's latest time stamp; a class-level pattern reads every
    matching type.
    """

    MODIFY_STOCK_MIN = EventType(Operation.MODIFY, "stock", "minquantity")
    DELETE_STOCK = EventType(Operation.DELETE, "stock")

    @pytest.fixture
    def eb(self):
        return event_base_from(
            (CREATE_STOCK, "o1", 1),
            (MODIFY_STOCK_QTY, "o1", 3),
            (self.MODIFY_STOCK_MIN, "o2", 4),
            (MODIFY_STOCK_QTY, "o2", 6),
        )

    def test_one_index_per_occurred_type(self, eb):
        assert set(eb._by_type) == {row.event_type for row in eb} == {
            CREATE_STOCK,
            MODIFY_STOCK_QTY,
            self.MODIFY_STOCK_MIN,
        }

    def test_each_type_keeps_its_latest_time_stamp(self, eb):
        latest = eb.latest_timestamp()
        assert last_stamp(eb, MODIFY_STOCK_QTY, latest) == 6
        assert last_stamp(eb, self.MODIFY_STOCK_MIN, latest) == 4
        assert last_stamp(eb, MODIFY_STOCK, latest) == 6
        assert last_stamp(eb, self.DELETE_STOCK, latest) is None

    def test_occurrences_of_a_type_since_a_time_stamp(self, eb):
        def eids(store, event_type):
            return [occurrence.eid for occurrence in store.occurrences_of(event_type)]

        assert eids(eb, MODIFY_STOCK_QTY) == [2, 4]
        assert eids(eb, MODIFY_STOCK) == [2, 3, 4]
        assert eids(eb.view(after=3), MODIFY_STOCK_QTY) == [4]
        assert eids(eb.view(after=4), self.MODIFY_STOCK_MIN) == []

    def test_objects_affected(self, eb):
        assert eb.objects_affected_by([MODIFY_STOCK]) == {"o1", "o2"}
        assert eb.objects_affected_by([CREATE_STOCK]) == {"o1"}


class TestWindows:
    """``EventBase.view``: the window ``(after, until]`` of paper §4.5."""

    def test_window_bounds_are_half_open(self, figure3_eb):
        window = figure3_eb.view(after=2, until=6)
        assert [occurrence.eid for occurrence in window] == [3, 4, 5, 6]

    def test_window_with_no_bounds_is_full(self, figure3_eb):
        assert len(figure3_eb.full_view()) == len(figure3_eb)

    def test_window_after_only(self, figure3_eb):
        window = figure3_eb.view(after=5)
        assert [occurrence.eid for occurrence in window] == [6, 7]

    def test_window_until_only(self, figure3_eb):
        window = figure3_eb.view(until=2)
        assert [occurrence.eid for occurrence in window] == [1, 2]

    def test_invalid_bounds_rejected(self, figure3_eb):
        with pytest.raises(EventCalculusError):
            figure3_eb.view(after=5, until=3)

    def test_empty_window(self, figure3_eb):
        window = figure3_eb.view(after=7)
        assert len(window) == 0 and window.timestamps() == []
        assert window.latest_timestamp() is None

    def test_latest_timestamp(self, figure3_eb):
        assert figure3_eb.latest_timestamp() == 7
        assert figure3_eb.full_view().latest_timestamp() == 7

    def test_window_queries_ignore_out_of_range_events(self, figure3_eb):
        window = figure3_eb.view(after=2, until=6)
        # create(stock) occurrences are at t1 and t2, both excluded.
        assert ts(Primitive(CREATE_STOCK), window, 6) == -6
        assert ots(Primitive(CREATE_STOCK), window, 6, "o1") == -6
        assert ts(Primitive(MODIFY_STOCK), window, 6) == 6

    def test_history_helper_sorts_entries(self):
        window = history((B, "o1", 5), (A, "o1", 1), (C, "o2", 3))
        assert [occurrence.timestamp for occurrence in window] == [1, 3, 5]
