"""The row format: fixed-width wire rows of the process pool's delta log.

Property tests pin the contract the row log rests on: every row that
``_RowEncoder`` writes inline, ``_FrameReader`` decodes to the *exact*
``(EID, event type, OID, time stamp)`` a fallback row's
``EventOccurrence.snapshot()`` tuple carries, so a worker mirror is the same
whichever form a row took.  Rows the encoder cannot inline (payloads, exotic
OIDs, out-of-range integers) must be classified as fallbacks
deterministically — a placeholder row the reader refuses to decode without
its out-of-band tuple — and corrupted or diverged rows must raise
:class:`SnapshotError` and leave the mirror as it was, never build a wrong
one.  (The log built on the format — offsets, type-table slices, resets, the
other refusals, the unpicklable-payload guard — is pinned in
``tests/cluster/test_row_log.py``.)
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.cluster.transport import ROW_WIDTH, _FrameReader, _RowEncoder
from repro.errors import SnapshotError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import StampIndex

UNIVERSE = (
    EventType(Operation.CREATE, "alpha"),
    EventType(Operation.DELETE, "alpha"),
    EventType(Operation.MODIFY, "alpha", "size"),
    EventType(Operation.MODIFY, "beta"),
    EventType(Operation.RAISE, "tick"),
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def random_occurrence(rng: random.Random, eid: int) -> EventOccurrence:
    """A random occurrence mixing inline-encodable and fallback rows."""
    roll = rng.random()
    oid: object
    if roll < 0.35:
        oid = rng.randint(-(1 << 40), 1 << 40)
    elif roll < 0.70:
        oid = f"{rng.choice(('alpha', 'beta'))}#{rng.randint(1, 999)}"
    elif roll < 0.78:
        oid = "oid-" + "x" * rng.randint(23, 40)  # straddles the 26-byte cap
    elif roll < 0.86:
        oid = rng.choice([INT64_MIN - 1, INT64_MAX + 1])  # out of int64
    elif roll < 0.93:
        oid = rng.choice([True, False])  # bool is not an int64 row
    else:
        oid = ("composite", rng.randint(0, 9))  # non-int/str OID
    return EventOccurrence(
        eid=eid,
        event_type=rng.choice(UNIVERSE),
        oid=oid,
        timestamp=rng.randint(1, 1 << 32),
        payload={"k": rng.randint(0, 9)} if rng.random() < 0.25 else {},
    )


def expect_inline(occurrence: EventOccurrence) -> bool:
    """The documented classification: which rows encode inline."""
    if occurrence.payload:
        return False
    oid = occurrence.oid
    if type(oid) is int:
        return INT64_MIN <= oid <= INT64_MAX
    if type(oid) is str:
        return len(oid.encode("utf-8")) <= 26
    return False


def encode_frame(
    encoder: _RowEncoder,
    occurrences: list[EventOccurrence],
    start: int = 0,
    shipped_types: int = 0,
) -> tuple[tuple, list[bool]]:
    """The delta a row log would ship for ``occurrences`` at ``start``.

    Returns the delta and, per row, whether it encoded inline.  Unlike the
    row log this neither validates nor pickles: tests feed it rows the log
    would never produce.
    """
    buffer = bytearray(len(occurrences) * ROW_WIDTH)
    inline: list[bool] = []
    fallbacks: list[tuple[int, tuple]] = []
    for index, occurrence in enumerate(occurrences):
        inline.append(encoder.encode_into(buffer, index * ROW_WIDTH, occurrence))
        if not inline[-1]:
            fallbacks.append((start + index, occurrence.snapshot()))
    delta = (
        start,
        len(occurrences),
        bytes(buffer),
        tuple(fallbacks),
        tuple(encoder.type_snapshots[shipped_types:]),
    )
    return delta, inline


def decoded_rows(reader: _FrameReader, delta: tuple) -> list[tuple]:
    """The reader's columns of ``delta``, as ``(eid, type snapshot, oid, stamp)``."""
    eids, types, oids, stamps = reader.decode(delta)
    return [
        (eid, event_type.snapshot(), oid, stamp)
        for eid, event_type, oid, stamp in zip(eids, types, oids, stamps)
    ]


def index_state(store: StampIndex) -> tuple:
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


def test_round_trip_matches_fallback_form_property():
    """Inline rows decode to the exact fields fallback rows carry."""
    for seed in range(30):
        rng = random.Random(seed)
        occurrences = [
            random_occurrence(rng, eid) for eid in range(1, rng.randint(2, 40))
        ]
        delta, inline = encode_frame(_RowEncoder(), occurrences)
        reader = _FrameReader()
        rows = decoded_rows(reader, delta)
        for index, occurrence in enumerate(occurrences):
            assert inline[index] == expect_inline(occurrence), (
                f"seed {seed}: eid {occurrence.eid} classified wrongly"
            )
            assert rows[index] == occurrence.snapshot()[:4], (
                f"seed {seed}: eid {occurrence.eid}"
            )
            assert type(rows[index][2]) is type(occurrence.oid)
        # Equal type snapshots decode to one shared EventType object, whether
        # the row named it by id or carried it out of band.
        _eids, types, _oids, _stamps = _FrameReader().decode(delta)
        interned = {}
        for event_type in types:
            assert interned.setdefault(event_type, event_type) is event_type


def test_fallback_classification_is_deterministic():
    alpha = EventType(Operation.CREATE, "alpha")
    encoder = _RowEncoder()

    def encodes(occurrence: EventOccurrence) -> bool:
        delta, (inline,) = encode_frame(encoder, [occurrence])
        if not inline:
            # A placeholder row is still written, so slot arithmetic stays
            # one row per occurrence — and it decodes only with its
            # out-of-band tuple.
            start, count, packed, _fallbacks, types = delta
            with pytest.raises(SnapshotError, match="no out-of-band row"):
                _FrameReader().decode((start, count, packed, (), types))
        assert decoded_rows(_FrameReader(), delta) == [occurrence.snapshot()[:4]]
        return inline

    def occurrence(**overrides) -> EventOccurrence:
        fields = dict(eid=1, event_type=alpha, oid=7, timestamp=5, payload={})
        fields.update(overrides)
        return EventOccurrence(**fields)

    assert encodes(occurrence())
    assert encodes(occurrence(oid="alpha#1"))
    # Payload-bearing rows always fall back, whatever the OID.
    assert not encodes(occurrence(payload={"k": 1}))
    # bool OIDs are not int64 rows (True would decode as 1, a different OID).
    assert not encodes(occurrence(oid=True))
    # bool eids likewise fall back rather than decoding as 0/1.
    assert not encodes(occurrence(eid=True))
    # Strings wider than the 26-byte field fall back; width is measured in
    # UTF-8 bytes, not characters.
    assert encodes(occurrence(oid="x" * 26))
    assert not encodes(occurrence(oid="x" * 27))
    assert encodes(occurrence(oid="é" * 13))  # 26 UTF-8 bytes
    assert not encodes(occurrence(oid="é" * 14))  # 28 UTF-8 bytes
    # Exotic OID types fall back.
    assert not encodes(occurrence(oid=("composite", 1)))
    assert not encodes(occurrence(oid=None))
    # eid / timestamp / int OIDs outside int64 fall back instead of wrapping.
    assert not encodes(occurrence(eid=INT64_MAX + 1))
    assert not encodes(occurrence(eid=INT64_MIN - 1))
    assert not encodes(occurrence(timestamp=INT64_MAX + 1))
    assert not encodes(occurrence(oid=INT64_MAX + 1))
    assert not encodes(occurrence(oid=INT64_MIN - 1))


def test_int64_boundary_values_encode_inline():
    alpha = EventType(Operation.MODIFY, "alpha", "size")
    occurrences = [
        EventOccurrence(eid=INT64_MAX, event_type=alpha, oid=INT64_MAX, timestamp=1),
        EventOccurrence(eid=INT64_MIN, event_type=alpha, oid=INT64_MIN, timestamp=1),
        EventOccurrence(eid=3, event_type=alpha, oid="", timestamp=INT64_MAX),
    ]
    delta, inline = encode_frame(_RowEncoder(), occurrences)
    assert all(inline)
    expected = [occurrence.snapshot()[:4] for occurrence in occurrences]
    assert decoded_rows(_FrameReader(), delta) == expected


def test_type_table_grows_incrementally_and_ships_as_prefix_slices():
    """The encoder interns each type once; the reader consumes the slices."""
    rng = random.Random(99)
    encoder = _RowEncoder()
    reader = _FrameReader()
    shipped = 0
    seen_types: list[EventType] = []
    for eid in range(1, 60):
        event_type = rng.choice(UNIVERSE)
        occurrence = EventOccurrence(
            eid=eid, event_type=event_type, oid=eid, timestamp=eid
        )
        # Ship only the incremental slice; the reader's table stays a prefix
        # of the encoder's and every row decodes mid-stream.
        delta, (inline,) = encode_frame(encoder, [occurrence], eid - 1, shipped)
        assert inline
        if event_type not in seen_types:
            seen_types.append(event_type)
        # The table holds exactly the distinct types met so far, in
        # first-met order — re-encoding a known type must not grow it.
        assert encoder.type_snapshots == [t.snapshot() for t in seen_types]
        shipped = len(encoder.type_snapshots)
        assert decoded_rows(reader, delta) == [occurrence.snapshot()[:4]]
        assert reader.types == seen_types
    assert len(encoder.type_snapshots) == len(UNIVERSE)


def test_unknown_oid_kind_raises_snapshot_error():
    buffer = bytearray(ROW_WIDTH)
    struct.pack_into("<qqIBB26s", buffer, 0, 1, 1, 0, 7, 0, b"")  # kind 7
    delta = (0, 1, bytes(buffer), (), (UNIVERSE[0].snapshot(),))
    mirror = StampIndex()
    before = index_state(mirror)
    with pytest.raises(SnapshotError, match="unknown OID kind"):
        _FrameReader().apply(delta, mirror)
    assert index_state(mirror) == before


def test_unshipped_type_index_raises_snapshot_error():
    occurrence = EventOccurrence(
        eid=1, event_type=EventType(Operation.RAISE, "tick"), oid=1, timestamp=1
    )
    delta, _ = encode_frame(_RowEncoder(), [occurrence])
    start, count, packed, fallbacks, _types = delta
    # A reader that never received the type-table slice must refuse the row
    # (codec divergence) instead of fabricating a type.
    mirror = StampIndex()
    before = index_state(mirror)
    with pytest.raises(SnapshotError, match="codec divergence"):
        _FrameReader().apply((start, count, packed, fallbacks, ()), mirror)
    assert index_state(mirror) == before


def test_fallback_rows_are_compact_builtins():
    """The fallback form stays plain tuples/strings/ints — no library objects."""
    rng = random.Random(5)
    for eid in range(1, 40):
        _eid, type_row, _oid, stamp, payload = random_occurrence(rng, eid).snapshot()
        assert _eid == eid and isinstance(stamp, int)
        assert isinstance(type_row, tuple) and isinstance(type_row[0], str)
        assert payload is None or isinstance(payload, dict)
