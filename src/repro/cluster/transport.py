"""The delta transport of the process shard pool: pipe workers and one row log.

A shard worker keeps a **mirror** of the coordinator's Event Base — only the
time-stamp indexes the compiled checks read
(:class:`~repro.events.event_base.StampIndex`), no occurrence objects — grown
from the log suffix it has not seen.  That suffix crosses in exactly one
encoding, and this module is the only one that knows it:

* the coordinator appends every EB position **once** to a :class:`_RowLog` —
  48-byte rows, the paper's ``(EID, event type, OID, time stamp)`` tuple
  (Fig. 3), with the event type interned into a side table — and a worker's
  delta is the slice ``[its offset, log end)`` of that log (fixed-width rows:
  one ``bytes`` copy, no re-encoding), plus the event types it has not been
  sent yet;
* rows the fixed-width form cannot hold (a payload, a wide or exotic OID)
  leave a placeholder in the log and travel as ``EventOccurrence.snapshot()``
  tuples beside it; an unpicklable one fails in the coordinator, naming its
  EID, before anything is sent;
* the worker's :class:`_FrameReader` decodes the delta in one pass straight
  into the mirror's indexes, and refuses a frame that does not add up
  before the mirror changes.

Nothing is evicted before ``note_reset``: a worker that was not consulted for
a million events catches up from the same log.  The price is 48 bytes per EB
position in the coordinator.

:class:`ShardTransport` forks the workers on ``multiprocessing`` pipes —
channels with ``send_bytes`` / ``recv_bytes`` raising ``EOFError`` /
``OSError`` on a dead peer, which the worker loop in
:mod:`repro.cluster.process_pool` reads — and owns the row log.
"""

from __future__ import annotations

import bisect
import multiprocessing
import operator
import pickle
import struct
from typing import Any

from repro.config import EngineConfig
from repro.errors import EventCalculusError, SnapshotError
from repro.events.clock import Timestamp
from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase, StampIndex

__all__ = ["ShardTransport"]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

_position = operator.itemgetter(0)


# ---------------------------------------------------------------------------
# The row format
# ---------------------------------------------------------------------------

#: One row: eid (int64), timestamp (int64), event-type id (uint32), OID kind
#: (uint8), OID length (uint8), OID bytes (fixed field).  48 bytes — cache-line
#: friendly, and wide enough that the common OIDs of every shipped workload
#: (small ints, short strings) encode inline.
_ROW_STRUCT = struct.Struct("<qqIBB26s")

#: Same 48-byte layout, with the OID field typed as a little-endian int64
#: plus 18 pad bytes: the int-OID row packs and unpacks without an
#: ``int.to_bytes`` / ``int.from_bytes`` round trip.
_ROW_STRUCT_INT = struct.Struct("<qqIBBq18x")
assert _ROW_STRUCT_INT.size == _ROW_STRUCT.size

ROW_WIDTH = _ROW_STRUCT.size

#: OID kinds.  ``FALLBACK`` marks a placeholder row: the occurrence did not
#: fit the fixed-width form (payload present, wide OID, exotic types) and its
#: full snapshot tuple travels out of band — the placeholder keeps the slot
#: arithmetic at exactly one row per occurrence.
_ROW_FALLBACK = 0
_ROW_INT_OID = 1
_ROW_STR_OID = 2

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_OID_BYTES = 26


class _RowEncoder:
    """Packs occurrences into rows, interning event types into a side table.

    Payload-free occurrences with small-int or short-string OIDs pack into one
    :data:`ROW_WIDTH`-byte slot each; the rows name their event type by its
    index in ``type_snapshots``, which crosses to a worker once per new type
    as prefix slices.  A row referencing an index the reader was not sent is
    divergence, and the reader refuses it.
    """

    __slots__ = ("type_snapshots", "_type_ids", "_type_refs")

    def __init__(self) -> None:
        #: Event-type snapshot tuples, indexed by the rows' type field.
        self.type_snapshots: list[tuple[str, str, str | None]] = []
        # Keyed by object identity (int hash, no per-row dataclass __hash__);
        # _type_refs pins every interned type so ids can never be reused.
        # Equal-but-distinct EventType objects cost one duplicate table entry
        # — harmless, the reader interns by snapshot value.
        self._type_ids: dict[int, int] = {}
        self._type_refs: list[EventType] = []

    def encode_into(self, buffer, offset: int, occurrence: EventOccurrence) -> bool:
        """Pack one occurrence at ``buffer[offset:offset + ROW_WIDTH]``.

        Returns ``False`` when the occurrence needs the fallback path (a
        placeholder row is still written, so positions stay one row per
        occurrence either way).
        """
        eid = occurrence.eid
        timestamp = occurrence.timestamp
        oid = occurrence.oid
        # Hot path: payload-free row with int64 fields packs the OID straight
        # into the 26-byte slot (little-endian, zero-padded — byte-identical
        # to the generic encoding below).
        if (
            type(oid) is int
            and type(eid) is int
            and type(timestamp) is int
            and not occurrence.payload
            and _INT64_MIN <= oid <= _INT64_MAX
            and _INT64_MIN <= eid <= _INT64_MAX
            and timestamp <= _INT64_MAX
        ):
            index = self._type_ids.get(id(occurrence.event_type))
            if index is None:
                index = self._intern_type(occurrence.event_type)
            _ROW_STRUCT_INT.pack_into(
                buffer, offset, eid, timestamp, index, _ROW_INT_OID, 8, oid
            )
            return True
        if (
            occurrence.payload
            or type(eid) is not int
            or type(timestamp) is not int
            or not _INT64_MIN <= eid <= _INT64_MAX
            or timestamp > _INT64_MAX
            or type(oid) is not str
        ):
            _ROW_STRUCT.pack_into(buffer, offset, 0, 0, 0, _ROW_FALLBACK, 0, b"")
            return False
        oid_raw = oid.encode("utf-8")
        if len(oid_raw) > _OID_BYTES:
            _ROW_STRUCT.pack_into(buffer, offset, 0, 0, 0, _ROW_FALLBACK, 0, b"")
            return False
        event_type = occurrence.event_type
        index = self._type_ids.get(id(event_type))
        if index is None:
            index = self._intern_type(event_type)
        _ROW_STRUCT.pack_into(
            buffer, offset, eid, timestamp, index, _ROW_STR_OID, len(oid_raw), oid_raw
        )
        return True

    def _intern_type(self, event_type: EventType) -> int:
        index = self._type_ids[id(event_type)] = len(self.type_snapshots)
        self.type_snapshots.append(event_type.snapshot())
        self._type_refs.append(event_type)
        return index


# ---------------------------------------------------------------------------
# The row log (coordinator encodes once, workers decode slices)
# ---------------------------------------------------------------------------


class _RowLog:
    """Coordinator side: the append-only log of encoded EB rows.

    EB position ``p`` lives at bytes ``[p * ROW_WIDTH, (p + 1) * ROW_WIDTH)``
    and is encoded exactly once per EB log; rows that cannot inline-encode
    keep their snapshot tuples in ``fallback_rows``, in position order.
    """

    __slots__ = (
        "encoder", "rows", "encoded", "fallback_rows", "rows_inline", "rows_fallback"
    )

    def __init__(self) -> None:
        self.encoder = _RowEncoder()
        self.rows = bytearray()
        #: EB positions ``[0, encoded)`` hold encoded rows.
        self.encoded = 0
        #: ``(position, snapshot tuple)`` of the rows that did not
        #: inline-encode, ascending — a delta takes a suffix by bisection.
        self.fallback_rows: list[tuple[int, tuple]] = []
        self.rows_inline = 0
        self.rows_fallback = 0

    def encode_through(self, event_base: EventBase, total: int) -> None:
        """Encode EB positions ``[encoded, total)`` onto the log tail.

        A fallback row whose payload or OID does not pickle raises
        :class:`SnapshotError` naming its EID — here, in the coordinator,
        before any worker message exists.  The rows before it stay encoded
        (and counted, once); a retry resumes at the offender.
        """
        if total <= self.encoded:
            return
        rows = self.rows
        encode = self.encoder.encode_into
        inline = 0
        offset = len(rows)
        rows.extend(bytes((total - self.encoded) * ROW_WIDTH))
        position = self.encoded
        try:
            for position, occurrence in enumerate(
                event_base.occurrences_between(self.encoded, total), self.encoded
            ):
                if encode(rows, offset, occurrence):
                    inline += 1
                else:
                    self.fallback_rows.append((position, _picklable_row(occurrence)))
                offset += ROW_WIDTH
        except BaseException:
            total = position
            del rows[total * ROW_WIDTH :]
            raise
        finally:
            self.rows_inline += inline
            self.rows_fallback += total - self.encoded - inline
            self.encoded = total

    def delta(self, start: int, shipped_types: int) -> tuple:
        """The delta for positions ``[start, encoded)``.

        ``(start, count, packed rows, fallback (position, row) pairs, event
        types beyond the first shipped_types)`` — what
        :meth:`_FrameReader.apply` takes.
        """
        first = bisect.bisect_left(self.fallback_rows, start, key=_position)
        return (
            start,
            self.encoded - start,
            bytes(self.rows[start * ROW_WIDTH : self.encoded * ROW_WIDTH]),
            tuple(self.fallback_rows[first:]),
            tuple(self.encoder.type_snapshots[shipped_types:]),
        )

    def reset(self) -> None:
        """Forget the encoded log (the coordinator's EB was emptied)."""
        self.encoder = _RowEncoder()
        self.rows.clear()
        self.encoded = 0
        self.fallback_rows.clear()


def _picklable_row(occurrence: EventOccurrence) -> tuple:
    """The occurrence's snapshot tuple, proven to pickle."""
    row = occurrence.snapshot()
    try:
        pickle.dumps(row, _PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            "event occurrence is not picklable — event payloads and OIDs "
            "must be picklable to cross a process boundary (first offender: "
            f"occurrence eid={row[0]}): {exc}"
        ) from exc
    return row


#: One delta as columns: ``(EIDs, event types, OIDs, time stamps)``.
_Columns = tuple[list[int], list[EventType], list[Any], list[Timestamp]]


class _FrameReader:
    """Worker side: apply the deltas of one log, in order, to a mirror.

    Stateful because the type table ships as prefix slices (``new_types``)
    and EIDs must stay unique across deltas: the reader must see every delta
    of the log in order — which the trip protocol guarantees.  A new log
    (``reset``) gets a new reader.
    """

    __slots__ = ("types", "_interned", "_eids")

    def __init__(self) -> None:
        #: The event types the rows' type ids name, in shipping order.
        self.types: list[EventType] = []
        #: One EventType object per snapshot value, however many ids (or
        #: fallback rows) name it — the mirror's type keys are shared.
        self._interned: dict[tuple, EventType] = {}
        #: Every EID applied from this log.
        self._eids: set[int] = set()

    def apply(self, delta: tuple, mirror: StampIndex) -> None:
        """Index one delta into ``mirror``: all of it, or — refused — nothing.

        Refuses a frame that does not add up (:meth:`decode`), a duplicate
        EID (within the delta or against earlier ones), and a time stamp
        that decreases or is not positive.
        """
        eids, types, oids, stamps = self.decode(delta)
        if not stamps:
            return
        mirror._check_batch(eids, self._eids, stamps)
        if stamps[0] <= 0:
            raise EventCalculusError(
                f"event occurrences require a positive time stamp (got {stamps[0]})"
            )
        self._eids.update(eids)
        mirror._index_rows(types, oids, stamps)

    def decode(self, delta: tuple) -> _Columns:
        """The columns of one delta's rows, in log order, in one pass.

        Raises :class:`SnapshotError` when the frame's length disagrees
        with its row count, a row has an unknown OID kind or names an event
        type that was not shipped, a placeholder has no out-of-band row, or
        an out-of-band row matches no placeholder — codec divergence or
        corrupted bytes, which must fail loudly rather than build a wrong
        mirror.
        """
        start, count, packed, fallback_items, new_types = delta
        if len(packed) != count * ROW_WIDTH:
            raise SnapshotError(
                f"row frame is corrupt: {count} rows announced but "
                f"{len(packed)} bytes shipped (expected {count * ROW_WIDTH}); "
                "refusing to decode — close the pool and let the coordinator "
                "spawn a fresh one"
            )
        intern = self._intern
        types = self.types
        types.extend(map(intern, new_types))
        fallbacks = dict(fallback_items)
        eids: list[int] = []
        row_types: list[EventType] = []
        oids: list[Any] = []
        stamps: list[Timestamp] = []
        add_eid, add_type, add_oid, add_stamp = (
            eids.append, row_types.append, oids.append, stamps.append
        )
        position = start
        for eid, stamp, type_id, kind, oid_len, oid in _ROW_STRUCT_INT.iter_unpack(
            packed
        ):
            if kind == _ROW_INT_OID or kind == _ROW_STR_OID:
                try:
                    event_type = types[type_id]
                except IndexError:
                    raise SnapshotError(
                        f"row codec divergence: position {position} references "
                        f"event type {type_id} but only {len(types)} types were "
                        "shipped"
                    ) from None
                if kind == _ROW_STR_OID:
                    offset = (position - start) * ROW_WIDTH
                    oid_raw = _ROW_STRUCT.unpack_from(packed, offset)[5]
                    oid = oid_raw[:oid_len].decode("utf-8")
            elif kind == _ROW_FALLBACK:
                row = fallbacks.pop(position, None)
                if row is None:
                    raise SnapshotError(
                        "row frame codec divergence: position "
                        f"{position} is a fallback placeholder with no "
                        "out-of-band row"
                    )
                eid, type_row, oid, stamp, _payload = row
                event_type = intern(type_row)
            else:
                raise SnapshotError(
                    f"row codec divergence: unknown OID kind {kind} "
                    f"at position {position}"
                )
            add_eid(eid)
            add_type(event_type)
            add_oid(oid)
            add_stamp(stamp)
            position += 1
        if fallbacks:
            raise SnapshotError(
                "row frame codec divergence: "
                f"{len(fallbacks)} out-of-band rows matched no placeholder "
                f"(positions {sorted(fallbacks)[:5]}...)"
            )
        return eids, row_types, oids, stamps

    def _intern(self, snapshot: tuple) -> EventType:
        event_type = self._interned.get(snapshot)
        if event_type is None:
            event_type = self._interned[snapshot] = EventType.from_snapshot(snapshot)
        return event_type


# ---------------------------------------------------------------------------
# The transport: forked workers on pipes, one row log
# ---------------------------------------------------------------------------


def _worker_entry(connection, inherited, config: EngineConfig, metrics_enabled):
    """A worker's first step: close the coordinator's pipe ends, then serve.

    A forked child holds a copy of every pipe end the coordinator held at the
    fork — its own worker's and each earlier worker's.  While any copy stays
    open, closing the coordinator's ends is no EOF to the worker, so a
    coordinator that dies without sending ``stop`` (killed by a signal) would
    leave it blocked in ``recv_bytes`` for good.
    """
    for end in inherited:
        end.close()
    from repro.cluster import process_pool

    process_pool._worker_main(connection, config, metrics_enabled)


class ShardTransport:
    """The pool's workers, forked on ``multiprocessing`` pipes, and the row log.

    Built from the engine's :class:`~repro.config.EngineConfig` record, which
    it ships to every worker as a fork argument.  The pool calls, in order:
    :meth:`launch` once; then per block :meth:`begin_trip` (encode the unseen
    log tail once) and :meth:`delta_for` per lagging worker;
    :meth:`note_reset` when the coordinator's EB is emptied; and
    :meth:`shutdown` (idempotent — also reached via ``weakref.finalize``
    when a pool is abandoned) at the end of life.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        # fork keeps startup in the low milliseconds and needs no re-imports;
        # the worker main stays spawn-compatible for platforms without it.
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        self._row_log = _RowLog()
        self._members: list[tuple] = []

    # -- workers ------------------------------------------------------------
    def launch(self, num_workers: int, metrics_enabled: bool) -> None:
        """Fork ``num_workers`` workers, each on its own pipe.

        Every worker receives the transport's ``config`` record itself plus
        the metrics flag (registries do not cross the process boundary).  A
        forked worker also gets the coordinator-side ends it inherits, to
        close (:func:`_worker_entry`); a spawned one inherits none.
        """
        context = multiprocessing.get_context(self.start_method)
        forked = self.start_method == "fork"
        for worker_id in range(num_workers):
            parent_end, child_end = context.Pipe()
            inherited = [end for _, end in self._members] + [parent_end]
            process = context.Process(
                target=_worker_entry,
                args=(
                    child_end,
                    inherited if forked else [],
                    self.config,
                    metrics_enabled,
                ),
                name=f"shard-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._members.append((process, parent_end))

    def channel(self, worker_id: int):
        """The worker's pipe end (``send_bytes`` / ``recv_bytes``)."""
        return self._members[worker_id][1]

    def process(self, worker_id: int):
        """The process behind the worker."""
        return self._members[worker_id][0]

    def shutdown(self) -> None:
        """Best-effort worker teardown (idempotent)."""
        stop = pickle.dumps(("stop",), _PROTOCOL)
        for process, connection in self._members:
            try:
                if process.is_alive():
                    connection.send_bytes(stop)
            except Exception:
                pass
        for process, connection in self._members:
            try:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
            except Exception:
                pass
            try:
                connection.close()
            except Exception:
                pass

    # -- deltas -------------------------------------------------------------
    def begin_trip(self, event_base: EventBase, total: int) -> None:
        """Encode the log through EB position ``total`` (once per position)."""
        self._row_log.encode_through(event_base, total)

    def delta_for(self, offset: int, shipped_types: int) -> tuple[tuple, int]:
        """``(delta, type-table length after applying it)`` for one lagging worker."""
        log = self._row_log
        return log.delta(offset, shipped_types), len(log.encoder.type_snapshots)

    def note_reset(self) -> None:
        """The coordinator's EB was emptied: forget the encoded log."""
        self._row_log.reset()

    def extra_stats(self) -> dict:
        """Row-log counters merged into ``transport_stats()``."""
        return {
            "frame_rows_inline": self._row_log.rows_inline,
            "frame_rows_fallback": self._row_log.rows_fallback,
        }
