"""The delta transport of the process shard pool: one row log, two placements.

A shard worker keeps a **mirror** of the coordinator's Event Base, grown from
the log suffix it has not seen.  That suffix crosses in exactly one encoding,
whichever way the bytes travel:

* the coordinator appends every EB position **once** to a :class:`_RowLog` —
  48-byte :class:`~repro.events.event_base.SnapshotRowCodec` rows, the paper's
  ``(EID, event type, OID, time stamp)`` tuple — and a worker's delta is the
  slice ``[its offset, log end)`` of that log (fixed-width rows: one ``bytes``
  copy, no re-encoding), plus the event types it has not been sent yet;
* rows the fixed-width form cannot hold (a payload, a wide or exotic OID)
  leave a placeholder in the log and travel as ``EventOccurrence.snapshot()``
  tuples beside it; an unpicklable one fails in the coordinator, naming its
  EID, before anything is sent;
* the worker's :class:`_FrameReader` turns the delta back into occurrences and
  refuses (``SnapshotError``) a frame that does not add up.

Nothing is evicted before ``note_reset``: a worker that was not consulted for
a million events, or one that reconnects with an empty mirror, catches up from
the same log.  The price is 48 bytes per EB position in the coordinator.

A :class:`ShardTransport` therefore only decides **where workers live**:
:class:`PipeTransport` forks them on ``multiprocessing`` pipes (the default),
:class:`repro.cluster.net.TcpTransport` reaches them over sockets.  Both hand
the pool channels with the ``multiprocessing.Connection`` surface
(``send_bytes`` / ``recv_bytes`` raising ``EOFError`` / ``OSError`` on a dead
peer), so the worker loop in :mod:`repro.cluster.process_pool` is the same
code on either.
"""

from __future__ import annotations

import bisect
import multiprocessing
import operator
import pickle

from repro.config import EngineConfig
from repro.errors import SnapshotError
from repro.events.event import EventOccurrence
from repro.events.event_base import ROW_WIDTH, EventBase, SnapshotRowCodec

__all__ = ["PipeTransport", "ShardTransport", "create_transport"]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

_position = operator.itemgetter(0)


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
        "codec", "rows", "encoded", "fallback_rows", "rows_inline", "rows_fallback"
    )

    def __init__(self) -> None:
        self.codec = SnapshotRowCodec()
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
        encode = self.codec.encode_into
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
        :meth:`_FrameReader.read` takes.
        """
        first = bisect.bisect_left(self.fallback_rows, start, key=_position)
        return (
            start,
            self.encoded - start,
            bytes(self.rows[start * ROW_WIDTH : self.encoded * ROW_WIDTH]),
            tuple(self.fallback_rows[first:]),
            tuple(self.codec.type_snapshots[shipped_types:]),
        )

    def reset(self) -> None:
        """Forget the encoded log (the coordinator's EB was rebound)."""
        self.codec = SnapshotRowCodec()
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


class _FrameReader:
    """Worker side: decode the deltas of one log, in order.

    Stateful because the type table ships as prefix slices (``new_types``):
    the reader's codec must see every delta of the log in order — which the
    trip protocol guarantees.
    """

    __slots__ = ("codec",)

    def __init__(self) -> None:
        self.codec = SnapshotRowCodec()

    def read(self, delta: tuple, type_cache: dict) -> list[EventOccurrence]:
        """The occurrences of one delta, in log order."""
        start, count, packed, fallback_items, new_types = delta
        if len(packed) != count * ROW_WIDTH:
            raise SnapshotError(
                f"row frame is corrupt: {count} rows announced but "
                f"{len(packed)} bytes shipped (expected {count * ROW_WIDTH}); "
                "refusing to decode — close the pool and let the coordinator "
                "spawn a fresh one"
            )
        if new_types:
            self.codec.extend_types(new_types)
        fallbacks = dict(fallback_items)
        decode = self.codec.decode_from
        from_snapshot = EventOccurrence.from_snapshot
        occurrences: list[EventOccurrence] = []
        offset = 0
        for position in range(start, start + count):
            row = decode(packed, offset)
            if row is None:
                row = fallbacks.pop(position, None)
                if row is None:
                    raise SnapshotError(
                        "row frame codec divergence: position "
                        f"{position} is a fallback placeholder with no "
                        "out-of-band row"
                    )
            occurrences.append(from_snapshot(row, type_cache=type_cache))
            offset += ROW_WIDTH
        if fallbacks:
            raise SnapshotError(
                "row frame codec divergence: "
                f"{len(fallbacks)} out-of-band rows matched no placeholder "
                f"(positions {sorted(fallbacks)[:5]}...)"
            )
        return occurrences

    def reset(self) -> None:
        """New EB log: the positions (and type table) restart from zero."""
        self.codec = SnapshotRowCodec()


# ---------------------------------------------------------------------------
# The transport interface
# ---------------------------------------------------------------------------


class ShardTransport:
    """Worker placement behind one seam; the delta encoding is shared.

    Built from the engine's :class:`~repro.config.EngineConfig` record
    (:func:`create_transport`), which it also ships to every worker.  The
    pool calls, in order: :meth:`launch` once; then per trip
    :meth:`poll_refreshed` (reconnect bookkeeping), :meth:`begin_trip`
    (encode the unseen log tail once), and :meth:`delta_for` per lagging
    worker; :meth:`note_reset` when the coordinator's EB is rebound; and
    :meth:`shutdown` (idempotent — also reached via ``weakref.finalize``
    when a pool is abandoned) at the end of life.  A placement implements
    :meth:`launch`, :meth:`channel`, :meth:`process`, :meth:`poll_refreshed`
    and :meth:`shutdown`; the delta methods are the same row log for all.
    """

    name = "?"

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        # fork keeps startup in the low milliseconds and needs no re-imports;
        # the worker mains stay spawn-compatible for platforms without it.
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        self._row_log = _RowLog()

    # -- placement ----------------------------------------------------------
    def launch(self, num_workers: int, metrics_enabled: bool) -> None:
        """Start (or admit) ``num_workers`` workers and open their channels.

        Every worker receives the transport's ``config`` record itself plus
        the metrics flag (registries do not cross the process boundary).
        """
        raise NotImplementedError

    def channel(self, worker_id: int):
        """The worker's byte channel (``send_bytes`` / ``recv_bytes``)."""
        raise NotImplementedError

    def process(self, worker_id: int):
        """The local process behind the worker, if the transport spawned one."""
        return None

    def poll_refreshed(self) -> tuple[int, ...]:
        """Worker ids whose channel was replaced since the last poll.

        Pipes are never replaced; the TCP endpoint reports reconnected
        workers here so the pool can reset their shipping bookkeeping (defs
        + mirror re-sync from zero) before the next trip.
        """
        return ()

    def shutdown(self) -> None:
        """Stop workers and release transport resources (idempotent)."""
        raise NotImplementedError

    # -- deltas -------------------------------------------------------------
    def begin_trip(self, event_base: EventBase, total: int) -> None:
        """Encode the log through EB position ``total`` (once per position)."""
        self._row_log.encode_through(event_base, total)

    def delta_for(self, offset: int, shipped_types: int) -> tuple[tuple, int]:
        """``(delta, type-table length after applying it)`` for one lagging worker."""
        log = self._row_log
        return log.delta(offset, shipped_types), len(log.codec.type_snapshots)

    def note_reset(self) -> None:
        """The coordinator's EB was rebound: forget the encoded log."""
        self._row_log.reset()

    def extra_stats(self) -> dict:
        """Row-log counters merged into ``transport_stats()``."""
        return {
            "frame_rows_inline": self._row_log.rows_inline,
            "frame_rows_fallback": self._row_log.rows_fallback,
        }


class PipeTransport(ShardTransport):
    """Forked workers on ``multiprocessing`` pipes."""

    name = "pipe"

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self._members: list[tuple] = []

    def launch(self, num_workers: int, metrics_enabled: bool) -> None:
        from repro.cluster.process_pool import _worker_main

        context = multiprocessing.get_context(self.start_method)
        for worker_id in range(num_workers):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_end, self.config, metrics_enabled),
                name=f"shard-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._members.append((process, parent_end))

    def channel(self, worker_id: int):
        return self._members[worker_id][1]

    def process(self, worker_id: int):
        return self._members[worker_id][0]

    def shutdown(self) -> None:
        """Best-effort worker teardown."""
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


def create_transport(config: EngineConfig) -> ShardTransport:
    """Build the transport ``config.transport`` names."""
    if config.transport == "pipe":
        return PipeTransport(config)
    from repro.cluster.net import TcpTransport

    return TcpTransport(config)
