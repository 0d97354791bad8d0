"""Delta transports of the process shard pool.

PR 4 wired the coordinator to its shard workers through one hard-coded
``multiprocessing`` pipe; PR 9 grafted the shared-memory ring onto the same
plumbing.  This module extracts the seam both were implicitly sharing — a
small **transport interface** the pool programs against, covering the three
delta encodings:

* ``pickle`` — the PR-4 path: each lagging worker's message carries a
  pickled :class:`~repro.events.event_base.WindowSnapshot` of the EB slice
  it has not seen;
* ``shm`` — the PR-9 path: fixed-width rows
  (:class:`~repro.events.event_base.SnapshotRowCodec`) written once into a
  ``multiprocessing.shared_memory`` ring, shipped as ``(start, count)``
  descriptors;
* ``tcp`` — PR 10 (:mod:`repro.cluster.net`): the same fixed-width rows
  framed into **length-prefixed socket messages**, so workers can live in
  other processes *or on other hosts* behind an asyncio coordinator
  endpoint.

A transport owns worker launch and the per-worker byte channels; the pool
keeps everything protocol-shaped — shipped-definition bookkeeping, segment
assembly, reply draining, poisoning.  The channel contract is deliberately
the ``multiprocessing.Connection`` surface (``send_bytes`` / ``recv_bytes``
raising ``EOFError`` / ``OSError`` on a dead peer), so the worker loop in
:mod:`repro.cluster.process_pool` runs unmodified over every transport.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
from multiprocessing import shared_memory

from repro.config import EngineConfig
from repro.errors import SnapshotError
from repro.events.event import EventOccurrence
from repro.events.event_base import ROW_WIDTH, EventBase, SnapshotRowCodec

__all__ = ["RING_ROWS", "ShardTransport", "create_transport"]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Capacity of the shared-memory ring, in rows (3 MiB of 48-byte rows).  A
#: worker lagging further than this falls back to a pickled snapshot.
RING_ROWS = 65536

#: Ring header: magic, format version, row width, capacity (rows).  Workers
#: re-validate it on every descriptor read, so corruption fails loudly.
_RING_HEADER = struct.Struct("<IIII")
_RING_HEADER_SIZE = 64
_RING_MAGIC = 0x43484D52  # "CHMR"
_RING_VERSION = 1


# ---------------------------------------------------------------------------
# Shared-memory ring (coordinator writes, workers read)
# ---------------------------------------------------------------------------


def _destroy_ring(shm) -> None:
    """Best-effort ring teardown (idempotent; also runs via weakref.finalize)."""
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


class _SnapshotRing:
    """Coordinator side of the shared-memory row ring.

    EB position ``p`` lives at slot ``p % capacity``; every position is
    encoded exactly once (per EB log), so any worker whose unseen slice fits
    inside the last ``capacity`` rows reads it with zero re-encoding.  Rows
    that cannot inline-encode keep their full snapshot tuples in
    ``fallback_rows`` for as long as their slots stay live.
    """

    __slots__ = (
        "capacity",
        "shm",
        "name",
        "codec",
        "encoded",
        "fallback_rows",
        "rows_inline",
        "rows_fallback",
    )

    def __init__(self, capacity_rows: int) -> None:
        self.capacity = capacity_rows
        self.shm = shared_memory.SharedMemory(
            create=True, size=_RING_HEADER_SIZE + capacity_rows * ROW_WIDTH
        )
        self.name = self.shm.name
        _RING_HEADER.pack_into(
            self.shm.buf, 0, _RING_MAGIC, _RING_VERSION, ROW_WIDTH, capacity_rows
        )
        self.codec = SnapshotRowCodec()
        #: EB positions ``[0, encoded)`` hold encoded rows (modulo capacity).
        self.encoded = 0
        #: position -> snapshot tuple for rows that did not inline-encode.
        self.fallback_rows: dict[int, tuple] = {}
        self.rows_inline = 0
        self.rows_fallback = 0

    def encode_through(self, event_base: EventBase, total: int) -> None:
        """Encode EB positions ``[encoded, total)`` into their ring slots."""
        if total <= self.encoded:
            return
        buf = self.shm.buf
        capacity = self.capacity
        encode = self.codec.encode_into
        occurrences = event_base.occurrences
        inline = fallback = 0
        position = self.encoded
        try:
            while position < total:
                # Slots of a run up to the ring edge are contiguous — walk
                # them with one add per row instead of a modulo + multiply.
                slot = position % capacity
                run_end = min(total, position + capacity - slot)
                offset = _RING_HEADER_SIZE + slot * ROW_WIDTH
                for position in range(position, run_end):
                    occurrence = occurrences[position]
                    if encode(buf, offset, occurrence):
                        inline += 1
                    else:
                        row = occurrence.snapshot()
                        # Same synchronous-failure contract as
                        # WindowSnapshot.pickled: an unpicklable user payload
                        # surfaces here, naming the occurrence, instead of
                        # crashing a worker.
                        try:
                            pickle.dumps(row, _PROTOCOL)
                        except Exception as exc:
                            raise SnapshotError(
                                "window snapshot is not picklable — event "
                                "payloads and OIDs must be picklable to cross "
                                "a process boundary (first offender: "
                                f"occurrence eid={row[0]}): {exc}"
                            ) from exc
                        self.fallback_rows[position] = row
                        fallback += 1
                    offset += ROW_WIDTH
                position = run_end
        finally:
            self.rows_inline += inline
            self.rows_fallback += fallback
        self.encoded = total
        horizon = total - capacity
        if horizon > 0 and self.fallback_rows:
            for position in [p for p in self.fallback_rows if p < horizon]:
                del self.fallback_rows[position]

    def descriptor(self, start: int, shipped_types: int) -> tuple | None:
        """The ``("shm", ...)`` delta for positions ``[start, encoded)``.

        ``None`` when the range no longer fits the ring (the lagging worker
        falls back to a pickled snapshot for this trip).
        """
        if self.encoded - start > self.capacity:
            return None
        fallbacks: tuple = ()
        if self.fallback_rows:
            fallbacks = tuple(
                sorted(
                    (position, row)
                    for position, row in self.fallback_rows.items()
                    if position >= start
                )
            )
        return (
            "shm",
            self.name,
            start,
            self.encoded - start,
            fallbacks,
            tuple(self.codec.type_snapshots[shipped_types:]),
        )

    def reset(self) -> None:
        """Forget the encoded log (the coordinator's EB was rebound)."""
        self.codec = SnapshotRowCodec()
        self.encoded = 0
        self.fallback_rows.clear()


class _RingReader:
    """Worker side: attach once, decode ``(offset, count)`` descriptors."""

    __slots__ = ("_shm", "name", "codec")

    def __init__(self) -> None:
        self._shm = None
        self.name: str | None = None
        self.codec = SnapshotRowCodec()

    def read(self, descriptor: tuple, type_cache: dict) -> list[EventOccurrence]:
        """The occurrences of one descriptor, in log order."""
        _, name, start, count, fallback_items, new_types = descriptor
        self._attach(name)
        buf = self._shm.buf
        magic, version, row_width, capacity = _RING_HEADER.unpack_from(buf, 0)
        if (
            magic != _RING_MAGIC
            or version != _RING_VERSION
            or row_width != ROW_WIDTH
            or capacity <= 0
            or len(buf) != _RING_HEADER_SIZE + capacity * ROW_WIDTH
        ):
            raise SnapshotError(
                "shared-memory ring header is corrupt (magic="
                f"{magic:#x} version={version} row_width={row_width} "
                f"capacity={capacity}); refusing to decode — close the pool "
                "and let the coordinator spawn a fresh one"
            )
        if new_types:
            self.codec.extend_types(new_types)
        fallbacks = dict(fallback_items)
        decode = self.codec.decode_from
        from_snapshot = EventOccurrence.from_snapshot
        occurrences: list[EventOccurrence] = []
        for position in range(start, start + count):
            offset = _RING_HEADER_SIZE + (position % capacity) * ROW_WIDTH
            row = decode(buf, offset)
            if row is None:
                row = fallbacks.pop(position, None)
                if row is None:
                    raise SnapshotError(
                        "shared-memory row codec divergence: position "
                        f"{position} is a fallback placeholder with no "
                        "out-of-band row"
                    )
            occurrences.append(from_snapshot(row, type_cache=type_cache))
        if fallbacks:
            raise SnapshotError(
                "shared-memory row codec divergence: "
                f"{len(fallbacks)} out-of-band rows matched no placeholder "
                f"(positions {sorted(fallbacks)[:5]}...)"
            )
        return occurrences

    def _attach(self, name: str) -> None:
        if self.name == name and self._shm is not None:
            return
        self.detach()
        shm = shared_memory.SharedMemory(name=name)
        # Attaching re-registers the segment with the resource tracker on
        # 3.8-3.12 (there is no track=False before 3.13).  Workers are forked,
        # so they share the coordinator's tracker process and the re-register
        # is an idempotent no-op there — an explicit unregister here would
        # instead erase the coordinator's own registration and make its
        # unlink complain.
        self._shm = shm
        self.name = name

    def reset(self) -> None:
        """New EB log: the positions (and type table) restart from zero."""
        self.codec = SnapshotRowCodec()

    def detach(self) -> None:
        if self._shm is not None:
            try:
                self._shm.close()
            except Exception:
                pass
            self._shm = None
            self.name = None


# ---------------------------------------------------------------------------
# Row frames (socket transport): the ring encoding without the ring
# ---------------------------------------------------------------------------


class _RowLog:
    """Coordinator side of the framed-row delta: an append-only row log.

    The socket transport cannot hand workers a shared segment, so it ships
    the same :class:`SnapshotRowCodec` rows **by value**: every EB position
    is encoded exactly once into a growing byte log, and each worker's delta
    is a zero-copy slice ``[start, encoded)`` of that log (rows are
    fixed-width, so a slice is one ``bytes`` copy, no re-encoding).  Unlike
    the ring, nothing is ever evicted — a worker that reconnects with an
    empty mirror re-syncs from position 0 off the same log, fallbacks
    included.
    """

    __slots__ = (
        "codec", "rows", "encoded", "fallback_rows", "rows_inline", "rows_fallback"
    )

    def __init__(self) -> None:
        self.codec = SnapshotRowCodec()
        self.rows = bytearray()
        #: EB positions ``[0, encoded)`` hold encoded rows.
        self.encoded = 0
        #: position -> snapshot tuple for rows that did not inline-encode.
        self.fallback_rows: dict[int, tuple] = {}
        self.rows_inline = 0
        self.rows_fallback = 0

    def encode_through(self, event_base: EventBase, total: int) -> None:
        """Encode EB positions ``[encoded, total)`` onto the log tail."""
        if total <= self.encoded:
            return
        rows = self.rows
        encode = self.codec.encode_into
        occurrences = event_base.occurrences
        inline = fallback = 0
        offset = len(rows)
        rows.extend(b"\x00" * ((total - self.encoded) * ROW_WIDTH))
        try:
            for position in range(self.encoded, total):
                occurrence = occurrences[position]
                if encode(rows, offset, occurrence):
                    inline += 1
                else:
                    # The fallback tuples ride inside the (pickled) worker
                    # message itself, so an unpicklable payload still fails
                    # synchronously — in the pool's encode step, before any
                    # worker message is sent.
                    self.fallback_rows[position] = occurrence.snapshot()
                    fallback += 1
                offset += ROW_WIDTH
        finally:
            self.rows_inline += inline
            self.rows_fallback += fallback
        self.encoded = total

    def delta(self, start: int, shipped_types: int) -> tuple:
        """The ``("rows", ...)`` delta for positions ``[start, encoded)``."""
        fallbacks: tuple = ()
        if self.fallback_rows:
            fallbacks = tuple(
                sorted(
                    (position, row)
                    for position, row in self.fallback_rows.items()
                    if position >= start
                )
            )
        return (
            "rows",
            start,
            self.encoded - start,
            bytes(self.rows[start * ROW_WIDTH : self.encoded * ROW_WIDTH]),
            fallbacks,
            tuple(self.codec.type_snapshots[shipped_types:]),
        )

    def reset(self) -> None:
        """Forget the encoded log (the coordinator's EB was rebound)."""
        self.codec = SnapshotRowCodec()
        self.rows.clear()
        self.encoded = 0
        self.fallback_rows.clear()


class _FrameReader:
    """Worker side of the framed-row delta: decode ``("rows", ...)`` tuples.

    Stateful for the same reason :class:`_RingReader` is: the type table
    ships as prefix slices (``new_types``), so the reader's codec must see
    every delta of the log in order — which the trip protocol guarantees.
    """

    __slots__ = ("codec",)

    def __init__(self) -> None:
        self.codec = SnapshotRowCodec()

    def read(self, delta: tuple, type_cache: dict) -> list[EventOccurrence]:
        """The occurrences of one framed delta, in log order."""
        _, start, count, packed, fallback_items, new_types = delta
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
    """Worker launch + byte channels + delta encoding, behind one seam.

    Built from the engine's :class:`~repro.config.EngineConfig` record
    (:func:`create_transport`), which it also ships to every worker.  The
    pool calls, in order: :meth:`launch` once; then per trip
    :meth:`poll_refreshed` (reconnect bookkeeping), :meth:`begin_trip`
    (encode the unseen log tail once), and :meth:`delta_for` per lagging
    worker; :meth:`note_reset` when the coordinator's EB is rebound; and
    :meth:`shutdown` (idempotent — also reached via ``weakref.finalize``
    when a pool is abandoned) at the end of life.
    """

    name = "?"

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        # fork keeps startup in the low milliseconds and needs no re-imports;
        # the worker mains stay spawn-compatible for platforms without it.
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]

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

        Pipe transports never replace a channel; the TCP endpoint reports
        reconnected workers here so the pool can reset their shipping
        bookkeeping (defs + mirror re-sync from zero) before the next trip.
        """
        return ()

    def begin_trip(self, event_base: EventBase, total: int, offsets: list[int]) -> None:
        """Per-trip delta preparation; ``offsets`` are the lagging workers'."""

    def delta_for(
        self, event_base: EventBase, total: int, offset: int, shipped_types: int
    ) -> tuple:
        """``(delta, advance_types)`` for one lagging worker.

        ``delta`` is ``bytes`` (a pickled snapshot) or a tagged tuple
        (``"shm"`` descriptor / ``"rows"`` frame); ``advance_types`` is the
        row-codec type-table length the worker holds after applying it
        (``None`` for pickled snapshots, which carry their own types).
        """
        raise NotImplementedError

    def note_reset(self) -> None:
        """The coordinator's EB was rebound: forget the encoded log."""

    def extra_stats(self) -> dict:
        """Transport-specific counters merged into ``transport_stats()``."""
        return {}

    def shutdown(self) -> None:
        """Stop workers and release transport resources (idempotent)."""
        raise NotImplementedError


def _shutdown_members(members: list[tuple]) -> None:
    """Best-effort worker teardown shared by every local transport."""
    stop = pickle.dumps(("stop",), _PROTOCOL)
    for process, connection in members:
        try:
            if process is None or process.is_alive():
                connection.send_bytes(stop)
        except Exception:
            pass
    for process, connection in members:
        try:
            if process is not None:
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


class _PipeTransport(ShardTransport):
    """Shared base of the single-host transports: forked workers on pipes."""

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self._members: list[tuple] = []
        #: offset -> pickled snapshot, valid for one trip (same EB total).
        self._trip_cache: dict[int, bytes] = {}

    def launch(self, num_workers: int, metrics_enabled: bool) -> None:
        from repro.cluster.process_pool import _worker_main

        self._prepare_fork()
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

    def _prepare_fork(self) -> None:
        pass

    def channel(self, worker_id: int):
        return self._members[worker_id][1]

    def process(self, worker_id: int):
        return self._members[worker_id][0]

    def begin_trip(self, event_base: EventBase, total: int, offsets: list[int]) -> None:
        self._trip_cache.clear()

    def _pickled_delta(self, event_base: EventBase, offset: int) -> bytes:
        delta = self._trip_cache.get(offset)
        if delta is None:
            delta = event_base.delta_snapshot(offset).pickled()
            self._trip_cache[offset] = delta
        return delta

    def shutdown(self) -> None:
        _shutdown_members(self._members)


class PickleTransport(_PipeTransport):
    """The PR-4 path: every delta is a pickled ``WindowSnapshot``."""

    name = "pickle"

    def delta_for(
        self, event_base: EventBase, total: int, offset: int, shipped_types: int
    ) -> tuple:
        return self._pickled_delta(event_base, offset), None


class ShmTransport(_PipeTransport):
    """The PR-9 path: a shared-memory row ring with pickled-snapshot fallback."""

    name = "shm"

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        #: The shared-memory ring, created lazily on the first shm dispatch.
        self.ring: _SnapshotRing | None = None

    def _prepare_fork(self) -> None:
        if self.start_method == "fork":
            # Spawn the resource tracker *before* forking: the children then
            # inherit its pipe, so a worker's shm attach re-registers the
            # ring with the coordinator's tracker (an idempotent no-op)
            # instead of spawning a private tracker that would try to unlink
            # the coordinator's live segment when the worker exits.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()

    def begin_trip(self, event_base: EventBase, total: int, offsets: list[int]) -> None:
        self._trip_cache.clear()
        if offsets:
            # Encode the unseen tail of the log once, into its ring slots —
            # every lagging worker then ships an (offset, count) descriptor
            # instead of a pickled snapshot.
            if self.ring is None:
                self.ring = _SnapshotRing(RING_ROWS)
            self.ring.encode_through(event_base, total)

    def delta_for(
        self, event_base: EventBase, total: int, offset: int, shipped_types: int
    ) -> tuple:
        ring = self.ring
        if ring is not None:
            descriptor = ring.descriptor(offset, shipped_types)
            if descriptor is not None:
                return descriptor, len(ring.codec.type_snapshots)
        # A worker lagging past the ring capacity falls back to the classic
        # pickled snapshot for this trip.
        return self._pickled_delta(event_base, offset), None

    def note_reset(self) -> None:
        if self.ring is not None:
            self.ring.reset()

    def extra_stats(self) -> dict:
        ring = self.ring
        if ring is None:
            return {}
        return {
            "shm_rows_inline": ring.rows_inline,
            "shm_rows_fallback": ring.rows_fallback,
        }

    def shutdown(self) -> None:
        super().shutdown()
        if self.ring is not None:
            # The ring outlives any single trip but never its pool: shutdown
            # unlinks the segment even when the pool is abandoned (or
            # poisoned) without a close().
            _destroy_ring(self.ring.shm)
            self.ring = None


def create_transport(config: EngineConfig) -> ShardTransport:
    """Build the transport ``config.transport`` names."""
    if config.transport == "pickle":
        return PickleTransport(config)
    if config.transport == "shm":
        return ShmTransport(config)
    from repro.cluster.net import TcpTransport

    return TcpTransport(config)
