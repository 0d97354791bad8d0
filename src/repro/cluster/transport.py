"""The delta transport of the process shard pool: pipe workers and a column log.

A shard worker keeps a **mirror** of the coordinator's Event Base — only the
time-stamp indexes the compiled checks read
(:class:`~repro.events.event_base.StampIndex`), no occurrence objects — grown
from the log suffix it has not seen.  That suffix crosses in one form, and
this module is the only one that knows it:

* the coordinator logs every EB position **once** into two columns — the
  event type's id in a type table keyed by ``EventType`` equality, and the
  OID — and a worker's delta is ``(start, new event types, type ids, OIDs,
  time stamps)``: the suffix ``[its offset, log end)`` of those columns and of
  the EB's own stamp column, plus the event types it has not been sent yet.
  It rides in the pickled ``("check", …)`` message; the paper's
  ``(EID, type, OID, time stamp)`` row (Fig. 3) crosses without its EID and
  payload, which the mirror never reads;
* an OID that does not pickle fails the message's encode in the coordinator,
  before anything is sent, and :meth:`ShardTransport.culprit` names its EID;
* the worker's :func:`apply_delta` refuses a delta that does not continue
  its mirror before the mirror changes, then indexes it in one pass.

Nothing is evicted before ``note_reset``: a worker that was not consulted for
a million events catches up from the same columns.  The price is two list
slots per EB position in the coordinator.

:class:`ShardTransport` forks the workers on ``multiprocessing`` pipes —
channels with ``send_bytes`` / ``recv_bytes`` raising ``EOFError`` /
``OSError`` on a dead peer, which the worker loop in
:mod:`repro.cluster.process_pool` reads — and owns the column log.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Any

from repro.config import EngineConfig
from repro.errors import SnapshotError
from repro.events.event import EventType
from repro.events.event_base import EventBase, StampIndex

__all__ = ["ShardTransport", "apply_delta"]

_PROTOCOL = pickle.HIGHEST_PROTOCOL


def apply_delta(delta: tuple, types: list[EventType], mirror: StampIndex) -> None:
    """Index one delta into ``mirror``: all of it, or — refused — nothing.

    A delta is never empty: a worker whose mirror is current gets none.
    ``types`` is the event-type table shipped so far, in shipping order; the
    delta's new types extend it once the delta is accepted.  Refuses
    (:class:`SnapshotError`) a delta that does not start where the mirror
    ends or whose columns differ in length, and one naming a type id that
    was never shipped; refuses (:class:`~repro.errors.EventCalculusError`)
    a time stamp that decreases or is not positive.
    """
    start, new_types, type_ids, oids, stamps = delta
    if start != len(mirror):
        raise SnapshotError(
            f"delta starts at log position {start} but the mirror holds "
            f"{len(mirror)}; refusing it — close the pool and let the "
            "coordinator spawn a fresh one"
        )
    if not len(type_ids) == len(oids) == len(stamps):
        raise SnapshotError(
            f"delta columns disagree: {len(type_ids)} type ids, {len(oids)} "
            f"OIDs, {len(stamps)} time stamps"
        )
    shipped = len(types) + len(new_types)
    if not 0 <= min(type_ids) <= max(type_ids) < shipped:
        raise SnapshotError(
            f"delta names an event type that was never shipped (ids "
            f"{min(type_ids)}..{max(type_ids)}, {shipped} shipped)"
        )
    mirror._check_stamps(stamps)
    types.extend(new_types)
    mirror._index_rows(list(map(types.__getitem__, type_ids)), oids, stamps)


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
    """The pool's workers, forked on ``multiprocessing`` pipes, and the column log.

    Built from the engine's :class:`~repro.config.EngineConfig` record, which
    it ships to every worker as a fork argument.  The pool calls, in order:
    :meth:`launch` once; then per block :meth:`begin_trip` (log the unseen
    EB tail once) and :meth:`delta_for` per lagging worker (:meth:`culprit`
    when a message does not pickle); :meth:`note_reset` when the
    coordinator's EB is emptied; and :meth:`shutdown` (idempotent — also
    reached via ``weakref.finalize`` when a pool is abandoned) at the end of
    life.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        # fork keeps startup in the low milliseconds and needs no re-imports;
        # the worker main stays spawn-compatible for platforms without it.
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        #: The event types the type ids name, in first-logged order.
        self._types: list[EventType] = []
        self._type_ids: dict[EventType, int] = {}
        #: Per logged EB position: its event type's id and its OID.
        self._type_column: list[int] = []
        self._oids: list[Any] = []
        #: The log the columns describe; its stamp column ships as it is.
        self._event_base: EventBase | None = None
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
        """Log EB positions ``[logged, total)`` (once per position)."""
        self._event_base = event_base
        types, type_ids = self._types, self._type_ids
        type_column, oids = self._type_column, self._oids
        for occurrence in event_base.occurrences_between(len(type_column), total):
            event_type = occurrence.event_type
            type_id = type_ids.get(event_type)
            if type_id is None:
                type_id = type_ids[event_type] = len(types)
                types.append(event_type)
            type_column.append(type_id)
            oids.append(occurrence.oid)

    def delta_for(self, offset: int, shipped_types: int) -> tuple[tuple, int]:
        """``(delta, type-table length after applying it)`` for one lagging worker.

        The delta is what :func:`apply_delta` takes: ``(offset, event types
        beyond the first shipped_types, type ids, OIDs, time stamps)`` of
        the logged positions from ``offset`` on.
        """
        logged = len(self._type_column)
        delta = (
            offset,
            self._types[shipped_types:],
            self._type_column[offset:],
            self._oids[offset:],
            self._event_base._all_timestamps[offset:logged],
        )
        return delta, len(self._types)

    def culprit(self, delta: tuple | None) -> str:
        """`` (first offender: occurrence eid=N)`` for ``delta``'s first
        OID that does not pickle, else ``""``.

        The failure path of a message encode only: the happy path pickles
        each OID once, inside its message, and never probes one alone.
        """
        if delta is not None:
            for position, oid in enumerate(delta[3], delta[0]):
                try:
                    pickle.dumps(oid, _PROTOCOL)
                except Exception:
                    eid = self._event_base.occurrence_at(position).eid
                    return f" (first offender: occurrence eid={eid})"
        return ""

    def note_reset(self) -> None:
        """The coordinator's EB was emptied: forget the logged columns."""
        self._types.clear()
        self._type_ids.clear()
        self._type_column.clear()
        self._oids.clear()
