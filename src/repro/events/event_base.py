"""The Event Base (EB) and its zero-copy bounded views.

The Event Base is "the log containing all the event occurrences since the
beginning of the transaction" (paper §4.1, Fig. 3): a database's one EB is
emptied in place when a transaction begins (:meth:`StampIndex.clear`).  The
composite-event calculus, however, is never applied to the whole EB directly:
the triggering semantics (paper §4.5) selects a *window* ``R`` of occurrences
— typically the occurrences newer than a rule's last consideration — and the
``ts`` / ``ots`` functions are computed over that window.

There is one store and one implementation of every calculus query: each
takes optional ``(after, until]`` bounds, and the whole log is ``(None,
None]``.  A :class:`BoundedView` is the store plus a pair of bounds — O(1)
to build, O(log n) per query — whose every method passes its bounds to the
store's.  It is what the Trigger Support and the condition formulas read
(see PERFORMANCE.md).

The store indexes occurrences by event type and by (event type, OID) so that
the calculus can answer its two fundamental questions in O(log n):

* the most recent occurrence of a type in ``(after, t]``;
* the most recent occurrence of a type *on a given object* in ``(after, t]``.

Those indexes need only each row's ``(event type, OID, time stamp)``, so they
live in :class:`StampIndex` on their own — which is all a process shard
worker's mirror of the EB is — and every batch enters them through one
single-pass routine, :meth:`StampIndex._index_rows`.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import EventCalculusError
from repro.events.clock import Timestamp
from repro.events.event import EventOccurrence, EventType

__all__ = ["EventBase", "BoundedView", "StampIndex", "WindowLike"]

#: ``True`` where an adjacent time-stamp pair decreases — used with ``map``
#: over a batch and its one-shifted self to order-check in C instead of a
#: Python comparison loop.
_stamp_decreases = operator.gt

#: Source of :attr:`StampIndex._serial`.
_store_serials = itertools.count()


def _bisect_span(
    stamps: Sequence[Timestamp], after: Timestamp | None, until: Timestamp | None
) -> tuple[int, int]:
    """Index range ``[start, stop)`` of the sorted ``stamps`` in ``(after, until]``."""
    start = 0 if after is None else bisect.bisect_right(stamps, after)
    stop = len(stamps) if until is None else bisect.bisect_right(stamps, until)
    return start, max(start, stop)


def _tighter(instant: Timestamp | None, until: Timestamp | None) -> Timestamp | None:
    """The earlier of a query's ``instant`` and a window's ``until`` (None: none)."""
    if until is None or (instant is not None and instant < until):
        return instant
    return until


class _TypeIndex:
    """Per-event-type index: time stamps, log positions and OIDs, plus per-OID stamps.

    ``timestamps``, ``positions`` and ``oids`` are parallel columns sorted by
    time stamp, ties in log order (the store only ever appends rows that
    continue its log order); ``positions`` locate each row in the owning
    store's log, so occurrence objects are looked up there rather than kept
    twice.  The ``oids`` column answers "objects of this type in ``(after,
    until]``" with two bisects on ``timestamps`` and one slice
    (:meth:`oids_between`), so affected-object queries cost the rows inside
    the bounds, never every object the log has seen.  ``per_oid`` answers
    the per-object lookups of ``ots``.
    """

    __slots__ = ("timestamps", "positions", "oids", "per_oid")

    def __init__(self) -> None:
        self.timestamps: list[Timestamp] = []
        self.positions = array("q")
        self.oids: list[Any] = []
        self.per_oid: dict[Any, list[Timestamp]] = defaultdict(list)

    def oids_between(
        self, after: Timestamp | None, until: Timestamp | None
    ) -> list[Any]:
        """The OID of every occurrence in ``(after, until]`` (repeats kept)."""
        start, stop = _bisect_span(self.timestamps, after, until)
        return self.oids[start:stop]


def _last_in(
    stamps: Sequence[Timestamp], after: Timestamp | None, instant: Timestamp
) -> Timestamp | None:
    """The greatest of the sorted ``stamps`` in ``(after, instant]``, or None.

    The one bounded lookup, by type (a type's ``timestamps``) and by type and
    OID (a ``per_oid`` list).
    """
    position = bisect.bisect_right(stamps, instant)
    last = stamps[position - 1] if position else None
    if last is None or (after is not None and last <= after):
        return None
    return last


class StampIndex:
    """The time-stamp indexes the calculus reads, without the occurrences.

    ``ts`` / ``ots`` (paper §3.1–3.2) only ask when a type last occurred, on
    the whole window or on one object, so this is everything the compiled
    kernels (:mod:`repro.core.compile`) touch:

    * ``_by_type`` — one :class:`_TypeIndex` per concrete event type;
    * ``_all_timestamps`` — the time stamp of every log position (always
      non-decreasing: every batch is validated to continue the log), so
      bounds locate a slice of the log by bisection;
    * ``_distinct_timestamps`` — the sorted, deduplicated time stamps, so
      :meth:`timestamps` is two bisects and a slice;
    * ``_by_pattern`` — per pattern, the live list of the indexes it matches
      (:meth:`_indexes_matching`).  A concrete type ``T`` only satisfies
      ``T`` and ``T.class_level``, so registering it appends its index to
      those two lists and no resolution is ever redone.

    Every query takes optional ``(after, until]`` window bounds; leaving both
    out asks the whole log.  A process shard worker's mirror of the Event
    Base is a bare ``StampIndex`` fed straight from the delta columns
    (:mod:`repro.cluster.transport`); :class:`EventBase` adds the occurrence
    objects on top.
    """

    def __init__(self) -> None:
        self._by_type: dict[EventType, _TypeIndex] = {}
        self._by_pattern: dict[EventType, list[_TypeIndex]] = {}
        self._all_timestamps: list[Timestamp] = []
        self._distinct_timestamps: list[Timestamp] = []
        #: Unique per store for the life of the process: what a binding's
        #: handles are checked against (a reference would pin a dead log).
        self._serial = next(_store_serials)

    # -- mutation ------------------------------------------------------
    def _check_stamps(self, stamps: Sequence[Timestamp]) -> None:
        """Refuse a non-empty batch's time stamps unless they continue the log.

        They must be positive, non-decreasing and no earlier than the last
        one indexed.  Every batch runs this before anything is indexed — an
        :class:`EventBase` ``extend``, a worker mirror's delta — so a refused
        batch leaves the store as it was.
        """
        stored = self._all_timestamps
        previous = stored[-1] if stored else stamps[0]
        if stamps[0] < previous or any(map(_stamp_decreases, stamps, stamps[1:])):
            for stamp in stamps:
                if stamp < previous:
                    raise EventCalculusError(
                        "event occurrences must be appended in non-decreasing "
                        f"time-stamp order (last={previous}, new={stamp})"
                    )
                previous = stamp
        if stamps[0] <= 0:
            raise EventCalculusError(
                f"event occurrences require a positive time stamp (got {stamps[0]})"
            )

    def _index_rows(
        self,
        types: Sequence[EventType],
        oids: Sequence[Any],
        stamps: Sequence[Timestamp],
    ) -> frozenset[EventType]:
        """Index a validated, non-empty batch of ``(event type, OID, stamp)`` rows.

        The one routine every batch goes through — an :class:`EventBase`
        ``extend``, a worker mirror's delta — in a single pass: each row
        appends its stamp, log position and OID to its type's columns and its
        stamp to the type's per-OID list.  The rows must continue the log
        (:meth:`_check_stamps`).  Returns the batch's type signature.
        """
        by_type = self._by_type
        position = len(self._all_timestamps)
        for event_type, oid, stamp in zip(types, oids, stamps):
            index = by_type.get(event_type)
            if index is None:
                index = self._register(event_type)
            index.timestamps.append(stamp)
            index.positions.append(position)
            index.oids.append(oid)
            index.per_oid[oid].append(stamp)
            position += 1
        self._all_timestamps.extend(stamps)
        # Non-decreasing stamps make duplicates adjacent, so an order-keeping
        # dedup of the batch is the new distinct suffix — minus a leading
        # stamp that ties the last one already recorded.
        distinct = self._distinct_timestamps
        unique = list(dict.fromkeys(stamps))
        if distinct and unique[0] == distinct[-1]:
            del unique[0]
        distinct.extend(unique)
        return frozenset(types)

    def clear(self) -> None:
        """Empty the log in place; the type table and pattern lists stay live."""
        for index in self._by_type.values():
            index.__init__()  # empty columns, same object: handles hold it
        self._all_timestamps.clear()
        self._distinct_timestamps.clear()

    def _register(self, event_type: EventType) -> _TypeIndex:
        """A new concrete type's index, appended to the patterns it satisfies."""
        index = self._by_type[event_type] = _TypeIndex()
        by_pattern = self._by_pattern
        by_pattern.setdefault(event_type, []).append(index)
        if event_type.attribute is not None:
            by_pattern.setdefault(event_type.class_level, []).append(index)
        return index

    # -- basic introspection -------------------------------------------
    def __len__(self) -> int:
        return len(self._all_timestamps)

    def _span(
        self, after: Timestamp | None = None, until: Timestamp | None = None
    ) -> tuple[int, int]:
        """Log positions ``[start, stop)`` of the occurrences in ``(after, until]``."""
        return _bisect_span(self._all_timestamps, after, until)

    def is_empty(
        self, after: Timestamp | None = None, until: Timestamp | None = None
    ) -> bool:
        """True when no occurrence falls in ``(after, until]`` (``R = {}``)."""
        start, stop = self._span(after, until)
        return start == stop

    def event_types(
        self, after: Timestamp | None = None, until: Timestamp | None = None
    ) -> set[EventType]:
        """The event types with at least one occurrence in ``(after, until]``."""
        present: set[EventType] = set()
        for event_type, index in self._by_type.items():
            start, stop = _bisect_span(index.timestamps, after, until)
            if stop > start:
                present.add(event_type)
        return present

    def oids(
        self, after: Timestamp | None = None, until: Timestamp | None = None
    ) -> set[Any]:
        """The OIDs affected by at least one occurrence in ``(after, until]``."""
        affected: set[Any] = set()
        for index in self._by_type.values():
            affected.update(index.oids_between(after, until))
        return affected

    def timestamps(
        self, after: Timestamp | None = None, until: Timestamp | None = None
    ) -> list[Timestamp]:
        """The distinct time stamps in ``(after, until]``, sorted."""
        start, stop = _bisect_span(self._distinct_timestamps, after, until)
        return self._distinct_timestamps[start:stop]

    def timestamps_after(
        self,
        lower: Timestamp,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> list[Timestamp]:
        """The distinct time stamps in ``(after, until]`` greater than ``lower``."""
        return self.timestamps(lower if after is None else max(lower, after), until)

    def latest_timestamp(
        self, after: Timestamp | None = None, until: Timestamp | None = None
    ) -> Timestamp | None:
        """The greatest time stamp in ``(after, until]``, or None when empty."""
        start, stop = self._span(after, until)
        return self._all_timestamps[stop - 1] if stop > start else None

    # -- matching over type patterns -------------------------------------
    def _indexes_matching(self, event_type: EventType) -> list[_TypeIndex]:
        """The live list of indexes whose concrete type matches the pattern.

        The list is the store's own: later registrations append to it, so a
        caller may keep it for the life of the store but must not mutate it.
        """
        matched = self._by_pattern.get(event_type)
        if matched is None:
            matched = self._by_pattern[event_type] = []
        return matched

    # -- queries used by the calculus ------------------------------------
    def last_timestamp(
        self,
        event_type: EventType,
        instant: Timestamp,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> Timestamp | None:
        """Latest stamp of ``event_type`` in ``(after, min(instant, until)]``."""
        bound = _tighter(instant, until)
        best: Timestamp | None = None
        for index in self._indexes_matching(event_type):
            candidate = _last_in(index.timestamps, after, bound)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        return best

    def last_timestamp_on(
        self,
        event_type: EventType,
        oid: Any,
        instant: Timestamp,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> Timestamp | None:
        """Latest ``event_type`` on ``oid`` in ``(after, min(instant, until)]``."""
        bound = _tighter(instant, until)
        best: Timestamp | None = None
        for index in self._indexes_matching(event_type):
            candidate = _last_in(index.per_oid.get(oid, ()), after, bound)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        return best

    def objects_affected_by(
        self,
        event_types: Iterable[EventType],
        instant: Timestamp | None = None,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> set[Any]:
        """OIDs affected by any of ``event_types`` in ``(after, min(instant, until)]``.

        Answered from each type's OID column: one bisect and one slice per
        matching type, no occurrence list materialized.
        """
        bound = _tighter(instant, until)
        affected: set[Any] = set()
        for event_type in event_types:
            for index in self._indexes_matching(event_type):
                affected.update(index.oids_between(after, bound))
        return affected


class EventBase(StampIndex):
    """The transaction-scoped log of all event occurrences (paper Fig. 3).

    Occurrences can be appended either fully formed (:meth:`append`,
    :meth:`extend`) or built from their parts (:meth:`record`), in which case
    the EB assigns the EID: one above the largest it holds, whoever stored
    it.  The indexes' log positions point into the occurrence list, which
    answers the queries that return occurrence objects.  The EB also exposes
    the Fig. 4 accessor functions (``type_of``, ``obj``, ``timestamp``,
    ``event_on_class``) keyed by EID.
    """

    def __init__(self) -> None:
        super().__init__()
        self._occurrences: list[EventOccurrence] = []
        self._by_eid: dict[int, EventOccurrence] = {}
        self._max_eid = 0

    def clear(self) -> None:
        """Empty the log in place; the next :meth:`record` mints EID 1."""
        super().clear()
        self._occurrences.clear()
        self._by_eid.clear()
        self._max_eid = 0

    # -- recording -------------------------------------------------------
    def record(
        self,
        event_type: EventType,
        oid: Any,
        timestamp: Timestamp,
        payload: dict[str, Any] | None = None,
    ) -> EventOccurrence:
        """Create an occurrence with a fresh EID and store it."""
        occurrence = EventOccurrence(
            eid=self._max_eid + 1,
            event_type=event_type,
            oid=oid,
            timestamp=timestamp,
            payload=payload or {},
        )
        self.append(occurrence)
        return occurrence

    def append(self, occurrence: EventOccurrence) -> None:
        """Store a fully formed occurrence (EIDs must be unique).

        The one-row spelling of :meth:`StampIndex._index_rows`: a single
        occurrence (every operation of a transaction) skips the batch
        set-up.
        """
        eid = occurrence.eid
        if eid in self._by_eid:
            raise EventCalculusError(f"duplicate EID {eid}")
        stamp = occurrence.timestamp
        stamps = self._all_timestamps
        if stamps and stamp < stamps[-1]:
            # The EB is a log: later entries may share a time stamp with
            # earlier ones but never precede them.
            raise EventCalculusError(
                "event occurrences must be appended in non-decreasing time-stamp order "
                f"(last={stamps[-1]}, new={stamp})"
            )
        position = len(stamps)
        self._occurrences.append(occurrence)
        self._by_eid[eid] = occurrence
        if eid > self._max_eid:
            self._max_eid = eid
        stamps.append(stamp)
        distinct = self._distinct_timestamps
        if not distinct or stamp > distinct[-1]:
            distinct.append(stamp)
        index = self._by_type.get(occurrence.event_type)
        if index is None:
            index = self._register(occurrence.event_type)
        index.timestamps.append(stamp)
        index.positions.append(position)
        index.oids.append(occurrence.oid)
        index.per_oid[occurrence.oid].append(stamp)

    def extend(self, occurrences: Iterable[EventOccurrence]) -> frozenset[EventType]:
        """Bulk-append a batch of occurrences.

        Validates the whole batch up front (unique EIDs, non-decreasing time
        stamps continuing the log order) and only then indexes it in one pass
        (:meth:`StampIndex._index_rows`) — so a rejected batch leaves the EB
        untouched.

        Returns the batch's type signature (the set of its event types),
        which the Event Handler passes on instead of hashing every
        occurrence's type a second time.
        """
        batch = occurrences if isinstance(occurrences, (list, tuple)) else list(
            occurrences
        )
        if len(batch) <= 1:
            if batch:
                self.append(batch[0])
            return frozenset(occurrence.event_type for occurrence in batch)
        eids = [occurrence.eid for occurrence in batch]
        if len(set(eids)) != len(eids) or not self._by_eid.keys().isdisjoint(eids):
            seen = set(self._by_eid)
            duplicate = next(eid for eid in eids if eid in seen or seen.add(eid))
            raise EventCalculusError(f"duplicate EID {duplicate}")
        stamps = [occurrence.timestamp for occurrence in batch]
        self._check_stamps(stamps)
        self._occurrences.extend(batch)
        signature = self._index_rows(
            [occurrence.event_type for occurrence in batch],
            [occurrence.oid for occurrence in batch],
            stamps,
        )
        self._by_eid.update(zip(eids, batch))
        self._max_eid = max(self._max_eid, max(eids))
        return signature

    # -- the occurrence log ----------------------------------------------
    def __iter__(self) -> Iterator[EventOccurrence]:
        return iter(self._occurrences)

    @property
    def occurrences(self) -> tuple[EventOccurrence, ...]:
        """All stored occurrences in insertion order (a copy of the log)."""
        return tuple(self._occurrences)

    def occurrence_at(self, position: int) -> EventOccurrence:
        """The occurrence at ``position`` in insertion order."""
        return self._occurrences[position]

    def occurrences_between(self, start: int, stop: int) -> list[EventOccurrence]:
        """The occurrences at positions ``[start, stop)`` in insertion order.

        Costs the slice, not the log: what per-block readers (the Event
        Handler's flush signature, the shard transport's column log) use
        instead of :attr:`occurrences`, which materializes every row.
        """
        return self._occurrences[start:stop]

    def occurrences_of(
        self,
        event_type: EventType,
        instant: Timestamp | None = None,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> list[EventOccurrence]:
        """Occurrences matching ``event_type`` in ``(after, min(instant, until)]``."""
        bound = _tighter(instant, until)
        matched: list[EventOccurrence] = []
        at = self._occurrences.__getitem__
        for index in self._indexes_matching(event_type):
            start, stop = _bisect_span(index.timestamps, after, bound)
            matched.extend(map(at, index.positions[start:stop]))
        matched.sort(key=lambda occurrence: (occurrence.timestamp, occurrence.eid))
        return matched

    def select(
        self,
        predicate: Callable[[EventOccurrence], bool],
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> list[EventOccurrence]:
        """Occurrences in ``(after, until]`` satisfying ``predicate``, in log order."""
        return [
            occurrence
            for occurrence in self.occurrences_between(*self._span(after, until))
            if predicate(occurrence)
        ]

    # -- Fig. 4 accessor functions ---------------------------------------
    def get(self, eid: int) -> EventOccurrence:
        """Return the occurrence with identifier ``eid``."""
        try:
            return self._by_eid[eid]
        except KeyError as exc:
            raise EventCalculusError(f"no event occurrence with EID {eid}") from exc

    def type_of(self, eid: int) -> EventType:
        """``type(e)`` of Fig. 4."""
        return self.get(eid).event_type

    def obj(self, eid: int) -> Any:
        """``obj(e)`` of Fig. 4."""
        return self.get(eid).oid

    def timestamp(self, eid: int) -> Timestamp:
        """``timestamp(e)`` of Fig. 4."""
        return self.get(eid).timestamp

    def event_on_class(self, eid: int) -> str:
        """``event_on_class(e)`` of Fig. 4."""
        return self.get(eid).event_on_class

    # -- windows ----------------------------------------------------------
    def view(
        self,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> "BoundedView":
        """The window ``R`` of occurrences with ``after < timestamp <= until``.

        ``after=None`` means "since the beginning of the transaction";
        ``until=None`` means "up to the latest recorded occurrence".  This is
        exactly the set the triggering predicate ``T(r, t)`` quantifies over:
        ``R = {e in EB | last_consideration < timestamp(e) <= t}``.
        """
        return BoundedView(self, after=after, until=until)

    def full_view(self) -> "BoundedView":
        """Zero-copy view spanning the whole transaction (preserving-rule view)."""
        return self.view(after=None, until=None)


class BoundedView:
    """The window ``(after, until]`` of an :class:`EventBase`, without a copy.

    The view is its parent, its bounds and one-line delegations: every query
    passes the bounds to the parent's one implementation.  The calculus takes
    it wherever it takes the EB, the window ``(None, None]``.  O(1) to build,
    which makes per-rule, per-block checks affordable (see PERFORMANCE.md).

    The view is *live*: occurrences appended to the parent afterwards become
    visible when they fall inside the bounds.  With ``until`` set this cannot
    happen (the log grows in non-decreasing time-stamp order), so a bounded
    view behaves exactly like a frozen window.
    """

    __slots__ = ("_parent", "after", "until")

    def __init__(
        self,
        parent: EventBase,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> None:
        if after is not None and until is not None and after > until:
            raise EventCalculusError(
                f"invalid window bounds: after={after} is later than until={until}"
            )
        self._parent = parent
        self.after = after
        self.until = until

    # -- basic introspection ------------------------------------------------
    def __len__(self) -> int:
        start, stop = self._parent._span(self.after, self.until)
        return stop - start

    def __iter__(self) -> Iterator[EventOccurrence]:
        return iter(self.occurrences)

    @property
    def occurrences(self) -> tuple[EventOccurrence, ...]:
        """The occurrences inside the bounds (materializes the slice)."""
        parent = self._parent
        return tuple(parent.occurrences_between(*parent._span(self.after, self.until)))

    def is_empty(self) -> bool:
        return self._parent.is_empty(self.after, self.until)

    def latest_timestamp(self) -> Timestamp | None:
        return self._parent.latest_timestamp(self.after, self.until)

    def event_types(self) -> set[EventType]:
        return self._parent.event_types(self.after, self.until)

    def oids(self) -> set[Any]:
        return self._parent.oids(self.after, self.until)

    def timestamps(self) -> list[Timestamp]:
        return self._parent.timestamps(self.after, self.until)

    def timestamps_after(self, lower: Timestamp) -> list[Timestamp]:
        return self._parent.timestamps_after(lower, self.after, self.until)

    # -- queries used by the calculus ----------------------------------------
    def last_timestamp(
        self, event_type: EventType, instant: Timestamp
    ) -> Timestamp | None:
        return self._parent.last_timestamp(event_type, instant, self.after, self.until)

    def last_timestamp_on(
        self, event_type: EventType, oid: Any, instant: Timestamp
    ) -> Timestamp | None:
        return self._parent.last_timestamp_on(
            event_type, oid, instant, self.after, self.until
        )

    def occurrences_of(
        self, event_type: EventType, instant: Timestamp | None = None
    ) -> list[EventOccurrence]:
        return self._parent.occurrences_of(event_type, instant, self.after, self.until)

    def objects_affected_by(
        self, event_types: Iterable[EventType], instant: Timestamp | None = None
    ) -> set[Any]:
        return self._parent.objects_affected_by(
            event_types, instant, self.after, self.until
        )

    def select(
        self, predicate: Callable[[EventOccurrence], bool]
    ) -> list[EventOccurrence]:
        return self._parent.select(predicate, self.after, self.until)


#: The occurrence sets ``R`` the calculus (``ts``/``ots``, condition
#: formulas, traces) accepts: the whole :class:`EventBase` or a
#: :class:`BoundedView` of it.
WindowLike = EventBase | BoundedView
