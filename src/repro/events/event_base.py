"""The Event Base (EB), event windows and zero-copy bounded views.

The Event Base is "the log containing all the event occurrences since the
beginning of the transaction" (paper §4.1, Fig. 3).  The composite-event
calculus, however, is never applied to the whole EB directly: the triggering
semantics (paper §4.5) selects a *window* ``R`` of occurrences — typically the
occurrences newer than a rule's last consideration — and the ``ts`` / ``ots``
functions are computed over that window.

Two window structures are provided:

* :class:`EventWindow` — a materialized, re-indexed copy of the slice.  Useful
  for building ad-hoc histories in tests and for detached analysis, but O(n)
  to construct;
* :class:`BoundedView` — a zero-copy lazy view that answers every calculus
  query by bisecting its ``(after, until]`` bounds against the parent store's
  sorted indexes.  O(1) to construct, O(log n) per query.  This is what the
  Trigger Support uses on its hot path (see PERFORMANCE.md).

Both structures index occurrences by event type and by (event type, OID) so
that the calculus can answer its two fundamental questions in O(log n):

* the most recent occurrence of a type at or before time ``t``;
* the most recent occurrence of a type *on a given object* at or before ``t``.

Those indexes need only each row's ``(event type, OID, time stamp)``, so they
live in :class:`StampIndex` on their own — which is all a process shard
worker's mirror of the EB is — and every batch enters them through one
single-pass routine, :meth:`StampIndex._index_rows`.
"""

from __future__ import annotations

import bisect
import operator
from array import array
from collections import defaultdict
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from repro.errors import EventCalculusError
from repro.events.clock import Timestamp
from repro.events.event import EidGenerator, EventOccurrence, EventType

__all__ = [
    "EventBase",
    "EventWindow",
    "BoundedView",
    "StampIndex",
    "WindowLike",
]

#: ``True`` where an adjacent time-stamp pair decreases — used with ``map``
#: over a batch and its one-shifted self to order-check in C instead of a
#: Python comparison loop.
_stamp_decreases = operator.gt


class _TypeIndex:
    """Per-event-type index: time stamps and log positions, plus per-OID stamps.

    ``timestamps`` and ``positions`` are parallel and sorted by time stamp,
    ties in log order (the store only ever appends rows that continue its
    log order); ``positions`` locate each row in the owning store's log, so
    occurrence objects are looked up there rather than kept twice.  The keys
    of ``per_oid`` double as the set of OIDs affected by the type, so
    affected-object queries never need to materialize occurrence lists.
    """

    __slots__ = ("timestamps", "positions", "per_oid")

    def __init__(self) -> None:
        self.timestamps: list[Timestamp] = []
        self.positions = array("q")
        self.per_oid: dict[Any, list[Timestamp]] = defaultdict(list)

    def last_at_or_before(self, instant: Timestamp) -> Timestamp | None:
        position = bisect.bisect_right(self.timestamps, instant)
        if position == 0:
            return None
        return self.timestamps[position - 1]

    def last_on_oid_at_or_before(
        self, oid: Any, instant: Timestamp
    ) -> Timestamp | None:
        times = self.per_oid.get(oid)
        if not times:
            return None
        position = bisect.bisect_right(times, instant)
        if position == 0:
            return None
        return times[position - 1]

    # -- bounded access (used by BoundedView) ---------------------------------
    def span(self, after: Timestamp | None, until: Timestamp | None) -> tuple[int, int]:
        """Index range ``[start, stop)`` of the occurrences in ``(after, until]``."""
        start = 0 if after is None else bisect.bisect_right(self.timestamps, after)
        stop = (
            len(self.timestamps)
            if until is None
            else bisect.bisect_right(self.timestamps, until)
        )
        return start, stop

    def last_in_bounds(
        self, after: Timestamp | None, instant: Timestamp
    ) -> Timestamp | None:
        """Most recent time stamp in ``(after, instant]``, or None."""
        last = self.last_at_or_before(instant)
        if last is None or (after is not None and last <= after):
            return None
        return last

    def last_on_oid_in_bounds(
        self, oid: Any, after: Timestamp | None, instant: Timestamp
    ) -> Timestamp | None:
        """Most recent time stamp on ``oid`` in ``(after, instant]``, or None."""
        last = self.last_on_oid_at_or_before(oid, instant)
        if last is None or (after is not None and last <= after):
            return None
        return last

    def oid_in_bounds(
        self, oid: Any, after: Timestamp | None, until: Timestamp | None
    ) -> bool:
        """True when ``oid`` has an occurrence of this type in ``(after, until]``."""
        times = self.per_oid.get(oid)
        if not times:
            return False
        if after is None and until is None:
            return True
        start = 0 if after is None else bisect.bisect_right(times, after)
        stop = len(times) if until is None else bisect.bisect_right(times, until)
        return stop > start


class StampIndex:
    """The time-stamp indexes the calculus reads, without the occurrences.

    ``ts`` / ``ots`` (paper §3.1–3.2) only ask when a type last occurred, on
    the whole window or on one object, so this is everything the compiled
    kernels (:mod:`repro.core.compile`) touch:

    * ``_by_type`` — one :class:`_TypeIndex` per concrete event type;
    * ``_all_timestamps`` — the time stamp of every log position (always
      non-decreasing: every batch is validated to continue the log), so
      bounded views can locate a slice by bisection;
    * ``_distinct_timestamps`` — the sorted, deduplicated time stamps, so
      :meth:`timestamps` is O(1) per call instead of O(n log n);
    * a cache of :meth:`_indexes_matching` resolutions, invalidated whenever a
      new event type is registered (class-level patterns may match it).

    A process shard worker's mirror of the Event Base is a bare
    ``StampIndex`` fed straight from the wire rows
    (:mod:`repro.cluster.transport`); :class:`EventBase` and
    :class:`EventWindow` add the occurrence objects on top.
    """

    def __init__(self) -> None:
        self._by_type: dict[EventType, _TypeIndex] = {}
        self._all_timestamps: list[Timestamp] = []
        self._distinct_timestamps: list[Timestamp] = []
        self._match_cache: dict[EventType, tuple[_TypeIndex, ...]] = {}

    # -- mutation ------------------------------------------------------
    def _check_batch(
        self,
        eids: Sequence[int],
        known_eids: Collection[int],
        stamps: Sequence[Timestamp],
    ) -> None:
        """Refuse a batch that would not continue the log.

        Its EIDs must be unique and absent from ``known_eids``, and its time
        stamps non-decreasing and no earlier than the last one indexed.  Run
        before anything is indexed, so a refused batch leaves the store as
        it was.
        """
        if len(set(eids)) != len(eids) or not known_eids.isdisjoint(eids):
            seen = set(known_eids)
            duplicate = next(eid for eid in eids if eid in seen or seen.add(eid))
            raise EventCalculusError(f"duplicate EID {duplicate}")
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

    def _index_rows(
        self,
        types: Sequence[EventType],
        oids: Sequence[Any],
        stamps: Sequence[Timestamp],
    ) -> frozenset[EventType]:
        """Index a validated, non-empty batch of ``(event type, OID, stamp)`` rows.

        The one routine every batch goes through — an :class:`EventBase`
        ``extend``, an :class:`EventWindow`'s construction, a worker mirror's
        delta — in a single pass: each row appends its stamp and log
        position to its type's index and its stamp to the type's per-OID
        list.  The rows must continue the log (:meth:`_check_batch`).  New
        types drop the pattern-match cache once for the batch.  Returns the
        batch's type signature.
        """
        by_type = self._by_type
        registered = len(by_type)
        position = len(self._all_timestamps)
        for event_type, oid, stamp in zip(types, oids, stamps):
            index = by_type.get(event_type)
            if index is None:
                index = by_type[event_type] = _TypeIndex()
            index.timestamps.append(stamp)
            index.positions.append(position)
            index.per_oid[oid].append(stamp)
            position += 1
        if len(by_type) != registered:
            # New concrete types may be matched by previously resolved
            # class-level patterns.
            self._match_cache.clear()
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

    # -- basic introspection -------------------------------------------
    def __len__(self) -> int:
        return len(self._all_timestamps)

    def is_empty(self) -> bool:
        """True when no occurrence is stored (``R = {}``)."""
        return not self._all_timestamps

    def event_types(self) -> set[EventType]:
        """The set of event types with at least one stored occurrence."""
        return set(self._by_type)

    def oids(self) -> set[Any]:
        """The set of OIDs affected by at least one stored occurrence."""
        return set().union(*[index.per_oid for index in self._by_type.values()])

    def timestamps(self) -> list[Timestamp]:
        """All time stamps present, sorted and deduplicated."""
        return list(self._distinct_timestamps)

    def timestamps_after(self, lower: Timestamp) -> list[Timestamp]:
        """The distinct time stamps strictly greater than ``lower``."""
        position = bisect.bisect_right(self._distinct_timestamps, lower)
        return self._distinct_timestamps[position:]

    def latest_timestamp(self) -> Timestamp | None:
        """The greatest time stamp stored, or None when empty."""
        if not self._distinct_timestamps:
            return None
        return self._distinct_timestamps[-1]

    # -- matching over type patterns -------------------------------------
    def _indexes_matching(self, event_type: EventType) -> tuple[_TypeIndex, ...]:
        """Indexes whose concrete type matches the (possibly class-level) pattern.

        Resolutions are memoized; the cache is dropped whenever a new event
        type registers an index.
        """
        cached = self._match_cache.get(event_type)
        if cached is not None:
            return cached
        matched: list[_TypeIndex] = []
        exact = self._by_type.get(event_type)
        if exact is not None:
            matched.append(exact)
        if event_type.attribute is None:
            for stored_type, index in self._by_type.items():
                if stored_type != event_type and event_type.matches(stored_type):
                    matched.append(index)
        resolved = tuple(matched)
        self._match_cache[event_type] = resolved
        return resolved

    # -- queries used by the calculus ------------------------------------
    def last_timestamp(
        self, event_type: EventType, instant: Timestamp
    ) -> Timestamp | None:
        """Time stamp of the most recent occurrence of ``event_type`` at/before ``instant``."""
        best: Timestamp | None = None
        for index in self._indexes_matching(event_type):
            candidate = index.last_at_or_before(instant)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        return best

    def last_timestamp_on(
        self, event_type: EventType, oid: Any, instant: Timestamp
    ) -> Timestamp | None:
        """Most recent occurrence of ``event_type`` on ``oid`` at/before ``instant``."""
        best: Timestamp | None = None
        for index in self._indexes_matching(event_type):
            candidate = index.last_on_oid_at_or_before(oid, instant)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        return best

    def objects_affected_by(
        self,
        event_types: Iterable[EventType],
        until: Timestamp | None = None,
    ) -> set[Any]:
        """OIDs affected by any of ``event_types`` (optionally at/before ``until``).

        Answered from the per-type OID sub-indexes: with no bound the keys of
        ``per_oid`` are the affected set, with a bound an OID qualifies when
        its earliest occurrence is at/before ``until`` — no occurrence list is
        materialized either way.
        """
        affected: set[Any] = set()
        for event_type in event_types:
            for index in self._indexes_matching(event_type):
                if until is None:
                    affected.update(index.per_oid)
                else:
                    for oid, times in index.per_oid.items():
                        if times[0] <= until:
                            affected.add(oid)
        return affected


class _OccurrenceStore(StampIndex):
    """A :class:`StampIndex` that also keeps the occurrences, in log order.

    The indexes' log positions point into ``_occurrences``, which answers the
    queries that return occurrence objects; :attr:`occurrences` caches its
    tuple form, so repeated access (window construction, iteration-heavy
    analyses) does not copy the log each time.
    """

    def __init__(self) -> None:
        super().__init__()
        self._occurrences: list[EventOccurrence] = []
        self._occurrences_cache: tuple[EventOccurrence, ...] | None = None

    def _append_batch(
        self, batch: Sequence[EventOccurrence], stamps: Sequence[Timestamp]
    ) -> frozenset[EventType]:
        """Store a validated, non-empty batch (``stamps`` its time stamps)."""
        self._occurrences.extend(batch)
        self._occurrences_cache = None
        return self._index_rows(
            [occurrence.event_type for occurrence in batch],
            [occurrence.oid for occurrence in batch],
            stamps,
        )

    # -- basic introspection -------------------------------------------
    def __iter__(self) -> Iterator[EventOccurrence]:
        return iter(self._occurrences)

    @property
    def occurrences(self) -> tuple[EventOccurrence, ...]:
        """All stored occurrences in insertion order (cached, read-only)."""
        if self._occurrences_cache is None:
            self._occurrences_cache = tuple(self._occurrences)
        return self._occurrences_cache

    def occurrence_at(self, position: int) -> EventOccurrence:
        """The occurrence at ``position`` in insertion order."""
        return self._occurrences[position]

    def occurrences_between(self, start: int, stop: int) -> list[EventOccurrence]:
        """The occurrences at positions ``[start, stop)`` in insertion order.

        Costs the slice, not the log: what per-block readers (the Event
        Handler's flush, the row log's encoder) use instead of
        :attr:`occurrences`, which materializes every row.
        """
        return self._occurrences[start:stop]

    def occurrences_of(
        self,
        event_type: EventType,
        until: Timestamp | None = None,
    ) -> list[EventOccurrence]:
        """All occurrences matching ``event_type`` (optionally at/before ``until``)."""
        matched: list[EventOccurrence] = []
        at = self._occurrences.__getitem__
        for index in self._indexes_matching(event_type):
            _start, stop = index.span(None, until)
            matched.extend(map(at, index.positions[:stop]))
        matched.sort(key=lambda occurrence: (occurrence.timestamp, occurrence.eid))
        return matched

    def select(
        self, predicate: Callable[[EventOccurrence], bool]
    ) -> list[EventOccurrence]:
        """All occurrences satisfying ``predicate`` (in insertion order)."""
        return [occurrence for occurrence in self._occurrences if predicate(occurrence)]


class EventBase(_OccurrenceStore):
    """The transaction-scoped log of all event occurrences (paper Fig. 3).

    Occurrences can be appended either fully formed (:meth:`append`) or built
    from their parts (:meth:`record`), in which case the EB assigns the EID.
    The EB also exposes the Fig. 4 accessor functions (``type_of``, ``obj``,
    ``timestamp``, ``event_on_class``) keyed by EID.
    """

    def __init__(self) -> None:
        super().__init__()
        self._eids = EidGenerator()
        self._by_eid: dict[int, EventOccurrence] = {}

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
            eid=self._eids.next(),
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
        if occurrence.eid in self._by_eid:
            raise EventCalculusError(f"duplicate EID {occurrence.eid}")
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
        self._occurrences_cache = None
        self._by_eid[occurrence.eid] = occurrence
        stamps.append(stamp)
        distinct = self._distinct_timestamps
        if not distinct or stamp > distinct[-1]:
            distinct.append(stamp)
        index = self._by_type.get(occurrence.event_type)
        if index is None:
            index = self._by_type[occurrence.event_type] = _TypeIndex()
            self._match_cache.clear()
        index.timestamps.append(stamp)
        index.positions.append(position)
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
        stamps = [occurrence.timestamp for occurrence in batch]
        self._check_batch(eids, self._by_eid.keys(), stamps)
        signature = self._append_batch(batch, stamps)
        self._by_eid.update(zip(eids, batch))
        return signature

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
    def window(
        self,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> "EventWindow":
        """Materialize the window ``R`` of occurrences with ``after < timestamp <= until``.

        ``after=None`` means "since the beginning of the transaction";
        ``until=None`` means "up to the latest recorded occurrence".  This is
        exactly the set the triggering predicate ``T(r, t)`` quantifies over:
        ``R = {e in EB | last_consideration < timestamp(e) <= t}``.  Prefer
        :meth:`view` when the window is only queried, not kept: it answers the
        same questions without copying the log.
        """
        return EventWindow(self, after=after, until=until)

    def full_window(self) -> "EventWindow":
        """Materialized window spanning the whole transaction."""
        return self.window(after=None, until=None)

    def view(
        self,
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> "BoundedView":
        """Zero-copy view of the occurrences with ``after < timestamp <= until``."""
        return BoundedView(self, after=after, until=until)

    def full_view(self) -> "BoundedView":
        """Zero-copy view spanning the whole transaction (preserving-rule view)."""
        return self.view(after=None, until=None)


class EventWindow(_OccurrenceStore):
    """An immutable, materialized view over a slice of the Event Base.

    The window copies (and re-indexes) the occurrences that fall in the
    half-open interval ``(after, until]``; the calculus then only ever talks to
    the window.  Keeping the window explicit mirrors the paper's remark that
    "the event calculus can be applied to a generic set of event occurrences;
    orthogonally, the triggering semantics defines this set".  Construction is
    O(n): on hot paths use :class:`BoundedView` instead, which answers the
    same query API by bisecting the parent's indexes.
    """

    def __init__(
        self,
        source: EventBase | Iterable[EventOccurrence],
        after: Timestamp | None = None,
        until: Timestamp | None = None,
    ) -> None:
        super().__init__()
        if after is not None and until is not None and after > until:
            raise EventCalculusError(
                f"invalid window bounds: after={after} is later than until={until}"
            )
        self.after = after
        self.until = until
        occurrences = source.occurrences if isinstance(source, EventBase) else source
        selected = [
            occurrence
            for occurrence in occurrences
            if (after is None or occurrence.timestamp > after)
            and (until is None or occurrence.timestamp <= until)
        ]
        # Sorting makes the selection a valid log: the indexes only append.
        selected.sort(key=lambda occurrence: (occurrence.timestamp, occurrence.eid))
        if selected:
            self._append_batch(
                selected, [occurrence.timestamp for occurrence in selected]
            )

    @classmethod
    def of(cls, occurrences: Iterable[EventOccurrence]) -> "EventWindow":
        """Window over an explicit collection of occurrences (no bounds)."""
        return cls(list(occurrences))


#: ``BoundedView``'s memo of the parent's index resolution: the parent's
#: epoch when resolved, plus the per-type index tuples resolved so far.
_ResolvedIndexes = tuple[int, dict[EventType, tuple[_TypeIndex, ...]]]


class BoundedView:
    """A zero-copy lazy window over a shared occurrence store.

    The view holds only its ``(after, until]`` bounds plus a reference to the
    parent store (usually the :class:`EventBase`); every query is answered by
    bisecting the bounds against the parent's sorted indexes.  It supports the
    full query API of :class:`EventWindow` — ``ts``/``ots`` and the condition
    formulas accept either structure — but costs O(1) to build, which is what
    makes per-rule, per-block triggering checks affordable on large event
    bases (see PERFORMANCE.md).

    The view is *live*: occurrences appended to the parent afterwards become
    visible when they fall inside the bounds.  With ``until`` set this cannot
    happen for EB parents (the log grows in non-decreasing time-stamp order),
    so a bounded view over an EB behaves exactly like a frozen window.
    """

    __slots__ = ("_parent", "after", "until", "_resolved")

    def __init__(
        self,
        parent: _OccurrenceStore,
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
        self._resolved: _ResolvedIndexes | None = None

    def _indexes_for(self, event_type: EventType) -> tuple[_TypeIndex, ...]:
        """View-local memo of the parent's ``_indexes_matching`` resolution.

        The per-instant calculus loops (``ts`` sampling a window at every
        candidate instant, precedence re-probing its left operand, lifting
        over affected objects) hit the same few event types over and over;
        resolving through the parent each time pays a dict probe per call.
        The memo is validated against the parent's type count — a resolution
        can only change when a *new* type index registers (exactly when the
        parent drops its own match cache), so the count pins it while the
        view stays live.
        """
        parent = self._parent
        resolved = self._resolved
        count = len(parent._by_type)
        if resolved is None or resolved[0] != count:
            resolved = self._resolved = (count, {})
        cache = resolved[1]
        indexes = cache.get(event_type)
        if indexes is None:
            indexes = cache[event_type] = parent._indexes_matching(event_type)
        return indexes

    # -- bound helpers -----------------------------------------------------
    def _effective_until(self, instant: Timestamp | None) -> Timestamp | None:
        """Tighter of the view's ``until`` and a per-query ``instant`` bound."""
        if instant is None:
            return self.until
        if self.until is None:
            return instant
        return min(instant, self.until)

    def _span(self) -> tuple[int, int]:
        """Index range ``[start, stop)`` of the view inside the parent log."""
        stamps = self._parent._all_timestamps
        start = 0 if self.after is None else bisect.bisect_right(stamps, self.after)
        stop = len(stamps) if self.until is None else bisect.bisect_right(
            stamps, self.until
        )
        return start, max(start, stop)

    # -- basic introspection ------------------------------------------------
    def __len__(self) -> int:
        start, stop = self._span()
        return stop - start

    def __iter__(self) -> Iterator[EventOccurrence]:
        start, stop = self._span()
        occurrences = self._parent._occurrences
        for position in range(start, stop):
            yield occurrences[position]

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def occurrences(self) -> tuple[EventOccurrence, ...]:
        """The occurrences inside the bounds (materializes the slice)."""
        start, stop = self._span()
        return tuple(self._parent._occurrences[start:stop])

    def is_empty(self) -> bool:
        """True when no occurrence falls inside the bounds (``R = {}``)."""
        return len(self) == 0

    def latest_timestamp(self) -> Timestamp | None:
        """The greatest time stamp in the view, or None when empty."""
        start, stop = self._span()
        if stop == start:
            return None
        return self._parent._all_timestamps[stop - 1]

    def event_types(self) -> set[EventType]:
        """Event types with at least one occurrence inside the bounds."""
        present: set[EventType] = set()
        for event_type, index in self._parent._by_type.items():
            start, stop = index.span(self.after, self.until)
            if stop > start:
                present.add(event_type)
        return present

    def oids(self) -> set[Any]:
        """OIDs affected by at least one occurrence inside the bounds."""
        affected: set[Any] = set()
        for index in self._parent._by_type.values():
            for oid in index.per_oid:
                if oid not in affected and index.oid_in_bounds(
                    oid, self.after, self.until
                ):
                    affected.add(oid)
        return affected

    def timestamps(self) -> list[Timestamp]:
        """Distinct time stamps inside the bounds, sorted."""
        distinct = self._parent._distinct_timestamps
        start = 0 if self.after is None else bisect.bisect_right(distinct, self.after)
        stop = len(distinct) if self.until is None else bisect.bisect_right(
            distinct, self.until
        )
        return distinct[start:stop]

    def timestamps_after(self, lower: Timestamp) -> list[Timestamp]:
        """Distinct in-bounds time stamps strictly greater than ``lower``."""
        if self.after is not None and self.after > lower:
            lower = self.after
        distinct = self._parent._distinct_timestamps
        start = bisect.bisect_right(distinct, lower)
        stop = len(distinct) if self.until is None else bisect.bisect_right(
            distinct, self.until
        )
        return distinct[start:stop]

    # -- queries used by the calculus ----------------------------------------
    def last_timestamp(
        self, event_type: EventType, instant: Timestamp
    ) -> Timestamp | None:
        """Most recent in-bounds occurrence of ``event_type`` at/before ``instant``."""
        bound = self._effective_until(instant)
        best: Timestamp | None = None
        for index in self._indexes_for(event_type):
            candidate = index.last_in_bounds(self.after, bound)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        return best

    def last_timestamp_on(
        self, event_type: EventType, oid: Any, instant: Timestamp
    ) -> Timestamp | None:
        """Most recent in-bounds occurrence of ``event_type`` on ``oid`` at/before ``instant``."""
        bound = self._effective_until(instant)
        best: Timestamp | None = None
        for index in self._indexes_for(event_type):
            candidate = index.last_on_oid_in_bounds(oid, self.after, bound)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        return best

    def occurrences_of(
        self,
        event_type: EventType,
        until: Timestamp | None = None,
    ) -> list[EventOccurrence]:
        """In-bounds occurrences matching ``event_type`` (optionally at/before ``until``)."""
        bound = self._effective_until(until)
        matched: list[EventOccurrence] = []
        at = self._parent._occurrences.__getitem__
        for index in self._parent._indexes_matching(event_type):
            start, stop = index.span(self.after, bound)
            matched.extend(map(at, index.positions[start:stop]))
        matched.sort(key=lambda occurrence: (occurrence.timestamp, occurrence.eid))
        return matched

    def objects_affected_by(
        self,
        event_types: Iterable[EventType],
        until: Timestamp | None = None,
    ) -> set[Any]:
        """OIDs affected in-bounds by any of ``event_types`` (optionally at/before ``until``)."""
        bound = self._effective_until(until)
        affected: set[Any] = set()
        for event_type in event_types:
            for index in self._indexes_for(event_type):
                for oid in index.per_oid:
                    if oid not in affected and index.oid_in_bounds(
                        oid, self.after, bound
                    ):
                        affected.add(oid)
        return affected

    def select(
        self, predicate: Callable[[EventOccurrence], bool]
    ) -> list[EventOccurrence]:
        """All in-bounds occurrences satisfying ``predicate`` (in log order)."""
        return [occurrence for occurrence in self if predicate(occurrence)]


#: The structures the calculus (``ts``/``ots``, condition formulas, traces)
#: accepts as its occurrence set ``R``.  The full :class:`EventBase` also
#: satisfies the same query protocol and may be passed wherever a whole-log
#: window is intended.
WindowLike = EventWindow | BoundedView
