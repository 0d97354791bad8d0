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
"""

from __future__ import annotations

import bisect
import operator
import struct
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import EventCalculusError, SnapshotError
from repro.events.clock import Timestamp
from repro.events.event import EidGenerator, EventOccurrence, EventType

__all__ = [
    "EventBase",
    "EventWindow",
    "BoundedView",
    "WindowLike",
    "SnapshotRowCodec",
    "ROW_WIDTH",
]

#: ``True`` where an adjacent time-stamp pair decreases — used with ``map``
#: over a batch and its one-shifted self to order-check in C instead of a
#: Python comparison loop.
_stamp_decreases = operator.gt

#: Below this batch size, ``extend`` inserts item by item (after batch
#: validation): segmenting a handful of occurrences by type costs more than
#: the per-item index maintenance it saves.
_BULK_SEGMENT_THRESHOLD = 128


class _TypeIndex:
    """Per-event-type index of occurrences ordered by time stamp.

    Keeps parallel lists of time stamps and occurrences (sorted by time stamp,
    ties broken by insertion order) plus a per-OID sub-index of time stamps.
    The keys of ``per_oid`` double as the set of OIDs affected by the type, so
    affected-object queries never need to materialize occurrence lists.
    """

    __slots__ = ("timestamps", "occurrences", "per_oid")

    def __init__(self) -> None:
        self.timestamps: list[Timestamp] = []
        self.occurrences: list[EventOccurrence] = []
        self.per_oid: dict[Any, list[Timestamp]] = defaultdict(list)

    def add(self, occurrence: EventOccurrence) -> None:
        stamp = occurrence.timestamp
        if not self.timestamps or stamp >= self.timestamps[-1]:
            # Append fast path: the EB log grows in non-decreasing time-stamp
            # order (EventBase.append enforces it, EventWindow sorts on
            # construction), so the common case is O(1).
            self.timestamps.append(stamp)
            self.occurrences.append(occurrence)
        else:
            # Out-of-order insertion.  Unreachable through _OccurrenceStore
            # (whose _insert requires ordered input); kept for direct reuse of
            # the index by future ingestion paths that cannot pre-sort.
            position = bisect.bisect_right(self.timestamps, stamp)
            self.timestamps.insert(position, stamp)
            self.occurrences.insert(position, occurrence)
        oid_times = self.per_oid[occurrence.oid]
        if not oid_times or stamp >= oid_times[-1]:
            oid_times.append(stamp)
        else:
            oid_position = bisect.bisect_right(oid_times, stamp)
            oid_times.insert(oid_position, stamp)

    def extend_ordered(self, occurrences: Sequence[EventOccurrence]) -> None:
        """Bulk-append occurrences whose stamps are non-decreasing and no
        earlier than anything already indexed (the store validates both before
        calling).  One list growth per parallel structure instead of a
        per-occurrence ``add`` cascade."""
        self.occurrences.extend(occurrences)
        self.timestamps.extend([occurrence.timestamp for occurrence in occurrences])
        per_oid = self.per_oid
        for occurrence in occurrences:
            per_oid[occurrence.oid].append(occurrence.timestamp)

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

    def occurrences_at_or_before(self, instant: Timestamp) -> Sequence[EventOccurrence]:
        position = bisect.bisect_right(self.timestamps, instant)
        return self.occurrences[:position]

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


class _OccurrenceStore:
    """Shared implementation of occurrence storage and indexed lookups.

    Beyond the per-type indexes, the store incrementally maintains:

    * ``_all_timestamps`` — the time stamps of ``_occurrences`` (always
      non-decreasing: the EB enforces log order and EventWindow sorts on
      construction), so bounded views can locate a slice by bisection;
    * ``_distinct_timestamps`` — the sorted, deduplicated time stamps, so
      :meth:`timestamps` is O(1) per call instead of O(n log n);
    * a cache of :meth:`_indexes_matching` resolutions, invalidated whenever a
      new event type is registered (class-level patterns may match it);
    * a cached tuple for :attr:`occurrences`, so repeated access (window
      construction, iteration-heavy analyses) does not copy the log each time.
    """

    def __init__(self) -> None:
        self._occurrences: list[EventOccurrence] = []
        self._by_type: dict[EventType, _TypeIndex] = {}
        self._oids: set[Any] = set()
        self._all_timestamps: list[Timestamp] = []
        self._distinct_timestamps: list[Timestamp] = []
        self._match_cache: dict[EventType, tuple[_TypeIndex, ...]] = {}
        self._occurrences_cache: tuple[EventOccurrence, ...] | None = None

    # -- mutation ------------------------------------------------------
    def _insert(self, occurrence: EventOccurrence) -> None:
        stamp = occurrence.timestamp
        if self._all_timestamps and stamp < self._all_timestamps[-1]:
            # The sorted-timestamp caches (and BoundedView's bisections over
            # them) rely on insertion order; both callers guarantee it —
            # EventBase.append rejects decreasing stamps with a friendlier
            # message before reaching here, EventWindow sorts on construction.
            raise EventCalculusError(
                "occurrence store requires non-decreasing time-stamp inserts "
                f"(last={self._all_timestamps[-1]}, new={stamp})"
            )
        self._occurrences.append(occurrence)
        self._occurrences_cache = None
        self._all_timestamps.append(stamp)
        distinct = self._distinct_timestamps
        if not distinct or stamp > distinct[-1]:
            distinct.append(stamp)
        index = self._by_type.get(occurrence.event_type)
        if index is None:
            index = self._by_type[occurrence.event_type] = _TypeIndex()
            # A new concrete type may be matched by previously resolved
            # class-level patterns: drop every memoized resolution.
            self._match_cache.clear()
        index.add(occurrence)
        self._oids.add(occurrence.oid)

    def _extend_ordered(
        self, batch: Sequence[EventOccurrence], stamps: Sequence[Timestamp]
    ) -> frozenset[EventType]:
        """Bulk insert of a validated, non-empty batch (non-decreasing
        stamps, none earlier than the stored log; ``stamps`` are the batch's
        time stamps, already extracted by the validating caller).  Returns
        the event types the batch was segmented by.

        The per-append path re-runs the whole maintenance cascade — cache
        invalidation, distinct-stamp check, per-type index dispatch — once per
        occurrence.  Here the batch is segmented by event type first, every
        parallel structure grows once, and the caches are invalidated a single
        time; new event types drop the pattern-match cache once, not once per
        occurrence.
        """
        self._occurrences.extend(batch)
        self._occurrences_cache = None
        self._all_timestamps.extend(stamps)
        # Non-decreasing stamps make duplicates adjacent, so an order-keeping
        # dedup of the batch is the new distinct suffix — minus a leading
        # stamp that ties the last one already recorded.
        distinct = self._distinct_timestamps
        unique = list(dict.fromkeys(stamps))
        if distinct and unique[0] == distinct[-1]:
            del unique[0]
        distinct.extend(unique)
        segments: defaultdict[EventType, list[EventOccurrence]] = defaultdict(list)
        for occurrence in batch:
            segments[occurrence.event_type].append(occurrence)
        by_type = self._by_type
        new_types = [event_type for event_type in segments if event_type not in by_type]
        if new_types:
            # New concrete types may be matched by previously resolved
            # class-level patterns: one cache drop covers the whole batch.
            self._match_cache.clear()
            for event_type in new_types:
                by_type[event_type] = _TypeIndex()
        for event_type, segment in segments.items():
            by_type[event_type].extend_ordered(segment)
        self._oids.update(occurrence.oid for occurrence in batch)
        return frozenset(segments)

    # -- basic introspection -------------------------------------------
    def __len__(self) -> int:
        return len(self._occurrences)

    def __iter__(self) -> Iterator[EventOccurrence]:
        return iter(self._occurrences)

    def __bool__(self) -> bool:
        return bool(self._occurrences)

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

    def event_types(self) -> set[EventType]:
        """The set of event types with at least one stored occurrence."""
        return set(self._by_type)

    def oids(self) -> set[Any]:
        """The set of OIDs affected by at least one stored occurrence."""
        return set(self._oids)

    def timestamps(self) -> list[Timestamp]:
        """All time stamps present, sorted and deduplicated."""
        return list(self._distinct_timestamps)

    def timestamps_after(self, lower: Timestamp) -> list[Timestamp]:
        """The distinct time stamps strictly greater than ``lower``."""
        position = bisect.bisect_right(self._distinct_timestamps, lower)
        return self._distinct_timestamps[position:]

    def is_empty(self) -> bool:
        """True when no occurrence is stored (``R = {}``)."""
        return not self._occurrences

    def latest_timestamp(self) -> Timestamp | None:
        """The greatest time stamp stored, or None when empty."""
        if not self._distinct_timestamps:
            return None
        return self._distinct_timestamps[-1]

    # -- matching over type patterns -------------------------------------
    def _indexes_matching(self, event_type: EventType) -> tuple[_TypeIndex, ...]:
        """Indexes whose concrete type matches the (possibly class-level) pattern.

        Resolutions are memoized; the cache is dropped whenever a new event
        type registers an index (see :meth:`_insert`).
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

    def occurrences_of(
        self,
        event_type: EventType,
        until: Timestamp | None = None,
    ) -> list[EventOccurrence]:
        """All occurrences matching ``event_type`` (optionally at/before ``until``)."""
        matched: list[EventOccurrence] = []
        for index in self._indexes_matching(event_type):
            if until is None:
                matched.extend(index.occurrences)
            else:
                matched.extend(index.occurrences_at_or_before(until))
        matched.sort(key=lambda occurrence: (occurrence.timestamp, occurrence.eid))
        return matched

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
        """Store a fully formed occurrence (EIDs must be unique)."""
        if occurrence.eid in self._by_eid:
            raise EventCalculusError(f"duplicate EID {occurrence.eid}")
        if self._occurrences and occurrence.timestamp < self._occurrences[-1].timestamp:
            # The EB is a log: later entries may share a time stamp with
            # earlier ones but never precede them.
            raise EventCalculusError(
                "event occurrences must be appended in non-decreasing time-stamp order "
                f"(last={self._occurrences[-1].timestamp}, new={occurrence.timestamp})"
            )
        self._insert(occurrence)
        self._by_eid[occurrence.eid] = occurrence

    def extend(
        self, occurrences: Iterable[EventOccurrence]
    ) -> frozenset[EventType] | None:
        """Bulk-append a batch of occurrences.

        Validates the whole batch up front (unique EIDs, non-decreasing time
        stamps continuing the log order) and only then inserts it through the
        segmented bulk path, so the indexes and caches are maintained once per
        batch instead of once per occurrence — and a rejected batch leaves the
        EB untouched (the old per-append loop applied a prefix before
        failing).

        Returns the set of event types in the batch when the bulk path
        grouped it by type — the block's type signature, which the Event
        Handler passes on instead of hashing every occurrence's type a second
        time — and ``None`` for a batch too small to be segmented.
        """
        batch = occurrences if isinstance(occurrences, (list, tuple)) else list(
            occurrences
        )
        if not batch:
            return None
        if len(batch) == 1:
            self.append(batch[0])
            return None
        eids = [occurrence.eid for occurrence in batch]
        if len(set(eids)) != len(eids) or not self._by_eid.keys().isdisjoint(eids):
            seen: set[int] = set(self._by_eid)
            duplicate = next(eid for eid in eids if eid in seen or seen.add(eid))
            raise EventCalculusError(f"duplicate EID {duplicate}")
        stamps = [occurrence.timestamp for occurrence in batch]
        previous = self._occurrences[-1].timestamp if self._occurrences else stamps[0]
        if stamps[0] < previous or any(map(_stamp_decreases, stamps, stamps[1:])):
            for stamp in stamps:
                if stamp < previous:
                    raise EventCalculusError(
                        "event occurrences must be appended in non-decreasing "
                        f"time-stamp order (last={previous}, new={stamp})"
                    )
                previous = stamp
        grouped = None
        if len(batch) < _BULK_SEGMENT_THRESHOLD:
            # Tiny batches: the per-type segmentation overhead exceeds what it
            # amortizes — validated per-item inserts are faster and equally
            # atomic (validation already happened above).
            for occurrence in batch:
                self._insert(occurrence)
        else:
            grouped = self._extend_ordered(batch, stamps)
        self._by_eid.update(zip(eids, batch))
        return grouped

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
        selected.sort(key=lambda occurrence: (occurrence.timestamp, occurrence.eid))
        for occurrence in selected:
            self._insert(occurrence)

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
        for index in self._parent._indexes_matching(event_type):
            start, stop = index.span(self.after, bound)
            matched.extend(index.occurrences[start:stop])
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


# ---------------------------------------------------------------------------
# Fixed-width row codec: the wire format of occurrence rows.
# ---------------------------------------------------------------------------

#: One row: eid (int64), timestamp (int64), event-type index (uint32),
#: OID kind (uint8), OID length (uint8), OID bytes (fixed field).  48 bytes —
#: cache-line friendly, and wide enough that the common OIDs of every shipped
#: workload (small ints, short strings) encode inline.
_ROW_STRUCT = struct.Struct("<qqIBB26s")

#: Same 48-byte layout, with the OID field typed as a little-endian int64
#: plus 18 zero pad bytes — lets the int-OID hot path pack the OID without
#: the ``int.to_bytes`` round trip while producing byte-identical rows.
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


class SnapshotRowCodec:
    """Fixed-width encoder/decoder for ``EventOccurrence.snapshot()`` rows.

    The process pool's row log (``repro.cluster.transport``) ships the Event
    Base delta as fixed-width rows:
    payload-free occurrences with small-int or short-string OIDs pack into
    one :data:`ROW_WIDTH`-byte slot each, with the event type interned into a
    side table that crosses to the worker once per new type.  Decoded rows
    are the exact ``EventOccurrence.snapshot()`` tuples the fallback rows
    carry, so a mirror is the same whichever form a row took
    (``tests/events/test_row_codec.py`` pins the round trip).

    Encoder and decoder each hold one codec: the encoder grows
    ``type_snapshots`` as it meets new event types (shipping
    ``type_snapshots[seen:]`` slices), the decoder appends those slices via
    :meth:`extend_types`.  The decoder's table must therefore always be a
    prefix of the encoder's — a row referencing an unknown index is codec
    divergence and raises :class:`SnapshotError`.
    """

    __slots__ = ("type_snapshots", "_type_ids", "_type_refs")

    width = ROW_WIDTH

    def __init__(self) -> None:
        #: Event-type snapshot tuples, indexed by the rows' type field.
        self.type_snapshots: list[tuple[str, str, str | None]] = []
        # Keyed by object identity (int hash, no per-row dataclass __hash__);
        # _type_refs pins every interned type so ids can never be reused.
        # Equal-but-distinct EventType objects cost one duplicate table entry
        # — harmless, the decoder interns by snapshot value.
        self._type_ids: dict[int, int] = {}
        self._type_refs: list[EventType] = []

    # -- encoding ------------------------------------------------------------
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
        # to the generic encoding below, which the decoder reads either way).
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

    # -- decoding ------------------------------------------------------------
    def extend_types(self, snapshots: Iterable[tuple[str, str, str | None]]) -> None:
        """Append type-table entries shipped by the encoding side."""
        self.type_snapshots.extend(snapshots)

    def decode_from(self, buffer, offset: int) -> tuple | None:
        """The snapshot tuple at ``offset``, or ``None`` for a placeholder.

        A row whose type index or OID kind the decoder cannot resolve means
        the two codecs diverged (or the bytes were corrupted) — that raises
        :class:`SnapshotError` so the transport can fail loudly instead of
        rebuilding a wrong mirror.
        """
        eid, timestamp, type_index, kind, oid_len, oid_raw = _ROW_STRUCT.unpack_from(
            buffer, offset
        )
        if kind == _ROW_FALLBACK:
            return None
        if kind == _ROW_INT_OID:
            oid: Any = int.from_bytes(oid_raw[:8], "little", signed=True)
        elif kind == _ROW_STR_OID:
            oid = oid_raw[:oid_len].decode("utf-8")
        else:
            raise SnapshotError(
                f"row codec divergence: unknown OID kind {kind} "
                f"at byte offset {offset}"
            )
        if type_index >= len(self.type_snapshots):
            raise SnapshotError(
                f"row codec divergence: row references event "
                f"type {type_index} but only {len(self.type_snapshots)} types "
                f"were shipped"
            )
        return (eid, self.type_snapshots[type_index], oid, timestamp, None)


#: The structures the calculus (``ts``/``ots``, condition formulas, traces)
#: accepts as its occurrence set ``R``.  The full :class:`EventBase` also
#: satisfies the same query protocol and may be passed wherever a whole-log
#: window is intended.
WindowLike = EventWindow | BoundedView
