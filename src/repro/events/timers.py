"""External and temporal events (extension beyond the paper's core).

Chimera's event language, as extended by the paper, covers *internal* events
(database updates and queries).  The related work it discusses — HiPAC, Samos,
Snoop — also supports *external* events raised by the application and
*temporal* events (absolute, relative and periodic clock events).  This module
adds both as an optional extension, without touching the calculus: external and
temporal occurrences are ordinary :class:`~repro.events.event.EventOccurrence`
rows whose event type uses the :attr:`~repro.events.event.Operation.RAISE`
operation, so every operator, the triggering predicate and the static
optimization work on them unchanged.

* :class:`ExternalEventSource` — lets the application raise named events into
  an Event Base (``raise(deadline)``, ``raise(alarm)`` ...).
* :class:`TemporalEventPlanner` — generates clock occurrences over the logical
  time axis: ``absolute`` (one occurrence at a given instant), ``periodic``
  (every *n* ticks within an interval) and ``relative`` (a fixed delay after
  every occurrence of a reference event type, in the spirit of Snoop's
  aperiodic operator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import EventCalculusError
from repro.events.clock import Timestamp, TransactionClock
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import BoundedView, EventBase

__all__ = ["external_event_type", "ExternalEventSource", "TemporalEventPlanner"]


def external_event_type(name: str) -> EventType:
    """The event type of an external / temporal event called ``name``."""
    if not name or not name.isidentifier():
        raise EventCalculusError(f"invalid external event name: {name!r}")
    return EventType(Operation.RAISE, name)


class ExternalEventSource:
    """Raises application-defined events into an Event Base.

    The source shares the database's logical clock so external occurrences are
    totally ordered with the internal ones.
    """

    def __init__(self, event_base: EventBase, clock: TransactionClock) -> None:
        self.event_base = event_base
        self.clock = clock
        self.raised = 0

    def raise_event(
        self,
        name: str,
        subject: Any = "external",
        payload: Mapping[str, Any] | None = None,
    ) -> EventOccurrence:
        """Record one occurrence of the external event ``name``."""
        occurrence = self.event_base.record(
            external_event_type(name),
            subject,
            self.clock.tick(),
            dict(payload or {}),
        )
        self.raised += 1
        return occurrence


@dataclass
class TemporalEventPlanner:
    """Generates clock occurrences over the logical time axis.

    The planner produces plain occurrence lists; callers append them to an
    Event Base (interleaved with the workload) or feed them to a detector.
    EIDs are assigned from ``next_eid`` onwards.
    """

    next_eid: int = 100_000
    subject: Any = "clock"

    def _occurrence(self, name: str, timestamp: Timestamp) -> EventOccurrence:
        occurrence = EventOccurrence(
            eid=self.next_eid,
            event_type=external_event_type(name),
            oid=self.subject,
            timestamp=timestamp,
            payload={"temporal": True},
        )
        self.next_eid += 1
        return occurrence

    def absolute(self, name: str, at: Timestamp) -> EventOccurrence:
        """One occurrence of ``name`` at instant ``at``."""
        if at <= 0:
            raise EventCalculusError("absolute temporal events need a positive instant")
        return self._occurrence(name, at)

    def periodic(
        self,
        name: str,
        period: int,
        start: Timestamp,
        until: Timestamp,
    ) -> list[EventOccurrence]:
        """Occurrences of ``name`` every ``period`` ticks in ``[start, until]``."""
        if period <= 0:
            raise EventCalculusError("the period of a periodic event must be positive")
        if start <= 0 or until < start:
            raise EventCalculusError(f"invalid periodic interval [{start}, {until}]")
        return [
            self._occurrence(name, timestamp)
            for timestamp in range(start, until + 1, period)
        ]

    def relative(
        self,
        name: str,
        delay: int,
        after: EventType,
        history: EventBase | BoundedView | Sequence[EventOccurrence],
        until: Timestamp | None = None,
    ) -> list[EventOccurrence]:
        """One occurrence of ``name`` a fixed ``delay`` after each ``after`` occurrence.

        ``history`` provides the reference occurrences; occurrences falling
        after ``until`` (when given) are dropped, which models a timer that the
        end of the transaction cancels.
        """
        if delay <= 0:
            raise EventCalculusError("the delay of a relative event must be positive")
        if isinstance(history, (EventBase, BoundedView)):
            references = history.occurrences_of(after)
        else:
            references = [
                occurrence
                for occurrence in history
                if after.matches(occurrence.event_type)
            ]
        planned = []
        for reference in references:
            timestamp = reference.timestamp + delay
            if until is not None and timestamp > until:
                continue
            planned.append(self._occurrence(name, timestamp))
        return planned
