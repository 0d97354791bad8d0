"""Event substrate: occurrences, clocks, the Event Base and its windows.

The Event Base's per-type index (``event_base._TypeIndex``) is the paper's
§5 Occurred-Events structure: per-type occurrence columns that keep the
type's latest time stamp.
"""

from repro.events.clock import SharedTickClock, Timestamp, TransactionClock
from repro.events.event import (
    EidGenerator,
    EventOccurrence,
    EventType,
    Operation,
    parse_event_type,
)
from repro.events.event_base import BoundedView, EventBase, EventWindow, WindowLike
from repro.events.persistence import (
    load_event_base,
    load_occurrences,
    save_event_base,
    dump_occurrences,
)
from repro.events.timers import (
    ExternalEventSource,
    TemporalEventPlanner,
    external_event_type,
)

__all__ = [
    "BoundedView",
    "EidGenerator",
    "EventBase",
    "EventOccurrence",
    "EventType",
    "EventWindow",
    "WindowLike",
    "ExternalEventSource",
    "Operation",
    "SharedTickClock",
    "TemporalEventPlanner",
    "Timestamp",
    "TransactionClock",
    "dump_occurrences",
    "external_event_type",
    "load_event_base",
    "load_occurrences",
    "parse_event_type",
    "save_event_base",
]
