"""The Event Handler component.

Paper §5: when the Block Executor finishes a non-interruptible block it sends
all the freshly generated event occurrences to the Event Handler, which stores
them into the Occurred-Events data structure (an event tree whose leaves are
per-type occurrence lists that also cache the latest time stamp).

In this reproduction that structure is the Event Base's own index: one
``_TypeIndex`` per event type holds the type's time-stamp, log-position and
OID columns, and its last time stamp is the leaf's "latest occurrence"
(``repro.events.event_base``).  Operations append to the Event Base directly,
and the Event Base is the only record of the occurrences a block produced.
The Event Handler tracks the boundary between blocks, so "the occurrences
generated by the last block" is a well-defined span of the log.

A flush returns that span's *type signature* (the set of event types it
contains) and nothing else: the signature is all the §5.1 test reads, and it
is what the :class:`~repro.rules.trigger_support.TriggerPlanner` routes on.
An empty signature means the block produced nothing.  Externally produced
batches (synthetic workloads, streaming sources) enter through
:meth:`EventHandler.store_external` and the Event Base's bulk ``extend``,
which returns the batch's signature while it indexes the rows, so a stream
block with nothing pending reads no row of the log at all.
"""

from __future__ import annotations

from typing import Sequence

from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase

__all__ = ["EventHandler"]


class EventHandler:
    """Tracks the block boundary in the Event Base and flushes signatures."""

    def __init__(self, event_base: EventBase) -> None:
        self.event_base = event_base
        #: EB positions below this one have been flushed.
        self._flushed_count = 0

    def flush_block(self) -> frozenset[EventType]:
        """End the block: the type signature of the occurrences since the
        previous flush (empty when there were none)."""
        start = self._flushed_count
        total = self._flushed_count = len(self.event_base)
        return frozenset(
            occurrence.event_type
            for occurrence in self.event_base.occurrences_between(start, total)
        )

    def pending_count(self) -> int:
        """Occurrences recorded in the Event Base but not yet flushed."""
        return len(self.event_base) - self._flushed_count

    def reset(self) -> None:
        """Start over at a transaction boundary: nothing recorded is pending."""
        self._flushed_count = len(self.event_base)

    def store_external(
        self, occurrences: Sequence[EventOccurrence]
    ) -> frozenset[EventType]:
        """Store externally produced occurrences as one block and flush it.

        The signature the Event Base's bulk ``extend`` returns is the block's
        only when nothing else was pending; otherwise the block is wider than
        the batch and its signature is the flush's.
        """
        if self.pending_count():
            self.event_base.extend(occurrences)
            return self.flush_block()
        signature = self.event_base.extend(occurrences)
        self._flushed_count = len(self.event_base)
        return signature
