"""The Event Handler component.

Paper §5: when the Block Executor finishes a non-interruptible block it sends
all the freshly generated event occurrences to the Event Handler, which stores
them into the Occurred-Events data structure (an event tree whose leaves are
per-type occurrence lists that also cache the latest time stamp).

In this reproduction that structure is the Event Base's own index: one
``_TypeIndex`` per event type holds the type's time-stamp, log-position and
OID columns, and its last time stamp is the leaf's "latest occurrence"
(``repro.events.event_base``).  Operations append to the Event Base directly;
the Event Handler tracks the boundary between blocks, so "the occurrences
generated by the last block" is a well-defined batch, and hands that batch to
whoever needs it (the Trigger Support).  A flush reads the log by position and
costs the block, whatever the length of the log.

Each flushed batch is wrapped in a :class:`BlockIngest`: the occurrences plus
the block's *type signature* (the set of event types it contains), computed
exactly once at the block boundary.  The signature is what the
:class:`~repro.rules.trigger_support.TriggerPlanner` routes on, so it is never
re-derived from the window downstream.  Externally produced batches
(synthetic workloads, streaming sources) enter through :meth:`store_external`
and the Event Base's bulk ``extend``, which returns the batch's signature
while it indexes the rows.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase

__all__ = ["BlockIngest", "EventHandler"]


class BlockIngest(Sequence[EventOccurrence]):
    """One flushed execution block: its occurrences plus their type signature.

    Behaves as a read-only sequence of occurrences (so existing consumers of
    the flushed batch keep working) while carrying the pre-computed
    ``type_signature`` the trigger planner routes on.
    """

    __slots__ = ("occurrences", "type_signature")

    def __init__(
        self,
        occurrences: Sequence[EventOccurrence],
        type_signature: frozenset[EventType] | None = None,
    ) -> None:
        self.occurrences: tuple[EventOccurrence, ...] = tuple(occurrences)
        if type_signature is None:
            type_signature = frozenset(
                occurrence.event_type for occurrence in self.occurrences
            )
        #: A caller that already knows the signature (the Event Base's
        #: ``extend`` returned it) passes it through; it must describe exactly
        #: these occurrences.
        self.type_signature: frozenset[EventType] = type_signature

    def __len__(self) -> int:
        return len(self.occurrences)

    def __iter__(self) -> Iterator[EventOccurrence]:
        return iter(self.occurrences)

    def __getitem__(self, index):
        return self.occurrences[index]

    def __bool__(self) -> bool:
        return bool(self.occurrences)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockIngest({len(self.occurrences)} occurrences, {len(self.type_signature)} types)"


class EventHandler:
    """Collects per-block event batches from the Event Base."""

    def __init__(self, event_base: EventBase) -> None:
        self.event_base = event_base
        #: EB positions below this one have been flushed.
        self._flushed_count = 0
        self.blocks_processed = 0

    def flush_block(self) -> BlockIngest:
        """Collect the occurrences generated since the previous flush.

        Returns the batch (possibly empty) with its type signature.
        """
        return self._flush(None)

    def _flush(self, type_signature: frozenset[EventType] | None) -> BlockIngest:
        total = len(self.event_base)
        batch = BlockIngest(
            self.event_base.occurrences_between(self._flushed_count, total),
            type_signature=type_signature,
        )
        self._flushed_count = total
        self.blocks_processed += 1
        return batch

    def pending_count(self) -> int:
        """Occurrences recorded in the Event Base but not yet flushed."""
        return len(self.event_base) - self._flushed_count

    def reset(self) -> None:
        """Start over at a transaction boundary: nothing recorded is pending."""
        self._flushed_count = len(self.event_base)
        self.blocks_processed = 0

    def store_external(self, occurrences: Sequence[EventOccurrence]) -> BlockIngest:
        """Store externally produced occurrences as one block and flush it.

        The signature the Event Base's bulk ``extend`` returns is honoured
        only when the flushed block is exactly this batch (nothing else was
        pending); otherwise it would mislabel the wider block and the
        signature is re-derived.
        """
        alone = self.pending_count() == 0
        signature = self.event_base.extend(occurrences)
        return self._flush(signature if alone else None)
