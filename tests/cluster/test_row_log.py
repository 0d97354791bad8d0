"""The row log: the one delta encoding between coordinator and worker mirrors.

``_RowLog`` (coordinator) encodes every EB position once; ``_FrameReader``
(worker) decodes the slice a worker has not seen.  A property test drives
the pair the way the pool does — several workers at their own offsets and
type-table watermarks, consulted in random subsets, with resets in between —
and pins that each worker's mirror equals the coordinator's log and that no
position is ever encoded twice.  A guard test pins the synchronous failure
for unpicklable user payloads.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cluster.transport import _FrameReader, _RowLog
from repro.errors import SnapshotError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import ROW_WIDTH, EventBase

from tests.events.test_row_codec import UNIVERSE, random_occurrence


class _Worker:
    """What the pool and a worker hold between trips, minus the process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.offset = 0
        self.shipped_types = 0
        self.reader = _FrameReader()
        self.type_cache: dict = {}
        self.mirror: list[EventOccurrence] = []

    def catch_up(self, log: _RowLog, event_base: EventBase) -> None:
        delta = log.delta(self.offset, self.shipped_types)
        received = self.reader.read(pickle.loads(pickle.dumps(delta)), self.type_cache)
        assert tuple(received) == event_base.occurrences[self.offset :]
        self.mirror.extend(received)
        self.offset = log.encoded
        self.shipped_types = len(log.codec.type_snapshots)


def _grow(rng: random.Random, event_base: EventBase, count: int, types: int) -> None:
    """Append ``count`` random rows drawn from the first ``types`` event types."""
    stamp = event_base.latest_timestamp() or 1
    for _ in range(count):
        stamp += rng.randint(0, 2)
        shape = random_occurrence(rng, eid=1)
        event_type = rng.choice(UNIVERSE[:types])
        if rng.random() < 0.2:
            # Equal but distinct type object: the codec keys on identity.
            event_type = EventType(
                event_type.operation, event_type.class_name, event_type.attribute
            )
        event_base.record(
            event_type, oid=shape.oid, timestamp=stamp, payload=shape.payload or None
        )


def test_mirrors_equal_the_log_and_every_position_is_encoded_once_property():
    saw_inline = saw_fallback = False
    for seed in range(40):
        rng = random.Random(seed)
        log = _RowLog()
        workers = [_Worker() for _ in range(rng.randint(1, 4))]
        event_base = EventBase()
        positions = 0  # EB positions handed to the log, over all its lives
        for step in range(rng.randint(4, 14)):
            if step and rng.random() < 0.15:
                # The coordinator's EB was rebound (transaction boundary).
                positions += log.encoded
                event_base = EventBase()
                log.reset()
                for worker in workers:
                    worker.reset()
            # Types enter mid-log: later steps draw from a wider universe.
            _grow(rng, event_base, rng.randint(0, 12), types=1 + step % len(UNIVERSE))
            consulted = [worker for worker in workers if rng.random() < 0.6]
            total = len(event_base.occurrences)
            if consulted:
                log.encode_through(event_base, total)  # begin_trip
            for worker in consulted:
                if worker.offset < total:
                    worker.catch_up(log, event_base)
        total = len(event_base.occurrences)
        log.encode_through(event_base, total)
        for worker in workers:
            worker.catch_up(log, event_base)
            assert tuple(worker.mirror) == event_base.occurrences, f"seed {seed}"
        assert log.encoded == total and len(log.rows) == total * ROW_WIDTH
        assert log.rows_inline + log.rows_fallback == positions + total, (
            f"seed {seed}: some position was encoded twice (or never)"
        )
        saw_inline |= log.rows_inline > 0
        saw_fallback |= log.rows_fallback > 0
    assert saw_inline and saw_fallback  # both row forms were exercised


def test_fallback_row_names_the_unpicklable_eid_and_the_log_stays_consistent():
    """Same synchronous-failure contract on every placement: the log is
    where it is enforced."""
    alpha = EventType(Operation.CREATE, "alpha")
    event_base = EventBase()
    event_base.record(alpha, oid="alpha#1", timestamp=1)
    event_base.record(
        alpha,
        oid="alpha#2",
        timestamp=2,
        payload={"callback": lambda: None},  # unpicklable user payload
    )
    event_base.record(alpha, oid="alpha#3", timestamp=3)
    log = _RowLog()
    for _attempt in range(2):
        with pytest.raises(SnapshotError) as excinfo:
            log.encode_through(event_base, len(event_base.occurrences))
        message = str(excinfo.value)
        assert "picklable" in message
        assert "eid=2" in message  # names the offending occurrence
        # The picklable prefix stays encoded — once, however often the
        # caller retries — and nothing of the offender or beyond is kept.
        assert log.encoded == 1 and len(log.rows) == ROW_WIDTH
        assert (log.rows_inline, log.rows_fallback) == (1, 0)
        assert log.fallback_rows == []
    # What was encoded is a usable delta.
    reader = _FrameReader()
    assert reader.read(log.delta(0, 0), {}) == list(event_base.occurrences[:1])
