"""The row log: the one delta encoding between coordinator and worker mirrors.

``_RowLog`` (coordinator) encodes every EB position once; ``_FrameReader``
(worker) applies the slice a worker has not seen straight into the worker's
mirror, a :class:`~repro.events.event_base.StampIndex`.  A differential
property test drives the pair the way the pool does — several workers at
their own offsets and type-table watermarks, consulted in random subsets,
with resets in between — and pins that every mirror indexes exactly what the
coordinator's Event Base indexes, that the compiled checks decide (and count)
identically over both, and that no position is ever encoded twice.  Refusal
tests pin that a frame that does not add up raises and leaves the mirror as
it was; a structural test that a worker applies a delta without building a
single occurrence object; a guard test the synchronous failure for
unpicklable user payloads.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cluster.process_pool import _worker_main
from repro.cluster.transport import (
    ROW_WIDTH,
    ShardTransport,
    _FrameReader,
    _RowEncoder,
    _RowLog,
)
from repro.config import EngineConfig
from repro.core.compile import CheckBinder, compile_check
from repro.core.evaluation import EvaluationStats
from repro.core.expressions import EventExpression, SetConjunction, SetNegation
from repro.core.parser import parse_expression
from repro.core.triggering import TriggerMemo
from repro.errors import EventCalculusError, SnapshotError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase, StampIndex
from repro.workloads.generator import ExpressionGenerator

from tests.events.test_row_codec import (
    UNIVERSE,
    encode_frame,
    index_state,
    random_occurrence,
)

#: Every concrete type of the log plus a class-level pattern that only ever
#: matches an attribute-specific one (``modify(alpha)`` ⊇ ``modify(alpha.size)``).
PATTERNS = UNIVERSE + (EventType(Operation.MODIFY, "alpha"),)

#: The calculus' eight operators (paper Fig. 1), by expression class name.
OPERATORS = {
    "SetConjunction",
    "SetDisjunction",
    "SetNegation",
    "SetPrecedence",
    "InstanceConjunction",
    "InstanceDisjunction",
    "InstanceNegation",
    "InstancePrecedence",
}


def _operators(expression: EventExpression) -> set[str]:
    found = {type(expression).__name__}
    for child in expression.children():
        found |= _operators(child)
    return found


def _resolved(store: StampIndex, pattern: EventType) -> list[tuple]:
    return [
        (list(index.timestamps), list(index.positions), dict(index.per_oid))
        for index in store._indexes_matching(pattern)
    ]


class _Worker:
    """What the pool and a worker hold between trips, minus the process."""

    def __init__(self, expressions: list[EventExpression]) -> None:
        self.expressions = expressions
        self.reset()

    def reset(self) -> None:
        self.offset = 0
        self.shipped_types = 0
        self.reader = _FrameReader()
        self.mirror = StampIndex()
        # Per rule: the coordinator-side binding and memo, the worker-side
        # ones (each side has its own binder, as in the pool), and the
        # rule's window start (moved to the instant it last triggered at).
        on_log, on_mirror = CheckBinder(), CheckBinder()
        self.rules = [
            [on_log.bind(e), TriggerMemo(), on_mirror.bind(e), TriggerMemo(), None]
            for e in self.expressions
        ]

    def catch_up(self, log: _RowLog, event_base: EventBase) -> None:
        delta = log.delta(self.offset, self.shipped_types)
        self.reader.apply(pickle.loads(pickle.dumps(delta)), self.mirror)
        self.offset = log.encoded
        self.shipped_types = len(log.encoder.type_snapshots)
        assert index_state(self.mirror) == index_state(event_base)
        for pattern in PATTERNS:
            assert _resolved(self.mirror, pattern) == _resolved(event_base, pattern)

    def check(self, rng: random.Random, event_base: EventBase) -> None:
        """One trip per rule over the log and over the mirror: same answers."""
        distinct = event_base._distinct_timestamps
        nows = sorted(rng.sample(distinct, min(len(distinct), rng.randint(1, 3))))
        for rule in self.rules:
            on_log, log_memo, on_mirror, mirror_memo, window_start = rule
            entries = [
                (window_start, now, rng.random() < 0.2)
                for now in nows
                if window_start is None or now >= window_start
            ]
            log_stats, mirror_stats = EvaluationStats(), EvaluationStats()
            expected = on_log.check_trip(event_base, entries, log_memo, log_stats)
            decided = on_mirror.check_trip(
                self.mirror, entries, mirror_memo, mirror_stats
            )
            assert decided == expected
            assert mirror_stats == log_stats
            hits = [d.instant for d in expected if d is not None and d.triggered]
            if hits:
                rule[4] = hits[0]


def _grow(rng: random.Random, event_base: EventBase, count: int, types: int) -> None:
    """Append ``count`` random rows drawn from the first ``types`` event types."""
    stamp = event_base.latest_timestamp() or 1
    for _ in range(count):
        stamp += rng.randint(0, 2)
        shape = random_occurrence(rng, eid=1)
        event_type = rng.choice(UNIVERSE[:types])
        if rng.random() < 0.2:
            # Equal but distinct type object: the encoder keys on identity.
            event_type = EventType(
                event_type.operation, event_type.class_name, event_type.attribute
            )
        event_base.record(
            event_type, oid=shape.oid, timestamp=stamp, payload=shape.payload or None
        )


def test_mirrors_equal_the_log_and_every_position_is_encoded_once_property():
    saw_inline = saw_fallback = False
    operators: set[str] = set()
    for seed in range(40):
        rng = random.Random(seed)
        generator = ExpressionGenerator(event_types=PATTERNS, seed=seed)
        expressions = [generator.expression(rng.randint(1, 4)) for _ in range(4)]
        for expression in expressions:
            operators |= _operators(expression)
        log = _RowLog()
        workers = [_Worker(expressions) for _ in range(rng.randint(1, 4))]
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
            total = len(event_base)
            if consulted:
                log.encode_through(event_base, total)  # begin_trip
            for worker in consulted:
                if worker.offset < total:
                    worker.catch_up(log, event_base)
                if total:
                    worker.check(rng, event_base)
        total = len(event_base)
        log.encode_through(event_base, total)
        for worker in workers:
            worker.catch_up(log, event_base)
            if total:
                worker.check(rng, event_base)
        assert log.encoded == total and len(log.rows) == total * ROW_WIDTH
        assert log.rows_inline + log.rows_fallback == positions + total, (
            f"seed {seed}: some position was encoded twice (or never)"
        )
        saw_inline |= log.rows_inline > 0
        saw_fallback |= log.rows_fallback > 0
    assert saw_inline and saw_fallback  # both row forms were exercised
    assert operators >= OPERATORS  # every operator was checked on both sides


# ---------------------------------------------------------------------------
# Refusals: the frame raises and the mirror is left as it was
# ---------------------------------------------------------------------------

ALPHA, BETA = UNIVERSE[0], UNIVERSE[3]


def _next_delta(encoder: _RowEncoder, *occurrences: EventOccurrence) -> tuple:
    """The delta of ``occurrences`` after the three rows of :func:`_primed`."""
    return encode_frame(encoder, list(occurrences), 3, len(encoder.type_snapshots))[0]


def _truncated(delta: tuple) -> tuple:
    start, count, packed, fallbacks, types = delta
    return start, count, packed[:-1], fallbacks, types


def _without_fallbacks(delta: tuple) -> tuple:
    start, count, packed, _fallbacks, types = delta
    return start, count, packed, (), types


def _with_stray_fallback(delta: tuple) -> tuple:
    start, count, packed, fallbacks, types = delta
    stray = (start + count, EventOccurrence(9, ALPHA, 9, 9).snapshot())
    return start, count, packed, fallbacks + (stray,), types


REFUSALS = {
    "frame length": (
        SnapshotError,
        "bytes shipped",
        lambda encoder: _truncated(
            _next_delta(encoder, EventOccurrence(4, ALPHA, 4, 3))
        ),
    ),
    "placeholder without a row": (
        SnapshotError,
        "no out-of-band row",
        lambda encoder: _without_fallbacks(
            _next_delta(encoder, EventOccurrence(4, ALPHA, 4, 3, payload={"k": 1}))
        ),
    ),
    "unmatched fallback row": (
        SnapshotError,
        "matched no placeholder",
        lambda encoder: _with_stray_fallback(
            _next_delta(encoder, EventOccurrence(4, ALPHA, 4, 3))
        ),
    ),
    "duplicate EID within the delta": (
        EventCalculusError,
        "duplicate EID 4",
        lambda encoder: _next_delta(
            encoder, EventOccurrence(4, ALPHA, 4, 3), EventOccurrence(4, BETA, "b", 3)
        ),
    ),
    "duplicate EID across deltas": (
        EventCalculusError,
        "duplicate EID 2",
        lambda encoder: _next_delta(
            encoder, EventOccurrence(4, ALPHA, 4, 3), EventOccurrence(2, BETA, 7, 3)
        ),
    ),
    "stamp before the mirror's last": (
        EventCalculusError,
        "non-decreasing",
        lambda encoder: _next_delta(encoder, EventOccurrence(4, BETA, 4, 1)),
    ),
    "stamp decreasing within the delta": (
        EventCalculusError,
        "non-decreasing",
        lambda encoder: _next_delta(
            encoder, EventOccurrence(4, ALPHA, 4, 5), EventOccurrence(5, BETA, 5, 4)
        ),
    ),
}


def _primed() -> tuple[_RowEncoder, _FrameReader, StampIndex]:
    """A reader and mirror that applied a first delta: EIDs 1-3, stamps 1-2."""
    encoder = _RowEncoder()
    reader = _FrameReader()
    mirror = StampIndex()
    first = [
        EventOccurrence(1, ALPHA, 1, 1),
        EventOccurrence(2, ALPHA, "a#2", 2),
        EventOccurrence(3, BETA, 3, 2, payload={"k": 1}),
    ]
    reader.apply(encode_frame(encoder, first)[0], mirror)
    assert len(mirror) == 3
    return encoder, reader, mirror


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_a_refused_delta_raises_and_leaves_the_mirror_unchanged(refusal):
    error, message, build = REFUSALS[refusal]
    encoder, reader, mirror = _primed()
    before = index_state(mirror)
    with pytest.raises(error, match=message):
        reader.apply(build(encoder), mirror)
    assert index_state(mirror) == before


def test_a_non_positive_stamp_is_refused_and_leaves_the_mirror_unchanged():
    # An occurrence object cannot even hold stamp 0; a fallback tuple can.
    delta, _ = encode_frame(
        _RowEncoder(), [EventOccurrence(1, ALPHA, 1, 1, payload={"k": 1})]
    )
    start, count, packed, ((position, row),), types = delta
    zero_stamp = (position, row[:3] + (0,) + row[4:])
    mirror = StampIndex()
    with pytest.raises(EventCalculusError, match="positive time stamp"):
        _FrameReader().apply((start, count, packed, (zero_stamp,), types), mirror)
    assert index_state(mirror) == index_state(StampIndex())


# ---------------------------------------------------------------------------
# The worker holds no occurrence objects
# ---------------------------------------------------------------------------


class _ScriptedChannel:
    """A worker channel that replays pickled requests and keeps the replies."""

    def __init__(self, *requests: tuple) -> None:
        self._requests = [pickle.dumps(request) for request in requests]
        self.replies: list[tuple] = []

    def recv_bytes(self) -> bytes:
        if not self._requests:
            raise EOFError
        return self._requests.pop(0)

    def send_bytes(self, payload: bytes) -> None:
        self.replies.append(pickle.loads(payload))


def test_a_worker_applies_a_delta_without_building_an_occurrence(monkeypatch):
    event_base = EventBase()
    _grow(random.Random(3), event_base, 80, types=len(UNIVERSE))
    transport = ShardTransport(EngineConfig())
    transport.begin_trip(event_base, len(event_base))
    delta, _types = transport.delta_for(0, 0)
    assert delta[3], "the delta should carry fallback rows too"
    expression = SetConjunction(
        parse_expression("create(alpha)"), SetNegation(parse_expression("modify(beta)"))
    )
    now = event_base.latest_timestamp()
    expected = compile_check(expression).check(event_base, None, now)

    built: list[int] = []
    construct = EventOccurrence.__post_init__

    def counted(occurrence: EventOccurrence) -> None:
        built.append(occurrence.eid)
        construct(occurrence)

    monkeypatch.setattr(EventOccurrence, "__post_init__", counted)
    segments = ((0, (("r", None, False),), now),)
    channel = _ScriptedChannel(
        ("check", delta, (("r", 1, expression),), (), segments), ("stop",)
    )
    _worker_main(channel, EngineConfig(), False)

    assert built == []
    (status, body, _metrics), = channel.replies
    assert status == "ok"
    replies, _stats = pickle.loads(body)
    row = (
        expected.triggered,
        expected.instant,
        expected.ts_value,
        expected.window_size,
        expected.instants_sampled,
    )
    assert replies == ((0, (("r", row),)),)


# ---------------------------------------------------------------------------
# The synchronous failure for unpicklable payloads
# ---------------------------------------------------------------------------


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
            log.encode_through(event_base, len(event_base))
        message = str(excinfo.value)
        assert "picklable" in message
        assert "eid=2" in message  # names the offending occurrence
        # The picklable prefix stays encoded — once, however often the
        # caller retries — and nothing of the offender or beyond is kept.
        assert log.encoded == 1 and len(log.rows) == ROW_WIDTH
        assert (log.rows_inline, log.rows_fallback) == (1, 0)
        assert log.fallback_rows == []
    # What was encoded is a usable delta.
    mirror = StampIndex()
    _FrameReader().apply(log.delta(0, 0), mirror)
    prefix = EventBase()
    prefix.append(event_base.occurrence_at(0))
    assert index_state(mirror) == index_state(prefix)
