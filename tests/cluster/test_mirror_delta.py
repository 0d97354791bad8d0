"""The column delta: the one form in which the log crosses to worker mirrors.

``ShardTransport.begin_trip`` (coordinator) logs every EB position once — its
event type's id and its OID; ``delta_for`` slices those columns and the
Event Base's own stamp column from a worker's offset; ``apply_delta``
(worker) indexes the delta straight into the worker's mirror, a
:class:`~repro.events.event_base.StampIndex`.  A differential property test
drives the pair the way the pool does — several workers at their own offsets
and type-table watermarks, consulted in random subsets, with resets in
between, every delta through ``pickle`` — and pins that every mirror indexes
exactly what the coordinator's Event Base indexes (the per-type OID column
included, OID types too), that the compiled checks decide (and count)
identically over both, and that each position is logged once.  Refusal tests
pin that a delta which does not continue the mirror raises and leaves mirror
and type table as they were.  Three more pin that the type table grows once
per type (keyed by equality) and ships only what a worker lacks, that OIDs and
stamps of any width cross unchanged, and that equal logs pickle to the same
delta bytes.  A structural test pins that a worker applies a delta without
building a single occurrence object; a guard test the synchronous failure for
an OID that does not pickle.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cluster.process_pool import _worker_main
from repro.cluster.transport import ShardTransport, apply_delta
from repro.config import EngineConfig
from repro.core.compile import CheckBinder, compile_check
from repro.core.expressions import EventExpression, SetConjunction, SetNegation
from repro.core.parser import parse_expression
from repro.core.triggering import TriggerMemo
from repro.errors import EventCalculusError, SnapshotError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase, StampIndex
from repro.workloads.generator import ExpressionGenerator

from tests.events.test_event_base import assert_columns, index_state

UNIVERSE = (
    EventType(Operation.CREATE, "alpha"),
    EventType(Operation.DELETE, "alpha"),
    EventType(Operation.MODIFY, "alpha", "size"),
    EventType(Operation.MODIFY, "beta"),
    EventType(Operation.RAISE, "tick"),
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


def random_occurrence(rng: random.Random, eid: int) -> EventOccurrence:
    """A random occurrence: OIDs of every shape a log holds, some payloads."""
    roll = rng.random()
    oid: object
    if roll < 0.35:
        oid = rng.randint(-(1 << 40), 1 << 40)
    elif roll < 0.70:
        oid = f"{rng.choice(('alpha', 'beta'))}#{rng.randint(1, 999)}"
    elif roll < 0.78:
        oid = "oid-" + "x" * rng.randint(23, 40)
    elif roll < 0.86:
        oid = rng.choice([-(1 << 63) - 1, 1 << 63])  # beyond int64
    elif roll < 0.93:
        oid = rng.choice([True, False])  # equal to 1 / 0, but not an int
    else:
        oid = ("composite", rng.randint(0, 9))
    return EventOccurrence(
        eid=eid,
        event_type=rng.choice(UNIVERSE),
        oid=oid,
        timestamp=rng.randint(1, 1 << 32),
        payload={"k": rng.randint(0, 9)} if rng.random() < 0.25 else {},
    )


def _operators(expression: EventExpression) -> set[str]:
    found = {type(expression).__name__}
    for child in expression.children():
        found |= _operators(child)
    return found


def _resolved(store: StampIndex, pattern: EventType) -> list[tuple]:
    return [
        (
            list(index.timestamps),
            list(index.positions),
            list(index.oids),
            dict(index.per_oid),
        )
        for index in store._indexes_matching(pattern)
    ]


def _oid_types(store: StampIndex) -> list[list[type]]:
    return [list(map(type, index.oids)) for index in store._by_type.values()]


class _CountingEventBase(EventBase):
    """An Event Base that counts the rows it hands out by position range."""

    handed = 0

    def occurrences_between(self, start: int, stop: int) -> list[EventOccurrence]:
        rows = super().occurrences_between(start, stop)
        self.handed += len(rows)
        return rows


class _Worker:
    """What the pool and a worker hold between trips, minus the process."""

    def __init__(self, expressions: list[EventExpression]) -> None:
        self.expressions = expressions
        self.reset()

    def reset(self) -> None:
        self.offset = 0
        self.shipped_types = 0
        self.types: list[EventType] = []
        self.mirror = StampIndex()
        # Per rule: the coordinator-side binding and memo, the worker-side
        # ones (each side has its own binder, as in the pool), and the
        # rule's window start (moved to the instant it last triggered at).
        on_log, on_mirror = CheckBinder(), CheckBinder()
        self.rules = [
            [on_log.bind(e), TriggerMemo(), on_mirror.bind(e), TriggerMemo(), None]
            for e in self.expressions
        ]

    def catch_up(self, transport: ShardTransport, event_base: EventBase) -> None:
        delta, self.shipped_types = transport.delta_for(
            self.offset, self.shipped_types
        )
        apply_delta(pickle.loads(pickle.dumps(delta)), self.types, self.mirror)
        self.offset = len(event_base)
        assert self.types == transport._types
        assert index_state(self.mirror) == index_state(event_base)
        assert _oid_types(self.mirror) == _oid_types(event_base)
        assert assert_columns(
            self.mirror, lambda position: event_base.occurrence_at(position).oid
        ) == len(event_base)
        for pattern in PATTERNS:
            assert _resolved(self.mirror, pattern) == _resolved(event_base, pattern)

    def check(self, rng: random.Random, event_base: EventBase) -> None:
        """A few per-block checks per rule, over the log and over the mirror.

        Each side keeps one memo per rule across every call, the way a
        coordinator and a worker each keep theirs: same decisions,
        ``instants_sampled`` included.
        """
        distinct = event_base._distinct_timestamps
        nows = sorted(rng.sample(distinct, min(len(distinct), rng.randint(1, 3))))
        for rule in self.rules:
            on_log, log_memo, on_mirror, mirror_memo, window_start = rule
            for now in nows:
                if window_start is not None and now < window_start:
                    continue
                expected = on_log.check(event_base, window_start, now, log_memo)
                decided = on_mirror.check(self.mirror, window_start, now, mirror_memo)
                assert decided == expected
                if expected.triggered:
                    # A consideration moves the window start.
                    window_start = rule[4] = expected.instant


def _grow(rng: random.Random, event_base: EventBase, count: int, types: int) -> None:
    """Append ``count`` random rows drawn from the first ``types`` event types."""
    stamp = event_base.latest_timestamp() or 1
    for _ in range(count):
        stamp += rng.randint(0, 2)
        shape = random_occurrence(rng, eid=1)
        event_type = rng.choice(UNIVERSE[:types])
        if rng.random() < 0.2:
            # Equal but distinct type object: the type table keys on equality.
            event_type = EventType(
                event_type.operation, event_type.class_name, event_type.attribute
            )
        event_base.record(
            event_type, oid=shape.oid, timestamp=stamp, payload=shape.payload or None
        )


def test_mirrors_equal_the_log_and_every_position_is_logged_once_property():
    operators: set[str] = set()
    for seed in range(40):
        rng = random.Random(seed)
        generator = ExpressionGenerator(event_types=PATTERNS, seed=seed)
        expressions = [generator.expression(rng.randint(1, 4)) for _ in range(4)]
        for expression in expressions:
            operators |= _operators(expression)
        transport = ShardTransport(EngineConfig())
        workers = [_Worker(expressions) for _ in range(rng.randint(1, 4))]
        event_base = _CountingEventBase()
        positions = 0  # positions logged from the logs before the current one
        handed = 0  # ... and how many rows those logs handed the transport
        for step in range(rng.randint(4, 14)):
            if step and rng.random() < 0.15:
                # The coordinator's EB was emptied (transaction boundary).
                positions += len(transport._type_column)
                handed += event_base.handed
                event_base = _CountingEventBase()
                transport.note_reset()
                for worker in workers:
                    worker.reset()
            # Types enter mid-log: later steps draw from a wider universe.
            _grow(rng, event_base, rng.randint(0, 12), types=1 + step % len(UNIVERSE))
            consulted = [worker for worker in workers if rng.random() < 0.6]
            total = len(event_base)
            if consulted:
                transport.begin_trip(event_base, total)
            for worker in consulted:
                if worker.offset < total:
                    worker.catch_up(transport, event_base)
                if total:
                    worker.check(rng, event_base)
        total = len(event_base)
        transport.begin_trip(event_base, total)
        for worker in workers:
            if worker.offset < total:  # the pool sends no empty delta
                worker.catch_up(transport, event_base)
            if total:
                worker.check(rng, event_base)
        assert len(transport._type_column) == len(transport._oids) == total
        assert handed + event_base.handed == positions + total, (
            f"seed {seed}: some position was logged twice (or never)"
        )
    assert operators >= OPERATORS  # every operator was checked on both sides


# ---------------------------------------------------------------------------
# Refusals: the delta raises, and mirror and type table are left as they were
# ---------------------------------------------------------------------------

ALPHA, GAMMA, BETA = UNIVERSE[0], UNIVERSE[1], UNIVERSE[3]

#: Deltas that follow :func:`_primed` (3 positions, types ``[ALPHA, BETA]``,
#: last stamp 2): ``(error, message, delta)``.
REFUSALS = {
    "start-behind-the-mirror": (
        SnapshotError,
        "starts at log position 2 but the mirror holds 3",
        (2, [], [0], [4], [3]),
    ),
    "start-ahead-of-the-mirror": (
        SnapshotError,
        "starts at log position 4 but the mirror holds 3",
        (4, [], [0], [4], [3]),
    ),
    "an-oid-column-one-short": (
        SnapshotError,
        "columns disagree",
        (3, [], [0, 1], [4], [3, 3]),
    ),
    "a-stamp-column-one-long": (
        SnapshotError,
        "columns disagree",
        (3, [], [0], [4], [3, 3]),
    ),
    "a-type-id-never-shipped": (
        SnapshotError,
        "never shipped",
        (3, [GAMMA], [2, 3], [4, 5], [3, 3]),
    ),
    "a-negative-type-id": (
        SnapshotError,
        "never shipped",
        (3, [], [-1], [4], [3]),
    ),
    "a-stamp-before-the-mirrors-last": (
        EventCalculusError,
        "non-decreasing",
        (3, [GAMMA], [2], [4], [1]),
    ),
    "a-stamp-decreasing-within-the-delta": (
        EventCalculusError,
        "non-decreasing",
        (3, [GAMMA], [0, 2], [4, 5], [5, 4]),
    ),
}


def _primed() -> tuple[list[EventType], StampIndex]:
    """A type table and mirror that applied a first delta: stamps 1, 2, 2."""
    event_base = EventBase()
    event_base.record(ALPHA, 1, 1)
    event_base.record(ALPHA, "a#2", 2)
    event_base.record(BETA, 3, 2, payload={"k": 1})
    transport = ShardTransport(EngineConfig())
    transport.begin_trip(event_base, 3)
    types: list[EventType] = []
    mirror = StampIndex()
    apply_delta(transport.delta_for(0, 0)[0], types, mirror)
    assert types == [ALPHA, BETA] and len(mirror) == 3
    return types, mirror


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_a_refused_delta_raises_and_leaves_the_mirror_unchanged(refusal):
    error, message, delta = REFUSALS[refusal]
    types, mirror = _primed()
    before = index_state(mirror)
    with pytest.raises(error, match=message):
        apply_delta(delta, types, mirror)
    assert index_state(mirror) == before
    assert types == [ALPHA, BETA]


def test_a_non_positive_stamp_is_refused_and_leaves_the_mirror_unchanged():
    # An occurrence object cannot even hold stamp 0; a delta's column can.
    types: list[EventType] = []
    mirror = StampIndex()
    with pytest.raises(EventCalculusError, match="positive time stamp"):
        apply_delta((0, [ALPHA], [0, 0], [1, 2], [0, 1]), types, mirror)
    assert index_state(mirror) == index_state(StampIndex())
    assert types == []


def test_the_same_delta_is_accepted_once():
    types, mirror = _primed()
    delta = (3, [GAMMA], [2, 0], [4, 5], [3, 3])
    apply_delta(delta, types, mirror)
    assert types == [ALPHA, BETA, GAMMA] and len(mirror) == 5
    with pytest.raises(SnapshotError, match="starts at log position 3"):
        apply_delta(delta, types, mirror)
    assert types == [ALPHA, BETA, GAMMA] and len(mirror) == 5


# ---------------------------------------------------------------------------
# The type table, the OID column and the delta's bytes
# ---------------------------------------------------------------------------


def test_type_table_grows_once_per_type_and_ships_only_the_unshipped_types():
    """Each delta carries exactly the types past the worker's watermark."""
    rng = random.Random(99)
    event_base = EventBase()
    transport = ShardTransport(EngineConfig())
    types: list[EventType] = []
    mirror = StampIndex()
    shipped = 0
    seen: list[EventType] = []
    for stamp in range(1, 60):
        event_type = rng.choice(UNIVERSE)
        if rng.random() < 0.3:
            # Equal but distinct type object: it must not grow the table.
            event_type = EventType(
                event_type.operation, event_type.class_name, event_type.attribute
            )
        event_base.record(event_type, oid=stamp, timestamp=stamp)
        transport.begin_trip(event_base, len(event_base))
        delta, now_shipped = transport.delta_for(len(mirror), shipped)
        new_types = [t for t in [event_type] if t not in seen]
        assert delta[1] == new_types
        seen += new_types
        apply_delta(pickle.loads(pickle.dumps(delta)), types, mirror)
        # First-met order, one entry per distinct type, on both sides.
        assert transport._types == seen == types
        assert now_shipped == len(seen)
        shipped = now_shipped
    assert len(types) == len(UNIVERSE)
    assert index_state(mirror) == index_state(event_base)


def test_oids_and_stamps_of_any_width_cross_the_delta_unchanged():
    """No fixed-width field: int64 edges and beyond, long strings, bools."""
    int64_max, int64_min = (1 << 63) - 1, -(1 << 63)
    oids = [int64_max, int64_min, 1 << 70, -(1 << 70), "", "x" * 300, True, 1]
    alpha = EventType(Operation.MODIFY, "alpha", "size")
    event_base = EventBase()
    for stamp, oid in enumerate(oids, 1):
        event_base.record(alpha, oid=oid, timestamp=stamp)
    event_base.record(alpha, oid=0, timestamp=1 << 64)
    transport = ShardTransport(EngineConfig())
    transport.begin_trip(event_base, len(event_base))
    mirror = StampIndex()
    apply_delta(pickle.loads(pickle.dumps(transport.delta_for(0, 0)[0])), [], mirror)
    assert index_state(mirror) == index_state(event_base)
    assert _oid_types(mirror) == _oid_types(event_base)
    (index,) = mirror._by_type.values()
    assert list(index.oids) == oids + [0]
    assert list(index.timestamps)[-1] == 1 << 64


def test_equal_logs_pickle_to_the_same_delta_bytes():
    """A delta is a function of the log's values alone: a log rebuilt from
    equal but distinct type objects ships the same bytes, so ``wire_bytes``
    is a count and not a property of the run."""
    rng = random.Random(5)
    steps = [rng.randint(1, 12) for _ in range(6)]

    def delta_bytes(fresh_types: bool) -> list[bytes]:
        source = EventBase()
        _grow(random.Random(5), source, sum(steps), types=len(UNIVERSE))
        event_base = EventBase()
        transport = ShardTransport(EngineConfig())
        sent: list[bytes] = []
        offset = shipped = 0
        rows = iter(source)
        for count in steps:
            for _ in range(count):
                row = next(rows)
                event_type = row.event_type
                if fresh_types:
                    event_type = EventType(
                        event_type.operation,
                        event_type.class_name,
                        event_type.attribute,
                    )
                event_base.record(event_type, row.oid, row.timestamp, row.payload)
            transport.begin_trip(event_base, len(event_base))
            delta, shipped = transport.delta_for(offset, shipped)
            offset = len(event_base)
            sent.append(pickle.dumps(delta, pickle.HIGHEST_PROTOCOL))
        return sent

    assert delta_bytes(fresh_types=False) == delta_bytes(fresh_types=True)


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
    assert any(occurrence.payload for occurrence in event_base)
    transport = ShardTransport(EngineConfig())
    transport.begin_trip(event_base, len(event_base))
    delta, _types = transport.delta_for(0, 0)
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
    channel = _ScriptedChannel(
        ("check", delta, (("r", 1, expression),), (), (("r", None),), now), ("stop",)
    )
    _worker_main(channel, EngineConfig(), False)

    assert built == []
    (status, body, _metrics), = channel.replies
    assert status == "ok"
    rows = pickle.loads(body)
    row = (
        expected.triggered,
        expected.instant,
        expected.ts_value,
        expected.window_size,
        expected.instants_sampled,
    )
    assert rows == (row,)


# ---------------------------------------------------------------------------
# The synchronous failure for an OID that does not pickle
# ---------------------------------------------------------------------------


def test_an_unpicklable_oid_is_named_by_its_eid_and_logged_once():
    """The coordinator finds the offender on the failure path, from the
    delta alone; the log holds every position once, however often the
    caller retries, and a payload that does not pickle never crosses."""
    alpha = EventType(Operation.CREATE, "alpha")
    event_base = EventBase()
    event_base.record(alpha, oid="alpha#1", timestamp=1, payload={"f": lambda: 0})
    event_base.record(alpha, oid=lambda: None, timestamp=2)  # does not pickle
    event_base.record(alpha, oid="alpha#3", timestamp=3)
    transport = ShardTransport(EngineConfig())
    for _attempt in range(2):
        transport.begin_trip(event_base, len(event_base))
        delta, _types = transport.delta_for(0, 0)
        with pytest.raises(Exception):
            pickle.dumps(delta)
        assert transport.culprit(delta) == " (first offender: occurrence eid=2)"
        assert len(transport._type_column) == len(transport._oids) == 3
    # The picklable prefix is a usable delta, payload and all.
    start, new_types, type_ids, oids, stamps = transport.delta_for(0, 0)[0]
    prefix = (start, new_types, type_ids[:1], oids[:1], stamps[:1])
    assert transport.culprit(prefix) == ""
    mirror = StampIndex()
    apply_delta(pickle.loads(pickle.dumps(prefix)), [], mirror)
    expected = EventBase()
    expected.append(event_base.occurrence_at(0))
    assert index_state(mirror) == index_state(expected)
