"""Window snapshots: the compact picklable form BoundedView ships out of process.

Property tests pin the round trip ``BoundedView -> snapshot -> pickle ->
restore`` on random histories: the restored window must answer the calculus
queries — occurrences, distinct timestamps, ``objects_affected_by``, the
``last_timestamp``/``last_timestamp_on`` lookups — exactly like the live
view.  A guard test pins the failure mode for unpicklable user payloads: a
clear :class:`SnapshotError` raised synchronously in the shipping process
(also through the full process-mode coordinator), never a worker crash.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.sharding import ShardedRuleTable
from repro.config import EngineConfig
from repro.errors import SnapshotError
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase, WindowSnapshot
from repro.rules.event_handler import EventHandler


def random_event_base(rng: random.Random, events: int) -> EventBase:
    """A random EB over a small type/oid universe, ties included."""
    universe = [
        EventType(Operation.CREATE, "alpha"),
        EventType(Operation.DELETE, "alpha"),
        EventType(Operation.MODIFY, "alpha", "size"),
        EventType(Operation.MODIFY, "beta"),
        EventType(Operation.RAISE, "tick"),
    ]
    event_base = EventBase()
    stamp = 0
    for _ in range(events):
        if rng.random() < 0.6:
            stamp += rng.randint(1, 3)
        event_type = rng.choice(universe)
        event_base.record(
            event_type,
            oid=f"{event_type.class_name}#{rng.randint(1, 4)}",
            timestamp=max(1, stamp),
            payload={"k": rng.randint(0, 9)} if rng.random() < 0.3 else None,
        )
    return event_base


def random_bounds(rng: random.Random, event_base: EventBase):
    latest = event_base.latest_timestamp() or 1
    after = rng.choice([None, rng.randint(0, latest)])
    lower = after if after is not None else 0
    until = rng.choice([None, rng.randint(lower, latest + 2)])
    return after, until


def test_snapshot_pickle_restore_round_trip_property():
    for seed in range(25):
        rng = random.Random(seed)
        event_base = random_event_base(rng, events=rng.randint(0, 40))
        after, until = random_bounds(rng, event_base)
        view = event_base.view(after=after, until=until)

        snapshot = WindowSnapshot.from_pickled(view.snapshot().pickled())
        restored = snapshot.restore()

        assert snapshot.after == after and snapshot.until == until
        assert restored.occurrences == view.occurrences, f"seed {seed}: occurrences"
        assert restored.timestamps() == view.timestamps(), (
            f"seed {seed}: distinct stamps"
        )
        assert restored.latest_timestamp() == view.latest_timestamp()
        assert restored.event_types() == view.event_types()
        assert restored.oids() == view.oids()
        watched = {occurrence.event_type for occurrence in view} or {
            EventType(Operation.CREATE, "alpha")
        }
        probe = (event_base.latest_timestamp() or 1) + 1
        assert restored.objects_affected_by(watched) == view.objects_affected_by(
            watched
        ), f"seed {seed}: objects_affected_by"
        for event_type in watched:
            assert restored.last_timestamp(event_type, probe) == view.last_timestamp(
                event_type, probe
            )
            for oid in view.oids():
                assert restored.last_timestamp_on(
                    event_type, oid, probe
                ) == view.last_timestamp_on(event_type, oid, probe)


def test_snapshot_payloads_and_eids_survive():
    event_base = EventBase()
    event_type = EventType(Operation.MODIFY, "alpha", "size")
    event_base.record(
        event_type, oid="alpha#1", timestamp=3, payload={"old": 1, "new": 2}
    )
    restored = event_base.full_view().snapshot().restore()
    (occurrence,) = restored.occurrences
    assert occurrence.eid == 1
    assert occurrence.payload == {"old": 1, "new": 2}
    assert occurrence.event_type == event_type


def test_snapshot_rows_are_compact_builtins():
    """The wire format stays plain tuples/strings/ints — no library objects."""
    rng = random.Random(5)
    event_base = random_event_base(rng, events=10)
    snapshot = event_base.full_view().snapshot()
    for row in snapshot.rows:
        eid, type_row, oid, stamp, payload = row
        assert isinstance(eid, int) and isinstance(stamp, int)
        assert isinstance(type_row, tuple) and isinstance(type_row[0], str)
        assert payload is None or isinstance(payload, dict)


def test_unpicklable_payload_raises_clear_snapshot_error():
    event_base = EventBase()
    event_base.record(
        EventType(Operation.CREATE, "alpha"),
        oid="alpha#1",
        timestamp=1,
        payload={"callback": lambda: None},  # unpicklable user payload
    )
    snapshot = event_base.full_view().snapshot()
    with pytest.raises(SnapshotError) as excinfo:
        snapshot.pickled()
    message = str(excinfo.value)
    assert "picklable" in message
    assert "eid=1" in message  # names the offending occurrence


def test_unpicklable_payload_fails_at_dispatch_not_in_worker():
    """The process-mode coordinator surfaces SnapshotError synchronously."""
    from repro.core.parser import parse_expression
    from repro.rules.actions import NO_ACTION
    from repro.rules.conditions import TRUE_CONDITION
    from repro.rules.rule import Rule

    table = ShardedRuleTable(2)
    event_base = EventBase()
    table.add(
        Rule(
            name="watcher",
            events=parse_expression("create(alpha)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
    ).reset(0)
    handler = EventHandler(event_base)
    support = ShardCoordinator(
        table, event_base, EngineConfig.from_env(shard_mode="processes")
    )
    try:
        event_base.record(
            EventType(Operation.CREATE, "alpha"),
            oid="alpha#1",
            timestamp=1,
            payload={"callback": lambda: None},
        )
        batch = handler.flush_block()
        with pytest.raises(SnapshotError, match="picklable"):
            support.check_after_block(batch, 1, 0, type_signature=batch.type_signature)
        # The pool survives the failure and keeps serving picklable blocks.
        event_base.record(
            EventType(Operation.CREATE, "alpha"), oid="alpha#2", timestamp=2
        )
        batch = handler.flush_block()
        with pytest.raises(SnapshotError):
            # The unpicklable occurrence is still part of the unshipped slice.
            support.check_after_block(batch, 2, 0, type_signature=batch.type_signature)
    finally:
        support.close()


def test_pickled_rejects_foreign_data():
    with pytest.raises(SnapshotError, match="WindowSnapshot"):
        WindowSnapshot.from_pickled(pickle.dumps({"not": "a snapshot"}))
