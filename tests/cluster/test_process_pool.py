"""Failure and catch-up semantics of the process shard pool.

The happy path is pinned by the cross-mode differential harness
(``test_mode_equivalence.py``); these tests pin what happens when things go
wrong out of process, and what the row log owes a worker that fell behind:

* a worker-side evaluation error surfaces in the coordinator as the
  *original* exception type (behavioral parity with the serial mode's error
  path), with the worker traceback chained as a ``ShardWorkerError`` cause,
  and the pool survives — every other worker's reply is drained so no stale
  reply can pair with a later request;
* a dead worker poisons the pool — killed between blocks or after its
  message went out: the failing call raises ``ShardWorkerError``, every
  subsequent call fails loudly instead of silently desyncing, and
  ``close()`` leaves no process behind; a closed pool refuses work, and
  workers leave through the ``stop`` message rather than ``terminate``;
* an unpicklable user payload fails in the coordinator, naming the
  occurrence, before any worker hears of the trip;
* a delta that does not add up is refused worker-side (``SnapshotError``)
  and poisons the pool instead of rebuilding a wrong mirror;
* a reset mid-stream restarts positions and the event-type table, and a
  worker that was not consulted for longer than any buffer catches up from
  the log in one delta, every position still encoded once.

The coordinator checks the rules of evaluation home 0 itself, so every rule
here is named for a worker's home (:func:`homed_names`) unless the test is
about the coordinator's share.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal

import pytest

from repro.cluster.coordinator import ShardCoordinator, home_shard
from repro.cluster.process_pool import ProcessShardPool
from repro.cluster.transport import ShardTransport
from repro.config import EngineConfig
from repro.core.parser import parse_expression
from repro.errors import ShardWorkerError, SnapshotError
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport


CREATE_ALPHA = EventType(Operation.CREATE, "alpha")


def homed_names(homes, shards: int = 2) -> list[str]:
    """Distinct rule names ``w<k>``, the i-th with evaluation home ``homes[i]``.

    In processes mode home 0 is the coordinator's own share and home *k* is
    pool worker *k − 1*: a test that needs a worker to see a rule names it
    for a home ≥ 1.
    """
    candidates = (f"w{index}" for index in itertools.count())
    return [
        next(name for name in candidates if home_shard(name, shards) == home)
        for home in homes
    ]


def build_support(
    rule_count: int = 4,
    expressions: tuple[str, ...] = ("create(alpha)",),
    shard_mode: str = "processes",
    shards: int = 2,
    homes: tuple[int, ...] = (1,),
):
    """``rule_count`` rules cycling through ``expressions`` and ``homes``;
    ``shard_mode="serial"`` assembles the single table, as the engine does."""
    table = RuleTable()
    event_base = EventBase()
    names = homed_names(
        [homes[index % len(homes)] for index in range(rule_count)], shards
    )
    for index, name in enumerate(names):
        table.add(
            Rule(
                name=name,
                events=parse_expression(expressions[index % len(expressions)]),
                condition=TRUE_CONDITION,
                action=NO_ACTION,
            )
        ).reset(0)
    handler = EventHandler(event_base)
    config = EngineConfig.from_env(shards=shards, shard_mode=shard_mode)
    support = (ShardCoordinator if shard_mode == "processes" else TriggerSupport)(
        table, event_base, config
    )
    return table, event_base, handler, support


def feed_block(event_base, handler, support, stamp: int):
    event_base.record(CREATE_ALPHA, oid="alpha#1", timestamp=stamp)
    signature = handler.flush_block()
    newly = support.check_after_block(signature, stamp, 0)
    for state in newly:
        state.mark_considered(stamp, executed=False)
    return newly


def test_worker_error_preserves_exception_type_and_pool_survives():
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)  # pool spawned, defs shipped
        pool = support.process_pool
        assert pool is not None

        # Sabotage one rule's shipping bookkeeping: the coordinator believes
        # the definition was shipped, so the worker hits a KeyError when the
        # work item arrives.
        state = table.states()[0]
        broken = Rule(
            name="fresh",
            events=parse_expression("create(alpha)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
        fresh = table.add(broken)
        fresh.reset(1)
        home = support._worker_of(fresh)
        assert home == 1, "'fresh' must live on the worker"
        pool._workers[home - 1].shipped_defs["fresh"] = fresh.definition_order

        event_base.record(CREATE_ALPHA, oid="alpha#2", timestamp=2)
        signature = handler.flush_block()
        with pytest.raises(KeyError) as excinfo:
            support.check_after_block(signature, 2, 0)
        # The worker traceback rides along as the chained cause.
        assert isinstance(excinfo.value.__cause__, ShardWorkerError)
        assert "fresh" in str(excinfo.value.__cause__)

        # A clean error reply does not poison the pool: fix the bookkeeping
        # and the next block works (the reply streams stayed aligned).
        del pool._workers[home - 1].shipped_defs["fresh"]
        for st in table.states():
            if st.triggered:
                st.mark_considered(2, executed=False)
        assert feed_block(event_base, handler, support, 3)
        assert state.times_triggered >= 2
    finally:
        support.close()


def test_dead_worker_poisons_the_pool():
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        assert pool is not None
        for handle in pool._workers:
            handle.process.kill()
            handle.process.join(timeout=2.0)

        event_base.record(CREATE_ALPHA, oid="alpha#2", timestamp=2)
        signature = handler.flush_block()
        with pytest.raises(ShardWorkerError):
            support.check_after_block(signature, 2, 0)

        # Poisoned: subsequent calls fail loudly instead of desyncing.
        event_base.record(CREATE_ALPHA, oid="alpha#3", timestamp=3)
        signature = handler.flush_block()
        with pytest.raises(ShardWorkerError, match="broken|gone|died"):
            support.check_after_block(signature, 3, 0)
    finally:
        support.close()


def test_dead_worker_leaks_nothing_past_close():
    """Worker death mid-stream: ``close()`` still reaps every process."""
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        assert pool is not None
        processes = [handle.process for handle in pool._workers]
        for process in processes:
            process.kill()
            process.join(timeout=5.0)
        with pytest.raises(ShardWorkerError):
            feed_block(event_base, handler, support, 2)
    finally:
        support.close()
    assert support.process_pool is None
    assert all(process.exitcode is not None for process in processes)


def test_worker_killed_mid_trip_poisons_the_pool():
    """The message reached the worker, the reply never comes: the read
    fails loudly, the pool refuses the next block, and ``close()`` reaps."""
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        (handle,) = pool._workers
        send = pool._send

        def send_then_kill(target, payload):
            # Stopped first, so the worker cannot have answered before it dies.
            os.kill(target.process.pid, signal.SIGSTOP)
            send(target, payload)
            target.process.kill()
            target.process.join(timeout=5.0)

        pool._send = send_then_kill
        with pytest.raises(ShardWorkerError, match="died before replying"):
            feed_block(event_base, handler, support, 2)
        assert handle.shipped_events == 2  # the message did go out
        pool._send = send
        with pytest.raises(ShardWorkerError, match="broken"):
            feed_block(event_base, handler, support, 3)
    finally:
        support.close()
    assert handle.process.exitcode is not None


def test_shutdown_stops_every_worker_with_its_message_and_is_idempotent():
    """Workers leave through the ``stop`` message (exit code 0), not through
    ``terminate``; a second shutdown finds nothing left to do."""
    transport = ShardTransport(EngineConfig())
    transport.launch(2, metrics_enabled=False)
    processes = [transport.process(worker_id) for worker_id in (0, 1)]
    assert all(process.is_alive() for process in processes)
    transport.shutdown()
    assert [process.exitcode for process in processes] == [0, 0]
    transport.shutdown()
    assert [process.exitcode for process in processes] == [0, 0]


def test_workers_exit_on_eof_when_the_coordinator_ends_close_without_stop():
    """A coordinator killed by a signal sends no ``stop``; closing its pipe
    ends must still reach every worker as EOF, so none outlives it."""
    transport = ShardTransport(EngineConfig())
    try:
        transport.launch(2, metrics_enabled=False)
        for worker_id in (0, 1):
            transport.channel(worker_id).close()
        for worker_id in (0, 1):
            process = transport.process(worker_id)
            process.join(timeout=5.0)
            assert process.exitcode == 0, worker_id
    finally:
        transport.shutdown()


def test_closed_pool_refuses_work_and_closes_once():
    pool = ProcessShardPool(1)
    (handle,) = pool._workers
    pool.close()
    assert handle.process.exitcode == 0
    with pytest.raises(ShardWorkerError, match="closed"):
        pool.evaluate(EventBase(), {}, 1)
    pool.reset()  # nothing to forget on a closed pool
    pool.close()


def test_pool_needs_at_least_one_worker():
    before = set(multiprocessing.active_children())
    with pytest.raises(ValueError, match="at least 1 worker"):
        ProcessShardPool(0)
    assert set(multiprocessing.active_children()) == before


def test_transport_stats_are_the_pipe_counters():
    """One placement, one set of wire counters: no reconnect count."""
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)
        stats = support.process_pool.transport_stats()
    finally:
        support.close()
    assert set(stats) == {
        "workers",
        "dispatches",
        "worker_round_trips",
        "bytes_shipped",
        "bytes_received",
        "defs_shipped",
        "encode_ms",
        "delta_encode_ms",
        "deltas_framed",
        "frame_rows_inline",
        "frame_rows_fallback",
    }
    assert stats["workers"] == stats["dispatches"] == stats["worker_round_trips"] == 1
    assert stats["frame_rows_inline"] == 1


def test_unpicklable_payload_fails_at_dispatch_not_in_worker():
    """The coordinator surfaces SnapshotError synchronously, naming the EID."""
    table, event_base, handler, support = build_support(1)
    try:
        event_base.record(CREATE_ALPHA, oid="alpha#0", timestamp=1)
        event_base.record(
            CREATE_ALPHA,
            oid="alpha#1",
            timestamp=1,
            payload={"callback": lambda: None},
        )
        signature = handler.flush_block()
        with pytest.raises(SnapshotError, match=r"picklable.*eid=2"):
            support.check_after_block(signature, 1, 0)
        pool = support.process_pool
        # Nothing was sent: no worker advanced, no bytes left the coordinator.
        assert all(handle.shipped_events == 0 for handle in pool._workers)
        assert pool.bytes_shipped == 0
        # The pool survives, and the unpicklable occurrence is still part of
        # the unshipped slice: the retry names the same occurrence and the
        # row before it is not encoded (or counted) a second time.
        event_base.record(CREATE_ALPHA, oid="alpha#2", timestamp=2)
        signature = handler.flush_block()
        with pytest.raises(SnapshotError, match="eid=2"):
            support.check_after_block(signature, 2, 0)
        stats = pool.transport_stats()
        assert stats["frame_rows_inline"] == 1
        assert stats["frame_rows_fallback"] == 0
    finally:
        support.close()


def test_delta_that_does_not_add_up_poisons_the_pool_loudly():
    """A frame announcing rows it does not carry is refused worker-side."""
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        assert pool is not None
        honest = pool._transport.delta_for

        def short_changed(offset, shipped_types):
            (start, count, packed, fallbacks, types), advance = honest(
                offset, shipped_types
            )
            return (start, count + 1, packed, fallbacks, types), advance

        pool._transport.delta_for = short_changed
        event_base.record(CREATE_ALPHA, oid="alpha#2", timestamp=2)
        signature = handler.flush_block()
        with pytest.raises(SnapshotError, match="row frame is corrupt") as excinfo:
            support.check_after_block(signature, 2, 0)
        # The worker traceback rides along, exactly like other worker errors.
        assert isinstance(excinfo.value.__cause__, ShardWorkerError)

        # The failing worker never applied its delta, so its mirror diverged
        # from the coordinator's bookkeeping: the pool must be poisoned.
        event_base.record(CREATE_ALPHA, oid="alpha#3", timestamp=3)
        signature = handler.flush_block()
        with pytest.raises(ShardWorkerError, match="broken"):
            support.check_after_block(signature, 3, 0)
    finally:
        support.close()


ALPHA_OR_GAMMA = ("create(alpha)", "create(gamma)")
CREATE_GAMMA = EventType(Operation.CREATE, "gamma")


def _run_blocks(support, handler, event_base, blocks, first_stamp=1):
    """Feed ``blocks`` (lists of ``(event type, oid)``); names triggered per block."""
    trace = []
    for stamp, block in enumerate(blocks, first_stamp):
        for event_type, oid in block:
            event_base.record(event_type, oid=oid, timestamp=stamp)
        signature = handler.flush_block()
        newly = support.check_after_block(signature, stamp, 0)
        for state in newly:
            state.mark_considered(stamp, executed=False)
        trace.append(tuple(sorted(state.rule.name for state in newly)))
    return trace


def _reset_mid_stream(shard_mode: str):
    table, event_base, handler, support = build_support(6, ALPHA_OR_GAMMA, shard_mode)
    try:
        first_log = [
            [(CREATE_ALPHA, 1)],
            [(CREATE_GAMMA, "gamma#1"), (CREATE_ALPHA, 2)],
        ]
        trace = _run_blocks(support, handler, event_base, first_log)
        # The log emptied in place, as at a transaction boundary — and it
        # meets the event types in the opposite order, so a worker still
        # holding the old log's positions or type ids would build a wrong
        # mirror.
        event_base.clear()
        support.reset_worker_mirrors()
        handler.reset()
        for state in table.states():
            state.reset(0)
        second_log = [
            [(CREATE_GAMMA, 7)],
            [(CREATE_ALPHA, "alpha#9")],
            [(CREATE_GAMMA, 8)],
        ]
        trace += _run_blocks(support, handler, event_base, second_log)
        if isinstance(support, ShardCoordinator):
            pool = support.process_pool
            log = pool._transport._row_log
            assert log.encoded == len(event_base.occurrences) == 3
            assert all(handle.shipped_events <= 3 for handle in pool._workers)
        return trace, {state.rule.name: state.times_triggered for state in table}
    finally:
        if isinstance(support, ShardCoordinator):
            support.close()


def test_reset_mid_stream_restarts_positions_and_type_table():
    reference = _reset_mid_stream("serial")
    assert any(reference[0][2:])  # the second log triggers something
    assert _reset_mid_stream("processes") == reference


def test_lagging_worker_catches_up_from_the_log():
    """A worker nobody consulted for 70 000 events — more than any fixed
    buffer this pool ever had (the old ring held 65 536 rows) — receives the
    whole suffix in one delta when its turn comes, and every EB position
    was still encoded exactly once."""
    # Alpha rules on worker 0 (home 1), gamma rules on worker 1 (home 2).
    table, event_base, handler, support = build_support(
        4, ALPHA_OR_GAMMA, shards=3, homes=(1, 2)
    )
    names = [state.rule.name for state in table.states()]
    alpha_rules, gamma_rules = tuple(sorted(names[0::2])), tuple(sorted(names[1::2]))
    try:
        assert _run_blocks(
            support, handler, event_base, [[(CREATE_ALPHA, 1), (CREATE_GAMMA, 1)]]
        ) == [tuple(sorted(names))]
        pool = support.process_pool
        alpha_home, gamma_home = (
            support._worker_of(table.get(name)) - 1 for name in names[:2]
        )
        assert alpha_home != gamma_home, "alpha and gamma must not share a worker"
        lagging = pool._workers[gamma_home]
        # Once considered, the gamma rules are not vacuous and do not ride:
        # nothing routes to their worker.
        _run_blocks(support, handler, event_base, [[(CREATE_ALPHA, 2)]], 2)
        assert lagging.shipped_events == 2

        backlog = [[(CREATE_ALPHA, oid) for oid in range(35_000)]] * 2
        assert _run_blocks(support, handler, event_base, backlog, 3) == [
            alpha_rules,
            alpha_rules,
        ]
        assert lagging.shipped_events == 2  # never consulted, never contacted
        assert pool._workers[alpha_home].shipped_events == 70_003
        trips_before = pool.dispatches

        assert _run_blocks(support, handler, event_base, [[(CREATE_GAMMA, 2)]], 5) == [
            gamma_rules
        ]
        assert lagging.shipped_events == 70_004
        assert pool.dispatches == trips_before + 1  # one trip, one 70 002-row delta
        stats = pool.transport_stats()
        assert stats["frame_rows_inline"] == 70_004
        assert stats["frame_rows_fallback"] == 0
    finally:
        support.close()


def test_rule_free_database_never_spawns_workers():
    table = RuleTable()
    event_base = EventBase()
    handler = EventHandler(event_base)
    support = ShardCoordinator(
        table, event_base, EngineConfig.from_env(shards=4, shard_mode="processes")
    )
    try:
        for stamp in (1, 2, 3):
            event_base.record(CREATE_ALPHA, oid="alpha#1", timestamp=stamp)
            signature = handler.flush_block()
            support.check_after_block(signature, stamp, 0)
        assert support.recheck_all(3, 0) == []
        assert support.process_pool is None  # never forked a single process
    finally:
        support.close()


def test_processes_coordinator_binds_no_rule_it_never_checks():
    """The bindings live with the evaluator.  In processes mode the
    coordinator is the evaluator of home 0: per block and at the commit-time
    recheck it binds exactly its own home's rules, and leaves
    ``RuleState.compiled_check`` unpopulated for every rule a worker
    checks."""
    table, event_base, handler, support = build_support(rule_count=12, homes=(0, 1))
    try:
        for stamp in (1, 2, 3, 4):
            assert feed_block(event_base, handler, support, stamp)
        support.recheck_all(4, 0)
        assert sum(state.ts_computations for state in table) >= 24
        own = {state.rule.name for state in table if support._worker_of(state) == 0}
        bound = {state.rule.name for state in table if state.compiled_check is not None}
        assert len(own) == 6
        assert bound == own
        assert support.binder.kernels_compiled == 1  # one shape, bound six times
    finally:
        support.close()


# ---------------------------------------------------------------------------
# Dealing: each evaluation home gets its share, the coordinator checks home 0
# ---------------------------------------------------------------------------


def test_ghost_shape_deals_half_the_rules_to_each_home():
    """The benchmark's rule shape — two-type disjunctions, nine in ten
    conjoined with the never-emitted ``create(ghost)`` — on two shards.
    Dealing by lowest owning shard put 5 862 of 6 000 such rules on one
    evaluator (almost every rule owns ghost's shard); dealing by name puts
    40–60 % on each, and the coordinator's ``home_population`` says so."""
    from repro.workloads.scaling import build_scaling_universe, build_shard_rules

    table = RuleTable()
    for rule in build_shard_rules(6_000, build_scaling_universe(6_000)):
        table.add(rule)
    support = ShardCoordinator(
        table, EventBase(), EngineConfig.from_env(shards=2, shard_mode="processes")
    )
    try:
        homes = [0, 0]
        for state in table:
            homes[support._worker_of(state)] += 1
        assert homes == support.home_population()
        assert all(2_400 <= share <= 3_600 for share in homes), homes
    finally:
        support.close()


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_processes_mode_spawns_one_process_fewer_than_shards(shards):
    """The coordinator is the evaluator of home 0, so ``shards=N`` leaves
    exactly N − 1 worker processes, and ``shards=1`` spawns none."""
    before = set(multiprocessing.active_children())
    table, event_base, handler, support = build_support(
        3, shards=shards, homes=tuple(range(shards))
    )
    try:
        assert len(feed_block(event_base, handler, support, 1)) == 3
        spawned = set(multiprocessing.active_children()) - before
        assert len(spawned) == shards - 1
        if shards == 1:
            assert support.process_pool is None
        else:
            assert support.process_pool.num_workers == shards - 1
    finally:
        support.close()
    assert not set(multiprocessing.active_children()) - before


def test_coordinator_homed_rules_are_never_shipped():
    """``defs_shipped`` counts remote homes only: the coordinator's own rules
    are bound in place, never pickled to a worker."""
    table, event_base, handler, support = build_support(8, homes=(0, 1))
    try:
        for stamp in (1, 2, 3):
            assert len(feed_block(event_base, handler, support, stamp)) == 8
        support.recheck_all(3, 0)
        pool = support.process_pool
        remote = {
            state.rule.name for state in table if support._worker_of(state) == 1
        }
        assert len(remote) == 4
        assert pool.defs_shipped == 4
        (handle,) = pool._workers
        assert set(handle.shipped_defs) == remote
    finally:
        support.close()


def test_trip_of_coordinator_homed_candidates_does_not_contact_the_pool():
    """Once only home-0 rules are candidates, blocks are checked inline: no
    dispatch, no byte on the wire."""
    table, event_base, handler, support = build_support(
        2, expressions=("create(alpha)", "create(gamma)"), homes=(0, 1)
    )
    local, remote = table.states()
    try:
        # First block: its gamma row routes the gamma watcher (home 1), so the
        # pool is contacted once; considered, the watcher is not vacuous and
        # never rides along with an alpha block.
        _run_blocks(
            support,
            handler,
            event_base,
            [[(CREATE_ALPHA, 1), (CREATE_GAMMA, 1)], [(CREATE_ALPHA, 1)]],
        )
        pool = support.process_pool
        assert pool is not None
        contacted = (pool.dispatches, pool.bytes_shipped, pool.bytes_received)
        checks = local.ts_computations
        assert _run_blocks(support, handler, event_base, [[(CREATE_ALPHA, 2)]], 3) == [
            (local.rule.name,)
        ]
        # Left triggered, the local rule is no candidate for the next block.
        newly = []
        for stamp in (4, 5):
            event_base.record(CREATE_ALPHA, oid="alpha#3", timestamp=stamp)
            signature = handler.flush_block()
            newly += support.check_after_block(signature, stamp, 0)
        assert newly == [local]
        assert local.ts_computations == checks + 2
        assert (pool.dispatches, pool.bytes_shipped, pool.bytes_received) == contacted
        assert remote.ts_computations == 1
    finally:
        support.close()
