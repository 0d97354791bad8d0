"""Structural facts of the per-block worker dispatch.

The behavioural bar — byte-identical traces/counters/stats across execution
modes — lives in ``test_mode_equivalence.py``; this module pins what one
block costs the process pool: one message per consulted worker, each
definition shipped once however many blocks follow, no contact at all for a
block without remote candidates — and the per-block planning facts every
mode shares: a triggered rule is not checked again until considered, and a
vacuous pending-full-check rider leaves the pending set after one non-empty
window.
Last, the pool's message protocol itself: ``("check", delta, defs, drops,
items, now)`` with ``(name, window start)`` items, answered by one nameless
decision row per item, in item order, equal to the in-process check.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.process_pool import ProcessShardPool
from repro.config import EngineConfig
from repro.core.compile import CheckBinder
from repro.core.parser import parse_expression
from repro.core.triggering import TriggerMemo, TriggeringDecision
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule, RuleState
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

from tests.cluster.test_process_pool import homed_names

ALPHA = EventType(Operation.CREATE, "alpha")
BETA = EventType(Operation.CREATE, "beta")
GAMMA = EventType(Operation.CREATE, "gamma")


def watcher(name: str, expression: str) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(expression),
        condition=TRUE_CONDITION,
        action=NO_ACTION,
    )


def block(eid: int, stamp: int, event_type: EventType = ALPHA) -> list[EventOccurrence]:
    return [EventOccurrence(eid=eid, event_type=event_type, oid="o1", timestamp=stamp)]


class _Pipeline:
    """A tiny handler + Trigger Support pipeline over a fresh Event Base.

    Assembled as the engine assembles it: a coordinator for ``processes``
    with ``shards > 0``, the single table otherwise.
    """

    def __init__(self, rules, shards: int = 2, shard_mode: str = "processes"):
        self.event_base = EventBase()
        self.table = RuleTable()
        for rule in rules:
            self.table.add(rule).reset(0)
        self.handler = EventHandler(self.event_base)
        config = EngineConfig.from_env(shards=shards, shard_mode=shard_mode)
        sharded = shards > 0 and shard_mode == "processes"
        support = ShardCoordinator if sharded else TriggerSupport
        self.support = support(self.table, self.event_base, config)

    def check(self, occurrences, now=None, consider=False):
        """Flush ``occurrences`` as one block and check it at ``now``."""
        batch = self.handler.store_external(occurrences)
        if now is None:
            now = occurrences[-1].timestamp
        newly = self.support.check_after_block(batch, now, 0)
        if consider:
            for state in newly:
                state.mark_considered(now, executed=False)
        return newly

    def close(self):
        if isinstance(self.support, ShardCoordinator):
            self.support.close()


#: Two rule names homed on shard 1 of 2: checked by the pool's one worker,
#: not inline by the coordinator.
REMOTE = homed_names([1, 1])


class TestBlockTransport:
    def test_one_worker_message_per_consulted_worker_per_block(self):
        pipeline = _Pipeline(
            [watcher(REMOTE[0], "create(alpha)"), watcher(REMOTE[1], "create(beta)")]
        )
        try:
            stream = [block(1, 1), block(2, 2, BETA), block(3, 3), block(4, 4, BETA)]
            for occurrences in stream:
                pipeline.check(occurrences, consider=True)
            pool = pipeline.support.process_pool
            assert pool is not None
            stats = pool.transport_stats()
            cluster = pipeline.support.cluster_stats
            # Every block had a remote candidate: one dispatch each, and each
            # dispatch contacted the one worker exactly once.
            assert stats["dispatches"] == cluster.dispatch_trips == len(stream)
            assert stats["worker_round_trips"] == cluster.parallel_batches
            assert stats["worker_round_trips"] == len(stream) * pool.num_workers
        finally:
            pipeline.close()

    def test_definition_shipped_once_across_blocks(self):
        """A rule checked on many blocks ships its definition once."""
        pipeline = _Pipeline([watcher(REMOTE[0], "create(alpha)")])
        try:
            for eid in range(1, 7):
                assert pipeline.check(block(eid, eid), consider=True)
            pool = pipeline.support.process_pool
            (handle,) = pool._workers
            assert pool.defs_shipped == 1
            assert handle.shipped_defs == {
                REMOTE[0]: pipeline.table.get(REMOTE[0]).definition_order
            }
            assert pool.transport_stats()["dispatches"] == 6
        finally:
            pipeline.close()

    def test_candidate_free_block_never_contacts_the_pool(self):
        pipeline = _Pipeline([watcher(REMOTE[0], "create(beta) + create(gamma)")])
        try:
            # A beta block routes the rule (it needs gamma too, so it stays
            # untriggered): the pool is contacted once.
            pipeline.check(block(1, 1, BETA))
            pool = pipeline.support.process_pool
            assert pool is not None
            contacted = (pool.dispatches, pool.bytes_shipped, pool.bytes_received)
            # Steady state: alpha-only blocks route no candidates for a
            # beta-watcher, so no block reaches the pool.
            for eid in (2, 3, 4):
                pipeline.check(block(eid, eid))
            assert (pool.dispatches, pool.bytes_shipped, pool.bytes_received) == (
                contacted
            )
        finally:
            pipeline.close()

    def test_empty_blocks_still_count_in_stats(self):
        for shards in (0, 2):
            pipeline = _Pipeline([watcher("w0", "create(alpha)")], shards=shards)
            try:
                pipeline.check(block(1, 1))
                pipeline.check([], now=1)
                pipeline.check(block(2, 2))
                assert pipeline.support.stats.blocks == 3, shards
            finally:
                pipeline.close()


class TestPerBlockPlanning:
    def test_triggered_rule_is_not_checked_again_until_considered(self):
        """Only untriggered rules are planned, so ``ts_computations`` counts
        one check however many later blocks the rule's types appear in."""
        for shards, shard_mode in ((0, "serial"), (2, "processes")):
            pipeline = _Pipeline(
                [watcher(REMOTE[0], "create(alpha)")], shards, shard_mode
            )
            try:
                newly = pipeline.check(block(1, 1))
                assert [state.rule.name for state in newly] == [REMOTE[0]]
                assert pipeline.check(block(2, 2)) == []
                assert pipeline.check(block(3, 3)) == []
                state = pipeline.table.get(REMOTE[0])
                assert state.triggered
                assert state.ts_computations == 1, shard_mode
                assert state.times_triggered == 1, shard_mode
            finally:
                pipeline.close()

    def test_pending_rider_leaves_after_its_first_nonempty_window(self):
        """A vacuous rule rides as a pending-full-check rule on alpha blocks:
        it is evaluated once (window non-empty, filter becomes applicable)
        and never planned again.  A beta-watcher defined over an empty
        window never rides at all — in every mode."""
        for shards, shard_mode in ((0, "serial"), (2, "processes")):
            pipeline = _Pipeline(
                [
                    watcher(REMOTE[0], "-create(alpha)"),
                    watcher(REMOTE[1], "create(beta)"),
                ],
                shards,
                shard_mode,
            )
            try:
                for eid in (1, 2, 3):
                    assert pipeline.check(block(eid, eid)) == []
                absence = pipeline.table.get(REMOTE[0])
                assert not absence.triggered
                assert absence.ts_computations == 1, shard_mode
                assert pipeline.table.get(REMOTE[1]).ts_computations == 0
            finally:
                pipeline.close()


#: Rigid, precedence, negation and instance-lifted shapes over three types.
WORKER_EXPRESSIONS = (
    "create(alpha)",
    "create(beta)",
    "create(alpha) < create(beta)",
    "create(alpha) + create(beta)",
    "-create(gamma)",
    "create(alpha) += create(beta)",
)


def pool_config(**overrides) -> EngineConfig:
    return EngineConfig.from_env(**overrides)


def rule_state(name: str, expression: str, order: int) -> RuleState:
    return RuleState(rule=watcher(name, expression), definition_order=order)


class TestWorkerProtocol:
    """The pool driven directly: what one block sends, and what comes back."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_the_in_process_check_in_item_order(self, workers):
        """Random items in random order over a growing log: each row answers
        its own item and equals the compiled check run in-process over the
        Event Base, memo carried across blocks — ``instants_sampled``
        included.  Each rule keeps one home worker; the rows come back worker
        by worker, each worker's in the order its items were sent."""
        states = [
            rule_state(f"r{index}", expression, index)
            for index, expression in enumerate(WORKER_EXPRESSIONS)
        ]
        binder = CheckBinder()
        local = [(binder.bind(state.rule.events), TriggerMemo()) for state in states]
        window_starts = [0] * len(states)
        event_base = EventBase()
        rng = random.Random(13)
        triggered = 0
        with ProcessShardPool(workers, pool_config()) as pool:
            for now in range(1, 16):
                for _ in range(rng.randint(0, 2)):
                    event_base.record(
                        rng.choice((ALPHA, BETA, GAMMA)),
                        oid=f"o{rng.randint(1, 2)}",
                        timestamp=now,
                    )
                picked = rng.sample(range(len(states)), rng.randint(1, len(states)))
                assignments: dict[int, list] = {}
                for index in picked:
                    assignments.setdefault(index % workers, []).append(
                        (states[index], window_starts[index])
                    )
                picked.sort(key=lambda index: index % workers)  # stable
                rows = pool.evaluate(event_base, assignments, now)
                assert [state for state, _ in rows] == [states[i] for i in picked]
                for (state, decision), index in zip(rows, picked):
                    compiled, memo = local[index]
                    expected = compiled.check(
                        event_base, window_starts[index], now, memo=memo
                    )
                    assert decision == expected, (state.rule.name, now)
                    if expected.triggered:
                        triggered += 1
                        window_starts[index] = now
        assert triggered > 0

    def test_each_item_is_checked_from_its_own_window_start(self):
        """Two rules with one expression, sent in reverse definition order:
        only the one whose window still holds the alpha occurrence triggers."""
        early = rule_state("early", "create(alpha)", 0)
        late = rule_state("late", "create(alpha)", 1)
        event_base = EventBase()
        event_base.record(ALPHA, oid="o1", timestamp=1)
        event_base.record(BETA, oid="o1", timestamp=2)
        with ProcessShardPool(1, pool_config()) as pool:
            rows = pool.evaluate(event_base, {0: [(late, 1), (early, 0)]}, 2)
        assert [state for state, _ in rows] == [late, early]
        assert rows[0][1] == TriggeringDecision(False, None, None, 1, 1)
        assert rows[1][1].triggered and rows[1][1].instant == 1

    def test_check_message_carries_defs_drops_and_name_window_items(self):
        first = rule_state("r0", "create(alpha)", 0)
        second = rule_state("r1", "create(beta)", 1)
        event_base = EventBase()
        event_base.record(ALPHA, oid="o1", timestamp=1)
        with ProcessShardPool(1, pool_config()) as pool:
            sent = []
            encode = pool._encode
            pool._encode = lambda message: sent.append(message) or encode(message)
            pool.evaluate(event_base, {0: [(first, 0), (second, 0)]}, 1)
            kind, delta, defs, drops, items, now = sent[-1]
            assert (kind, drops, items, now) == ("check", (), (("r0", 0), ("r1", 0)), 1)
            assert delta is not None
            assert [(name, order) for name, order, _ in defs] == [("r0", 0), ("r1", 1)]
            # Nothing new: no delta, no definition; a pruned name rides along
            # on the next message exactly once.
            assert pool.prune(lambda name: name != "r1") == 1
            pool.evaluate(event_base, {0: [(first, 1)]}, 1)
            assert sent[-1] == ("check", None, (), ("r1",), (("r0", 1),), 1)
            pool.evaluate(event_base, {0: [(first, 1)]}, 1)
            assert sent[-1][3] == ()

    def test_reply_rows_carry_no_rule_names(self):
        states = [rule_state(f"r{index}", "create(alpha)", index) for index in range(3)]
        event_base = EventBase()
        event_base.record(ALPHA, oid="o1", timestamp=1)
        with ProcessShardPool(1, pool_config()) as pool:
            bodies = []
            receive = pool._receive

            def capture(handle):
                body, metrics_delta = receive(handle)
                bodies.append(body)
                return body, metrics_delta

            pool._receive = capture
            rows = pool.evaluate(event_base, {0: [(state, 0) for state in states]}, 1)
        (body,) = bodies
        decisions = pickle.loads(body)
        assert len(decisions) == len(states)
        assert all(len(row) == 5 for row in decisions)
        assert not any(isinstance(value, str) for row in decisions for value in row)
        assert [TriggeringDecision(*row) for row in decisions] == [
            decision for _, decision in rows
        ]

    def test_only_consulted_workers_receive_a_message(self):
        """One message per consulted worker per block; a worker left out
        catches up on the whole log in one delta the next time it is."""
        first = rule_state("a", "create(alpha)", 0)
        second = rule_state("b", "create(alpha)", 1)
        event_base = EventBase()
        event_base.record(ALPHA, oid="o1", timestamp=1)
        with ProcessShardPool(2, pool_config()) as pool:
            rows = pool.evaluate(event_base, {1: [(second, 0)]}, 1)
            assert [decision.triggered for _, decision in rows] == [True]
            assert (pool.dispatches, pool.worker_round_trips) == (1, 1)
            assert [handle.shipped_events for handle in pool._workers] == [0, 1]
            event_base.record(ALPHA, oid="o1", timestamp=2)
            rows = pool.evaluate(event_base, {0: [(first, 0)], 1: [(second, 1)]}, 2)
            assert {state.rule.name: decision.instant for state, decision in rows} == {
                "a": 1,
                "b": 2,
            }
            assert (pool.dispatches, pool.worker_round_trips) == (2, 3)
            assert [handle.shipped_events for handle in pool._workers] == [2, 2]
            assert pool.deltas_framed == 3

    def test_inline_share_runs_between_send_and_receive(self):
        """The coordinator's own rows come first; its share runs once every
        message is out and before any reply is read."""
        remote = rule_state("remote", "create(alpha)", 0)
        own = rule_state("own", "create(alpha)", 1)
        event_base = EventBase()
        event_base.record(ALPHA, oid="o1", timestamp=1)
        with ProcessShardPool(1, pool_config()) as pool:
            seen = []

            def inline():
                (handle,) = pool._workers
                seen.append((handle.shipped_events, pool.bytes_received))
                return [(own, TriggeringDecision(False, None, None, 1, 1))]

            rows = pool.evaluate(event_base, {0: [(remote, 0)]}, 1, inline)
        assert seen == [(1, 0)]
        assert [state for state, _ in rows] == [own, remote]
        assert rows[1][1].triggered

    def test_inline_failure_drains_every_reply_and_keeps_the_pool(self):
        """A failing coordinator share is re-raised after the worker replies
        were read, so the next block pairs with its own reply."""
        remote = rule_state("remote", "create(alpha)", 0)
        event_base = EventBase()
        event_base.record(ALPHA, oid="o1", timestamp=1)
        with ProcessShardPool(1, pool_config()) as pool:

            def inline():
                raise RuntimeError("coordinator share failed")

            with pytest.raises(RuntimeError, match="coordinator share failed"):
                pool.evaluate(event_base, {0: [(remote, 0)]}, 1, inline)
            assert pool.bytes_received > 0  # the reply was drained
            event_base.record(BETA, oid="o1", timestamp=2)
            rows = pool.evaluate(event_base, {0: [(remote, 1)]}, 2)
            assert [decision for _, decision in rows] == [
                TriggeringDecision(False, None, None, 1, 1)
            ]
