"""Unit tests for the micro-batched dispatch path (PR 5).

The behavioral bar — byte-identical traces/counters/stats across execution
modes for batch sizes 1-8 — lives in ``test_mode_equivalence.py``; this
module pins the *structural* properties of the batched path: one worker
trip per micro-batch, combined deltas, trip-local skip of already-triggered
rules, and the engine-level ``run_stream_blocks`` seam.
"""

from __future__ import annotations

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.sharding import ShardedRuleTable
from repro.config import EngineConfig
from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

from tests.cluster.test_process_pool import homed_names

ALPHA = EventType(Operation.CREATE, "alpha")
BETA = EventType(Operation.CREATE, "beta")


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
    """A tiny handler + coordinator pipeline over a fresh Event Base."""

    def __init__(self, rules, shards: int = 2, shard_mode: str = "processes"):
        self.event_base = EventBase()
        self.table = ShardedRuleTable(shards)
        for rule in rules:
            self.table.add(rule).reset(0)
        self.handler = EventHandler(self.event_base)
        self.support = ShardCoordinator(
            self.table, self.event_base, EngineConfig.from_env(shard_mode=shard_mode)
        )

    def segments(self, blocks):
        built = []
        for occurrences in blocks:
            batch = self.handler.store_external(occurrences)
            built.append((batch, occurrences[-1].timestamp))
        return built

    def close(self):
        self.support.close()


#: Two rule names homed on shard 1 of 2: checked by the pool's one worker,
#: not inline by the coordinator.
REMOTE = homed_names([1, 1])


class TestTripTransport:
    def test_one_worker_message_per_trip(self):
        pipeline = _Pipeline(
            [watcher(REMOTE[0], "create(alpha)"), watcher(REMOTE[1], "create(beta)")]
        )
        try:
            segments = pipeline.segments(
                [block(1, 1), block(2, 2, BETA), block(3, 3), block(4, 4, BETA)]
            )
            pipeline.support.check_after_blocks(segments, 0)
            pool = pipeline.support.process_pool
            assert pool is not None
            stats = pool.transport_stats()
            # One trip covering four blocks; each consulted worker contacted
            # at most once for the whole micro-batch.
            assert stats["dispatches"] == 1
            assert stats["blocks_dispatched"] == 4
            assert stats["worker_round_trips"] <= pool.num_workers
            cluster = pipeline.support.cluster_stats
            assert cluster.dispatch_trips == 1
            assert cluster.blocks_dispatched == 4
            assert stats["worker_round_trips"] == cluster.parallel_batches
        finally:
            pipeline.close()

    def test_trips_scale_with_trips_not_blocks(self):
        pipeline = _Pipeline([watcher(REMOTE[0], "create(alpha)")])
        try:
            stream = [block(eid, eid) for eid in range(1, 13)]
            for start in range(0, 12, 4):
                segments = pipeline.segments(stream[start : start + 4])
                pipeline.support.check_after_blocks(segments, 0)
                for state in pipeline.table.states():
                    if state.triggered:
                        state.mark_considered(start + 4, executed=False)
            pool = pipeline.support.process_pool
            stats = pool.transport_stats()
            assert stats["dispatches"] == 3  # 12 blocks, 3 trips
            assert stats["blocks_dispatched"] == 12
            # The rule lives on one worker: its round trips follow the trips.
            assert stats["worker_round_trips"] == 3
        finally:
            pipeline.close()

    def test_definition_shipped_once_per_trip(self):
        """A rule planned in several segments ships its definition once."""
        pipeline = _Pipeline([watcher(REMOTE[0], "create(alpha)")])
        try:
            segments = pipeline.segments([block(1, 1), block(2, 2), block(3, 3)])
            pipeline.support.check_after_blocks(segments, 0)
            pool = pipeline.support.process_pool
            (handle,) = pool._workers
            assert handle.shipped_defs == {
                REMOTE[0]: pipeline.table.get(REMOTE[0]).definition_order
            }
        finally:
            pipeline.close()

    def test_candidate_free_trip_never_contacts_the_pool(self):
        pipeline = _Pipeline([watcher(REMOTE[0], "create(beta)")])
        try:
            # First trip: the rule's V(E) filter is not applicable yet (no window
            # evaluated non-empty), so it rides along and the pool is
            # contacted once.
            pipeline.support.check_after_blocks(pipeline.segments([block(1, 1)]), 0)
            pool = pipeline.support.process_pool
            assert pool is not None
            trips_before = pool.transport_stats()["dispatches"]
            # Steady state: alpha-only blocks route no candidates for a
            # beta-watcher, so the whole trip skips the pool.
            segments = pipeline.segments([block(2, 2), block(3, 3)])
            pipeline.support.check_after_blocks(segments, 0)
            assert pool.transport_stats()["dispatches"] == trips_before
        finally:
            pipeline.close()

    def test_empty_blocks_still_count_in_stats(self):
        pipeline = _Pipeline([watcher("w0", "create(alpha)")])
        try:
            batch_a = pipeline.handler.store_external(block(1, 1))
            batch_empty = pipeline.handler.store_external([])
            batch_b = pipeline.handler.store_external(block(2, 2))
            pipeline.support.check_after_blocks(
                [(batch_a, 1), (batch_empty, 1), (batch_b, 2)], 0
            )
            assert pipeline.support.stats.blocks == 3
        finally:
            pipeline.close()


class TestTripLocalSkip:
    def test_rule_triggered_early_in_trip_is_not_re_evaluated(self):
        """A rule that triggers in segment 1 is skipped in later segments.

        Exactly what the per-block path does (triggered rules are not
        planned), so ``ts_computations`` must count one check however many
        later blocks of the trip the plan speculatively included — in every
        mode.
        """
        for shard_mode in ("serial", "processes"):
            pipeline = _Pipeline(
                [watcher("w0", "create(alpha)")], shard_mode=shard_mode
            )
            try:
                segments = pipeline.segments([block(1, 1), block(2, 2), block(3, 3)])
                newly = pipeline.support.check_after_blocks(segments, 0)
                assert [state.rule.name for state in newly] == ["w0"]
                state = pipeline.table.get("w0")
                assert state.triggered
                assert state.ts_computations == 1, shard_mode
                assert state.times_triggered == 1, shard_mode
            finally:
                pipeline.close()

    def test_pending_rider_skipped_after_first_nonempty_window(self):
        """The per-block pending-set semantics hold inside a trip.

        A beta-watcher riding as a pending-full-check rule on an all-alpha
        trip is evaluated once (first block, window non-empty, filter
        becomes applicable) and then skipped — per-block processing would
        have dropped it from the pending set and never planned it again.
        ``ts_computations`` must therefore be 1 in every mode, exactly like
        the per-block path.
        """
        # The per-block reference.
        reference = _Pipeline([watcher("w0", "create(beta)")], shard_mode="serial")
        try:
            for batch, now in reference.segments(
                [block(1, 1), block(2, 2), block(3, 3)]
            ):
                reference.support.check_after_block(
                    batch, now, 0, type_signature=batch.type_signature
                )
            expected = reference.table.get("w0").ts_computations
        finally:
            reference.close()
        assert expected == 1

        for shard_mode in ("serial", "processes"):
            pipeline = _Pipeline([watcher("w0", "create(beta)")], shard_mode=shard_mode)
            try:
                segments = pipeline.segments([block(1, 1), block(2, 2), block(3, 3)])
                pipeline.support.check_after_blocks(segments, 0)
                state = pipeline.table.get("w0")
                assert not state.triggered
                assert state.ts_computations == expected, shard_mode
            finally:
                pipeline.close()

        # And the unsharded batched path agrees.
        event_base = EventBase()
        table = RuleTable()
        table.add(watcher("w0", "create(beta)")).reset(0)
        handler = EventHandler(event_base)
        support = TriggerSupport(table, event_base, EngineConfig.from_env())
        segments = []
        for eid in (1, 2, 3):
            segments.append((handler.store_external(block(eid, eid)), eid))
        support.check_after_blocks(segments, 0)
        assert table.get("w0").ts_computations == expected

    def test_unsharded_trip_matches_the_same_semantics(self):
        event_base = EventBase()
        table = RuleTable()
        table.add(watcher("w0", "create(alpha)")).reset(0)
        handler = EventHandler(event_base)
        support = TriggerSupport(table, event_base, EngineConfig.from_env())
        segments = []
        for eid in (1, 2, 3):
            batch = handler.store_external(block(eid, eid))
            segments.append((batch, eid))
        newly = support.check_after_blocks(segments, 0)
        assert [state.rule.name for state in newly] == ["w0"]
        assert table.get("w0").ts_computations == 1


class TestEngineStreamBlocks:
    def make_engine(self, shards: int = 0, shard_mode: str | None = None):
        from repro.events.clock import TransactionClock
        from repro.oodb.objects import ObjectStore
        from repro.oodb.operations import OperationExecutor
        from repro.oodb.schema import Schema
        from repro.rules.executor import RuleEngine

        schema = Schema()
        store = ObjectStore()
        event_base = EventBase()
        clock = TransactionClock()
        operations = OperationExecutor(
            schema, store, event_base, clock, emit_select_events=False
        )
        return RuleEngine(
            schema=schema,
            store=store,
            event_base=event_base,
            clock=clock,
            operations=operations,
            config=EngineConfig.from_env(shards=shards, shard_mode=shard_mode),
        )

    def stream(self, count: int):
        return [
            block(eid, eid, ALPHA if eid % 2 else BETA) for eid in range(1, count + 1)
        ]

    def outcome(self, engine):
        return {
            "counters": {
                state.rule.name: (state.times_triggered, state.times_considered)
                for state in engine.rule_table.states()
            },
            "considerations": [
                record.rule_name for record in engine.considerations
            ],
            "events": len(engine.event_base),
            "stats": engine.trigger_support.stats.as_dict(),
        }

    def test_single_batch_trip_is_byte_identical_to_run_stream_block(self):
        per_block = self.make_engine()
        batched = self.make_engine()
        for rules_engine in (per_block, batched):
            rules_engine.rule_table.add(watcher("w0", "create(alpha)")).reset(0)
        for one_block in self.stream(6):
            per_block.run_stream_block(one_block)
            batched.run_stream_blocks([one_block])
        assert self.outcome(per_block) == self.outcome(batched)

    def test_chunked_stream_identical_across_modes(self):
        """run_stream_blocks chunks: unsharded == serial == processes."""
        chunks = [self.stream(12)[index : index + 3] for index in range(0, 12, 3)]

        def drive(shards, shard_mode):
            engine = self.make_engine(shards, shard_mode)
            engine.rule_table.add(watcher("w0", "create(alpha)")).reset(0)
            engine.rule_table.add(watcher("w1", "create(alpha) + create(beta)")).reset(
                0
            )
            try:
                for chunk in chunks:
                    engine.run_stream_blocks(chunk)
                return self.outcome(engine)
            finally:
                engine.close()

        reference = drive(0, None)
        for mode in ("serial", "processes"):
            assert drive(4, mode) == reference, mode

    def test_blocks_keep_their_boundaries(self):
        engine = self.make_engine()
        engine.run_stream_blocks(self.stream(5))
        # Each batch flushed as its own execution block.
        assert engine.event_handler.blocks_processed == 5
        assert len(engine.event_base) == 5

    def test_misaligned_signatures_are_rejected(self):
        import pytest

        engine = self.make_engine()
        with pytest.raises(ValueError, match="align"):
            engine.run_stream_blocks(self.stream(2), type_signatures=[None])
