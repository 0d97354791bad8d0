"""StreamIngestor: pipelined ingestion equivalence, back-pressure and errors."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster.streaming import StreamIngestor
from repro.config import EngineConfig
from repro.events.clock import TransactionClock
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.executor import RuleEngine
from repro.rules.rule import Rule
from repro.core.parser import parse_expression

STOCK = EventType(Operation.CREATE, "stock")
ORDER = EventType(Operation.CREATE, "order")


def make_engine(shards: int = 0) -> RuleEngine:
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
        config=EngineConfig.from_env(shards=shards),
    )


def add_rule(engine: RuleEngine, name: str, events: str) -> None:
    engine.rule_table.add(
        Rule(
            name=name,
            events=parse_expression(events),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
    ).reset(0)


def blocks(count: int, per_block: int = 4) -> list[list[EventOccurrence]]:
    stream: list[list[EventOccurrence]] = []
    eid = 1
    for stamp in range(1, count + 1):
        block = []
        for offset in range(per_block):
            event_type = STOCK if (stamp + offset) % 2 else ORDER
            block.append(
                EventOccurrence(
                    eid=eid, event_type=event_type, oid=f"o{offset}", timestamp=stamp
                )
            )
            eid += 1
        stream.append(block)
    return stream


class TestPipelinedEquivalence:
    @pytest.mark.parametrize("shards", [0, 4])
    def test_pipelined_matches_direct(self, shards):
        stream = blocks(30)
        direct = make_engine(shards)
        add_rule(direct, "stock_watch", "create(stock)")
        add_rule(direct, "pair", "create(stock) + create(order)")
        for block in stream:
            direct.run_stream_block(block)

        pipelined = make_engine(shards)
        add_rule(pipelined, "stock_watch", "create(stock)")
        add_rule(pipelined, "pair", "create(stock) + create(order)")
        with StreamIngestor(pipelined, max_pending=4, max_batch_blocks=1) as ingestor:
            for block in stream:
                ingestor.submit(block)
            ingestor.flush()
        assert ingestor.stats.processed_blocks == len(stream)
        assert ingestor.stats.dropped_blocks == 0

        for name in ("stock_watch", "pair"):
            assert (
                direct.rule_table.get(name).times_triggered
                == pipelined.rule_table.get(name).times_triggered
            )
        assert [record.rule_name for record in direct.considerations] == [
            record.rule_name for record in pipelined.considerations
        ]
        assert len(direct.event_base) == len(pipelined.event_base)

    def test_submission_order_is_block_order(self):
        engine = make_engine()
        with StreamIngestor(engine, max_pending=2) as ingestor:
            for block in blocks(10):
                ingestor.submit(block)
            ingestor.flush()
        stamps = [occ.timestamp for occ in engine.event_base.occurrences]
        assert stamps == sorted(stamps)


class TestBackpressureAndLifecycle:
    def test_bounded_queue_limits_producer_runahead(self):
        engine = make_engine()
        gate = threading.Event()
        original = engine.run_stream_block

        def slow_run(batch, type_signature=None):
            gate.wait(timeout=5)
            original(batch, type_signature=type_signature)

        engine.run_stream_block = slow_run
        ingestor = StreamIngestor(engine, max_pending=2, max_batch_blocks=1).start()
        stream = blocks(6)
        for block in stream[:3]:
            ingestor.submit(block)  # 1 in flight + 2 queued
        blocked_done = threading.Event()

        def blocked_submit():
            ingestor.submit(stream[3])
            blocked_done.set()

        producer = threading.Thread(target=blocked_submit, daemon=True)
        producer.start()
        time.sleep(0.05)
        assert not blocked_done.is_set(), "submit should block on a full queue"
        gate.set()
        producer.join(timeout=5)
        assert blocked_done.is_set()
        ingestor.close()
        assert ingestor.stats.processed_blocks == 4
        assert ingestor.stats.max_queue_depth <= 2

    def test_submit_after_close_is_rejected(self):
        engine = make_engine()
        ingestor = StreamIngestor(engine).start()
        ingestor.close()
        with pytest.raises(RuntimeError):
            ingestor.submit(blocks(1)[0])

    def test_close_without_wait_drops_queued_blocks(self):
        engine = make_engine()
        gate = threading.Event()
        original = engine.run_stream_block

        def slow_run(batch, type_signature=None):
            gate.wait(timeout=5)
            original(batch, type_signature=type_signature)

        engine.run_stream_block = slow_run
        ingestor = StreamIngestor(engine, max_pending=8, max_batch_blocks=1).start()
        for block in blocks(4):
            ingestor.submit(block)
        gate.set()
        ingestor.close(wait=False)
        assert ingestor.stats.processed_blocks + ingestor.stats.dropped_blocks == 4


class TestErrorPropagation:
    def test_consumer_error_reaches_the_producer(self):
        engine = make_engine()

        def boom(batch, type_signature=None):
            raise ValueError("broken block")

        engine.run_stream_block = boom
        ingestor = StreamIngestor(engine).start()
        ingestor.submit(blocks(1)[0])
        with pytest.raises(RuntimeError, match="stream ingestion failed"):
            ingestor.flush()

    def test_blocks_queued_behind_a_failure_are_dropped(self):
        engine = make_engine()
        gate = threading.Event()

        def boom(batch, type_signature=None):
            gate.wait(timeout=5)
            raise ValueError("broken block")

        engine.run_stream_block = boom
        ingestor = StreamIngestor(engine, max_pending=8, max_batch_blocks=1).start()
        stream = blocks(3)
        for block in stream:
            ingestor.submit(block)
        gate.set()
        with pytest.raises(RuntimeError, match="stream ingestion failed"):
            ingestor.flush()
        assert ingestor.stats.dropped_blocks == 3
        assert ingestor.stats.processed_blocks == 0
        # The failure latches: further submissions are refused...
        with pytest.raises(RuntimeError, match="failed"):
            ingestor.submit(stream[0])
        # ...but the (already-delivered) error does not resurface on close.
        ingestor.close()


class TestCoalescing:
    """The PR-5 micro-batching consumer: drain up to max_batch_blocks per wake-up."""

    def run_pipelined(self, stream, max_batch_blocks, gate_first=True):
        """Drive a gated ingestor so the queue fills before the consumer runs."""
        engine = make_engine()
        add_rule(engine, "stock_watch", "create(stock)")
        gate = threading.Event()
        original_single = engine.run_stream_block
        original_multi = engine.run_stream_blocks

        def gated_single(batch, type_signature=None):
            gate.wait(timeout=5)
            original_single(batch, type_signature=type_signature)

        def gated_multi(batches, type_signatures=None):
            gate.wait(timeout=5)
            original_multi(batches, type_signatures=type_signatures)

        if gate_first:
            engine.run_stream_block = gated_single
            engine.run_stream_blocks = gated_multi
        else:
            gate.set()
        ingestor = StreamIngestor(
            engine, max_pending=len(stream) + 1, max_batch_blocks=max_batch_blocks
        ).start()
        for one_block in stream:
            ingestor.submit(one_block)
        gate.set()
        ingestor.close()
        return engine, ingestor

    def test_consumer_coalesces_a_backlog(self):
        stream = blocks(9)
        engine, ingestor = self.run_pipelined(stream, max_batch_blocks=4)
        stats = ingestor.stats
        assert stats.processed_blocks == 9
        assert stats.dropped_blocks == 0
        # The backlog was drained in micro-batches: strictly fewer wake-ups
        # than blocks, never more than the bound per trip.
        assert stats.coalesced_trips < stats.processed_blocks
        assert 2 <= stats.max_blocks_per_trip <= 4
        # Block boundaries survive coalescing: every submitted block was
        # flushed on its own (plus one flush per consideration the
        # processing loop ran), and the log kept submission order.
        assert engine.event_handler.blocks_processed >= len(stream)
        assert len(engine.event_base) == sum(len(b) for b in stream)
        stamps = [occurrence.timestamp for occurrence in engine.event_base.occurrences]
        assert stamps == sorted(stamps)

    def test_batch_bound_one_is_byte_identical_to_per_block(self):
        stream = blocks(12)
        direct = make_engine()
        add_rule(direct, "stock_watch", "create(stock)")
        for one_block in stream:
            direct.run_stream_block(one_block)

        engine, ingestor = self.run_pipelined(stream, max_batch_blocks=1)
        assert ingestor.stats.max_blocks_per_trip == 1
        assert ingestor.stats.coalesced_trips == len(stream)
        assert (
            direct.rule_table.get("stock_watch").times_triggered
            == engine.rule_table.get("stock_watch").times_triggered
        )
        assert [record.rule_name for record in direct.considerations] == [
            record.rule_name for record in engine.considerations
        ]
        assert (
            direct.trigger_support.stats.as_dict()
            == engine.trigger_support.stats.as_dict()
        )

    def test_flush_waits_for_the_whole_backlog(self):
        engine = make_engine()
        add_rule(engine, "stock_watch", "create(stock)")
        with StreamIngestor(engine, max_pending=16, max_batch_blocks=4) as ingestor:
            stream = blocks(10)
            for one_block in stream:
                ingestor.submit(one_block)
            ingestor.flush()
            # flush() returns only once every submitted block is processed,
            # whatever trip boundaries the consumer chose.
            assert ingestor.stats.processed_blocks == 10
            assert len(engine.event_base) == sum(len(b) for b in stream)

    def test_failure_mid_batch_latches_and_drops_later_blocks(self):
        engine = make_engine()
        gate = threading.Event()
        calls: list[int] = []

        def boom_multi(batches, type_signatures=None):
            gate.wait(timeout=5)
            calls.append(len(batches))
            raise ValueError("broken trip")

        def boom_single(batch, type_signature=None):
            boom_multi([batch])

        engine.run_stream_blocks = boom_multi
        engine.run_stream_block = boom_single
        ingestor = StreamIngestor(engine, max_pending=16, max_batch_blocks=4).start()
        stream = blocks(10)
        for one_block in stream:
            ingestor.submit(one_block)
        gate.set()
        # The error is delivered exactly once...
        with pytest.raises(RuntimeError, match="stream ingestion failed"):
            ingestor.flush()
        # ...the engine was reached for the failing trip only, and every
        # other queued block was dropped, not applied.
        assert len(calls) == 1
        assert ingestor.stats.processed_blocks == 0
        assert ingestor.stats.dropped_blocks == 10
        with pytest.raises(RuntimeError, match="failed"):
            ingestor.submit(stream[0])
        ingestor.close()  # already-delivered error does not resurface

    def test_max_batch_blocks_validation_and_engine_default(self, monkeypatch):
        with pytest.raises(ValueError, match="max_batch_blocks"):
            StreamIngestor(make_engine(), max_batch_blocks=0)
        # The bound comes from the engine's record, resolved when the engine
        # was built — never from the environment at ingestor time.
        monkeypatch.setenv("CHIMERA_BATCH_BLOCKS", "6")
        engine = make_engine()
        monkeypatch.delenv("CHIMERA_BATCH_BLOCKS")
        assert StreamIngestor(engine).max_batch_blocks == 6
        assert StreamIngestor(make_engine()).max_batch_blocks == 1

    def test_database_stream_ingestor_threads_the_knob(self):
        from repro.oodb.database import ChimeraDatabase

        db = ChimeraDatabase(batch_blocks=3)
        try:
            ingestor = db.stream_ingestor()
            assert ingestor.max_batch_blocks == 3
            assert ingestor.engine is db.engine
            assert db.stream_ingestor(batch_blocks=5).max_batch_blocks == 5
        finally:
            db.close()


class TestSignaturePassThrough:
    def test_precomputed_signature_reaches_the_planner(self):
        engine = make_engine(shards=2)
        add_rule(engine, "stock_watch", "create(stock)")
        block = blocks(1)[0]
        signature = frozenset(occ.event_type for occ in block)
        engine.run_stream_block(block, type_signature=signature)
        assert engine.rule_table.get("stock_watch").times_triggered == 1

    def test_stale_pending_occurrences_force_rederivation(self):
        engine = make_engine()
        add_rule(engine, "order_watch", "create(order)")
        # Leave an unflushed occurrence pending, then stream a batch with a
        # signature that does not cover it: the handler must re-derive.
        engine.clock.tick()
        engine.event_base.record(ORDER, "o9", 1)
        block = [EventOccurrence(eid=99, event_type=STOCK, oid="o1", timestamp=1)]
        engine.run_stream_block(block, type_signature=frozenset({STOCK}))
        assert engine.rule_table.get("order_watch").times_triggered == 1
