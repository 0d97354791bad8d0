"""The Event Handler's block boundaries and block signatures.

A flush hands over exactly the occurrences recorded since the previous flush
(or reset), however they entered the Event Base.  A stream block carries the
signature the Event Base's ``extend`` returned — unless other occurrences
were pending, which the block then also holds.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule

TYPES = [
    EventType(Operation.CREATE, "stock"),
    EventType(Operation.MODIFY, "stock", "quantity"),
    EventType(Operation.MODIFY, "stock"),
    EventType(Operation.DELETE, "order"),
]

#: ``extend`` sizes from empty to larger than a typical block.
STEPS = st.one_of(
    st.just(("append",)),
    st.tuples(st.just("extend"), st.sampled_from([0, 2, 7, 130])),
    st.just(("flush",)),
    st.just(("reset",)),
    st.just(("reset_cleared_eb",)),
)


class TestBlockBoundaries:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(STEPS, max_size=25), st.randoms(use_true_random=False))
    def test_flush_returns_exactly_what_was_pending(self, steps, rng):
        event_base = EventBase()
        handler = EventHandler(event_base)
        pending: list[EventOccurrence] = []
        eid = stamp = 0

        def fresh(count: int) -> list[EventOccurrence]:
            nonlocal eid, stamp
            made = []
            for _ in range(count):
                eid += 1
                stamp += rng.randint(0, 1)
                made.append(
                    EventOccurrence(
                        eid, rng.choice(TYPES), f"o{rng.randint(1, 3)}", max(stamp, 1)
                    )
                )
            return made

        for step in steps:
            if step[0] == "append":
                pending.extend(fresh(1))
                event_base.append(pending[-1])
            elif step[0] == "extend":
                batch = fresh(step[1])
                pending.extend(batch)
                event_base.extend(batch)
            elif step[0] == "flush":
                assert list(handler.flush_block()) == pending
                pending = []
            else:
                if step[0] == "reset_cleared_eb":
                    # A transaction boundary: the log is emptied in place.
                    event_base.clear()
                # Whatever was pending belongs to the finished transaction.
                handler.reset()
                pending = []
            assert handler.pending_count() == len(pending)


class TestStoreExternalSignature:
    def block(self, size: int, first_eid: int = 1) -> list[EventOccurrence]:
        return [
            EventOccurrence(first_eid + n, TYPES[n % 3], f"o{n % 5}", first_eid + n)
            for n in range(size)
        ]

    def test_signature_is_the_blocks_type_set_at_every_size(self):
        for size in (0, 1, 5, 127, 128, 300):
            block = self.block(size)
            batch = EventHandler(EventBase()).store_external(block)
            assert batch.type_signature == frozenset(o.event_type for o in block)

    def test_segmentation_is_not_a_signature_when_more_was_pending(self):
        event_base = EventBase()
        handler = EventHandler(event_base)
        event_base.record(TYPES[3], "o9", 1)
        batch = handler.store_external(self.block(200, first_eid=2))
        assert TYPES[3] in batch.type_signature
        assert len(batch) == 201

    @pytest.mark.parametrize("size", [0, 1, 5, 130])
    def test_pending_occurrence_joins_the_block_at_every_batch_size(self, size):
        """Even an empty external batch flushes what was pending: the block —
        and its signature — hold the pending occurrence first."""
        event_base = EventBase()
        handler = EventHandler(event_base)
        pending = event_base.record(TYPES[3], "o9", 1)
        external = self.block(size, first_eid=2)
        batch = handler.store_external(external)
        assert list(batch) == [pending, *external]
        assert batch.type_signature == frozenset(
            occurrence.event_type for occurrence in [pending, *external]
        )
        assert handler.pending_count() == 0

    def test_an_empty_external_block_is_still_a_block(self):
        handler = EventHandler(EventBase())
        handler.store_external(self.block(3))
        batch = handler.store_external([])
        assert len(batch) == 0 and batch.type_signature == frozenset()
        assert handler.blocks_processed == 2

    def test_stale_pending_occurrences_force_rederivation(self):
        """Through the engine: an occurrence recorded but never flushed joins
        the next stream block, so the rule watching only its type triggers."""
        db = ChimeraDatabase()
        try:
            db.define_rule(
                Rule(
                    name="order_watch",
                    events=parse_expression("create(order)"),
                    condition=TRUE_CONDITION,
                    action=NO_ACTION,
                )
            )
            # Defined over an empty log, the rule is no rider: only a block
            # signature routes it, and this first block's does not.
            db.engine.run_stream_block([EventOccurrence(98, TYPES[0], "o1", 1)])
            assert db.rule_state("order_watch").ts_computations == 0
            db.clock.tick()
            # record mints EID 99, one above the stream's; the block goes on.
            db.event_base.record(EventType(Operation.CREATE, "order"), "o9", 2)
            db.engine.run_stream_block([EventOccurrence(100, TYPES[0], "o1", 2)])
            assert db.rule_state("order_watch").times_triggered == 1
        finally:
            db.close()
