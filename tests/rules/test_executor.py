"""Tests for the Block Executor / rule-processing loop (engine-level behaviour)."""

import pytest

from repro.errors import EventCalculusError, NonTerminationError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.oodb.database import ChimeraDatabase
from repro.workloads.stock import CHECK_STOCK_QTY_RULE


def make_db(**kwargs) -> ChimeraDatabase:
    db = ChimeraDatabase(**kwargs)
    db.define_class(
        "stock",
        {
            "name": str,
            "quantity": int,
            "minquantity": int,
            "maxquantity": int,
            "onorder": int,
        },
    )
    db.define_class("show", {"quantity": int})
    db.define_class("order", {"amount": int})
    db.define_class("stockOrder", {"item": object, "delquantity": int})
    db.define_class("log", {"entries": int})
    return db


class TestImmediateProcessing:
    def test_paper_rule_clamps_quantity_in_the_same_transaction(self):
        db = make_db()
        db.define_rule(CHECK_STOCK_QTY_RULE)
        with db.transaction() as tx:
            over = tx.create("stock", {"quantity": 140, "maxquantity": 100})
            # The rule ran immediately after the create line: by the time the
            # next line executes the quantity is already clamped.
            assert db.get(over.oid).get("quantity") == 100

    def test_rule_not_executed_when_condition_fails(self):
        db = make_db()
        db.define_rule(CHECK_STOCK_QTY_RULE)
        with db.transaction() as tx:
            ok = tx.create("stock", {"quantity": 50, "maxquantity": 100})
        state = db.rule_state("checkStockQty")
        assert state.times_considered == 1
        assert state.times_executed == 0
        assert db.get(ok.oid).get("quantity") == 50

    def test_set_oriented_execution_processes_all_pending_objects(self):
        db = make_db()
        db.define_rule(CHECK_STOCK_QTY_RULE)
        with db.transaction() as tx:
            created = tx.line(
                lambda ops: [
                    ops.create("stock", {"quantity": 140, "maxquantity": 100}),
                    ops.create("stock", {"quantity": 200, "maxquantity": 100}),
                ]
            )
        # Both objects were created in a single block; one consideration fixes both.
        assert all(db.get(obj.oid).get("quantity") == 100 for obj in created)
        assert db.rule_state("checkStockQty").times_executed == 1

    def test_untargeted_composite_rule(self):
        db = make_db()
        db.define_rule(
            """
            define immediate logOrder
            events create(order) < modify(show.quantity)
            condition show(P)
            action modify(show.quantity, P, 0)
            end
            """
        )
        with db.transaction() as tx:
            shelf = tx.create("show", {"quantity": 9})
            tx.create("order", {"amount": 1})
            assert db.get(shelf.oid).get("quantity") == 9  # sequence not complete yet
            tx.modify(shelf.oid, "quantity", 5)
        assert db.get(shelf.oid).get("quantity") == 0


class TestDeferredProcessing:
    def test_deferred_rule_runs_only_at_commit(self):
        db = make_db()
        db.define_rule(
            """
            define deferred auditQty for stock
            events create
            condition stock(S), occurred(create(stock), S)
            action modify(stock.onorder, S, 1)
            end
            """
        )
        with db.transaction() as tx:
            obj = tx.create("stock", {"quantity": 5, "onorder": 0})
            # Still untouched inside the transaction.
            assert db.get(obj.oid).get("onorder") == 0
        # At commit the deferred rule ran.
        assert db.get(obj.oid).get("onorder") == 1

    def test_deferred_rule_sees_all_transaction_events(self):
        db = make_db()
        db.define_rule(
            """
            define deferred preserving countCreates for stock
            events create
            condition stock(S), occurred(create(stock), S)
            action modify(stock.onorder, S, 1)
            end
            """
        )
        with db.transaction() as tx:
            first = tx.create("stock", {"onorder": 0})
            second = tx.create("stock", {"onorder": 0})
        assert db.get(first.oid).get("onorder") == 1
        assert db.get(second.oid).get("onorder") == 1


class TestCascadingAndTermination:
    def test_rule_triggering_another_rule(self):
        db = make_db()
        db.define_rule(
            """
            define immediate placeOrder for stock
            events create
            condition stock(S), occurred(create(stock), S), S.quantity < S.minquantity
            action create(stockOrder, item = S, delquantity = 0)
            end
            """
        )
        db.define_rule(
            """
            define immediate ackOrder for stockOrder
            events create
            condition stockOrder(O), occurred(create(stockOrder), O)
            action modify(stockOrder.delquantity, O, 1)
            end
            """
        )
        with db.transaction() as tx:
            tx.create("stock", {"quantity": 1, "minquantity": 10})
        orders = db.select("stockOrder")
        assert len(orders) == 1
        assert orders[0].get("delquantity") == 1
        assert db.rule_state("ackOrder").times_executed == 1

    def test_self_triggering_rule_hits_the_execution_budget(self):
        db = make_db(max_rule_executions=25)
        db.define_rule(
            """
            define immediate runaway for log
            events modify(entries)
            condition log(L), occurred(modify(log.entries), L)
            action modify(log.entries, L, L.entries + 1)
            end
            """
        )
        with pytest.raises(NonTerminationError):
            with db.transaction() as tx:
                counter = tx.create("log", {"entries": 0})
                tx.modify(counter.oid, "entries", 1)

    def test_consuming_rule_does_not_reprocess_old_events(self):
        db = make_db()
        db.define_rule(
            """
            define immediate markOnOrder for stock
            events modify(quantity)
            condition stock(S), occurred(modify(stock.quantity), S)
            action modify(stock.onorder, S, S.onorder + 1)
            end
            """
        )
        with db.transaction() as tx:
            obj = tx.create("stock", {"quantity": 5, "onorder": 0})
            tx.modify(obj.oid, "quantity", 6)
            first_count = db.get(obj.oid).get("onorder")
            tx.create("order", {"amount": 1})  # unrelated event; rule must not rerun
            second_count = db.get(obj.oid).get("onorder")
        assert first_count == 1
        assert second_count == 1


class TestPriorities:
    def test_higher_priority_rule_considered_first(self):
        db = make_db()
        db.define_rule(
            """
            define immediate second for stock
            events create
            condition stock(S), occurred(create(stock), S)
            action modify(stock.name, S, 'second')
            priority 1
            end
            """
        )
        db.define_rule(
            """
            define immediate first for stock
            events create
            condition stock(S), occurred(create(stock), S)
            action modify(stock.name, S, 'first')
            priority 9
            end
            """
        )
        with db.transaction() as tx:
            obj = tx.create("stock", {"quantity": 1})
        # Both executed; the lower-priority rule ran last and wins the final write.
        assert db.get(obj.oid).get("name") == "second"
        order = [record.rule_name for record in db.considerations]
        assert order.index("first") < order.index("second")


class TestTransactionIsolationOfRuleState:
    def test_rule_state_resets_between_transactions(self):
        db = make_db()
        db.define_rule(CHECK_STOCK_QTY_RULE)
        with db.transaction() as tx:
            tx.create("stock", {"quantity": 140, "maxquantity": 100})
        first_considerations = db.rule_state("checkStockQty").times_considered
        with db.transaction() as tx:
            tx.create("stock", {"quantity": 150, "maxquantity": 100})
        assert (
            db.rule_state("checkStockQty").times_considered
            == first_considerations + 1
        )
        assert db.count("stock") == 2


class TestStreamExecutionBudget:
    """The budget guards one quiescence loop: a block, not the whole stream."""

    RUNAWAY = """
        define immediate runaway for log
        events modify(entries)
        condition log(L), occurred(modify(log.entries), L)
        action modify(log.entries, L, L.entries + 1)
        end
        """

    @staticmethod
    def stamped(db, event_type, oid, count):
        start = db.clock.now()
        return [
            EventOccurrence(
                eid=10_000 + index,
                event_type=event_type,
                oid=oid,
                timestamp=start + index,
            )
            for index in range(1, count + 1)
        ]

    def test_a_long_stream_of_executing_blocks_completes(self):
        db = make_db(max_rule_executions=5)
        db.define_rule("define immediate tick\nevents create(stock)\nend")
        created = EventType(Operation.CREATE, "stock")
        occurrences = self.stamped(db, created, 1, 50)
        for occurrence in occurrences:
            db.engine.run_stream_block([occurrence])
        assert db.rule_state("tick").times_executed == 50

    def test_a_block_that_never_quiesces_still_raises(self):
        db = make_db(max_rule_executions=5)
        db.define_rule(self.RUNAWAY)
        counter = db.store.insert("log", {"entries": 0}, timestamp=db.clock.now())
        modified = EventType(Operation.MODIFY, "log", "entries")
        block = self.stamped(db, modified, counter.oid, 1)
        with pytest.raises(NonTerminationError) as raised:
            db.engine.run_stream_block(block)
        assert raised.value.limit == 5
        assert db.rule_state("runaway").times_executed == 5


class TestStreamBlockLoop:
    """Paper §5 on the stream path: every block is checked on its own and its
    triggered rules are considered before the next block is stored."""

    PLACEMENTS = {
        "single": {"shards": 0},
        "serial": {"shards": 2, "shard_mode": "serial"},
        "processes": {"shards": 2, "shard_mode": "processes"},
    }

    MARK = """
        define immediate markNew for stock
        events create
        condition stock(S), occurred(create(stock), S)
        action modify(stock.onorder, S, S.onorder + 1)
        end
        """

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_each_block_is_considered_before_the_next_arrives(self, placement):
        """One object created per block: every consideration binds exactly
        its own block's object, at its own block's stamp — so no block was
        checked, or considered, together with another."""
        db = make_db(**self.PLACEMENTS[placement])
        try:
            db.define_rule(self.MARK)
            start = db.clock.now()
            objects = [
                db.store.insert("stock", {"onorder": 0}, timestamp=start)
                for _ in range(4)
            ]
            created = EventType(Operation.CREATE, "stock")
            for index, obj in enumerate(objects, 1):
                # Each action's modify takes the EID above the block's, so the
                # stream's EIDs leave room for it.
                occurrence = EventOccurrence(
                    eid=10_000 * index,
                    event_type=created,
                    oid=obj.oid,
                    timestamp=start + index,
                )
                db.engine.run_stream_block([occurrence])
                assert [
                    (record.instant, record.bindings, record.phase)
                    for record in db.considerations
                ] == [(start + n, 1, "stream") for n in range(1, index + 1)]
                assert not db.rule_state("markNew").triggered
            assert [db.get(obj.oid).get("onorder") for obj in objects] == [1] * 4
        finally:
            db.close()

    def test_an_empty_stream_block_is_still_checked(self):
        db = make_db()
        try:
            db.define_rule("define immediate tick\nevents create(stock)\nend")
            support = db.engine.trigger_support
            blocks, now = support.stats.blocks, db.clock.now()
            db.engine.run_stream_block([])
            assert support.stats.blocks == blocks + 1
            assert db.clock.now() == now
            assert db.considerations == []
        finally:
            db.close()

    def test_a_prestamped_block_moves_the_clock_to_its_last_stamp(self):
        """A block stamped ahead of the clock would fall outside its own
        check window ``(start, now]``; the clock catches up first."""
        db = make_db()
        try:
            db.define_rule("define immediate tick\nevents create(stock)\nend")
            late = db.clock.now() + 50
            created = EventType(Operation.CREATE, "stock")
            db.engine.run_stream_block(
                [EventOccurrence(eid=10_001, event_type=created, oid=1, timestamp=late)]
            )
            assert db.clock.now() == late
            assert [record.instant for record in db.considerations] == [late]
        finally:
            db.close()


@pytest.mark.parametrize(
    "settings, coordinated",
    [
        ({"shards": 0, "shard_mode": "serial"}, False),
        ({"shards": 4, "shard_mode": "serial"}, False),
        ({"shards": 0, "shard_mode": "processes"}, False),
        ({"shards": 2, "shard_mode": "processes"}, True),
    ],
    ids=["single", "serial-shards", "processes-no-shards", "processes"],
)
def test_only_processes_with_shards_builds_a_coordinator(settings, coordinated):
    """A shard is an evaluator: ``serial`` with N shards is the single table
    (one Rule Table, one inline Trigger Support); only ``processes`` with
    shards puts a coordinator in front of the worker pool."""
    from repro.cluster.coordinator import ShardCoordinator
    from repro.rules.rule_table import RuleTable
    from repro.rules.trigger_support import TriggerSupport

    db = ChimeraDatabase(**settings)
    try:
        support = db.engine.trigger_support
        assert type(db.rule_table) is RuleTable
        assert type(support) is (ShardCoordinator if coordinated else TriggerSupport)
    finally:
        db.close()


class TestStreamEids:
    """An action's occurrence takes an EID the log does not hold yet."""

    ON_ITEM = """
        define immediate onItem
        events create(item)
        action create(audit, n = 1)
        end
        """

    def test_action_after_a_stream_block_mints_above_its_eids(self):
        db = ChimeraDatabase()
        try:
            db.define_class("item", {})
            db.define_class("audit", {"n": int})
            db.define_rule(self.ON_ITEM)
            created = EventType(Operation.CREATE, "item")
            db.engine.run_stream_block(
                [
                    EventOccurrence(1, created, "i1", 1),
                    EventOccurrence(2, created, "i2", 2),
                ]
            )
            assert [occurrence.eid for occurrence in db.event_base] == [1, 2, 3]
            assert db.event_base.type_of(3) == EventType(Operation.CREATE, "audit")
            assert db.rule_statistics()["onItem"]["executed"] == 1
            # A later block that reuses the minted EID is refused.
            with pytest.raises(EventCalculusError, match="duplicate EID 3"):
                db.engine.run_stream_block([EventOccurrence(3, created, "i3", 4)])
        finally:
            db.close()
