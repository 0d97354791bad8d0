"""Tests for transactions, transaction lines and commit/rollback."""

import pytest

from repro.core.parser import parse_expression
from repro.errors import TransactionError
from repro.oodb.database import ChimeraDatabase
from repro.oodb.transactions import TransactionStatus
from repro.rules.actions import Action, CallableStatement
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.workloads.stock import CHECK_STOCK_QTY_RULE


class TestLifecycle:
    def test_commit_on_context_exit(self, stock_db):
        with stock_db.transaction() as tx:
            tx.create("stock", {"quantity": 5})
        assert tx.status is TransactionStatus.COMMITTED
        assert stock_db.count("stock") == 1

    def test_rollback_on_exception(self, stock_db):
        with pytest.raises(RuntimeError):
            with stock_db.transaction() as tx:
                tx.create("stock", {"quantity": 5})
                raise RuntimeError("boom")
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert stock_db.count("stock") == 0

    def test_explicit_rollback(self, stock_db):
        tx = stock_db.transaction()
        tx.create("stock", {"quantity": 5})
        tx.rollback()
        assert stock_db.count("stock") == 0

    def test_a_rolled_back_transaction_leaves_nothing_readable_behind(self):
        """A rule's Python action creates a ``log`` object, then raises: the
        rollback undoes both objects and ends at the transaction boundary, so
        no triggering, log row or pending row of the aborted transaction is
        left to read before the next one begins."""
        db = ChimeraDatabase()
        try:
            db.define_class("a", ["x"])
            db.define_class("log", ["x"])
            calls = []

            def create_log_then_raise(binding, operations):
                calls.append(binding)
                operations.create("log", {"x": 1})
                raise RuntimeError("the action failed")

            db.define_rule(
                Rule(
                    name="onA",
                    events=parse_expression("create(a)"),
                    condition=TRUE_CONDITION,
                    action=Action((CallableStatement(create_log_then_raise),)),
                )
            )
            with pytest.raises(RuntimeError, match="the action failed"):
                with db.transaction() as tx:
                    tx.create("a", {"x": 1})
            assert tx.status is TransactionStatus.ROLLED_BACK
            assert len(calls) == 1
            assert db.count("a") == db.count("log") == 0
            assert not db.rule_state("onA").triggered
            assert len(db.event_base) == 0
            assert db.engine.event_handler.pending_count() == 0
        finally:
            db.close()

    def test_operations_after_commit_rejected(self, stock_db):
        tx = stock_db.transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.create("stock", {})

    def test_double_commit_rejected(self, stock_db):
        tx = stock_db.transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.commit()

    def test_only_one_active_transaction(self, stock_db):
        tx = stock_db.transaction()
        with pytest.raises(TransactionError):
            stock_db.transaction()
        tx.commit()
        stock_db.transaction().commit()

    def test_new_transaction_after_commit_empties_the_same_event_base(self, stock_db):
        """One log per database (§4.1): the next transaction empties it in
        place, so it holds only that transaction's rows and EIDs restart."""
        with stock_db.transaction() as tx:
            tx.create("stock", {"quantity": 5})
        first_eb = stock_db.event_base
        with stock_db.transaction() as tx:
            second = tx.create("stock", {"quantity": 6})
        assert stock_db.event_base is first_eb
        assert [(row.eid, row.oid) for row in first_eb] == [(1, second.oid)]

    def test_a_new_transaction_empties_every_index_of_the_ended_log(self, stock_db):
        """Once the next transaction begins, no row of the ended one is
        left in any index; only the type table survives."""
        stock_db.define_rule(CHECK_STOCK_QTY_RULE)
        with stock_db.transaction() as tx:
            tx.create("stock", {"quantity": 140, "maxquantity": 100})
        event_base = stock_db.event_base
        assert len(event_base) > 0
        tx = stock_db.transaction()
        assert len(event_base) == 0
        assert event_base._by_type  # the type table is kept
        for index in event_base._by_type.values():
            assert not index.timestamps
            assert not index.positions
            assert not index.oids
            assert not index.per_oid
        assert not event_base._by_eid
        assert not event_base._occurrences
        assert not event_base._all_timestamps
        assert not event_base._distinct_timestamps
        tx.commit()


class TestOperations:
    def test_each_operation_is_a_line(self, stock_db):
        with stock_db.transaction() as tx:
            tx.create("stock", {"quantity": 5})
            tx.create("show", {"quantity": 2})
            assert tx.lines_executed == 2

    def test_modify_and_delete(self, stock_db):
        with stock_db.transaction() as tx:
            obj = tx.create("stock", {"quantity": 5})
            tx.modify(obj.oid, "quantity", 8)
            assert stock_db.get(obj.oid).get("quantity") == 8
            tx.delete(obj.oid)
        assert stock_db.count("stock") == 0

    def test_specialize_and_generalize(self, stock_db):
        with stock_db.transaction() as tx:
            obj = tx.create("order", {"customer": "c", "amount": 1})
            tx.specialize(obj.oid, "notFilledOrder")
            assert stock_db.get(obj.oid).class_name == "notFilledOrder"
            tx.generalize(obj.oid, "order")
            assert stock_db.get(obj.oid).class_name == "order"

    def test_select_inside_transaction(self, stock_db):
        with stock_db.transaction() as tx:
            tx.create("stock", {"quantity": 5})
            rows = tx.select("stock")
            assert len(rows) == 1

    def test_line_groups_operations_into_one_block(self, stock_db):
        with stock_db.transaction() as tx:
            def block(ops):
                first = ops.create("stock", {"quantity": 1})
                ops.modify(first.oid, "quantity", 2)
                return first

            created = tx.line(block)
            assert tx.lines_executed == 1
        assert stock_db.get(created.oid).get("quantity") == 2

    def test_rollback_undoes_rule_free_changes_to_existing_objects(self, stock_db):
        with stock_db.transaction() as tx:
            obj = tx.create("stock", {"quantity": 5})
        tx2 = stock_db.transaction()
        tx2.modify(obj.oid, "quantity", 99)
        tx2.rollback()
        assert stock_db.get(obj.oid).get("quantity") == 5

    def test_run_transaction_helper(self, stock_db):
        stock_db.run_transaction(
            lambda ops: ops.create("stock", {"quantity": 5}),
            lambda ops: ops.create("show", {"quantity": 1}),
        )
        assert stock_db.count() == 2
