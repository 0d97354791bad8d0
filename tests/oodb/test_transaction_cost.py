"""A transaction costs what it touches — as facts, not timings.

On a store of 5 000 objects, beginning, running and ending a one-operation
transaction must not look at the other 4 999 (the whole-store rollback
snapshot did, on every ``begin``), and considering the paper's
``checkStockQty`` after one ``create(stock)`` must not enumerate the extent:
the class range ranges over what ``occurred`` says was affected, and
``occurred`` runs the compiled instance kernel once per object the window's
rows touched plus one probe for every untouched object.  Speed is
``benchmarks/e2e``'s business (``tx.stock_orders``); these spies pin the
mechanism.
"""

from __future__ import annotations

import pytest

from repro.core.compile import CheckBinder
from repro.core.expressions import EventExpression
from repro.oodb.objects import OID, ObjectStore
from repro.rules.conditions import Condition
from repro.workloads.stock import CHECK_STOCK_QTY_RULE

OBJECTS = 5_000


def _counted(name):
    def method(self, *args):
        ScanCountingDict.scans += 1
        return getattr(dict, name)(self, *args)

    return method


class ScanCountingDict(dict):
    """``store._objects`` with every whole-dict read counted."""

    scans = 0
    __iter__ = _counted("__iter__")
    keys = _counted("keys")
    values = _counted("values")
    items = _counted("items")
    copy = _counted("copy")


@pytest.fixture
def big_db(stock_db):
    stock_db.define_rule(CHECK_STOCK_QTY_RULE)
    values = {"quantity": 50, "maxquantity": 100}
    for _ in range(OBJECTS):
        stock_db.store.insert("stock", values, timestamp=0)
    ScanCountingDict.scans = 0
    stock_db.store._objects = ScanCountingDict(stock_db.store._objects)
    return stock_db


class TestTransactionTouchesOnlyItsObjects:
    def test_commit_of_one_operation(self, big_db):
        target = OID("stock", 1)
        with big_db.transaction() as tx:
            tx.modify(target, "quantity", 60)
            assert len(big_db.store._journal) == 1
        assert ScanCountingDict.scans == 0
        assert big_db.get(target).get("quantity") == 60

    def test_rollback_of_one_operation(self, big_db):
        target = OID("stock", 1)
        tx = big_db.transaction()
        tx.delete(target)
        tx.rollback()
        assert ScanCountingDict.scans == 0
        assert big_db.get(target).get("quantity") == 50

    def test_committed_delete_removes_one_entry(self, big_db):
        with big_db.transaction() as tx:
            doomed = tx.create("stock", {"quantity": 1, "maxquantity": 5}).oid
            tx.delete(doomed)
        assert ScanCountingDict.scans == 0
        assert len(big_db.store._objects) == OBJECTS


class TestConsiderationTouchesOnlyAffectedObjects:
    @pytest.fixture
    def spies(self, monkeypatch):
        """Counts taken while a ``Condition.evaluate`` is running.

        ``kernel`` counts root calls of the kernel of every binding made
        after the spies are installed (the formula's: the engine binds it on
        first use), ``bindings`` the kernel look-ups a new binding makes.
        """
        counts = {
            "extent_scans": 0,
            "tree_walks": 0,
            "evaluations": 0,
            "kernel": 0,
            "bindings": 0,
        }
        inside = [False]

        def counting(key, function):
            def spy(*args, **kwargs):
                if inside[0]:
                    counts[key] += 1
                return function(*args, **kwargs)

            return spy

        real_evaluate = Condition.evaluate

        def evaluate(self, context):
            counts["evaluations"] += 1
            inside[0] = True
            try:
                return real_evaluate(self, context)
            finally:
                inside[0] = False

        monkeypatch.setattr(Condition, "evaluate", evaluate)
        monkeypatch.setattr(
            ObjectStore,
            "objects_of_class",
            counting("extent_scans", ObjectStore.objects_of_class),
        )
        monkeypatch.setattr(
            EventExpression,
            "contains_set_operator",
            counting("tree_walks", EventExpression.contains_set_operator),
        )
        look_up = counting("bindings", CheckBinder._kernel)

        def kernel(binder, expression, instance, shape=None):
            fn, types = look_up(binder, expression, instance, shape)
            return counting("kernel", fn), types

        monkeypatch.setattr(CheckBinder, "_kernel", kernel)
        return counts

    def test_one_create_builds_one_binding_from_one_lookup(self, big_db, spies):
        with big_db.transaction() as tx:
            over = tx.create("stock", {"quantity": 140, "maxquantity": 100})
        (record,) = big_db.considerations
        assert (record.rule_name, record.bindings, record.executed) == (
            "checkStockQty",
            1,
            True,
        )
        assert over.get("quantity") == 100
        assert spies == {
            "evaluations": 1,
            "extent_scans": 0,
            "kernel": 2,  # one touched object, plus the untouched-object probe
            "bindings": 1,  # the formula, bound on its first consideration
            "tree_walks": 1,  # the expression is validated once, at binding
        }
        assert ScanCountingDict.scans == 0

    def test_ots_runs_once_per_window_oid(self, big_db, spies):
        with big_db.transaction() as tx:
            tx.line(
                lambda ops: [
                    ops.create("stock", {"quantity": quantity, "maxquantity": 100})
                    for quantity in (10, 140, 20, 30)
                ]
            )
        (record,) = big_db.considerations
        assert record.bindings == 1 and record.executed
        assert spies == {
            "evaluations": 1,
            "extent_scans": 0,
            "kernel": 5,  # four touched objects, plus one probe
            "bindings": 1,
            "tree_walks": 1,
        }

    def test_a_formula_is_bound_once_across_many_considerations(self, big_db, spies):
        for quantity in (140, 10, 150, 20, 160):
            with big_db.transaction() as tx:
                tx.create("stock", {"quantity": quantity, "maxquantity": 100})
        assert len(big_db.considerations) == 5
        assert spies["evaluations"] == 5
        # One binding (and one validation) for the engine's lifetime, one
        # touched object plus one probe per consideration.
        assert (spies["bindings"], spies["tree_walks"], spies["kernel"]) == (1, 1, 10)
        assert spies["extent_scans"] == 0


class TestOneLogPerDatabase:
    def test_k_rules_over_n_transactions_resolve_k_times(self, monkeypatch):
        """The Event Base is emptied at each transaction, not replaced, so a
        binding resolves its handles once for the database's life: K rules
        over N transactions cost K resolutions, not one per rule per
        transaction (N·K)."""
        from repro.events.event_base import StampIndex
        from repro.oodb.database import ChimeraDatabase

        rules, transactions = 5, 4
        resolved = []
        live_lists = StampIndex._indexes_matching

        def spy(store, pattern):
            resolved.append(pattern)
            return live_lists(store, pattern)

        monkeypatch.setattr(StampIndex, "_indexes_matching", spy)
        db = ChimeraDatabase(shard_mode="serial")  # bindings stay in-process
        try:
            for index in range(rules):
                db.define_class(f"c{index}", ["x"])
                db.define_rule(f"define r{index} events create(c{index}) end")
            for _ in range(transactions):
                with db.transaction() as tx:
                    for index in range(rules):
                        tx.create(f"c{index}", {"x": 1})
            assert len(resolved) == rules
            for index in range(rules):
                assert db.rule_state(f"r{index}").times_triggered == transactions
        finally:
            db.close()
