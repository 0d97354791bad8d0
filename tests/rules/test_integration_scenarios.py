"""End-to-end scenarios combining composite events, conditions and actions."""

import pytest

from repro.oodb.database import ChimeraDatabase
from repro.workloads.stock import REORDER_RULE, SHELF_REFILL_RULE, StockScenario


def make_db() -> ChimeraDatabase:
    db = ChimeraDatabase()
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
    db.define_class("show", {"name": str, "quantity": int, "item": object})
    db.define_class("order", {"customer": str, "amount": int})
    db.define_class("stockOrder", {"item": object, "delquantity": int})
    return db


class TestReorderScenario:
    """REORDER_RULE uses the instance-oriented precedence operator."""

    def test_reorder_fires_when_min_raised_then_quantity_dropped(self):
        db = make_db()
        db.define_rule(REORDER_RULE)
        with db.transaction() as tx:
            item = tx.create(
                "stock",
                {"quantity": 20, "minquantity": 5, "maxquantity": 100, "onorder": 0},
            )
            tx.modify(item.oid, "minquantity", 15)
            tx.modify(item.oid, "quantity", 10)
        assert db.get(item.oid).get("onorder") == 1
        assert db.count("stockOrder") == 1

    def test_reorder_requires_the_order_min_before_quantity(self):
        db = make_db()
        db.define_rule(REORDER_RULE)
        with db.transaction() as tx:
            item = tx.create(
                "stock",
                {"quantity": 20, "minquantity": 5, "maxquantity": 100, "onorder": 0},
            )
            tx.modify(item.oid, "quantity", 10)
            tx.modify(item.oid, "minquantity", 15)
            # quantity (10) < minquantity (15), but the events arrived in the
            # wrong order for the instance precedence, so no reorder happens...
        assert db.count("stockOrder") == 0

    def test_reorder_requires_same_object(self):
        db = make_db()
        db.define_rule(REORDER_RULE)
        with db.transaction() as tx:
            first = tx.create(
                "stock",
                {"quantity": 3, "minquantity": 10, "maxquantity": 100, "onorder": 0},
            )
            second = tx.create(
                "stock",
                {"quantity": 50, "minquantity": 10, "maxquantity": 100, "onorder": 0},
            )
            tx.modify(first.oid, "minquantity", 12)
            tx.modify(second.oid, "quantity", 40)
        # The precedence happened across two different objects: no triggering
        # of the instance-oriented expression.
        assert db.count("stockOrder") == 0


class TestShelfRefillScenario:
    """SHELF_REFILL_RULE is deferred and uses negation of a sequence."""

    def test_refill_happens_at_commit_when_no_stock_order_activity(self):
        db = make_db()
        db.define_rule(SHELF_REFILL_RULE)
        with db.transaction() as tx:
            shelf = tx.create("show", {"quantity": 10})
            tx.modify(shelf.oid, "quantity", 2)
            assert db.get(shelf.oid).get("quantity") == 2  # deferred: nothing yet
        assert db.get(shelf.oid).get("quantity") == 20

    def test_no_refill_when_stock_order_activity_precedes_the_shelf_change(self):
        db = make_db()
        db.define_rule(SHELF_REFILL_RULE)
        with db.transaction() as tx:
            shelf = tx.create("show", {"quantity": 10})
            order = tx.create("stockOrder", {"delquantity": 0})
            tx.modify(order.oid, "delquantity", 7)
            tx.modify(shelf.oid, "quantity", 2)
        # The negated sequence was already active when the shelf changed, so
        # the composite event never became active and the rule never triggered.
        assert db.get(shelf.oid).get("quantity") == 2

    def test_later_stock_order_activity_does_not_detrigger(self):
        """Once T(r, t1) held for some t1, the rule stays triggered (paper §4.5)."""
        db = make_db()
        db.define_rule(SHELF_REFILL_RULE)
        with db.transaction() as tx:
            shelf = tx.create("show", {"quantity": 10})
            tx.modify(shelf.oid, "quantity", 2)  # composite active here -> triggered
            order = tx.create("stockOrder", {"delquantity": 0})
            tx.modify(order.oid, "delquantity", 7)  # too late: no detriggering
        assert db.get(shelf.oid).get("quantity") == 20

    def test_no_refill_when_shelf_quantity_is_healthy(self):
        db = make_db()
        db.define_rule(SHELF_REFILL_RULE)
        with db.transaction() as tx:
            shelf = tx.create("show", {"quantity": 10})
            tx.modify(shelf.oid, "quantity", 8)
        assert db.get(shelf.oid).get("quantity") == 8


class TestStockScenarioWorkload:
    def test_scenario_runs_days_without_errors(self):
        scenario = StockScenario(items=6, shelf_products=3, seed=7)
        scenario.run_days(2, operations_per_day=25)
        stats = scenario.database.rule_statistics()
        assert set(stats) == {"checkStockQty", "reorderStock", "shelfRefill"}
        # The workload is designed to exercise the rules.
        assert sum(rule["triggered"] for rule in stats.values()) > 0

    def test_optimized_and_naive_scenarios_agree_on_rule_outcomes(self):
        optimized = StockScenario(items=6, shelf_products=3, seed=11)
        naive = StockScenario(
            items=6, shelf_products=3, seed=11, use_static_optimization=False
        )
        optimized.run_days(2, operations_per_day=30)
        naive.run_days(2, operations_per_day=30)

        opt_stats = optimized.database.rule_statistics()
        naive_stats = naive.database.rule_statistics()
        for name in opt_stats:
            assert opt_stats[name]["executed"] == naive_stats[name]["executed"], name
            assert opt_stats[name]["triggered"] == naive_stats[name]["triggered"], name

        # The optimization's whole point: fewer ts computations, same outcome.
        assert (
            optimized.database.trigger_statistics()["ts_computations"]
            <= naive.database.trigger_statistics()["ts_computations"]
        )

    def test_final_object_states_agree_between_optimized_and_naive(self):
        optimized = StockScenario(items=5, shelf_products=2, seed=3)
        naive = StockScenario(
            items=5, shelf_products=2, seed=3, use_static_optimization=False
        )
        optimized.run_day(40)
        naive.run_day(40)
        left = {
            str(obj.oid): obj.snapshot()
            for obj in optimized.database.store.all_objects()
        }
        right = {
            str(obj.oid): obj.snapshot() for obj in naive.database.store.all_objects()
        }
        assert left == right


class TestCouplingAndConsumptionModes:
    """One monitoring rule in each EC coupling and consumption mode.

    The composite-event extension leaves rule processing alone (paper §1,
    design principle 3): coupling moves *when* the rule is considered, and
    consumption only changes how much history each consideration sees.
    """

    DAYS = 3
    OPERATIONS_PER_DAY = 40
    MONITOR_RULE = """
        define {coupling} {consumption} monitorQty for stock
        events modify(quantity)
        condition stock(S), occurred(modify(stock.quantity), S)
        action modify(stock.onorder, S, S.onorder + 1)
        end
    """

    @pytest.fixture(scope="class")
    def modes(self):
        results = {}
        for coupling in ("immediate", "deferred"):
            for consumption in ("consuming", "preserving"):
                scenario = StockScenario(
                    items=15, shelf_products=5, seed=77, install_rules=False
                )
                db = scenario.database
                try:
                    db.define_rule(
                        self.MONITOR_RULE.format(
                            coupling=coupling, consumption=consumption
                        )
                    )
                    scenario.run_days(self.DAYS, self.OPERATIONS_PER_DAY)
                    stats = db.rule_statistics()["monitorQty"]
                    results[coupling, consumption] = {
                        "considered": stats["considered"],
                        "executed": stats["executed"],
                        "at_commit": sum(
                            record.phase == "commit" for record in db.considerations
                        ),
                        "updates": sum(
                            obj.get("onorder") or 0 for obj in db.select("stock")
                        ),
                    }
                finally:
                    db.close()
        return results

    def test_deferred_rules_run_only_at_commit(self, modes):
        deferred = modes["deferred", "consuming"]
        immediate = modes["immediate", "consuming"]
        assert deferred["at_commit"] == deferred["considered"]
        assert immediate["at_commit"] < immediate["considered"]
        # At most one consideration per transaction (two per simulated day).
        assert deferred["considered"] <= self.DAYS * 2
        assert immediate["considered"] > deferred["considered"]

    def test_preserving_rules_see_the_whole_transaction(self, modes):
        assert (
            modes["immediate", "preserving"]["updates"]
            >= modes["immediate", "consuming"]["updates"]
        )
        assert modes["immediate", "preserving"]["considered"] == (
            modes["immediate", "consuming"]["considered"]
        )

    def test_every_mode_does_work(self, modes):
        assert all(result["executed"] > 0 for result in modes.values())
