"""Tests for the Event Handler and the Trigger Support."""

import dataclasses

from repro.config import EngineConfig
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
CREATE_ORDER = EventType(Operation.CREATE, "order")


def make_rule(name: str, events: str) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(events),
        condition=TRUE_CONDITION,
        action=NO_ACTION,
    )


def setup(*rules: Rule, optimized: bool = True):
    event_base = EventBase()
    table = RuleTable()
    for rule in rules:
        state = table.add(rule)
        state.reset(0)
    handler = EventHandler(event_base)
    support = TriggerSupport(
        table, event_base, EngineConfig.from_env(use_static_optimization=optimized)
    )
    return event_base, table, handler, support


class TestEventHandler:
    def test_flush_block_returns_only_new_occurrences(self):
        event_base, _, handler, _ = setup()
        event_base.record(CREATE_STOCK, "o1", 1)
        first = handler.flush_block()
        event_base.record(MODIFY_QTY, "o1", 2)
        second = handler.flush_block()
        assert [occ.timestamp for occ in first] == [1]
        assert [occ.timestamp for occ in second] == [2]
        assert handler.pending_count() == 0
        assert handler.blocks_processed == 2

    def test_store_external(self):
        event_base, _, handler, _ = setup()
        from repro.events.event import EventOccurrence

        batch = handler.store_external([EventOccurrence(1, CREATE_STOCK, "o1", 1)])
        assert len(batch) == 1
        assert len(event_base) == 1


class TestTriggerSupport:
    def test_rule_becomes_triggered_by_matching_event(self):
        event_base, table, handler, support = setup(make_rule("r", "create(stock)"))
        event_base.record(CREATE_STOCK, "o1", 1)
        newly = support.check_after_block(
            handler.flush_block(), now=1, transaction_start=0
        )
        assert [state.rule.name for state in newly] == ["r"]
        assert table.get("r").triggered

    def test_non_matching_event_is_filtered_without_recomputation(self):
        event_base, table, handler, support = setup(make_rule("r", "create(stock)"))
        event_base.record(CREATE_ORDER, "o9", 1)
        # The rule was defined over an empty window and is not vacuous, so
        # the filter applies from the first block: both irrelevant blocks
        # are skipped.
        support.check_after_block(handler.flush_block(), now=1, transaction_start=0)
        event_base.record(CREATE_ORDER, "o9", 2)
        support.check_after_block(handler.flush_block(), now=2, transaction_start=0)
        assert support.stats.ts_computations == 0
        assert support.stats.ts_skipped_by_filter == 2
        assert not table.get("r").triggered

    def test_a_rule_added_over_a_nonempty_log_is_checked_once(self):
        """A bare add leaves the rule's window at the transaction start, over
        rows no later block routes again: it rides for one check (and that
        check triggers it), as the exhaustive scan would.  The same rule
        declared over an empty window (a reset at ``now``) is routed only."""
        event_base, table, handler, support = setup()
        for stamp in (1, 2):
            event_base.record(CREATE_ORDER, f"o{stamp}", stamp)
            support.check_after_block(
                handler.flush_block(), now=stamp, transaction_start=0
            )
        late = table.add(make_rule("late", "create(order)"))
        declared = table.add(make_rule("declared", "create(order)"))
        declared.reset(2)
        event_base.record(CREATE_STOCK, "s1", 3)
        newly = support.check_after_block(
            handler.flush_block(), now=3, transaction_start=0
        )
        assert newly == [late]
        assert (late.ts_computations, declared.ts_computations) == (1, 0)
        assert not late.rider

    def test_without_optimization_every_block_recomputes(self):
        event_base, table, handler, support = setup(
            make_rule("r", "create(stock)"), optimized=False
        )
        for timestamp in (1, 2, 3):
            event_base.record(CREATE_ORDER, "o9", timestamp)
            support.check_after_block(
                handler.flush_block(), now=timestamp, transaction_start=0
            )
        assert support.stats.ts_computations == 3
        assert support.stats.ts_skipped_by_filter == 0

    def test_triggered_rule_is_not_rechecked(self):
        event_base, table, handler, support = setup(make_rule("r", "create(stock)"))
        event_base.record(CREATE_STOCK, "o1", 1)
        support.check_after_block(handler.flush_block(), now=1, transaction_start=0)
        event_base.record(CREATE_STOCK, "o2", 2)
        support.check_after_block(handler.flush_block(), now=2, transaction_start=0)
        assert support.stats.ts_computations == 1
        assert table.get("r").times_triggered == 1

    def test_negation_rule_triggers_on_any_event_when_window_was_empty(self):
        """The V(E) filter must not hide the R != {} unblocking.

        A negation is vacuously active over a window that has held no
        occurrence, so the rule may trigger on the first occurrence of *any*
        type: its filter only applies once its window was non-empty.
        """
        event_base, table, handler, support = setup(
            make_rule("watchdog", "-create(stock)")
        )
        event_base.record(CREATE_ORDER, "o9", 1)  # unrelated event type
        newly = support.check_after_block(
            handler.flush_block(), now=1, transaction_start=0
        )
        assert [state.rule.name for state in newly] == ["watchdog"]

    def test_empty_block_changes_nothing(self):
        event_base, table, handler, support = setup(make_rule("r", "create(stock)"))
        assert support.check_after_block([], now=1, transaction_start=0) == []
        assert support.stats.ts_computations == 0

    def test_conjunction_rule_triggers_only_when_complete(self):
        event_base, table, handler, support = setup(
            make_rule("r", "create(stock) + modify(stock.quantity)")
        )
        event_base.record(CREATE_STOCK, "o1", 1)
        support.check_after_block(handler.flush_block(), now=1, transaction_start=0)
        assert not table.get("r").triggered
        event_base.record(MODIFY_QTY, "o2", 2)
        support.check_after_block(handler.flush_block(), now=2, transaction_start=0)
        assert table.get("r").triggered

    def test_recheck_all_catches_pending_rules(self):
        event_base, table, handler, support = setup(make_rule("r", "create(stock)"))
        event_base.record(CREATE_STOCK, "o1", 1)
        handler.flush_block()
        # check_after_block was never called (e.g. the block check was skipped);
        # recheck_all at commit still finds the triggering.
        newly = support.recheck_all(now=2, transaction_start=0)
        assert [state.rule.name for state in newly] == ["r"]

    def test_stats_as_dict(self):
        """The ``trigger.*`` export schema: the check's counters, and no
        evaluator counter the kernels do not keep."""
        _, _, _, support = setup(make_rule("r", "create(stock)"))
        assert set(dataclasses.asdict(support.stats)) == {
            "blocks",
            "rules_checked",
            "ts_computations",
            "ts_skipped_by_filter",
            "ts_skipped_empty_window",
            "rules_triggered",
            "instants_sampled",
            "rules_routed",
        }


class TestTriggerPlannerRouting:
    def test_block_ingest_carries_the_type_signature(self):
        event_base, _, handler, _ = setup()
        event_base.record(CREATE_STOCK, "o1", 1)
        event_base.record(MODIFY_QTY, "o1", 1)
        batch = handler.flush_block()
        assert batch.type_signature == {CREATE_STOCK, MODIFY_QTY}
        assert len(batch) == 2 and list(batch)[0].event_type is CREATE_STOCK

    def test_unsubscribed_rules_are_bypassed_not_visited(self):
        # The order rule needs both conjuncts, so create(order) occurrences
        # route to it without triggering it (it stays a candidate).
        event_base, table, handler, support = setup(
            make_rule("stock_rule", "create(stock)"),
            make_rule("order_rule", "create(order) + modify(stock.quantity)"),
        )
        # Both rules were defined over an empty window and neither is
        # vacuous: from the first block on, only the subscribed rule is
        # visited and the other is bypassed by the index.
        event_base.record(CREATE_ORDER, "o1", 1)
        support.check_after_block(handler.flush_block(), now=1, transaction_start=0)
        assert support.stats.rules_routed == 1  # order_rule, via the index
        assert support.stats.rules_checked == 1
        event_base.record(CREATE_ORDER, "o2", 2)
        support.check_after_block(handler.flush_block(), now=2, transaction_start=0)
        assert support.stats.rules_checked == 2
        assert support.stats.ts_skipped_by_filter == 2

    def test_index_routes_class_level_patterns_to_attribute_occurrences(self):
        event_base, table, handler, support = setup(
            make_rule("class_watch", "modify(stock)"),
            make_rule("qty_watch", "modify(stock.quantity)"),
            make_rule("other", "create(order)"),
        )
        event_base.record(CREATE_STOCK, "o1", 1)  # gives everyone a window
        support.check_after_block(handler.flush_block(), now=1, transaction_start=0)
        before = support.stats.rules_checked
        event_base.record(MODIFY_QTY, "o1", 2)
        newly = support.check_after_block(
            handler.flush_block(), now=2, transaction_start=0
        )
        assert sorted(state.rule.name for state in newly) == [
            "class_watch", "qty_watch"
        ]
        assert support.stats.rules_checked - before == 2  # "other" bypassed

    def test_without_the_optimization_every_rule_is_rechecked(self):
        event_base, table, handler, support = setup(
            make_rule("a", "create(stock)"),
            make_rule("b", "create(order)"),
            optimized=False,
        )
        event_base.record(CREATE_ORDER, "o1", 1)
        support.check_after_block(handler.flush_block(), now=1, transaction_start=0)
        event_base.record(CREATE_ORDER, "o2", 2)
        support.check_after_block(handler.flush_block(), now=2, transaction_start=0)
        # The paper's baseline: no routing, a ts per untriggered rule.
        assert support.stats.rules_routed == 0
        assert support.stats.ts_skipped_by_filter == 0
        assert support.stats.rules_checked == 3  # a+b, then a (b is triggered)
        assert table.get("b").triggered
