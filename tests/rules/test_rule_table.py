"""Tests for rule definitions, rule state and the Rule Table."""

import pytest

from repro.core.parser import parse_expression
from repro.errors import DuplicateRuleError, RuleDefinitionError, UnknownRuleError
from repro.events.event import EventType, Operation
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import ConsumptionMode, ECCoupling, Rule, RuleState
from repro.rules.rule_table import RuleTable


def make_rule(
    name: str, events: str = "create(stock)", priority: int = 0, **kwargs
) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(events),
        condition=TRUE_CONDITION,
        action=NO_ACTION,
        priority=priority,
        **kwargs,
    )


class TestRuleDefinition:
    def test_invalid_name_rejected(self):
        with pytest.raises(RuleDefinitionError):
            make_rule("not a name")

    def test_targeted_rule_checks_event_classes(self):
        with pytest.raises(RuleDefinitionError):
            Rule(
                name="bad",
                events=parse_expression("create(show)"),
                condition=TRUE_CONDITION,
                action=NO_ACTION,
                target_class="stock",
            )

    def test_describe_mentions_every_part(self):
        rule = make_rule("ok", coupling=ECCoupling.DEFERRED, target_class="stock")
        description = rule.describe()
        assert "deferred" in description
        assert "create(stock)" in description
        assert "for stock" in description


class TestRuleState:
    def test_mark_triggered_and_considered(self):
        state = RuleState(rule=make_rule("r"))
        state.mark_triggered(5)
        assert state.triggered and state.times_triggered == 1
        state.mark_considered(6, executed=True)
        assert not state.triggered
        assert state.last_consideration == 6
        assert (state.times_triggered, state.times_considered) == (1, 1)
        assert state.times_executed == 1
        state.mark_considered(7, executed=False)
        assert (state.times_considered, state.times_executed) == (2, 1)

    def test_consuming_rule_advances_last_consumption(self):
        state = RuleState(rule=make_rule("r", consumption=ConsumptionMode.CONSUMING))
        state.mark_considered(6, executed=False)
        assert state.last_consumption == 6

    def test_preserving_rule_keeps_last_consumption(self):
        state = RuleState(rule=make_rule("r", consumption=ConsumptionMode.PRESERVING))
        state.reset(transaction_start=1)
        state.mark_considered(6, executed=False)
        assert state.last_consumption == 1

    def test_observation_window_start(self):
        consuming = RuleState(rule=make_rule("r"))
        consuming.reset(transaction_start=2)
        consuming.mark_considered(7, executed=False)
        assert consuming.observation_window_start(transaction_start=2) == 7

        preserving = RuleState(
            rule=make_rule("p", consumption=ConsumptionMode.PRESERVING)
        )
        preserving.reset(transaction_start=2)
        preserving.mark_considered(7, executed=False)
        assert preserving.observation_window_start(transaction_start=2) == 2

    def test_reset_clears_flags(self):
        state = RuleState(rule=make_rule("r"))
        state.mark_triggered(3)
        state.had_nonempty_window = True
        state.reset(transaction_start=10)
        assert not state.triggered
        assert not state.had_nonempty_window
        assert state.trigger_window_start(10) == 10


class TestRuleTable:
    def test_add_and_get(self):
        table = RuleTable()
        table.add(make_rule("a"))
        assert "a" in table
        assert table.get("a").rule.name == "a"
        assert len(table) == 1

    def test_duplicate_rejected(self):
        table = RuleTable()
        table.add(make_rule("a"))
        with pytest.raises(DuplicateRuleError):
            table.add(make_rule("a"))

    def test_remove(self):
        table = RuleTable()
        table.add(make_rule("a"))
        removed = table.remove("a")
        assert removed.name == "a"
        with pytest.raises(UnknownRuleError):
            table.remove("a")
        with pytest.raises(UnknownRuleError):
            table.get("a")

    def test_rules_in_definition_order(self):
        table = RuleTable()
        for name in ("a", "b", "c"):
            table.add(make_rule(name))
        assert [rule.name for rule in table.rules()] == ["a", "b", "c"]

    def test_priority_order_selection(self):
        table = RuleTable()
        table.add(make_rule("low", priority=1))
        table.add(make_rule("high", priority=9))
        table.add(make_rule("mid", priority=5))
        for state in table.states():
            state.mark_triggered(1)
        assert table.select_for_consideration().rule.name == "high"
        ordered = [state.rule.name for state in table.triggered_states()]
        assert ordered == ["high", "mid", "low"]

    def test_ties_broken_by_definition_order(self):
        table = RuleTable()
        table.add(make_rule("first", priority=3))
        table.add(make_rule("second", priority=3))
        for state in table.states():
            state.mark_triggered(1)
        assert table.select_for_consideration().rule.name == "first"

    def test_selection_filters_by_coupling(self):
        table = RuleTable()
        table.add(make_rule("now", coupling=ECCoupling.IMMEDIATE))
        table.add(make_rule("later", coupling=ECCoupling.DEFERRED, priority=10))
        for state in table.states():
            state.mark_triggered(1)
        assert table.select_for_consideration(ECCoupling.IMMEDIATE).rule.name == "now"
        assert table.select_for_consideration(ECCoupling.DEFERRED).rule.name == "later"
        assert table.select_for_consideration().rule.name == "later"

    def test_disabled_rules_are_not_selected(self):
        table = RuleTable()
        table.add(make_rule("a"))
        table.get("a").mark_triggered(1)
        table.disable("a")
        assert table.select_for_consideration() is None
        table.enable("a")
        assert table.untriggered_states()[0].rule.name == "a"

    def test_untriggered_states(self):
        table = RuleTable()
        table.add(make_rule("a"))
        table.add(make_rule("b"))
        table.get("a").mark_triggered(1)
        assert [state.rule.name for state in table.untriggered_states()] == ["b"]

    def test_reset_all(self):
        table = RuleTable()
        table.add(make_rule("a"))
        table.get("a").mark_triggered(1)
        table.reset_all(transaction_start=5)
        assert not table.get("a").triggered
        assert table.get("a").last_consideration == 5

    def test_untriggered_count_tracks_transitions(self):
        table = RuleTable()
        for name in ("a", "b", "c"):
            table.add(make_rule(name))
        assert table.untriggered_count() == 3
        table.get("a").mark_triggered(1)
        assert table.untriggered_count() == 2
        table.disable("b")
        assert table.untriggered_count() == 1
        table.get("a").mark_considered(2, executed=False)
        assert table.untriggered_count() == 2
        table.enable("b")
        assert table.untriggered_count() == 3
        table.remove("c")
        assert table.untriggered_count() == 2


class TestSubscriptionIndex:
    """The inverted event-type → rule index used by the TriggerPlanner."""

    CREATE_STOCK = EventType(Operation.CREATE, "stock")
    MODIFY_STOCK = EventType(Operation.MODIFY, "stock")
    MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
    MODIFY_NAME = EventType(Operation.MODIFY, "stock", "name")
    CREATE_ORDER = EventType(Operation.CREATE, "order")

    def build(self) -> RuleTable:
        table = RuleTable()
        table.add(make_rule("on_create", "create(stock)"))
        table.add(make_rule("on_class_modify", "modify(stock)"))
        table.add(make_rule("on_qty", "modify(stock.quantity)"))
        table.add(make_rule("on_order", "create(order)"))
        return table

    def names(self, table, *types):
        return sorted(table.subscribers_for_signature(frozenset(types)))

    def test_exact_match(self):
        table = self.build()
        assert self.names(table, self.CREATE_STOCK) == ["on_create"]
        assert self.names(table, self.CREATE_ORDER) == ["on_order"]

    def test_attribute_occurrence_reaches_class_level_watcher(self):
        table = self.build()
        assert self.names(table, self.MODIFY_QTY) == ["on_class_modify", "on_qty"]

    def test_class_level_occurrence_reaches_attribute_watcher(self):
        table = self.build()
        assert self.names(table, self.MODIFY_STOCK) == ["on_class_modify", "on_qty"]

    def test_unrelated_attribute_does_not_reach_attribute_watcher(self):
        table = self.build()
        assert self.names(table, self.MODIFY_NAME) == ["on_class_modify"]

    def test_signature_union(self):
        table = self.build()
        assert self.names(table, self.CREATE_STOCK, self.CREATE_ORDER) == [
            "on_create",
            "on_order",
        ]

    def test_negation_flips_subscription_sign(self):
        # -create(stock): a new create(stock) is a negative variation only —
        # it can never activate the rule, so the index must not route it.
        table = RuleTable()
        table.add(make_rule("neg", "-create(stock)"))
        assert self.names(table, self.CREATE_STOCK) == []

    def test_remove_unindexes(self):
        table = self.build()
        table.remove("on_qty")
        assert self.names(table, self.MODIFY_QTY) == ["on_class_modify"]

    def test_new_rules_start_in_pending_full_check(self):
        table = self.build()
        assert sorted(table.pending_full_check_states()) == [
            "on_class_modify",
            "on_create",
            "on_order",
            "on_qty",
        ]

    def test_pending_full_check_prunes_and_rearms(self):
        table = self.build()
        state = table.get("on_create")
        state.had_nonempty_window = True
        assert "on_create" not in table.pending_full_check_states()
        # Consideration clears the flag: the rule must be full-checked again.
        state.mark_considered(5, executed=False)
        assert "on_create" in table.pending_full_check_states()


class TestPriorityHeaps:
    """Lazy-invalidation heap selection against re-trigger/disable/remove churn."""

    def test_retrigger_after_consideration_uses_fresh_entry(self):
        table = RuleTable()
        table.add(make_rule("a", priority=5))
        table.add(make_rule("b", priority=1))
        table.get("a").mark_triggered(1)
        table.get("b").mark_triggered(1)
        assert table.select_for_consideration().rule.name == "a"
        table.get("a").mark_considered(2, executed=False)
        assert table.select_for_consideration().rule.name == "b"
        table.get("a").mark_triggered(3)
        assert table.select_for_consideration().rule.name == "a"

    def test_disable_hides_triggered_rule_enable_does_not_resurrect(self):
        table = RuleTable()
        table.add(make_rule("a", priority=5))
        table.get("a").mark_triggered(1)
        table.disable("a")
        assert table.select_for_consideration() is None
        # disable() clears the triggered flag (paper semantics), so re-enabling
        # must not bring the stale heap entry back to life.
        table.enable("a")
        assert table.select_for_consideration() is None
        table.get("a").mark_triggered(2)
        assert table.select_for_consideration().rule.name == "a"

    def test_selection_is_stable_under_repeated_peeks(self):
        table = RuleTable()
        table.add(make_rule("a", priority=2))
        table.get("a").mark_triggered(1)
        assert table.select_for_consideration() is table.select_for_consideration()

    def test_readding_a_removed_name_does_not_resurrect_stale_entries(self):
        # The old rule's heap entry must not survive a remove + re-add under
        # the same name (tokens are table-global, not per-name).
        table = RuleTable()
        table.add(make_rule("x", priority=10))
        table.add(make_rule("y", priority=5))
        table.get("x").mark_triggered(1)
        table.remove("x")
        table.add(make_rule("x", priority=1))
        table.get("x").mark_triggered(2)
        table.get("y").mark_triggered(2)
        assert table.select_for_consideration().rule.name == "y"

    def test_disable_evicts_from_pending_full_check(self):
        table = RuleTable()
        table.add(make_rule("a"))
        assert "a" in table.pending_full_check_states()
        table.disable("a")
        assert "a" not in table.pending_full_check_states()
        table.enable("a")
        assert "a" in table.pending_full_check_states()

    def test_reset_all_clears_heaps(self):
        table = RuleTable()
        table.add(make_rule("a", priority=2))
        table.get("a").mark_triggered(1)
        table.reset_all(transaction_start=4)
        assert table.select_for_consideration() is None
        assert table.triggered_states() == []


class TestHeapCompaction:
    """Counter-driven compaction bounds the heaps under trigger/consider churn."""

    def test_churn_keeps_heap_bounded_and_compacts(self):
        table = RuleTable()
        rules = 20
        for index in range(rules):
            table.add(make_rule(f"r{index}", priority=index % 5))
        # Heavy enable/disable-style churn: every rule triggers and is
        # considered over and over without ever surfacing most of its stale
        # entries through _peek (we never drain the queue).
        instant = 1
        for _ in range(50):
            for index in range(rules):
                table.get(f"r{index}").mark_triggered(instant)
            instant += 1
            for index in range(rules):
                table.get(f"r{index}").mark_considered(instant, executed=False)
            instant += 1
        assert table.heap_compactions > 0
        # Without compaction the immediate heap would hold ~50 * 20 entries;
        # with it, at most 2 * live + threshold survive at any point.
        from repro.rules.rule_table import _HEAP_COMPACT_THRESHOLD

        for size in table.heap_sizes().values():
            assert size <= max(_HEAP_COMPACT_THRESHOLD, 2 * rules)

    def test_churn_with_disable_enable_cycles(self):
        table = RuleTable()
        rules = 24
        for index in range(rules):
            table.add(make_rule(f"r{index}", priority=index % 3))
        instant = 1
        for round_ in range(40):
            for index in range(rules):
                table.get(f"r{index}").mark_triggered(instant)
            instant += 1
            for index in range(rules):
                name = f"r{index}"
                if (index + round_) % 2:
                    table.disable(name)
                    table.enable(name)
                else:
                    table.get(name).mark_considered(instant, executed=False)
            instant += 1
        from repro.rules.rule_table import _HEAP_COMPACT_THRESHOLD

        assert table.heap_compactions > 0
        for size in table.heap_sizes().values():
            assert size <= max(_HEAP_COMPACT_THRESHOLD, 2 * rules)
        # Selection still agrees with the brute-force reference after churn.
        for index in range(rules):
            table.get(f"r{index}").mark_triggered(instant)
        reference = sorted(
            (state for state in table if state.enabled and state.triggered),
            key=lambda state: (-state.rule.priority, state.definition_order),
        )
        assert table.select_for_consideration() is reference[0]

    def test_pending_prune_sheds_dict_capacity(self):
        # Regression: every fresh rule starts in the pending-full-check set,
        # so after the first checked block the dict is pruned from N rules to
        # ~none — but a CPython dict never shrinks in place, and the planner
        # iterates this set on every block.  The prune must rebuild the dict.
        import sys

        table = RuleTable()
        for index in range(5_000):
            table.add(make_rule(f"r{index}"))
        peak = sys.getsizeof(table._pending_full_check)
        for state in table:
            state.had_nonempty_window = True
        remaining = table.pending_full_check_states()
        assert not remaining
        assert sys.getsizeof(table._pending_full_check) < peak / 10

    def test_stale_counter_stays_in_step_with_peek_discards(self):
        table = RuleTable()
        for index in range(40):
            table.add(make_rule(f"r{index}", priority=1))
        for index in range(40):
            table.get(f"r{index}").mark_triggered(1)
        # Drain everything through selection: every discard goes through _peek.
        drained = []
        while (state := table.select_for_consideration()) is not None:
            drained.append(state.rule.name)
            state.mark_considered(2, executed=False)
        assert len(drained) == 40
        for coupling, count in table._stale_counts.items():
            assert count == sum(
                0 if table._entry_valid(entry) else 1
                for entry in table._heaps[coupling]
            )
