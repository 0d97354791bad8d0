"""Tests for rule definitions, rule state and the Rule Table."""

import gc
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import optimization
from repro.core.compile import ts
from repro.core.expressions import Primitive
from repro.core.optimization import watched_event_types
from repro.core.parser import parse_expression
from repro.errors import DuplicateRuleError, RuleDefinitionError, UnknownRuleError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import ConsumptionMode, ECCoupling, Rule, RuleState
from repro.rules.rule_table import RuleTable
from repro.workloads.generator import ExpressionGenerator

from tests.rules.test_planner_equivalence import overlap_universe


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
        # A state built without a table is taken as vacuous: a reset re-arms it.
        state = RuleState(rule=make_rule("r"))
        state.mark_triggered(3)
        state.disarm()
        state.reset(transaction_start=10)
        assert not state.triggered
        assert state.rider
        assert state.trigger_window_start(10) == 10

    def test_reset_arms_only_a_vacuous_rule(self):
        table = RuleTable()
        plain = table.add(make_rule("plain", "create(stock)"))
        absence = table.add(make_rule("absence", "-create(stock)"))
        assert (plain.vacuous, absence.vacuous) == (False, True)
        assert plain.rider and absence.rider  # armed by the add
        table.reset_all(transaction_start=10)
        assert (plain.rider, absence.rider) == (False, True)


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
        # A remove + re-add of a live name defines the rule anew: it is last.
        table.remove("a")
        table.add(make_rule("a"))
        assert [rule.name for rule in table.rules()] == ["b", "c", "a"]
        assert [state.definition_order for state in table.states()] == [1, 2, 3]

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

    def test_disarm_leaves_the_rider_set_at_once(self):
        table = self.build()
        table.get("on_create").disarm()
        assert "on_create" not in table.pending_full_check_states()
        assert len(table.pending_full_check_states()) == 3

    def test_emptying_the_rider_set_sheds_its_capacity(self):
        # Every rule added bare starts as a rider, so disarming them all
        # empties a once-large set — but a CPython dict never shrinks in
        # place, and the planner iterates this set on every block.  The set
        # an emptying removal leaves is a fresh dict.
        import sys

        table = RuleTable()
        for index in range(5_000):
            table.add(make_rule(f"r{index}"))
        peak = sys.getsizeof(table.pending_full_check_states())
        for state in table:
            state.disarm()
        remaining = table.pending_full_check_states()
        assert not remaining
        assert sys.getsizeof(remaining) < peak / 10


class TestRoutingProperty:
    """The index routes exactly what a brute-force reading of V(E) routes."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_subscribers_equal_the_brute_force_reading(self, seed, data):
        universe = overlap_universe()
        generator = ExpressionGenerator(
            event_types=universe, seed=seed, instance_probability=0.3
        )
        pool = generator.expressions(8, operators=data.draw(st.integers(0, 3)))
        table = RuleTable()
        live: set[str] = set()
        for step in range(data.draw(st.integers(1, 24))):
            if live and data.draw(st.booleans()):
                name = data.draw(st.sampled_from(sorted(live)))
                table.remove(name)
                live.discard(name)
            else:
                name = f"r{step}"
                expression = data.draw(st.sampled_from(pool))
                state = table.add(
                    Rule(
                        name=name,
                        events=expression,
                        condition=TRUE_CONDITION,
                        action=NO_ACTION,
                    )
                )
                assert state.watched_types == watched_event_types(expression)
                live.add(name)
            signature = frozenset(
                data.draw(st.lists(st.sampled_from(universe), max_size=5))
            )
            expected = {
                name
                for name in live
                if any(
                    watched.matches(event_type) or event_type.matches(watched)
                    for event_type in signature
                    for watched in table.get(name).watched_types
                )
            }
            assert set(table.subscribers_for_signature(signature)) == expected


class TestPriorityQueue:
    """Selection from the sorted triggered set under re-trigger/disable/remove."""

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
        # must not queue the rule again.
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
        # The old rule's queue entry must not survive a remove + re-add under
        # the same name.
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

    def test_reset_all_empties_the_queues(self):
        table = RuleTable()
        table.add(make_rule("a", priority=2))
        table.get("a").mark_triggered(1)
        table.reset_all(transaction_start=4)
        assert table.select_for_consideration() is None
        assert table.triggered_states() == []


def names(states) -> list[str]:
    return [state.rule.name for state in states]


class TestTableAgainstBruteForce:
    """After every step of a random life, the table's structures equal a
    brute-force reading of its states."""

    #: "trigger" twice: a queue needs several triggered rules to be wrong.
    STEPS = (
        "add",
        "remove",
        "readd",
        "trigger",
        "trigger",
        "consider",
        "disable",
        "enable",
        "reset_all",
        "disarm",
    )
    #: Which rules a step may act on.
    ELIGIBLE = {
        "remove": lambda state: True,
        "trigger": lambda state: state.enabled and not state.triggered,
        "disable": lambda state: True,
        "enable": lambda state: True,
        "disarm": lambda state: state.rider,
    }

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_step_agrees_with_a_brute_force_reading(self, data):
        table = RuleTable()
        used: list[str] = []

        def define(name: str) -> None:
            events = data.draw(st.sampled_from(("create(stock)", "-create(a)")))
            table.add(
                make_rule(
                    name,
                    events,
                    priority=data.draw(st.integers(0, 3)),
                    coupling=data.draw(st.sampled_from(list(ECCoupling))),
                )
            )

        for index in range(data.draw(st.integers(2, 8))):
            used.append(f"r{index}")
            define(f"r{index}")
        self.assert_agrees(table)
        steps = data.draw(
            st.lists(st.sampled_from(self.STEPS), min_size=8, max_size=40)
        )
        for instant, step in enumerate(steps, start=1):
            if step == "add":
                used.append(f"r{len(used)}")
                define(used[-1])
            elif step == "readd":
                name = data.draw(st.sampled_from(used))
                if name in table:
                    table.remove(name)
                define(name)
            elif step == "reset_all":
                table.reset_all(transaction_start=instant)
            elif step == "consider":
                # The engine's path: consider the rule the queue selects.
                state = table.select_for_consideration()
                if state is not None:
                    state.mark_considered(instant, executed=False)
                    assert state.rider == state.vacuous
            else:
                eligible = [
                    state.rule.name for state in table if self.ELIGIBLE[step](state)
                ]
                if not eligible:
                    continue
                name = data.draw(st.sampled_from(eligible))
                if step == "remove":
                    table.remove(name)
                elif step == "trigger":
                    table.get(name).mark_triggered(instant)
                elif step == "disable":
                    table.disable(name)
                elif step == "enable":
                    table.enable(name)
                else:
                    table.get(name).disarm()
            self.assert_agrees(table)

    @staticmethod
    def assert_agrees(table: RuleTable) -> None:
        triggered = sorted(
            (state for state in table if state.enabled and state.triggered),
            key=lambda state: (-state.rule.priority, state.definition_order),
        )
        assert names(table.triggered_states()) == names(triggered)
        assert table.select_for_consideration() is (triggered[0] if triggered else None)
        for coupling in ECCoupling:
            mine = [state for state in triggered if state.rule.coupling is coupling]
            assert names(table.triggered_states(coupling)) == names(mine)
            assert table.select_for_consideration(coupling) is (
                mine[0] if mine else None
            )
            # Exactly one entry per triggered rule, nothing stale.
            assert len(table._queues[coupling]) == len(mine)
        riders = {
            state.rule.name: state
            for state in table
            if state.enabled and not state.triggered and state.rider
        }
        pending = table.pending_full_check_states()
        assert pending.keys() == riders.keys()
        assert all(pending[name] is state for name, state in riders.items())
        assert table.untriggered_count() == sum(
            state.enabled and not state.triggered for state in table
        )


def test_a_rule_costs_its_state_and_a_tuple_of_watched_types():
    """What ``RuleTable.add`` retains per rule: the state, its index entries
    and a tuple of watched types — no per-rule matching object (one cost
    about 600 B more on this shape)."""
    rules = [
        make_rule(f"r{index}", f"create(c{index}) , modify(c{index}.x)")
        for index in range(2_000)
    ]
    table = RuleTable()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for rule in rules:
            table.add(rule)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(type(state.watched_types) is tuple for state in table)
    assert (after - before) / len(rules) <= 1_750, (after - before) / len(rules)


def renamed(expression, mapping):
    """``expression`` with every primitive type replaced through ``mapping``."""
    if isinstance(expression, Primitive):
        return Primitive(mapping[expression.event_type])
    children = [renamed(child, mapping) for child in expression.children()]
    return type(expression)(*children)


class TestShapeTable:
    """``V(E)`` and vacuity are derived once per expression shape."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**16), operators=st.integers(0, 4), data=st.data())
    def test_per_shape_facts_equal_the_per_rule_derivation(self, seed, operators, data):
        """A rule whose shape the table already holds gets the watched types
        and the vacuity a derivation of its own expression gives: the
        positive ``V(E)`` and the reference ``ts(E, {}, 1) > 0``."""
        universe = overlap_universe()
        generator = ExpressionGenerator(
            event_types=universe, seed=seed, instance_probability=0.3
        )
        table = RuleTable()
        for index in range(4):
            expression = generator.expression(operators)
            own = sorted(expression.event_types())
            image = data.draw(st.permutations(universe))[: len(own)]
            for name, events in (
                (f"first{index}", expression),
                (f"renamed{index}", renamed(expression, dict(zip(own, image)))),
            ):
                state = table.add(
                    Rule(
                        name=name,
                        events=events,
                        condition=TRUE_CONDITION,
                        action=NO_ACTION,
                    )
                )
                assert state.watched_types == watched_event_types(events)
                assert state.vacuous == (ts(events, EventBase(), 1) > 0)
            first, second = table.get(f"first{index}"), table.get(f"renamed{index}")
            assert first.shape[0] is second.shape[0]
        assert len(table._shapes) <= 4

    def test_k_shapes_derive_v_of_e_k_times(self, monkeypatch):
        """2 000 rules of 4 shapes, defined through the database: ``V(E)`` is
        derived (a top-level ``derive_variations``) once per shape."""
        derivations = [0]
        depth = [0]
        derive = optimization.derive_variations

        def spy(*args, **kwargs):
            derivations[0] += depth[0] == 0
            depth[0] += 1
            try:
                return derive(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(optimization, "derive_variations", spy)
        shapes = (
            "create(c{i})",
            "create(c{i}) , modify(c{i}.x)",
            "(create(c{i}) , delete(d{i})) + -modify(c{i}.x)",
            "-=modify(c{i}.x) < delete(d{i})",
        )
        db = ChimeraDatabase()
        try:
            for index in range(2_000):
                events = shapes[index % len(shapes)].format(i=index)
                db.define_rule(f"define r{index} events {events} end")
            assert derivations == [len(shapes)]
            for index in range(8):
                state = db.rule_state(f"r{index}")
                assert state.watched_types == watched_event_types(state.rule.events)
        finally:
            db.close()

    def test_the_first_block_checks_only_routed_rules_and_vacuous_riders(self):
        """N rules defined over an empty log are routed only; the one vacuous
        rule rides along with the first block whatever its types."""
        db = ChimeraDatabase()
        try:
            for index in range(50):
                db.define_rule(f"define w{index} events create(c{index}) end")
            db.define_rule("define absent events -create(z) end")
            assert len(db.rule_table.pending_full_check_states()) == 1
            create_c0 = EventType(Operation.CREATE, "c0")
            db.engine.run_stream_block([EventOccurrence(1, create_c0, "o1", 1)])
            stats = db.trigger_statistics()
            assert stats["rules_routed"] == 1
            assert stats["rules_checked"] == stats["rules_routed"] + 1
            assert db.rule_state("w0").times_triggered == 1
            assert db.rule_state("absent").times_triggered == 1
        finally:
            db.close()
