"""Tests for the rule-set static analysis (triggering graph, termination)."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.compile import ts
from repro.core.optimization import watched_event_types
from repro.core.parser import parse_expression
from repro.errors import NonTerminationError
from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.events.event import EventType, Operation
from repro.rules.actions import (
    Action,
    CallableStatement,
    CreateStatement,
    DeleteStatement,
    ModifyStatement,
    NO_ACTION,
)
from repro.rules.analysis import (
    action_event_types,
    analyze_rules,
    can_trigger,
    positive_trigger_types,
)
from repro.rules.conditions import TRUE_CONDITION, ClassRange, Condition
from repro.rules.language import parse_rule
from repro.rules.rule import Rule
from repro.rules.terms import Const, VarRef
from repro.workloads.generator import ExpressionGenerator
from repro.workloads.stock import CHECK_STOCK_QTY_RULE, REORDER_RULE, SHELF_REFILL_RULE


def rule(name: str, events: str, action: Action = NO_ACTION) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(events),
        condition=TRUE_CONDITION,
        action=action,
    )


MODIFY_QTY_ACTION = Action(
    (ModifyStatement("stock", "quantity", VarRef("S"), Const(0)),)
)
CREATE_ORDER_ACTION = Action(
    (CreateStatement("stockOrder", (("delquantity", Const(0)),)),)
)


class TestActionEventTypes:
    def test_modify_and_create_statements(self):
        generated = action_event_types(
            Action(
                (
                    ModifyStatement("stock", "quantity", VarRef("S"), Const(0)),
                    CreateStatement("stockOrder", ()),
                )
            )
        )
        assert EventType(Operation.MODIFY, "stock", "quantity") in generated
        assert EventType(Operation.CREATE, "stockOrder") in generated

    def test_delete_statement_is_class_agnostic(self):
        generated = action_event_types(Action((DeleteStatement(VarRef("S")),)))
        assert any(et.operation is Operation.DELETE for et in generated)

    def test_callable_statement_generates_nothing_statically(self):
        generated = action_event_types(
            Action((CallableStatement(lambda binding, ops: None),))
        )
        assert generated == set()

    def test_empty_action(self):
        assert action_event_types(NO_ACTION) == set()


class TestPositiveTriggerTypes:
    def test_plain_events(self):
        r = rule("r", "create(stock) , modify(stock.quantity)")
        assert positive_trigger_types(r) == {
            EventType(Operation.CREATE, "stock"),
            EventType(Operation.MODIFY, "stock", "quantity"),
        }

    def test_negated_events_are_excluded(self):
        r = rule("r", "create(stock) + -create(order)")
        assert positive_trigger_types(r) == {EventType(Operation.CREATE, "stock")}


class TestCanTrigger:
    def test_action_feeding_another_rule(self):
        source = rule("source", "create(stock)", CREATE_ORDER_ACTION)
        target = rule("target", "create(stockOrder)")
        assert can_trigger(source, target)

    def test_unrelated_rules_do_not_trigger(self):
        source = rule("source", "create(stock)", MODIFY_QTY_ACTION)
        target = rule("target", "create(stockOrder)")
        assert not can_trigger(source, target)

    def test_rule_with_no_action_triggers_nothing(self):
        source = rule("source", "create(stock)")
        target = rule("target", "create(stock)")
        assert not can_trigger(source, target)

    def test_self_triggering_rule(self):
        looping = rule("loop", "modify(stock.quantity)", MODIFY_QTY_ACTION)
        assert can_trigger(looping, looping)

    def test_vacuously_activatable_target_is_triggered_by_anything(self):
        source = rule("source", "create(stock)", MODIFY_QTY_ACTION)
        watchdog = rule("watchdog", "-create(order)")
        assert can_trigger(source, watchdog)

    def test_class_level_modify_matches_attribute_level_subscription(self):
        source = rule("source", "create(stock)", MODIFY_QTY_ACTION)
        target = rule("target", "modify(stock)")
        assert can_trigger(source, target)


class TestTriggeringGraph:
    def build(self) -> list[Rule]:
        return [
            rule("creator", "create(stock)", CREATE_ORDER_ACTION),
            rule("acknowledger", "create(stockOrder)", MODIFY_QTY_ACTION),
            rule("monitor", "modify(stock.quantity)"),
        ]

    def test_edges(self):
        graph = analyze_rules(self.build())
        assert graph.successors("creator") == {"acknowledger"}
        assert graph.successors("acknowledger") == {"monitor"}
        assert graph.successors("monitor") == set()
        assert graph.predecessors("monitor") == {"acknowledger"}

    def test_edge_via_event_types(self):
        graph = analyze_rules(self.build())
        edge = next(edge for edge in graph.edges if edge.source == "creator")
        assert any(event_type.class_name == "stockOrder" for event_type in edge.via)

    def test_acyclic_graph_terminates(self):
        graph = analyze_rules(self.build())
        assert graph.is_acyclic()
        assert graph.guaranteed_to_terminate()
        assert graph.cycles() == []

    def test_stratification(self):
        graph = analyze_rules(self.build())
        strata = graph.stratification()
        assert strata == [["creator"], ["acknowledger"], ["monitor"]]

    def test_reachability(self):
        graph = analyze_rules(self.build())
        assert graph.reachable_from("creator") == {"acknowledger", "monitor"}
        assert graph.reachable_from("monitor") == set()

    def test_cycle_detection(self):
        ping = rule("ping", "modify(stock.quantity)", MODIFY_QTY_ACTION)
        graph = analyze_rules([ping])
        assert not graph.is_acyclic()
        assert graph.cycles() == [["ping"]]
        assert graph.stratification() is None

    def test_two_rule_cycle(self):
        a = rule(
            "a",
            "create(stockOrder)",
            Action((ModifyStatement("stock", "quantity", VarRef("S"), Const(0)),)),
        )
        b = rule("b", "modify(stock.quantity)", CREATE_ORDER_ACTION)
        graph = analyze_rules([a, b])
        assert not graph.is_acyclic()
        assert ["a", "b"] in graph.cycles()

    def test_opaque_actions_flagged(self):
        opaque = Rule(
            name="opaque",
            events=parse_expression("create(stock)"),
            condition=TRUE_CONDITION,
            action=Action((CallableStatement(lambda binding, ops: None),)),
        )
        graph = analyze_rules([opaque])
        assert graph.has_opaque_actions
        assert not graph.guaranteed_to_terminate()

    def test_networkx_export(self):
        graph = analyze_rules(self.build())
        exported = graph.to_networkx()
        assert set(exported.nodes) == {"creator", "acknowledger", "monitor"}
        assert exported.has_edge("creator", "acknowledger")

    def test_describe_mentions_cycles_or_termination(self):
        acyclic = analyze_rules(self.build())
        assert "terminates" in acyclic.describe()
        looping = analyze_rules(
            [rule("loop", "modify(stock.quantity)", MODIFY_QTY_ACTION)]
        )
        assert "cycles:" in looping.describe()


class TestPaperRuleSet:
    def test_stock_rule_set_triggering_graph(self):
        rules = [
            parse_rule(text)
            for text in (CHECK_STOCK_QTY_RULE, REORDER_RULE, SHELF_REFILL_RULE)
        ]
        graph = analyze_rules(rules)
        # checkStockQty clamps stock.quantity, which is exactly what
        # reorderStock's instance precedence waits for.
        assert "reorderStock" in graph.successors("checkStockQty")
        # shelfRefill rewrites show.quantity, its own triggering event: the
        # static analysis conservatively reports a self-loop (at run time the
        # condition P.quantity < 5 makes it quiesce after one execution).
        assert ["shelfRefill"] in graph.cycles()
        assert not graph.guaranteed_to_terminate()
        # reorderStock only creates stockOrder objects and touches
        # stock.onorder; neither can activate the other rules.
        assert graph.successors("reorderStock") == set()


#: Active over a log that holds none of its types: the negated branch of the
#: disjunction is vacuously active, though ``create(b)`` is a positive V(E)
#: entry.
VACUOUS_DISJUNCTION = "define r2 events -create(a) , create(b) action create(e) end"

#: One source per statement kind, and one without a statement.
SOURCES = [
    rule("modifier", "create(stock)", MODIFY_QTY_ACTION),
    rule("creator", "create(stock)", CREATE_ORDER_ACTION),
    rule("deleter", "create(stock)", Action((DeleteStatement(VarRef("S")),))),
    rule(
        "opaque",
        "create(stock)",
        Action((CallableStatement(lambda binding, ops: None),)),
    ),
]
SILENT = rule("silent", "create(stock)")


def empty_log_sign(expression, instant: int) -> bool:
    return ts(expression, EventBase(), instant) > 0


class TestVacuousTargets:
    """A target active over the empty log is reached by any statement."""

    def test_a_vacuously_active_disjunction_never_terminates(self):
        r2 = parse_rule(VACUOUS_DISJUNCTION)
        graph = analyze_rules([r2])
        assert graph.cycles() == [["r2"]]
        assert not graph.guaranteed_to_terminate()
        # The engine agrees: any transaction that creates an object loops.
        db = ChimeraDatabase(max_rule_executions=25)
        try:
            for name in ("a", "b", "e", "thing"):
                db.define_class(name)
            db.define_rule(r2)
            with pytest.raises(NonTerminationError):
                with db.transaction() as tx:
                    tx.create("thing")
        finally:
            db.close()

    def test_the_empty_log_finds_every_vacuous_expression_of_a_pool(self):
        """392 of 2 000 generated expressions are vacuously active; "no
        positive V(E) entry", a coarser test, finds 68 of them and no
        other."""
        generator = ExpressionGenerator(seed=3, instance_probability=0.3)
        expressions = generator.expressions(2_000, operators=3)
        vacuous = [e for e in expressions if empty_log_sign(e, 1)]
        unwatched = [e for e in expressions if not watched_event_types(e)]
        assert len(vacuous) == 392
        assert len(unwatched) == 68
        assert all(empty_log_sign(e, 1) for e in unwatched)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        operators=st.integers(0, 4),
        instance_probability=st.sampled_from((0.0, 0.3, 0.7)),
    )
    def test_vacuity_is_instant_independent_and_opens_every_edge(
        self, seed, operators, instance_probability
    ):
        generator = ExpressionGenerator(
            seed=seed, instance_probability=instance_probability
        )
        expression = generator.expression(operators)
        vacuous = empty_log_sign(expression, 1)
        assert all(
            empty_log_sign(expression, instant) == vacuous for instant in (2, 5, 9)
        )
        target = Rule(
            name="target",
            events=expression,
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
        if vacuous:
            assert all(can_trigger(source, target) for source in SOURCES)
        assert not can_trigger(SILENT, target)


#: Three classes with one attribute each: every event type the property's
#: actions can generate, and every type its expressions watch.
CLASSES = ("a", "b", "c")
UNIVERSE = [
    EventType(operation, name, attribute)
    for name in CLASSES
    for operation, attribute in (
        (Operation.CREATE, None),
        (Operation.MODIFY, "x"),
        (Operation.DELETE, None),
    )
]

#: ``(expression, statement kind, class)`` of one generated rule.
RULE_SPEC = st.tuples(
    st.builds(
        lambda seed, operators: ExpressionGenerator(
            event_types=UNIVERSE, seed=seed, instance_probability=0.3
        ).expression(operators),
        st.integers(0, 2**16),
        st.integers(0, 3),
    ),
    st.sampled_from(("create", "modify", "delete")),
    st.sampled_from(CLASSES),
)


def spec_rule(index: int, expression, kind: str, class_name: str) -> Rule:
    """A rule whose action creates an object of ``class_name``, or modifies
    or deletes every live one."""
    if kind == "create":
        condition = TRUE_CONDITION
        statement = CreateStatement(class_name, (("x", Const(0)),))
    else:
        condition = Condition((ClassRange("S", class_name),))
        if kind == "modify":
            statement = ModifyStatement(class_name, "x", VarRef("S"), Const(1))
        else:
            statement = DeleteStatement(VarRef("S"))
    return Rule(
        name=f"r{index}",
        events=expression,
        condition=condition,
        action=Action((statement,)),
    )


class TestTerminationVerdict:
    """Whenever the analysis guarantees termination, the engine terminates."""

    @settings(max_examples=150, deadline=None)
    @given(specs=st.lists(RULE_SPEC, min_size=3, max_size=3))
    @example(
        specs=[
            # VACUOUS_DISJUNCTION over this universe: its own create(c)
            # re-opens its window, so it never quiesces.
            (parse_expression("-create(a) , create(b)"), "create", "c"),
            (parse_expression("create(a)"), "modify", "b"),
            (parse_expression("modify(b.x)"), "delete", "a"),
        ]
    )
    def test_a_guaranteed_rule_set_never_exhausts_the_budget(self, specs):
        rules = [spec_rule(index, *spec) for index, spec in enumerate(specs)]
        if not analyze_rules(rules).guaranteed_to_terminate():
            return
        db = ChimeraDatabase(max_rule_executions=10 * len(rules))
        try:
            for name in CLASSES:
                db.define_class(name, {"x": int})
            for defined in rules:
                db.define_rule(defined)
            # Create, modify and delete one object of every class.
            with db.transaction() as tx:
                oids = [tx.create(name, {"x": 0}).oid for name in CLASSES]
            with db.transaction() as tx:
                for oid in oids:
                    if db.store.exists(oid):
                        tx.modify(oid, "x", 2)
            with db.transaction() as tx:
                for oid in oids:
                    if db.store.exists(oid):
                        tx.delete(oid)
        finally:
            db.close()
