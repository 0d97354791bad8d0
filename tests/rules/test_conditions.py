"""Tests for rule conditions: class ranges, event formulas and comparisons."""

import pytest

from repro.core.parser import parse_expression
from repro.errors import ConditionError
from repro.events.clock import TransactionClock
from repro.events.event_base import EventBase
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema
from repro.rules.conditions import (
    AtFormula,
    CallableAtom,
    ClassRange,
    Comparison,
    Condition,
    ConditionContext,
    OccurredFormula,
    TRUE_CONDITION,
)
from repro.rules.terms import AttrRef, Const


@pytest.fixture
def environment():
    """A small populated store with its Event Base."""
    schema = Schema()
    schema.define("stock", {"quantity": int, "maxquantity": int})
    schema.define("order", {"amount": int})
    schema.define("notFilledOrder", {"amount": int}, superclass="order")
    store = ObjectStore()
    event_base = EventBase()
    operations = OperationExecutor(schema, store, event_base, TransactionClock())
    high = operations.create("stock", {"quantity": 150, "maxquantity": 100}).object
    low = operations.create("stock", {"quantity": 10, "maxquantity": 100}).object
    operations.modify(high.oid, "quantity", 160)
    operations.create("notFilledOrder", {"amount": 3})
    context = ConditionContext(
        schema=schema,
        store=store,
        window=event_base.full_view(),
        now=event_base.latest_timestamp(),
    )
    return context, high, low


class TestClassRange:
    def test_binds_every_member(self, environment):
        context, high, low = environment
        condition = Condition((ClassRange("S", "stock"),))
        bindings = condition.evaluate(context)
        assert {binding["S"] for binding in bindings} == {high.oid, low.oid}

    def test_includes_subclass_members(self, environment):
        context, *_ = environment
        condition = Condition((ClassRange("O", "order"),))
        assert len(condition.evaluate(context)) == 1

    def test_prebound_variable_is_filtered_not_expanded(self, environment):
        context, high, low = environment
        condition = Condition(
            (
                OccurredFormula(parse_expression("modify(stock.quantity)"), "S"),
                ClassRange("S", "stock"),
            )
        )
        bindings = condition.evaluate(context)
        assert [binding["S"] for binding in bindings] == [high.oid]


class TestOccurredFormula:
    def test_binds_affected_objects(self, environment):
        context, high, low = environment
        condition = Condition(
            (
                OccurredFormula(
                    parse_expression("create(stock) += modify(stock.quantity)"), "S"
                ),
            )
        )
        bindings = condition.evaluate(context)
        assert [binding["S"] for binding in bindings] == [high.oid]

    def test_rejects_set_oriented_expression(self):
        with pytest.raises(ConditionError):
            OccurredFormula(parse_expression("create(stock) + delete(stock)"), "S")

    def test_filters_already_bound_variable(self, environment):
        context, high, low = environment
        condition = Condition(
            (
                ClassRange("S", "stock"),
                OccurredFormula(parse_expression("modify(stock.quantity)"), "S"),
            )
        )
        bindings = condition.evaluate(context)
        assert [binding["S"] for binding in bindings] == [high.oid]

    def test_holds_keyword_is_supported(self, environment):
        context, high, low = environment
        formula = OccurredFormula(
            parse_expression("create(stock)"), "S", keyword="holds"
        )
        assert "holds(" in str(formula)
        assert len(Condition((formula,)).evaluate(context)) == 2


class TestAtFormula:
    def test_binds_object_and_instants(self, environment):
        context, high, low = environment
        condition = Condition(
            (
                AtFormula(
                    parse_expression("create(stock) <= modify(stock.quantity)"),
                    "S",
                    "T",
                ),
            )
        )
        bindings = condition.evaluate(context)
        assert len(bindings) == 1
        assert bindings[0]["S"] == high.oid
        assert bindings[0]["T"] == 3  # the modify occurrence's time stamp

    def test_multiple_instants_produce_multiple_bindings(self, environment):
        context, high, low = environment
        condition = Condition(
            (AtFormula(parse_expression("modify(stock.quantity)"), "S", "T"),)
        )
        bindings = condition.evaluate(context)
        assert len(bindings) == 1

    def test_rejects_set_oriented_expression(self):
        with pytest.raises(ConditionError):
            AtFormula(parse_expression("-create(stock)"), "S", "T")

    def test_time_variable_usable_in_comparisons(self, environment):
        context, high, low = environment
        condition = Condition(
            (
                AtFormula(parse_expression("modify(stock.quantity)"), "S", "T"),
                Comparison(Const(2), "<", ConstLike("T")),
            )
        )
        bindings = condition.evaluate(context)
        assert bindings and all(binding["T"] > 2 for binding in bindings)


def ConstLike(name):
    """Helper: a VarRef without importing it at module top (readability)."""
    from repro.rules.terms import VarRef

    return VarRef(name)


class TestComparison:
    def test_filters_bindings(self, environment):
        context, high, low = environment
        condition = Condition(
            (
                ClassRange("S", "stock"),
                Comparison(AttrRef("S", "quantity"), ">", AttrRef("S", "maxquantity")),
            )
        )
        bindings = condition.evaluate(context)
        assert [binding["S"] for binding in bindings] == [high.oid]

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConditionError):
            Comparison(Const(1), "~", Const(2))

    def test_none_values_drop_the_binding(self, environment):
        context, *_ = environment
        condition = Condition(
            (
                ClassRange("S", "stock"),
                Comparison(AttrRef("S", "missing"), ">", Const(1)),
            )
        )
        assert condition.evaluate(context) == []

    def test_incomparable_values_raise(self, environment):
        context, *_ = environment
        condition = Condition(
            (
                ClassRange("S", "stock"),
                Comparison(AttrRef("S", "quantity"), ">", Const("x")),
            )
        )
        with pytest.raises(ConditionError):
            condition.evaluate(context)

    def test_equality_operators(self, environment):
        context, high, low = environment
        for operator_symbol in ("=", "=="):
            condition = Condition(
                (
                    ClassRange("S", "stock"),
                    Comparison(AttrRef("S", "quantity"), operator_symbol, Const(10)),
                )
            )
            assert [b["S"] for b in condition.evaluate(context)] == [low.oid]


class TestConditionComposition:
    def test_true_condition_yields_one_empty_binding(self, environment):
        context, *_ = environment
        assert TRUE_CONDITION.evaluate(context) == [{}]
        assert TRUE_CONDITION.is_satisfied(context)

    def test_empty_result_short_circuits(self, environment):
        context, *_ = environment
        condition = Condition(
            (
                ClassRange("S", "stock"),
                Comparison(AttrRef("S", "quantity"), ">", Const(10_000)),
                ClassRange("O", "order"),
            )
        )
        assert condition.evaluate(context) == []

    def test_cross_product_of_two_ranges(self, environment):
        context, *_ = environment
        condition = Condition((ClassRange("S", "stock"), ClassRange("O", "order")))
        assert len(condition.evaluate(context)) == 2

    def test_callable_atom_as_filter_and_expander(self, environment):
        context, high, low = environment
        keep_high = CallableAtom(
            lambda binding, ctx: ctx.store.get(binding["S"]).get("quantity") > 100,
            description="quantity > 100",
        )
        condition = Condition((ClassRange("S", "stock"), keep_high))
        assert [b["S"] for b in condition.evaluate(context)] == [high.oid]

        expander = CallableAtom(lambda binding, ctx: [{**binding, "flag": True}])
        condition = Condition((ClassRange("S", "stock"), expander))
        assert all(binding["flag"] for binding in condition.evaluate(context))

    def test_variables_and_event_expressions_are_reported(self):
        condition = Condition(
            (
                ClassRange("S", "stock"),
                OccurredFormula(parse_expression("create(stock)"), "S"),
                Comparison(AttrRef("S", "quantity"), ">", Const(1)),
            )
        )
        assert condition.variables() == {"S"}
        assert len(condition.event_expressions()) == 1

    def test_str_rendering(self):
        condition = Condition(
            (
                ClassRange("S", "stock"),
                Comparison(AttrRef("S", "quantity"), ">", Const(1)),
            )
        )
        assert "stock(S)" in str(condition)
        assert str(TRUE_CONDITION) == "true"
