"""Tests for rule actions and their statements.

An action returns nothing: what it did is read from the object store and from
the Event Base rows its operations recorded.
"""

import pytest

from repro.errors import ActionError
from repro.events.clock import TransactionClock
from repro.events.event import Operation
from repro.events.event_base import EventBase
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema
from repro.rules.actions import (
    Action,
    CallableStatement,
    CreateStatement,
    DeleteStatement,
    ModifyStatement,
    NO_ACTION,
)
from repro.rules.terms import AttrRef, Const, VarRef


@pytest.fixture
def operations() -> OperationExecutor:
    schema = Schema()
    schema.define("stock", {"quantity": int, "maxquantity": int, "onorder": int})
    schema.define("stockOrder", {"item": object, "delquantity": int})
    return OperationExecutor(schema, ObjectStore(), EventBase(), TransactionClock())


def recorded_since(operations, start: int) -> list:
    """The Event Base rows recorded at positions ``start`` onwards."""
    event_base = operations.event_base
    return event_base.occurrences_between(start, len(event_base))


@pytest.fixture
def stock_object(operations):
    return operations.create(
        "stock", {"quantity": 150, "maxquantity": 100, "onorder": 0}
    ).object


class TestModifyStatement:
    def test_clamps_quantity_like_the_paper_rule(self, operations, stock_object):
        statement = ModifyStatement(
            "stock", "quantity", VarRef("S"), AttrRef("S", "maxquantity")
        )
        start = len(operations.event_base)
        assert statement.execute({"S": stock_object.oid}, operations) is None
        assert operations.store.get(stock_object.oid).get("quantity") == 100
        occurrences = recorded_since(operations, start)
        assert len(occurrences) == 1
        assert occurrences[0].event_type.operation is Operation.MODIFY

    def test_class_mismatch_rejected(self, operations, stock_object):
        statement = ModifyStatement("stockOrder", "delquantity", VarRef("S"), Const(1))
        with pytest.raises(ActionError):
            statement.execute({"S": stock_object.oid}, operations)

    def test_target_must_be_an_object(self, operations):
        statement = ModifyStatement("stock", "quantity", VarRef("S"), Const(1))
        with pytest.raises(ActionError):
            statement.execute({"S": 42}, operations)

class TestCreateStatement:
    def test_creates_object_with_evaluated_values(self, operations, stock_object):
        statement = CreateStatement(
            "stockOrder", (("item", VarRef("S")), ("delquantity", Const(0)))
        )
        start = len(operations.event_base)
        statement.execute({"S": stock_object.oid}, operations)
        created = operations.store.objects_of_class("stockOrder")
        assert len(created) == 1
        assert created[0].get("item") == stock_object.oid
        occurrences = recorded_since(operations, start)
        assert occurrences[0].event_type.operation is Operation.CREATE

    def test_bind_as_makes_the_new_oid_available(self, operations, stock_object):
        action = Action(
            (
                CreateStatement(
                    "stockOrder", (("delquantity", Const(0)),), bind_as="N"
                ),
                ModifyStatement("stockOrder", "delquantity", VarRef("N"), Const(5)),
            )
        )
        action.execute([{"S": stock_object.oid}], operations)
        created = operations.store.objects_of_class("stockOrder")[0]
        assert created.get("delquantity") == 5


class TestDeleteStatement:
    def test_deletes_bound_object(self, operations, stock_object):
        statement = DeleteStatement(VarRef("S"))
        start = len(operations.event_base)
        statement.execute({"S": stock_object.oid}, operations)
        assert not operations.store.exists(stock_object.oid)
        occurrences = recorded_since(operations, start)
        assert occurrences[0].event_type.operation is Operation.DELETE

    def test_double_delete_is_a_noop(self, operations, stock_object):
        statement = DeleteStatement(VarRef("S"))
        statement.execute({"S": stock_object.oid}, operations)
        start = len(operations.event_base)
        statement.execute({"S": stock_object.oid}, operations)
        assert recorded_since(operations, start) == []


class TestActionComposition:
    def test_action_runs_once_per_binding(self, operations):
        first = operations.create("stock", {"quantity": 150, "maxquantity": 100}).object
        second = operations.create(
            "stock", {"quantity": 130, "maxquantity": 100}
        ).object
        action = Action(
            (
                ModifyStatement(
                    "stock", "quantity", VarRef("S"), AttrRef("S", "maxquantity")
                ),
            )
        )
        start = len(operations.event_base)
        bindings = [{"S": first.oid}, {"S": second.oid}]
        assert action.execute(bindings, operations) is None
        assert operations.store.get(first.oid).get("quantity") == 100
        assert operations.store.get(second.oid).get("quantity") == 100
        assert len(recorded_since(operations, start)) == 2

    def test_no_action_produces_nothing(self, operations, stock_object):
        start = len(operations.event_base)
        NO_ACTION.execute([{"S": stock_object.oid}], operations)
        assert recorded_since(operations, start) == []

    def test_callable_statement(self, operations, stock_object):
        def body(binding, ops):
            return ops.modify(binding["S"], "onorder", 1).occurrences

        action = Action((CallableStatement(body, "flag onorder"),))
        start = len(operations.event_base)
        assert action.execute([{"S": stock_object.oid}], operations) is None
        assert operations.store.get(stock_object.oid).get("onorder") == 1
        assert len(recorded_since(operations, start)) == 1

    def test_callable_statement_returning_none(self, operations, stock_object):
        statement = CallableStatement(lambda binding, ops: None)
        start = len(operations.event_base)
        assert statement.execute({"S": stock_object.oid}, operations) is None
        assert recorded_since(operations, start) == []

    def test_str_rendering(self, operations):
        action = Action(
            (
                ModifyStatement("stock", "quantity", VarRef("S"), Const(1)),
                DeleteStatement(VarRef("S")),
            )
        )
        text = str(action)
        assert "modify(stock.quantity, S, 1)" in text
        assert "delete(S)" in text
        assert str(NO_ACTION) == "skip"
