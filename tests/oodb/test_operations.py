"""Tests for data-manipulation operations and the events they emit."""

import pytest

from repro.errors import SchemaError
from repro.events.clock import TransactionClock
from repro.events.event import Operation
from repro.events.event_base import EventBase
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema


@pytest.fixture
def executor() -> OperationExecutor:
    schema = Schema()
    schema.define("stock", {"quantity": int, "maxquantity": int})
    schema.define("order", {"amount": int})
    schema.define("notFilledOrder", {"amount": int, "reason": str}, superclass="order")
    return OperationExecutor(schema, ObjectStore(), EventBase(), TransactionClock())


class TestCreate:
    def test_creates_object_and_event(self, executor):
        result = executor.create("stock", {"quantity": 5})
        assert result.object.get("quantity") == 5
        assert len(result.occurrences) == 1
        occurrence = result.occurrences[0]
        assert occurrence.event_type.operation is Operation.CREATE
        assert occurrence.oid == result.object.oid
        assert occurrence.timestamp == result.object.created_at

    def test_event_timestamps_strictly_increase(self, executor):
        first = executor.create("stock")
        second = executor.create("stock")
        assert second.occurrences[0].timestamp > first.occurrences[0].timestamp

    def test_unknown_attribute_rejected(self, executor):
        with pytest.raises(Exception):
            executor.create("stock", {"colour": "red"})

    def test_payload_carries_initial_values(self, executor):
        result = executor.create("stock", {"quantity": 7})
        assert result.occurrences[0].payload["values"]["quantity"] == 7


class TestModify:
    def test_modify_updates_value_and_emits_attribute_event(self, executor):
        obj = executor.create("stock", {"quantity": 5}).object
        result = executor.modify(obj.oid, "quantity", 9)
        assert executor.store.get(obj.oid).get("quantity") == 9
        occurrence = result.occurrences[0]
        assert occurrence.event_type.operation is Operation.MODIFY
        assert occurrence.event_type.attribute == "quantity"
        assert occurrence.payload == {"old_value": 5, "new_value": 9}

    def test_modify_validates_attribute(self, executor):
        obj = executor.create("stock").object
        with pytest.raises(Exception):
            executor.modify(obj.oid, "colour", "red")

    def test_modify_validates_type(self, executor):
        obj = executor.create("stock").object
        with pytest.raises(SchemaError):
            executor.modify(obj.oid, "quantity", "lots")


class TestDelete:
    def test_delete_emits_event_and_removes_object(self, executor):
        obj = executor.create("stock", {"quantity": 3}).object
        result = executor.delete(obj.oid)
        assert not executor.store.exists(obj.oid)
        assert result.occurrences[0].event_type.operation is Operation.DELETE
        assert result.occurrences[0].payload["values"]["quantity"] == 3


class TestHierarchyOperations:
    def test_specialize(self, executor):
        obj = executor.create("order", {"amount": 2}).object
        result = executor.specialize(obj.oid, "notFilledOrder")
        assert executor.store.get(obj.oid).class_name == "notFilledOrder"
        assert result.occurrences[0].event_type.operation is Operation.SPECIALIZE
        assert result.occurrences[0].event_type.class_name == "notFilledOrder"

    def test_specialize_requires_subclass(self, executor):
        obj = executor.create("order").object
        with pytest.raises(SchemaError):
            executor.specialize(obj.oid, "stock")

    def test_generalize(self, executor):
        obj = executor.create("notFilledOrder", {"amount": 2}).object
        result = executor.generalize(obj.oid, "order")
        assert executor.store.get(obj.oid).class_name == "order"
        assert result.occurrences[0].event_type.operation is Operation.GENERALIZE

    def test_generalize_requires_ancestor(self, executor):
        obj = executor.create("order").object
        with pytest.raises(SchemaError):
            executor.generalize(obj.oid, "stock")


class TestSelect:
    def test_select_returns_matching_objects(self, executor):
        executor.create("stock", {"quantity": 5})
        executor.create("stock", {"quantity": 50})
        result = executor.select("stock", lambda obj: obj.get("quantity") > 10)
        assert len(result.objects) == 1

    def test_select_includes_subclasses(self, executor):
        executor.create("order", {"amount": 1})
        executor.create("notFilledOrder", {"amount": 2})
        result = executor.select("order")
        assert len(result.objects) == 2

    def test_select_emits_one_event_per_returned_object(self, executor):
        executor.create("stock", {"quantity": 5})
        executor.create("stock", {"quantity": 6})
        result = executor.select("stock")
        assert len(result.occurrences) == 2
        assert all(
            occurrence.event_type.operation is Operation.SELECT
            for occurrence in result.occurrences
        )

    def test_select_events_can_be_disabled(self):
        schema = Schema()
        schema.define("stock", {"quantity": int})
        executor = OperationExecutor(
            schema,
            ObjectStore(),
            EventBase(),
            TransactionClock(),
            emit_select_events=False,
        )
        executor.create("stock")
        assert executor.select("stock").occurrences == ()


class TestOperationResult:
    def test_single_object_accessor(self, executor):
        result = executor.create("stock")
        assert result.object is result.objects[0]
        assert result.oids == (result.object.oid,)

    def test_single_object_accessor_rejects_multiple(self, executor):
        executor.create("stock")
        executor.create("stock")
        result = executor.select("stock")
        with pytest.raises(Exception):
            _ = result.object
