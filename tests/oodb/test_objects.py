"""Tests for OIDs, objects and the object store."""

import pytest

from repro.errors import TransactionError, UnknownObjectError
from repro.oodb.objects import OID, ChimeraObject, ObjectStore


class TestOID:
    def test_str(self):
        assert str(OID("stock", 3)) == "stock#3"

    def test_ordering_and_equality(self):
        assert OID("stock", 1) < OID("stock", 2)
        assert OID("stock", 1) == OID("stock", 1)
        assert len({OID("stock", 1), OID("stock", 1)}) == 1


class TestChimeraObject:
    def test_get_with_default(self):
        obj = ChimeraObject(OID("stock", 1), "stock", {"quantity": 4})
        assert obj.get("quantity") == 4
        assert obj.get("missing", 0) == 0
        assert obj["quantity"] == 4

    def test_snapshot_is_a_copy(self):
        obj = ChimeraObject(OID("stock", 1), "stock", {"quantity": 4})
        snapshot = obj.snapshot()
        snapshot["quantity"] = 99
        assert obj.get("quantity") == 4


class TestObjectStore:
    def test_new_oid_serials_are_per_class(self):
        store = ObjectStore()
        assert store.new_oid("stock").serial == 1
        assert store.new_oid("stock").serial == 2
        assert store.new_oid("show").serial == 1

    def test_insert_and_get(self):
        store = ObjectStore()
        obj = store.insert("stock", {"quantity": 5}, timestamp=1)
        assert store.get(obj.oid).get("quantity") == 5
        assert store.exists(obj.oid)

    def test_get_unknown_raises(self):
        store = ObjectStore()
        with pytest.raises(UnknownObjectError):
            store.get(OID("stock", 99))

    def test_set_attribute_returns_old_and_new(self):
        store = ObjectStore()
        obj = store.insert("stock", {"quantity": 5}, timestamp=1)
        old, new = store.set_attribute(obj.oid, "quantity", 9, timestamp=2)
        assert (old, new) == (5, 9)
        assert store.get(obj.oid).modified_at == 2

    def test_delete_removes_from_extent(self):
        store = ObjectStore()
        obj = store.insert("stock", {}, timestamp=1)
        store.delete(obj.oid, timestamp=2)
        assert not store.exists(obj.oid)
        assert store.count("stock") == 0
        with pytest.raises(UnknownObjectError):
            store.get(obj.oid)

    def test_deleted_object_still_reachable_when_requested(self):
        store = ObjectStore()
        obj = store.insert("stock", {}, timestamp=1)
        store.delete(obj.oid, timestamp=2)
        assert store.get(obj.oid, include_deleted=True).deleted

    def test_reclassify_moves_extents(self):
        store = ObjectStore()
        obj = store.insert("order", {}, timestamp=1)
        store.reclassify(obj.oid, "notFilledOrder", timestamp=2)
        assert store.count("order") == 0
        assert store.count("notFilledOrder") == 1
        assert store.get(obj.oid).class_name == "notFilledOrder"

    def test_objects_of_class_with_subclasses(self):
        store = ObjectStore()
        store.insert("order", {}, timestamp=1)
        store.insert("notFilledOrder", {}, timestamp=2)
        assert len(store.objects_of_class("order")) == 1
        assert len(store.objects_of_class("order", {"notFilledOrder"})) == 2

    def test_objects_of_class_is_sorted(self):
        store = ObjectStore()
        second = store.insert("stock", {}, timestamp=1)
        first = store.insert("show", {}, timestamp=1)
        ordered = store.objects_of_class("stock", {"show"})
        assert [obj.oid for obj in ordered] == sorted([second.oid, first.oid])

    def test_select_with_predicate(self):
        store = ObjectStore()
        store.insert("stock", {"quantity": 5}, timestamp=1)
        store.insert("stock", {"quantity": 50}, timestamp=2)
        low = store.select("stock", lambda obj: obj.get("quantity") < 10)
        assert len(low) == 1

    def test_count(self):
        store = ObjectStore()
        store.insert("stock", {}, timestamp=1)
        store.insert("show", {}, timestamp=1)
        assert store.count() == 2
        assert store.count("stock") == 1
        assert store.count("ghost") == 0

    def test_all_objects_excludes_deleted_by_default(self):
        store = ObjectStore()
        obj = store.insert("stock", {}, timestamp=1)
        store.delete(obj.oid, timestamp=2)
        assert store.all_objects() == []
        assert len(store.all_objects(include_deleted=True)) == 1

    def test_begin_and_rollback(self):
        store = ObjectStore()
        obj = store.insert("stock", {"quantity": 5}, timestamp=1)
        store.begin()
        store.set_attribute(obj.oid, "quantity", 99, timestamp=2)
        store.insert("stock", {}, timestamp=3)
        store.rollback()
        assert obj.get("quantity") == 5 and obj.modified_at == 1
        assert store.get(obj.oid) is obj
        assert store.count("stock") == 1

    def test_rollback_restores_serial_counters(self):
        store = ObjectStore()
        store.insert("stock", {}, timestamp=1)
        store.begin()
        store.insert("stock", {}, timestamp=2)
        store.new_oid("show")
        store.rollback()
        assert store.new_oid("stock").serial == 2
        assert store.new_oid("show").serial == 1

    def test_commit_keeps_changes_and_drops_journalled_tombstones(self):
        store = ObjectStore()
        kept = store.insert("stock", {"quantity": 5}, timestamp=1)
        doomed = store.insert("stock", {}, timestamp=1)
        store.begin()
        store.set_attribute(kept.oid, "quantity", 6, timestamp=2)
        store.delete(doomed.oid, timestamp=3)
        assert store.get(doomed.oid, include_deleted=True) is doomed
        store.commit()
        assert kept.get("quantity") == 6
        assert store.all_objects(include_deleted=True) == [kept]
        store.rollback()  # nothing armed: nothing to undo
        assert kept.get("quantity") == 6

    def test_one_journal_at_a_time(self):
        store = ObjectStore()
        store.begin()
        with pytest.raises(TransactionError):
            store.begin()
