"""Object identifiers, objects and the object store.

Every Chimera object has an immutable OID, a current class (which
``generalize``/``specialize`` may change along the hierarchy) and a dictionary
of attribute values.  The store keeps per-class extents so that class ranges in
rule conditions (``stock(S)``) and queries can enumerate members quickly.

Transactions roll back through an *undo log*: between :meth:`ObjectStore.begin`
and :meth:`ObjectStore.commit` / :meth:`ObjectStore.rollback` every mutator
journals one before-image, so begin, commit and rollback cost what the
transaction touched, never the size of the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import TransactionError, UnknownObjectError
from repro.events.clock import Timestamp

__all__ = ["OID", "ChimeraObject", "ObjectStore"]


@dataclass(frozen=True, order=True)
class OID:
    """An object identifier: the class the object was created in plus a serial.

    OIDs key the store, the per-type Event Base indexes and every binding
    set, so — like :class:`~repro.events.event.EventType` — the hash is
    computed once, at construction.  It is derived state of *this*
    interpreter (string hashes are salted per process) and occurrences
    carrying an OID are pickled to shard workers: :meth:`__reduce__` keeps it
    out of pickles and copies.
    """

    class_name: str
    serial: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.class_name, self.serial)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.class_name, self.serial))

    def __str__(self) -> str:
        return f"{self.class_name}#{self.serial}"


@dataclass
class ChimeraObject:
    """A stored object: OID, current class, attribute values and lifecycle stamps."""

    oid: OID
    class_name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    created_at: Timestamp = 0
    modified_at: Timestamp = 0
    deleted: bool = False

    def get(self, attribute: str, default: Any = None) -> Any:
        """The current value of ``attribute`` (or ``default`` when unset)."""
        return self.attributes.get(attribute, default)

    def snapshot(self) -> dict[str, Any]:
        """A copy of the attribute values (used for undo and payloads)."""
        return dict(self.attributes)

    def __getitem__(self, attribute: str) -> Any:
        return self.attributes[attribute]


#: Journal entry kinds (first element of every before-image tuple).
_SERIAL, _INSERT, _SET, _DELETE, _RECLASSIFY = range(5)


class ObjectStore:
    """In-memory object store with per-class extents and an undo log.

    :meth:`begin` arms a journal; while it is armed, :meth:`new_oid`,
    :meth:`insert`, :meth:`set_attribute`, :meth:`delete` and
    :meth:`reclassify` each append one before-image — the previous serial,
    the previous ``_objects`` entry, ``(had, old value, modified_at)``,
    ``modified_at``, ``(old class, modified_at)``.  :meth:`rollback` replays
    the journal backwards *in place* (extents and serial counters included,
    so a held :class:`ChimeraObject` reads its pre-transaction values again
    and the next minted OID is the one a run without the transaction would
    mint); :meth:`commit` drops it, together with the tombstones of the
    objects it saw deleted.  These five mutators are the only supported write
    path: a change made behind them (``obj.attributes[...] = ...``) is not
    journalled and survives a rollback.
    """

    def __init__(self) -> None:
        self._objects: dict[OID, ChimeraObject] = {}
        self._extents: dict[str, set[OID]] = {}
        self._serials: dict[str, int] = {}
        #: Before-images since :meth:`begin`; ``None`` when no journal is armed.
        self._journal: list[tuple] | None = None

    # -- undo log -----------------------------------------------------------
    def begin(self) -> None:
        """Arm the undo log (one journal at a time)."""
        if self._journal is not None:
            raise TransactionError("the object store is already journalling")
        self._journal = []

    def commit(self) -> None:
        """Make the journalled changes final and drop their tombstones.

        Outside a journal ``delete`` only flags (``get(oid,
        include_deleted=True)`` keeps working, and so does rollback of the
        delete); once the transaction is final nothing can reach the deleted
        object any more, so it leaves ``_objects`` here.
        """
        journal, self._journal = self._journal, None
        objects = self._objects
        for entry in journal or ():
            if entry[0] == _DELETE:
                obj = entry[1]
                if objects.get(obj.oid) is obj:
                    del objects[obj.oid]

    def rollback(self) -> None:
        """Undo, newest first, every change journalled since :meth:`begin`."""
        journal, self._journal = self._journal, None
        extents = self._extents
        for entry in reversed(journal or ()):
            kind = entry[0]
            if kind == _SET:
                _, obj, attribute, had, old_value, modified_at = entry
                if had:
                    obj.attributes[attribute] = old_value
                else:
                    del obj.attributes[attribute]
                obj.modified_at = modified_at
            elif kind == _SERIAL:
                _, class_name, previous = entry
                if previous is None:
                    del self._serials[class_name]
                else:
                    self._serials[class_name] = previous
            elif kind == _INSERT:
                _, obj, previous = entry
                extents[obj.class_name].discard(obj.oid)
                if previous is None:
                    del self._objects[obj.oid]
                else:
                    self._objects[obj.oid] = previous
                    if not previous.deleted:
                        extents[previous.class_name].add(obj.oid)
            elif kind == _DELETE:
                _, obj, modified_at = entry
                obj.deleted = False
                obj.modified_at = modified_at
                extents[obj.class_name].add(obj.oid)
            else:  # _RECLASSIFY
                _, obj, old_class, modified_at = entry
                extents[obj.class_name].discard(obj.oid)
                obj.class_name = old_class
                obj.modified_at = modified_at
                extents[old_class].add(obj.oid)

    # -- identity ----------------------------------------------------------
    def new_oid(self, class_name: str) -> OID:
        """Mint a fresh OID for ``class_name``."""
        previous = self._serials.get(class_name)
        if self._journal is not None:
            self._journal.append((_SERIAL, class_name, previous))
        serial = (previous or 0) + 1
        self._serials[class_name] = serial
        return OID(class_name, serial)

    # -- lifecycle ----------------------------------------------------------
    def insert(
        self,
        class_name: str,
        attributes: Mapping[str, Any],
        timestamp: Timestamp,
        oid: OID | None = None,
    ) -> ChimeraObject:
        """Create and store a new object; returns it."""
        identifier = oid if oid is not None else self.new_oid(class_name)
        obj = ChimeraObject(
            oid=identifier,
            class_name=class_name,
            attributes=dict(attributes),
            created_at=timestamp,
            modified_at=timestamp,
        )
        if self._journal is not None:
            self._journal.append((_INSERT, obj, self._objects.get(identifier)))
        self._objects[identifier] = obj
        self._extents.setdefault(class_name, set()).add(identifier)
        return obj

    def get(self, oid: OID, include_deleted: bool = False) -> ChimeraObject:
        """The live object identified by ``oid`` (raises when unknown or deleted)."""
        obj = self._objects.get(oid)
        if obj is None or (obj.deleted and not include_deleted):
            raise UnknownObjectError(oid)
        return obj

    def find(self, oid: Any) -> ChimeraObject | None:
        """The live object identified by ``oid``, or ``None`` (never raises)."""
        obj = self._objects.get(oid)
        return None if obj is None or obj.deleted else obj

    def exists(self, oid: OID) -> bool:
        """True when ``oid`` identifies a live (non-deleted) object."""
        return self.find(oid) is not None

    def set_attribute(
        self, oid: OID, attribute: str, value: Any, timestamp: Timestamp
    ) -> tuple[Any, Any]:
        """Update one attribute, returning ``(old_value, new_value)``."""
        obj = self.get(oid)
        attributes = obj.attributes
        old_value = attributes.get(attribute)
        if self._journal is not None:
            had = attribute in attributes
            self._journal.append(
                (_SET, obj, attribute, had, old_value, obj.modified_at)
            )
        attributes[attribute] = value
        obj.modified_at = timestamp
        return old_value, value

    def delete(self, oid: OID, timestamp: Timestamp) -> ChimeraObject:
        """Mark an object deleted and remove it from its extent."""
        obj = self.get(oid)
        if self._journal is not None:
            self._journal.append((_DELETE, obj, obj.modified_at))
        obj.deleted = True
        obj.modified_at = timestamp
        self._extents.get(obj.class_name, set()).discard(oid)
        return obj

    def reclassify(
        self, oid: OID, new_class: str, timestamp: Timestamp
    ) -> ChimeraObject:
        """Move an object to another class (``generalize``/``specialize``)."""
        obj = self.get(oid)
        if self._journal is not None:
            self._journal.append((_RECLASSIFY, obj, obj.class_name, obj.modified_at))
        self._extents.get(obj.class_name, set()).discard(oid)
        obj.class_name = new_class
        obj.modified_at = timestamp
        self._extents.setdefault(new_class, set()).add(oid)
        return obj

    # -- queries -------------------------------------------------------------
    def objects_of_class(
        self, class_name: str, subclasses: set[str] | None = None
    ) -> list[ChimeraObject]:
        """Live members of a class extent (optionally including subclass extents)."""
        names = {class_name} | (subclasses or set())
        members: list[ChimeraObject] = []
        for name in names:
            for oid in self._extents.get(name, ()):  # set iteration order is arbitrary
                obj = self._objects.get(oid)
                if obj is not None and not obj.deleted:
                    members.append(obj)
        members.sort(key=lambda obj: (obj.oid.class_name, obj.oid.serial))
        return members

    def select(
        self,
        class_name: str,
        predicate: Callable[[ChimeraObject], bool] | None = None,
        subclasses: set[str] | None = None,
    ) -> list[ChimeraObject]:
        """Members of a class extent satisfying ``predicate``."""
        members = self.objects_of_class(class_name, subclasses)
        if predicate is None:
            return members
        return [obj for obj in members if predicate(obj)]

    def all_objects(self, include_deleted: bool = False) -> list[ChimeraObject]:
        """Every stored object (deleted ones only when requested)."""
        return [
            obj
            for obj in self._objects.values()
            if include_deleted or not obj.deleted
        ]

    def count(self, class_name: str | None = None) -> int:
        """Number of live objects, optionally restricted to one class extent."""
        if class_name is None:
            return sum(1 for obj in self._objects.values() if not obj.deleted)
        return len(self._extents.get(class_name, ()))
