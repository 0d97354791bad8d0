"""Data-manipulation operations and the events they generate.

Chimera recognizes database updates and queries as *internal events*: "create,
modify, delete, generalize, specialize, select, etc." (paper §2).  The
:class:`OperationExecutor` is the single place where the object store is
mutated; every operation records the corresponding event occurrence in the
Event Base with a fresh logical time stamp, so the active-rule machinery sees
exactly the history the store went through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import DatabaseError, SchemaError
from repro.events.clock import TransactionClock
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.objects import OID, ChimeraObject, ObjectStore
from repro.oodb.schema import Schema

__all__ = ["OperationResult", "OperationExecutor"]


@dataclass(frozen=True)
class OperationResult:
    """What an operation produced: the affected objects and the emitted events."""

    objects: tuple[ChimeraObject, ...]
    occurrences: tuple[EventOccurrence, ...]

    @property
    def object(self) -> ChimeraObject:
        """The single affected object (raises when the operation touched several)."""
        if len(self.objects) != 1:
            raise DatabaseError(
                f"operation affected {len(self.objects)} objects, not exactly one"
            )
        return self.objects[0]

    @property
    def oids(self) -> tuple[OID, ...]:
        """OIDs of the affected objects."""
        return tuple(obj.oid for obj in self.objects)


class OperationExecutor:
    """Executes data manipulations against the store and logs their events.

    ``emit_select_events`` controls whether ``select`` queries generate event
    occurrences (one per returned object); Chimera treats queries as events,
    but synthetic workloads that only measure update-driven rules can turn the
    flag off to keep the Event Base small.
    """

    def __init__(
        self,
        schema: Schema,
        store: ObjectStore,
        event_base: EventBase,
        clock: TransactionClock,
        emit_select_events: bool = True,
    ) -> None:
        self.schema = schema
        self.store = store
        self.event_base = event_base
        self.clock = clock
        self.emit_select_events = emit_select_events

    # -- helpers -----------------------------------------------------------
    def _record(
        self,
        operation: Operation,
        class_name: str,
        oid: OID,
        attribute: str | None = None,
        payload: dict[str, Any] | None = None,
    ) -> EventOccurrence:
        event_type = EventType(operation, class_name, attribute)
        return self.event_base.record(event_type, oid, self.clock.tick(), payload)

    # -- operations ----------------------------------------------------------
    def create(
        self, class_name: str, values: Mapping[str, Any] | None = None
    ) -> OperationResult:
        """Create an object of ``class_name`` and emit a ``create`` event."""
        complete = self.schema.validate_values(class_name, dict(values or {}))
        oid = self.store.new_oid(class_name)
        occurrence = self._record(
            Operation.CREATE, class_name, oid, payload={"values": dict(complete)}
        )
        obj = self.store.insert(class_name, complete, occurrence.timestamp, oid=oid)
        return OperationResult((obj,), (occurrence,))

    def modify(self, oid: OID, attribute: str, value: Any) -> OperationResult:
        """Set one attribute of one object and emit a ``modify`` event."""
        obj = self.store.get(oid)
        self.schema.validate_attribute(obj.class_name, attribute)
        definition = self.schema.all_attributes(obj.class_name)[attribute]
        if not definition.accepts(value):
            raise SchemaError(
                f"attribute {obj.class_name}.{attribute} expects "
                f"{definition.value_type.__name__}, got {value!r}"
            )
        old_value = obj.attributes.get(attribute)
        occurrence = self._record(
            Operation.MODIFY,
            obj.class_name,
            oid,
            attribute=attribute,
            payload={"old_value": old_value, "new_value": value},
        )
        self.store.set_attribute(oid, attribute, value, occurrence.timestamp)
        return OperationResult((obj,), (occurrence,))

    def delete(self, oid: OID) -> OperationResult:
        """Delete an object and emit a ``delete`` event."""
        obj = self.store.get(oid)
        occurrence = self._record(
            Operation.DELETE, obj.class_name, oid, payload={"values": obj.snapshot()}
        )
        self.store.delete(oid, occurrence.timestamp)
        return OperationResult((obj,), (occurrence,))

    def specialize(self, oid: OID, subclass: str) -> OperationResult:
        """Move an object down the hierarchy and emit a ``specialize`` event."""
        obj = self.store.get(oid)
        if not self.schema.is_subclass(subclass, obj.class_name):
            raise SchemaError(
                f"{subclass!r} does not specialize {obj.class_name!r}; cannot specialize"
            )
        occurrence = self._record(
            Operation.SPECIALIZE, subclass, oid, payload={"from_class": obj.class_name}
        )
        self.store.reclassify(oid, subclass, occurrence.timestamp)
        return OperationResult((obj,), (occurrence,))

    def generalize(self, oid: OID, superclass: str) -> OperationResult:
        """Move an object up the hierarchy and emit a ``generalize`` event."""
        obj = self.store.get(oid)
        if not self.schema.is_subclass(obj.class_name, superclass):
            raise SchemaError(
                f"{superclass!r} is not an ancestor of {obj.class_name!r}; cannot generalize"
            )
        occurrence = self._record(
            Operation.GENERALIZE,
            superclass,
            oid,
            payload={"from_class": obj.class_name},
        )
        self.store.reclassify(oid, superclass, occurrence.timestamp)
        return OperationResult((obj,), (occurrence,))

    def select(
        self,
        class_name: str,
        predicate: Callable[[ChimeraObject], bool] | None = None,
        include_subclasses: bool = True,
    ) -> OperationResult:
        """Query a class extent; emits ``select`` events when enabled."""
        self.schema.get(class_name)
        subclasses = self.schema.descendants(class_name) if include_subclasses else None
        objects = tuple(self.store.select(class_name, predicate, subclasses))
        occurrences: tuple[EventOccurrence, ...] = ()
        if self.emit_select_events:
            occurrences = tuple(
                self._record(Operation.SELECT, obj.class_name, obj.oid)
                for obj in objects
            )
        return OperationResult(objects, occurrences)
