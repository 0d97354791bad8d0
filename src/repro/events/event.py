"""Event types and event occurrences.

In Chimera an *event type* names a data-manipulation operation, possibly
qualified by the class it applies to and (for ``modify``) by the attribute it
changes — e.g. ``create(stock)``, ``modify(stock.quantity)``, ``delete(stock)``.
An *event occurrence* (a row of the Event Base, Fig. 3 of the paper) is one
instance of an event type: it carries a unique event identifier (EID), the OID
of the affected object and the time stamp at which it arose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Mapping

from repro.errors import EventCalculusError
from repro.events.clock import Timestamp

__all__ = [
    "Operation",
    "EventType",
    "EventOccurrence",
    "parse_event_type",
]


class Operation(str, Enum):
    """Operations recognized as event types.

    The first six are Chimera's internal events (data manipulations and
    queries); ``RAISE`` is the extension operation used for external and
    temporal events (see :mod:`repro.events.timers`), where the "class name"
    slot carries the external event's name.
    """

    CREATE = "create"
    MODIFY = "modify"
    DELETE = "delete"
    GENERALIZE = "generalize"
    SPECIALIZE = "specialize"
    SELECT = "select"
    RAISE = "raise"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "Operation":
        """Return the operation named ``name`` (case-insensitive)."""
        try:
            return cls(name.strip().lower())
        except ValueError as exc:
            valid = ", ".join(member.value for member in cls)
            raise EventCalculusError(
                f"unknown operation {name!r}; expected one of: {valid}"
            ) from exc


@dataclass(frozen=True, order=True)
class EventType:
    """A primitive event type: ``operation(class_name[.attribute])``.

    ``attribute`` is only meaningful for ``modify`` events; it is ``None`` when
    the event type does not name a specific attribute.  Event types are value
    objects: hashable, ordered and usable as dictionary keys (the Event Base
    keeps one ``_TypeIndex`` per event type).

    Every index of the engine is keyed by event type, so the hash is computed
    once, at construction, instead of re-hashing the three fields on every
    dictionary probe.  The cached value (like the :attr:`class_level` memo)
    is derived state of *this* interpreter: string hashes are salted per
    process, so :meth:`__reduce__` keeps both out of pickles and copies — a
    worker on another host rebuilds them from the three fields.
    """

    operation: Operation
    class_name: str
    attribute: str | None = None

    def __post_init__(self) -> None:
        if not self.class_name:
            raise EventCalculusError("an event type requires a class name")
        if self.attribute is not None and self.operation is not Operation.MODIFY:
            raise EventCalculusError(
                f"only modify events may name an attribute "
                f"(got {self.operation.value}({self.class_name}.{self.attribute}))"
            )
        object.__setattr__(
            self, "_hash", hash((self.operation, self.class_name, self.attribute))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.operation, self.class_name, self.attribute))

    def __str__(self) -> str:
        if self.attribute is None:
            return f"{self.operation.value}({self.class_name})"
        return f"{self.operation.value}({self.class_name}.{self.attribute})"

    @property
    def is_attribute_specific(self) -> bool:
        """True when the event type names a specific attribute."""
        return self.attribute is not None

    @cached_property
    def class_level(self) -> "EventType":
        """``operation(class_name)``: this type without its attribute.

        The type whose watchers an attribute-specific occurrence also reaches
        (see :meth:`matches`); built on first use and kept, so per-block
        routing probes it without constructing a type.
        """
        if self.attribute is None:
            return self
        return EventType(self.operation, self.class_name)

    def matches(self, other: "EventType") -> bool:
        """Return True if an occurrence of ``other`` counts as this type.

        A class-level ``modify(stock)`` subscription matches any
        ``modify(stock.<attr>)`` occurrence; an attribute-specific type only
        matches the same attribute.  Operations and class names must match
        exactly.
        """
        if self.operation is not other.operation or self.class_name != other.class_name:
            return False
        if self.attribute is None:
            return True
        return self.attribute == other.attribute

    # -- compact snapshot form (cross-process wire format) ------------------
    def snapshot(self) -> tuple[str, str, str | None]:
        """Compact, always-picklable form: ``(operation value, class, attribute)``.

        The wire format the cluster's process workers exchange — plain
        strings, no enum or dataclass machinery, so a snapshot pickles small
        and restores on any interpreter that has this module.
        """
        return (self.operation.value, self.class_name, self.attribute)

    @classmethod
    def from_snapshot(cls, data: tuple[str, str, str | None]) -> "EventType":
        """Rebuild an :class:`EventType` from its :meth:`snapshot` form."""
        operation, class_name, attribute = data
        return cls(Operation(operation), class_name, attribute)


def parse_event_type(text: str) -> EventType:
    """Parse ``"modify(stock.quantity)"`` style text into an :class:`EventType`.

    Accepted forms::

        create(stock)
        modify(stock)
        modify(stock.quantity)
        delete(show)

    Whitespace around tokens is ignored.
    """
    stripped = text.strip()
    if "(" not in stripped or not stripped.endswith(")"):
        raise EventCalculusError(
            f"malformed event type {text!r}; expected operation(class[.attribute])"
        )
    op_part, _, rest = stripped.partition("(")
    target = rest[:-1].strip()
    if not target:
        raise EventCalculusError(f"malformed event type {text!r}; empty target")
    operation = Operation.from_name(op_part)
    class_name, dot, attribute = target.partition(".")
    class_name = class_name.strip()
    attribute = attribute.strip() if dot else ""
    return EventType(operation, class_name, attribute or None)


@dataclass(frozen=True, slots=True)
class EventOccurrence:
    """One row of the Event Base.

    Attributes mirror Fig. 3 of the paper: ``eid`` (unique identifier),
    ``event_type``, ``oid`` (the affected object) and ``timestamp``.  The
    optional ``payload`` carries extra information produced by the operation
    (e.g. old/new attribute values) which is available to rule conditions but
    is not part of the calculus.  Slotted: the EB holds millions of rows, and
    the hot paths (snapshot encoding, trigger checks) read several attributes
    per row — slots drop the per-instance dict and its extra cache miss.
    """

    eid: int
    event_type: EventType
    oid: Any
    timestamp: Timestamp
    payload: Mapping[str, Any] = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.timestamp <= 0:
            raise EventCalculusError(
                f"event occurrences require a positive time stamp (got {self.timestamp})"
            )

    def __str__(self) -> str:
        return f"e{self.eid}: {self.event_type} on {self.oid} @ t{self.timestamp}"

    # ------------------------------------------------------------------
    # The EB accessor functions of Fig. 4.
    # ------------------------------------------------------------------
    @property
    def type(self) -> EventType:
        """``type(e)`` — the event type of the occurrence."""
        return self.event_type

    @property
    def obj(self) -> Any:
        """``obj(e)`` — the OID of the object affected by the occurrence."""
        return self.oid

    @property
    def event_on_class(self) -> str:
        """``event_on_class(e)`` — the class of the affected object."""
        return self.event_type.class_name

    # -- compact snapshot form (cross-process wire format) ------------------
    def snapshot(self) -> tuple:
        """Compact picklable form: ``(eid, type snapshot, oid, timestamp, payload)``.

        ``payload`` is carried as a plain dict (``None`` when empty).  The
        OID and payload values are whatever the user stored — their
        picklability is *their* contract; the process pool's row log
        (``repro.cluster.transport``) turns a violation into a
        :class:`~repro.errors.SnapshotError` naming this occurrence.
        """
        return (
            self.eid,
            self.event_type.snapshot(),
            self.oid,
            self.timestamp,
            dict(self.payload) if self.payload else None,
        )
