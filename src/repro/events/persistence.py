"""Persistence and replay of event histories.

The Event Base is transaction-scoped in Chimera, but experiments want to save
interesting histories (a failing workload, a captured trace) and replay them —
against the calculus (``chimera-events evaluate|explain|replay --log``) or a
fresh database.  This module
serializes occurrences to JSON lines (one occurrence per line, append-friendly)
and loads them back.

Only plain JSON types are stored.  :class:`~repro.oodb.objects.OID`
instances — the occurrence's object, or a reference attribute anywhere inside
its payload — are tagged ``{"__oid__": [class, serial]}`` and round-trip
exactly.  Each record is serialized in full before it is written, so a value
JSON cannot hold raises :class:`~repro.errors.EventCalculusError` naming the
occurrence's EID and never leaves half a line behind.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from repro.errors import EventCalculusError
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase

__all__ = [
    "occurrence_to_dict",
    "occurrence_from_dict",
    "dump_occurrences",
    "load_occurrences",
    "save_event_base",
    "load_event_base",
]


def _to_json(value: Any) -> Any:
    """``value`` with every OID inside dicts, lists and tuples tagged."""
    # Imported lazily: the events package must not depend on the object store
    # at import time (the store depends on events, not the other way around).
    from repro.oodb.objects import OID

    if isinstance(value, OID):
        return {"__oid__": [value.class_name, value.serial]}
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    return value


def _from_json(value: Any) -> Any:
    """Undo :func:`_to_json`: every ``{"__oid__": ...}`` tag becomes an OID."""
    from repro.oodb.objects import OID

    if isinstance(value, dict):
        if "__oid__" in value:
            class_name, serial = value["__oid__"]
            return OID(class_name, int(serial))
        return {key: _from_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_from_json(item) for item in value]
    return value


def occurrence_to_dict(occurrence: EventOccurrence) -> dict[str, Any]:
    """A JSON-serializable representation of one occurrence."""
    return {
        "eid": occurrence.eid,
        "operation": occurrence.event_type.operation.value,
        "class": occurrence.event_type.class_name,
        "attribute": occurrence.event_type.attribute,
        "oid": _to_json(occurrence.oid),
        "timestamp": occurrence.timestamp,
        "payload": _to_json(dict(occurrence.payload)),
    }


def occurrence_from_dict(record: dict[str, Any]) -> EventOccurrence:
    """Rebuild an occurrence from :func:`occurrence_to_dict` output."""
    if not isinstance(record, dict):
        raise EventCalculusError(
            f"occurrence record is not a JSON object: {record!r}"
        )
    try:
        event_type = EventType(
            Operation(record["operation"]), record["class"], record.get("attribute")
        )
        return EventOccurrence(
            eid=int(record["eid"]),
            event_type=event_type,
            oid=_from_json(record["oid"]),
            timestamp=int(record["timestamp"]),
            payload=_from_json(record.get("payload") or {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise EventCalculusError(f"malformed occurrence record: {record!r}") from exc


def dump_occurrences(occurrences: Iterable[EventOccurrence], stream: TextIO) -> int:
    """Write occurrences as JSON lines; returns the number written.

    Raises :class:`EventCalculusError` naming the first occurrence JSON
    cannot hold; the lines before it are whole.
    """
    count = 0
    for occurrence in occurrences:
        try:
            line = json.dumps(occurrence_to_dict(occurrence), sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise EventCalculusError(
                f"occurrence eid={occurrence.eid} cannot be saved as JSON: {exc}"
            ) from exc
        stream.write(line + "\n")
        count += 1
    return count


def load_occurrences(stream: TextIO) -> Iterator[EventOccurrence]:
    """Read occurrences from a JSON-lines stream (blank lines are ignored)."""
    for line_number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise EventCalculusError(
                f"line {line_number} is not valid JSON: {text[:80]!r}"
            ) from exc
        try:
            occurrence = occurrence_from_dict(record)
        except EventCalculusError as exc:
            raise EventCalculusError(f"line {line_number}: {exc}") from exc
        yield occurrence


def save_event_base(event_base: EventBase, path: str | Path) -> int:
    """Persist a whole Event Base to ``path``; returns the number of rows written.

    Every record is serialized before ``path`` is opened, so a failure
    leaves the file as it was.
    """
    buffer = io.StringIO()
    count = dump_occurrences(event_base.occurrences, buffer)
    Path(path).write_text(buffer.getvalue(), encoding="utf-8")
    return count


def load_event_base(path: str | Path) -> EventBase:
    """Load an Event Base previously saved with :func:`save_event_base`."""
    path = Path(path)
    event_base = EventBase()
    with path.open("r", encoding="utf-8") as stream:
        for occurrence in load_occurrences(stream):
            event_base.append(occurrence)
    return event_base
