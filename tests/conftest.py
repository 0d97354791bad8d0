"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.compile import ots, ts
from repro.core.expressions import Primitive
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.workloads.stock import build_figure3_event_base

from tests import oracle

# ---------------------------------------------------------------------------
# Abstract event types used by calculus-level tests (the paper's A, B, C).
# ---------------------------------------------------------------------------

A = EventType(Operation.CREATE, "A")
B = EventType(Operation.CREATE, "B")
C = EventType(Operation.CREATE, "C")
D = EventType(Operation.CREATE, "D")

PA = Primitive(A)
PB = Primitive(B)
PC = Primitive(C)
PD = Primitive(D)


def event_base_of(occurrences) -> EventBase:
    """An Event Base holding ``occurrences``, in log order by (time stamp, EID)."""
    event_base = EventBase()
    event_base.extend(sorted(occurrences, key=lambda row: (row.timestamp, row.eid)))
    return event_base


def history(*entries: tuple[EventType, str, int]) -> EventBase:
    """Build an Event Base from ``(event_type, oid, timestamp)`` tuples.

    The helper used throughout the calculus tests to spell event histories
    compactly: ``history((A, "o1", 1), (B, "o2", 3))``.
    """
    occurrences = [
        EventOccurrence(
            eid=index + 1, event_type=event_type, oid=oid, timestamp=timestamp
        )
        for index, (event_type, oid, timestamp) in enumerate(
            sorted(entries, key=lambda entry: entry[2])
        )
    ]
    return event_base_of(occurrences)


class _Interpreter:
    """The reference evaluator: ``tests/oracle.py``'s ``ts`` / ``ots``."""

    ts = staticmethod(oracle.ts)
    ots = staticmethod(oracle.ots)


class _Compiled:
    """The package's evaluator: ``repro.core.ts`` / ``ots``, the compiled kernels.

    ``mode`` keeps the interpreter's call shape: the kernels compile one
    combine set, which equals both of the paper's formulations.
    """

    @staticmethod
    def ts(expression, window, instant, mode=oracle.EvaluationMode.LOGICAL):
        return ts(expression, window, instant)

    @staticmethod
    def ots(expression, window, instant, oid, mode=oracle.EvaluationMode.LOGICAL):
        return ots(expression, window, instant, oid)


@pytest.fixture(params=[_Interpreter, _Compiled], ids=["interpreter", "compiled"])
def calculus(request):
    """``ts`` / ``ots`` of one evaluator, called like the interpreter's.

    The paper's worked examples run on both: the recursive evaluator is the
    oracle, the compiled kernels are what the package evaluates with.
    """
    return request.param


def event_base_from(*entries: tuple[EventType, str, int]) -> EventBase:
    """Build a full :class:`EventBase` from ``(event_type, oid, timestamp)`` tuples."""
    event_base = EventBase()
    for event_type, oid, timestamp in sorted(entries, key=lambda entry: entry[2]):
        event_base.record(event_type, oid, timestamp)
    return event_base


@pytest.fixture
def figure3_eb() -> EventBase:
    """The paper's Fig. 3 Event Base."""
    return build_figure3_event_base()


@pytest.fixture
def stock_db() -> ChimeraDatabase:
    """A database with the paper's stock schema (no rules installed)."""
    db = ChimeraDatabase()
    db.define_class(
        "stock",
        {
            "name": str,
            "quantity": int,
            "minquantity": int,
            "maxquantity": int,
            "onorder": int,
        },
    )
    db.define_class("show", {"name": str, "quantity": int, "item": object})
    db.define_class("order", {"customer": str, "amount": int})
    db.define_class(
        "notFilledOrder", {"customer": str, "amount": int}, superclass="order"
    )
    db.define_class("stockOrder", {"item": object, "delquantity": int})
    return db
