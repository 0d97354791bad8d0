"""Reproduction of "Composite Events in Chimera" (Meo, Psaila, Ceri — EDBT 1996).

The package implements an active object-oriented database in the style of
Chimera, extended with the paper's composite event calculus:

* :mod:`repro.events` — event occurrences and the Event Base, whose per-type
  index is the paper's §5 Occurred-Events structure;
* :mod:`repro.core` — the event calculus (expressions, ``ts``/``ots``
  semantics, algebraic laws, static optimization, triggering);
* :mod:`repro.oodb` — the object store (schema, objects, operations,
  transactions, queries);
* :mod:`repro.rules` — the active-rule system (trigger definitions, the rule
  language, conditions with ``occurred``/``at`` event formulas, actions, the
  Event Handler / Trigger Support / Block Executor pipeline);
* :mod:`repro.cluster` — the scale-out subsystem (the shard coordinator, which
  plans through the one Rule Table and checks on process shard workers forked
  on pipes);
* :mod:`repro.workloads` — the stock-management scenario and synthetic
  generators;
* :mod:`repro.analysis` — ``ts`` traces and report rendering.

Quickstart::

    from repro import ChimeraDatabase

    db = ChimeraDatabase()
    db.define_class("stock", {"quantity": int, "maxquantity": int})
    db.define_rule('''
        define immediate checkStockQty for stock
        events create
        condition stock(S), occurred(create(stock), S), S.quantity > S.maxquantity
        action modify(stock.quantity, S, S.maxquantity)
        end
    ''')
    with db.transaction() as tx:
        tx.create("stock", {"quantity": 120, "maxquantity": 100})
"""

from repro.core import (
    EvaluationMode,
    EventExpression,
    Primitive,
    RecomputationFilter,
    TsValue,
    active_objects,
    evaluate,
    is_triggered,
    ots,
    parse_expression,
    ts,
    variation_set,
)
from repro.errors import ChimeraError
from repro.events import (
    BoundedView,
    EventBase,
    EventOccurrence,
    EventType,
    Operation,
    TransactionClock,
    WindowLike,
    parse_event_type,
)

__version__ = "1.0.0"

__all__ = [
    "BoundedView",
    "ChimeraDatabase",
    "ChimeraError",
    "EvaluationMode",
    "EventBase",
    "EventExpression",
    "EventOccurrence",
    "EventType",
    "Operation",
    "Primitive",
    "RecomputationFilter",
    "TransactionClock",
    "TsValue",
    "WindowLike",
    "__version__",
    "active_objects",
    "evaluate",
    "is_triggered",
    "ots",
    "parse_event_type",
    "parse_expression",
    "ts",
    "variation_set",
]


def __getattr__(name: str):
    """Lazily expose the database facade to avoid an import cycle at start-up."""
    if name == "ChimeraDatabase":
        from repro.oodb.database import ChimeraDatabase

        return ChimeraDatabase
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
