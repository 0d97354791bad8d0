"""The stock-management scenario used throughout the paper.

The paper's running examples talk about four kinds of objects:

* ``stock`` — stock products with ``quantity``, ``minquantity``,
  ``maxquantity``;
* ``show`` — products exposed on shelves in the sale room, with a ``quantity``;
* ``order`` / ``notFilledOrder`` — purchase orders (Fig. 3);
* ``stockOrder`` — re-supply orders with a ``delquantity`` (delivered
  quantity), used by the §3.1 composite-expression example.

This module builds the corresponding schema, provides the rules discussed in
the paper (``checkStockQty`` plus composite-event variants used in the
examples), replays the Fig. 3 Event Base, and generates larger synthetic
transaction streams over the same schema for ``stock-demo``, the examples and
the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.events.event import EventOccurrence, parse_event_type
from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.oodb.objects import OID

__all__ = [
    "CHECK_STOCK_QTY_RULE",
    "REORDER_RULE",
    "SHELF_REFILL_RULE",
    "StockScenario",
    "Figure3Entry",
    "FIGURE3_ROWS",
    "build_figure3_event_base",
]


#: The paper's §2 example rule, verbatim in the reproduction's rule language.
CHECK_STOCK_QTY_RULE = """
define immediate checkStockQty for stock
events create
condition stock(S), occurred(create(stock), S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end
"""

#: A composite-event rule in the spirit of §3.1: when the quantity of a stock
#: item drops below its minimum *after* the minimum itself was raised, create
#: a re-supply order.  It exercises the instance-oriented precedence operator.
REORDER_RULE = """
define immediate reorderStock for stock
events modify(minquantity) <= modify(quantity)
condition stock(S), occurred(modify(stock.minquantity) <= modify(stock.quantity), S),
          S.quantity < S.minquantity
action create(stockOrder, item = S, delquantity = 0), modify(stock.onorder, S, 1)
end
"""

#: A set-oriented composite rule: react to shelf changes only when no stock
#: order activity happened (negation + conjunction), mirroring the §3.1
#: composite expression built over show / stockOrder / stock events.
SHELF_REFILL_RULE = """
define deferred shelfRefill
events modify(show.quantity) + -(create(stockOrder) < modify(stockOrder.delquantity))
condition show(P), occurred(modify(show.quantity), P), P.quantity < 5
action modify(show.quantity, P, 20)
end
"""


@dataclass(frozen=True)
class Figure3Entry:
    """One row of the paper's Fig. 3 Event Base."""

    eid: int
    event_type: str
    object_label: str
    timestamp: int


#: Fig. 3 of the paper: seven occurrences over stock / order / notFilledOrder
#: objects.  e3 and e4 share the time stamp t3 (two events in the same block);
#: the numeric stamps keep the paper's ordering t1 < t2 < t3 < t5 < t6 < t7.
FIGURE3_ROWS: tuple[Figure3Entry, ...] = (
    Figure3Entry(1, "create(stock)", "o1", 1),
    Figure3Entry(2, "create(stock)", "o2", 2),
    Figure3Entry(3, "create(order)", "o3", 3),
    Figure3Entry(4, "create(notFilledOrder)", "o4", 3),
    Figure3Entry(5, "modify(stock.quantity)", "o1", 5),
    Figure3Entry(6, "modify(stock.quantity)", "o2", 6),
    Figure3Entry(7, "delete(stock)", "o1", 7),
)


def build_figure3_event_base() -> EventBase:
    """Replay Fig. 3 into an :class:`EventBase` (EIDs and stamps as in the paper)."""
    event_base = EventBase()
    for row in FIGURE3_ROWS:
        event_base.append(
            EventOccurrence(
                eid=row.eid,
                event_type=parse_event_type(row.event_type),
                oid=row.object_label,
                timestamp=row.timestamp,
            )
        )
    return event_base


@dataclass
class StockScenario:
    """Builds and drives a stock-management database.

    Parameters control the synthetic load of ``stock-demo``, the examples and
    the tests: the number of
    stock items and shelf products created up-front and the random seed used by
    :meth:`run_day`, which simulates one business day of quantity updates,
    shelf sales and re-supply deliveries.
    """

    items: int = 20
    shelf_products: int = 10
    seed: int = 0
    install_rules: bool = True
    use_static_optimization: bool = True
    database: ChimeraDatabase = field(init=False)
    stock_oids: list[OID] = field(init=False, default_factory=list)
    show_oids: list[OID] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.database = ChimeraDatabase(
            use_static_optimization=self.use_static_optimization
        )
        self._random = random.Random(self.seed)
        self._define_schema()
        if self.install_rules:
            self.install_paper_rules()
        self._populate()

    # -- set-up -----------------------------------------------------------
    def _define_schema(self) -> None:
        db = self.database
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

    def install_paper_rules(self) -> None:
        """Install the three rules discussed in the module docstring."""
        db = self.database
        for text in (CHECK_STOCK_QTY_RULE, REORDER_RULE, SHELF_REFILL_RULE):
            db.define_rule(text)

    def _populate(self) -> None:
        with self.database.transaction() as tx:
            for index in range(self.items):
                obj = tx.create(
                    "stock",
                    {
                        "name": f"item-{index}",
                        "quantity": 50,
                        "minquantity": 10,
                        "maxquantity": 100,
                        "onorder": 0,
                    },
                )
                self.stock_oids.append(obj.oid)
            for index in range(self.shelf_products):
                obj = tx.create(
                    "show",
                    {
                        "name": f"shelf-{index}",
                        "quantity": 10,
                        "item": self.stock_oids[index % len(self.stock_oids)],
                    },
                )
                self.show_oids.append(obj.oid)

    # -- synthetic load -------------------------------------------------------
    def run_day(self, operations: int = 50) -> ChimeraDatabase:
        """Simulate one business day: a transaction of random stock activity."""
        rng = self._random
        with self.database.transaction() as tx:
            for _ in range(operations):
                kind = rng.random()
                if kind < 0.45:
                    oid = rng.choice(self.stock_oids)
                    delta = rng.randint(-20, 20)
                    current = self.database.get(oid).get("quantity") or 0
                    tx.modify(oid, "quantity", max(0, current + delta))
                elif kind < 0.65:
                    oid = rng.choice(self.show_oids)
                    tx.modify(oid, "quantity", rng.randint(0, 30))
                elif kind < 0.80:
                    oid = rng.choice(self.stock_oids)
                    tx.modify(oid, "minquantity", rng.randint(5, 25))
                elif kind < 0.92:
                    tx.create(
                        "order",
                        {
                            "customer": f"customer-{rng.randint(0, 9)}",
                            "amount": rng.randint(1, 5),
                        },
                    )
                else:
                    obj = tx.create(
                        "stock",
                        {
                            "name": f"new-item-{rng.randint(0, 999)}",
                            "quantity": rng.randint(0, 150),
                            "minquantity": 10,
                            "maxquantity": 100,
                            "onorder": 0,
                        },
                    )
                    self.stock_oids.append(obj.oid)
        return self.database

    def run_days(self, days: int, operations_per_day: int = 50) -> ChimeraDatabase:
        """Simulate several business days (one transaction each)."""
        for _ in range(days):
            self.run_day(operations_per_day)
        return self.database
