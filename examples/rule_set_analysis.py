"""Rule-set analysis and activation explanations.

Run with::

    python examples/rule_set_analysis.py

Two developer-facing facilities built on top of the calculus:

* the **triggering graph** of a rule set (which rule's action can trigger which
  rules, cycles, termination strata) — the classic static analysis for active
  rules, here driven by the same V(E) analysis the Trigger Support uses;
* **activation explanations** — for a composite event expression, which
  primitive occurrences support (or block) its activation over a given window.
"""

from __future__ import annotations

from repro import EventBase, parse_expression
from repro.core import explain
from repro.events import EventType, Operation
from repro.rules import analyze_rules, parse_rule
from repro.workloads.stock import CHECK_STOCK_QTY_RULE, REORDER_RULE, SHELF_REFILL_RULE

ESCALATE_RULE = """
define deferred escalateReorders
events create(stockOrder)
condition stockOrder(O), occurred(create(stockOrder), O)
action modify(stockOrder.delquantity, O, 0)
end
"""


def show_triggering_graph() -> None:
    print("=" * 72)
    print("Triggering graph of the stock rule set")
    print("=" * 72)
    rules = [
        parse_rule(text)
        for text in (CHECK_STOCK_QTY_RULE, REORDER_RULE, SHELF_REFILL_RULE, ESCALATE_RULE)
    ]
    graph = analyze_rules(rules)
    print(graph.describe())
    print()
    strata = graph.stratification()
    if strata is None:
        print("The graph is cyclic, so no stratification exists; the run-time execution")
        print("budget (and, here, the rules' conditions) bounds the cascades instead.")
    else:
        for level, names in enumerate(strata):
            print(f"  stratum {level}: {', '.join(names)}")
    print()


def show_explanation() -> None:
    print("=" * 72)
    print("Why is this composite event active?")
    print("=" * 72)
    create_stock = EventType(Operation.CREATE, "stock")
    modify_qty = EventType(Operation.MODIFY, "stock", "quantity")
    create_order = EventType(Operation.CREATE, "stockOrder")

    eb = EventBase()
    eb.record(create_stock, "item-1", 1)
    eb.record(create_stock, "item-2", 2)
    eb.record(modify_qty, "item-1", 4)
    eb.record(create_order, "supply-9", 6)

    expression = parse_expression(
        "(create(stock) += modify(stock.quantity)) + -create(stockOrder)"
    )
    for instant in (5, 7):
        print(f"-- evaluated at t={instant}")
        print(explain(expression, eb.full_view(), instant).render())
        print()


def main() -> None:
    show_triggering_graph()
    show_explanation()


if __name__ == "__main__":
    main()
