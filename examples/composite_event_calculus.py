"""A tour of the composite event calculus, independent of the database engine.

Run with::

    python examples/composite_event_calculus.py

The script builds the event histories used in the paper's §3 examples, then:

* evaluates set-oriented expressions (disjunction, conjunction, precedence,
  negation) along a time axis, printing their ``ts`` traces;
* evaluates instance-oriented expressions per object (``ots``) and shows how
  they lift into set-oriented expressions;
* demonstrates the §3.3 event formulas (``occurred`` bindings and ``at``
  instants);
* verifies De Morgan's rule on the example history (the Fig. 5 identity);
* derives the static-optimization variation set ``V(E)`` for a composite rule.
"""

from __future__ import annotations

from repro import EventBase, parse_expression, ts
from repro.analysis import render_traces, ts_trace
from repro.core import active_objects, activation_instants, format_variations, ots, variation_set
from repro.events import EventType, Operation

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
CREATE_ORDER = EventType(Operation.CREATE, "stockOrder")


def section(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def build_history() -> EventBase:
    """The §3.1 history: two stock creations, then a quantity modification."""
    eb = EventBase()
    eb.record(CREATE_STOCK, "o1", 1)
    eb.record(CREATE_STOCK, "o2", 2)
    eb.record(MODIFY_QTY, "o1", 3)
    eb.record(CREATE_ORDER, "so1", 5)
    return eb


def main() -> None:
    eb = build_history()
    window = eb.full_view()

    section("Set-oriented operators (paper §3.1)")
    expressions = [
        "create(stock)",
        "create(stock) , modify(stock.quantity)",
        "create(stock) + modify(stock.quantity)",
        "create(stock) < modify(stock.quantity)",
        "-create(stockOrder)",
    ]
    traces = [ts_trace(parse_expression(text), window, label=text) for text in expressions]
    print(render_traces(traces, title="ts(E, t) along the history (+ = active)"))

    section("Instance-oriented operators (paper §3.2)")
    instance = parse_expression("create(stock) += modify(stock.quantity)")
    for oid in ("o1", "o2"):
        value = ots(instance, window, 6, oid)
        status = f"active since t{value}" if value > 0 else "not active"
        print(f"  ots({instance}, t=6, {oid}) -> {status}")
    lifted = ts(instance, window, 6)
    print(f"  lifted into a set context: ts = {lifted} (some object satisfies it)")

    section("Event formulas (paper §3.3)")
    sequence = parse_expression("create(stock) <= modify(stock.quantity)")
    print(f"  occurred({sequence}, X) binds X to {sorted(active_objects(sequence, window, 6))}")
    print(
        "  at(...) instants for o1:",
        activation_instants(sequence, window, "o1", until=6),
    )

    section("De Morgan with time stamps (paper Fig. 5)")
    lhs = parse_expression("-(create(stock) , modify(stock.quantity))")
    rhs = parse_expression("-create(stock) + -modify(stock.quantity)")
    identical = all(ts(lhs, window, t) == ts(rhs, window, t) for t in range(1, 8))
    print(f"  ts(-(A , B)) == ts(-A + -B) at every instant: {identical}")

    section("Static optimization (paper §5.1)")
    rule_expression = parse_expression(
        "(create(A) + create(B)) , (create(C) + -create(A)) , "
        "((create(A) += create(C)) + -=(create(B) += create(A)))"
    )
    print(f"  E  = {rule_expression}")
    print(f"  V(E) = {format_variations(variation_set(rule_expression))}")
    print("  -> only occurrences matching a positive variation require recomputing ts.")


if __name__ == "__main__":
    main()
