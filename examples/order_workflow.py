"""Order workflow: targeted vs. untargeted rules, deferred coupling and priorities.

Run with::

    python examples/order_workflow.py

The example models a small order-fulfilment workflow on top of the Chimera
engine:

* ``fulfilOrders`` (deferred, priority 10) — at commit, every order that was
  created and later had its amount modified (an instance-oriented precedence)
  is marked fulfilled;
* ``auditActivity`` (deferred, priority 1) — at commit, if any order activity
  happened at all, an audit record is updated;
* ``classifyUnfilled`` (deferred, priority 0) — orders that still have no
  amount at commit time are specialized into ``notFilledOrder`` (the class the
  paper's Fig. 3 Event Base mentions), via a Python action.

It demonstrates composite events driving a realistic workflow, and how the
priority order decides which deferred rule is considered first at commit.
"""

from __future__ import annotations

from repro import ChimeraDatabase
from repro.core import parse_expression
from repro.rules import Action, CallableStatement, Condition, OccurredFormula, Rule
from repro.rules.rule import ECCoupling


def build_database() -> ChimeraDatabase:
    db = ChimeraDatabase()
    db.define_class("order", {"customer": str, "amount": int, "status": str})
    db.define_class(
        "notFilledOrder", {"customer": str, "amount": int, "status": str}, superclass="order"
    )
    db.define_class("audit", {"entries": int})
    return db


def install_classify_unfilled(db: ChimeraDatabase) -> None:
    """Specialize still-amount-less orders into notFilledOrder at commit."""

    def action_body(binding, operations):
        oid = binding["O"]
        obj = operations.store.get(oid)
        if obj.class_name == "order" and not obj.get("amount"):
            operations.specialize(oid, "notFilledOrder")

    rule = Rule(
        name="classifyUnfilled",
        events=parse_expression("create(order)"),
        condition=Condition((OccurredFormula(parse_expression("create(order)"), "O"),)),
        action=Action((CallableStatement(action_body, "specialize empty orders"),)),
        coupling=ECCoupling.DEFERRED,
        priority=0,
    )
    db.define_rule(rule)


FULFIL_ORDERS = """
define deferred preserving fulfilOrders
events create(order) <= modify(order.amount)
condition order(O), occurred(create(order) <= modify(order.amount), O), O.amount > 0
action modify(order.status, O, 'fulfilled')
priority 10
end
"""

AUDIT_ACTIVITY = """
define deferred auditActivity
events create(order) , modify(order.amount) , delete(order)
condition audit(A)
action modify(audit.entries, A, A.entries + 1)
priority 1
end
"""


def main() -> None:
    db = build_database()
    db.define_rule(FULFIL_ORDERS)
    db.define_rule(AUDIT_ACTIVITY)
    install_classify_unfilled(db)

    with db.transaction() as tx:
        ledger = tx.create("audit", {"entries": 0})
        placed = tx.create("order", {"customer": "ada", "amount": 0, "status": "new"})
        backlog = tx.create("order", {"customer": "grace", "amount": 0, "status": "new"})
        # ada's order gets an amount later in the transaction -> fulfilled at commit.
        tx.modify(placed.oid, "amount", 3)
        # Inside the transaction nothing has happened yet: all three rules are deferred.
        assert db.get(placed.oid).get("status") == "new"

    print("After commit:")
    for order in db.select("order"):
        print(
            f"  {order.get('customer'):<6} class={order.class_name:<15} "
            f"amount={order.get('amount')} status={order.get('status')}"
        )
    print(f"  audit entries: {db.get(ledger.oid).get('entries')}")

    order_of_consideration = [record.rule_name for record in db.considerations]
    print()
    print("Considerations in order:", " -> ".join(order_of_consideration))
    print(
        "(priority 10 > 1 > 0, so at commit fulfilOrders ran first, "
        "then auditActivity, then classifyUnfilled.)"
    )

    assert db.get(placed.oid).get("status") == "fulfilled"
    assert db.get(placed.oid).class_name == "order"
    assert db.get(backlog.oid).class_name == "notFilledOrder"
    assert db.get(ledger.oid).get("entries") == 1
    first_three = order_of_consideration[:3]
    assert first_three == ["fulfilOrders", "auditActivity", "classifyUnfilled"]


if __name__ == "__main__":
    main()
