"""Seeded input generator of the end-to-end benchmark.

Every workload's inputs — class definitions, rule texts, warm-up and timed
operations — are fully materialised here from ``(workload, seed, ops)`` before
any clock starts; the engine sees nothing but them.  The generator is owned by
the benchmark: from ``repro.workloads`` it takes only the paper's three stock
rule texts, so deleting a harness module or an engine knob cannot break it.

Inputs are *stratified*: the seed decides which types a rule watches, which
types a block shape holds and in which order shapes and operations arrive,
while the quantities the engine's cost depends on (rules per type, shape
sizes, shape frequencies, watched events per block, operation mix per
transaction) are fixed by construction.  Two seeds therefore give different
inputs with the same amount of work, so a run-to-run difference is the
machine's and the engine's, not the dice's.

The stream workloads also get an *oracle*: their rules are set disjunctions
over block-stamped events, so which rules are triggered and considered, and in
which order, follows from the paper's semantics by a ten-line model
(:func:`stream_oracle`).  The transaction workload has no such model — its
reference is a pinned digest (``expected.json``) or an untimed reference pass.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.events.event import EventOccurrence, EventType, Operation
from repro.workloads.stock import (
    CHECK_STOCK_QTY_RULE,
    REORDER_RULE,
    SHELF_REFILL_RULE,
)

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "Workload",
    "Inputs",
    "generate",
    "digest",
    "fingerprint",
    "stream_oracle",
]

#: The paper's year; any fixed value would do.
DEFAULT_SEED = 1996

#: Deferred order-workflow rules, copied from ``examples/order_workflow.py``
#: (the third one, ``classifyUnfilled``, has a Python action and is built by
#: the runner at set-up).
FULFIL_ORDERS_RULE = """
define deferred preserving fulfilOrders
events create(order) <= modify(order.amount)
condition order(O), occurred(create(order) <= modify(order.amount), O), O.amount > 0
action modify(order.status, O, 'fulfilled')
priority 10
end
"""

AUDIT_ACTIVITY_RULE = """
define deferred auditActivity
events create(order) , modify(order.amount) , delete(order)
condition audit(A)
action modify(audit.entries, A, A.entries + 1)
priority 1
end
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload's shape and nominal rate.

    Why each workload exists is recorded once, in ``BENCHMARK.json``.
    """

    name: str
    #: ``"stream"`` (an op is one ``run_stream_block``) or ``"tx"`` (an op is
    #: one transaction, begin to commit).
    kind: str
    #: Keyword arguments of ``ChimeraDatabase`` — the execution mode only;
    #: evaluator, transport and batch size stay at the product's defaults.
    database: dict[str, Any]
    #: Ops per second the workload sustains on the 2-CPU reference host.  It
    #: turns the driver's ``--seconds`` into a fixed *count* of operations, so
    #: both sides of a comparison run the same work.
    ops_per_second: float
    warmup_ops: int
    rules: int
    classes: int
    events_per_op: int
    shapes: int = 0
    #: Rules that can trigger, as one in N (the rest are conjoined with a
    #: never-emitted ghost type and stay untriggered candidates for ever).
    live_one_in: int = 10


_CHECK_HEAVY = Workload(
    name="stream.check_heavy",
    kind="stream",
    database={},
    ops_per_second=240.0,
    warmup_ops=48,
    rules=6_000,
    classes=750,
    events_per_op=24,
    shapes=24,
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _CHECK_HEAVY,
        Workload(
            name="stream.ingest_heavy",
            kind="stream",
            database={},
            ops_per_second=265.0,
            warmup_ops=20,
            rules=20_000,
            classes=2_500,
            events_per_op=256,
        ),
        # Byte for byte the stream.check_heavy inputs (same op count, hence
        # the same nominal rate), on two process shard workers.
        replace(
            _CHECK_HEAVY,
            name="cluster.processes",
            database={"shards": 2, "shard_mode": "processes"},
        ),
        Workload(
            name="tx.stock_orders",
            kind="tx",
            database={},
            ops_per_second=190.0,
            warmup_ops=20,
            rules=6,
            classes=6,
            events_per_op=25,
        ),
    )
}

_GHOST = "ghost"


@dataclass
class Inputs:
    """Everything one run feeds the engine, materialised up front."""

    #: ``(class name, attributes, superclass)`` in definition order.
    classes: list[tuple[str, dict[str, type] | None, str | None]]
    rule_texts: list[str]
    #: Stream: a list of ``EventOccurrence`` per op.  Transactions: a list of
    #: script steps per op (see :func:`_tx_inputs`).
    warmup: list[list]
    timed: list[list]
    #: Transactions only: the seeded object population, created untimed.
    population: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    #: Stream only: ``(name, watched types, live, priority)`` per rule, in
    #: definition order — what :func:`stream_oracle` evaluates.
    rule_model: list[tuple[str, tuple[EventType, EventType], bool, int]] = field(
        default_factory=list
    )
    #: The input properties the workload's cost depends on.
    facts: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Stream workloads
# ---------------------------------------------------------------------------


def _universe(classes: int) -> list[EventType]:
    """Four event types per class: create, delete and two attribute modifies."""
    types: list[EventType] = []
    for index in range(classes):
        name = f"c{index}"
        types.append(EventType(Operation.CREATE, name))
        types.append(EventType(Operation.DELETE, name))
        types.append(EventType(Operation.MODIFY, name, "a0"))
        types.append(EventType(Operation.MODIFY, name, "a1"))
    return types


def _stream_rules(
    spec: Workload,
    groups: list[list[EventType]],
    quiet: list[EventType],
    rng: random.Random,
) -> tuple[list[str], list[tuple[str, tuple[EventType, EventType], bool, int]]]:
    """Two-type set disjunctions with a seed-independent amount of work.

    ``groups`` hold the watched types the stream will emit (one group per
    block shape), ``quiet`` the watched types it never emits.  Every emitted
    type sits in exactly four rules — twice as left and twice as right
    operand — each time paired with a quiet type, so a block of *k* distinct
    emitted types routes to exactly *4k* rules and no rule is reached from
    two shapes.  One rule in ``live_one_in`` can trigger, spread evenly: the
    same share of every group's rules and of the never-reached rest.  Which
    types and which rules is the seed's choice; how many is not.
    """
    emitted = [event_type for group in groups for event_type in group]
    order = list(range(spec.rules))
    rng.shuffle(order)
    span = 2 * len(emitted)
    left_spots, right_spots = order[:span], order[span : 2 * span]
    rest = order[2 * span :]
    left: list[EventType | None] = [None] * spec.rules
    right: list[EventType | None] = [None] * spec.rules
    for slots, spots in ((left, left_spots), (right, right_spots)):
        for spot, event_type in zip(spots, rng.sample(emitted * 2, span)):
            slots[spot] = event_type
        vacant = [index for index in range(spec.rules) if slots[index] is None]
        copies = -(-len(vacant) // len(quiet))
        fill = (quiet * copies)[: len(vacant)]
        rng.shuffle(fill)
        for index, event_type in zip(vacant, fill):
            slots[index] = event_type
    # A rule needs two different types; only a quiet-quiet pair can clash.
    for position, index in enumerate(rest):
        if left[index] == right[index]:
            other = rest[(position + 1) % len(rest)]
            right[index], right[other] = right[other], right[index]

    group_of = {
        event_type: number
        for number, group in enumerate(groups)
        for event_type in group
    }
    members: dict[int | None, list[int]] = {}
    for index in range(spec.rules):
        reached = group_of.get(left[index], group_of.get(right[index]))
        members.setdefault(reached, []).append(index)
    live: set[int] = set()
    for number in range(len(groups)):
        rules = members[number]
        live.update(rng.sample(rules, round(len(rules) / spec.live_one_in)))
    live.update(rng.sample(members[None], spec.rules // spec.live_one_in - len(live)))

    texts: list[str] = []
    model: list[tuple[str, tuple[EventType, EventType], bool, int]] = []
    for index in range(spec.rules):
        events = f"{left[index]} , {right[index]}"
        if index not in live:
            events = f"({events}) + create({_GHOST})"
        name = f"r{index}"
        priority = index % 7
        texts.append(
            f"define immediate {name}\nevents {events}\npriority {priority}\nend"
        )
        model.append((name, (left[index], right[index]), index in live, priority))
    return texts, model


def _blocks(
    count: int,
    events_per_block: int,
    choose_types,
    rng: random.Random,
) -> list[list[EventOccurrence]]:
    """``count`` blocks; block *i* is stamped *i + 1*, EIDs run on from 1."""
    blocks: list[list[EventOccurrence]] = []
    eid = 1
    for index in range(count):
        types = choose_types(index)
        oids = rng.choices(range(1_000), k=events_per_block)
        stamp = index + 1
        block = [
            EventOccurrence(eid + offset, event_type, oid, stamp)
            for offset, (event_type, oid) in enumerate(zip(types, oids))
        ]
        eid += events_per_block
        blocks.append(block)
    return blocks


def _check_heavy_inputs(spec: Workload, seed: int, ops: int) -> Inputs:
    rng = random.Random(seed)
    universe = _universe(spec.classes)
    rng.shuffle(universe)
    # Shape sizes are the fixed multiset 8..14 repeated, not drawn: the mean
    # shape size sets the candidates per block, and 24 draws would move it by
    # several percent from seed to seed.  Shapes share no type.
    shapes: list[list[EventType]] = []
    for index in range(spec.shapes):
        size = 8 + index % 7
        shapes.append([universe.pop() for _ in range(size)])
    rule_texts, rule_model = _stream_rules(spec, shapes, universe, rng)
    total = spec.warmup_ops + ops
    # Every shape equally often, in seeded order; the warm-up sees each twice.
    schedule = [index % spec.shapes for index in range(total)]
    warm, rest = schedule[: spec.warmup_ops], schedule[spec.warmup_ops :]
    rng.shuffle(warm)
    rng.shuffle(rest)
    schedule = warm + rest

    def choose_types(index: int) -> list[EventType]:
        shape = shapes[schedule[index]]
        # Every type of the shape at least once (the signature is exactly the
        # shape), the rest of the block drawn from it.
        types = shape + rng.choices(shape, k=spec.events_per_op - len(shape))
        rng.shuffle(types)
        return types

    blocks = _blocks(total, spec.events_per_op, choose_types, rng)
    return Inputs(
        classes=[(f"c{index}", None, None) for index in range(spec.classes)],
        rule_texts=rule_texts,
        warmup=blocks[: spec.warmup_ops],
        timed=blocks[spec.warmup_ops :],
        rule_model=rule_model,
        facts={
            "rules": spec.rules,
            "universe_types": 4 * spec.classes,
            "events_per_op": spec.events_per_op,
            "recurring_shapes": spec.shapes,
            "shape_sizes": "8-14",
            "final_eb_length": total * spec.events_per_op,
        },
    )


def _ingest_heavy_inputs(spec: Workload, seed: int, ops: int) -> Inputs:
    rng = random.Random(seed)
    universe = _universe(spec.classes)
    rng.shuffle(universe)
    # 200 types no rule watches carry 99.5 % of the events, 50 watched types
    # the rest.  Every rule on a watched type re-reads the instants since its
    # last check, so the exact-check work per block grows with the number of
    # watched types in the stream, not with how often they occur: 50 keeps
    # core the smallest share this stream shape allows.
    cold, hot, quiet = universe[:200], universe[200:250], universe[250:]
    rule_texts, rule_model = _stream_rules(spec, [hot], quiet, rng)
    total = spec.warmup_ops + ops
    hot_share = 0.005 * spec.events_per_op
    cold_step = -(-len(cold) // spec.warmup_ops)
    hot_step = -(-len(hot) // spec.warmup_ops)

    def choose_types(index: int) -> list[EventType]:
        if index < spec.warmup_ops:
            # The warm-up walks through every type of the stream, so each
            # index bucket exists before the clock starts.
            fixed = (
                hot[hot_step * index : hot_step * (index + 1)]
                + cold[cold_step * index : cold_step * (index + 1)]
            )
            fill = rng.choices(cold, k=spec.events_per_op - len(fixed))
            return fixed + fill
        # Watched events per block follow a fixed schedule (1 or 2, averaging
        # 0.5 % of the block), not a draw.
        position = index - spec.warmup_ops
        hot_count = int((position + 1) * hot_share) - int(position * hot_share)
        types = rng.choices(hot, k=hot_count) + rng.choices(
            cold, k=spec.events_per_op - hot_count
        )
        rng.shuffle(types)
        return types

    blocks = _blocks(total, spec.events_per_op, choose_types, rng)
    return Inputs(
        classes=[(f"c{index}", None, None) for index in range(spec.classes)],
        rule_texts=rule_texts,
        warmup=blocks[: spec.warmup_ops],
        timed=blocks[spec.warmup_ops :],
        rule_model=rule_model,
        facts={
            "rules": spec.rules,
            "universe_types": len(universe),
            "events_per_op": spec.events_per_op,
            "unwatched_types_in_stream": len(cold),
            "watched_types_in_stream": len(hot),
            "watched_event_share": 0.005,
            "final_eb_length": total * spec.events_per_op,
        },
    )


def stream_oracle(
    inputs: Inputs,
) -> tuple[list[tuple[str, int, int, bool, str]], dict[str, int]]:
    """Considerations and per-rule triggerings a stream run must produce.

    The paper's semantics for this rule shape: a rule ``A , B`` is triggered
    by a block that holds an occurrence of A or B more recent than the rule's
    last consideration; triggered immediate rules are considered at once,
    highest priority first and in definition order among equals; a
    consideration with an empty condition yields one binding and executes the
    (empty) action; a rule conjoined with the never-emitted ghost type is
    never triggered.  Blocks carry one time stamp each, so a consideration at
    block *t* consumes exactly that block's events.
    """
    watchers: dict[EventType, list[int]] = {}
    for order, (_name, types, live, _priority) in enumerate(inputs.rule_model):
        if live:
            for event_type in set(types):
                watchers.setdefault(event_type, []).append(order)
    records: list[tuple[str, int, int, bool, str]] = []
    triggered = {name: 0 for name, _types, _live, _priority in inputs.rule_model}
    for block in inputs.warmup + inputs.timed:
        instant = block[-1].timestamp
        hit = {
            order
            for event_type in {occurrence.event_type for occurrence in block}
            for order in watchers.get(event_type, ())
        }
        for order in sorted(hit, key=lambda o: (-inputs.rule_model[o][3], o)):
            name = inputs.rule_model[order][0]
            triggered[name] += 1
            records.append((name, instant, 1, True, "stream"))
    return records, triggered


# ---------------------------------------------------------------------------
# Transaction workload
# ---------------------------------------------------------------------------

_TX_CLASSES: list[tuple[str, dict[str, type] | None, str | None]] = [
    (
        "stock",
        {
            "name": str,
            "quantity": int,
            "minquantity": int,
            "maxquantity": int,
            "onorder": int,
        },
        None,
    ),
    ("show", {"name": str, "quantity": int, "item": object}, None),
    ("order", {"customer": str, "amount": int, "status": str}, None),
    ("notFilledOrder", {"customer": str, "amount": int, "status": str}, "order"),
    ("stockOrder", {"item": object, "delquantity": int}, None),
    ("audit", {"entries": int}, None),
]

_STOCK_ITEMS = 200
_SHELF_PRODUCTS = 100


def _stock_values(name: str, quantity: int) -> dict[str, Any]:
    return {
        "name": name,
        "quantity": quantity,
        "minquantity": 10,
        "maxquantity": 100,
        "onorder": 0,
    }


def _tx_inputs(spec: Workload, seed: int, ops: int) -> Inputs:
    """Transaction scripts over a stationary object population.

    A script step is ``("create", slot, class, values)``, ``("modify", slot,
    attribute, value)`` or ``("delete", slot)``; a *slot* indexes the runner's
    list of objects, which the seeded population fills first.  Each
    transaction holds the same 25 steps in a seeded order: 10 + 4 quantity
    modifies (4 of them on an item whose minimum was just raised, so the
    instance-oriented precedence of ``reorderStock`` is exercised), 4 shelf
    modifies, 2 order creates with 1 amount modify, 1 stock create — and the
    deletes of the previous transaction's 2 orders and 1 stock item, so the
    live population stays at its seeded size.
    """
    rng = random.Random(seed)
    population: list[tuple[str, dict[str, Any]]] = []
    for index in range(_STOCK_ITEMS):
        population.append(("stock", _stock_values(f"item-{index}", 50)))
    for index in range(_SHELF_PRODUCTS):
        population.append(
            ("show", {"name": f"shelf-{index}", "quantity": 10, "item": index})
        )
    population.append(("audit", {"entries": 0}))
    stock_slots = range(_STOCK_ITEMS)
    show_slots = range(_STOCK_ITEMS, _STOCK_ITEMS + _SHELF_PRODUCTS)
    # What the first transaction deletes in place of "the previous one's".
    population.append(("order", {"customer": "c-0", "amount": 1, "status": "new"}))
    population.append(("order", {"customer": "c-1", "amount": 1, "status": "new"}))
    population.append(("stock", _stock_values("spare", 50)))
    next_slot = len(population)
    doomed = [next_slot - 3, next_slot - 2, next_slot - 1]

    transactions: list[list[tuple]] = []
    for number in range(spec.warmup_ops + ops):
        free: list[tuple] = []
        chains: list[list[tuple]] = []
        for slot in rng.sample(stock_slots, 10):
            free.append(("modify", slot, "quantity", rng.randint(0, 150)))
        for slot in rng.sample(stock_slots, 4):
            minimum = rng.randint(5, 60)
            # Below the new minimum every other time: the reorder fires.
            quantity = rng.randint(0, 4) if rng.random() < 0.5 else 100
            chains.append(
                [
                    ("modify", slot, "minquantity", minimum),
                    ("modify", slot, "quantity", quantity),
                ]
            )
        for slot in rng.sample(show_slots, 4):
            free.append(("modify", slot, "quantity", rng.randint(0, 30)))
        placed, backlog, item = next_slot, next_slot + 1, next_slot + 2
        next_slot += 3
        customer = f"customer-{rng.randint(0, 9)}"
        chains.append(
            [
                (
                    "create",
                    placed,
                    "order",
                    {"customer": customer, "amount": 0, "status": "new"},
                ),
                ("modify", placed, "amount", rng.randint(1, 5)),
            ]
        )
        free.append(
            (
                "create",
                backlog,
                "order",
                {"customer": customer, "amount": 0, "status": "new"},
            )
        )
        free.append(
            (
                "create",
                item,
                "stock",
                _stock_values(f"new-{number}", rng.randint(0, 150)),
            )
        )
        free.extend(("delete", slot) for slot in doomed)
        doomed = [placed, backlog, item]
        # Seeded interleaving that keeps each chain's internal order: shuffle
        # the positions, then deal every chain its positions in rising order.
        steps: list[tuple | None] = [None] * (
            len(free) + sum(len(chain) for chain in chains)
        )
        positions = list(range(len(steps)))
        rng.shuffle(positions)
        cursor = 0
        for chain in chains:
            own = sorted(positions[cursor : cursor + len(chain)])
            cursor += len(chain)
            for position, step in zip(own, chain):
                steps[position] = step
        for position, step in zip(positions[cursor:], free):
            steps[position] = step
        transactions.append(steps)  # type: ignore[arg-type]
    return Inputs(
        classes=list(_TX_CLASSES),
        rule_texts=[
            CHECK_STOCK_QTY_RULE,
            REORDER_RULE,
            SHELF_REFILL_RULE,
            FULFIL_ORDERS_RULE,
            AUDIT_ACTIVITY_RULE,
        ],
        warmup=transactions[: spec.warmup_ops],
        timed=transactions[spec.warmup_ops :],
        population=population,
        facts={
            "rules": spec.rules,
            "immediate_rules": 3,
            "deferred_rules": 3,
            "operations_per_op": spec.events_per_op,
            "object_population": len(population),
            "stock_items": _STOCK_ITEMS,
            "shelf_products": _SHELF_PRODUCTS,
        },
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_BUILDERS = {
    "stream.check_heavy": _check_heavy_inputs,
    "stream.ingest_heavy": _ingest_heavy_inputs,
    "cluster.processes": _check_heavy_inputs,
    "tx.stock_orders": _tx_inputs,
}


def generate(workload: str, seed: int, ops: int, scale: float = 1.0) -> Inputs:
    """The inputs of ``workload`` for ``seed`` with ``ops`` timed operations.

    ``scale`` shrinks a stream workload's rule and class counts together (the
    smoke mode's fifth), which keeps the candidates per block; the transaction
    workload has nothing to shrink but its op count.
    """
    spec = WORKLOADS[workload]
    if spec.kind == "stream" and scale != 1.0:
        spec = replace(
            spec, rules=int(spec.rules * scale), classes=int(spec.classes * scale)
        )
    return _BUILDERS[workload](spec, seed, ops)


def digest(
    records: Iterable[tuple[str, int, int, bool, str]], triggered: dict[str, int]
) -> str:
    """sha256 over the ordered considerations and the sorted triggering counts."""
    sha = hashlib.sha256()
    for record in records:
        sha.update(repr(tuple(record)).encode())
    sha.update(repr(sorted(triggered.items())).encode())
    return sha.hexdigest()


def fingerprint(inputs: Inputs) -> str:
    """sha256 over everything the engine is fed (same seed -> same value)."""
    sha = hashlib.sha256()
    sha.update(repr(inputs.classes).encode())
    sha.update(repr(inputs.rule_texts).encode())
    sha.update(repr(inputs.population).encode())
    for op in inputs.warmup + inputs.timed:
        for step in op:
            if isinstance(step, EventOccurrence):
                step = (step.eid, str(step.event_type), step.oid, step.timestamp)
            sha.update(repr(step).encode())
    return sha.hexdigest()
