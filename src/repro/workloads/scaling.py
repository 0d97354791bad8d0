"""Synthetic rule pools and block streams for scale-out runs.

The inputs of ``chimera-events workload`` and of the cluster equivalence
tests: rule pools that keep the untriggered population — the set trigger
planning must cover on every block — at full size however long the stream
runs, over an event-type universe that grows with the pool so the number of
rules an average block reaches stays roughly constant.  Two pool builders
(generated expressions; direct two-type disjunctions that stay cheap to build
at 100k rules) and one stream builder that re-issues a recurring pool of
block *shapes*, the regime signature memoization targets.
"""

from __future__ import annotations

import random

from repro.core.expressions import Primitive, SetConjunction, SetDisjunction
from repro.events.event import EventOccurrence, EventType, Operation
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.workloads.generator import ExpressionGenerator, event_type_universe

__all__ = [
    "GHOST",
    "build_scaling_universe",
    "build_scaling_rules",
    "build_shard_rules",
    "build_shaped_blocks",
]

#: An event type never emitted by the generated streams.  Conjoining it keeps
#: a monitor rule forever untriggered (the worst case: it must be planned /
#: scanned on every relevant block) without silencing its ``V(E)`` — the
#: conjunction still watches the rule's real primitives.
GHOST = EventType(Operation.CREATE, "ghost")


def build_scaling_universe(rule_count: int) -> list[EventType]:
    """A type universe that grows with the rule pool (fixed subscription density).

    Each class contributes four types (create / delete / two modifies); with
    ``rule_count / 8`` classes an average block's types reach a roughly
    constant number of rules however large the table is.
    """
    return event_type_universe(classes=max(2, rule_count // 8), attributes_per_class=2)


def _monitor_rules(expressions, rule_count: int, monitor_fraction: float) -> list[Rule]:
    """Name the expressions ``r0…``, ghost-conjoin the first
    ``monitor_fraction`` of them and cycle priorities 0–6."""
    monitors = int(rule_count * monitor_fraction)
    ghost = Primitive(GHOST)
    return [
        Rule(
            name=f"r{index}",
            events=SetConjunction(expression, ghost) if index < monitors else expression,
            condition=TRUE_CONDITION,
            action=NO_ACTION,
            priority=index % 7,
        )
        for index, expression in enumerate(expressions)
    ]


def build_scaling_rules(
    rule_count: int,
    universe: list[EventType],
    seed: int = 61,
    monitor_fraction: float = 0.9,
    operators: int = 2,
) -> list[Rule]:
    """A rule pool over ``universe``: mostly never-triggering monitors.

    ``monitor_fraction`` of the rules are conjoined with :data:`GHOST` so they
    never trigger and keep the untriggered population at full size; the rest
    trigger and are considered normally.  Expressions are negation-free: a
    top-level negation is vacuously active and triggers on *every* block,
    which would drown the planning-cost signal in consideration churn
    (negation coverage lives in the equivalence property tests).
    """
    generator = ExpressionGenerator(
        event_types=universe, seed=seed, instance_probability=0.15, allow_negation=False
    )
    return _monitor_rules(
        generator.expressions(rule_count, operators=operators),
        rule_count,
        monitor_fraction,
    )


def build_shard_rules(
    rule_count: int,
    universe: list[EventType],
    seed: int = 61,
    monitor_fraction: float = 0.9,
) -> list[Rule]:
    """The same pool shape, built directly: each rule watches a two-type
    disjunction drawn from the universe (the generic expression generator
    needs minutes at 100k rules; planning cost only depends on the
    subscription shape)."""
    rng = random.Random(seed)
    expressions = []
    for _ in range(rule_count):
        left, right = rng.sample(universe, 2)
        expressions.append(SetDisjunction(Primitive(left), Primitive(right)))
    return _monitor_rules(expressions, rule_count, monitor_fraction)


def build_shaped_blocks(
    universe: list[EventType],
    blocks: int,
    events_per_block: int = 12,
    shapes: int = 24,
    types_per_shape: tuple[int, int] = (4, 8),
    seed: int = 7,
    start_eid: int = 1,
) -> list[list[EventOccurrence]]:
    """Blocks drawn from a recurring pool of type-signature shapes."""
    rng = random.Random(seed)
    low, high = types_per_shape
    shape_pool = [
        tuple(rng.sample(universe, rng.randint(low, min(high, len(universe)))))
        for _ in range(shapes)
    ]
    stream: list[list[EventOccurrence]] = []
    eid = start_eid
    for stamp in range(1, blocks + 1):
        shape = rng.choice(shape_pool)
        block: list[EventOccurrence] = []
        for _ in range(events_per_block):
            event_type = rng.choice(shape)
            block.append(
                EventOccurrence(
                    eid=eid,
                    event_type=event_type,
                    oid=f"{event_type.class_name}#{rng.randint(1, 4)}",
                    timestamp=stamp,
                )
            )
            eid += 1
        stream.append(block)
    return stream
