"""Synthetic event streams and random composite expressions.

The paper has no quantitative evaluation section, so the tests, the examples
and ``chimera-events workload`` exercise the implementation on synthetic
inputs.  Two generators are provided:

* :class:`EventStreamGenerator` — random streams of primitive event
  occurrences over a configurable universe of event types and objects, grouped
  into blocks (the unit after which the Trigger Support runs);
* :class:`ExpressionGenerator` — random composite event expressions with a
  controllable size, operator mix and granularity, always valid with respect
  to the calculus' structural restriction (instance-oriented operators never
  contain set-oriented ones).

Both are seeded and therefore reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.expressions import (
    EventExpression,
    InstanceConjunction,
    InstanceDisjunction,
    InstanceNegation,
    InstancePrecedence,
    Primitive,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.events.clock import SharedTickClock
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase

__all__ = [
    "event_type_universe",
    "EventStreamGenerator",
    "ExpressionGenerator",
    "stream_to_event_base",
]


def event_type_universe(
    classes: int = 3, attributes_per_class: int = 2
) -> list[EventType]:
    """A universe of event types over ``classes`` synthetic classes.

    Every class contributes a ``create``, a ``delete`` and one ``modify`` per
    attribute, which is the shape of real Chimera schemas.
    """
    types: list[EventType] = []
    for class_index in range(classes):
        class_name = f"cls{class_index}"
        types.append(EventType(Operation.CREATE, class_name))
        types.append(EventType(Operation.DELETE, class_name))
        for attribute_index in range(attributes_per_class):
            types.append(
                EventType(Operation.MODIFY, class_name, f"attr{attribute_index}")
            )
    return types


@dataclass
class EventStreamGenerator:
    """Generates random blocks of event occurrences.

    ``events_per_block`` occurrences are drawn per block (uniformly over the
    type universe and the object population); occurrences in the same block may
    share a time stamp when ``shared_block_timestamps`` is set, mirroring
    Chimera's "one block, one burst of events" behaviour.
    """

    event_types: Sequence[EventType] = field(default_factory=event_type_universe)
    objects_per_class: int = 5
    events_per_block: int = 3
    shared_block_timestamps: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        self._random = random.Random(self.seed)
        self._clock = SharedTickClock()
        self._eid = 0

    def _object_pool(self, event_type: EventType) -> list[str]:
        return [
            f"{event_type.class_name}#{index}"
            for index in range(1, self.objects_per_class + 1)
        ]

    def next_block(self) -> list[EventOccurrence]:
        """Generate the next block of occurrences."""
        block: list[EventOccurrence] = []
        for position in range(self.events_per_block):
            event_type = self._random.choice(list(self.event_types))
            oid = self._random.choice(self._object_pool(event_type))
            if not self.shared_block_timestamps or position == 0:
                self._clock.advance()
            self._eid += 1
            block.append(
                EventOccurrence(
                    eid=self._eid,
                    event_type=event_type,
                    oid=oid,
                    timestamp=self._clock.now(),
                )
            )
        return block

    def blocks(self, count: int) -> list[list[EventOccurrence]]:
        """Generate ``count`` blocks."""
        return [self.next_block() for _ in range(count)]

    def reset(self) -> None:
        """Restart the generator from its seed (reproduces the same stream)."""
        self._random = random.Random(self.seed)
        self._clock = SharedTickClock()
        self._eid = 0


def stream_to_event_base(blocks: Sequence[Sequence[EventOccurrence]]) -> EventBase:
    """Materialize a generated stream into an :class:`EventBase`."""
    event_base = EventBase()
    for block in blocks:
        for occurrence in block:
            event_base.append(occurrence)
    return event_base


@dataclass
class ExpressionGenerator:
    """Generates random, structurally valid composite event expressions."""

    event_types: Sequence[EventType] = field(default_factory=event_type_universe)
    seed: int = 0
    #: Relative weights of the set-oriented operators when growing a node.
    conjunction_weight: float = 1.0
    disjunction_weight: float = 1.0
    precedence_weight: float = 1.0
    negation_weight: float = 0.5
    #: Probability that a grown leaf position becomes an instance-oriented
    #: sub-expression instead of a primitive.
    instance_probability: float = 0.25
    #: Set to False to generate negation-free expressions.
    allow_negation: bool = True

    def __post_init__(self) -> None:
        self._random = random.Random(self.seed)

    # -- primitives ---------------------------------------------------------
    def primitive(self) -> Primitive:
        """A random primitive leaf."""
        return Primitive(self._random.choice(list(self.event_types)))

    # -- instance-oriented sub-expressions -------------------------------------
    def instance_expression(self, operators: int = 1) -> EventExpression:
        """A random instance-oriented expression with ``operators`` operator nodes."""
        expression: EventExpression = self.primitive()
        for _ in range(operators):
            choice = self._weighted_choice(include_negation=self.allow_negation)
            if choice == "negation":
                expression = InstanceNegation(expression)
                continue
            other = self.primitive()
            if choice == "conjunction":
                expression = InstanceConjunction(expression, other)
            elif choice == "disjunction":
                expression = InstanceDisjunction(expression, other)
            else:
                expression = InstancePrecedence(expression, other)
        return expression

    # -- set-oriented expressions -----------------------------------------------
    def expression(self, operators: int = 3) -> EventExpression:
        """A random set-oriented expression with roughly ``operators`` operator nodes."""
        expression = self._leaf()
        remaining = operators
        while remaining > 0:
            choice = self._weighted_choice(include_negation=self.allow_negation)
            if choice == "negation":
                expression = SetNegation(expression)
                remaining -= 1
                continue
            other = self._leaf()
            if choice == "conjunction":
                expression = SetConjunction(expression, other)
            elif choice == "disjunction":
                expression = SetDisjunction(expression, other)
            else:
                expression = SetPrecedence(expression, other)
            remaining -= 1
        return expression

    def expressions(self, count: int, operators: int = 3) -> list[EventExpression]:
        """Generate ``count`` random expressions."""
        return [self.expression(operators) for _ in range(count)]

    # -- internals ---------------------------------------------------------------
    def _leaf(self) -> EventExpression:
        if self._random.random() < self.instance_probability:
            return self.instance_expression(operators=self._random.randint(1, 2))
        return self.primitive()

    def _weighted_choice(self, include_negation: bool) -> str:
        choices = [
            ("conjunction", self.conjunction_weight),
            ("disjunction", self.disjunction_weight),
            ("precedence", self.precedence_weight),
        ]
        if include_negation and self.negation_weight > 0:
            choices.append(("negation", self.negation_weight))
        total = sum(weight for _, weight in choices)
        draw = self._random.random() * total
        cumulative = 0.0
        for name, weight in choices:
            cumulative += weight
            if draw <= cumulative:
                return name
        return choices[-1][0]
