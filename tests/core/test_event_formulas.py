"""Event formulas of paper §3.3: ``occurred`` bindings and ``at`` occurrence instants.

Conditions evaluate the formulas through the compiled instance kernel
(:meth:`CheckBinder.bind_instance` → :meth:`CompiledCheck.affected` /
:meth:`CompiledCheck.arises`, which the package's ``active_objects`` /
``activation_instants`` call); the interpreter's in ``tests/oracle.py`` are
the oracle.  Every example below asks both, and a
differential property test pins them equal over random instance expressions
(all four instance operators, negation included), random histories and every
window structure — the Event Base itself and a zero-copy :class:`BoundedView`
with random ``(after, until]`` bounds — and an evaluation instant at or past
``until``.  Hand-built shapes over the class-level ``modify(alpha)`` are
swept the same way, so every instance operator is compared on a pattern
that matches more than one concrete type.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.compile import CheckBinder, activation_instants, active_objects
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.objects import ObjectStore
from repro.oodb.schema import Schema
from repro.rules.conditions import Condition, ConditionContext, OccurredFormula
from repro.workloads.generator import ExpressionGenerator

from tests import oracle
from tests.conftest import history

CREATE_STOCK = EventType(Operation.CREATE, "stock")
MODIFY_QTY = EventType(Operation.MODIFY, "stock", "quantity")
DELETE_STOCK = EventType(Operation.DELETE, "stock")

MODES = tuple(oracle.EvaluationMode)
#: What histories are made of: three classes' worth of concrete types.
CONCRETE = (
    EventType(Operation.CREATE, "alpha"),
    EventType(Operation.DELETE, "alpha"),
    EventType(Operation.MODIFY, "alpha", "size"),
    EventType(Operation.MODIFY, "alpha", "name"),
    EventType(Operation.CREATE, "beta"),
)
#: What formulas mention: the concrete types, a class-level pattern that
#: matches two of them, and a type no history holds.
PATTERNS = CONCRETE + (
    EventType(Operation.MODIFY, "alpha"),
    EventType(Operation.DELETE, "gamma"),
)
OIDS = ("o1", "o2", "o3", 4)
INSTANCE_OPERATORS = {
    "InstanceConjunction",
    "InstanceDisjunction",
    "InstanceNegation",
    "InstancePrecedence",
}


def occurred(expression, window, instant):
    """``occurred``'s binding set: the compiled one, equal to the oracle's."""
    expected = oracle.active_objects(expression, window, instant)
    assert active_objects(expression, window, instant) == expected
    return expected


def at(expression, window, oid, until):
    """``at``'s instants for ``oid``: the compiled ones, equal to the oracle's."""
    expected = oracle.activation_instants(expression, window, oid, until)
    assert activation_instants(expression, window, oid, until) == expected
    return expected


class TestOccurredBindings:
    """``occurred(create(stock) <= modify(stock.quantity), X)`` from §3.3."""

    expression = parse_expression("create(stock) <= modify(stock.quantity)")

    def test_binds_objects_created_then_modified(self):
        window = history(
            (CREATE_STOCK, "o1", 1),
            (CREATE_STOCK, "o2", 2),
            (MODIFY_QTY, "o1", 3),
        )
        assert occurred(self.expression, window, 4) == {"o1"}

    def test_binding_respects_order(self):
        window = history((MODIFY_QTY, "o1", 1), (CREATE_STOCK, "o1", 2))
        assert occurred(self.expression, window, 4) == set()

    def test_consuming_window_hides_older_occurrences(self):
        # The same history observed through a consuming window that starts
        # after the creation no longer exposes the composite occurrence.
        full = history((CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o1", 3))
        consuming = history((MODIFY_QTY, "o1", 3))
        assert occurred(self.expression, full, 4) == {"o1"}
        assert occurred(self.expression, consuming, 4) == set()

    def test_net_effect_style_formula(self):
        """The paper's footnote: net effect of creation with later deletion."""
        expression = parse_expression(
            "(create(stock) <= modify(stock.quantity)) += -=delete(stock)"
        )
        window_kept = history((CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o1", 2))
        window_deleted = history(
            (CREATE_STOCK, "o2", 1), (MODIFY_QTY, "o2", 2), (DELETE_STOCK, "o2", 3)
        )
        assert occurred(expression, window_kept, 5) == {"o1"}
        assert occurred(expression, window_deleted, 5) == set()


class TestUntouchedObjects:
    """``occurred(-=modify(stock.quantity), S)``: the formula holds for the
    objects its own type never touched, so the binding set comes from the
    untouched-object probe, not from the kernel's per-object runs."""

    expression = parse_expression("-=modify(stock.quantity)")

    def world(self):
        event_base = EventBase()
        event_base.record(CREATE_STOCK, "o1", 1)
        event_base.record(MODIFY_QTY, "o2", 2)
        event_base.record(CREATE_STOCK, "o3", 3)
        event_base.record(MODIFY_QTY, "o1", 4)
        return event_base

    def test_every_window_object_the_type_missed_is_bound(self):
        event_base = self.world()
        assert occurred(self.expression, event_base, 5) == {"o3"}
        # The view ends before o1's modification: o1 is untouched in it.
        assert occurred(self.expression, event_base.view(until=3), 5) == {"o1", "o3"}
        # A view that holds only the modification of o1 binds nothing.
        assert occurred(self.expression, event_base.view(after=3), 5) == set()

    def test_through_a_condition(self):
        event_base = self.world()
        context = ConditionContext(
            schema=Schema(), store=ObjectStore(), window=event_base.view(until=3), now=4
        )
        condition = Condition((OccurredFormula(self.expression, "S"),))
        assert condition.evaluate(context) == [{"S": "o1"}, {"S": "o3"}]

    def test_an_object_outside_the_window_is_not_bound(self):
        # The probe says "true for every untouched object", but the binding
        # set only ranges over the objects the window mentions.
        assert occurred(self.expression, EventBase(), 3) == set()


class TestAtOccurrenceInstants:
    """``at(create(stock) <= modify(stock.quantity), X, T)``: one instant per arising."""

    expression = parse_expression("create(stock) <= modify(stock.quantity)")

    def test_two_updates_yield_two_instants(self):
        # §3.3: "if the creation of a stock object is followed by two updates of
        # its quantity, the specified composite event occurs twice, exactly
        # when the two updates occur".
        window = history(
            (CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o1", 3), (MODIFY_QTY, "o1", 5)
        )
        assert at(self.expression, window, "o1", until=6) == [3, 5]

    def test_no_instants_before_the_sequence_completes(self):
        window = history((CREATE_STOCK, "o1", 1))
        assert at(self.expression, window, "o1", until=9) == []

    def test_instants_respect_the_until_bound(self):
        window = history(
            (CREATE_STOCK, "o1", 1), (MODIFY_QTY, "o1", 3), (MODIFY_QTY, "o1", 5)
        )
        assert at(self.expression, window, "o1", until=4) == [3]

    def test_instants_are_per_object(self):
        window = history(
            (CREATE_STOCK, "o1", 1),
            (CREATE_STOCK, "o2", 2),
            (MODIFY_QTY, "o1", 3),
            (MODIFY_QTY, "o2", 6),
        )
        assert at(self.expression, window, "o1", until=9) == [3]
        assert at(self.expression, window, "o2", until=9) == [6]

    def test_primitive_instants_are_its_occurrences(self):
        window = history((MODIFY_QTY, "o1", 2), (MODIFY_QTY, "o1", 7))
        primitive = parse_expression("modify(stock.quantity)")
        assert at(primitive, window, "o1", until=9) == [2, 7]

    def test_a_negation_arises_at_the_stamps_of_other_types(self):
        """``at`` is no sign test: ``ots(t) == t`` holds for an untouched
        object at *every* stamp, other types' included, so the instants
        ``arises`` samples cannot be narrowed to the formula's own stamps the
        way the exact check's are."""
        create_a = EventType(Operation.CREATE, "a")
        create_b = EventType(Operation.CREATE, "b")
        window = history(
            (create_a, "o1", 1),
            (create_b, "o3", 2),
            (create_b, "o4", 3),
            (create_a, "o1", 4),
        )
        negation = parse_expression("-=create(a)")
        assert at(negation, window, "o2", until=5) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# The compiled formulas equal the oracle
# ---------------------------------------------------------------------------


def _operators(expression) -> set[str]:
    return {type(node).__name__ for node in expression.walk()}


def _windows(event_base: EventBase, after, until) -> dict:
    """The two structures the calculus accepts, over the same rows."""
    return {
        "event base": event_base,
        "bounded view": event_base.view(after=after, until=until),
    }


def assert_formulas_match(expression, window, now, at_until, mode) -> None:
    binding = CheckBinder().bind_instance(expression)
    expected = oracle.active_objects(expression, window, now, mode=mode)
    assert binding.affected(window, now) == expected, (expression, now)
    for oid in [*OIDS, "ghost"]:
        assert binding.arises(window, oid, at_until) == oracle.activation_instants(
            expression, window, oid, at_until, mode
        ), (expression, oid, at_until)


@st.composite
def worlds(draw):
    """``(event base, after, until, now, at_until)`` with ``now >= until``."""
    event_base = EventBase()
    stamp = 1
    rows = st.tuples(
        st.sampled_from(CONCRETE), st.sampled_from(OIDS), st.integers(0, 2)
    )
    for event_type, oid, gap in draw(st.lists(rows, max_size=14)):
        stamp += gap
        event_base.record(event_type, oid, stamp)
    until = draw(st.one_of(st.none(), st.integers(1, stamp + 1)))
    after = draw(st.one_of(st.none(), st.integers(0, until if until else stamp + 1)))
    now = draw(st.integers(until or stamp, (until or stamp) + 3))
    at_until = draw(st.integers(1, now))
    return event_base, after, until, now, at_until


@settings(max_examples=300, deadline=None)
@given(
    world=worlds(),
    seed=st.integers(0, 10_000),
    operators=st.integers(0, 4),
    mode=st.sampled_from(MODES),
    kind=st.sampled_from(["event base", "bounded view"]),
)
def test_compiled_formulas_equal_the_oracle(world, seed, operators, mode, kind):
    event_base, after, until, now, at_until = world
    generator = ExpressionGenerator(event_types=PATTERNS, seed=seed)
    expression = generator.instance_expression(operators)
    window = _windows(event_base, after, until)[kind]
    if kind == "event base":
        now = max(now, event_base.latest_timestamp() or 1)
    assert_formulas_match(expression, window, now, at_until, mode)


class _SeededWorld:
    """A random history and window bounds drawn from one seed."""

    def __init__(self, seed: int) -> None:
        rng = self.rng = random.Random(seed)
        self.event_base = EventBase()
        stamp = 1
        for _ in range(rng.randint(0, 16)):
            stamp += rng.randint(0, 2)
            self.event_base.record(rng.choice(CONCRETE), rng.choice(OIDS), stamp)
        self.last = stamp
        self.until = rng.randint(1, stamp + 1)
        self.after = rng.choice((None, rng.randint(0, self.until)))
        self.now = self.until + rng.randint(0, 3)

    def compare(self, expression) -> None:
        """The formulas on the Event Base and on the bounded view, both modes."""
        rng = self.rng
        for kind, window in _windows(self.event_base, self.after, self.until).items():
            instant = max(self.now, self.last) if kind == "event base" else self.now
            for mode in MODES:
                assert_formulas_match(
                    expression, window, instant, rng.randint(1, instant), mode
                )


def test_every_instance_operator_is_compared_on_every_window():
    """A seeded sweep that provably reaches all four instance operators."""
    seen: set[str] = set()
    for seed in range(60):
        world = _SeededWorld(seed)
        generator = ExpressionGenerator(event_types=PATTERNS, seed=seed)
        for operators in range(1, 5):
            expression = generator.instance_expression(operators)
            seen |= _operators(expression)
            world.compare(expression)
    assert seen >= INSTANCE_OPERATORS


#: Hand-built shapes over the class-level ``modify(alpha)``, which matches two
#: of the concrete types: a primitive and every instance operator read its
#: pattern list.
CLASS_LEVEL_SHAPES = tuple(
    parse_expression(text)
    for text in (
        "modify(alpha)",
        "create(alpha) <= modify(alpha)",
        "modify(alpha) <= delete(alpha)",
        "-=modify(alpha) += create(beta)",
        "modify(alpha) ,= -=create(alpha)",
    )
)


def test_class_level_shapes_are_compared_on_every_window():
    """A seeded sweep of the class-level shapes over every window structure."""
    for seed in range(40):
        world = _SeededWorld(seed)
        for expression in CLASS_LEVEL_SHAPES:
            world.compare(expression)
