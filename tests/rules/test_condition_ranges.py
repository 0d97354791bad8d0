"""``Condition.evaluate`` equals the naïve atom-by-atom fold, order included.

A class range that a later ``occurred`` / ``at`` formula restricts enumerates
the formula's affected objects instead of its extent (PR 18).  That is an
evaluation strategy, not a change of meaning: for random schemas with a
subclass chain, random stores (tombstones included), random windows (string
and integer ids next to store OIDs) and conditions with the atoms in any
order, the binding list must be the one enumerate-then-filter produces —
:func:`naive_fold`, which keeps the pre-PR-18 ``ClassRange.extend`` — element
by element, and every :class:`CallableAtom` must be shown the same bindings.
"""

from __future__ import annotations

from typing import Any

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.compile import CompiledCheck
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.objects import OID, ObjectStore
from repro.oodb.schema import Schema
from repro.rules.conditions import (
    AtFormula,
    CallableAtom,
    ClassRange,
    Comparison,
    Condition,
    ConditionContext,
    OccurredFormula,
)
from repro.rules.terms import AttrRef, Const

CHAIN = ("c0", "c1", "c2")
EXPRESSIONS = [
    parse_expression(text)
    for text in (
        "create(c0)",
        "modify(c0.v)",
        "modify(c1.v)",
        "create(d0)",
        "create(c0) += modify(c0.v)",
        "create(c0) ,= create(c1)",
        "create(c0) <= modify(c0.v)",
        "-=delete(c0)",
    )
]
EVENT_TYPES = [
    EventType(Operation.CREATE, "c0"),
    EventType(Operation.CREATE, "c1"),
    EventType(Operation.CREATE, "d0"),
    EventType(Operation.MODIFY, "c0", "v"),
    EventType(Operation.MODIFY, "c1", "v"),
    EventType(Operation.DELETE, "c0"),
]
VARIABLES = ("X", "Y")
#: ``X`` doubles as a time variable: an ``at`` formula may rebind a range
#: variable to an instant, which is where the range's look-ahead must stop.
TIME_VARIABLES = ("T", "X")


def naive_range(atom: ClassRange, bindings: list[dict], context) -> list[dict]:
    """``ClassRange.extend`` as it was before PR 18: the whole extent, always."""
    subclasses = (
        context.schema.descendants(atom.class_name) if atom.include_subclasses else None
    )
    members = context.store.objects_of_class(atom.class_name, subclasses)
    extended: list[dict[str, Any]] = []
    for binding in bindings:
        if atom.variable in binding:
            oid = binding[atom.variable]
            if any(member.oid == oid for member in members):
                extended.append(binding)
            continue
        for member in members:
            grown = dict(binding)
            grown[atom.variable] = member.oid
            extended.append(grown)
    return extended


def naive_fold(atoms, context) -> list[dict]:
    """The oracle: every atom sees every binding the previous ones produced."""
    bindings: list[dict[str, Any]] = [{}]
    for atom in atoms:
        if isinstance(atom, ClassRange):
            bindings = naive_range(atom, bindings, context)
        else:
            bindings = atom.extend(bindings, context)
        if not bindings:
            return []
    return bindings


@st.composite
def worlds(draw):
    """``(schema, store, event base, after, until)``."""
    classes = list(CHAIN[: draw(st.integers(1, 3))])
    schema = Schema()
    for index, name in enumerate(classes):
        superclass = classes[index - 1] if index else None
        schema.define(name, {"v": int}, superclass=superclass)
    schema.define("d0", {"v": int})
    classes.append("d0")

    store = ObjectStore()
    population = draw(
        st.lists(
            st.tuples(st.sampled_from(classes), st.integers(0, 5), st.booleans()),
            max_size=8,
        )
    )
    for class_name, value, deleted in population:
        obj = store.insert(class_name, {"v": value}, timestamp=1)
        if deleted:
            store.delete(obj.oid, timestamp=1)
    # Ids the store does not know: strings, integers (equal to instants of
    # the window, on purpose) and a well-formed OID that was never stored.
    ids = [obj.oid for obj in store.all_objects(include_deleted=True)]
    ids += ["s0", "s1", 1, 2, 3, OID("c0", 99)]

    event_base = EventBase()
    history = draw(
        st.lists(
            st.tuples(st.sampled_from(EVENT_TYPES), st.sampled_from(ids)), max_size=10
        )
    )
    for instant, (event_type, oid) in enumerate(history, start=1):
        event_base.record(event_type, oid, instant)
    until = draw(st.integers(1, len(history) + 1))
    after = draw(st.one_of(st.none(), st.integers(0, until)))
    return schema, store, event_base, after, until, classes


def atom_specs():
    variable = st.sampled_from(VARIABLES)
    expression = st.sampled_from(EXPRESSIONS)
    return st.one_of(
        st.tuples(st.just("range"), variable, st.integers(0, 3), st.booleans()),
        st.tuples(st.just("occurred"), expression, variable),
        st.tuples(st.just("at"), expression, variable, st.sampled_from(TIME_VARIABLES)),
        st.tuples(
            st.just("compare"),
            variable,
            st.sampled_from(["<", ">=", "!="]),
            st.integers(0, 5),
        ),
        st.tuples(st.just("callable"), st.sampled_from(["filter", "expand"]), variable),
    )


def build_atoms(specs, classes, store, seen):
    """Atoms from specs; a comparison is kept only where it is well formed.

    (Its variable ranged over a class earlier and no ``at`` formula rebinds it
    to an instant: on a malformed condition both evaluations raise, but the
    fold may get to the offending binding where the restricted range has
    already run dry.)
    """
    rebound = {spec[3] for spec in specs if spec[0] == "at"}
    ranged: set[str] = set()
    atoms = []
    for spec in specs:
        kind = spec[0]
        if kind == "range":
            atoms.append(ClassRange(spec[1], classes[spec[2] % len(classes)], spec[3]))
            ranged.add(spec[1])
        elif kind == "occurred":
            atoms.append(OccurredFormula(spec[1], spec[2]))
        elif kind == "at":
            atoms.append(AtFormula(spec[1], spec[2], spec[3]))
        elif kind == "compare":
            if spec[1] in ranged and spec[1] not in rebound:
                atoms.append(Comparison(AttrRef(spec[1], "v"), spec[2], Const(spec[3])))
        else:
            atoms.append(CallableAtom(observer(spec[1], spec[2], store, seen)))
    return atoms


def observer(kind: str, variable: str, store: ObjectStore, seen: list):
    """A callable atom that records what it is shown, then filters or expands."""
    members = [obj.oid for obj in store.all_objects()][:2]

    def function(binding, context):
        seen.append(dict(binding))
        if kind == "filter":
            return len(str(binding.get(variable))) % 2 == 0
        return [{**binding, variable: oid} for oid in members]

    return function


@settings(max_examples=400, deadline=None)
@given(world=worlds(), specs=st.lists(atom_specs(), min_size=1, max_size=5))
def test_evaluate_equals_the_naive_fold(world, specs):
    schema, store, event_base, after, until, classes = world
    window = event_base.view(after=after, until=until)

    def context():
        return ConditionContext(schema=schema, store=store, window=window, now=until)

    shown_to_fold: list[dict] = []
    expected = naive_fold(build_atoms(specs, classes, store, shown_to_fold), context())
    shown: list[dict] = []
    condition = Condition(tuple(build_atoms(specs, classes, store, shown)))
    assert condition.evaluate(context()) == expected
    assert shown == shown_to_fold


class TestRestrictedRange:
    """The shapes of the paper's rules, spelled out."""

    @staticmethod
    def world():
        schema = Schema()
        schema.define("stock", {"quantity": int})
        schema.define("perishable", {"quantity": int}, superclass="stock")
        schema.define("order", {"quantity": int})
        store = ObjectStore()
        items = [store.insert("stock", {"quantity": n}, timestamp=1) for n in range(12)]
        fresh = store.insert("perishable", {"quantity": 9}, timestamp=1)
        order = store.insert("order", {"quantity": 1}, timestamp=1)
        gone = store.insert("stock", {"quantity": 0}, timestamp=1)
        store.delete(gone.oid, timestamp=1)
        event_base = EventBase()
        created = EventType(Operation.CREATE, "stock")
        touched = [items[10], fresh, items[1], order, gone]
        for instant, obj in enumerate(touched, start=1):
            event_base.record(created, obj.oid, instant)
        event_base.record(created, "not-an-oid", 6)
        context = ConditionContext(
            schema=schema, store=store, window=event_base.view(until=6), now=6
        )
        return context, items, fresh

    def test_range_before_formula_binds_affected_members_in_extent_order(self):
        context, items, fresh = self.world()
        created = parse_expression("create(stock)")
        condition = Condition((ClassRange("S", "stock"), OccurredFormula(created, "S")))
        bound = [binding["S"] for binding in condition.evaluate(context)]
        # Not the order of occurrence, not str() order (stock#11 < stock#2).
        assert bound == [fresh.oid, items[1].oid, items[10].oid]

    def test_the_extent_is_not_enumerated(self, monkeypatch):
        context, items, _fresh = self.world()
        monkeypatch.setattr(
            ObjectStore, "objects_of_class", lambda *a, **k: pytest.fail("scanned")
        )
        created = parse_expression("create(stock)")
        restricted = Condition(
            (
                ClassRange("S", "stock", include_subclasses=False),
                Comparison(AttrRef("S", "quantity"), ">", Const(1)),
                AtFormula(created, "S", "T"),
            )
        )
        assert restricted.evaluate(context) == [{"S": items[10].oid, "T": 1}]
        already_bound = Condition(
            (OccurredFormula(created, "S"), ClassRange("S", "perishable"))
        )
        assert len(already_bound.evaluate(context)) == 1

    def test_a_callable_atom_in_between_sees_the_whole_extent(self):
        context, items, fresh = self.world()
        shown: list[dict] = []
        created = parse_expression("create(stock)")
        condition = Condition(
            (
                ClassRange("S", "stock"),
                CallableAtom(lambda binding, _context: shown.append(binding) or True),
                OccurredFormula(created, "S"),
            )
        )
        assert len(condition.evaluate(context)) == 3
        assert len(shown) == len(items) + 1

    def test_an_at_formula_rebinding_the_variable_stops_the_lookahead(self):
        context, items, _fresh = self.world()
        # Integer ids (stream workloads use them) can equal instants: here the
        # object "2" was created, and items[0] was modified at instant 2.
        event_base = EventBase()
        event_base.record(EventType(Operation.CREATE, "stock"), 2, 1)
        modified = EventType(Operation.MODIFY, "stock", "quantity")
        event_base.record(modified, items[0].oid, 2)
        context.window = event_base.view(until=2)
        context.now = 2
        atoms = (
            ClassRange("S", "order"),
            AtFormula(parse_expression("modify(stock.quantity)"), "I", "S"),
            OccurredFormula(parse_expression("create(stock)"), "S"),
        )
        assert Condition(atoms).evaluate(context) == [{"S": 2, "I": items[0].oid}]
        assert naive_fold(atoms, context) == [{"S": 2, "I": items[0].oid}]

    def test_the_affected_set_is_computed_once_per_consideration(self, monkeypatch):
        calls: list[Any] = []
        real = CompiledCheck.affected

        def counted(binding, window, instant):
            calls.append(binding.expression)
            return real(binding, window, instant)

        monkeypatch.setattr(CompiledCheck, "affected", counted)
        context, *_ = self.world()
        created = parse_expression("create(stock)")
        condition = Condition((ClassRange("S", "stock"), OccurredFormula(created, "S")))
        assert len(condition.evaluate(context)) == 3
        assert calls == [created]

