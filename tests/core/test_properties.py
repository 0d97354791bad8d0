"""Property-based tests (hypothesis) for the event calculus invariants.

The invariants are asserted of the package's compiled evaluator; the
differentials pin it to the reference interpreter of ``tests/oracle.py`` in
both of the paper's formulations, and the sign properties that justify the
compiled check's restricted candidates are facts about the reference.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.compile import is_triggered, ots, ts
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
from repro.core.laws import LAWS, check_law
from repro.core.optimization import variation_set
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase

from tests import oracle
from tests.conftest import event_base_of
from tests.oracle import (
    EvaluationMode,
    _combine_conjunction,
    _combine_disjunction,
    _combine_precedence,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

EVENT_TYPES = [
    EventType(Operation.CREATE, "A"),
    EventType(Operation.CREATE, "B"),
    EventType(Operation.CREATE, "C"),
    EventType(Operation.MODIFY, "A", "x"),
]
OIDS = ["o1", "o2", "o3"]

event_types = st.sampled_from(EVENT_TYPES)
oids = st.sampled_from(OIDS)
instants = st.integers(min_value=1, max_value=30)


@st.composite
def histories(draw, min_size: int = 0, max_size: int = 12) -> EventBase:
    """A random Event Base with non-decreasing, possibly repeated time stamps."""
    entries = draw(
        st.lists(
            st.tuples(event_types, oids, instants),
            min_size=min_size,
            max_size=max_size,
        )
    )
    entries.sort(key=lambda entry: entry[2])
    occurrences = [
        EventOccurrence(
            eid=index + 1, event_type=event_type, oid=oid, timestamp=timestamp
        )
        for index, (event_type, oid, timestamp) in enumerate(entries)
    ]
    return event_base_of(occurrences)


def _primitives() -> st.SearchStrategy[EventExpression]:
    return st.builds(Primitive, event_types)


def _extend_instance(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.builds(InstanceConjunction, children, children),
        st.builds(InstanceDisjunction, children, children),
        st.builds(InstancePrecedence, children, children),
        st.builds(InstanceNegation, children),
    )


def _extend_set(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.builds(SetConjunction, children, children),
        st.builds(SetDisjunction, children, children),
        st.builds(SetPrecedence, children, children),
        st.builds(SetNegation, children),
    )


instance_expressions = st.recursive(_primitives(), _extend_instance, max_leaves=4)
set_expressions = st.recursive(
    st.one_of(_primitives(), instance_expressions), _extend_set, max_leaves=5
)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(expression=set_expressions, window=histories(), instant=instants)
def test_logical_and_algebraic_semantics_agree(expression, window, instant):
    """The two formulations of the operator semantics are equivalent, and the
    compiled kernels' one combine set equals both."""
    logical = oracle.ts(expression, window, instant, EvaluationMode.LOGICAL)
    algebraic = oracle.ts(expression, window, instant, EvaluationMode.ALGEBRAIC)
    assert logical == algebraic == ts(expression, window, instant)


@settings(max_examples=120, deadline=None)
@given(
    expression=instance_expressions,
    window=histories(),
    instant=instants,
    oid=oids,
)
def test_logical_and_algebraic_ots_agree(expression, window, instant, oid):
    logical = oracle.ots(expression, window, instant, oid, EvaluationMode.LOGICAL)
    algebraic = oracle.ots(expression, window, instant, oid, EvaluationMode.ALGEBRAIC)
    assert logical == algebraic == ots(expression, window, instant, oid)


def _combined(left: int, right: int, instant: int, mode: EvaluationMode) -> tuple:
    return (
        _combine_conjunction(left, right, mode),
        _combine_disjunction(left, right, mode),
        _combine_precedence(left, right, instant, mode),
    )


def test_combines_agree_in_both_modes_exhaustively():
    """Each combine is one function of its operands in both formulations.

    Every pair of operands in -6..6, zero included, at every instant 1..6:
    the algebraic sums of products of ``u`` equal the logical case analysis
    on every non-zero pair, which is why the compiled kernels build one
    combine set.  The one disagreement is disjunction of a zero and a
    negative operand (``u(-0)`` is 0, so the algebraic form takes the max),
    and zero is no ``ts`` value (``test_ts_value_is_bounded_by_the_instant``).
    """
    names = ("conjunction", "disjunction", "precedence")
    operands = range(-6, 7)
    disagreements = set()
    for left in operands:
        for right in operands:
            for instant in range(1, 7):
                logical = _combined(left, right, instant, EvaluationMode.LOGICAL)
                algebraic = _combined(left, right, instant, EvaluationMode.ALGEBRAIC)
                for name, one, other in zip(names, logical, algebraic):
                    if one != other:
                        disagreements.add((name, left, right))
    assert disagreements == {
        ("disjunction", *pair)
        for negative in range(-6, 0)
        for pair in ((0, negative), (negative, 0))
    }


@settings(max_examples=120, deadline=None)
@given(expression=set_expressions, window=histories(), instant=instants)
def test_negation_flips_the_sign(expression, window, instant):
    """ts(-E, t) == -ts(E, t) for every expression, window and instant."""
    assert ts(SetNegation(expression), window, instant) == -ts(
        expression, window, instant
    )


@settings(max_examples=120, deadline=None)
@given(expression=set_expressions, window=histories(), instant=instants)
def test_ts_value_is_bounded_by_the_instant(expression, window, instant):
    """|ts| never exceeds t, and an active value is a plausible time stamp."""
    value = ts(expression, window, instant)
    assert -instant <= value <= instant
    assert value != 0


@settings(max_examples=120, deadline=None)
@given(window=histories(min_size=1), instant=instants)
def test_primitive_ts_is_last_occurrence_or_minus_t(window, instant):
    for event_type in EVENT_TYPES:
        value = ts(Primitive(event_type), window, instant)
        expected = window.last_timestamp(event_type, instant)
        assert value == (expected if expected is not None else -instant)


@settings(max_examples=120, deadline=None)
@given(
    expression=instance_expressions,
    window=histories(),
    instant=instants,
    oid=oids,
)
def test_instance_activation_never_exceeds_set_activation(
    expression, window, instant, oid
):
    """ots(E, t, oid) <= ts(E, t) for negation-free instance expressions."""
    if any(isinstance(node, InstanceNegation) for node in expression.walk()):
        return
    assert ots(expression, window, instant, oid) <= ts(expression, window, instant)


def _contains_negation(expression: EventExpression) -> bool:
    return any(
        isinstance(node, (SetNegation, InstanceNegation)) for node in expression.walk()
    )


@settings(max_examples=80, deadline=None)
@given(
    window=histories(),
    instant=instants,
    operands=st.lists(set_expressions, min_size=3, max_size=3),
)
def test_every_law_meets_its_guarantee(window, instant, operands):
    """Each §4.3 law holds (at its stated guarantee level) on random operands."""
    has_negation = any(_contains_negation(operand) for operand in operands)
    for law in LAWS:
        if law.negation_free_operands_only and has_negation:
            continue
        result = check_law(law, operands[: law.arity], window, instant)
        assert result.holds, (
            f"{law.name}: lhs={result.lhs_value} rhs={result.rhs_value} at t={instant}"
        )


@settings(max_examples=80, deadline=None)
@given(
    window=histories(),
    instant=instants,
)
def test_negation_restricted_laws_hold_on_primitive_operands(window, instant):
    """Laws restricted to negation-free operands still hold on primitives."""
    operands = [Primitive(event_type) for event_type in EVENT_TYPES[:3]]
    for law in LAWS:
        if not law.negation_free_operands_only:
            continue
        result = check_law(law, operands[: law.arity], window, instant)
        assert result.holds


@settings(max_examples=100, deadline=None)
@given(expression=set_expressions, window=histories(), instant=instants)
def test_evaluation_only_depends_on_past_occurrences(expression, window, instant):
    """ts at instant t ignores occurrences with a later time stamp."""
    truncated = event_base_of(
        [occurrence for occurrence in window if occurrence.timestamp <= instant]
    )
    assert ts(expression, window, instant) == ts(expression, truncated, instant)


@settings(max_examples=100, deadline=None)
@given(
    expression=set_expressions,
    window=histories(max_size=8),
    new_type=event_types,
    new_oid=oids,
)
def test_variation_set_is_sound_for_triggering(expression, window, new_type, new_oid):
    """If V(E) has no positive entry for a type, a new occurrence of that type
    can never turn an untriggered expression into a triggered one.

    Over an empty prior window the invariant holds only for expressions whose
    empty-log sign is negative (``ts(E, EventBase(), 1) <= 0``): a vacuously
    active one (e.g. a pure negation) is blocked only by the ``R != {}``
    condition and any occurrence unblocks it — which is why the Trigger
    Support routes a rule only after one check of a non-empty window.
    """
    if window.is_empty() and ts(expression, EventBase(), 1) > 0:
        return  # vacuously active: the rider set, not V(E), covers it
    positive_types = {
        variation.event_type
        for variation in variation_set(expression)
        if variation.sign.includes_positive()
    }
    matches = any(
        watched.matches(new_type) or new_type.matches(watched)
        for watched in positive_types
    )
    if matches:
        return  # The filter would recompute; nothing to check.

    latest = window.latest_timestamp() or 0
    now = latest + 1
    before = is_triggered(expression, window, last_consideration=None, now=now)
    if before.triggered:
        return  # Already triggered; the filter only matters for untriggered rules.

    appended = list(window) + [
        EventOccurrence(
            eid=10_000, event_type=new_type, oid=new_oid, timestamp=now
        )
    ]
    after = is_triggered(
        expression, event_base_of(appended), last_consideration=None, now=now
    )
    assert not after.triggered, (
        f"occurrence of {new_type} activated {expression} although V(E) said it could not"
    )


# ---------------------------------------------------------------------------
# Where ts can change sign: the exact check's candidate instants
# ---------------------------------------------------------------------------

#: Patterns an expression may name: the concrete types plus a class-level
#: ``modify(A)``, which matches ``modify(A.x)`` and ``modify(A.y)`` rows.
SIGN_PATTERNS = EVENT_TYPES + [EventType(Operation.MODIFY, "A")]
#: Types a log row may have: also ``modify(A.y)``, which only the class-level
#: pattern matches, and ``create(D)``, which no expression names.
SIGN_LOG_TYPES = EVENT_TYPES + [
    EventType(Operation.MODIFY, "A", "y"),
    EventType(Operation.CREATE, "D"),
]

_pattern_primitives = st.builds(Primitive, st.sampled_from(SIGN_PATTERNS))
pattern_instance_expressions = st.recursive(
    _pattern_primitives, _extend_instance, max_leaves=4
)
pattern_set_expressions = st.recursive(
    st.one_of(_pattern_primitives, pattern_instance_expressions),
    _extend_set,
    max_leaves=5,
)
bounds = st.one_of(st.none(), instants)


@st.composite
def mixed_logs(draw, max_size: int = 14) -> EventBase:
    """A random Event Base whose rows are often of types no expression names."""
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(SIGN_LOG_TYPES), oids, instants),
            max_size=max_size,
        )
    )
    entries.sort(key=lambda entry: entry[2])
    return event_base_of(
        EventOccurrence(eid=index + 1, event_type=event_type, oid=oid, timestamp=stamp)
        for index, (event_type, oid, stamp) in enumerate(entries)
    )


def _own_stamps(expression: EventExpression, window) -> set[int]:
    """The stamps of the window's rows that one of the expression's types matches."""
    patterns = expression.event_types()
    return {
        row.timestamp
        for row in window
        if any(pattern.matches(row.event_type) for pattern in patterns)
    }


@settings(max_examples=200, deadline=None)
@given(expression=pattern_set_expressions, log=mixed_logs(), after=bounds)
def test_ts_changes_sign_only_at_the_expressions_own_stamps(expression, log, after):
    """Between consecutive distinct stamps of a window, the sign of ``ts``
    stays put unless a row of one of the expression's types sits at the later
    one: primitives move at their own stamps, negation, conjunction and
    disjunction combine signs, precedence moves with its right operand and a
    lift's affected set grows only at its types' stamps."""
    window = log.view(after=after)
    stamps = window.timestamps()
    own = _own_stamps(expression, window)
    for earlier, later in zip(stamps, stamps[1:]):
        if later not in own:
            active = oracle.ts(expression, window, earlier) > 0
            later_active = oracle.ts(expression, window, later) > 0
            assert later_active == active, (earlier, later)


@settings(max_examples=200, deadline=None)
@given(
    expression=pattern_instance_expressions, log=mixed_logs(), after=bounds, oid=oids
)
def test_ots_changes_sign_only_at_the_expressions_own_stamps(
    expression, log, after, oid
):
    window = log.view(after=after)
    stamps = window.timestamps()
    own = _own_stamps(expression, window)
    for earlier, later in zip(stamps, stamps[1:]):
        if later not in own:
            active = oracle.ots(expression, window, earlier, oid) > 0
            later_active = oracle.ots(expression, window, later, oid) > 0
            assert later_active == active, (earlier, later)


@settings(max_examples=300, deadline=None)
@given(
    expression=pattern_set_expressions,
    log=mixed_logs(),
    after=bounds,
    resume=bounds,
    now=instants,
)
def test_the_restricted_candidates_find_the_first_positive_instant(
    expression, log, after, resume, now
):
    """The compiled check's candidates decide what sampling every instant does.

    A check of ``(after, now]`` resumes above a bound ``lo`` (a memo's
    frontier; ``resume=None`` is no memo, ``lo = after``).  The reference
    samples every distinct stamp in ``(lo, now]`` and ``now``; the compiled
    check only the first of those stamps and the stamps of the expression's
    own types.  Whenever nothing at or below ``lo`` is positive — what a memo
    records — both find the same first positive instant, and a positive
    ``ts(E, now)`` always has a positive candidate before or at it: ``now``
    itself never needs a sample of its own.
    """
    if after is not None and after >= now:
        return
    window = log.view(after=after, until=now)
    stamps = window.timestamps()
    if not stamps:
        return  # an empty window triggers nothing, whatever is sampled
    lo = after if resume is None else min(max(resume, after or 0), now)
    resumed = [stamp for stamp in stamps if lo is None or stamp > lo]
    exhaustive = resumed if resumed and resumed[-1] == now else resumed + [now]
    own = _own_stamps(expression, window)
    candidates = sorted(set(resumed[:1]) | (own & set(resumed)))

    def first_positive(instants):
        return next((t for t in instants if oracle.ts(expression, window, t) > 0), None)

    sampled_before = [stamp for stamp in stamps if stamp not in resumed]
    if any(oracle.ts(expression, window, stamp) > 0 for stamp in sampled_before):
        return  # a memo never stands on a positive instant
    assert first_positive(candidates) == first_positive(exhaustive)
    if oracle.ts(expression, window, now) > 0:
        assert first_positive(candidates) is not None
