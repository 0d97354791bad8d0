"""Exactness of the incremental triggering check.

Two equivalences are asserted here:

* ``ts``/``ots``/``is_triggered`` computed over the zero-copy
  :class:`BoundedView` agree with the same functions computed over a separate
  Event Base holding only the rows inside the same bounds, on random
  histories, random expressions and random ``(after, until]`` bounds
  (hypothesis);
* the memoized, incremental ``is_triggered`` that the Trigger Support runs
  block-after-block returns *exactly* the decision of the seed implementation
  (the window copied into its own Event Base + full instant scan) at every
  step of a random multi-block simulation, including time-stamp ties that
  force the sampling frontier to rewind, skipped checks (as the ``V(E)``
  filter causes), rule considerations that move the window start, checks
  without new events (commit-time ``recheck_all``), empty windows and
  pure-negation reactivity (seeded random, in the style of
  ``tests/core/test_properties.py``).
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.evaluation import EvaluationMode, ots, ts
from repro.core.expressions import (
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
from repro.core.parser import parse_expression
from repro.core.triggering import TriggerMemo, is_triggered
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.workloads.generator import ExpressionGenerator, event_type_universe

from tests.conftest import event_base_of

A = EventType(Operation.CREATE, "A")
B = EventType(Operation.CREATE, "B")
C = EventType(Operation.CREATE, "C")
MOD_AX = EventType(Operation.MODIFY, "A", "x")

EVENT_TYPES = [A, B, C, MOD_AX]
OIDS = ["o1", "o2", "o3"]

event_types = st.sampled_from(EVENT_TYPES)
oids = st.sampled_from(OIDS)
instants = st.integers(min_value=1, max_value=25)
bounds = st.one_of(st.none(), st.integers(min_value=0, max_value=26))


def _primitives() -> st.SearchStrategy:
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


@st.composite
def histories(draw, min_size: int = 0, max_size: int = 12) -> EventBase:
    entries = draw(
        st.lists(
            st.tuples(event_types, oids, instants), min_size=min_size, max_size=max_size
        )
    )
    event_base = EventBase()
    for event_type, oid, timestamp in sorted(entries, key=lambda entry: entry[2]):
        event_base.record(event_type, oid, timestamp)
    return event_base


@st.composite
def bounded_histories(draw) -> tuple[EventBase, int | None, int | None]:
    event_base = draw(histories())
    after = draw(bounds)
    until = draw(bounds)
    if after is not None and until is not None and after > until:
        after, until = until, after
    return event_base, after, until


def _copied(event_base: EventBase, after, until) -> EventBase:
    """A separate Event Base holding the rows of ``(after, until]``."""
    return event_base_of(
        occurrence
        for occurrence in event_base
        if (after is None or occurrence.timestamp > after)
        and (until is None or occurrence.timestamp <= until)
    )


# ---------------------------------------------------------------------------
# View vs. copied window: the calculus cannot tell them apart
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(expression=set_expressions, pair=bounded_histories(), instant=instants)
def test_ts_agrees_between_view_and_window(expression, pair, instant):
    event_base, after, until = pair
    view = event_base.view(after=after, until=until)
    window = _copied(event_base, after, until)
    for mode in EvaluationMode:
        assert ts(expression, view, instant, mode) == ts(
            expression, window, instant, mode
        )


@settings(max_examples=150, deadline=None)
@given(
    expression=instance_expressions,
    pair=bounded_histories(),
    instant=instants,
    oid=oids,
)
def test_ots_agrees_between_view_and_window(expression, pair, instant, oid):
    event_base, after, until = pair
    view = event_base.view(after=after, until=until)
    window = _copied(event_base, after, until)
    for mode in EvaluationMode:
        assert ots(expression, view, instant, oid, mode) == ots(
            expression, window, instant, oid, mode
        )


@settings(max_examples=150, deadline=None)
@given(expression=set_expressions, pair=bounded_histories(), now=instants)
def test_is_triggered_agrees_between_view_and_window(expression, pair, now):
    event_base, after, _ = pair
    # The triggering path never looks backwards: last_consideration <= now.
    after = None if after is None else min(after, now)
    # The EB path carves the (after, now] view internally; compare against a
    # copy of the same rows.
    window = _copied(event_base, after, now)
    from_view = is_triggered(expression, event_base, after, now)
    from_window = is_triggered(expression, window, after, now)
    assert from_view.triggered == from_window.triggered
    assert from_view.instant == from_window.instant
    assert from_view.ts_value == from_window.ts_value
    assert from_view.window_size == from_window.window_size


# ---------------------------------------------------------------------------
# Incremental (memoized) checks vs. the seed full-rescan semantics
# ---------------------------------------------------------------------------


def _full_rescan(expression, event_base, last_consideration, now):
    """The seed implementation: copy the window, scan every instant."""
    window = _copied(event_base, last_consideration, now)
    return is_triggered(expression, window, last_consideration, now)


def _assert_same_decision(incremental, reference, context):
    assert incremental.triggered == reference.triggered, context
    assert incremental.instant == reference.instant, context
    assert incremental.ts_value == reference.ts_value, context
    assert incremental.window_size == reference.window_size, context


def _run_simulation(seed: int, expressions, blocks: int = 40) -> int:
    """Random multi-block run; every incremental decision must match the seed.

    Returns the number of triggerings observed (so callers can require the
    scenario was not vacuous).
    """
    rng = random.Random(seed)
    event_base = EventBase()
    universe = EVENT_TYPES
    rules = [
        {"expression": expression, "last_consideration": None, "memo": TriggerMemo()}
        for expression in expressions
    ]
    now = 0
    triggerings = 0
    for _ in range(blocks):
        # A block appends 0..3 occurrences; with some probability it reuses the
        # current instant (a time-stamp tie with an already-sampled frontier,
        # the case that forces the incremental check to rewind).
        for _ in range(rng.randint(0, 3)):
            if now == 0 or rng.random() < 0.7:
                now += rng.randint(1, 2)
            event_base.record(rng.choice(universe), rng.choice(OIDS), max(now, 1))
            now = max(now, 1)
        if now == 0:
            continue
        for rule in rules:
            if rng.random() < 0.25:
                # Simulate a V(E) filter skip: the memo must stay correct even
                # though this check never ran.
                continue
            incremental = is_triggered(
                rule["expression"],
                event_base,
                rule["last_consideration"],
                now,
                memo=rule["memo"],
            )
            reference = _full_rescan(
                rule["expression"], event_base, rule["last_consideration"], now
            )
            _assert_same_decision(
                incremental,
                reference,
                f"seed={seed} now={now} expr={rule['expression']}",
            )
            if incremental.triggered:
                triggerings += 1
                # Consider the rule: the window start moves and the memo is
                # forgotten, exactly like RuleState.mark_considered does.
                rule["last_consideration"] = now
                rule["memo"].clear()
        if rng.random() < 0.2:
            # A commit-style recheck at a later instant with no new events.
            now += 1
            for rule in rules:
                incremental = is_triggered(
                    rule["expression"],
                    event_base,
                    rule["last_consideration"],
                    now,
                    memo=rule["memo"],
                )
                reference = _full_rescan(
                    rule["expression"], event_base, rule["last_consideration"], now
                )
                _assert_same_decision(
                    incremental, reference, f"seed={seed} recheck now={now}"
                )
                if incremental.triggered:
                    triggerings += 1
                    rule["last_consideration"] = now
                    rule["memo"].clear()
    return triggerings


def test_incremental_matches_full_rescan_on_random_simulations():
    total = 0
    for seed in range(12):
        expressions = [
            parse_expression("create(A)"),
            parse_expression("-create(A)"),  # pure negation: R != {} reactivity
            parse_expression("create(A) + create(B)"),
            parse_expression("create(A) , -create(B)"),
            parse_expression("create(A) < create(B)"),
            parse_expression("modify(A.x) + -create(C)"),
        ]
        total += _run_simulation(seed, expressions)
    # The scenarios must actually exercise triggering, not just empty windows.
    assert total > 50


def test_incremental_matches_full_rescan_on_random_expressions():
    generator = ExpressionGenerator(seed=13, instance_probability=0.25)
    # The generator uses its own class universe; drive the simulation with the
    # matching event types so the expressions can actually activate.
    universe = event_type_universe()
    rng = random.Random(99)
    event_base = EventBase()
    rules = [
        {"expression": expression, "last_consideration": None, "memo": TriggerMemo()}
        for expression in generator.expressions(8, operators=3)
    ]
    now = 0
    for _ in range(30):
        for _ in range(rng.randint(0, 3)):
            if now == 0 or rng.random() < 0.7:
                now += rng.randint(1, 2)
            event_base.record(
                rng.choice(universe), f"cls0#{rng.randint(1, 3)}", max(now, 1)
            )
            now = max(now, 1)
        if now == 0:
            continue
        for rule in rules:
            if rng.random() < 0.25:
                continue
            incremental = is_triggered(
                rule["expression"], event_base, rule["last_consideration"], now,
                memo=rule["memo"],
            )
            reference = _full_rescan(
                rule["expression"], event_base, rule["last_consideration"], now
            )
            _assert_same_decision(incremental, reference, f"now={now}")
            if incremental.triggered:
                rule["last_consideration"] = now
                rule["memo"].clear()


# ---------------------------------------------------------------------------
# Targeted corner cases
# ---------------------------------------------------------------------------


class TestMemoCornerCases:
    def test_empty_window_never_triggers_and_leaves_memo_untouched(self):
        event_base = EventBase()
        memo = TriggerMemo()
        expression = parse_expression("-create(A)")
        decision = is_triggered(expression, event_base, None, 5, memo=memo)
        assert not decision.triggered
        assert decision.window_size == 0
        assert not memo.valid

    def test_pure_negation_reactivity_with_memo(self):
        event_base = EventBase()
        memo = TriggerMemo()
        expression = parse_expression("-create(A)")
        # Nothing happened: blocked by R != {} despite the vacuous activation.
        assert not is_triggered(expression, event_base, None, 3, memo=memo)
        # Any unrelated occurrence unblocks the rule.
        event_base.record(B, "o1", 4)
        decision = is_triggered(expression, event_base, None, 4, memo=memo)
        assert decision.triggered
        assert not memo.valid  # cleared on triggering

    def test_tie_rewinds_the_sampling_frontier(self):
        # First check at now=5 samples {5} negatively; then an occurrence
        # arrives bearing the *same* time stamp.  The memo must rewind and
        # resample instant 5, or the triggering would be missed.
        event_base = EventBase()
        event_base.record(B, "o1", 5)
        memo = TriggerMemo()
        expression = parse_expression("create(A)")
        assert not is_triggered(expression, event_base, None, 5, memo=memo)
        assert memo.valid and memo.last_sampled == 5
        event_base.record(A, "o2", 5)
        decision = is_triggered(expression, event_base, None, 5, memo=memo)
        assert decision.triggered
        assert decision.instant == 5

    def test_memo_is_ignored_for_prebuilt_windows(self):
        event_base = EventBase()
        event_base.record(A, "o1", 2)
        window = event_base.full_view()
        memo = TriggerMemo()
        decision = is_triggered(
            parse_expression("create(A)"), window, None, 3, memo=memo
        )
        assert decision.triggered
        assert not memo.valid

    def test_memo_invalidated_by_window_start_change(self):
        event_base = EventBase()
        event_base.record(A, "o1", 2)
        memo = TriggerMemo()
        expression = parse_expression("create(B)")
        assert not is_triggered(expression, event_base, None, 2, memo=memo)
        assert memo.covers(None)
        # A consideration moved the window start: the memo no longer covers it
        # and the check falls back to a full scan of the new window.
        event_base.record(B, "o2", 4)
        decision = is_triggered(expression, event_base, 3, 4, memo=memo)
        assert decision.triggered
        assert decision.instant == 4

    def test_fewer_instants_sampled_on_second_check(self):
        event_base = EventBase()
        for stamp in range(1, 11):
            event_base.record(B, f"o{stamp}", stamp)
        memo = TriggerMemo()
        expression = parse_expression("create(A)")
        first = is_triggered(expression, event_base, None, 10, memo=memo)
        assert not first.triggered
        assert first.instants_sampled == 10
        event_base.record(B, "oX", 11)
        second = is_triggered(expression, event_base, None, 11, memo=memo)
        assert not second.triggered
        # Only the new instant is sampled: the ten old ones are covered.
        assert second.instants_sampled == 1
