"""Compiled vs interpreted exact checks: randomized differential equivalence.

The PR-6 compiled path (:mod:`repro.core.compile`) lowers each rule's event
expression into specialized closures and batches a trip's instants into one
pass.  Its contract is byte-identical behaviour: for any expression, any
Event-Base history, any window start and both evaluation modes, the compiled
``ts`` / ``ots`` / exact check must agree with the interpreted evaluator on
the value, the :class:`TriggeringDecision` (``instants_sampled`` included),
the :class:`TriggerMemo` transitions and the :class:`EvaluationStats`
counters (accumulated in bulk per check, but summing to the same totals).

The expression pool mixes randomized trees over all eight set/instance
operators with hand-built shapes the random generator reaches rarely: pure
negation, nested precedence, instance lifts with inner negations (the
universal and existential domain-growth cases) and instance-oriented roots.
The last tests replay whole churn scenarios through the coordinators —
serial, threads and processes — with compiled checks on and off.
"""

from __future__ import annotations

import random

from repro.config import EngineConfig
from repro.core.compile import compile_check
from repro.core.evaluation import EvaluationMode, EvaluationStats
from repro.core.evaluation import ots as interpreted_ots
from repro.core.evaluation import ts as interpreted_ts
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
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule, RuleState
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport
from repro.workloads.generator import (
    EventStreamGenerator,
    ExpressionGenerator,
    event_type_universe,
    stream_to_event_base,
)

MODES = (EvaluationMode.LOGICAL, EvaluationMode.ALGEBRAIC)

UNIVERSE = event_type_universe(classes=3, attributes_per_class=2)


def _expression_pool(seed: int = 23, count: int = 24):
    """Random trees plus hand-built shapes the generator reaches rarely."""
    generator = ExpressionGenerator(
        UNIVERSE, seed=seed, instance_probability=0.35, allow_negation=True
    )
    pool = generator.expressions(count, operators=4)
    a, b, c = (Primitive(UNIVERSE[index]) for index in (0, 1, 5))
    pool += [
        SetNegation(a),  # pure negation (vacuously active)
        SetNegation(SetNegation(SetDisjunction(a, b))),
        SetPrecedence(SetPrecedence(a, b), SetNegation(c)),  # nested precedence
        SetPrecedence(SetNegation(a), SetConjunction(b, c)),
        SetConjunction(InstanceNegation(a), b),  # universal lift
        SetNegation(
            SetNegation(InstanceDisjunction(InstanceNegation(a), InstanceNegation(b)))
        ),
        SetDisjunction(
            InstancePrecedence(a, InstanceConjunction(b, c)), SetNegation(b)
        ),
        InstanceConjunction(a, b),  # instance-oriented roots (ots defined)
        InstanceNegation(InstanceNegation(a)),
        InstancePrecedence(InstanceNegation(a), b),
        InstanceDisjunction(InstancePrecedence(a, b), InstanceNegation(c)),
    ]
    return pool


def _history(seed: int, blocks: int = 10):
    stream = EventStreamGenerator(
        UNIVERSE, objects_per_class=3, events_per_block=4, seed=seed
    )
    generated = stream.blocks(blocks)
    return generated, stream_to_event_base(generated)


class TestPointEquivalence:
    """Compiled ``ts``/``ots`` == interpreted, value and stats, both modes."""

    def test_ts_matches_interpreted(self):
        generated, event_base = _history(seed=17)
        stamps = [occ.timestamp for block in generated for occ in block]
        rng = random.Random(5)
        for mode in MODES:
            for expression in _expression_pool():
                compiled = compile_check(expression, mode)
                interpreted_stats, compiled_stats = EvaluationStats(), EvaluationStats()
                for _ in range(6):
                    instant = rng.choice(stamps)
                    window_start = rng.choice(
                        (None, stamps[0] - 1, instant - 2, instant)
                    )
                    window = event_base.view(after=window_start, until=instant)
                    expected = interpreted_ts(
                        expression, window, instant, mode, interpreted_stats
                    )
                    actual = compiled.ts(
                        event_base, window_start, instant, compiled_stats
                    )
                    assert actual == expected, (mode, expression, window_start, instant)
                assert compiled_stats == interpreted_stats, (mode, expression)

    def test_ots_matches_interpreted(self):
        generated, event_base = _history(seed=29)
        stamps = [occ.timestamp for block in generated for occ in block]
        oids = sorted({occ.oid for block in generated for occ in block})[:5]
        oids.append("ghost#1")  # an object the history never touched
        rng = random.Random(7)
        for mode in MODES:
            for expression in _expression_pool():
                if not expression.may_be_instance_operand():
                    continue
                compiled = compile_check(expression, mode)
                interpreted_stats, compiled_stats = EvaluationStats(), EvaluationStats()
                for oid in oids:
                    instant = rng.choice(stamps)
                    window_start = rng.choice((None, instant - 3))
                    window = event_base.view(after=window_start, until=instant)
                    expected = interpreted_ots(
                        expression, window, instant, oid, mode, interpreted_stats
                    )
                    actual = compiled.ots(
                        event_base, window_start, instant, oid, compiled_stats
                    )
                    assert actual == expected, (mode, expression, oid, instant)
                assert compiled_stats == interpreted_stats, (mode, expression)


class TestCheckEquivalence:
    """The incremental exact check: decisions, memo transitions and stats."""

    def test_incremental_check_sequence_matches(self):
        generated, _ = _history(seed=41, blocks=12)
        for mode in MODES:
            for expression in _expression_pool(seed=31, count=16):
                compiled = compile_check(expression, mode)
                event_base = EventBase()
                interpreted_memo, compiled_memo = TriggerMemo(), TriggerMemo()
                interpreted_stats, compiled_stats = EvaluationStats(), EvaluationStats()
                window_start = 0
                for block in generated:
                    for occurrence in block:
                        event_base.append(occurrence)
                    now = block[-1].timestamp
                    expected = is_triggered(
                        expression,
                        event_base,
                        window_start,
                        now,
                        mode,
                        interpreted_stats,
                        memo=interpreted_memo,
                    )
                    actual = compiled.check(
                        event_base,
                        window_start,
                        now,
                        memo=compiled_memo,
                        stats=compiled_stats,
                    )
                    assert actual == expected, (mode, expression, now)
                    assert (
                        compiled_memo.valid,
                        compiled_memo.window_start,
                        compiled_memo.last_sampled,
                        compiled_memo.seen_events,
                    ) == (
                        interpreted_memo.valid,
                        interpreted_memo.window_start,
                        interpreted_memo.last_sampled,
                        interpreted_memo.seen_events,
                    ), (mode, expression, now)
                    if expected.triggered:
                        # Mimic a consideration: the window start moves and
                        # both memos were already cleared by the check.
                        window_start = now
                assert compiled_stats == interpreted_stats, (mode, expression)

    def test_check_trip_matches_per_block_sequence(self):
        """One batched trip == the per-block interpreted walk with skip flags."""
        generated, event_base = _history(seed=53, blocks=8)
        nows = [block[-1].timestamp for block in generated]
        rng = random.Random(11)
        for mode in MODES:
            for expression in _expression_pool(seed=37, count=14):
                compiled = compile_check(expression, mode)
                entries = [(0, now, rng.random() < 0.4) for now in nows]
                interpreted_memo, compiled_memo = TriggerMemo(), TriggerMemo()
                interpreted_stats, compiled_stats = EvaluationStats(), EvaluationStats()
                expected: list = []
                tripped = False
                saw_nonempty = False
                for window_start, now, pending_only in entries:
                    if tripped or (pending_only and saw_nonempty):
                        expected.append(None)
                        continue
                    decision = is_triggered(
                        expression,
                        event_base,
                        window_start,
                        now,
                        mode,
                        interpreted_stats,
                        memo=interpreted_memo,
                    )
                    tripped = tripped or decision.triggered
                    saw_nonempty = saw_nonempty or decision.window_size > 0
                    expected.append(decision)
                actual = compiled.check_trip(
                    event_base, entries, memo=compiled_memo, stats=compiled_stats
                )
                assert actual == expected, (mode, expression)
                assert (
                    compiled_memo.valid,
                    compiled_memo.window_start,
                    compiled_memo.last_sampled,
                    compiled_memo.seen_events,
                ) == (
                    interpreted_memo.valid,
                    interpreted_memo.window_start,
                    interpreted_memo.last_sampled,
                    interpreted_memo.seen_events,
                ), (mode, expression)
                assert compiled_stats == interpreted_stats, (mode, expression)


class TestCoordinatorEquivalence:
    """Whole churn scenarios: compiled == interpreted in every execution mode."""

    def test_compiled_matches_interpreted_through_every_coordinator(self):
        from tests.cluster.test_shard_equivalence import run_scenario
        from tests.rules.test_planner_equivalence import build_scenario

        for seed in (0, 9):
            scenario = build_scenario(seed)
            reference = run_scenario(scenario, use_compiled_checks=False)
            assert run_scenario(scenario, use_compiled_checks=True) == reference
            for shard_mode in ("serial", "threads", "processes"):
                for batch_blocks in (1, 4):
                    interpreted = run_scenario(
                        scenario,
                        shards=4,
                        shard_mode=shard_mode,
                        batch_blocks=batch_blocks,
                        use_compiled_checks=False,
                    )
                    compiled = run_scenario(
                        scenario,
                        shards=4,
                        shard_mode=shard_mode,
                        batch_blocks=batch_blocks,
                        use_compiled_checks=True,
                    )
                    assert compiled == interpreted, (
                        f"seed {seed}, {shard_mode}, batch {batch_blocks}: "
                        "compiled checks diverged"
                    )


# ---------------------------------------------------------------------------
# Recompilation invariants: no pre-resolved handle survives a rebind
# ---------------------------------------------------------------------------


def _watcher(name: str = "w", pattern: str = "create(alpha)", order: int = 0) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(pattern),
        condition=TRUE_CONDITION,
        action=NO_ACTION,
    )


class TestRecompilationInvariants:
    def _support(self):
        table = RuleTable()
        state = table.add(_watcher())
        state.reset(0)
        event_base = EventBase()
        handler = EventHandler(event_base)
        support = TriggerSupport(
            table, event_base, EngineConfig.from_env(use_compiled_checks=True)
        )
        support.prepare_rule(state)
        stamp = 0

        def feed_block() -> None:
            nonlocal stamp
            stamp += 1
            event_base.record(
                EventType(Operation.CREATE, "alpha"), oid="alpha#1", timestamp=stamp
            )
            batch = handler.flush_block()
            support.check_after_block(
                batch, stamp, 0, type_signature=batch.type_signature
            )
            if state.triggered:
                state.mark_considered(stamp, executed=False)

        return table, state, support, feed_block

    def test_prepare_rule_compiles_and_check_binds(self):
        table, state, support, feed_block = self._support()
        assert state.compiled_check is not None
        assert not state.compiled_check.is_bound
        feed_block()
        assert state.compiled_check.is_bound

    def test_forget_incremental_state_invalidates(self):
        table, state, support, feed_block = self._support()
        feed_block()
        support.forget_incremental_state()
        assert not state.compiled_check.is_bound
        feed_block()  # and the next check re-binds cleanly
        assert state.compiled_check.is_bound

    def test_schema_rebind_invalidates(self):
        from repro.oodb.schema import Schema

        table, state, support, feed_block = self._support()
        feed_block()
        table.bind_schema(Schema())
        assert not state.compiled_check.is_bound

    def test_disable_and_reenable_invalidate(self):
        table, state, support, feed_block = self._support()
        feed_block()
        table.disable("w")
        assert not state.compiled_check.is_bound
        feed_block()  # no check runs for a disabled rule
        assert not state.compiled_check.is_bound
        table.enable("w")
        feed_block()
        assert state.compiled_check.is_bound

    def test_event_base_swap_never_leaves_a_stale_handle(self):
        table, state, support, feed_block = self._support()
        feed_block()
        old_compiled = state.compiled_check
        assert old_compiled._bound_eb is support.event_base
        fresh = EventBase()
        support.event_base = fresh
        support.forget_incremental_state()
        assert old_compiled._bound_eb is None
        fresh.record(EventType(Operation.CREATE, "alpha"), oid="alpha#2", timestamp=9)
        decision = state.compiled_check.check(fresh, 0, 9)
        assert decision.triggered
        assert state.compiled_check._bound_eb is fresh

    def test_worker_definition_reship_recompiles(self):
        """A re-added name ships a fresh definition; the worker must rebuild
        its compiled closure, not keep evaluating the stale expression."""
        from repro.cluster.process_pool import ProcessShardPool

        pool = ProcessShardPool(1, EngineConfig.from_env(use_compiled_checks=True))
        try:
            event_base = EventBase()
            event_base.record(
                EventType(Operation.CREATE, "alpha"), oid="alpha#1", timestamp=1
            )
            state = RuleState(rule=_watcher(), definition_order=0)
            rows, _ = pool.evaluate(event_base, {0: [(state, 0)]}, 1)
            assert rows[0][1].triggered
            # Same name, higher definition order, different expression: the
            # coordinator re-ships and the worker must replace entry+closure.
            replacement = RuleState(
                rule=_watcher(pattern="create(beta)"), definition_order=1
            )
            rows, _ = pool.evaluate(event_base, {0: [(replacement, 0)]}, 1)
            assert not rows[0][1].triggered
        finally:
            pool.close()

    def test_worker_reset_rebinds_to_the_new_mirror(self):
        """pool.reset() swaps the worker mirror; a compiled closure holding
        handles into the abandoned mirror would answer from stale indexes."""
        from repro.cluster.process_pool import ProcessShardPool

        pool = ProcessShardPool(1, EngineConfig.from_env(use_compiled_checks=True))
        try:
            first = EventBase()
            first.record(
                EventType(Operation.CREATE, "alpha"), oid="alpha#1", timestamp=1
            )
            state = RuleState(rule=_watcher(), definition_order=0)
            rows, _ = pool.evaluate(first, {0: [(state, 0)]}, 1)
            assert rows[0][1].triggered
            pool.reset()
            second = EventBase()  # a fresh log with *no* alpha occurrence
            rows, _ = pool.evaluate(second, {0: [(state, 0)]}, 2)
            assert not rows[0][1].triggered
        finally:
            pool.close()
