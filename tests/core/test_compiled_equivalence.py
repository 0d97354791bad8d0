"""Compiled exact checks vs the reference evaluator: differential equivalence.

The production evaluator (:mod:`repro.core.compile`) lowers each expression
*shape* into shared closures, binds every rule to its shape's kernel and
sweeps a block's candidate instants in one pass.  Its contract is byte-identical
behaviour: for any expression, any Event-Base history and any window start,
the compiled ``ts`` / ``ots`` / exact check — one combine set — must agree
with the recursive reference evaluator of ``tests/oracle.py`` in either of
the paper's evaluation modes on the value, the :class:`TriggeringDecision`
and the :class:`TriggerMemo` transitions.  The work pins: a compiled ``ts`` / ``ots``
is one of the reference's point evaluations (``EvaluationStats.evaluations``),
and the instants a compiled check samples (``instants_sampled``) are the
brute-force count of :func:`tests.oracle.restricted_samples` — the resume
range's first stamp and the stamps of the expression's own types, up to the
first positive one.

The expression pool mixes randomized trees over all eight set/instance
operators with hand-built shapes the random generator reaches rarely: pure
negation, nested precedence, instance lifts with inner negations (the
universal and existential domain-growth cases) and instance-oriented roots.
Then: many rules of one shape sharing a kernel (a hypothesis property and a
memory budget), whole churn scenarios replayed through every coordinator
against the oracle Trigger Support, and the binding invariants: a handle is
the store's live pattern list, resolved once per store.  The interpreter is
the tests' alone: no module of ``src/`` imports ``tests``, defines a ``ts`` /
``ots`` outside the compiled evaluator or names the interpreter's types.
"""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import EngineConfig
from repro.core.compile import CheckBinder, compile_check
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
from repro.core.triggering import TriggerMemo
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.executor import RuleEngine
from repro.rules.rule import Rule, RuleState
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport
from repro.workloads.generator import (
    EventStreamGenerator,
    ExpressionGenerator,
    event_type_universe,
    stream_to_event_base,
)

from tests.oracle import EvaluationMode, EvaluationStats, is_triggered
from tests.oracle import ots as interpreted_ots
from tests.oracle import restricted_samples
from tests.oracle import ts as interpreted_ts

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
    """Compiled ``ts``/``ots`` == interpreted in both modes, one evaluation each."""

    def test_ts_matches_interpreted(self):
        generated, event_base = _history(seed=17)
        stamps = [occ.timestamp for block in generated for occ in block]
        rng = random.Random(5)
        for mode in MODES:
            for expression in _expression_pool():
                compiled = compile_check(expression)
                interpreted_stats = EvaluationStats()
                for _ in range(6):
                    instant = rng.choice(stamps)
                    window_start = rng.choice(
                        (None, stamps[0] - 1, instant - 2, instant)
                    )
                    window = event_base.view(after=window_start, until=instant)
                    expected = interpreted_ts(
                        expression, window, instant, mode, interpreted_stats
                    )
                    actual = compiled.ts(window, instant)
                    assert actual == expected, (mode, expression, window_start, instant)
                assert interpreted_stats.evaluations == 6, (mode, expression)

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
                compiled = compile_check(expression)
                interpreted_stats = EvaluationStats()
                for oid in oids:
                    instant = rng.choice(stamps)
                    window_start = rng.choice((None, instant - 3))
                    window = event_base.view(after=window_start, until=instant)
                    expected = interpreted_ots(
                        expression, window, instant, oid, mode, interpreted_stats
                    )
                    actual = compiled.ots(window, instant, oid)
                    assert actual == expected, (mode, expression, oid, instant)
                assert interpreted_stats.evaluations == len(oids), (mode, expression)


class TestCheckEquivalence:
    """The incremental exact check: decisions, memo transitions and work."""

    def test_incremental_check_sequence_matches(self):
        generated, _ = _history(seed=41, blocks=12)
        for mode in MODES:
            for expression in _expression_pool(seed=31, count=16):
                compiled = compile_check(expression)
                event_base = EventBase()
                interpreted_memo, compiled_memo = TriggerMemo(), TriggerMemo()
                window_start = 0
                for block in generated:
                    for occurrence in block:
                        event_base.append(occurrence)
                    now = block[-1].timestamp
                    before = replace(interpreted_memo)
                    expected = is_triggered(
                        expression,
                        event_base,
                        window_start,
                        now,
                        mode,
                        memo=interpreted_memo,
                    )
                    actual = compiled.check(
                        event_base, window_start, now, memo=compiled_memo
                    )
                    sampled = restricted_samples(
                        expression, event_base, window_start, now, before, expected
                    )
                    expected = replace(expected, instants_sampled=sampled)
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

    def test_check_sequence_over_a_complete_log_matches(self):
        """Checks that run behind the log: every block already ingested, each
        check bounded by its own ``now``, one memo carried across the
        sequence (its ``seen_events`` lags the log) — the compiled sequence
        equals the interpreted one, skipped blocks included."""
        generated, event_base = _history(seed=53, blocks=8)
        nows = [block[-1].timestamp for block in generated]
        rng = random.Random(11)
        for mode in MODES:
            for expression in _expression_pool(seed=37, count=14):
                compiled = compile_check(expression)
                interpreted_memo, compiled_memo = TriggerMemo(), TriggerMemo()
                window_start = 0
                for now in nows:
                    if rng.random() < 0.4:
                        continue  # a block that did not route this rule
                    before = replace(interpreted_memo)
                    expected = is_triggered(
                        expression,
                        event_base,
                        window_start,
                        now,
                        mode,
                        memo=interpreted_memo,
                    )
                    actual = compiled.check(
                        event_base, window_start, now, memo=compiled_memo
                    )
                    sampled = restricted_samples(
                        expression, event_base, window_start, now, before, expected
                    )
                    expected = replace(expected, instants_sampled=sampled)
                    assert actual == expected, (mode, expression, now)
                    assert compiled_memo == interpreted_memo, (mode, expression, now)
                    if expected.triggered:
                        window_start = now


# ---------------------------------------------------------------------------
# One kernel per shape, shared by every rule of the shape
# ---------------------------------------------------------------------------

#: Shape templates over three (not necessarily distinct) event types: rigid,
#: precedence, universal and existential lifts, and an instance-oriented root.
SHAPES = (
    lambda a, b, c: SetConjunction(SetDisjunction(a, b), c),
    lambda a, b, c: SetPrecedence(SetPrecedence(a, b), SetNegation(c)),
    lambda a, b, c: SetConjunction(InstanceNegation(a), SetDisjunction(b, c)),
    lambda a, b, c: SetDisjunction(
        InstancePrecedence(a, InstanceConjunction(b, c)), SetNegation(b)
    ),
    lambda a, b, c: InstanceDisjunction(InstancePrecedence(a, b), InstanceNegation(c)),
)

_slot_types = st.tuples(*[st.sampled_from(UNIVERSE)] * 3)


class TestSharedKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        mode=st.sampled_from(MODES),
        type_rows=st.lists(_slot_types, min_size=2, max_size=8),
        seed=st.integers(0, 10_000),
        picks=st.lists(st.integers(0, 7), min_size=8, max_size=40),
    )
    def test_interleaved_same_shape_rules_match_the_oracle(
        self, shape, mode, type_rows, seed, picks
    ):
        """Rules of one shape over different types, checked in an arbitrary
        interleaving through one binder: every decision and memo equals the
        oracle's in ``mode``, and the instants sampled are the brute-force
        count of the restricted check."""
        expressions = [shape(*map(Primitive, row)) for row in type_rows]
        binder = CheckBinder()
        bindings = [binder.bind(expression) for expression in expressions]
        generated, _ = _history(seed, blocks=len(picks))
        event_base = EventBase()
        count = len(expressions)
        oracle_memos = [TriggerMemo() for _ in range(count)]
        compiled_memos = [TriggerMemo() for _ in range(count)]
        window_starts = [0] * count
        for block, pick in zip(generated, picks):
            for occurrence in block:
                event_base.append(occurrence)
            now = block[-1].timestamp
            # Two different rules per block, so checks of one kernel alternate
            # between handle tuples (and memos) within a single instant.
            for index in {pick % count, (pick * 7 + 3) % count}:
                before = replace(oracle_memos[index])
                expected = is_triggered(
                    expressions[index],
                    event_base,
                    window_starts[index],
                    now,
                    mode,
                    memo=oracle_memos[index],
                )
                actual = bindings[index].check(
                    event_base, window_starts[index], now, memo=compiled_memos[index]
                )
                sampled = restricted_samples(
                    expressions[index],
                    event_base,
                    window_starts[index],
                    now,
                    before,
                    expected,
                )
                expected = replace(expected, instants_sampled=sampled)
                assert actual == expected, (mode, expressions[index], now)
                assert compiled_memos[index] == oracle_memos[index]
                if expected.triggered:
                    window_starts[index] = now
        # Rows that repeat a type in different positions are different shapes
        # (the slot pattern is part of the key); equal patterns share.
        patterns = {tuple(row.index(t) for t in row) for row in type_rows}
        assert binder.kernels_compiled == len(patterns)

    def test_two_thousand_rules_of_one_shape_cost_one_kernel_and_half_a_kb_each(self):
        """The marginal cost of binding a rule (and resolving its handles) is
        bounded: <= 512 B, and no closure — 2 000 rules, one kernel."""
        rules = 2_000
        types = [
            EventType(Operation.MODIFY, f"c{index}", attribute)
            for index in range(rules)
            for attribute in ("x", "y")
        ]
        ghost = Primitive(EventType(Operation.DELETE, "ghost"))
        expressions = [
            SetConjunction(
                SetDisjunction(Primitive(types[2 * i]), Primitive(types[2 * i + 1])),
                ghost,
            )
            for i in range(rules)
        ]
        event_base = EventBase()
        for stamp, event_type in enumerate(types, start=1):
            event_base.record(event_type, oid="o#1", timestamp=stamp)
        for event_type in types:
            # The store's pattern lists are the store's cost, whichever
            # evaluator asks; make them before measuring the bindings.
            event_base._indexes_matching(event_type)
        now = len(types)
        binder = CheckBinder()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            bindings = [binder.bind(expression) for expression in expressions]
            for binding in bindings:  # one-instant window: resolve, don't sweep
                binding.check(event_base, now - 1, now)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for binding in bindings:  # each handle *is* the store's list
            for handle, event_type in zip(binding._handles, binding._types):
                assert handle is event_base._indexes_matching(event_type)
        assert binder.kernels_compiled == 1
        assert (after - before) / rules <= 512, (after - before) / rules

    def test_kernels_are_keyed_by_shape_and_root_granularity(self):
        a, b, c, d = (Primitive(UNIVERSE[index]) for index in (0, 1, 2, 3))
        binder = CheckBinder()
        first = binder.bind(InstanceConjunction(a, b))
        second = binder.bind(InstanceConjunction(c, d))
        assert first._kernel is second._kernel and binder.kernels_compiled == 1
        # ots needs the instance-rooted lowering of the same shape: one more
        # kernel, again shared by both rules.
        event_base = EventBase()
        event_base.record(UNIVERSE[0], oid="o#1", timestamp=1)
        first.ots(event_base, 1, "o#1")
        second.ots(event_base, 1, "o#1")
        assert binder.kernels_compiled == 2
        # A repeated type is a different slot pattern, hence a different shape.
        binder.bind(InstanceConjunction(a, a))
        assert binder.kernels_compiled == 3
        # Another evaluator interns its own.
        other = CheckBinder()
        assert other.bind(InstanceConjunction(a, b))._kernel is not first._kernel


class TestCoordinatorEquivalence:
    """Whole churn scenarios: the engine == the oracle in every execution mode."""

    def test_engine_matches_the_oracle_through_every_coordinator(self):
        from tests.cluster.test_shard_equivalence import run_scenario
        from tests.rules.test_planner_equivalence import build_scenario

        for seed in (0, 9):
            scenario = build_scenario(seed)
            reference = run_scenario(scenario, oracle=True)
            assert run_scenario(scenario) == reference
            for shard_mode in ("serial", "processes"):
                sharded = run_scenario(scenario, shards=4, shard_mode=shard_mode)
                assert sharded == reference, (
                    f"seed {seed}, {shard_mode}: diverged from the oracle"
                )


# ---------------------------------------------------------------------------
# Binding invariants: bound on first use, a handle is its store's live list
# ---------------------------------------------------------------------------

ALPHA = EventType(Operation.CREATE, "alpha")


def _watcher(name: str = "w", pattern: str = "create(alpha)", order: int = 0) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(pattern),
        condition=TRUE_CONDITION,
        action=NO_ACTION,
    )


def _handle_indexes(state: RuleState) -> list:
    return [index for handle in state.compiled_check._handles for index in handle]


class TestBindingInvariants:
    def _support(self, pattern: str = "create(alpha)", watchers: int = 1):
        table = RuleTable()
        states = [
            table.add(_watcher(f"w{index}" if index else "w", pattern))
            for index in range(watchers)
        ]
        for state in states:
            state.reset(0)
        event_base = EventBase()
        handler = EventHandler(event_base)
        support = TriggerSupport(table, event_base)
        stamp = 0

        def feed_block(event_type: EventType = ALPHA) -> None:
            nonlocal handler, stamp
            stamp += 1
            if handler.event_base is not support.event_base:
                handler = EventHandler(support.event_base)
            support.event_base.record(event_type, oid="alpha#1", timestamp=stamp)
            signature = handler.flush_block()
            support.check_after_block(signature, stamp, 0)
            for state in states:
                if state.triggered:
                    state.mark_considered(stamp, executed=False)

        return table, states[0], support, feed_block

    def test_a_rule_is_bound_by_its_first_check(self):
        table, state, support, feed_block = self._support()
        assert state.compiled_check is None
        feed_block()
        assert state.compiled_check.binder is support.binder
        assert state.compiled_check._handles[0] is (
            support.event_base._indexes_matching(ALPHA)
        )
        assert state.times_triggered == 1

    def test_bare_rule_engine_checks_through_its_bindings(self):
        """A rule added through ``RuleTable.add`` on a bare ``RuleEngine`` (no
        ``ChimeraDatabase.define_rule``) is checked through its binding on
        every path — per block and the commit-time recheck."""
        from repro.events.clock import TransactionClock
        from repro.oodb.objects import ObjectStore
        from repro.oodb.operations import OperationExecutor
        from repro.oodb.schema import Schema

        schema, store, clock = Schema(), ObjectStore(), TransactionClock()
        schema.define("alpha", ["x"])
        event_base = EventBase()
        engine = RuleEngine(
            schema,
            store,
            event_base,
            clock,
            OperationExecutor(schema, store, event_base, clock),
            # In-process evaluation, whatever --shard-mode the suite runs
            # under: process workers hold their own bindings.
            config=EngineConfig.from_env(shard_mode="serial"),
        )
        immediate = engine.rule_table.add(_watcher("immediate"))
        never = engine.rule_table.add(_watcher("never", "create(beta)"))
        engine.begin_transaction()
        engine.run_user_block(lambda: engine.operations.create("alpha", {"x": 1}))
        engine.process_commit()  # recheck_all visits `never`
        assert immediate.times_triggered == 1 and never.times_triggered == 0
        for state in (immediate, never):
            assert state.compiled_check.binder is engine.trigger_support.binder
            assert state.ts_computations > 0

    def test_a_binding_resolves_once_per_store(self):
        """Checked against a second log, every binding re-resolves on its
        next check and not again while new types register; the evaluator
        keeps the abandoned log alive no longer."""
        table, state, support, feed_block = self._support("modify(alpha)", 40)
        feed_block(EventType(Operation.MODIFY, "alpha", "a0"))
        bindings = [entry.compiled_check for entry in table]
        abandoned = weakref.ref(support.event_base)
        fresh = EventBase()
        live_lists = fresh._indexes_matching
        resolved = []
        fresh._indexes_matching = lambda pattern: (
            resolved.append(pattern) or live_lists(pattern)
        )
        support.event_base = fresh
        for entry in table:
            entry.reset(0)
        support.reset_worker_mirrors()
        for attribute in ("a0", "a1", "a2", "a3"):
            feed_block(EventType(Operation.MODIFY, "alpha", attribute))
            assert len(resolved) == len(bindings)
        assert state.times_triggered == 5
        class_level = EventType(Operation.MODIFY, "alpha")
        assert len(live_lists(class_level)) == 4
        assert all(b._handles[0] is live_lists(class_level) for b in bindings)
        gc.collect()
        assert abandoned() is None

    def test_new_types_cost_no_resolution_and_no_scan(self, monkeypatch):
        """K bindings over a class-level pattern, N new attribute types one
        block each, every binding checked after every block: K resolutions
        in all, and no registered type is ever scanned for a match."""
        rules, blocks = 25, 12
        pattern = EventType(Operation.MODIFY, "stock")
        binder = CheckBinder()
        bindings = [binder.bind(Primitive(pattern)) for _ in range(rules)]
        event_base = EventBase()
        live_lists = event_base._indexes_matching
        resolved = []
        event_base._indexes_matching = lambda asked: (
            resolved.append(asked) or live_lists(asked)
        )
        scans = []
        matches = EventType.matches
        monkeypatch.setattr(
            EventType,
            "matches",
            lambda self, other: scans.append(other) or matches(self, other),
        )
        for stamp in range(1, blocks + 1):
            attribute = EventType(Operation.MODIFY, "stock", f"a{stamp}")
            event_base.record(attribute, oid="stock#1", timestamp=stamp)
            for binding in bindings:
                assert binding.check(event_base, stamp - 1, stamp).triggered
        assert len(resolved) == rules
        assert scans == []
        assert len(live_lists(pattern)) == blocks

    def test_fresh_event_base_with_the_same_types_never_reads_the_old_log(self):
        """A new log that registers the same types in the same order has the
        same type *count* as the old one — the handles must still move, with
        the rule's state reset (as at a transaction boundary) and without
        it."""
        for reset in (True, False):
            table, state, support, feed_block = self._support()
            feed_block()
            old_indexes = _handle_indexes(state)
            assert old_indexes == [support.event_base._by_type[ALPHA]]
            fresh = EventBase()
            support.event_base = fresh
            if reset:
                state.reset(0)
                support.reset_worker_mirrors()
            state.trigger_memo.clear()
            feed_block()
            assert _handle_indexes(state) == [fresh._by_type[ALPHA]]
            assert _handle_indexes(state)[0] is not old_indexes[0]
            assert state.times_triggered == 2

    def test_database_transactions_share_one_log_and_resolve_once(self):
        """Three transactions run on one Event Base, emptied at each
        boundary, so the binding resolves its handles once in all."""
        from repro.oodb.database import ChimeraDatabase

        db = ChimeraDatabase(shard_mode="serial")  # bindings stay in-process
        try:
            db.define_class("alpha", ["x"])
            db.define_rule(_watcher())
            state = db.rule_state("w")
            log = db.event_base
            live_lists = log._indexes_matching
            resolved = []
            log._indexes_matching = lambda pattern: (
                resolved.append(pattern) or live_lists(pattern)
            )
            for _ in range(3):
                with db.transaction() as tx:
                    tx.create("alpha", {"x": 1})
                assert db.event_base is log
                assert _handle_indexes(state) == [log._by_type[ALPHA]]
            assert resolved == [ALPHA]
            assert state.times_triggered == 3
        finally:
            db.close()

    def test_reenable_still_resolves_the_live_indexes(self):
        """Re-enabling pokes no binding; a class-level watcher must still see
        a concrete type first stored while the rule sat disabled."""
        table, state, support, feed_block = self._support("modify(alpha)")
        feed_block(EventType(Operation.MODIFY, "alpha", "x"))
        assert state.times_triggered == 1
        table.disable("w")
        late = EventType(Operation.MODIFY, "alpha", "y")
        feed_block(late)  # no check runs for a disabled rule
        assert state.times_triggered == 1
        table.enable("w")
        feed_block(late)
        assert state.times_triggered == 2
        assert support.event_base._by_type[late] in _handle_indexes(state)

    def test_worker_definition_reship_rebinds(self):
        """A re-added name ships a fresh definition; the worker must replace
        its binding, not keep evaluating the stale expression."""
        from repro.cluster.process_pool import ProcessShardPool

        pool = ProcessShardPool(1)
        try:
            event_base = EventBase()
            event_base.record(ALPHA, oid="alpha#1", timestamp=1)
            state = RuleState(rule=_watcher(), definition_order=0)
            rows = pool.evaluate(event_base, {0: [(state, 0)]}, 1)
            assert rows[0][1].triggered
            # Same name, higher definition order, different expression: the
            # coordinator re-ships and the worker must replace the entry.
            replacement = RuleState(
                rule=_watcher(pattern="create(beta)"), definition_order=1
            )
            rows = pool.evaluate(event_base, {0: [(replacement, 0)]}, 1)
            assert not rows[0][1].triggered
        finally:
            pool.close()

    def test_worker_reset_rebinds_to_the_new_mirror(self):
        """pool.reset() swaps the worker mirror; a binding holding handles
        into the abandoned mirror would answer from stale indexes."""
        from repro.cluster.process_pool import ProcessShardPool

        pool = ProcessShardPool(1)
        try:
            first = EventBase()
            first.record(ALPHA, oid="alpha#1", timestamp=1)
            state = RuleState(rule=_watcher(), definition_order=0)
            rows = pool.evaluate(first, {0: [(state, 0)]}, 1)
            assert rows[0][1].triggered
            pool.reset()
            second = EventBase()  # a fresh log with *no* alpha occurrence
            rows = pool.evaluate(second, {0: [(state, 0)]}, 2)
            assert not rows[0][1].triggered
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# One evaluator in src/: the interpreter lives in tests/ only
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src"


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")


class TestOneEvaluatorInSrc:
    def test_no_module_under_src_imports_from_tests(self):
        importing = re.compile(r"^\s*(from|import)\s+tests\b", re.MULTILINE)
        assert [name for name, text in _sources() if importing.search(text)] == []

    def test_every_ts_and_ots_definition_is_the_compiled_one(self):
        definition = re.compile(r"^\s*def (ts|ots)\b", re.MULTILINE)
        found = {name for name, text in _sources() for _ in definition.finditer(text)}
        assert found == {"repro/core/compile.py"}
        compiled = (SRC / "repro/core/compile.py").read_text(encoding="utf-8")
        # CompiledCheck.ts / .ots and the module's ts / ots.
        assert len(definition.findall(compiled)) == 4

    def test_the_interpreters_types_appear_nowhere_in_src(self):
        for name, text in _sources():
            for word in ("EvaluationMode", "EvaluationStats"):
                assert word not in text, f"{name} names {word}"
