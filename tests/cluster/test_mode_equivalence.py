"""Cross-mode differential harness: the single table == processes.

The PR-4 process shard workers move the evaluate phase of the trigger check
out of process (mirror Event Bases, worker-resident memos, decisions shipped
back); the correctness bar is the one PR 3 set and this harness pins:
**byte-identical traces, per-rule counters, Trigger Support stats — the
incremental ``instants_sampled`` counter included, which the oracle reports
as the brute-force count of the restricted check
(``tests/oracle.py::restricted_samples``) — and firing order** across
every execution mode, for any stream and any mid-run rule churn.

The scenarios are the seeded PR-3 generators
(``tests/rules/test_planner_equivalence.build_scenario``: overlapping
class/attribute patterns, pure negations, priority ties, empty blocks,
removals / re-adds with fresh definitions / disable-enable flips) replayed
through the *shared* ``run_scenario`` harness of
``tests/cluster/test_shard_equivalence.py`` — extended, not forked — in both
shard modes (``serial`` with N shards assembles the single table, exactly as
the engine does), plus engine-level transaction scenarios that exercise the
Event-Base rebind (worker mirrors must reset) and the commit-time exhaustive
recheck (which the process mode routes through its workers so the memos stay
exact).
"""

from __future__ import annotations

import random

import pytest

from repro.config import EngineConfig
from repro.core.evaluation import EvaluationMode
from repro.oodb.database import ChimeraDatabase

from tests.cluster.test_shard_equivalence import run_scenario
from tests.rules.test_planner_equivalence import build_scenario

MODES = ("serial", "processes")


def test_modes_identical_under_randomized_churn():
    """Seeded add/remove/disable churn + mixed-type blocks, both modes."""
    for seed in (0, 2, 9, 13):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario)
        for shards in (2, 4):
            results = {
                mode: run_scenario(scenario, shards=shards, shard_mode=mode)
                for mode in MODES
            }
            for mode, result in results.items():
                assert result["trace"] == reference["trace"], (
                    f"seed {seed}, {shards} shards, {mode}: trace diverged"
                )
                assert result["counters"] == reference["counters"], (
                    f"seed {seed}, {shards} shards, {mode}: counters diverged"
                )
                assert result["stats"] == reference["stats"], (
                    f"seed {seed}, {shards} shards, {mode}: stats diverged"
                )


def test_process_mode_across_shard_counts():
    """Worker count follows the shard count; equivalence holds for 1–8."""
    scenario = build_scenario(7)
    reference = run_scenario(scenario)
    for shards in (1, 3, 5, 8):
        assert (
            run_scenario(scenario, shards=shards, shard_mode="processes") == reference
        )


def test_modes_identical_with_periodic_exhaustive_recheck():
    """recheck_all (the commit path) must keep worker memos in lockstep."""
    for seed in (4, 11):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario, recheck_every=5)
        for mode in MODES:
            result = run_scenario(scenario, shards=4, shard_mode=mode, recheck_every=5)
            assert result == reference, f"seed {seed}, {mode}: recheck path diverged"


def test_larger_pool_process_mode():
    """A bigger rule pool (multi-shard rules, heavier dealing) stays identical."""
    scenario = build_scenario(202, rule_count=40, block_count=30)
    reference = run_scenario(scenario)
    assert run_scenario(scenario, shards=4, shard_mode="processes") == reference


@pytest.mark.parametrize("evaluation_mode", ["logical", "algebraic"])
@pytest.mark.parametrize("seed", [3, 9])
def test_process_mode_equals_the_single_table_in_either_evaluation_mode(
    seed, evaluation_mode
):
    """One combine set serves both of the paper's formulations: churn on the
    single table and on 2–8 shards equals the reference evaluator replayed in
    either ts semantics.  (That a worker gets the coordinator's record at
    all is
    ``tests/test_config.py::test_forked_worker_receives_the_coordinators_record``.)"""
    scenario = build_scenario(seed)
    reference = run_scenario(
        scenario, oracle=True, oracle_mode=EvaluationMode(evaluation_mode)
    )
    assert run_scenario(scenario) == reference, "single table diverged"
    for shards in (2, 5, 8):
        result = run_scenario(scenario, shards=shards, shard_mode="processes")
        assert result == reference, f"{shards} shards diverged"


# ---------------------------------------------------------------------------
# Rechecks against the oracle
# ---------------------------------------------------------------------------


def test_rechecks_match_the_oracle_on_process_workers():
    """Commit-style rechecks between blocks keep the process mode equal to
    the single table, and to the reference evaluator."""
    scenario = build_scenario(11)
    reference = run_scenario(scenario, recheck_every=6, oracle=True)
    assert run_scenario(scenario, recheck_every=6) == reference
    result = run_scenario(scenario, shards=3, shard_mode="processes", recheck_every=6)
    assert result == reference, "rechecks diverged"


# ---------------------------------------------------------------------------
# Metrics snapshots (PR 8): registry counters pinned equal across modes
# ---------------------------------------------------------------------------


def test_snapshot_counters_identical_across_modes():
    """The PR-8 snapshot counters are as mode-invariant as the stats they fold.

    ``run_scenario`` returns the registry's deterministic ``trigger.*``
    snapshot counters; each coordinator mode must match the reference
    evaluator on the single table byte for byte — the observability layer
    inherits the equivalence guarantee instead of weakening it.
    """
    for seed in (2, 7):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario, oracle=True)
        assert reference["metrics"], "snapshot must carry trigger.* counters"
        for mode in MODES:
            result = run_scenario(scenario, shards=4, shard_mode=mode)
            assert result["metrics"] == reference["metrics"], (
                f"seed {seed}, {mode}: snapshot counters diverged"
            )


def test_zero_candidate_trip_merges_empty_stats_in_process_mode():
    """A block with no candidate rules leaves the check counters as they
    were.

    ``_evaluate_states`` returns ``[]`` without contacting (or even
    spawning) the pool when no rule is assigned.  Pin both halves: the
    empty round leaves every counter untouched, and a later candidate block
    accumulates on top of it normally.
    """
    from repro.core.parser import parse_expression
    from repro.events.event import EventType, Operation
    from repro.events.event_base import EventBase
    from repro.rules.actions import NO_ACTION
    from repro.rules.conditions import TRUE_CONDITION
    from repro.rules.event_handler import EventHandler
    from repro.rules.rule import Rule
    from repro.cluster.coordinator import ShardCoordinator
    from repro.rules.rule_table import RuleTable
    from tests.cluster.test_process_pool import homed_names

    table = RuleTable()
    # Homed on the worker: a coordinator-homed rule would never reach the pool.
    (name,) = homed_names([1])
    state = table.add(
        Rule(
            name=name,
            events=parse_expression("create(alpha)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
    )
    state.reset(0)
    event_base = EventBase()
    handler = EventHandler(event_base)
    support = ShardCoordinator(
        table, event_base, EngineConfig.from_env(shards=2, shard_mode="processes")
    )
    try:

        def feed(class_name: str, stamp: int) -> list:
            event_base.record(
                EventType(Operation.CREATE, class_name),
                oid=f"{class_name}#1",
                timestamp=stamp,
            )
            signature = handler.flush_block()
            return support.check_after_block(signature, stamp, 0)

        # While the rule stays triggered it is not a candidate, so the beta
        # block plans nothing at all.
        assert [s.rule.name for s in feed("alpha", 1)] == [name]
        baseline = support.stats.instants_sampled
        assert baseline > 0
        assert support.process_pool is not None

        assert feed("beta", 2) == []  # zero-candidate block
        assert support.stats.instants_sampled == baseline

        state.mark_considered(2, executed=False)
        assert [s.rule.name for s in feed("alpha", 3)] == [name]
        assert support.stats.instants_sampled > baseline
    finally:
        support.close()


def test_worker_definitions_pruned_on_rule_removal():
    """A long-lived pool under add/remove churn stays bounded by live rules."""
    from repro.core.parser import parse_expression
    from repro.events.event import EventType, Operation
    from repro.events.event_base import EventBase
    from repro.rules.actions import NO_ACTION
    from repro.rules.conditions import TRUE_CONDITION
    from repro.rules.event_handler import EventHandler
    from repro.rules.rule import Rule
    from repro.cluster.coordinator import ShardCoordinator
    from repro.rules.rule_table import RuleTable

    def watcher(index: int) -> Rule:
        return Rule(
            name=f"w{index}",
            events=parse_expression("create(alpha)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )

    table = RuleTable()
    event_base = EventBase()
    handler = EventHandler(event_base)
    support = ShardCoordinator(
        table, event_base, EngineConfig.from_env(shards=2, shard_mode="processes")
    )
    try:
        stamp = 0

        def feed_block() -> None:
            nonlocal stamp
            stamp += 1
            event_base.record(
                EventType(Operation.CREATE, "alpha"), oid="alpha#1", timestamp=stamp
            )
            signature = handler.flush_block()
            support.check_after_block(signature, stamp, 0)
            for state in table.states():
                if state.triggered:
                    state.mark_considered(stamp, executed=False)

        # Churn: every generation registers 10 fresh rules, checks a block
        # (shipping their definitions), then removes them again.
        for generation in range(12):
            for index in range(10):
                table.add(watcher(generation * 10 + index)).reset(0)
            feed_block()
            for index in range(10):
                table.remove(f"w{generation * 10 + index}")
        feed_block()  # delivers the queued drops

        pool = support.process_pool
        assert pool is not None
        shipped = sum(len(handle.shipped_defs) for handle in pool._workers)
        pending = sum(len(handle.pending_drops) for handle in pool._workers)
        # 120 rules came and went; the shipping bookkeeping must track only
        # the live population (zero here), not the cumulative churn, and the
        # undelivered drop queue is bounded by the last generation (drops are
        # piggybacked on each worker's next contact — with no live rules the
        # final block contacts nobody).
        assert shipped == 0, shipped
        assert pending <= 10, pending
    finally:
        support.close()


# ---------------------------------------------------------------------------
# Engine-level scenarios: transactions, EB rebinds, deferred rules
# ---------------------------------------------------------------------------


RULES = """
define immediate refill for stock
events modify(quantity)
condition stock(S), occurred(modify(stock.quantity), S), S.quantity < 10
action modify(stock.quantity, S, 25)
priority 2
end

define deferred audit for stock
events create
condition stock(S), occurred(create(stock), S)
action modify(stock.maxquantity, S, 99)
priority 1
end
"""


def _run_database_scenario(shard_mode: str | None, shards: int) -> dict:
    """Two transactions of seeded operations against the full database."""
    db = ChimeraDatabase(shards=shards, shard_mode=shard_mode)
    try:
        db.define_class("stock", {"quantity": int, "maxquantity": int})
        db.define_rules(RULES)
        rng = random.Random(99)
        for _ in range(2):
            with db.transaction() as tx:
                items = [
                    tx.create(
                        "stock", {"quantity": rng.randint(1, 30), "maxquantity": 50}
                    )
                    for _ in range(4)
                ]
                for _ in range(6):
                    item = rng.choice(items)
                    tx.modify(item.oid, "quantity", rng.randint(1, 60))
                tx.delete(rng.choice(items).oid)
        return {
            "considerations": [
                (record.rule_name, record.instant, record.phase, record.executed)
                for record in db.considerations
            ],
            "rules": db.rule_statistics(),
            "stats": db.trigger_statistics(),
        }
    finally:
        db.close()


def test_database_transactions_identical_across_modes():
    """Full-engine runs (rebinds + deferred commit rechecks) line up per mode."""
    reference = _run_database_scenario(None, shards=0)
    for mode in MODES:
        result = _run_database_scenario(mode, shards=4)
        assert result == reference, f"database scenario diverged in {mode} mode"
