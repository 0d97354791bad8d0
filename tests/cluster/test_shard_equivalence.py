"""Sharded-vs-unsharded equivalence of the trigger pipeline.

The shard coordinator must be *semantically invisible*, exactly like the
PR-2 subscription index before it: for any stream, any shard count and any
mid-run table churn, the :class:`ShardCoordinator` — the inherited planner,
candidates dealt to their evaluation homes, home 0 checked inline and the
rest on process workers — must produce the same triggered sets, the same
per-rule counters and the same priority-order firing sequence as the
single-table :class:`TriggerSupport`.

The scenarios come from ``tests/rules/test_planner_equivalence.py`` (random
rules over overlapping class/attribute patterns, pure negations, priority
ties, empty blocks, removals / re-adds / disable-enable flips mid-run); here
they are replayed across shard counts 1–8.  ``run_scenario`` is shared with
``tests/cluster/test_mode_equivalence.py``, which replays the same churn
across rechecks and the engine's two shard modes.
"""

from __future__ import annotations

import dataclasses

from repro.cluster.coordinator import ShardCoordinator
from repro.config import EngineConfig
from repro.core.evaluation import EvaluationMode
from repro.events.event_base import EventBase
from repro.rules.event_handler import EventHandler
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

from tests.oracle import OracleTriggerSupport
from tests.rules.test_planner_equivalence import Scenario, build_scenario


def run_scenario(
    scenario: Scenario,
    shards: int = 0,
    shard_mode: str = "processes",
    recheck_every: int = 0,
    oracle: bool = False,
    metric_prefixes: tuple[str, ...] = ("trigger.",),
    routed: bool = True,
    oracle_mode: EvaluationMode = EvaluationMode.LOGICAL,
) -> dict:
    """Execute a scenario block by block; ``shards=0`` is the single-table reference.

    Every block is flushed, checked through ``check_after_block`` and its
    triggered rules considered before the next block's churn applies.
    ``shards``/``shard_mode`` are assembled the way the engine assembles
    them: a coordinator for ``processes`` with ``shards > 0``, the single
    table otherwise (``serial`` with N shards *is* the single table);
    ``recheck_every=N`` runs a commit-style ``recheck_all`` after every Nth
    block, exercising the exhaustive path the process mode must also route
    through its workers.  ``oracle=True`` (single table only) evaluates every
    exact check through the reference evaluator instead of the engine's
    compiled kernels (:class:`tests.oracle.OracleTriggerSupport`), in the
    paper's ``oracle_mode`` formulation.
    ``metric_prefixes`` filters which snapshot counters of the PR-8 metrics
    registry land in the returned ``"metrics"`` key — the default pins the
    deterministic ``trigger.*`` counters; mode-dependent families
    (``cluster.*``, ``worker.*``, ``pool.*``) are deliberately excluded so
    whole-result equality across execution modes keeps holding.
    ``routed=False`` runs the paper's exhaustive scan instead of the planner.
    """
    event_base = EventBase()
    table = RuleTable()
    removed: set[str] = set()
    disabled: set[str] = set()
    for rule in scenario.rules:
        table.add(rule).reset(0)
    handler = EventHandler(event_base)
    config = EngineConfig.from_env(
        shards=shards,
        shard_mode=shard_mode,
        use_static_optimization=routed,
    )
    sharded = shards > 0 and shard_mode == "processes"
    assert not (oracle and sharded), "the oracle replays on the single table"
    if sharded:
        support: TriggerSupport = ShardCoordinator(table, event_base, config)
    elif oracle:
        support = OracleTriggerSupport(table, event_base, config, mode=oracle_mode)
    else:
        support = TriggerSupport(table, event_base, config)

    trace: list[tuple] = []
    for position, block in enumerate(scenario.blocks):
        for name in scenario.removals.get(position, ()):
            if name not in removed:
                table.remove(name)
                removed.add(name)
        for rule in scenario.readds.get(position, ()):
            if rule.name in removed:
                table.add(rule).reset(0)
                removed.discard(rule.name)
        for name in scenario.flips.get(position, ()):
            if name in removed:
                continue
            if name in disabled:
                table.enable(name)
                disabled.discard(name)
            else:
                table.disable(name)
                disabled.add(name)
        signature = handler.store_external(block)
        now = block[-1].timestamp if block else (event_base.latest_timestamp() or 1)
        newly = support.check_after_block(signature, now, 0)
        considered: list[str] = []
        while (selected := table.select_for_consideration()) is not None:
            considered.append(selected.rule.name)
            selected.mark_considered(now, executed=False)
        rechecked: list[str] = []
        if recheck_every and (position + 1) % recheck_every == 0:
            rechecked = [state.rule.name for state in support.recheck_all(now, 0)]
            while (selected := table.select_for_consideration()) is not None:
                rechecked.append(selected.rule.name)
                selected.mark_considered(now, executed=False)
        trace.append(
            (
                position,
                [state.rule.name for state in newly],
                considered,
                rechecked,
            )
        )

    counters = {
        state.rule.name: (state.times_triggered, state.times_considered)
        for state in table.states()
    }
    stats = dataclasses.asdict(support.stats)
    metrics = {
        name: value
        for name, value in support.metrics.snapshot()["counters"].items()
        if name.startswith(metric_prefixes)
    }
    if sharded:
        support.close()
    return {"trace": trace, "counters": counters, "stats": stats, "metrics": metrics}


def test_sharded_equals_single_table_across_shard_counts():
    for seed in range(12):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario)
        for shards in range(1, 9):
            sharded = run_scenario(scenario, shards=shards)
            assert sharded == reference, f"seed {seed}: {shards} shards != single table"


def test_sharded_equals_single_table_with_larger_rule_pools():
    for seed in (101, 202):
        scenario = build_scenario(seed, rule_count=40, block_count=30)
        reference = run_scenario(scenario)
        for shards in (1, 5, 8):
            sharded = run_scenario(scenario, shards=shards)
            assert sharded == reference, f"seed {seed}: {shards} shards"


def test_newly_triggered_order_is_definition_order():
    """The merged newly-triggered list preserves the single-table ordering."""
    scenario = build_scenario(5)
    reference = run_scenario(scenario)
    sharded = run_scenario(scenario, shards=8)
    # The trace comparison above already covers this, but pin the ordering
    # property explicitly: newly-triggered names arrive definition-ordered.
    for (_, newly, _, _), (_, sharded_newly, _, _) in zip(
        reference["trace"], sharded["trace"]
    ):
        assert newly == sharded_newly


def test_exhaustive_scan_behind_the_coordinator_equals_the_single_table():
    """``use_static_optimization=False`` skips the planner, not the homes:
    the exhaustive list goes through the same evaluation hook."""
    for seed in (4, 9):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario, shards=0, routed=False)
        assert run_scenario(scenario, shards=3, routed=False) == reference
