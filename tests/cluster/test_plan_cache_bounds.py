"""LRU bounds on the coordinator's route cache and the shard plan caches.

ROADMAP (PR-3 follow-up): the signature memos are "fine for steady
workloads, unbounded for adversarial ones" — a stream whose block signatures
never repeat used to grow both the coordinator's full-signature route cache
and every shard's sub-signature plan cache without limit.  These tests pin
the bound: under a never-repeating signature stream the caches hold at most
``plan_cache_size`` entries (memory stays flat), eviction is LRU (recurring
shapes stay resident), and the cap is threaded through the public
constructors.
"""

from __future__ import annotations

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.sharding import DEFAULT_PLAN_CACHE_SIZE, ShardedRuleTable
from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule

import pytest

from tests.cluster.test_sharding import SERIAL


def build_coordinator(
    classes: int, plan_cache_size: int
) -> tuple[ShardedRuleTable, ShardCoordinator, list[EventType]]:
    table = ShardedRuleTable(4, plan_cache_size=plan_cache_size)
    universe: list[EventType] = []
    for index in range(classes):
        name = f"cls{index}"
        universe.append(EventType(Operation.CREATE, name))
        table.add(
            Rule(
                name=f"watch_{name}",
                events=parse_expression(f"create({name})"),
                condition=TRUE_CONDITION,
                action=NO_ACTION,
            )
        ).reset(0)
    return table, ShardCoordinator(table, EventBase(), SERIAL), universe


def test_never_repeating_signatures_hold_caches_flat():
    cap = 32
    table, coordinator, universe = build_coordinator(classes=400, plan_cache_size=cap)
    # Every signature is distinct (a sliding pair over 400 types): an
    # unbounded memo would end up with hundreds of entries per cache.
    for index in range(len(universe) - 1):
        signature = frozenset(universe[index : index + 2])
        coordinator.plan_sharded(signature)
        assert len(coordinator._route_cache) <= cap
        assert all(size <= cap for size in table.plan_cache_sizes())
    assert coordinator.cluster_stats.route_cache_evictions > 0
    assert table.plan_cache_evictions > 0
    # The bound is a cap, not a flush: the caches sit exactly at capacity.
    assert len(coordinator._route_cache) == cap


def test_eviction_is_lru_recurring_shapes_stay_hot():
    cap = 8
    table, coordinator, universe = build_coordinator(classes=64, plan_cache_size=cap)
    hot = frozenset(universe[:2])
    coordinator.plan_sharded(hot)
    for index in range(2, 40):
        coordinator.plan_sharded(frozenset(universe[index : index + 1]))
        coordinator.plan_sharded(hot)  # re-touch: must never be evicted
    hits_before = table.plan_cache_hits
    coordinator.plan_sharded(hot)
    assert table.plan_cache_hits > hits_before  # still cached -> pure hits
    assert hot in coordinator._route_cache


def test_plan_cache_size_validation_and_default():
    assert ShardedRuleTable(2).plan_cache_size == DEFAULT_PLAN_CACHE_SIZE
    assert ShardedRuleTable(2, plan_cache_size=7).plan_cache_size == 7
    with pytest.raises(ValueError):
        ShardedRuleTable(2, plan_cache_size=0)


def test_cap_threads_through_the_database_facade():
    db = ChimeraDatabase(shards=3, plan_cache_size=11)
    try:
        assert db.rule_table.plan_cache_size == 11
    finally:
        db.close()


def test_bounded_caches_do_not_change_decisions():
    """A tiny cap (constant re-planning) must stay semantically invisible."""
    from tests.cluster.test_shard_equivalence import run_scenario
    from tests.rules.test_planner_equivalence import build_scenario
    from repro.events.event_base import EventBase as EB
    from repro.rules.event_handler import EventHandler

    scenario = build_scenario(6)
    reference = run_scenario(scenario)

    # Re-run sharded with plan_cache_size=1 (worst case: every lookup evicts).
    event_base = EB()
    table = ShardedRuleTable(4, plan_cache_size=1)
    for rule in scenario.rules:
        table.add(rule).reset(0)
    handler = EventHandler(event_base)
    support = ShardCoordinator(table, event_base, SERIAL)
    trace = []
    for position, block in enumerate(scenario.blocks):
        for name in scenario.removals.get(position, ()):
            if name in table:
                table.remove(name)
        for rule in scenario.readds.get(position, ()):
            if rule.name not in table:
                table.add(rule).reset(0)
        for name in scenario.flips.get(position, ()):
            if name not in table:
                continue
            state = table.get(name)
            table.disable(name) if state.enabled else table.enable(name)
        batch = handler.store_external(block)
        now = block[-1].timestamp if block else (event_base.latest_timestamp() or 1)
        newly = support.check_after_block(
            batch, now, 0, type_signature=batch.type_signature
        )
        considered = []
        while (selected := table.select_for_consideration()) is not None:
            considered.append(selected.rule.name)
            selected.mark_considered(now, executed=False)
        trace.append((position, [state.rule.name for state in newly], considered, []))
    assert trace == reference["trace"]
    assert support.stats.as_dict() == reference["stats"]
