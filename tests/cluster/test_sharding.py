"""Evaluation homes and the shard coordinator's plumbing.

A shard is an evaluator, not a slice of the subscription index: the
coordinator plans through the inherited single-table planner and only deals
the candidates to their homes (``home_shard`` of the rule name).
"""

from __future__ import annotations

import pytest

from repro.cluster.coordinator import ShardCoordinator, home_shard
from repro.config import EngineConfig
from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerPlanner, TriggerSupport


def make_rule(name: str, events: str, priority: int = 0) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(events),
        condition=TRUE_CONDITION,
        action=NO_ACTION,
        priority=priority,
    )


def occurrence(eid: int, event_type: EventType, stamp: int = 1) -> EventOccurrence:
    return EventOccurrence(
        eid=eid,
        event_type=event_type,
        oid=f"{event_type.class_name}#1",
        timestamp=stamp,
    )


def signature_of(block: list[EventOccurrence]) -> frozenset[EventType]:
    """The type signature a flush of ``block`` returns."""
    return frozenset(occurrence.event_type for occurrence in block)


def processes(shards: int) -> EngineConfig:
    return EngineConfig.from_env(shards=shards, shard_mode="processes")


class TestShardAssignment:
    def test_home_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 8):
            for name in ("stock_watch", "order_watch", "neg"):
                first = home_shard(name, shards)
                assert first == home_shard(name, shards)
                assert 0 <= first < shards

    def test_pure_negation_has_a_home(self):
        table = RuleTable()
        table.add(make_rule("neg", "-create(stock)"))
        coordinator = ShardCoordinator(table, EventBase(), processes(4))
        assert coordinator._worker_of(table.get("neg")) == home_shard("neg", 4)

    def test_removed_rules_leave_the_home_memo(self):
        table = RuleTable()
        coordinator = ShardCoordinator(table, EventBase(), processes(1))
        table.add(make_rule("multi", "create(stock) , create(order)")).reset(0)
        assert coordinator.home_population() == [1]
        assert set(coordinator._homes) == {"multi"}
        table.remove("multi")
        coordinator._evaluate_states([], 1, 0)
        assert coordinator._homes == {}
        assert coordinator.home_population() == [0]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="at least 1 shard"):
            ShardCoordinator(RuleTable(), EventBase(), processes(0))


class TestCoordinatorCheck:
    def test_coordinator_plans_through_the_inherited_planner(self):
        """One planner: the coordinator overrides only the evaluation hook."""
        for method in ("plan", "check_after_block", "recheck_all"):
            assert method not in vars(ShardCoordinator), method
        assert "_evaluate_states" in vars(ShardCoordinator)
        table = RuleTable()
        event_base = EventBase()
        with ShardCoordinator(table, event_base, processes(1)) as coordinator:
            assert type(coordinator.planner) is TriggerPlanner
            table.add(make_rule("stock_watch", "create(stock)"))
            table.add(make_rule("order_watch", "create(order)"))
            for state in table:
                state.disarm()
            stock = EventType(Operation.CREATE, "stock")
            event_base.append(occurrence(1, stock, stamp=1))
            newly = coordinator.check_after_block(frozenset({stock}), 1, 0)
            assert [state.rule.name for state in newly] == ["stock_watch"]
            assert coordinator.stats.rules_routed == 1
            assert coordinator.stats.ts_skipped_by_filter == 1
            assert coordinator.cluster_stats.dispatch_trips == 1
        assert isinstance(coordinator, TriggerSupport)

    def test_parallel_pool_lifecycle(self):
        table = RuleTable()
        event_base = EventBase()
        with ShardCoordinator(table, event_base, processes(4)) as coordinator:
            for index, class_name in enumerate(("stock", "order", "show")):
                table.add(make_rule(f"w{index}", f"create({class_name})"))
            block = [
                occurrence(eid, EventType(Operation.CREATE, cls), stamp=1)
                for eid, cls in enumerate(("stock", "order", "show"), start=1)
            ]
            for item in block:
                event_base.append(item)
            newly = coordinator.check_after_block(signature_of(block), 1, 0)
            assert sorted(state.rule.name for state in newly) == ["w0", "w1", "w2"]
            assert coordinator.process_pool is not None
        assert coordinator.process_pool is None
        coordinator.close()  # idempotent
