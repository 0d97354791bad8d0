"""Unit tests for the sharded rule table and the shard coordinator plumbing."""

from __future__ import annotations

import pytest

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.sharding import ShardedRuleTable, home_shard, shard_of_bucket
from repro.config import EngineConfig
from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.schema import Schema
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule

#: The ambient record (``CHIMERA_TRANSPORT`` and friends reach in) pinned to
#: the coordinator's inline mode.
SERIAL = EngineConfig.from_env(shard_mode="serial")


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


class TestShardAssignment:
    def test_bucket_hash_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 8):
            for class_name in ("stock", "order", "show"):
                first = shard_of_bucket(Operation.CREATE, class_name, shards)
                assert first == shard_of_bucket(Operation.CREATE, class_name, shards)
                assert 0 <= first < shards

    def test_same_class_exact_and_class_watch_share_a_shard(self):
        # Every index structure one signature type touches is keyed by types
        # of one (operation, class) pair — the invariant routing relies on.
        table = ShardedRuleTable(8)
        table.add(make_rule("attr", "modify(stock.quantity)"))
        table.add(make_rule("cls", "modify(stock)"))
        assert table.shards_of_rule("attr") == table.shards_of_rule("cls")

    def test_multi_bucket_rule_is_registered_on_each_owner(self):
        table = ShardedRuleTable(8)
        table.add(make_rule("multi", "create(stock) , create(order)"))
        expected = {
            shard_of_bucket(Operation.CREATE, "stock", 8),
            shard_of_bucket(Operation.CREATE, "order", 8),
        }
        assert set(table.shards_of_rule("multi")) == expected

    def test_pure_negation_has_no_subscription_shards_but_a_home(self):
        table = ShardedRuleTable(4)
        table.add(make_rule("neg", "-create(stock)"))
        assert table.shards_of_rule("neg") == ()
        assert table.home_shard_of("neg") == home_shard("neg", 4)

    def test_remove_unregisters_from_every_shard(self):
        table = ShardedRuleTable(8)
        table.add(make_rule("multi", "create(stock) , create(order)"))
        table.remove("multi")
        assert table.shards_of_rule("multi") == ()
        assert sum(table.home_population()) == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedRuleTable(0)

    def test_coordinator_requires_sharded_table(self):
        from repro.rules.rule_table import RuleTable

        with pytest.raises(TypeError):
            ShardCoordinator(RuleTable(), EventBase())


class TestShardPlanCache:
    def setup_method(self):
        self.table = ShardedRuleTable(4)
        self.event_base = EventBase()
        self.coordinator = ShardCoordinator(self.table, self.event_base, SERIAL)
        self.stock = EventType(Operation.CREATE, "stock")
        self.order = EventType(Operation.CREATE, "order")

    def plan_names(self, *types: EventType) -> set[str]:
        plan = self.coordinator.plan_sharded(frozenset(types))
        return {state.rule.name for _, states in plan.per_shard for state in states}

    def test_repeated_signature_hits_the_cache(self):
        self.table.add(make_rule("watcher", "create(stock)"))
        self.table.get("watcher").had_nonempty_window = True
        assert self.plan_names(self.stock) == {"watcher"}
        misses = self.table.plan_cache_misses
        assert self.plan_names(self.stock) == {"watcher"}
        assert self.table.plan_cache_misses == misses
        assert self.table.plan_cache_hits > 0

    def test_rule_add_invalidates_cached_plans(self):
        self.table.add(make_rule("first", "create(stock)"))
        self.table.get("first").had_nonempty_window = True
        assert self.plan_names(self.stock) == {"first"}
        self.table.add(make_rule("second", "create(stock)"))
        self.table.get("second").had_nonempty_window = True
        assert self.plan_names(self.stock) == {"first", "second"}

    def test_rule_removal_invalidates_cached_plans(self):
        self.table.add(make_rule("first", "create(stock)"))
        self.table.add(make_rule("second", "create(stock)"))
        for name in ("first", "second"):
            self.table.get(name).had_nonempty_window = True
        assert self.plan_names(self.stock) == {"first", "second"}
        self.table.remove("second")
        assert self.plan_names(self.stock) == {"first"}

    def test_disable_is_filtered_without_invalidation(self):
        self.table.add(make_rule("watcher", "create(stock)"))
        self.table.get("watcher").had_nonempty_window = True
        assert self.plan_names(self.stock) == {"watcher"}
        misses = self.table.plan_cache_misses
        self.table.disable("watcher")
        assert self.plan_names(self.stock) == set()
        self.table.enable("watcher")
        self.table.get("watcher").had_nonempty_window = True
        assert self.plan_names(self.stock) == {"watcher"}
        # Enable/disable changes no subscription shape: the cache survived.
        assert self.table.plan_cache_misses == misses

    def test_schema_growth_invalidates_cached_plans(self):
        schema = Schema()
        schema.define("order")
        self.table.bind_schema(schema)
        self.table.add(make_rule("watcher", "create(order)"))
        self.table.get("watcher").had_nonempty_window = True
        special = EventType(Operation.CREATE, "special")
        assert self.plan_names(special) == set()
        schema.define("special", superclass="order")
        assert self.plan_names(special) == {"watcher"}

    def test_multi_shard_rule_checked_once_per_block(self):
        self.table.add(make_rule("multi", "create(stock) , create(order)"))
        self.table.get("multi").had_nonempty_window = True
        plan = self.coordinator.plan_sharded(frozenset({self.stock, self.order}))
        names = [state.rule.name for _, states in plan.per_shard for state in states]
        assert names.count("multi") == 1
        assert plan.routed == 1


class TestCoordinatorCheck:
    def test_fanout_checks_only_owning_shards(self):
        table = ShardedRuleTable(4)
        event_base = EventBase()
        coordinator = ShardCoordinator(table, event_base, SERIAL)
        table.add(make_rule("stock_watch", "create(stock)"))
        table.add(make_rule("order_watch", "create(order)"))
        stock = EventType(Operation.CREATE, "stock")
        event_base.append(occurrence(1, stock, stamp=1))
        newly = coordinator.check_after_block([occurrence(1, stock, stamp=1)], 1, 0)
        assert [state.rule.name for state in newly] == ["stock_watch"]
        assert coordinator.cluster_stats.blocks_fanned_out == 1

    def test_parallel_pool_lifecycle(self):
        table = ShardedRuleTable(4)
        event_base = EventBase()
        with ShardCoordinator(
            table, event_base, EngineConfig.from_env(shard_mode="processes")
        ) as coordinator:
            for index, class_name in enumerate(("stock", "order", "show")):
                table.add(make_rule(f"w{index}", f"create({class_name})"))
            block = [
                occurrence(eid, EventType(Operation.CREATE, cls), stamp=1)
                for eid, cls in enumerate(("stock", "order", "show"), start=1)
            ]
            for item in block:
                event_base.append(item)
            newly = coordinator.check_after_block(block, 1, 0)
            assert sorted(state.rule.name for state in newly) == ["w0", "w1", "w2"]
            assert coordinator.process_pool is not None
        assert coordinator.process_pool is None
        coordinator.close()  # idempotent
