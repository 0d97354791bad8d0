"""The planner's signature memo: bounded, LRU, and invalidated by the epoch.

``TriggerPlanner`` memoises the definition-ordered subscribers per block
signature in an LRU of ``PLAN_MEMO_SIZE`` entries, validated against the
table's ``plan_epoch``.  Pinned here: a stream whose signatures never repeat
holds the memo at the constant (memory stays flat), recurring signatures
survive eviction, a memo of one entry is semantically invisible, and every
change that can alter a signature's subscribers — rule add/remove, schema
growth, a schema rebind — drops the memo, while enable/disable (filtered per
block) does not.
"""

from __future__ import annotations

from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.oodb.database import ChimeraDatabase
from repro.oodb.schema import Schema
from repro.rules import trigger_support
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import PLAN_MEMO_SIZE, TriggerPlanner

STOCK = EventType(Operation.CREATE, "stock")
RUSH = EventType(Operation.CREATE, "rush")


def watcher(name: str, events: str) -> Rule:
    return Rule(
        name=name,
        events=parse_expression(events),
        condition=TRUE_CONDITION,
        action=NO_ACTION,
    )


def build_planner(classes: int) -> tuple[RuleTable, TriggerPlanner, list[EventType]]:
    table = RuleTable()
    universe: list[EventType] = []
    for index in range(classes):
        name = f"cls{index}"
        universe.append(EventType(Operation.CREATE, name))
        table.add(watcher(f"watch_{name}", f"create({name})")).reset(0)
    for state in table:
        state.had_nonempty_window = True  # routed, not pending full checks
    return table, TriggerPlanner(table), universe


def count_lookups(table: RuleTable, monkeypatch) -> list[int]:
    """Count the index lookups the planner makes (one per memo miss)."""
    calls = [0]
    lookup = table.subscribers_for_signature

    def counted(signature):
        calls[0] += 1
        return lookup(signature)

    monkeypatch.setattr(table, "subscribers_for_signature", counted)
    return calls


def planned(planner: TriggerPlanner, *types: EventType) -> set[str]:
    return {state.rule.name for state in planner.plan(frozenset(types)).candidates}


def test_never_repeating_signatures_hold_the_memo_at_the_constant():
    table, planner, universe = build_planner(classes=400)
    # Every signature is distinct (a sliding pair over 400 types): an
    # unbounded memo would end up with hundreds of entries.
    for index in range(len(universe) - 1):
        signature = frozenset(universe[index : index + 2])
        assert {state.rule.name for state in planner.plan(signature).candidates} == {
            f"watch_cls{index}",
            f"watch_cls{index + 1}",
        }
        assert len(planner._memo) <= PLAN_MEMO_SIZE
    # The bound is a cap, not a flush: the memo sits exactly at capacity.
    assert len(planner._memo) == PLAN_MEMO_SIZE


def test_eviction_is_lru_recurring_shapes_stay_hot(monkeypatch):
    monkeypatch.setattr(trigger_support, "PLAN_MEMO_SIZE", 8)
    table, planner, universe = build_planner(classes=64)
    hot = frozenset(universe[:2])
    planner.plan(hot)
    for index in range(2, 40):
        planner.plan(frozenset(universe[index : index + 1]))
        planner.plan(hot)  # re-touch: must never be evicted
        assert len(planner._memo) <= 8
    lookups = count_lookups(table, monkeypatch)
    assert planned(planner, *hot) == {"watch_cls0", "watch_cls1"}
    assert lookups == [0]  # still memoised -> a pure hit
    assert hot in planner._memo


def test_memo_of_one_entry_stays_semantically_invisible(monkeypatch):
    """Constant eviction (every lookup a miss) changes no decision: the
    routed single table still equals the exhaustive scan, and the process
    coordinator, planning through the same memo, equals the single table."""
    from tests.cluster.test_shard_equivalence import run_scenario
    from tests.rules import test_planner_equivalence as planner_equivalence

    scenarios = [planner_equivalence.build_scenario(seed) for seed in (3, 6)]
    references = [run_scenario(scenario) for scenario in scenarios]
    monkeypatch.setattr(trigger_support, "PLAN_MEMO_SIZE", 1)
    for scenario, reference in zip(scenarios, references):
        routed = planner_equivalence.run_scenario(scenario, routed=True)
        assert routed == planner_equivalence.run_scenario(scenario, routed=False)
        assert run_scenario(scenario) == reference
        assert run_scenario(scenario, shards=3) == reference


def test_add_and_remove_invalidate_the_memo():
    table = RuleTable()
    planner = TriggerPlanner(table)
    table.add(watcher("first", "create(stock)")).had_nonempty_window = True
    assert planned(planner, STOCK) == {"first"}
    table.add(watcher("second", "create(stock)")).had_nonempty_window = True
    assert planned(planner, STOCK) == {"first", "second"}
    table.remove("second")
    assert planned(planner, STOCK) == {"first"}


def test_disable_is_filtered_without_invalidation(monkeypatch):
    table = RuleTable()
    planner = TriggerPlanner(table)
    table.add(watcher("watcher", "create(stock)")).had_nonempty_window = True
    assert planned(planner, STOCK) == {"watcher"}
    lookups = count_lookups(table, monkeypatch)
    table.disable("watcher")
    assert planned(planner, STOCK) == set()
    table.enable("watcher")
    table.get("watcher").had_nonempty_window = True
    assert planned(planner, STOCK) == {"watcher"}
    # Enable/disable changes no subscription shape: the memo survived.
    assert lookups == [0]


def test_schema_growth_invalidates_the_memo():
    schema = Schema()
    schema.define("order")
    table = RuleTable()
    table.bind_schema(schema)
    planner = TriggerPlanner(table)
    table.add(watcher("watcher", "create(order)")).had_nonempty_window = True
    special = EventType(Operation.CREATE, "special")
    assert planned(planner, special) == set()
    schema.define("special", superclass="order")
    assert planned(planner, special) == {"watcher"}


def _rebound_schemas() -> tuple[Schema, Schema]:
    """Two schemas of one ``version``: ``rush`` is an ``order`` only in the
    second."""
    apart, related = Schema(), Schema()
    apart.define("order")
    apart.define("rush")
    related.define("order")
    related.define("rush", superclass="order")
    assert apart.version == related.version
    return apart, related


def test_schema_rebind_invalidates_the_memo():
    apart, related = _rebound_schemas()
    table = RuleTable()
    table.bind_schema(apart)
    planner = TriggerPlanner(table)
    table.add(watcher("r", "create(order)")).had_nonempty_window = True
    assert planned(planner, RUSH) == set()
    table.bind_schema(related)
    assert list(table.subscribers_for_signature({RUSH})) == ["r"]
    assert planned(planner, RUSH) == {"r"}


def test_schema_rebind_reaches_the_engine_plan():
    """Through the engine, on any shard setting: after a rebind to a schema
    of equal version, a block the rule's ``V(E)`` filter now matches must
    visit the rule."""
    apart, related = _rebound_schemas()
    db = ChimeraDatabase(shards=2)
    try:
        db.rule_table.bind_schema(apart)
        db.define_rule(watcher("r", "create(order)"))
        state = db.rule_state("r")
        db.engine.run_stream_block(
            [EventOccurrence(eid=1, event_type=RUSH, oid="rush#1", timestamp=1)]
        )
        assert state.ts_computations == 1  # the fresh rule's pending check
        assert not state.recomputation_filter.matches(RUSH)
        db.rule_table.bind_schema(related)
        assert state.recomputation_filter.matches(RUSH)
        db.engine.run_stream_block(
            [EventOccurrence(eid=2, event_type=RUSH, oid="rush#2", timestamp=2)]
        )
        assert state.ts_computations == 2
    finally:
        db.close()


def test_pending_riders_join_a_memoised_plan_in_definition_order():
    """A memo hit still adds the block's pending-full-check riders, and the
    candidates stay definition-ordered when one joins mid-tuple."""
    table = RuleTable()
    planner = TriggerPlanner(table)
    table.add(watcher("early", "create(stock)")).had_nonempty_window = True
    table.add(watcher("rider", "create(order)"))  # fresh: a pending full check
    table.add(watcher("late", "create(stock)")).had_nonempty_window = True
    first = planner.plan(frozenset({STOCK}))
    assert [state.rule.name for state in first.candidates] == ["early", "rider", "late"]
    assert (first.routed, first.bypassed) == (2, 0)
    table.get("rider").had_nonempty_window = True  # its first window was seen
    second = planner.plan(frozenset({STOCK}))
    assert [state.rule.name for state in second.candidates] == ["early", "late"]
    assert (second.routed, second.bypassed) == (2, 1)
