"""The planner's signature memo: bounded, LRU, and invalidated by the epoch.

``TriggerPlanner`` memoises the definition-ordered subscribers per block
signature in an LRU of ``PLAN_MEMO_SIZE`` entries, validated against the
table's ``plan_epoch``.  Pinned here: a stream whose signatures never repeat
holds the memo at the constant (memory stays flat), recurring signatures
survive eviction, a memo of one entry is semantically invisible, and every
change that can alter a signature's subscribers — rule add/remove — drops the
memo, while enable/disable (filtered per block) does not.
"""

from __future__ import annotations

from repro.core.parser import parse_expression
from repro.events.event import EventType, Operation
from repro.rules import trigger_support
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import PLAN_MEMO_SIZE, TriggerPlanner

STOCK = EventType(Operation.CREATE, "stock")


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
        state.disarm()  # routed, not pending full checks
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
    table.add(watcher("first", "create(stock)")).disarm()
    assert planned(planner, STOCK) == {"first"}
    table.add(watcher("second", "create(stock)")).disarm()
    assert planned(planner, STOCK) == {"first", "second"}
    table.remove("second")
    assert planned(planner, STOCK) == {"first"}


def test_the_epoch_moves_on_add_and_remove_only():
    table = RuleTable()
    epochs = [table.plan_epoch()]
    state = table.add(watcher("watcher", "create(stock)"))
    epochs.append(table.plan_epoch())
    table.disable("watcher")
    table.enable("watcher")
    state.mark_triggered(1)
    state.mark_considered(2, executed=False)
    epochs.append(table.plan_epoch())
    table.remove("watcher")
    epochs.append(table.plan_epoch())
    assert epochs[1] != epochs[0]
    assert epochs[2] == epochs[1]
    assert epochs[3] != epochs[2]


def test_disable_is_filtered_without_invalidation(monkeypatch):
    table = RuleTable()
    planner = TriggerPlanner(table)
    table.add(watcher("watcher", "create(stock)")).disarm()
    assert planned(planner, STOCK) == {"watcher"}
    lookups = count_lookups(table, monkeypatch)
    table.disable("watcher")
    assert planned(planner, STOCK) == set()
    table.enable("watcher")
    table.get("watcher").disarm()
    assert planned(planner, STOCK) == {"watcher"}
    # Enable/disable changes no subscription shape: the memo survived.
    assert lookups == [0]


def test_pending_riders_join_a_memoised_plan_in_definition_order():
    """A memo hit still adds the block's pending-full-check riders, and the
    candidates stay definition-ordered when one joins mid-tuple."""
    table = RuleTable()
    planner = TriggerPlanner(table)
    table.add(watcher("early", "create(stock)")).disarm()
    table.add(watcher("rider", "create(order)"))  # fresh: a pending full check
    table.add(watcher("late", "create(stock)")).disarm()
    first = planner.plan(frozenset({STOCK}))
    assert [state.rule.name for state in first.candidates] == ["early", "rider", "late"]
    assert (first.routed, first.bypassed) == (2, 0)
    table.get("rider").disarm()  # its first window was seen
    second = planner.plan(frozenset({STOCK}))
    assert [state.rule.name for state in second.candidates] == ["early", "late"]
    assert (second.routed, second.bypassed) == (2, 1)
