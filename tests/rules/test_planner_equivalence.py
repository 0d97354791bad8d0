"""Routed-vs-exhaustive-scan equivalence of the trigger planning pipeline.

The PR-2 subscription index must be *semantically invisible*: whatever the
block, the rules the :class:`TriggerPlanner` routes plus the pending
full-check rules must produce exactly the decisions of the exhaustive scan.
Random scenarios (in the seeded style of
``tests/core/test_incremental_triggering.py``) pin, block by block:

* identical newly-triggered rule sets,
* identical per-rule triggering/consideration counters,
* identical priority-order selections — and every selection also checked
  against a brute-force reference (sort the triggered states on
  ``(-priority, definition_order)``), pinning the lazy heaps against the
  seed's per-selection sort,

across two configurations: routed (index) and the paper's baseline, the
exhaustive scan without the static optimization.  The scenarios include
overlapping class-level / attribute-specific patterns in both the rules and
the stream, pure negations (rules any occurrence can
unblock), priority ties, rule removals and disable/enable flips mid-run, and
empty blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.config import EngineConfig
from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import ECCoupling, Rule
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport
from repro.workloads.generator import ExpressionGenerator

#: Universe with deliberate class/attribute overlap: class-level
#: ``modify(clsN)`` patterns and occurrences coexist with attribute-specific
#: ones, so the index's bidirectional matching is exercised in both
#: directions (class-level watch x attribute occurrence and vice versa).
def overlap_universe(classes: int = 3) -> list[EventType]:
    types: list[EventType] = []
    for index in range(classes):
        name = f"cls{index}"
        types.append(EventType(Operation.CREATE, name))
        types.append(EventType(Operation.DELETE, name))
        types.append(EventType(Operation.MODIFY, name))  # class-level modify
        types.append(EventType(Operation.MODIFY, name, "attr0"))
        types.append(EventType(Operation.MODIFY, name, "attr1"))
    return types


@dataclass(frozen=True)
class Scenario:
    """A reproducible script: rules, blocks and mid-run table mutations."""

    rules: tuple[Rule, ...]
    blocks: tuple[tuple[EventOccurrence, ...], ...]
    #: block index -> rule names removed just before that block
    removals: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: block index -> rules re-added (same name, fresh definition) just
    #: before that block — only applied if the name was already removed
    readds: dict[int, tuple[Rule, ...]] = field(default_factory=dict)
    #: block index -> rule names whose enabled flag is flipped before that block
    flips: dict[int, tuple[str, ...]] = field(default_factory=dict)


def build_scenario(seed: int, rule_count: int = 14, block_count: int = 24) -> Scenario:
    rng = random.Random(seed)
    universe = overlap_universe()
    expressions = ExpressionGenerator(
        event_types=universe, seed=seed * 31 + 1, instance_probability=0.3
    ).expressions(rule_count - 2, operators=rng.randint(1, 3))
    rules = [
        Rule(
            name=f"r{index}",
            events=expression,
            condition=TRUE_CONDITION,
            action=NO_ACTION,
            priority=rng.randint(0, 3),  # few levels -> plenty of ties
            coupling=rng.choice(list(ECCoupling)),
        )
        for index, expression in enumerate(expressions)
    ]
    # Always include a pure negation (any occurrence may unblock it) and an
    # explicit class-level watcher, whatever the generator drew.
    rules.append(
        Rule(
            name="pure_negation",
            events=parse_expression("-create(cls0)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
            priority=rng.randint(0, 3),
        )
    )
    rules.append(
        Rule(
            name="class_watcher",
            events=parse_expression("modify(cls1)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
            priority=rng.randint(0, 3),
        )
    )

    blocks: list[tuple[EventOccurrence, ...]] = []
    eid, stamp = 0, 0
    for _ in range(block_count):
        if rng.random() < 0.15:
            blocks.append(())  # empty block
            continue
        block: list[EventOccurrence] = []
        stamp += 1
        for _ in range(rng.randint(1, 4)):
            event_type = rng.choice(universe)
            eid += 1
            block.append(
                EventOccurrence(
                    eid=eid,
                    event_type=event_type,
                    oid=f"{event_type.class_name}#{rng.randint(1, 3)}",
                    timestamp=stamp,
                )
            )
        blocks.append(tuple(block))

    names = [rule.name for rule in rules]
    removals: dict[int, tuple[str, ...]] = {}
    readds: dict[int, tuple[Rule, ...]] = {}
    removable = rng.sample(names, k=3)
    for name in removable:
        index = rng.randrange(4, block_count - 4)
        removals[index] = removals.get(index, ()) + (name,)
        if rng.random() < 0.7:
            # Re-add the same name later with a fresh definition/priority —
            # stale index or heap entries of the old rule must not leak.
            readd_index = rng.randrange(index + 2, block_count)
            replacement = Rule(
                name=name,
                events=rng.choice(expressions),
                condition=TRUE_CONDITION,
                action=NO_ACTION,
                priority=rng.randint(0, 3),
                coupling=rng.choice(list(ECCoupling)),
            )
            readds[readd_index] = readds.get(readd_index, ()) + (replacement,)
    flips: dict[int, tuple[str, ...]] = {}
    for name in rng.sample([n for n in names if n not in removable], k=3):
        index = rng.randrange(1, block_count)
        flips[index] = flips.get(index, ()) + (name,)
    return Scenario(
        rules=tuple(rules),
        blocks=tuple(blocks),
        removals=removals,
        readds=readds,
        flips=flips,
    )


def run_scenario(scenario: Scenario, routed: bool) -> dict:
    """Execute a scenario routed or as the exhaustive scan; return its trace."""
    event_base = EventBase()
    table = RuleTable()
    removed: set[str] = set()
    disabled: set[str] = set()
    for rule in scenario.rules:
        table.add(rule).reset(0)
    handler = EventHandler(event_base)
    support = TriggerSupport(
        table, event_base, EngineConfig.from_env(use_static_optimization=routed)
    )

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
        batch = handler.store_external(block)
        now = block[-1].timestamp if block else (event_base.latest_timestamp() or 1)
        newly = support.check_after_block(
            batch, now, 0, type_signature=batch.type_signature
        )
        considered: list[str] = []
        while True:
            reference = sorted(
                (
                    state
                    for state in table
                    if state.enabled and state.triggered
                ),
                key=lambda state: (-state.rule.priority, state.definition_order),
            )
            selected = table.select_for_consideration()
            assert selected is (reference[0] if reference else None), (
                "heap selection disagrees with the sorted reference"
            )
            # Exercise the coupling-filtered heaps too.
            for coupling in ECCoupling:
                expected = next(
                    (s for s in reference if s.rule.coupling is coupling), None
                )
                assert table.select_for_consideration(coupling) is expected
            if selected is None:
                break
            considered.append(selected.rule.name)
            selected.mark_considered(now, executed=False)
        trace.append(
            (
                position,
                sorted(state.rule.name for state in newly),
                considered,
            )
        )

    counters = {
        state.rule.name: (state.times_triggered, state.times_considered)
        for state in table.states()
    }
    return {"trace": trace, "counters": counters}


def test_routed_equals_exhaustive_scan_on_random_scenarios():
    for seed in range(25):
        scenario = build_scenario(seed)
        routed = run_scenario(scenario, routed=True)
        scanned = run_scenario(scenario, routed=False)
        assert routed == scanned, f"seed {seed}: routed != exhaustive scan"


def test_routed_equals_exhaustive_scan_with_larger_rule_pools():
    for seed in (101, 202):
        scenario = build_scenario(seed, rule_count=40, block_count=30)
        routed = run_scenario(scenario, routed=True)
        scanned = run_scenario(scenario, routed=False)
        assert routed == scanned, f"seed {seed}"


def test_removal_of_triggered_rule_mid_run():
    """Removing a rule that is currently triggered must not corrupt selection."""
    table = RuleTable()
    for name, priority in (("low", 1), ("high", 9)):
        table.add(
            Rule(
                name=name,
                events=parse_expression("create(cls0)"),
                condition=TRUE_CONDITION,
                action=NO_ACTION,
                priority=priority,
            )
        ).reset(0)
    for state in table.states():
        state.mark_triggered(1)
    assert table.select_for_consideration().rule.name == "high"
    table.remove("high")
    assert table.select_for_consideration().rule.name == "low"
    table.remove("low")
    assert table.select_for_consideration() is None
