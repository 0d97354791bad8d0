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
  ``(-priority, definition_order)``), pinning the sorted priority queues
  against the seed's per-selection sort,

across two configurations: routed (index) and the paper's baseline, the
exhaustive scan without the static optimization.  The scenarios include
overlapping class-level / attribute-specific patterns in both the rules and
the stream, pure negations (rules any occurrence can
unblock), priority ties, rule removals and disable/enable flips mid-run —
before a block, and between a block's check and its consideration loop, so a
rule can be disabled while triggered — and empty blocks.  A database whose schema holds a subclass chain streams
subclass occurrences at rules on the superclass: routing compares class
names exactly, as the calculus does, so the routed database must still
decide like the exhaustive scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.config import EngineConfig
from repro.core.parser import parse_expression
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
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
    #: block index -> rule names flipped after that block's check, before its
    #: consideration loop: a disable there lands between a triggering and its
    #: consideration
    late_flips: dict[int, tuple[str, ...]] = field(default_factory=dict)


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
            # index or queue entries of the old rule must not leak.
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
    late_flips: dict[int, tuple[str, ...]] = {}
    for name in rng.sample([n for n in names if n not in removable], k=4):
        index = rng.randrange(0, block_count - 1)
        # Off after one block's check, back on after a later one's.
        for at in (index, rng.randrange(index + 1, block_count)):
            late_flips[at] = late_flips.get(at, ()) + (name,)
    return Scenario(
        rules=tuple(rules),
        blocks=tuple(blocks),
        removals=removals,
        readds=readds,
        flips=flips,
        late_flips=late_flips,
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

    def flip(name: str) -> bool:
        """Toggle ``name``'s enabled flag; True when it disabled a triggered rule."""
        if name in removed:
            return False
        if name in disabled:
            table.enable(name)
            disabled.discard(name)
            return False
        pending = table.get(name).triggered
        table.disable(name)
        disabled.add(name)
        return pending

    trace: list[tuple] = []
    pending_disabled = 0
    for position, block in enumerate(scenario.blocks):
        for name in scenario.removals.get(position, ()):
            if name not in removed:
                table.remove(name)
                removed.add(name)
        for rule in scenario.readds.get(position, ()):
            if rule.name in removed:
                # A bare add over a log that already holds rows (windows from
                # the transaction start, 0): the rule rides for one check,
                # since no later block routes those rows again.  A reset
                # would declare its window empty.
                table.add(rule)
                removed.discard(rule.name)
        for name in scenario.flips.get(position, ()):
            flip(name)
        signature = handler.store_external(block)
        now = block[-1].timestamp if block else (event_base.latest_timestamp() or 1)
        newly = support.check_after_block(signature, now, 0)
        for name in scenario.late_flips.get(position, ()):
            pending_disabled += flip(name)
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
                "queue selection disagrees with the sorted reference"
            )
            # Exercise the coupling-filtered queues too.
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
    return {"trace": trace, "counters": counters, "pending_disabled": pending_disabled}


def test_routed_equals_exhaustive_scan_on_random_scenarios():
    for seed in range(25):
        scenario = build_scenario(seed)
        routed = run_scenario(scenario, routed=True)
        scanned = run_scenario(scenario, routed=False)
        assert routed == scanned, f"seed {seed}: routed != exhaustive scan"


@pytest.mark.parametrize("routed", [True, False], ids=["routed", "exhaustive"])
def test_the_sweeps_disable_rules_between_triggering_and_consideration(routed):
    """The late flips disable rules while they are triggered: re-enabled
    after later blocks, such a rule must be triggered again from the rows
    its window still holds, routed as the exhaustive scan does (the sweeps
    above compare the two; an ``enable`` that did not arm the rule fails
    them)."""
    landed = sum(
        run_scenario(build_scenario(seed), routed)["pending_disabled"]
        for seed in range(25)
    )
    assert landed >= 10


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


def _disable_enable_trace(routed: bool) -> list[list[str]]:
    """Rule ``r`` on ``create(a)``; blocks ``create(a)``, then (disabled)
    ``create(c)``, then (re-enabled) ``create(c)``; triggered per block."""
    event_base = EventBase()
    table = RuleTable()
    table.add(
        Rule(
            name="r",
            events=parse_expression("create(a)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
    ).reset(0)
    handler = EventHandler(event_base)
    support = TriggerSupport(
        table, event_base, EngineConfig.from_env(use_static_optimization=routed)
    )
    trace = []
    for stamp, (flip, class_name) in enumerate(
        ((None, "a"), (table.disable, "c"), (table.enable, "c")), 1
    ):
        if flip is not None:
            flip("r")
        event_base.record(
            EventType(Operation.CREATE, class_name), f"{class_name}#1", stamp
        )
        signature = handler.flush_block()
        newly = support.check_after_block(signature, stamp, 0)
        trace.append([state.rule.name for state in newly])
    return trace


@pytest.mark.parametrize("routed", [True, False], ids=["routed", "exhaustive"])
def test_reenabling_rechecks_a_window_that_still_holds_a_triggering(routed):
    """ROADMAP.md item 15, reading 10: what disable does to a pending triggering.

    *Paper:* a rule is triggered at ``t`` when ``ts`` over the occurrences
    since its last consideration is positive (§4.5, ``T(r, t)``), and only a
    consideration detriggers it (§5).  The paper has no disable; the Rule
    Table's is this reproduction's.
    *Alternative reading:* disabling consumes the window, as a consideration
    would, so a re-enabled rule waits for a new occurrence of its own types:
    ``[['r'], [], []]`` on both paths.
    *Chosen reading:* disabling only hides the rule.  It clears the
    triggered flag but not the window, which still starts at the last
    consideration, so the re-enabled rule triggers again on the next
    non-empty block while the window holds ``create(a)``: ``[['r'], [],
    ['r']]``, the exhaustive scan's answer.  The routed planner agrees
    because ``enable`` re-arms the rule as a rider for one check; no later
    block's signature need route it.  Under the alternative this test fails
    on both paths.
    """
    assert _disable_enable_trace(routed) == [["r"], [], ["r"]]


@pytest.mark.parametrize("routed", [True, False], ids=["routed", "exhaustive"])
def test_a_deferred_rule_reenabled_mid_transaction_is_triggered_before_commit(routed):
    """Reading 10 through the database: a deferred rule disabled and re-enabled
    inside the transaction is triggered again before commit, so the commit's
    exhaustive ``recheck_all`` is not what finds it."""
    db = ChimeraDatabase(use_static_optimization=routed)
    try:
        db.define_class("a", ["x"])
        db.define_class("c", ["x"])
        db.define_rule("define deferred r events create(a) end")
        with db.transaction() as tx:
            tx.create("a", {"x": 1})
            assert db.rule_state("r").triggered
            db.disable_rule("r")
            tx.create("c", {"x": 1})
            db.enable_rule("r")
            assert not db.rule_state("r").triggered
            tx.create("c", {"x": 2})
            assert db.rule_state("r").triggered
        assert [record.rule_name for record in db.considerations] == ["r"]
    finally:
        db.close()


#: A subclass chain: ``express`` specializes ``rush``, which specializes
#: ``order``; only ``order`` declares ``amount``.
CHAIN = (("order", None), ("rush", "order"), ("express", "rush"))


def chain_universe() -> list[EventType]:
    types: list[EventType] = []
    for name, _ in CHAIN:
        types.append(EventType(Operation.CREATE, name))
        types.append(EventType(Operation.DELETE, name))
        types.append(EventType(Operation.MODIFY, name, "amount"))
    return types


def run_schema_scenario(seed: int, routed: bool) -> dict:
    """Stream subclass-heavy blocks at superclass rules through a database
    whose schema holds :data:`CHAIN`; return its decisions."""
    rng = random.Random(seed)
    universe = chain_universe()
    superclass = [
        event_type for event_type in universe if event_type.class_name == "order"
    ]
    generator = ExpressionGenerator(
        event_types=superclass, seed=seed * 31 + 1, instance_probability=0.3
    )
    expressions = generator.expressions(10, operators=rng.randint(1, 3))
    db = ChimeraDatabase(use_static_optimization=routed)
    try:
        for name, parent in CHAIN:
            attributes = {"amount": int} if parent is None else None
            db.define_class(name, attributes, superclass=parent)
        for index, expression in enumerate(expressions):
            db.define_rule(
                Rule(
                    name=f"r{index}",
                    events=expression,
                    condition=TRUE_CONDITION,
                    action=NO_ACTION,
                    priority=rng.randint(0, 3),
                )
            )
        eid = 0
        for stamp in range(1, 31):
            block = []
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
            db.engine.run_stream_block(block)
        return {
            "considered": [(rec.rule_name, rec.instant) for rec in db.considerations],
            "triggered": {
                state.rule.name: state.times_triggered
                for state in db.rule_table.states()
            },
        }
    finally:
        db.close()


def test_routed_equals_exhaustive_scan_under_a_subclass_chain():
    for seed in range(8):
        routed = run_schema_scenario(seed, routed=True)
        assert routed == run_schema_scenario(seed, routed=False), f"seed {seed}"
        assert routed["considered"], f"seed {seed}: nothing was considered"


def test_a_database_routes_subclass_occurrences_by_exact_class():
    """The schema's hierarchy does not reach the index: a ``create(rush)``
    block is routed to no ``create(order)`` watcher, so it costs that rule no
    check."""
    db = ChimeraDatabase()
    try:
        for name, parent in CHAIN:
            db.define_class(name, superclass=parent)
        db.define_rule("define on_order events create(order) end")
        table = db.rule_table
        for name, _ in CHAIN:
            signature = {EventType(Operation.CREATE, name)}
            expected = ["on_order"] if name == "order" else []
            assert list(table.subscribers_for_signature(signature)) == expected
    finally:
        db.close()


#: The single table, and the benchmark's process placement.
PLACEMENTS = {
    "single": {"shards": 0},
    "processes": {"shards": 2, "shard_mode": "processes"},
}


@pytest.mark.parametrize("entry", ["transaction", "stream"])
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_a_subclass_create_never_triggers_a_superclass_rule(placement, entry):
    """``create(rush)`` is no ``create(order)`` occurrence, though ``rush``
    specializes ``order``: the calculus compares class names exactly
    (:meth:`EventType.matches`), on every placement, whether the occurrence
    comes from a transaction or from a stream block."""
    from tests.cluster.test_process_pool import homed_names

    # Both rules are checked by the worker when there is one.
    order_watch, rush_watch = homed_names([1, 1])
    db = ChimeraDatabase(**PLACEMENTS[placement])
    try:
        db.define_class("order", {"amount": int})
        db.define_class("rush", superclass="order")
        watches = ((order_watch, "create(order)"), (rush_watch, "create(rush)"))
        for name, events in watches:
            db.define_rule(
                Rule(
                    name=name,
                    events=parse_expression(events),
                    condition=TRUE_CONDITION,
                    action=NO_ACTION,
                )
            )
        stamps = iter(range(1, 100))

        def create(class_name: str) -> None:
            if entry == "transaction":
                with db.transaction() as tx:
                    tx.create(class_name, {"amount": 1})
            else:
                stamp = next(stamps)
                event_type = EventType(Operation.CREATE, class_name)
                occurrence = EventOccurrence(
                    eid=stamp,
                    event_type=event_type,
                    oid=f"{class_name}#{stamp}",
                    timestamp=stamp,
                )
                db.engine.run_stream_block([occurrence])

        def triggered() -> tuple[int, int]:
            return tuple(
                db.rule_state(name).times_triggered
                for name in (order_watch, rush_watch)
            )

        for _ in range(3):
            create("rush")
        assert triggered() == (0, 3)
        create("order")
        assert triggered() == (1, 3)
    finally:
        db.close()
