"""The exact check samples only where ``ts`` can change sign: a fixed scenario.

By §3.1–3.2 the sign of ``ts(E, t)`` over one window changes only at stamps
of ``E``'s own matching types, so the compiled check samples the resume
range's first stamp and those stamps, never the rest of the log
(tests/core/test_properties.py::
test_the_restricted_candidates_find_the_first_positive_instant).  This is
the deterministic twin of that property and of the benchmark's
``instants_sampled`` count: a log in which nine rows in ten belong to types
no rule watches, checked block by block with memos carried, where every
decision and memo equals the reference's, every check's ``instants_sampled``
equals the brute-force count of :func:`tests.oracle.restricted_samples`, and
the total is at most a fifth of the reference's exhaustive samples.  The
totals are pinned, so they must repeat under any hash seed.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.compile import CheckBinder
from repro.core.parser import parse_expression
from repro.core.triggering import TriggerMemo
from repro.events.event import EventOccurrence, EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule

from tests.cluster.test_shard_equivalence import run_scenario
from tests.oracle import is_triggered, restricted_samples
from tests.rules.test_planner_equivalence import Scenario

#: The rules: a primitive, precedence, a class-level pattern, a pure
#: negation (active from the window's first stamp), an existential and a
#: universal lift.
RULES = {
    "created": "create(alpha)",
    "sequence": "create(alpha) < modify(alpha.qty)",
    "any_modify": "modify(alpha)",
    "quiet": "-delete(beta)",
    "paired": "create(alpha) += modify(alpha.qty)",
    "unchanged": "-=modify(alpha) + create(beta)",
}
WATCHED = (
    EventType(Operation.CREATE, "alpha"),
    EventType(Operation.MODIFY, "alpha", "qty"),
    EventType(Operation.MODIFY, "alpha", "size"),
    EventType(Operation.CREATE, "beta"),
    EventType(Operation.DELETE, "beta"),
)
NOISE = tuple(EventType(Operation.CREATE, f"noise{index}") for index in range(6))


def _blocks(count: int = 40, rows: int = 12) -> list[list[EventOccurrence]]:
    """``count`` blocks of ``rows`` rows at distinct stamps, one in ten watched."""
    rng = random.Random(4417)
    blocks, stamp = [], 0
    for _ in range(count):
        block = []
        for _ in range(rows):
            stamp += 1
            event_type = rng.choice(WATCHED if rng.random() < 0.1 else NOISE)
            block.append(
                EventOccurrence(
                    eid=stamp,
                    event_type=event_type,
                    oid=f"{event_type.class_name}#{rng.randint(1, 3)}",
                    timestamp=stamp,
                )
            )
        blocks.append(block)
    return blocks


def test_checks_sample_the_own_stamps_and_decide_like_the_reference():
    binder = CheckBinder()
    expressions = {name: parse_expression(text) for name, text in RULES.items()}
    bindings = {name: binder.bind(expr) for name, expr in expressions.items()}
    reference_memos = {name: TriggerMemo() for name in RULES}
    compiled_memos = {name: TriggerMemo() for name in RULES}
    window_starts = dict.fromkeys(RULES, 0)
    event_base = EventBase()
    restricted = exhaustive = triggered = 0
    for block in _blocks():
        event_base.extend(block)
        now = block[-1].timestamp
        for name, expression in expressions.items():
            before = replace(reference_memos[name])
            expected = is_triggered(
                expression,
                event_base,
                window_starts[name],
                now,
                memo=reference_memos[name],
            )
            actual = bindings[name].check(
                event_base, window_starts[name], now, memo=compiled_memos[name]
            )
            count = restricted_samples(
                expression, event_base, window_starts[name], now, before, expected
            )
            assert actual == replace(expected, instants_sampled=count), (name, now)
            assert compiled_memos[name] == reference_memos[name], (name, now)
            restricted += count
            exhaustive += expected.instants_sampled
            if expected.triggered:
                triggered += 1
                # A consideration: the window starts again at ``now``.
                window_starts[name] = now
    assert 5 * restricted <= exhaustive, (restricted, exhaustive)
    assert (restricted, exhaustive, triggered) == (317, 2267, 71)


def test_the_engine_replays_the_scenario_like_the_reference():
    """Through the Trigger Support: trace, counters and stats — the
    ``instants_sampled`` the oracle reports being the brute-force count —
    equal the reference replay on the single table and behind every
    coordinator."""
    scenario = Scenario(
        rules=tuple(
            Rule(
                name=name,
                events=parse_expression(text),
                condition=TRUE_CONDITION,
                action=NO_ACTION,
            )
            for name, text in RULES.items()
        ),
        blocks=tuple(tuple(block) for block in _blocks()),
    )
    reference = run_scenario(scenario, oracle=True)
    assert run_scenario(scenario) == reference
    assert run_scenario(scenario, shards=3, shard_mode="processes") == reference
    assert reference["stats"]["rules_triggered"] > 0
