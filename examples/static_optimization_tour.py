"""Static optimization tour: V(E) routing on a synthetic event stream.

Run with::

    python examples/static_optimization_tour.py

The script generates a pool of composite-event rules and a synthetic stream of
primitive event occurrences, then streams the blocks through two databases:
one that routes each block only to the rules whose V(E) it can affect
(``use_static_optimization=True``, the paper's §5.1 optimization) and one that
checks every rule after every block.  It prints the per-rule variation sets,
asserts that both databases consider the same rules at the same instants and
prints how many rule checks each side ran.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.core import format_variations, variation_set
from repro.oodb.database import ChimeraDatabase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.rule import Rule
from repro.workloads import EventStreamGenerator, ExpressionGenerator


def run(expressions, blocks, optimized: bool):
    """Stream ``blocks`` through a database with one rule per expression."""
    db = ChimeraDatabase(use_static_optimization=optimized)
    try:
        for index, expression in enumerate(expressions):
            db.define_rule(
                Rule(
                    name=f"r{index}",
                    events=expression,
                    condition=TRUE_CONDITION,
                    action=NO_ACTION,
                )
            )
        for block in blocks:
            db.engine.run_stream_block(block)
        considered = [(rec.rule_name, rec.instant) for rec in db.considerations]
        return considered, db.trigger_statistics()
    finally:
        db.close()


def main() -> None:
    expression_generator = ExpressionGenerator(seed=7, instance_probability=0.2)
    expressions = expression_generator.expressions(8, operators=3)
    stream_generator = EventStreamGenerator(seed=11, events_per_block=2)
    blocks = stream_generator.blocks(300)

    print("Rules and their variation sets:")
    for index, expression in enumerate(expressions):
        print(f"  r{index}: {expression}")
        print(f"      V(E) = {format_variations(variation_set(expression))}")
    print()

    scanned, scanned_stats = run(expressions, blocks, optimized=False)
    routed, routed_stats = run(expressions, blocks, optimized=True)
    assert routed == scanned

    rows = [
        [
            label,
            stats["rules_checked"],
            stats["ts_skipped_by_filter"],
            len(considered),
        ]
        for label, stats, considered in (
            ("every rule after every block", scanned_stats, scanned),
            ("V(E) routing (static optimization)", routed_stats, routed),
        )
    ]
    print(
        render_table(
            ["database", "rules_checked", "ts_skipped_by_filter", "considerations"],
            rows,
            title=f"{len(blocks)} blocks, {len(expressions)} rules",
        )
    )

    saved = scanned_stats["rules_checked"] - routed_stats["rules_checked"]
    print()
    print(
        f"Identical considerations; routing skipped {saved} rule checks "
        f"({100.0 * saved / max(1, scanned_stats['rules_checked']):.1f}% of the "
        "unoptimized work)."
    )


if __name__ == "__main__":
    main()
