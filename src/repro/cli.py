"""Command-line interface for the Chimera composite-event reproduction.

Installed as the ``chimera-events`` console script (or run with
``python -m repro.cli``).  Sub-commands:

``evaluate``
    Evaluate a composite event expression over a saved event log
    (``repro.events.persistence`` JSON lines) at a given instant, optionally
    for one object.
``explain``
    Like ``evaluate`` but prints the full explanation tree (which occurrences
    support or block the activation).
``variations``
    Print the static-optimization variation set ``V(E)`` of an expression.
``simplify``
    Print the exact simplification of an expression.
``replay``
    Print a saved event log as the paper's Fig. 3 style table.
``stock-demo``
    Run the stock-management workload for a few simulated days and print the
    rule and Trigger Support statistics.
``workload``
    Drive a synthetic rule/stream workload through a
    :class:`~repro.oodb.database.ChimeraDatabase`, one
    ``RuleEngine.run_stream_block`` per block.  The engine flags map
    one-to-one onto :class:`repro.config.EngineConfig` fields (``--shards``,
    ``--shard-mode``); a flag left out falls back to its
    ``CHIMERA_*`` variable and then the default.  The report prints the
    resolved record, the Trigger Support counts (plus the coordinator's when
    one exists), and the phase timings of the ``obs`` registry
    (``block.check``, and ``trip.dispatch`` behind a coordinator);
    ``--metrics`` prints the whole registry.  Speed is measured by
    ``benchmarks/e2e``, not here.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Sequence

from repro.analysis.reporting import render_kv, render_table
from repro.config import SHARD_MODES
from repro.core.compile import ots, ts
from repro.core.explain import explain
from repro.core.optimization import format_variations, variation_set
from repro.core.parser import parse_expression
from repro.core.simplify import simplification_report
from repro.errors import ChimeraError
from repro.events.event_base import EventBase
from repro.events.persistence import load_event_base
from repro.workloads.stock import StockScenario

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``chimera-events`` command."""
    parser = argparse.ArgumentParser(
        prog="chimera-events",
        description="Composite events in Chimera: evaluate, explain and analyze event expressions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_expression(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "expression",
            help="composite event expression, e.g. 'create(stock) < modify(stock.quantity)'",
        )

    def add_log(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--log",
            required=True,
            help="event log in JSON-lines format (see repro.events.persistence)",
        )
        subparser.add_argument(
            "--at",
            type=int,
            default=None,
            help="evaluation instant (default: the log's latest time stamp)",
        )

    evaluate_parser = commands.add_parser(
        "evaluate", help="evaluate an expression over an event log"
    )
    add_expression(evaluate_parser)
    add_log(evaluate_parser)
    evaluate_parser.add_argument(
        "--oid", default=None, help="evaluate the instance-oriented ots for this object"
    )

    explain_parser = commands.add_parser(
        "explain", help="explain an activation over an event log"
    )
    add_expression(explain_parser)
    add_log(explain_parser)

    variations_parser = commands.add_parser(
        "variations", help="print the V(E) variation set"
    )
    add_expression(variations_parser)

    simplify_parser = commands.add_parser(
        "simplify", help="print the exact simplification"
    )
    add_expression(simplify_parser)

    replay_parser = commands.add_parser("replay", help="print an event log as a table")
    replay_parser.add_argument("--log", required=True)

    demo_parser = commands.add_parser(
        "stock-demo", help="run the stock-management workload"
    )
    demo_parser.add_argument("--days", type=int, default=3)
    demo_parser.add_argument("--operations", type=int, default=40)
    demo_parser.add_argument("--items", type=int, default=15)
    demo_parser.add_argument("--seed", type=int, default=0)
    demo_parser.add_argument(
        "--no-optimization",
        action="store_true",
        help="disable the V(E) static optimization in the Trigger Support",
    )

    workload_parser = commands.add_parser(
        "workload",
        help="run a synthetic rule/stream workload through the block pipeline",
    )
    workload_parser.add_argument("--rules", type=int, default=200)
    workload_parser.add_argument("--blocks", type=int, default=100)
    workload_parser.add_argument("--events-per-block", type=int, default=6)
    workload_parser.add_argument("--seed", type=int, default=7)
    workload_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="with --shard-mode processes: check rules on N evaluators",
    )
    workload_parser.add_argument(
        "--shard-mode",
        choices=SHARD_MODES,
        default=None,
        help=(
            "where checks run: serial on the single table, or processes on "
            "the coordinator plus N - 1 shard worker processes"
        ),
    )
    workload_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the whole metrics registry, not only its timing histograms",
    )
    workload_parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="append the final metrics snapshot to this JSON-lines file",
    )

    return parser


def _load_log(path: str) -> EventBase:
    return load_event_base(path)


def _default_instant(event_base: EventBase, at: int | None) -> int:
    if at is not None:
        return at
    latest = event_base.latest_timestamp()
    return latest if latest is not None else 1


def _logged_oid(event_base: EventBase, text: str) -> Any:
    """The log's OID that prints as ``text`` (an int, an ``OID``, a string).

    An OID no occurrence touched is passed through as the string: under
    instance negation an untouched object is a legal argument.
    """
    oids = event_base.oids()
    if text in oids:
        return text
    return next((oid for oid in oids if str(oid) == text), text)


def _command_evaluate(args: argparse.Namespace) -> int:
    event_base = _load_log(args.log)
    expression = parse_expression(args.expression)
    instant = _default_instant(event_base, args.at)
    oid = None if args.oid is None else _logged_oid(event_base, args.oid)
    value = (
        ts(expression, event_base, instant)
        if oid is None
        else ots(expression, event_base, instant, oid)
    )
    status = f"active@t{value}" if value > 0 else "inactive"
    print(f"expression : {expression}")
    print(f"instant    : t{instant}")
    if args.oid is not None:
        print(f"object     : {args.oid}")
    print(f"ts value   : {value}")
    print(f"status     : {status} (evaluated at t{instant})")
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    event_base = _load_log(args.log)
    expression = parse_expression(args.expression)
    instant = _default_instant(event_base, args.at)
    print(explain(expression, event_base, instant).render())
    return 0


def _command_variations(args: argparse.Namespace) -> int:
    expression = parse_expression(args.expression)
    print(f"E    = {expression}")
    print(f"V(E) = {format_variations(variation_set(expression))}")
    return 0


def _command_simplify(args: argparse.Namespace) -> int:
    report = simplification_report(parse_expression(args.expression))
    print(f"original   : {report['original']}  ({report['original_size']} nodes)")
    print(f"simplified : {report['simplified']}  ({report['simplified_size']} nodes)")
    return 0


def _command_replay(args: argparse.Namespace) -> int:
    event_base = _load_log(args.log)
    rows = [
        [
            f"e{occurrence.eid}",
            str(occurrence.event_type),
            str(occurrence.oid),
            f"t{occurrence.timestamp}",
        ]
        for occurrence in event_base.occurrences
    ]
    print(
        render_table(["EID", "event type", "OID", "time stamp"], rows, title=args.log)
    )
    return 0


def _command_stock_demo(args: argparse.Namespace) -> int:
    scenario = StockScenario(
        items=args.items,
        shelf_products=max(1, args.items // 3),
        seed=args.seed,
        use_static_optimization=not args.no_optimization,
    )
    scenario.run_days(args.days, args.operations)
    db = scenario.database
    rows = [
        [name, counters["triggered"], counters["considered"], counters["executed"]]
        for name, counters in db.rule_statistics().items()
    ]
    print(
        render_table(
            ["rule", "triggered", "considered", "executed"],
            rows,
            title=f"stock demo: {args.days} days x {args.operations} operations",
        )
    )
    print(render_kv(db.trigger_statistics(), title="Trigger Support"))
    return 0


def _command_workload(args: argparse.Namespace) -> int:
    from repro.cluster.coordinator import ShardCoordinator
    from repro.obs import JsonLinesExporter, render_metrics_report
    from repro.oodb.database import ChimeraDatabase
    from repro.workloads.generator import EventStreamGenerator
    from repro.workloads.scaling import build_scaling_rules, build_scaling_universe

    universe = build_scaling_universe(args.rules)
    stream = EventStreamGenerator(
        event_types=universe, seed=args.seed + 1, events_per_block=args.events_per_block
    ).blocks(args.blocks)
    db = ChimeraDatabase(
        shards=args.shards,
        shard_mode=args.shard_mode,
    )
    try:
        for rule in build_scaling_rules(args.rules, universe, seed=args.seed):
            db.define_rule(rule)
        for block in stream:
            db.engine.run_stream_block(block)
        print(
            render_kv(
                {
                    "rules": args.rules,
                    "blocks": len(stream),
                    "events": len(db.event_base),
                    "considerations": len(db.considerations),
                },
                title="workload",
            )
        )
        print(render_kv(dataclasses.asdict(db.config), title="EngineConfig"))
        print(render_kv(db.trigger_statistics(), title="Trigger Support"))
        support = db.engine.trigger_support
        if isinstance(support, ShardCoordinator):
            cluster = dataclasses.asdict(support.cluster_stats)
            # Shard balance where the work goes: rules per evaluation home,
            # home 0 (the coordinator's own) first.
            population = support.home_population()
            mean_population = sum(population) / max(1, len(population))
            cluster["shard_population"] = "/".join(str(count) for count in population)
            cluster["shard_skew"] = round(
                max(population) / max(1.0, mean_population), 2
            )
            if support.process_pool is not None:
                for key, value in support.process_pool.transport_stats().items():
                    cluster[f"pool_{key}"] = value
            print(render_kv(cluster, title="Shard Coordinator"))
        snapshot = db.metrics_snapshot()
        if not args.metrics:
            # The counters repeat the tables above; the timings do not.
            snapshot = {"histograms": snapshot["histograms"]}
        print()
        print(render_metrics_report(snapshot))
        if args.metrics_json:
            exporter = JsonLinesExporter(args.metrics_json)
            exporter.export(db.engine.metrics)
            exporter.close()
            print(f"\nwrote metrics snapshot to {args.metrics_json}")
    finally:
        db.close()
    return 0


_COMMANDS = {
    "evaluate": _command_evaluate,
    "explain": _command_explain,
    "variations": _command_variations,
    "simplify": _command_simplify,
    "replay": _command_replay,
    "stock-demo": _command_stock_demo,
    "workload": _command_workload,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ChimeraError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
