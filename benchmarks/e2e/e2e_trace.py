"""Outside-in tracer of the end-to-end benchmark.

The traced run wraps the engine's public callables *from here* — class or
module attributes are replaced by timing wrappers, nothing under ``src/`` is
edited — so every layer boundary of ``src/repro`` yields a span: layer name,
start, end, the span that caused it and the id of the benchmark operation it
served.  Spans stay in memory and are written out when the run ends.

A layer's *self time* is its spans' duration minus the part of that interval
their child spans cover.  The engine is single-threaded on the measured
process (process shard workers are waited for inside ``cluster.evaluate``), so
children never overlap and the part covered is the sum of their durations;
self times of all spans of an operation therefore add up to its root span.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable

__all__ = ["LAYERS", "ROOT", "Tracer", "layer_totals"]

#: The root span of every benchmark operation.  Its self time is what no
#: wrapped callable covers: the engine's glue code (block executor loop,
#: transaction begin, clock) plus the benchmark's own per-op bookkeeping.
ROOT = "op"

#: layer -> ``(module, owner, attribute)`` targets; ``owner`` is a class name,
#: or ``None`` for a module-level function.  A class target is wrapped on the
#: class and on every loaded subclass that overrides it.
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "events.extend": [
        ("repro.events.event_base", "EventBase", "extend"),
        ("repro.events.event_base", "EventBase", "append"),
    ],
    "rules.ingest": [
        ("repro.rules.event_handler", "EventHandler", "store_external"),
        ("repro.rules.event_handler", "EventHandler", "flush_block"),
    ],
    "rules.plan": [
        ("repro.rules.trigger_support", "TriggerPlanner", "plan"),
        ("repro.cluster.coordinator", "ShardCoordinator", "plan_sharded"),
    ],
    "rules.check": [
        ("repro.rules.trigger_support", "TriggerSupport", "check_after_block"),
        ("repro.rules.trigger_support", "TriggerSupport", "check_after_blocks"),
        ("repro.rules.trigger_support", "TriggerSupport", "recheck_all"),
    ],
    "core.check": [
        # The name the Trigger Support resolves at call time, not the
        # definition in repro.core.triggering: wrapping the binding is what
        # makes the span appear without touching the callers.
        ("repro.rules.trigger_support", None, "is_triggered"),
        ("repro.core.compile", "CompiledCheck", "check"),
        ("repro.core.compile", "CompiledCheck", "check_trip"),
    ],
    "cluster.evaluate": [
        ("repro.cluster.process_pool", "ProcessShardPool", "evaluate"),
        ("repro.cluster.process_pool", "ProcessShardPool", "evaluate_trip"),
    ],
    "cluster.delta": [
        ("repro.cluster.transport", "ShardTransport", "begin_trip"),
        ("repro.cluster.transport", "ShardTransport", "delta_for"),
    ],
    "rules.consider": [
        ("repro.rules.rule_table", "RuleTable", "select_for_consideration"),
        ("repro.rules.conditions", "Condition", "evaluate"),
        ("repro.rules.actions", "Action", "execute"),
    ],
    # The rollback snapshot of the object store and the per-transaction reset
    # of rule table, Event Base and worker mirrors.
    "oodb.begin": [
        ("repro.oodb.database", "ChimeraDatabase", "transaction"),
    ],
    "oodb.op": [
        ("repro.oodb.operations", "OperationExecutor", "create"),
        ("repro.oodb.operations", "OperationExecutor", "modify"),
        ("repro.oodb.operations", "OperationExecutor", "delete"),
    ],
    "oodb.commit": [
        ("repro.rules.executor", "RuleEngine", "process_commit"),
    ],
}


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


class Tracer:
    """Records one span per call of every wrapped callable."""

    def __init__(self) -> None:
        #: ``(span id, layer, start, end, parent span id | None, op id)`` in
        #: order of completion; times are ``perf_counter`` seconds.
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.op_id = -1
        self._next_id = 0
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------
    def wrap(self, layer: str, function: Callable) -> Callable:
        """``function`` timed as one span of ``layer`` per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, layer, start, end, parent, self.op_id))

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def run_op(self, op_id: int, operation: Callable[[], Any]) -> tuple[float, Any]:
        """Run one benchmark operation under a root span -> (duration, result)."""
        self.op_id = op_id
        root = self.wrap(ROOT, operation)
        start = time.perf_counter()
        outcome = root()
        return time.perf_counter() - start, outcome

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every target of :data:`LAYERS` (call before building the engine)."""
        # Import everything first: a subclass that overrides a target is only
        # found once its module is loaded.
        for targets in LAYERS.values():
            for module_name, _owner, _attribute in targets:
                importlib.import_module(module_name)
        for layer, targets in LAYERS.items():
            for module_name, owner, attribute in targets:
                module = importlib.import_module(module_name)
                holders = (
                    [module]
                    if owner is None
                    else [
                        cls
                        for cls in _with_subclasses(getattr(module, owner))
                        if attribute in vars(cls)
                    ]
                )
                for holder in holders:
                    traced = self.wrap(layer, vars(holder)[attribute])
                    setattr(holder, attribute, traced)

    # -- output -------------------------------------------------------------
    def write(self, path) -> None:
        """One JSON object per span, in order of completion."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, layer, start, end, parent, op_id in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                )
                out.write("\n")


def layer_totals(
    spans: list[tuple[int, str, float, float, int | None, int]],
) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, ``total_s`` and ``self_s`` (children subtracted).

    Only spans of benchmark operations count; what ran before the first one
    (set-up, warm-up) carries op id -1 and is left out.
    """
    spans = [span for span in spans if span[5] >= 0]
    covered: dict[int, float] = {}
    layer_of = {span_id: layer for span_id, layer, *_rest in spans}
    for _span_id, _layer, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals: dict[str, dict[str, float]] = {}
    for span_id, layer, start, end, parent, _op in spans:
        row = totals.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        row["calls"] += 1
        # A span nested directly in its own layer (store_external -> flush_block)
        # is already inside its parent's total.
        if parent is None or layer_of[parent] != layer:
            row["total_s"] += duration
        row["self_s"] += duration - covered.get(span_id, 0.0)
    return totals
