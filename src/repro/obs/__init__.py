"""Runtime observability: one registry for the whole logical engine.

The engine's pipeline stages (ingest → plan → dispatch → check → apply) run
on the single table or behind the shard coordinator; before this package
their only telemetry was four disjoint ad-hoc stats dataclasses plus
bench-local timers.  ``repro.obs`` gives them one spine:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, a dependency-free
  registry of counters and fixed-bucket histograms (a histogram
  times a section: ``with histogram.time():``).  A disabled registry hands
  out shared null instruments, so metrics-off costs one attribute lookup
  per probe.  Worker processes accumulate their own registries and ship
  compact **deltas** (:meth:`MetricsRegistry.drain_delta`) piggybacked on
  the existing trip reply messages; the coordinator merges them
  (:meth:`MetricsRegistry.merge_delta`) so one snapshot covers the whole
  logical engine in every shard mode.  The live stats dataclasses
  (``TriggerSupportStats``, ``ShardCoordinatorStats``) are registered as
  snapshot *sources* and read through ``dataclasses.asdict``, so the
  workload report and the metrics export read the same numbers by
  construction.
* :mod:`repro.obs.export` — the human text report
  (:func:`render_metrics_report`) and the JSON-lines periodic exporter
  (``workload --metrics-json PATH``; ``EngineConfig.metrics_path``).

Instrumentation points are documented in
PERFORMANCE.md ("Observability"), with the overhead measured at PR 8
(BENCH_PR8.json: at worst +0.27%).
"""

from repro.obs.export import (
    JsonLinesExporter,
    render_metrics_report,
)
from repro.obs.registry import (
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "JsonLinesExporter",
    "MetricsRegistry",
    "render_metrics_report",
]
