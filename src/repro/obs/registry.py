"""The metrics registry: counters, gauges and fixed-bucket histograms.

Design constraints, in order:

* **metrics-off is (almost) free** — a disabled registry hands out shared
  *null* instruments whose methods are no-ops, so an instrumented hot path
  pays one attribute lookup and one C-level call per probe (enabled
  overhead measured at PR 8: at worst +0.27%, BENCH_PR8.json).
* **no third-party deps** — histograms are fixed-bound bucket arrays
  (``bisect`` at observe time), timing is ``time.perf_counter``.
* **process-safe by value, not by sharing** — nothing here uses shared
  memory.  Each process owns its registry; worker registries are drained
  into compact deltas (:meth:`MetricsRegistry.drain_delta`) that piggyback
  on the existing trip reply messages and merge coordinator-side
  (:meth:`MetricsRegistry.merge_delta`).  Merging is commutative (sums and
  maxima), so reply arrival order cannot change a snapshot.
* **one source of truth** — the engine's existing stats dataclasses stay
  the canonical counters of the detection semantics; the registry folds
  them into its snapshot as *sources* (:meth:`MetricsRegistry.register_source`)
  instead of double-counting them, which is what keeps snapshot counters
  byte-equal across shard modes (the stats are already pinned equal by the
  equivalence harness).

Instrument creation takes a lock; the instruments themselves are updated
lock-free (attribute stores on one object — safe under the GIL for the
single-writer pipeline threads that drive them, and each process only ever
writes its own registry).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from bisect import bisect_right
from typing import Any, Mapping

__all__ = [
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bounds for latency spans, in seconds: 10 µs … 3.16 s in
#: half-decade steps (an overflow bucket catches everything slower).
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5,
    3.16e-5,
    1e-4,
    3.16e-4,
    1e-3,
    3.16e-3,
    1e-2,
    3.16e-2,
    1e-1,
    3.16e-1,
    1.0,
    3.16,
)

#: Default histogram bounds for small integer sizes (batch widths, candidate
#: counts): powers of two up to 1024.
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing integer (cache the object, not the name)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-value instrument that also tracks its high-water mark."""

    __slots__ = ("name", "value", "max_value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value
        self.updates += 1

    def as_dict(self) -> dict[str, float]:
        return {"value": self.value, "max": self.max_value, "updates": self.updates}


class _HistogramTimer:
    """``with histogram.time(): ...`` — one observation per section."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram

    def __enter__(self) -> "_HistogramTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class Histogram:
    """Fixed-bound bucket histogram with count / sum / min / max.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket is appended implicitly.  Observing costs one ``bisect``
    plus a handful of attribute stores — cheap enough for per-block spans,
    and the :meth:`quantile` estimate is bucket-resolution (fine for latency
    read-outs).
    """

    __slots__ = (
        "name",
        "bounds",
        "bucket_counts",
        "count",
        "total",
        "min_value",
        "max_value",
    )

    def __init__(self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = float("inf")
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def time(self) -> _HistogramTimer:
        """A context manager observing the wall-clock time of its body."""
        return _HistogramTimer(self)

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the bucket)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= target:
                if index >= len(self.bounds):
                    return self.max_value
                return self.bounds[index]
        return self.max_value

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram with identical bounds."""
        self._merge_values(
            other.count,
            other.total,
            other.min_value,
            other.max_value,
            other.bucket_counts,
        )

    def _merge_values(
        self,
        count: int,
        total: float,
        min_value: float,
        max_value: float,
        bucket_counts: list[int] | tuple[int, ...],
    ) -> None:
        if len(bucket_counts) != len(self.bucket_counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(bucket_counts)} buckets "
                f"into {len(self.bucket_counts)}"
            )
        self.count += count
        self.total += total
        if count:
            if min_value < self.min_value:
                self.min_value = min_value
            if max_value > self.max_value:
                self.max_value = max_value
        for index, bucket_count in enumerate(bucket_counts):
            self.bucket_counts[index] += bucket_count

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": 0.0 if self.count == 0 else round(self.min_value, 9),
            "max": round(self.max_value, 9),
            "mean": 0.0 if self.count == 0 else round(self.total / self.count, 9),
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
        }


class _NullTimer:
    """Shared no-op context manager (what timing on a disabled registry costs)."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002 - deliberate no-op
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: ARG002 - deliberate no-op
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: ARG002 - deliberate no-op
        return None

    def time(self) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER


_NULL_TIMER = _NullTimer()
_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", bounds=())

#: A snapshot source: a stats dataclass instance, read through
#: ``dataclasses.asdict``, or a zero-argument callable returning a mapping
#: (``transport_stats``).
Source = Any


class MetricsRegistry:
    """Create-or-get instruments by name; snapshot, drain and merge them.

    ``enabled=False`` returns shared null instruments from every factory —
    instrumented code needs no conditionals, and metrics-off runs at
    effectively uninstrumented speed.  A section is timed through a cached
    histogram handle (``with histogram.time():``), and no probe is sampled,
    so every count is exact.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, Source] = {}

    # -- instrument factories -------------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(name, bounds))
        return instrument

    # -- sources --------------------------------------------------------------
    def register_source(self, prefix: str, source: Source) -> None:
        """Fold ``source`` into every snapshot under ``prefix.<key>`` counters.

        ``source`` is a stats dataclass instance (``TriggerSupportStats``,
        ``ShardCoordinatorStats``) or a zero-argument callable returning a
        mapping (e.g. ``ProcessShardPool.transport_stats``).  Sources are
        read at snapshot time — the report and the export can never disagree
        with the live stats.  Registering a prefix again replaces the source.
        """
        with self._lock:
            self._sources[prefix] = source

    def _source_items(self) -> list[tuple[str, float]]:
        items: list[tuple[str, float]] = []
        with self._lock:
            sources = list(self._sources.items())
        for prefix, source in sources:
            values: Mapping[str, Any] = (
                source() if callable(source) else dataclasses.asdict(source)
            )
            for key, value in values.items():
                items.append((f"{prefix}.{key}", value))
        return items

    # -- snapshots ------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """One merged view: sources + live counters, gauges, histograms."""
        counters: dict[str, Any] = dict(self._source_items())
        for name, counter in sorted(self._counters.items()):
            counters[name] = counter.value
        return {
            "enabled": self.enabled,
            "counters": counters,
            "gauges": {
                name: gauge.as_dict() for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    # -- cross-process propagation --------------------------------------------
    def drain_delta(self) -> dict[str, Any] | None:
        """Ship-and-reset: the live instruments' values since the last drain.

        Returns a compact picklable dict (or ``None`` when nothing moved)
        and zeroes the drained instruments, so repeated drains piggybacked
        on trip replies stay small.  Sources are *not* drained — they
        belong to whoever registered them.
        """
        if not self.enabled:
            return None
        counters = {
            name: counter.value
            for name, counter in self._counters.items()
            if counter.value
        }
        for counter in self._counters.values():
            counter.value = 0
        gauges = {}
        for name, gauge in self._gauges.items():
            if gauge.updates:
                gauges[name] = (gauge.value, gauge.max_value, gauge.updates)
                gauge.max_value = gauge.value
                gauge.updates = 0
        histograms = {}
        for name, histogram in self._histograms.items():
            if histogram.count:
                histograms[name] = (
                    histogram.count,
                    histogram.total,
                    histogram.min_value,
                    histogram.max_value,
                    tuple(histogram.bucket_counts),
                    histogram.bounds,
                )
                histogram.bucket_counts = [0] * (len(histogram.bounds) + 1)
                histogram.count = 0
                histogram.total = 0.0
                histogram.min_value = float("inf")
                histogram.max_value = 0.0
        if not (counters or gauges or histograms):
            return None
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_delta(self, delta: Mapping[str, Any] | None) -> None:
        """Accumulate a :meth:`drain_delta` payload from another process.

        Counter and histogram merges are sums (order-independent across
        workers); gauges keep the maximum of the high-water marks and the
        last value to arrive.
        """
        if not delta or not self.enabled:
            return
        for name, value in delta.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, (value, max_value, updates) in delta.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.value = value
            if max_value > gauge.max_value:
                gauge.max_value = max_value
            gauge.updates += updates
        for name, payload in delta.get("histograms", {}).items():
            count, total, min_value, max_value, bucket_counts, bounds = payload
            self.histogram(name, bounds=bounds)._merge_values(
                count, total, min_value, max_value, bucket_counts
            )
