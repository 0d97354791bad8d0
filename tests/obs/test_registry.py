"""Unit tests for the metrics registry primitives (PR 8).

Covers the instrument basics, the disabled-registry null path, the
drain/merge cross-process round trip and snapshot sources.
"""

from dataclasses import dataclass

import pytest

from repro.obs.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 7.0
        assert gauge.updates == 3
        assert gauge.as_dict() == {"value": 2.0, "max": 7.0, "updates": 3}

    def test_histogram_buckets_and_summary(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(55.5)
        assert histogram.min_value == 0.5
        assert histogram.max_value == 50.0
        # One observation per finite bucket plus one in the overflow bucket.
        assert histogram.bucket_counts == [1, 1, 1]

    def test_histogram_timer_observes_once(self):
        histogram = Histogram("h")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.total > 0.0

    def test_histogram_quantile_is_bucket_resolution(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 100.0
        assert Histogram("empty").quantile(0.99) == 0.0

    def test_histogram_merge_requires_identical_bounds(self):
        left = Histogram("h", bounds=(1.0,))
        right = Histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_empty_histogram_as_dict_is_zeroed(self):
        values = Histogram("h").as_dict()
        assert values["count"] == 0
        assert values["min"] == 0.0
        assert values["mean"] == 0.0


class TestDisabledRegistry:
    def test_disabled_factories_return_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is registry.counter("b")
        assert registry.gauge("a") is registry.gauge("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_null_instruments_are_inert(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(10)
        registry.gauge("g").set(10.0)
        registry.histogram("h").observe(10.0)
        with registry.histogram("s").time():
            pass
        snapshot = registry.snapshot()
        assert snapshot["enabled"] is False
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_disabled_drain_is_none(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        assert registry.drain_delta() is None


class TestEnabledRegistry:
    def test_factories_create_or_get_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.histogram("h").bounds == LATENCY_BUCKETS
        assert registry.histogram("sizes", bounds=COUNT_BUCKETS).bounds == COUNT_BUCKETS

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"]["g"] == {"value": 1.5, "max": 1.5, "updates": 1}
        values = snapshot["histograms"]["h"]
        assert values["count"] == 1
        assert values["sum"] == pytest.approx(0.25)
        assert len(values["buckets"]) == len(values["bounds"]) + 1


class TestDrainAndMerge:
    def test_round_trip_preserves_values_and_resets_origin(self):
        worker = MetricsRegistry()
        worker.counter("worker.trips").inc(3)
        worker.gauge("worker.depth").set(5.0)
        worker.histogram("worker.check").observe(0.01)
        delta = worker.drain_delta()
        assert delta is not None

        # The origin was zeroed: a second drain has nothing to ship.
        assert worker.drain_delta() is None
        assert worker.counter("worker.trips").value == 0

        coordinator = MetricsRegistry()
        coordinator.merge_delta(delta)
        snapshot = coordinator.snapshot()
        assert snapshot["counters"]["worker.trips"] == 3
        assert snapshot["gauges"]["worker.depth"]["max"] == 5.0
        assert snapshot["histograms"]["worker.check"]["count"] == 1
        assert snapshot["histograms"]["worker.check"]["sum"] == pytest.approx(0.01)

    def test_merge_is_commutative_across_workers(self):
        deltas = []
        for trips in (2, 5):
            worker = MetricsRegistry()
            worker.counter("worker.trips").inc(trips)
            worker.histogram("worker.check").observe(trips / 100.0)
            deltas.append(worker.drain_delta())

        forward = MetricsRegistry()
        for delta in deltas:
            forward.merge_delta(delta)
        backward = MetricsRegistry()
        for delta in reversed(deltas):
            backward.merge_delta(delta)
        assert forward.snapshot() == backward.snapshot()

    def test_merge_ignores_none_and_disabled(self):
        registry = MetricsRegistry()
        registry.merge_delta(None)
        assert registry.snapshot()["counters"] == {}
        disabled = MetricsRegistry(enabled=False)
        disabled.merge_delta({"counters": {"c": 1}, "gauges": {}, "histograms": {}})
        assert disabled.snapshot()["counters"] == {}


@dataclass
class _Stats:
    blocks: int = 0
    lookups: int = 0


class TestSources:
    def test_sources_fold_into_snapshot_counters(self):
        registry = MetricsRegistry()
        stats = _Stats(blocks=2, lookups=7)
        registry.register_source("pipe", stats)
        counters = registry.snapshot()["counters"]
        assert counters["pipe.blocks"] == 2
        assert counters["pipe.lookups"] == 7
        stats.blocks = 9
        # Sources are read at snapshot time, never cached.
        assert registry.snapshot()["counters"]["pipe.blocks"] == 9

    def test_callable_sources_are_supported(self):
        registry = MetricsRegistry()
        registry.register_source("pool", lambda: {"round_trips": 4})
        assert registry.snapshot()["counters"]["pool.round_trips"] == 4

    def test_sources_are_not_drained(self):
        registry = MetricsRegistry()
        registry.register_source("pipe", _Stats(blocks=2))
        assert registry.drain_delta() is None
        assert registry.snapshot()["counters"]["pipe.blocks"] == 2
