"""Tests for the metrics text report and the JSON-lines exporter (PR 8)."""

import json

from repro.obs.export import JsonLinesExporter, render_metrics_report
from repro.obs.registry import MetricsRegistry


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("trigger.blocks").inc(3)
    registry.histogram("trip.check").observe(0.004)
    registry.register_source("pool", lambda: {"round_trips": 5})
    return registry


class TestRenderMetricsReport:
    def test_report_contains_every_section(self):
        report = render_metrics_report(_populated_registry().snapshot())
        assert "counters" in report
        assert "trigger.blocks" in report and ": 3" in report
        assert "pool.round_trips" in report  # sources fold into the report
        assert "trip.check" in report and "count 1" in report
        assert "gauges" not in report

    def test_empty_histograms_are_hidden(self):
        registry = MetricsRegistry()
        registry.histogram("trip.check")  # created, never observed
        assert "trip.check" not in render_metrics_report(registry.snapshot())

    def test_empty_snapshot_renders_placeholder(self):
        report = render_metrics_report(MetricsRegistry(enabled=False).snapshot())
        assert report == "metrics: (empty snapshot)"


class TestJsonLinesExporter:
    def test_export_appends_valid_json_lines(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        registry = _populated_registry()
        exporter = JsonLinesExporter(path)
        exporter.export(registry)
        registry.counter("trigger.blocks").inc()
        exporter.export(registry)
        exporter.close()

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["at"] > 0
        assert first["counters"]["trigger.blocks"] == 3
        assert second["counters"]["trigger.blocks"] == 4
        assert first["counters"]["pool.round_trips"] == 5

    def test_maybe_export_is_rate_limited(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        exporter = JsonLinesExporter(path, interval_seconds=3600.0)
        registry = _populated_registry()
        assert exporter.maybe_export(registry) is True
        assert exporter.maybe_export(registry) is False  # within the interval
        exporter.close()
        assert exporter.exports == 1
        assert len(path.read_text().splitlines()) == 1

