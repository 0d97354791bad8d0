"""Snapshot rendering and periodic JSON-lines export.

Two consumers of :meth:`~repro.obs.registry.MetricsRegistry.snapshot`:

* :func:`render_metrics_report` — the human text report (``workload
  --metrics`` prints it); counters and histogram summaries in
  aligned ``key : value`` sections, self-contained so it imports nothing
  from the analysis package (which itself builds on ``repro.obs``).
* :class:`JsonLinesExporter` — appends one JSON object per snapshot to a
  file, rate-limited by :meth:`JsonLinesExporter.maybe_export` so the engine
  can call it after every block without turning the hot path into an I/O
  loop.  An engine whose :class:`~repro.config.EngineConfig` record has a
  ``metrics_path`` opens one on that path and writes a final snapshot on
  ``close()``.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = ["JsonLinesExporter", "render_metrics_report"]


def _render_section(title: str, values: dict[str, Any]) -> str:
    width = max(len(key) for key in values)
    lines = [title, "-" * len(title)]
    lines.extend(f"{key.ljust(width)} : {value}" for key, value in values.items())
    return "\n".join(lines)


def render_metrics_report(snapshot: dict[str, Any]) -> str:
    """A human text report of one registry snapshot."""
    sections: list[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        sections.append(_render_section("counters", counters))
    histograms = snapshot.get("histograms") or {}
    shown = {name: values for name, values in histograms.items() if values["count"]}
    if shown:
        sections.append(
            _render_section(
                "histograms",
                {
                    name: (
                        f"count {values['count']}, mean {values['mean']:.6g}, "
                        f"min {values['min']:.6g}, max {values['max']:.6g}"
                    )
                    for name, values in shown.items()
                },
            )
        )
    if not sections:
        return "metrics: (empty snapshot)"
    return "\n\n".join(sections)


class JsonLinesExporter:
    """Append registry snapshots to a JSON-lines file, rate-limited.

    Each line is ``{"at": <unix seconds>, "enabled": ..., "counters": ...,
    "histograms": ...}``.  :meth:`maybe_export` is the
    per-block hook — it writes at most once per ``interval_seconds``;
    :meth:`export` writes unconditionally (the final snapshot on engine
    close, or an explicit ``--metrics-json`` dump).
    """

    def __init__(self, path: str | os.PathLike, interval_seconds: float = 1.0) -> None:
        self.path = os.fspath(path)
        self.interval_seconds = interval_seconds
        self.exports = 0
        self._last_export = float("-inf")
        self._file: IO[str] | None = None

    def maybe_export(self, registry: "MetricsRegistry") -> bool:
        """Export unless a snapshot was written less than the interval ago."""
        now = time.monotonic()
        if now - self._last_export < self.interval_seconds:
            return False
        self.export(registry)
        return True

    def export(self, registry: "MetricsRegistry") -> None:
        """Write one snapshot line now."""
        self._last_export = time.monotonic()
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
        record = {"at": round(time.time(), 3)}
        record.update(registry.snapshot())
        self._file.write(json.dumps(record, sort_keys=False) + "\n")
        self._file.flush()
        self.exports += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
