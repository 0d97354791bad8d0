"""Analysis helpers: ts traces and plain-text report rendering."""

from repro.analysis.reporting import render_kv, render_table, render_traces
from repro.analysis.traces import (
    Trace, TracePoint, ots_trace, sample_instants, ts_trace
)

__all__ = [
    "Trace",
    "TracePoint",
    "ots_trace",
    "render_kv",
    "render_table",
    "render_traces",
    "sample_instants",
    "ts_trace",
]
