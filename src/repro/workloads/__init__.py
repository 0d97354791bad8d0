"""Workload inputs: the paper's stock scenario (``stock``), synthetic
expressions and streams (``generator``) and the scale-out rule pools and
shaped block streams of ``chimera-events workload`` (``scaling``).

Measurement lives in ``benchmarks/e2e``; nothing here times anything.
"""

from repro.workloads.generator import (
    EventStreamGenerator,
    ExpressionGenerator,
    event_type_universe,
    stream_to_event_base,
    window_over,
)
from repro.workloads.stock import (
    CHECK_STOCK_QTY_RULE,
    FIGURE3_ROWS,
    Figure3Entry,
    REORDER_RULE,
    SHELF_REFILL_RULE,
    StockScenario,
    build_figure3_event_base,
)

__all__ = [
    "CHECK_STOCK_QTY_RULE",
    "EventStreamGenerator",
    "ExpressionGenerator",
    "FIGURE3_ROWS",
    "Figure3Entry",
    "REORDER_RULE",
    "SHELF_REFILL_RULE",
    "StockScenario",
    "build_figure3_event_base",
    "event_type_universe",
    "stream_to_event_base",
    "window_over",
]
