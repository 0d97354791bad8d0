"""Plain-text rendering of tables and traces.

The CLI prints its reports and the examples print the paper's artefacts
(Fig. 3 style logs, Fig. 5 traces) through these helpers.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.analysis.traces import Trace

__all__ = ["render_table", "render_traces", "render_kv"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def format_row(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(format_row(list(headers)))
    lines.append(separator)
    for row in materialized:
        lines.append(format_row(row))
    lines.append(separator)
    return "\n".join(lines)


def render_traces(traces: Sequence[Trace], title: str | None = None) -> str:
    """Render several :class:`Trace` series against a shared time axis."""
    if not traces:
        return title or ""
    instants = [point.instant for point in traces[0].points]
    headers = ["t"] + [trace.label for trace in traces]
    rows = []
    for index, instant in enumerate(instants):
        row: list[Any] = [instant]
        for trace in traces:
            point = trace.points[index]
            marker = "+" if point.active else "-"
            row.append(f"{point.value:>5} {marker}")
        rows.append(row)
    return render_table(headers, rows, title=title)


def render_kv(pairs: dict[str, Any], title: str | None = None) -> str:
    """Render a dictionary as a two-column table."""
    return render_table(["metric", "value"], list(pairs.items()), title=title)
