"""Sampling of ``ts`` / ``ots`` functions over time (used to regenerate Fig. 5).

Fig. 5 of the paper plots ``ts`` functions of primitive and composite
expressions over a shared time axis to *show* that De Morgan's rule holds with
time stamps taken into account.  :func:`ts_trace` samples an expression at a
set of instants (by default every occurrence time stamp plus the mid-points
between them), producing the series :func:`repro.analysis.reporting.render_traces`
prints as a text table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.compile import CheckBinder
from repro.core.expressions import EventExpression
from repro.events.clock import Timestamp
from repro.events.event_base import WindowLike

__all__ = ["TracePoint", "Trace", "sample_instants", "ts_trace", "ots_trace"]


@dataclass(frozen=True)
class TracePoint:
    """One sample of a ``ts`` function: the instant and the value."""

    instant: Timestamp
    value: int

    @property
    def active(self) -> bool:
        """True when the expression is active at :attr:`instant`."""
        return self.value > 0


@dataclass(frozen=True)
class Trace:
    """A sampled ``ts`` (or ``ots``) function for one expression."""

    label: str
    points: tuple[TracePoint, ...]

    def values(self) -> list[int]:
        """The sampled values in order."""
        return [point.value for point in self.points]

    def activity(self) -> list[bool]:
        """The sampled activity flags in order."""
        return [point.active for point in self.points]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def sample_instants(window: WindowLike, padding: int = 1) -> list[Timestamp]:
    """Sampling instants for a window: every occurrence stamp plus ``padding`` after.

    The ``ts`` functions are piecewise constant between occurrence time stamps,
    so sampling at every stamp (and one instant after the last) captures every
    value the function takes.
    """
    stamps = window.timestamps()
    if not stamps:
        return [1]
    extended = list(stamps)
    extended.append(stamps[-1] + max(1, padding))
    return extended


def ts_trace(
    expression: EventExpression,
    window: WindowLike,
    instants: Sequence[Timestamp] | None = None,
    label: str | None = None,
) -> Trace:
    """Sample the set-oriented ``ts`` function of ``expression``."""
    sample_points = list(instants) if instants is not None else sample_instants(window)
    binding = CheckBinder().bind(expression)
    points = tuple(
        TracePoint(instant, binding.ts(window, instant)) for instant in sample_points
    )
    return Trace(label=label or str(expression), points=points)


def ots_trace(
    expression: EventExpression,
    window: WindowLike,
    oid: Any,
    instants: Sequence[Timestamp] | None = None,
    label: str | None = None,
) -> Trace:
    """Sample the instance-oriented ``ots`` function for one object."""
    sample_points = list(instants) if instants is not None else sample_instants(window)
    binding = CheckBinder().bind_instance(expression)
    points = tuple(
        TracePoint(instant, binding.ots(window, instant, oid))
        for instant in sample_points
    )
    return Trace(label=label or f"{expression} on {oid}", points=points)
