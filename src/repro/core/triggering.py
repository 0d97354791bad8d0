"""Rule-triggering semantics (paper §4.5, predicate ``T(r, t)``).

A rule ``r`` with triggering event expression ``rE`` and last-consideration
time stamp ``r.t'`` is triggered at time ``t`` iff::

    R = { e in EB | r.t' < timestamp(e) <= t }
    T(r, t)  <=>  R != {}  and  exists t1 in (r.t', t] with ts(rE, t1) > 0

The ``R != {}`` side condition keeps the system *reactive*: a rule whose event
expression is a pure negation would otherwise fire spontaneously, with no new
event occurrence to react to.

:func:`is_triggered` is the exact predicate: the existential over ``t1`` is
decided by sampling ``ts`` at every distinct occurrence time stamp in the
window and at ``t`` itself (``ts`` can only change value at occurrence time
stamps, so this sampling is complete; sampling ``t`` alone would miss an
activation that was transient inside the window).  It is the reference the
compiled check (:meth:`repro.core.compile.CompiledCheck.check`), which the
Trigger Support runs, must agree with.

The exact predicate additionally supports *incremental* evaluation via
:class:`TriggerMemo`.  Between two checks of the same rule (same window start)
the only occurrences that can change a ``ts`` sample are those appended since
the previous check, and — because the *sign* of ``ts`` is piecewise constant
between occurrence time stamps (activity at ``t`` depends only on which
occurrences are at/before ``t``) — every instant sampled negative in an
earlier check would sample negative again.  The memo therefore records the
greatest instant already sampled and how much of the EB had been seen; the
next check only samples the instants newer than that frontier (rewound, when
occurrences arrived carrying an already-sampled time stamp, to the first such
stamp), which keeps ``is_triggered`` exact while doing O(new events) work per
block instead of O(window) — see PERFORMANCE.md and the equivalence property
test in tests/core/test_incremental_triggering.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluation import EvaluationMode, EvaluationStats, ts
from repro.core.expressions import EventExpression
from repro.events.clock import Timestamp
from repro.events.event_base import BoundedView, EventBase, WindowLike

__all__ = [
    "TriggeringDecision",
    "TriggerMemo",
    "is_triggered",
]


@dataclass(frozen=True)
class TriggeringDecision:
    """The outcome of evaluating ``T(r, t)`` with its supporting evidence."""

    triggered: bool
    instant: Timestamp | None
    ts_value: int | None
    window_size: int
    #: How many candidate instants ``ts`` was sampled at to reach the outcome
    #: (0 for an empty window).  With a valid :class:`TriggerMemo` this is the
    #: incremental cost of the check.
    instants_sampled: int = 0

    def __bool__(self) -> bool:
        return self.triggered


@dataclass
class TriggerMemo:
    """Per-rule incremental state for the exact triggering check.

    ``last_sampled`` is the frontier: every distinct window time stamp at or
    before it (and ``last_sampled`` itself, which was the previous ``now``)
    has already been sampled with ``ts <= 0``.  ``seen_events`` is the length
    of the EB log at that moment, so a later check can detect occurrences that
    arrived bearing an already-sampled time stamp (the EB allows ties) and
    rewind the frontier below them.  The memo is only meaningful for a fixed
    window start; it must be cleared whenever the rule is considered or reset
    (see :meth:`repro.rules.rule.RuleState.mark_considered`).
    """

    valid: bool = False
    window_start: Timestamp | None = None
    last_sampled: Timestamp | None = None
    seen_events: int = 0

    def covers(self, window_start: Timestamp | None) -> bool:
        """True when the memo describes a previous check of this very window."""
        return self.valid and self.window_start == window_start

    def record(
        self, window_start: Timestamp | None, sampled_up_to: Timestamp, seen_events: int
    ) -> None:
        """Remember a completed negative check up to ``sampled_up_to``."""
        self.valid = True
        self.window_start = window_start
        self.last_sampled = sampled_up_to
        self.seen_events = seen_events

    def clear(self) -> None:
        """Forget everything (rule considered, reset, or triggered)."""
        self.valid = False
        self.window_start = None
        self.last_sampled = None
        self.seen_events = 0


def is_triggered(
    expression: EventExpression,
    event_base: WindowLike,
    last_consideration: Timestamp | None,
    now: Timestamp,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
    memo: TriggerMemo | None = None,
) -> TriggeringDecision:
    """Exact evaluation of the triggering predicate ``T(r, t)``.

    ``event_base`` may be the full EB (the view ``(last_consideration, now]``
    is carved out of it) or an already-built view.  The existential over
    ``t1`` is decided by sampling every distinct time stamp in the window
    plus ``now``.

    When ``memo`` is given *and* ``event_base`` is the EB itself, the check is
    incremental: instants the memo proves were already sampled negative are
    skipped, and the memo is updated to cover this check.  The memo is ignored
    (left untouched) for pre-built views, whose relation to previous checks
    is unknown.
    """
    window = _as_window(event_base, last_consideration, now)
    if window.is_empty():
        return TriggeringDecision(False, None, None, 0)
    incremental = memo is not None and isinstance(event_base, EventBase)
    lower: Timestamp | None = None
    if incremental and memo.covers(last_consideration):
        lower = memo.last_sampled
        if memo.seen_events < len(event_base):
            # Occurrences appended since the previous check: they always sit
            # at the tail of the log (non-decreasing order), so the earliest
            # of them bounds how far the frontier may need to rewind.  A tie
            # with an already-sampled stamp re-opens that stamp for sampling.
            first_new = event_base.occurrence_at(memo.seen_events).timestamp
            if first_new <= lower:
                lower = first_new - 1
    if lower is None:
        candidates = [stamp for stamp in window.timestamps() if stamp <= now]
    else:
        candidates = [stamp for stamp in window.timestamps_after(lower) if stamp <= now]
    if not candidates or candidates[-1] != now:
        candidates.append(now)
    sampled = 0
    for instant in candidates:
        sampled += 1
        value = ts(expression, window, instant, mode, stats)
        if value > 0:
            if incremental:
                memo.clear()
            return TriggeringDecision(True, instant, value, len(window), sampled)
    if incremental:
        memo.record(last_consideration, now, len(event_base))
    return TriggeringDecision(False, None, None, len(window), sampled)


def _as_window(
    event_base: WindowLike,
    last_consideration: Timestamp | None,
    now: Timestamp,
) -> BoundedView:
    if isinstance(event_base, BoundedView):
        return event_base
    return event_base.view(after=last_consideration, until=now)
