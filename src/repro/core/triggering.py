"""Rule-triggering semantics (paper §4.5, predicate ``T(r, t)``).

A rule ``r`` with triggering event expression ``rE`` and last-consideration
time stamp ``r.t'`` is triggered at time ``t`` iff::

    R = { e in EB | r.t' < timestamp(e) <= t }
    T(r, t)  <=>  R != {}  and  exists t1 in (r.t', t] with ts(rE, t1) > 0

The ``R != {}`` side condition keeps the system *reactive*: a rule whose event
expression is a pure negation would otherwise fire spontaneously, with no new
event occurrence to react to.

The existential over ``t1`` is decided by sampling: ``ts`` can only change
value at occurrence time stamps, so sampling every distinct stamp of the
window and ``t`` itself is complete (sampling ``t`` alone would miss an
activation that was transient inside the window).  The exact check that
decides every triggering, :meth:`repro.core.compile.CompiledCheck.check`
(and :func:`repro.core.compile.is_triggered` over it), samples fewer
instants to the same decision: the *sign* of ``ts`` changes only at stamps
of the expression's own types (§3.1–3.2), so it samples the window's first
stamp and those stamps only (tests/core/test_properties.py::
test_the_restricted_candidates_find_the_first_positive_instant).  The
every-stamp sampling is the reference (``tests/oracle.py::is_triggered``).

This module holds the two records the check shares with its callers.
:class:`TriggeringDecision` is its outcome.  :class:`TriggerMemo` makes it
*incremental*.  Between two checks of the same rule (same window start) the
only occurrences that can change a ``ts`` sample are those appended since
the previous check, and — because the *sign* of ``ts`` is piecewise constant
between occurrence time stamps (activity at ``t`` depends only on which
occurrences are at/before ``t``) — every instant sampled negative in an
earlier check would sample negative again.  The memo therefore records the
greatest instant already sampled and how much of the EB had been seen; the
next check only samples the instants newer than that frontier (rewound, when
occurrences arrived carrying an already-sampled time stamp, to the first such
stamp), which keeps the check exact while doing O(new events) work per block
instead of O(window) — see PERFORMANCE.md and the equivalence property test
in tests/core/test_incremental_triggering.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.clock import Timestamp

__all__ = ["TriggeringDecision", "TriggerMemo"]


@dataclass(frozen=True)
class TriggeringDecision:
    """The outcome of evaluating ``T(r, t)`` with its supporting evidence."""

    triggered: bool
    instant: Timestamp | None
    ts_value: int | None
    window_size: int
    #: How many candidate instants ``ts`` was sampled at to reach the outcome
    #: (0 for an empty window).  With a valid :class:`TriggerMemo` this is the
    #: incremental cost of the check.  The compiled check
    #: (:meth:`repro.core.compile.CompiledCheck.check`) samples the first
    #: distinct stamp past the memo's frontier and the stamps of the
    #: expression's own types; the reference samples every distinct stamp and
    #: ``now``, so the two agree on every other field and differ here.
    instants_sampled: int = 0

    def __bool__(self) -> bool:
        return self.triggered


@dataclass
class TriggerMemo:
    """Per-rule incremental state for the exact triggering check.

    ``last_sampled`` is the frontier: every distinct window time stamp at or
    before it (and ``last_sampled`` itself, which was the previous ``now``)
    is known to have ``ts <= 0``.  The compiled check samples only the
    instants where ``ts`` can change sign (the first stamp and the
    expression's own types' stamps), and the sign property of §3.1–3.2
    carries the rest — an instant between two candidates has the sign of the
    one before it.
    ``seen_events`` is the length
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
