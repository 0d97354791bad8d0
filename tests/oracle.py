"""The reference Trigger Support: every exact check through ``is_triggered``.

Production evaluates exact checks only through the shape kernels of
:mod:`repro.core.compile`.  The recursive evaluator of
:mod:`repro.core.evaluation` + :func:`repro.core.triggering.is_triggered` is
the oracle those kernels are pinned to; this subclass swaps it in at the one
evaluation kernel of :class:`TriggerSupport` (nothing else — planning,
decision apply and every counter are the engine's own), so a whole scenario
can be replayed engine-vs-oracle.  ``mode`` picks which of the paper's two
formulations the oracle evaluates; the engine compiles one combine set,
which must equal both.

The oracle samples every distinct stamp of the window; the compiled check
samples only the stamps where ``ts`` can change sign (the window's first
stamp and the stamps of the expression's own types).  The decision the
oracle reports carries :func:`restricted_samples` as its
``instants_sampled`` — the compiled check's count, made from the log rows
alone.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.evaluation import EvaluationMode
from repro.core.expressions import EventExpression
from repro.core.triggering import TriggeringDecision, TriggerMemo
from repro.events.clock import Timestamp
from repro.events.event_base import EventBase
from repro.rules.trigger_support import TriggerSupport, is_triggered


def restricted_samples(
    expression: EventExpression,
    event_base: EventBase,
    window_start: Timestamp | None,
    now: Timestamp,
    memo: TriggerMemo,
    decision: TriggeringDecision,
) -> int:
    """How many instants the restricted exact check samples, by brute force.

    ``memo`` is the rule's memo as it stood *before* the check, ``decision``
    the reference's outcome.  Every log row is scanned and matched with
    :meth:`EventType.matches` (no store index, no bisection): the count is the
    distinct stamps of the resume range — ``(window_start, now]`` above the
    memo's frontier — that are the range's first stamp or carry a row of one
    of the expression's types, up to the first positive one.
    """
    rows = list(event_base)
    bound = window_start
    if memo.covers(window_start):
        lower = memo.last_sampled
        if memo.seen_events < len(rows):
            first_new = rows[memo.seen_events].timestamp
            if first_new <= lower:
                lower = first_new - 1
        if bound is None or lower > bound:
            bound = lower
    in_range = [
        row
        for row in rows
        if (bound is None or row.timestamp > bound) and row.timestamp <= now
    ]
    if not in_range:
        return 0
    patterns = expression.event_types()
    stamps = {
        row.timestamp
        for row in in_range
        if any(pattern.matches(row.event_type) for pattern in patterns)
    }
    stamps.add(in_range[0].timestamp)
    if decision.triggered:
        return sum(1 for stamp in stamps if stamp <= decision.instant)
    return len(stamps)


class OracleTriggerSupport(TriggerSupport):
    def __init__(self, *args, mode: EvaluationMode = EvaluationMode.LOGICAL, **kwargs):
        super().__init__(*args, **kwargs)
        self.mode = mode

    def _evaluate_rule(self, state, now, transaction_start):
        window_start = state.trigger_window_start(transaction_start)
        before = replace(state.trigger_memo)
        decision = is_triggered(
            state.rule.events,
            self.event_base,
            window_start,
            now,
            self.mode,
            memo=state.trigger_memo,
        )
        count = restricted_samples(
            state.rule.events, self.event_base, window_start, now, before, decision
        )
        return replace(decision, instants_sampled=count)
