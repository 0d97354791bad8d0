"""The reference Trigger Support: every exact check through ``is_triggered``.

Production evaluates exact checks only through the shape kernels of
:mod:`repro.core.compile`.  The recursive evaluator of
:mod:`repro.core.evaluation` + :func:`repro.core.triggering.is_triggered` is
the oracle those kernels are pinned to; this subclass swaps it in at the two
evaluation kernels of :class:`TriggerSupport` (nothing else — planning, the
trip regroup, decision apply and every counter are the engine's own), so a
whole scenario can be replayed engine-vs-oracle.
"""

from __future__ import annotations

from repro.rules.trigger_support import TriggerSupport, is_triggered


class OracleTriggerSupport(TriggerSupport):
    def _evaluate_item(self, state, window_start, now, evaluation_stats):
        return is_triggered(
            state.rule.events,
            self.event_base,
            window_start,
            now,
            self.mode,
            evaluation_stats,
            memo=state.trigger_memo,
        )

    def _check_rule_trip(self, state, window_start, items, evaluation_stats):
        """The per-entry walk ``CompiledCheck.check_trip`` batches: skip after
        an in-trip triggering, and pending-only riders after an in-trip
        non-empty window."""
        decisions: list[object] = []
        triggered = False
        saw_nonempty = False
        for _index, now, pending in items:
            if triggered or (pending and saw_nonempty):
                decisions.append(None)
                continue
            decision = self._evaluate_item(state, window_start, now, evaluation_stats)
            triggered = triggered or decision.triggered
            saw_nonempty = saw_nonempty or decision.window_size > 0
            decisions.append(decision)
        return decisions
