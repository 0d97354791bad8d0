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
"""

from __future__ import annotations

from repro.core.evaluation import EvaluationMode
from repro.rules.trigger_support import TriggerSupport, is_triggered


class OracleTriggerSupport(TriggerSupport):
    def __init__(self, *args, mode: EvaluationMode = EvaluationMode.LOGICAL, **kwargs):
        super().__init__(*args, **kwargs)
        self.mode = mode

    def _evaluate_rule(self, state, now, transaction_start):
        return is_triggered(
            state.rule.events,
            self.event_base,
            state.trigger_window_start(transaction_start),
            now,
            self.mode,
            memo=state.trigger_memo,
        )
