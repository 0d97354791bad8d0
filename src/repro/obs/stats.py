"""The shared ``as_dict()`` / ``merge()`` protocol of the pipeline stats.

``TriggerSupportStats``, ``ShardCoordinatorStats`` and ``EvaluationStats``
grew up separately, each with its own hand-rolled
plain-dict view (and, for some, its own merge).  This mixin unifies them:

* :meth:`MergeableStats.as_dict` walks the dataclass fields; a field whose
  value itself has ``as_dict()`` (a nested stats record) is **flattened**
  into the parent's view, so ``TriggerSupportStats.as_dict()`` exposes the
  evaluator counters directly — one flat namespace per stats object, which
  is exactly the shape the metrics registry folds into its snapshot
  (:meth:`repro.obs.registry.MetricsRegistry.register_source`).
* :meth:`MergeableStats.merge` accumulates another record field by field:
  nested records merge recursively, ``max_``-prefixed fields keep the
  maximum (they are high-water marks, not totals), everything else sums.

Hot-path stats (``EvaluationStats``) keep their hand-written ``merge`` as an
override — the protocol is the contract, not the implementation.
"""

from __future__ import annotations

import dataclasses
from typing import Any

__all__ = ["MergeableStats"]


class MergeableStats:
    """Mixin for ``@dataclass`` stats records: flat dict view + field-wise merge."""

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view; nested stats records are flattened in field order."""
        out: dict[str, Any] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            nested = getattr(value, "as_dict", None)
            if nested is not None:
                out.update(nested())
            else:
                out[spec.name] = value
        return out

    def merge(self, other: "MergeableStats") -> None:
        """Accumulate ``other``: nested records merge, ``max_*`` keeps the max."""
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            other_value = getattr(other, spec.name)
            nested = getattr(value, "merge", None)
            if nested is not None:
                nested(other_value)
            elif spec.name.startswith("max_"):
                setattr(self, spec.name, max(value, other_value))
            else:
                setattr(self, spec.name, value + other_value)
