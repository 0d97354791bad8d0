"""Scale-out subsystem: trigger checks on process shard workers.

The paper's Trigger Support (§5) checks each rule independently of the
others; this package spreads those checks over several evaluators while the
planning stays where it is — one :class:`~repro.rules.trigger_support.
TriggerPlanner` over one Rule Table:

* :mod:`repro.cluster.coordinator` — :class:`ShardCoordinator`, the Trigger
  Support that deals each round's candidates to their evaluation homes
  (:func:`home_shard` of the rule name), checks home 0 itself and merges the
  decisions back deterministically;
* :mod:`repro.cluster.process_pool` — :class:`ProcessShardPool`, the
  long-lived worker processes that own their homes' expressions and
  incremental memos plus a mirror of the Event Base's stamp indexes grown
  from per-block log deltas — the one execution mode where trigger checking
  uses multiple cores;
* :mod:`repro.cluster.transport` — :class:`~repro.cluster.transport.
  ShardTransport`, which forks those workers on pipes and owns the row log
  their deltas are sliced from.

Every block is checked on its own, right after it is flushed, exactly as
the paper's Block Executor does.  See PERFORMANCE.md ("Multi-process shard
workers", "`processes` uses both cores" and "One planner") for the
architecture notes and measurements; ``benchmarks/e2e`` measures the
end-to-end cost.
"""

from repro.cluster.coordinator import (
    ShardCoordinator,
    ShardCoordinatorStats,
    home_shard,
)
from repro.cluster.process_pool import ProcessShardPool

__all__ = [
    "ProcessShardPool",
    "ShardCoordinator",
    "ShardCoordinatorStats",
    "home_shard",
]
