"""Scale-out subsystem: sharded trigger planning and process shard workers.

The paper's Event Handler / Trigger Support split (§5) is the seam this
package scales along:

* :mod:`repro.cluster.sharding` — :class:`ShardedRuleTable`, the Rule Table
  with its inverted subscription index partitioned across N shards by
  ``(operation, class)`` bucket hash, with per-shard sub-signature plan
  caches;
* :mod:`repro.cluster.coordinator` — :class:`ShardCoordinator`, the Trigger
  Support that fans each block's type signature out to the owning shards,
  runs the per-shard checks in one of two execution modes (inline serial
  over shared zero-copy ``BoundedView`` windows, or the process worker pool)
  and merges the triggered sets back deterministically;
* :mod:`repro.cluster.process_pool` — :class:`ProcessShardPool`, the
  long-lived worker processes that own their shard's expressions and
  incremental memos plus a mirror Event Base grown from per-block log
  deltas — the one execution mode where trigger checking uses multiple
  cores.

Every block is checked on its own, right after it is flushed, exactly as
the paper's Block Executor does.  See PERFORMANCE.md ("Sharded trigger
planning" and "Multi-process shard workers") for the architecture notes and
the dated per-layer figures (BENCH_PR3.json / BENCH_PR4.json);
``benchmarks/e2e`` measures the end-to-end cost.
"""

from repro.cluster.coordinator import (
    ShardCoordinator, ShardCoordinatorStats, ShardedPlan
)
from repro.cluster.process_pool import ProcessShardPool
from repro.cluster.sharding import (
    DEFAULT_PLAN_CACHE_SIZE,
    ShardedRuleTable,
    home_shard,
    shard_of_bucket,
)

__all__ = [
    "DEFAULT_PLAN_CACHE_SIZE",
    "ProcessShardPool",
    "ShardCoordinator",
    "ShardCoordinatorStats",
    "ShardedPlan",
    "ShardedRuleTable",
    "home_shard",
    "shard_of_bucket",
]
