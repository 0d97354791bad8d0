"""Scale-out subsystem: sharded trigger planning and pipelined ingestion.

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
  incremental memos plus a mirror Event Base grown from per-trip log
  deltas — the one execution mode where trigger checking uses multiple
  cores;
* :mod:`repro.cluster.streaming` — :class:`StreamIngestor`, the bounded-queue
  pipeline that decouples producers from rule evaluation and coalesces
  backlogged blocks into micro-batched dispatch trips
  (``EngineConfig.batch_blocks``).

See PERFORMANCE.md ("Sharded trigger planning", "Multi-process shard
workers" and "Batched worker dispatch") for the architecture notes and the
dated per-layer figures (BENCH_PR3.json / BENCH_PR4.json / BENCH_PR5.json);
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
from repro.cluster.streaming import StreamIngestStats, StreamIngestor

__all__ = [
    "DEFAULT_PLAN_CACHE_SIZE",
    "ProcessShardPool",
    "ShardCoordinator",
    "ShardCoordinatorStats",
    "ShardedPlan",
    "ShardedRuleTable",
    "StreamIngestStats",
    "StreamIngestor",
    "home_shard",
    "shard_of_bucket",
]
