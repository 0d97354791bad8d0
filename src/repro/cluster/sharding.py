"""Sharded Rule Table: the subscription index partitioned by bucket hash.

The paper separates the Event Handler (logs occurrences) from the Trigger
Support (decides which rules fire); this module scales the second half out.
The PR-2 inverted subscription index already groups rules into ``(operation,
class)`` buckets — the natural shard key, because *every* lookup the planner
performs for one signature type (exact watch, class-level watch, class
bucket) touches types of a single ``(operation, class)`` pair.  Hashing that
pair therefore sends each signature type to exactly one shard, and the union
of the consulted shards' local lookups is exactly the global lookup
(``tests/cluster`` pins the equivalence property).

:class:`ShardedRuleTable` extends :class:`~repro.rules.rule_table.RuleTable`:
registration, priority heaps, pending-full-check set and triggered-state
reconciliation stay global (one authoritative table — the coordinator merges
shard results back into it), while the subscription index is *additionally*
maintained per shard.  A rule whose ``V(E)`` watches buckets on multiple
shards is registered on each of them; the coordinator deduplicates at plan
time (lowest owning shard wins, deterministically).  Where a rule is
*checked* is a separate, per-rule constant: its evaluation home,
:func:`home_shard` of its name, fixed when the rule is added.

Each shard keeps a **sub-signature plan cache**: the resolved, definition-
ordered subscriber tuple per frozenset of signature types routed to that
shard.  This is where the sharded planner beats the single-table planner —
the fan-out keys the memo on *sub*-signatures, which recur far more often
than full block signatures (two blocks differing only in types owned by
other shards still hit), so a steady-state block skips the bucket unions and
the candidate sort entirely.  The cache is validated against the table's
``plan_epoch`` (subscription shape + schema version), so rule add/remove and
schema growth invalidate it wholesale.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Iterable

from repro.config import EngineConfig
from repro.events.event import EventType, Operation
from repro.rules.rule import RuleState
from repro.rules.rule_table import RuleTable, match_subscribers

__all__ = [
    "DEFAULT_PLAN_CACHE_SIZE",
    "shard_of_bucket",
    "home_shard",
    "ShardedRuleTable",
]

#: Default LRU capacity of the signature route cache and of each shard's
#: sub-signature plan cache.  Generous — a steady workload re-issues a few
#: dozen block shapes, so thousands of entries only accumulate under
#: adversarial never-repeating signatures, which is exactly what the bound
#: exists for (ROADMAP: "unbounded for adversarial ones").
DEFAULT_PLAN_CACHE_SIZE = EngineConfig.plan_cache_size


def shard_of_bucket(operation: Operation, class_name: str, num_shards: int) -> int:
    """The shard owning the ``(operation, class)`` bucket.

    crc32 rather than ``hash()``: the builtin string hash is salted per
    process, and shard placement must be reproducible across runs (benchmarks,
    the equivalence tests, any future multi-process deployment).
    """
    key = f"{operation.value}({class_name})".encode()
    return zlib.crc32(key) % num_shards


def home_shard(rule_name: str, num_shards: int) -> int:
    """A rule's evaluation home: the shard whose worker checks it.

    Keyed by the name alone, so rules spread evenly whatever buckets they
    watch (the paper's Trigger Support checks each rule independently), and
    a rule keeps its home — hence its resident memo — for its lifetime.
    Pending-full-check riders (``V(E)`` filter not applicable yet, e.g. pure
    negations, which watch no positive type at all) are planned there too.
    """
    return zlib.crc32(rule_name.encode()) % num_shards


class _ShardIndex:
    """One shard's slice of the inverted subscription index, plus its plan cache."""

    __slots__ = ("shard_id", "exact", "class_buckets", "plan_cache", "cache_epoch")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.exact: dict[EventType, dict[str, RuleState]] = {}
        self.class_buckets: dict[tuple[Operation, str], dict[str, RuleState]] = {}
        #: sub-signature (frozenset of routed types) -> subscribers, sorted by
        #: definition order.  Validated against the owning table's plan_epoch;
        #: LRU-ordered (hits move to the back, overflow evicts the front) so
        #: never-repeating signatures cannot grow it past the table's cap.
        self.plan_cache: OrderedDict[frozenset[EventType], tuple[RuleState, ...]] = (
            OrderedDict()
        )
        self.cache_epoch: tuple[int, int] | None = None


class ShardedRuleTable(RuleTable):
    """A Rule Table whose subscription index is partitioned across N shards."""

    def __init__(
        self, num_shards: int, plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    ) -> None:
        if num_shards < 1:
            raise ValueError(
                f"a sharded rule table needs at least 1 shard (got {num_shards})"
            )
        if plan_cache_size < 1:
            raise ValueError(
                f"plan_cache_size must be positive (got {plan_cache_size})"
            )
        super().__init__()
        self.num_shards = num_shards
        #: Per-shard LRU capacity of the sub-signature plan caches (the
        #: coordinator reuses the same cap for its route cache).
        self.plan_cache_size = plan_cache_size
        self._shards = [_ShardIndex(shard_id) for shard_id in range(num_shards)]
        #: rule name -> shards it is registered on (sorted, deduplicated).
        self._rule_shards: dict[str, tuple[int, ...]] = {}
        #: rule name -> evaluation home, hashed once when the rule is added.
        self._homes: dict[str, int] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_evictions = 0

    # -- registration (extends the global index maintenance) -----------------
    def _index_subscriptions(self, state: RuleState) -> None:
        super()._index_subscriptions(state)
        name = state.rule.name
        owners: set[int] = set()
        for watched in state.recomputation_filter.relevant_event_types():
            shard = self._shards[
                shard_of_bucket(watched.operation, watched.class_name, self.num_shards)
            ]
            owners.add(shard.shard_id)
            shard.exact.setdefault(watched, {})[name] = state
            class_key = (watched.operation, watched.class_name)
            shard.class_buckets.setdefault(class_key, {})[name] = state
        self._rule_shards[name] = tuple(sorted(owners))
        self._homes[name] = home_shard(name, self.num_shards)

    def _unindex_subscriptions(self, state: RuleState) -> None:
        super()._unindex_subscriptions(state)
        name = state.rule.name
        for watched in state.recomputation_filter.relevant_event_types():
            shard = self._shards[
                shard_of_bucket(watched.operation, watched.class_name, self.num_shards)
            ]
            bucket = shard.exact.get(watched)
            if bucket is not None:
                bucket.pop(name, None)
                if not bucket:
                    del shard.exact[watched]
            class_key = (watched.operation, watched.class_name)
            class_bucket = shard.class_buckets.get(class_key)
            if class_bucket is not None:
                class_bucket.pop(name, None)
                if not class_bucket:
                    del shard.class_buckets[class_key]
        self._rule_shards.pop(name, None)
        self._homes.pop(name, None)

    # -- introspection ---------------------------------------------------------
    def shards_of_rule(self, name: str) -> tuple[int, ...]:
        """The shards rule ``name`` is registered on (empty: no positive watches)."""
        return self._rule_shards.get(name, ())

    def home_shard_of(self, name: str) -> int:
        """The evaluation home of rule ``name`` (see :func:`home_shard`)."""
        return self._homes[name]

    def home_population(self) -> list[int]:
        """Rules per evaluation home, home 0 first — where the checks go.

        In ``processes`` mode home 0 is the coordinator's own share and home
        *k* ≥ 1 that of pool worker *k − 1*; each rule counts once.
        """
        population = [0] * self.num_shards
        for home in self._homes.values():
            population[home] += 1
        return population

    # -- routing ---------------------------------------------------------------
    def route_signature(
        self, expanded_signature: Iterable[EventType]
    ) -> dict[int, list[EventType]]:
        """Partition an (already expanded) signature by owning shard.

        Each signature type belongs to exactly one shard — the one owning its
        ``(operation, class)`` bucket — because every index structure the
        lookup consults for that type (exact entry, class-level exact entry,
        class bucket) is keyed by types of that same pair.
        """
        routed: dict[int, list[EventType]] = {}
        for event_type in expanded_signature:
            shard_id = shard_of_bucket(
                event_type.operation, event_type.class_name, self.num_shards
            )
            routed.setdefault(shard_id, []).append(event_type)
        return routed

    def _shard_subscribers(
        self, shard: _ShardIndex, types: Iterable[EventType]
    ) -> dict[str, RuleState]:
        """The global lookup of :meth:`subscribers_for_signature`, shard-local.

        Literally the same semantics (one shared helper): the equivalence
        contract is that the union over consulted shards equals the global
        lookup.
        """
        return match_subscribers(shard.exact, shard.class_buckets, types)

    def shard_plan(
        self, shard_id: int, sub_signature: frozenset[EventType]
    ) -> tuple[RuleState, ...]:
        """Definition-ordered subscribers of one shard for one sub-signature.

        Memoized per shard; the caller filters enabled/untriggered per block.
        The cached tuple may contain disabled or currently-triggered states —
        those conditions change without touching the subscription shape, so
        they must not key the cache.
        """
        shard = self._shards[shard_id]
        epoch = self.plan_epoch()
        if shard.cache_epoch != epoch:
            shard.plan_cache.clear()
            shard.cache_epoch = epoch
        cache = shard.plan_cache
        cached = cache.get(sub_signature)
        if cached is None:
            self.plan_cache_misses += 1
            subscribers = self._shard_subscribers(shard, sub_signature)
            cached = tuple(
                sorted(subscribers.values(), key=lambda state: state.definition_order)
            )
            cache[sub_signature] = cached
            if len(cache) > self.plan_cache_size:
                # LRU eviction: an adversarial stream of never-repeating
                # signatures otherwise grows the memo without bound.
                cache.popitem(last=False)
                self.plan_cache_evictions += 1
        else:
            self.plan_cache_hits += 1
            cache.move_to_end(sub_signature)
        return cached

    def plan_cache_sizes(self) -> list[int]:
        """Current entry count of each shard's plan cache (observability)."""
        return [len(shard.plan_cache) for shard in self._shards]
