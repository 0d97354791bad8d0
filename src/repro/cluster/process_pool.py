"""Process shard workers: the pool, its trip protocol and the worker loop.

With ``shard_mode="processes"`` and N shards the coordinator's
evaluate/apply split runs across N evaluators: the coordinator itself checks
the rules homed on shard 0, and **N − 1 long-lived worker processes** (pool
worker *k* serves home *k + 1*) check the rest.  Each worker owns the rules
dealt to it — their triggering event expressions, bound once per shipped
definition, and their incremental
:class:`~repro.core.triggering.TriggerMemo`s — plus a **mirror** of the
Event Base's time-stamp indexes (a
:class:`~repro.events.event_base.StampIndex`: what the compiled checks read,
no occurrence objects) grown from the deltas of
:mod:`repro.cluster.transport`.

Per *trip* — one block, or a micro-batch of consecutive blocks — the
coordinator sends each consulted worker one message, evaluates its own share
(the ``inline`` callback of :meth:`ProcessShardPool.evaluate_trip`) while the
workers check theirs, and only then reads the replies::

    ("check",
     delta of the EB log the worker has not seen (or None),
     new/changed rule definitions, dropped rule names,
     N ordered work segments (block index, work items, now))

A work segment carries one block's ``(rule name, window start,
pending-only)`` items and its ``now``; the block's type *signature* stays
coordinator-side, where it keys the route cache that chose the items.  The
one delta covers every block of the trip: the batched check evaluates each
block over the *complete* trip log bounded by that block's ``now`` — what
the serial mode sees through its zero-copy views — so cross-block time-stamp
ties resolve identically in and out of process.  The worker groups the items
by rule and runs each rule's entries through one ``check_trip`` call, which
skips what the per-block path would no longer have planned once the earlier
decisions applied: rules already found triggered in this trip, and
pending-only riders that already saw a non-empty window.  It replies with
**per-block** decision lists (compact
:class:`~repro.core.triggering.TriggeringDecision` rows) plus its local
:class:`~repro.core.evaluation.EvaluationStats` — pickled as one body, so the
``worker.reply`` probe can time that encode — and its metrics delta.  All
writes (counters, the triggered flag, heap pushes) stay in the coordinator,
which applies the decisions **serially, block by block in definition
order** — so the serial and process modes are behaviourally identical
for every batch size (``tests/cluster/test_mode_equivalence.py`` pins it,
stats included).

What makes the equivalence exact:

* **memo residency** — a rule is always dealt to the same evaluator (its
  name's home shard, fixed when the rule is added), so its ``TriggerMemo``
  sees the sequence of checks the serial mode's memo sees and
  ``instants_sampled`` comes out identical;
* **full mirror** — every worker indexes *every* EB position (negated or
  precedence sub-expressions read occurrences of types other shards own), so
  a worker-side window is equivalent to the coordinator's zero-copy view;
* **synchronous failure** — the delta is encoded in the coordinator and
  nothing is sent until every message of the trip encoded, so an unpicklable
  user payload raises :class:`~repro.errors.SnapshotError` naming the
  occurrence at the call site, with every worker left where it was.

Failure handling: a worker-side evaluation error is re-raised
coordinator-side as the original exception type with the worker traceback
chained (:class:`~repro.errors.ShardWorkerError`), after every other reply
was drained; a worker that died, or failed before applying a message's
state, poisons the pool, which then refuses further work.  A worker whose
channel was replaced between trips (:meth:`ShardTransport.poll_refreshed
<repro.cluster.transport.ShardTransport.poll_refreshed>`, tcp reconnects)
is re-sent its definitions and the log from position 0.  Removed rules are
dropped worker-side by names piggybacked on the next message.  Workers are
daemonic and additionally reaped by a ``weakref.finalize`` shutdown, so an
abandoned pool cannot leak processes past its coordinator.
"""

from __future__ import annotations

import pickle
import time
import traceback
import weakref
from typing import Callable, Sequence

from repro.cluster.transport import _FrameReader, create_transport
from repro.config import EngineConfig
from repro.core.compile import CheckBinder, CompiledCheck
from repro.core.evaluation import EvaluationMode, EvaluationStats
from repro.core.triggering import TriggerMemo, TriggeringDecision
from repro.errors import ShardWorkerError, SnapshotError
from repro.events.clock import Timestamp
from repro.events.event_base import EventBase, StampIndex
from repro.obs.registry import MetricsRegistry
from repro.rules.rule import RuleState

__all__ = ["ProcessShardPool"]

_PROTOCOL = pickle.HIGHEST_PROTOCOL


# ---------------------------------------------------------------------------
# Worker side (runs in the child process; must stay module-level so the pool
# also works under the "spawn" start method — and so the TCP entrypoint in
# repro.cluster.net can run the identical loop over a socket channel)
# ---------------------------------------------------------------------------


def _worker_main(connection, config: EngineConfig, metrics_enabled: bool) -> None:
    """One shard worker: stamp-index mirror + per-rule bindings/memos, message loop.

    ``config`` is the coordinator's own record (a fork argument on pipes,
    the handshake reply on tcp), so a worker can never evaluate under
    different settings than the engine it serves.
    """
    # This worker's evaluator: shape kernels shared by every rule dealt to
    # it, and the one epoch its bindings' index handles follow.
    binder = CheckBinder(EvaluationMode(config.evaluation_mode))
    # The worker accumulates its own registry and ships compact deltas
    # piggybacked on every reply (drain-and-reset keeps the payload small);
    # the coordinator merges them, so one snapshot covers the whole logical
    # engine.  Only the *enabled flag* crosses the process boundary — with
    # metrics off these are shared null instruments and the drain returns
    # None, adding one tuple element to the reply and nothing else.
    registry = MetricsRegistry(enabled=metrics_enabled)
    trips_counter = registry.counter("worker.trips")
    rules_counter = registry.counter("worker.rules_evaluated")
    # Per trip: the delta applied to the mirror, the checks, the reply encode.
    hists = (
        registry.histogram("worker.mirror"),
        registry.histogram("worker.check"),
        registry.histogram("worker.reply"),
    )
    #: rule name -> (TriggerMemo, CompiledCheck).  A re-added rule gets a
    #: fresh definition order, which makes the coordinator re-ship it and
    #: this worker replace the entry (memo and binding) — so a
    #: shard-resident rule is bound exactly once per shipped definition.
    rules: dict[str, tuple[TriggerMemo, CompiledCheck]] = {}
    _worker_loop(
        connection, binder, registry, trips_counter, rules_counter, hists, rules
    )


def _worker_loop(
    connection, binder, registry, trips_counter, rules_counter, hists, rules
) -> None:
    mirror_hist, check_hist, reply_hist = hists
    mirror = StampIndex()
    frame_reader = _FrameReader()
    while True:
        try:
            request = pickle.loads(connection.recv_bytes())
        except (EOFError, OSError):
            return  # coordinator went away: exit quietly
        kind = request[0]
        if kind == "stop":
            return
        #: Whether the message's state (delta/drops/defs) was fully applied
        #: before the failure — if not, this worker's mirror diverged from
        #: the coordinator's bookkeeping and the pool must not be reused.
        state_applied = kind == "reset"
        try:
            if kind == "reset":
                # New EB log (transaction boundary): the mirror and every
                # memo describe the old one.  Definitions survive; one epoch
                # bump makes every binding drop its index handles (they point
                # into the abandoned mirror) and re-resolve on its next check.
                mirror = StampIndex()
                frame_reader = _FrameReader()
                for memo, _compiled in rules.values():
                    memo.clear()
                binder.invalidate()
                connection.send_bytes(pickle.dumps(("ok", None, None), _PROTOCOL))
                continue
            _, delta, defs, drops, segments = request
            with mirror_hist.time():
                if delta is not None:
                    frame_reader.apply(delta, mirror)
            # Drops before defs: a removed-then-re-added name must end up
            # with the fresh definition, not the stale entry.
            for name in drops:
                rules.pop(name, None)
            for name, _order, expression in defs:
                rules[name] = (TriggerMemo(), binder.bind(expression))
            state_applied = True
            stats = EvaluationStats()
            replies: list[tuple[int, tuple]] = []
            trips_counter.inc()
            # Rule-major regroup: each rule's trip entries go through one
            # check_trip call, which applies the trip-local skips — exactly
            # the rules whose later-segment plans would be gone had the
            # earlier decisions applied per-block: rules found triggered
            # earlier in this trip, and pending-only riders that already saw
            # a non-empty window (they would have left the
            # pending-full-check set).  The skips key on the rule name
            # alone, so per-rule batching equals a segment-major walk; the
            # per-segment replies are then rebuilt in the original item
            # order.
            entries_by_rule: dict[str, list[tuple]] = {}
            positions_by_rule: dict[str, list[int]] = {}
            for segment_index, items, now in segments:
                for name, window_start, pending_only in items:
                    entries_by_rule.setdefault(name, []).append(
                        (window_start, now, pending_only)
                    )
                    positions_by_rule.setdefault(name, []).append(segment_index)
            decided: dict[tuple[int, str], tuple] = {}
            with check_hist.time():
                for name, entries in entries_by_rule.items():
                    memo, compiled = rules[name]
                    decisions_for_rule = compiled.check_trip(
                        mirror, entries, memo=memo, stats=stats
                    )
                    for segment_index, decision in zip(
                        positions_by_rule[name], decisions_for_rule
                    ):
                        if decision is not None:
                            decided[(segment_index, name)] = (
                                decision.triggered,
                                decision.instant,
                                decision.ts_value,
                                decision.window_size,
                                decision.instants_sampled,
                            )
            rules_counter.inc(len(decided))
            with reply_hist.time():
                for segment_index, items, _now in segments:
                    decisions = [
                        (name, decided[(segment_index, name)])
                        for name, _ws, _po in items
                        if (segment_index, name) in decided
                    ]
                    replies.append((segment_index, tuple(decisions)))
                body = pickle.dumps((tuple(replies), stats), _PROTOCOL)
            # Drained after the reply timer stopped, so this trip's
            # observations all ride on this trip's reply.
            connection.send_bytes(
                pickle.dumps(("ok", body, registry.drain_delta()), _PROTOCOL)
            )
        except Exception as exc:
            # Ship the exception object itself when it pickles, so the
            # coordinator can re-raise the same type the serial mode would
            # have surfaced; fall back to the traceback text otherwise.
            formatted = traceback.format_exc()
            try:
                payload = pickle.dumps(
                    ("error", exc, formatted, state_applied), _PROTOCOL
                )
            except Exception:
                payload = pickle.dumps(
                    ("error", None, formatted, state_applied), _PROTOCOL
                )
            try:
                connection.send_bytes(payload)
            except Exception:
                return


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Coordinator-side bookkeeping for one worker process."""

    __slots__ = (
        "worker_id",
        "process",
        "connection",
        "shipped_events",
        "shipped_types",
        "shipped_defs",
        "pending_drops",
    )

    def __init__(self, worker_id: int, process, connection) -> None:
        self.worker_id = worker_id
        self.process = process
        self.connection = connection
        #: How much of the current EB log this worker's mirror holds.
        self.shipped_events = 0
        #: How much of the row log's event-type table this worker holds (new
        #: types piggyback on each delta).
        self.shipped_types = 0
        #: rule name -> definition order of the definition last shipped.
        self.shipped_defs: dict[str, int] = {}
        #: Removed rule names not yet delivered to the worker (piggybacked
        #: on the next message, so churn costs no extra round trip).
        self.pending_drops: list[str] = []

    def forget_shipments(self) -> None:
        """Reset to never-contacted (the reconnect re-sync path)."""
        self.shipped_events = 0
        self.shipped_types = 0
        self.shipped_defs.clear()
        self.pending_drops.clear()


#: One staged send of ``evaluate_trip``: the consulted handle, its encoded
#: request, the definitions riding along and the type watermark to advance to.
_PreparedSend = tuple[_WorkerHandle, bytes, list[tuple[str, int]], int]

#: One block's ``(state, decision)`` rows and the stats they cost; a trip's
#: rows are grouped by block index.
_BlockResult = tuple[list[tuple[RuleState, TriggeringDecision]], EvaluationStats]
_TripResult = tuple[list[list[tuple[RuleState, TriggeringDecision]]], EvaluationStats]


class ProcessShardPool:
    """Long-lived worker processes evaluating shard batches against EB mirrors.

    The coordinator of an N-shard table runs N − 1 of them and checks home 0
    itself.  The pool is protocol + residency bookkeeping only: *which* rules
    are candidates for a block is decided by the coordinator's plan, every
    state mutation happens back in the coordinator, and worker placement,
    byte channels and the delta encoding live behind the
    :class:`~repro.cluster.transport.ShardTransport` seam.  See the module
    docstring for the protocol.
    """

    def __init__(
        self,
        num_workers: int,
        config: EngineConfig = EngineConfig(),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(
                f"a process shard pool needs at least 1 worker (got {num_workers})"
            )
        self.num_workers = num_workers
        self.config = config
        self.transport = config.transport
        #: Coordinator-side registry the workers' reply deltas merge into
        #: (None = discard them).  Workers receive only the enabled *flag* —
        #: registries do not cross the process boundary.
        self.metrics = metrics
        self._transport = create_transport(config)
        try:
            self._transport.launch(
                num_workers, metrics is not None and metrics.enabled
            )
        except BaseException:
            self._transport.shutdown()
            raise
        self._workers: list[_WorkerHandle] = [
            _WorkerHandle(
                worker_id,
                self._transport.process(worker_id),
                self._transport.channel(worker_id),
            )
            for worker_id in range(num_workers)
        ]
        self._closed = False
        #: Set when a worker died mid-protocol or diverged from the
        #: coordinator's bookkeeping — the pool then refuses further work.
        self._broken = False
        # -- transport observability (fed into the workload reports) --
        #: Trips: one per evaluate/evaluate_trip call, however many blocks
        #: the trip coalesced.
        self.dispatches = 0
        self.worker_round_trips = 0
        #: Blocks that shipped work items in some trip — ``dispatches <
        #: blocks_dispatched`` is micro-batching visibly amortizing.
        self.blocks_dispatched = 0
        self.bytes_shipped = 0
        self.bytes_received = 0
        #: Rule definitions shipped to workers, cumulatively.  With a stable
        #: table this equals "each live rule once per owning worker" however
        #: many trips run (``test_definition_shipped_once_per_trip``).
        self.defs_shipped = 0
        #: Worker channels replaced by a reconnect (tcp transport), each
        #: followed by a defs + mirror re-sync on the next contact.
        self.reconnects = 0
        #: Coordinator-side serialization cost (delta + message pickling):
        #: the "encode cost" side of the crossover PERFORMANCE.md discusses.
        self.encode_seconds = 0.0
        #: The delta-only share of ``encode_seconds`` (row encoding plus the
        #: per-worker slices).
        self.delta_encode_seconds = 0.0
        #: Per-worker deltas shipped.
        self.deltas_framed = 0
        self._finalizer = weakref.finalize(self, self._transport.shutdown)

    # -- the per-trip round trip ------------------------------------------------
    def evaluate(
        self,
        event_base: EventBase,
        assignments: dict[int, list[tuple[RuleState, Timestamp]]],
        now: Timestamp,
        inline: Callable[[], _BlockResult] | None = None,
    ) -> _BlockResult:
        """Evaluate one block's work items on the workers.

        The single-block spelling of :meth:`evaluate_trip`: ``assignments``
        maps worker id -> ``(state, window start)`` pairs, and ``inline``
        returns the caller's own ``(state, decision)`` pairs and stats.
        Returns the evaluated pairs (in worker order — the coordinator sorts
        by definition order before applying) plus the merged evaluation
        stats.
        """
        trip_inline = None
        if inline is not None:

            def trip_inline() -> _TripResult:
                rows, stats = inline()
                return [rows], stats

        per_segment, merged = self.evaluate_trip(
            event_base,
            {
                worker_id: {
                    0: [(state, window_start, False) for state, window_start in items]
                }
                for worker_id, items in assignments.items()
            },
            [now],
            trip_inline,
        )
        return per_segment[0], merged

    def evaluate_trip(
        self,
        event_base: EventBase,
        assignments: dict[int, dict[int, list[tuple[RuleState, Timestamp, bool]]]],
        nows: Sequence[Timestamp],
        inline: Callable[[], _TripResult] | None = None,
    ) -> _TripResult:
        """Evaluate a micro-batch of blocks on the workers, one trip per worker.

        ``assignments`` maps worker id -> block index -> ``(state, window
        start, pending-only)`` triples; ``nows`` holds each block's check
        instant (indexed by block index).  A rule must always be assigned to
        the same worker (the coordinator's fixed-home dealing) so its memo
        stays resident, and a rule's items must appear in block order — the
        worker walks segments in order, skipping rules already triggered
        earlier in the trip and pending-only riders that already saw a
        non-empty window (the per-block pending-set semantics).

        Every consulted worker receives exactly **one** message for the whole
        trip (one combined EB delta + its work segments), which is the
        dispatch amortization this pool exists for: round trips scale with
        trips, not blocks.  ``inline`` — the coordinator's own share of the
        trip — runs after every message is sent and before any reply is
        read, so it overlaps the workers' checks; its rows and stats (same
        shape as this method's result) are folded in.  Returns the evaluated
        ``(state, decision)`` pairs grouped by block index (each group in
        evaluator order — the coordinator sorts by definition order before
        applying) plus the merged stats.
        """
        self._require_usable()
        self._absorb_reconnects()
        transport = self._transport
        total = len(event_base)
        by_name: dict[str, RuleState] = {}
        prepared: list[_PreparedSend] = []
        covered_blocks: set[int] = set()
        started = time.perf_counter()
        # Encode the unseen tail of the log once — every lagging worker's
        # delta is then a slice of the same encoded log.
        encode_started = time.perf_counter()
        transport.begin_trip(event_base, total)
        self.delta_encode_seconds += time.perf_counter() - encode_started
        for worker_id in sorted(assignments):
            handle = self._workers[worker_id]
            segment_items = assignments[worker_id]
            defs: list[tuple[str, int, object]] = []
            new_defs: list[tuple[str, int]] = []
            shipping_now: set[str] = set()
            segments: list[tuple[int, tuple, Timestamp]] = []
            for segment_index in sorted(segment_items):
                items: list[tuple[str, Timestamp, bool]] = []
                for state, window_start, pending_only in segment_items[segment_index]:
                    name = state.rule.name
                    order = state.definition_order
                    if (
                        handle.shipped_defs.get(name) != order
                        and name not in shipping_now
                    ):
                        defs.append((name, order, state.rule.events))
                        new_defs.append((name, order))
                        shipping_now.add(name)
                    items.append((name, window_start, pending_only))
                    by_name[name] = state
                if items:
                    segments.append((segment_index, tuple(items), nows[segment_index]))
                    covered_blocks.add(segment_index)
            delta: tuple | None = None
            advance_types = handle.shipped_types
            if handle.shipped_events < total:
                encode_started = time.perf_counter()
                delta, advance_types = transport.delta_for(
                    handle.shipped_events, handle.shipped_types
                )
                self.delta_encode_seconds += time.perf_counter() - encode_started
                self.deltas_framed += 1
            message = (
                "check",
                delta,
                tuple(defs),
                tuple(handle.pending_drops),
                tuple(segments),
            )
            prepared.append((handle, self._encode(message), new_defs, advance_types))
        self.encode_seconds += time.perf_counter() - started
        # Nothing is sent until every message encoded cleanly: an encode
        # failure therefore leaves every worker exactly where it was.
        for handle, payload, new_defs, advance_types in prepared:
            self._send(handle, payload)
            handle.shipped_events = total
            handle.pending_drops.clear()
            handle.shipped_types = advance_types
            for name, order in new_defs:
                handle.shipped_defs[name] = order
            self.defs_shipped += len(new_defs)
        self.dispatches += 1
        self.worker_round_trips += len(prepared)
        self.blocks_dispatched += len(covered_blocks)
        per_segment: list[list[tuple[RuleState, TriggeringDecision]]] = [
            [] for _ in nows
        ]
        merged = EvaluationStats()
        first_error: BaseException | None = None
        if inline is not None:
            try:
                per_segment, merged = inline()
            except BaseException as exc:
                first_error = exc
        # Drain every worker's reply even when one fails: an unread reply
        # left in a pipe would pair with the *next* request and desync the
        # pool permanently.  The first failure is re-raised afterwards.
        for handle, _, _, _ in prepared:
            try:
                body, metrics_delta = self._receive(handle)
            except BaseException as exc:  # transport death poisons in _receive
                if first_error is None:
                    first_error = exc
                continue
            if first_error is not None:
                continue
            reply_segments, worker_stats = pickle.loads(body)
            merged.merge(worker_stats)
            if metrics_delta and self.metrics is not None:
                # Deltas are commutative (sums and maxima), so the reply
                # order cannot change the merged snapshot.
                self.metrics.merge_delta(metrics_delta)
            for segment_index, decisions in reply_segments:
                rows = per_segment[segment_index]
                for name, row in decisions:
                    rows.append((by_name[name], TriggeringDecision(*row)))
        if first_error is not None:
            raise first_error
        return per_segment, merged

    def prune(self, is_live) -> int:
        """Forget definitions of rules that left the table.

        ``is_live`` is a ``name -> bool`` predicate (typically the rule
        table's ``__contains__``).  Stale names are removed from the shipping
        bookkeeping immediately and queued as drops piggybacked on each
        worker's next message — so a long-lived pool under add/remove churn
        stays bounded by the *live* rule population, costing no extra round
        trip.  Returns how many (worker, rule) entries were pruned.
        """
        pruned = 0
        for handle in self._workers:
            stale = [name for name in handle.shipped_defs if not is_live(name)]
            for name in stale:
                del handle.shipped_defs[name]
            handle.pending_drops.extend(stale)
            pruned += len(stale)
        return pruned

    def reset(self) -> None:
        """Forget every mirror and memo (the coordinator's EB was rebound)."""
        if self._closed or not self._workers:
            return
        self._require_usable()
        self._absorb_reconnects()
        payload = pickle.dumps(("reset",), _PROTOCOL)
        for handle in self._workers:
            self._send(handle, payload)
        for handle in self._workers:
            self._receive(handle)
            handle.shipped_events = 0
            handle.shipped_types = 0
        self._transport.note_reset()

    # -- transport ------------------------------------------------------------
    def _require_usable(self) -> None:
        if self._closed:
            raise ShardWorkerError("the process shard pool is closed")
        if self._broken:
            raise ShardWorkerError(
                "the process shard pool is broken (a worker died or diverged "
                "from the coordinator's bookkeeping); close it and let the "
                "coordinator spawn a fresh one"
            )

    def _absorb_reconnects(self) -> None:
        """Fold channel replacements into the shipping bookkeeping.

        A worker that reconnected since the last trip (tcp transport) starts
        from an empty mirror and an empty rule table: resetting its handle
        makes the next message re-ship every definition it needs plus the
        whole log from position 0 — the re-sync that lets it rejoin without
        a coordinator restart.
        """
        for worker_id in self._transport.poll_refreshed():
            handle = self._workers[worker_id]
            handle.process = self._transport.process(worker_id)
            handle.connection = self._transport.channel(worker_id)
            handle.forget_shipments()
            self.reconnects += 1

    def _encode(self, message: tuple) -> bytes:
        try:
            return pickle.dumps(message, _PROTOCOL)
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(f"shard work item is not picklable: {exc}") from exc

    def _send(self, handle: _WorkerHandle, payload: bytes) -> None:
        try:
            handle.connection.send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            # A half-dispatched block cannot be rolled back: poison the pool
            # so later calls fail loudly instead of desyncing.
            self._broken = True
            raise ShardWorkerError(
                f"shard worker {handle.worker_id} is gone (send failed: {exc})"
            ) from exc
        self.bytes_shipped += len(payload)

    def _receive(self, handle: _WorkerHandle):
        try:
            raw = handle.connection.recv_bytes()
        except (EOFError, OSError) as exc:
            # The reply stream is unrecoverable: poison the pool.
            self._broken = True
            raise ShardWorkerError(
                f"shard worker {handle.worker_id} died before replying: {exc}"
            ) from exc
        except SnapshotError:
            # A corrupt frame means the byte stream desynced — the channel
            # can never be trusted again, exactly like a dead peer.
            self._broken = True
            raise
        self.bytes_received += len(raw)
        reply = pickle.loads(raw)
        if reply[0] == "error":
            _, original, formatted, state_applied = reply
            if not state_applied:
                # The worker failed before applying the message's delta/defs:
                # its mirror no longer matches the coordinator's bookkeeping.
                self._broken = True
            cause = ShardWorkerError(
                f"shard worker {handle.worker_id} failed:\n{formatted}"
            )
            if isinstance(original, BaseException):
                # Behavioral parity with the serial mode's error path: the
                # caller sees the same exception type it would have caught
                # there, with the worker traceback chained as the cause.
                raise original from cause
            raise cause
        # ``("ok", pickled (segments, stats) body, metrics delta)``; a reset
        # reply carries neither.
        return reply[1], reply[2]

    # -- lifecycle ------------------------------------------------------------
    def transport_stats(self) -> dict[str, int | float]:
        """Wire-level counters (merged into the workload reports)."""
        stats = {
            "workers": self.num_workers,
            "dispatches": self.dispatches,
            "worker_round_trips": self.worker_round_trips,
            "blocks_dispatched": self.blocks_dispatched,
            "bytes_shipped": self.bytes_shipped,
            "bytes_received": self.bytes_received,
            "defs_shipped": self.defs_shipped,
            "reconnects": self.reconnects,
            "encode_ms": round(1e3 * self.encode_seconds, 2),
            "delta_encode_ms": round(1e3 * self.delta_encode_seconds, 2),
            "deltas_framed": self.deltas_framed,
        }
        stats.update(self._transport.extra_stats())
        return stats

    def close(self) -> None:
        """Stop and reap the workers, then release the transport (idempotent)."""
        if not self._closed:
            self._closed = True
            self._finalizer()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
