"""Process shard workers: the pool, its block protocol and the worker loop.

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

A *trip* is one block: per block the coordinator sends each consulted
worker one message, evaluates its own share (the ``inline`` callback of
:meth:`ProcessShardPool.evaluate`) while the workers check theirs, and only
then reads the replies::

    ("check",
     delta of the EB log the worker has not seen (or None),
     new/changed rule definitions, dropped rule names,
     work items ((rule name, window start), ...), now)

The block's type *signature* stays coordinator-side, where the one planner
chose the items from it.  The worker runs one compiled ``check`` per item
and replies with one compact :class:`~repro.core.triggering.TriggeringDecision`
row per item, in item order (the coordinator knows which rule each row
answers) — pickled as one body, so the ``worker.reply`` probe can time that
encode — and its metrics delta.  All writes (counters, the triggered flag, the
priority queues) stay in the coordinator, which applies the decisions **serially in
definition order** — so the single table and the process mode are
behaviourally identical (``tests/cluster/test_mode_equivalence.py`` pins it,
stats included).

What makes the equivalence exact:

* **memo residency** — a rule is always dealt to the same evaluator (its
  name's home shard), so its ``TriggerMemo`` sees the sequence of checks
  the single table's memo sees: the resume range, its first stamp and the
  rule's own stamps in it — the instants a check samples — and with them
  ``instants_sampled`` come out identical;
* **full mirror** — every worker indexes *every* EB position: a check reads
  the window's size, the memo's rewind and the resume range's first stamp
  off the whole log, and negated or precedence sub-expressions read types no
  routing signature names, so a worker-side window is equivalent to the
  coordinator's zero-copy view;
* **synchronous failure** — the delta is encoded in the coordinator and
  nothing is sent until every message of the block encoded, so an unpicklable
  user payload raises :class:`~repro.errors.SnapshotError` naming the
  occurrence at the call site, with every worker left where it was.

Failure handling: a worker-side evaluation error is re-raised
coordinator-side as the original exception type with the worker traceback
chained (:class:`~repro.errors.ShardWorkerError`), after every other reply
was drained; a worker that died, or failed before applying a message's
state, poisons the pool, which then refuses further work.  Removed rules are
dropped worker-side by names piggybacked on the next message.  Workers are
daemonic and additionally reaped by a ``weakref.finalize`` shutdown, so an
abandoned pool cannot leak processes past its coordinator.
"""

from __future__ import annotations

import pickle
import time
import traceback
import weakref
from typing import Callable

from repro.cluster.transport import ShardTransport, _FrameReader
from repro.config import EngineConfig
from repro.core.compile import CheckBinder, CompiledCheck
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
# also works under the "spawn" start method)
# ---------------------------------------------------------------------------


def _worker_main(connection, config: EngineConfig, metrics_enabled: bool) -> None:
    """One shard worker: stamp-index mirror + per-rule bindings/memos, message loop.

    ``config`` is the coordinator's own record (a fork argument), so a
    worker can never evaluate under different settings than the engine it
    serves.
    """
    # This worker's evaluator: shape kernels shared by every rule dealt to it.
    binder = CheckBinder()
    # The worker accumulates its own registry and ships compact deltas
    # piggybacked on every reply (drain-and-reset keeps the payload small);
    # the coordinator merges them, so one snapshot covers the whole logical
    # engine.  Only the *enabled flag* crosses the process boundary — with
    # metrics off these are shared null instruments and the drain returns
    # None, adding one tuple element to the reply and nothing else.
    registry = MetricsRegistry(enabled=metrics_enabled)
    trips_counter = registry.counter("worker.trips")
    rules_counter = registry.counter("worker.rules_evaluated")
    # Per block: the delta applied to the mirror, the checks, the reply encode.
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
                # The coordinator's log was emptied: so is the mirror (its
                # live lists stay bound); the memos describe the old log.
                mirror.clear()
                frame_reader = _FrameReader()
                for memo, _compiled in rules.values():
                    memo.clear()
                connection.send_bytes(pickle.dumps(("ok", None, None), _PROTOCOL))
                continue
            _, delta, defs, drops, items, now = request
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
            trips_counter.inc()
            decisions = []
            with check_hist.time():
                for name, window_start in items:
                    memo, compiled = rules[name]
                    decision = compiled.check(mirror, window_start, now, memo=memo)
                    decisions.append(
                        (
                            decision.triggered,
                            decision.instant,
                            decision.ts_value,
                            decision.window_size,
                            decision.instants_sampled,
                        )
                    )
            rules_counter.inc(len(decisions))
            with reply_hist.time():
                body = pickle.dumps(tuple(decisions), _PROTOCOL)
            # Drained after the reply timer stopped, so this block's
            # observations all ride on this block's reply.
            connection.send_bytes(
                pickle.dumps(("ok", body, registry.drain_delta()), _PROTOCOL)
            )
        except Exception as exc:
            # Ship the exception object itself when it pickles, so the
            # coordinator can re-raise the same type an inline check would
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


#: One staged send of ``evaluate``: the consulted handle, its encoded request,
#: the definitions riding along, the type watermark to advance to, and the
#: states its reply rows answer, in item order.
_PreparedSend = tuple[_WorkerHandle, bytes, list[tuple[str, int]], int, list[RuleState]]

#: One block's ``(state, decision)`` rows.
_BlockResult = list[tuple[RuleState, TriggeringDecision]]


class ProcessShardPool:
    """Long-lived worker processes evaluating shard batches against EB mirrors.

    The coordinator of an N-shard table runs N − 1 of them and checks home 0
    itself.  The pool is protocol + residency bookkeeping only: *which* rules
    are candidates for a block is decided by the coordinator's plan, every
    state mutation happens back in the coordinator, and the worker processes,
    their pipes and the delta encoding belong to its
    :class:`~repro.cluster.transport.ShardTransport`.  See the module
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
        #: Coordinator-side registry the workers' reply deltas merge into
        #: (None = discard them).  Workers receive only the enabled *flag* —
        #: registries do not cross the process boundary.
        self.metrics = metrics
        self._transport = ShardTransport(config)
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
        #: Blocks that contacted the pool: one per :meth:`evaluate` call.
        self.dispatches = 0
        self.worker_round_trips = 0
        self.bytes_shipped = 0
        self.bytes_received = 0
        #: Rule definitions shipped to workers, cumulatively.  With a stable
        #: table this equals "each live rule once per owning worker" however
        #: many blocks run (``test_definition_shipped_once_across_blocks``).
        self.defs_shipped = 0
        #: Coordinator-side serialization cost (delta + message pickling):
        #: the "encode cost" side of the crossover PERFORMANCE.md discusses.
        self.encode_seconds = 0.0
        #: The delta-only share of ``encode_seconds`` (row encoding plus the
        #: per-worker slices).
        self.delta_encode_seconds = 0.0
        #: Per-worker deltas shipped.
        self.deltas_framed = 0
        self._finalizer = weakref.finalize(self, self._transport.shutdown)

    # -- the per-block round trip ---------------------------------------------
    def evaluate(
        self,
        event_base: EventBase,
        assignments: dict[int, list[tuple[RuleState, Timestamp]]],
        now: Timestamp,
        inline: Callable[[], _BlockResult] | None = None,
    ) -> _BlockResult:
        """Evaluate one block's work items on the workers.

        ``assignments`` maps worker id -> ``(state, window start)`` pairs.  A
        rule must always be assigned to the same worker (the coordinator's
        fixed-home dealing) so its memo stays resident.  Every consulted
        worker receives exactly one message: the EB delta it has not seen
        plus its items.  ``inline`` — the coordinator's own share of the
        block — runs after every message is sent and before any reply is
        read, so it overlaps the workers' checks; it returns
        ``(state, decision)`` pairs, which are folded in.  Returns the
        evaluated pairs (in evaluator order — the coordinator sorts by
        definition order before applying).
        """
        self._require_usable()
        transport = self._transport
        total = len(event_base)
        prepared: list[_PreparedSend] = []
        started = time.perf_counter()
        # Encode the unseen tail of the log once — every lagging worker's
        # delta is then a slice of the same encoded log.
        encode_started = time.perf_counter()
        transport.begin_trip(event_base, total)
        self.delta_encode_seconds += time.perf_counter() - encode_started
        for worker_id in sorted(assignments):
            handle = self._workers[worker_id]
            defs: list[tuple[str, int, object]] = []
            new_defs: list[tuple[str, int]] = []
            items: list[tuple[str, Timestamp]] = []
            states: list[RuleState] = []
            for state, window_start in assignments[worker_id]:
                name = state.rule.name
                order = state.definition_order
                if handle.shipped_defs.get(name) != order:
                    defs.append((name, order, state.rule.events))
                    new_defs.append((name, order))
                items.append((name, window_start))
                states.append(state)
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
                tuple(items),
                now,
            )
            prepared.append(
                (handle, self._encode(message), new_defs, advance_types, states)
            )
        self.encode_seconds += time.perf_counter() - started
        # Nothing is sent until every message encoded cleanly: an encode
        # failure therefore leaves every worker exactly where it was.
        for handle, payload, new_defs, advance_types, _states in prepared:
            self._send(handle, payload)
            handle.shipped_events = total
            handle.pending_drops.clear()
            handle.shipped_types = advance_types
            for name, order in new_defs:
                handle.shipped_defs[name] = order
            self.defs_shipped += len(new_defs)
        self.dispatches += 1
        self.worker_round_trips += len(prepared)
        rows: _BlockResult = []
        first_error: BaseException | None = None
        if inline is not None:
            try:
                rows = inline()
            except BaseException as exc:
                first_error = exc
        # Drain every worker's reply even when one fails: an unread reply
        # left in a pipe would pair with the *next* request and desync the
        # pool permanently.  The first failure is re-raised afterwards.
        for handle, _, _, _, states in prepared:
            try:
                body, metrics_delta = self._receive(handle)
            except BaseException as exc:  # transport death poisons in _receive
                if first_error is None:
                    first_error = exc
                continue
            if first_error is not None:
                continue
            decisions = pickle.loads(body)
            if metrics_delta and self.metrics is not None:
                # Deltas are commutative (sums and maxima), so the reply
                # order cannot change the merged snapshot.
                self.metrics.merge_delta(metrics_delta)
            for state, row in zip(states, decisions):
                rows.append((state, TriggeringDecision(*row)))
        if first_error is not None:
            raise first_error
        return rows

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
        """Empty every mirror and memo (the coordinator's EB was emptied)."""
        if self._closed or not self._workers:
            return
        self._require_usable()
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
                # Behavioral parity with an inline check's error path: the
                # caller sees the same exception type it would have caught
                # there, with the worker traceback chained as the cause.
                raise original from cause
            raise cause
        # ``("ok", pickled decision rows, metrics delta)``; a reset
        # reply carries neither.
        return reply[1], reply[2]

    # -- lifecycle ------------------------------------------------------------
    def transport_stats(self) -> dict[str, int | float]:
        """Wire-level counters (merged into the workload reports)."""
        stats = {
            "workers": self.num_workers,
            "dispatches": self.dispatches,
            "worker_round_trips": self.worker_round_trips,
            "bytes_shipped": self.bytes_shipped,
            "bytes_received": self.bytes_received,
            "defs_shipped": self.defs_shipped,
            "encode_ms": round(1e3 * self.encode_seconds, 2),
            "delta_encode_ms": round(1e3 * self.delta_encode_seconds, 2),
            "deltas_framed": self.deltas_framed,
        }
        stats.update(self._transport.extra_stats())
        return stats

    def close(self) -> None:
        """Stop and reap the workers, then close their pipes (idempotent)."""
        if not self._closed:
            self._closed = True
            self._finalizer()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
