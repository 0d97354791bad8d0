"""Pipelined stream ingestion: producers never block on rule evaluation.

``RuleEngine.run_stream_block`` is synchronous: the caller that produced a
batch of occurrences waits for the whole trigger-check / consideration loop
before it can produce the next one.  :class:`StreamIngestor` decouples the
two with a bounded hand-off queue and a consumer thread:

* the producer side (:meth:`submit`) validates nothing and computes only the
  batch's **type signature** — cheap, and doing it producer-side overlaps
  signature computation with the consumer's rule evaluation, so the signature
  is never derived on the hot checking thread (it is handed through
  ``run_stream_block`` to :meth:`EventHandler.flush_block`);
* the consumer thread drains the queue into ``run_stream_block`` one block at
  a time, preserving submission order — the Event Base stays an append-
  ordered log and each batch remains one execution block;
* the queue bound is the back-pressure contract: a producer only ever waits
  for *queue space* (the consumer lagging ``max_pending`` whole blocks), not
  for any individual rule evaluation.

Since PR 5 the consumer additionally **coalesces**: when it wakes up with a
backlog it drains up to ``max_batch_blocks`` queued blocks and hands them to
``RuleEngine.run_stream_blocks`` as one micro-batch — each submitted block
stays its own execution block (own flush, own type signature, own trigger
check at its own ``now``), but the trigger checks for the whole batch run as
**one dispatch trip**, which is what amortizes the per-block worker round
trip of the process shard mode (see PERFORMANCE.md "Batched worker
dispatch").  ``max_batch_blocks=1`` (the default) is byte-identical to the
PR-3 behavior; the bound comes from the engine's
:class:`~repro.config.EngineConfig` record (``batch_blocks``).

Correctness leans on the lag tolerance the incremental trigger memo already
has: ``TriggerMemo.seen_events`` records how much of the log a check had
seen, so checks that run behind the producer's appends sample exactly the
instants they missed (see ``repro/core/triggering.py``).  A failed block
poisons the ingestor — the error is re-raised to the producer on the next
:meth:`submit`, :meth:`flush` or :meth:`close`, exactly once, and later
queued blocks are dropped (and counted) rather than applied on top of a
broken state; a failure inside a coalesced micro-batch counts the whole
batch as dropped.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.events.event import EventOccurrence
from repro.obs.registry import COUNT_BUCKETS, MetricsRegistry
from repro.obs.stats import MergeableStats

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a package cycle)
    from repro.rules.executor import RuleEngine

__all__ = ["DispatchController", "StreamIngestStats", "StreamIngestor"]

_SENTINEL = None


class DispatchController:
    """Closed-loop trip sizing (plus shard-rebalance advice) from live metrics.

    PR 5 made the trip size a static knob: ``max_batch_blocks`` trades
    per-block latency for dispatch amortization blindly.  The PR-8
    observability layer measures the two signals that decide that trade
    continuously — the ``ingest.queue_depth`` gauge and the ``trip.dispatch``
    latency histogram — so this controller closes the loop:

    * **deep backlog widens**: when the queue depth reaches ``widen_depth``
      (or the projected drain time ``depth x p99(trip.dispatch)`` exceeds
      ``latency_budget`` seconds), the bound doubles toward
      ``max_batch_blocks`` — dispatch overhead amortizes exactly when there
      is a backlog to amortize it over;
    * **idle shrinks**: a drained queue drops the bound back to 1, restoring
      per-block latency;
    * **hysteresis damps oscillation**: a step needs ``hysteresis``
      consecutive observations in the same direction — alternating signals
      reset the streak and hold the bound.

    Trip sizing only moves *when* triggered rules are considered (to the
    trip boundary — inherent to micro-batching, exactly like the static
    knob; see ``RuleEngine.run_stream_blocks``), so the controller can act
    freely: every realized trip partition is pinned byte-identical against
    an unsharded replay of the same partition (the ingestor records it as
    :attr:`StreamIngestor.trip_sizes` for exactly that differential
    harness).  The controller also reads the per-trip
    ``shard.candidates.N`` counters into live **rebalance advice**
    (:meth:`rebalance_advice`): moving rules between shards would also move
    their worker-resident memos and is deliberately *not* automated — the
    advice is exported as the ``controller.shard_imbalance`` gauge instead.

    With a disabled registry the controller is inert: :meth:`observe`
    returns the static ``max_batch_blocks``, i.e. exactly the PR-5 behavior.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        max_batch_blocks: int,
        widen_depth: int = 2,
        latency_budget: float = 0.050,
        hysteresis: int = 2,
    ) -> None:
        if max_batch_blocks < 1:
            raise ValueError(
                f"max_batch_blocks must be positive (got {max_batch_blocks})"
            )
        if hysteresis < 1:
            raise ValueError(f"hysteresis must be positive (got {hysteresis})")
        self.metrics = metrics
        self.max_batch_blocks = max_batch_blocks
        self.widen_depth = widen_depth
        self.latency_budget = latency_budget
        self.hysteresis = hysteresis
        #: Inert without instruments (or without any room to adapt in).
        self.enabled = metrics.enabled and max_batch_blocks > 1
        #: The live per-trip bound; starts in per-block mode and earns its
        #: way up under measured backlog.
        self.batch_blocks = 1 if self.enabled else max_batch_blocks
        self._depth_gauge = metrics.gauge("ingest.queue_depth")
        self._dispatch_hist = metrics.histogram("trip.dispatch")
        self._bound_gauge = metrics.gauge("controller.batch_blocks")
        self._widen_counter = metrics.counter("controller.widened")
        self._shrink_counter = metrics.counter("controller.shrunk")
        self._imbalance_gauge = metrics.gauge("controller.shard_imbalance")
        self._bound_gauge.set(self.batch_blocks)
        self._streak_direction = 0
        self._streak = 0

    def observe(self) -> int:
        """One control step; returns the trip bound to use for this drain."""
        if not self.enabled:
            return self.max_batch_blocks
        depth = self._depth_gauge.value
        if depth >= self.widen_depth or (
            depth > 0
            and depth * self._dispatch_hist.quantile(0.99) >= self.latency_budget
        ):
            direction = 1
        elif depth == 0:
            direction = -1
        else:
            direction = 0
        if direction == 0 or direction != self._streak_direction:
            self._streak_direction = direction
            self._streak = 1 if direction else 0
            return self.batch_blocks
        self._streak += 1
        if self._streak < self.hysteresis:
            return self.batch_blocks
        self._streak = 0
        if direction > 0 and self.batch_blocks < self.max_batch_blocks:
            self.batch_blocks = min(self.batch_blocks * 2, self.max_batch_blocks)
            self._widen_counter.inc()
            self._bound_gauge.set(self.batch_blocks)
        elif direction < 0 and self.batch_blocks > 1:
            self.batch_blocks = 1
            self._shrink_counter.inc()
            self._bound_gauge.set(self.batch_blocks)
        return self.batch_blocks

    def rebalance_advice(self) -> dict[str, float] | None:
        """Live shard-skew advice from the ``shard.candidates.N`` counters.

        Returns ``{"max": ..., "mean": ..., "imbalance": max/mean}`` (or
        ``None`` below two shards / before any candidates) and publishes the
        ratio as the ``controller.shard_imbalance`` gauge — 1.0 is a
        perfectly balanced deal, 2.0 means the hottest shard checks twice
        the average.  Advisory only; see the class docstring.
        """
        if not self.enabled:
            return None
        candidates = self.metrics.counter_values("shard.candidates.")
        if len(candidates) < 2:
            return None
        values = list(candidates.values())
        mean = sum(values) / len(values)
        if mean <= 0:
            return None
        peak = max(values)
        imbalance = peak / mean
        self._imbalance_gauge.set(imbalance)
        return {"max": float(peak), "mean": mean, "imbalance": imbalance}


@dataclass
class StreamIngestStats(MergeableStats):
    """Producer/consumer accounting for one ingestor lifetime.

    ``as_dict()``/``merge()`` follow the shared stats protocol; the two
    ``max_*`` fields are high-water marks and merge via ``max``.
    """

    submitted_blocks: int = 0
    submitted_events: int = 0
    processed_blocks: int = 0
    processed_events: int = 0
    dropped_blocks: int = 0
    #: Deepest backlog observed at submit time (bounded by ``max_pending``).
    max_queue_depth: int = 0
    #: Consumer wake-ups that reached the engine (one per micro-batch); with
    #: coalescing, ``processed_blocks / coalesced_trips`` is the realized
    #: blocks-per-trip amortization.
    coalesced_trips: int = 0
    #: Largest micro-batch one wake-up drained (bounded by
    #: ``max_batch_blocks``).
    max_blocks_per_trip: int = 0


class StreamIngestor:
    """Bounded-queue pipeline feeding ``RuleEngine.run_stream_block``.

    Use as a context manager (or call :meth:`start` / :meth:`close`)::

        with StreamIngestor(engine, max_pending=32) as ingestor:
            for block in source:
                ingestor.submit(block)   # blocks only on queue space
        # exit waits for the queue to drain and re-raises consumer errors

    The engine must not be driven concurrently from elsewhere while the
    ingestor is open: the consumer thread is the single writer of the
    engine's block pipeline (the same single-writer discipline the paper's
    Block Executor has).
    """

    def __init__(
        self,
        engine: "RuleEngine",
        max_pending: int = 64,
        max_batch_blocks: int | None = None,
        adaptive_batch: bool | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive (got {max_pending})")
        # Both trip-sizing settings default to the engine's own record.
        if max_batch_blocks is None:
            max_batch_blocks = engine.config.batch_blocks
        if max_batch_blocks < 1:
            raise ValueError(
                f"max_batch_blocks must be positive (got {max_batch_blocks})"
            )
        if adaptive_batch is None:
            adaptive_batch = engine.config.adaptive_batch
        self.engine = engine
        #: Upper bound on how many queued blocks one consumer wake-up drains
        #: into a single ``run_stream_blocks`` micro-batch.  1 = the PR-3
        #: block-at-a-time behavior, byte for byte.
        self.max_batch_blocks = max_batch_blocks
        self.stats = StreamIngestStats()
        # Ride on the engine's registry when it has one (one snapshot for the
        # whole pipeline); otherwise a disabled stand-in so the probes below
        # are unconditional no-ops.
        self.metrics: MetricsRegistry = (
            getattr(engine, "metrics", None) or MetricsRegistry(enabled=False)
        )
        self.metrics.register_source("ingest", self.stats)
        self._queue_gauge = self.metrics.gauge("ingest.queue_depth")
        self._coalesce_hist = self.metrics.histogram(
            "ingest.coalesce_blocks", bounds=COUNT_BUCKETS
        )
        #: The closed control loop sizing each drain (PR 9).  With a disabled
        #: registry (or ``max_batch_blocks=1``) the controller is inert and
        #: the ingestor behaves exactly like the static PR-5 pipeline.
        self.controller: DispatchController | None = (
            DispatchController(self.metrics, max_batch_blocks)
            if adaptive_batch
            else None
        )
        self.adaptive_batch = self.controller is not None and self.controller.enabled
        #: Realized micro-batch sizes, in trip order.  Trip sizing moves
        #: considerations to trip boundaries, so equivalence harnesses replay
        #: exactly this partition on an unsharded reference engine.
        self.trip_sizes: list[int] = []
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        #: Latched on the first consumer error: the engine state may be
        #: broken mid-block, so the ingestor refuses further work for good
        #: (the error itself is delivered to the producer exactly once).
        self._failed = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "StreamIngestor":
        """Spawn the consumer thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._consume, name="stream-ingest", daemon=True
            )
            self._thread.start()
        return self

    def __enter__(self) -> "StreamIngestor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Propagate the producer's own exception over drain errors.
        self.close(wait=exc_type is None)

    def close(self, wait: bool = True) -> None:
        """Stop the consumer; with ``wait`` drain the queue first.

        Re-raises the first consumer error (also when ``wait=False``).
        """
        if not self._closed:
            self._closed = True
            if self._thread is not None:
                if not wait:
                    # Drop whatever has not started processing yet.
                    while True:
                        try:
                            self._queue.get_nowait()
                        except queue.Empty:
                            break
                        self.stats.dropped_blocks += 1
                        self._queue.task_done()
                self._queue.put(_SENTINEL)
                self._thread.join()
                self._thread = None
        self._raise_pending_error()

    # -- producer side -----------------------------------------------------------
    def submit(self, occurrences: Sequence[EventOccurrence]) -> None:
        """Queue one batch as a future execution block.

        Blocks only when the consumer is ``max_pending`` blocks behind.  The
        batch's type signature is computed here, on the producer's thread.
        """
        self._raise_pending_error()
        if self._closed or self._failed:
            raise RuntimeError(
                "StreamIngestor has failed"
                if self._failed
                else "StreamIngestor is closed"
            )
        if self._thread is None:
            self.start()
        batch = tuple(occurrences)
        signature = frozenset(occurrence.event_type for occurrence in batch)
        depth = self._queue.qsize()
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
        self._queue_gauge.set(depth)
        self._queue.put((batch, signature))
        self.stats.submitted_blocks += 1
        self.stats.submitted_events += len(batch)

    def flush(self) -> None:
        """Wait until every submitted block has been processed (or failed)."""
        self._queue.join()
        self._raise_pending_error()

    # -- consumer side -----------------------------------------------------------
    def _consume(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            # Coalesce: drain whatever backlog is already queued (up to the
            # micro-batch bound) without blocking — an idle stream keeps
            # block-at-a-time latency, a lagging consumer catches up in
            # batched dispatch trips.  With the controller on, the bound for
            # this drain comes from the control loop instead of the static
            # knob.
            bound = self.max_batch_blocks
            if self.controller is not None:
                self._queue_gauge.set(self._queue.qsize())
                bound = self.controller.observe()
                self.controller.rebalance_advice()
            items = [item]
            saw_sentinel = False
            while len(items) < bound:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SENTINEL:
                    saw_sentinel = True
                    break
                items.append(extra)
            try:
                self._process_trip(items)
            finally:
                for _ in items:
                    self._queue.task_done()
                if saw_sentinel:
                    self._queue.task_done()
            if saw_sentinel:
                return

    def _process_trip(self, items: list[tuple[tuple, frozenset]]) -> None:
        """Run one drained micro-batch; block boundaries are preserved."""
        if self._failed:
            self.stats.dropped_blocks += len(items)
            return
        blocks = [batch for batch, _ in items]
        signatures = [signature for _, signature in items]
        try:
            if len(items) == 1:
                # The PR-3 path, byte for byte (max_batch_blocks=1 always
                # lands here; larger bounds land here whenever the queue was
                # drained, i.e. the consumer is keeping up).
                self.engine.run_stream_block(blocks[0], type_signature=signatures[0])
            else:
                self.engine.run_stream_blocks(blocks, type_signatures=signatures)
        except BaseException as error:  # noqa: BLE001 - handed to producer
            self._error = error
            self._failed = True
            self.stats.dropped_blocks += len(items)
        else:
            self.stats.processed_blocks += len(items)
            self.stats.processed_events += sum(len(batch) for batch in blocks)
            self.trip_sizes.append(len(items))
            self.stats.coalesced_trips += 1
            self.stats.max_blocks_per_trip = max(
                self.stats.max_blocks_per_trip, len(items)
            )
            self._coalesce_hist.observe(len(items))

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise RuntimeError("stream ingestion failed in the consumer") from error
