"""Compilation of composite event expressions into shared shape kernels.

The reference evaluator (:mod:`repro.core.evaluation`) re-discovers the shape
of a rule's event expression on every sample: an isinstance-dispatch chain per
node, a mode test per operator, an ``_indexes_matching`` resolution per
primitive and a per-node ``stats`` increment — all per instant, per check.
This module is the production evaluator: it does that discovery once per
expression **shape** and leaves a rule with nothing but a small binding.

*Compile* (once per shape per evaluator).  A shape is the operator tree with
every primitive replaced by a slot number (one slot per distinct event type,
in first-appearance order).  :class:`CheckBinder` interns one :class:`_Kernel`
per shape — a tree of small Python closures with everything the shape decides
folded in:

* **operator dispatch** — each node is a direct nested call;
* **evaluation mode** — the :class:`EvaluationMode` combine formulas are baked
  in (both the logical case analysis and the exact algebraic ``unit_step``
  arithmetic — the two styles are *not* universally value-equal, so each is
  compiled literally);
* **lift boundaries** — whether an instance-oriented subtree must be lifted
  over affected objects, whether the lift is existential (max) or universal
  (min, instance negation) and which slots it enumerates;
* **stats plumbing** — *rigid* subtrees (no precedence, no lift: their node
  visit and primitive lookup counts per evaluation are constants of the
  shape) do no counting at all; the constants are folded into their nearest
  non-rigid ancestor (or into the per-check flush for a rigid root), so the
  reference counters are reproduced exactly, in bulk.

Kernels hold no mutable state and no event type: every closure takes the
calling rule's *handles* as its first argument, so thousands of rules over
different types — and threads evaluating them concurrently — share one.

*Bind* (once per rule).  :class:`CompiledCheck` is the per-rule binding: the
shared kernel, the rule's slot types and a tuple of per-type index handles
(``StampIndex._indexes_matching`` resolutions, one per slot).  The handles are
valid for one binder *epoch*: the binder moves the epoch whenever the Event
Base it last saw changes identity or registers a new event type (exactly the
condition under which the store drops its own match cache), and
:meth:`CheckBinder.invalidate` moves it unconditionally — O(1) however many
rules are bound; each binding re-resolves lazily on its next check.  The
counting cells of a non-rigid kernel live on the stack of the check that
uses them.

On top of the per-instant closures, :meth:`CompiledCheck.check_trip`
evaluates all of a trip's blocks for one rule in a single pass over the
store's sorted timestamp arrays, reusing :class:`TriggerMemo`'s coverage
bookkeeping — candidate instants are sliced out of ``_distinct_timestamps``
by bisection instead of re-entering ``is_triggered`` per block.

Equivalence contract: for every expression, mode and history, the compiled
``ts``/``ots``/``check``/``check_trip`` return the same values, the same
:class:`TriggeringDecision` fields and the same ``EvaluationStats`` totals
as the reference (pinned by tests/core/test_compiled_equivalence.py and the
cross-mode differential harnesses).  The only intended difference is *when*
stats are accumulated: per check, in bulk, rather than per node.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Callable, Sequence

from repro.core.evaluation import EvaluationMode, EvaluationStats
from repro.core.expressions import (
    EventExpression,
    InstanceConjunction,
    InstanceDisjunction,
    InstanceNegation,
    InstancePrecedence,
    Primitive,
    SetConjunction,
    SetDisjunction,
    SetNegation,
    SetPrecedence,
)
from repro.core.triggering import TriggeringDecision, TriggerMemo
from repro.core.ts import unit_step
from repro.errors import EvaluationError
from repro.events.clock import Timestamp
from repro.events.event import EventType
from repro.events.event_base import StampIndex

__all__ = ["CheckBinder", "CompiledCheck", "compile_check"]

#: Neutral lower bound: a window with no start excludes nothing.  Timestamps
#: are ints, so ``-inf`` compares below every candidate and bisects to 0.
_NEG_INF = float("-inf")

#: What a rigid kernel's check flushes as its dynamic share: nothing.
_NO_CELLS = (0, 0, 0)

#: A kernel closure: ``fn(handles, after, instant, oid) -> signed ts value``.
#: ``handles[slot]`` is the resolved index tuple of the slot's event type;
#: non-rigid kernels find their ``[visits, lookups, lifted]`` counting cells
#: appended as ``handles[-1]``.  Set-oriented closures ignore ``oid``.
_Fn = Callable[[tuple, Any, Timestamp, Any], int]
#: Static per-evaluation cost of a rigid subtree: (node visits, lookups).
_Cost = "tuple[int, int] | None"

_NEGATIONS = (SetNegation, InstanceNegation)
_CONJUNCTIONS = (SetConjunction, InstanceConjunction)
_DISJUNCTIONS = (SetDisjunction, InstanceDisjunction)
_PRECEDENCES = (SetPrecedence, InstancePrecedence)


def _shape_key(node: EventExpression, slots: "dict[EventType, int]"):
    """The structural key of ``node``; fills ``slots`` in first-appearance order."""
    if isinstance(node, Primitive):
        slot = slots.get(node.event_type)
        if slot is None:
            slot = slots[node.event_type] = len(slots)
        return slot
    return (type(node), *[_shape_key(child, slots) for child in node.children()])


class _Lowering:
    """One lowering pass over the exemplar expression of a shape.

    Produces closures plus, for *rigid* subtrees, their static
    ``(node_visits, primitive_lookups)`` per-evaluation cost.  A subtree is
    rigid when it contains no precedence operator (which conditionally skips
    its left operand) and no lifted instance subtree (whose cost scales with
    the affected-object set) — then its reference counter increments are a
    constant of the shape and the closure does no counting at all.  Non-rigid
    closures absorb their rigid children's constants and self-count into the
    check's counting cells (``handles[-1]``), flushed in bulk once per check.
    """

    __slots__ = ("algebraic", "slots")

    def __init__(self, mode: EvaluationMode, slots: "dict[EventType, int]") -> None:
        self.algebraic = mode is EvaluationMode.ALGEBRAIC
        self.slots = slots

    def lower(self, node: EventExpression, instance: bool) -> "tuple[_Fn, _Cost]":
        """Mirror of ``evaluation._ts`` (``instance=False``) / ``_ots``."""
        if isinstance(node, Primitive):
            return self._primitive(self.slots[node.event_type], instance), (1, 1)
        if node.is_instance_oriented and not instance:
            return self._lift(node)
        if instance and not node.is_instance_oriented:
            raise EvaluationError(
                f"set-oriented operator {type(node).__name__} cannot appear in an "
                "instance-oriented evaluation"
            )
        if isinstance(node, _NEGATIONS):
            operand, cost = self.lower(node.operand, instance)

            def fn(h, after, instant, oid, _operand=operand):
                return -_operand(h, after, instant, oid)

            if cost is not None:
                return fn, (cost[0] + 1, cost[1])
            return _counted(fn, 1, 0), None
        if isinstance(node, _PRECEDENCES):
            return self._precedence(
                *self.lower(node.left, instance), *self.lower(node.right, instance)
            )
        if isinstance(node, _CONJUNCTIONS + _DISJUNCTIONS):
            return self._combine(
                *self.lower(node.left, instance),
                *self.lower(node.right, instance),
                conjunction=isinstance(node, _CONJUNCTIONS),
            )
        raise EvaluationError(f"cannot compile node of type {type(node).__name__}")

    @staticmethod
    def _primitive(slot: int, instance: bool) -> _Fn:
        if instance:

            def fn(h, after, instant, oid, _s=slot, _bisect=bisect_right):
                best = None
                for index in h[_s]:
                    times = index.per_oid.get(oid)
                    if times:
                        position = _bisect(times, instant)
                        if position:
                            candidate = times[position - 1]
                            if candidate > after and (best is None or candidate > best):
                                best = candidate
                return best if best is not None else -instant

        else:

            def fn(h, after, instant, oid, _s=slot, _bisect=bisect_right):
                best = None
                for index in h[_s]:
                    stamps = index.timestamps
                    position = _bisect(stamps, instant)
                    if position:
                        candidate = stamps[position - 1]
                        if candidate > after and (best is None or candidate > best):
                            best = candidate
                return best if best is not None else -instant

        return fn

    # -- conjunction / disjunction ------------------------------------------
    def _combine(
        self, left: _Fn, left_cost, right: _Fn, right_cost, conjunction: bool
    ) -> "tuple[_Fn, _Cost]":
        if conjunction:
            if self.algebraic:

                def core(h, after, instant, oid, _l=left, _r=right, _u=unit_step):
                    lv = _l(h, after, instant, oid)
                    rv = _r(h, after, instant, oid)
                    both = _u(lv) * _u(rv)
                    return min(lv, rv) * (1 - both) + max(lv, rv) * both

            else:

                def core(h, after, instant, oid, _l=left, _r=right):
                    lv = _l(h, after, instant, oid)
                    rv = _r(h, after, instant, oid)
                    if lv > 0 and rv > 0:
                        return lv if lv > rv else rv
                    return lv if lv < rv else rv

        else:
            if self.algebraic:

                def core(h, after, instant, oid, _l=left, _r=right, _u=unit_step):
                    lv = _l(h, after, instant, oid)
                    rv = _r(h, after, instant, oid)
                    neither = _u(-lv) * _u(-rv)
                    return max(lv, rv) * (1 - neither) + min(lv, rv) * neither

            else:

                def core(h, after, instant, oid, _l=left, _r=right):
                    lv = _l(h, after, instant, oid)
                    rv = _r(h, after, instant, oid)
                    if lv > 0 or rv > 0:
                        return lv if lv > rv else rv
                    return lv if lv < rv else rv

        left_visits, left_lookups = left_cost or (0, 0)
        right_visits, right_lookups = right_cost or (0, 0)
        visits = 1 + left_visits + right_visits
        lookups = left_lookups + right_lookups
        if left_cost is not None and right_cost is not None:
            return core, (visits, lookups)
        return _counted(core, visits, lookups), None

    # -- precedence (never rigid: the left operand is conditionally skipped) --
    def _precedence(
        self, left: _Fn, left_cost, right: _Fn, right_cost
    ) -> "tuple[_Fn, _Cost]":
        left_visits, left_lookups = left_cost or (0, 0)
        right_visits, right_lookups = right_cost or (0, 0)
        right_visits += 1
        if self.algebraic:

            def fn(
                h,
                after,
                instant,
                oid,
                _l=left,
                _r=right,
                _u=unit_step,
                _rv=right_visits,
                _rk=right_lookups,
                _lv=left_visits,
                _lk=left_lookups,
            ):
                cells = h[-1]
                cells[0] += _rv
                cells[1] += _rk
                right_value = _r(h, after, instant, oid)
                if right_value > 0:
                    cells[0] += _lv
                    cells[1] += _lk
                    left_at_right = _l(h, after, right_value, oid)
                else:
                    left_at_right = -instant
                satisfied = _u(right_value) * _u(left_at_right)
                return -instant * (1 - satisfied) + right_value * satisfied

        else:

            def fn(
                h,
                after,
                instant,
                oid,
                _l=left,
                _r=right,
                _rv=right_visits,
                _rk=right_lookups,
                _lv=left_visits,
                _lk=left_lookups,
            ):
                cells = h[-1]
                cells[0] += _rv
                cells[1] += _rk
                right_value = _r(h, after, instant, oid)
                if right_value > 0:
                    cells[0] += _lv
                    cells[1] += _lk
                    if _l(h, after, right_value, oid) > 0:
                        return right_value
                return -instant

        return fn, None

    # -- lifting an instance subtree into a set context ----------------------
    def _lift(self, node: EventExpression) -> "tuple[_Fn, _Cost]":
        inst, inst_cost = self.lower(node, instance=True)
        lift_slots = tuple(sorted({self.slots[t] for t in node.event_types()}))
        universal = isinstance(node, InstanceNegation)
        inst_visits, inst_lookups = inst_cost or (0, 0)

        def fn(
            h,
            after,
            instant,
            oid,
            _inst=inst,
            _lift_slots=lift_slots,
            _bisect=bisect_right,
            _universal=universal,
            _iv=inst_visits,
            _ik=inst_lookups,
        ):
            cells = h[-1]
            cells[0] += 1
            affected = set()
            for slot in _lift_slots:
                for index in h[slot]:
                    for obj, times in index.per_oid.items():
                        if obj not in affected and _bisect(times, instant) > _bisect(
                            times, after
                        ):
                            affected.add(obj)
            count = len(affected)
            cells[2] += count
            if not count:
                return instant if _universal else -instant
            cells[0] += count * _iv
            cells[1] += count * _ik
            if _universal:
                return min(_inst(h, after, instant, obj) for obj in affected)
            return max(_inst(h, after, instant, obj) for obj in affected)

        return fn, None


def _counted(core: _Fn, visits: int, lookups: int) -> _Fn:
    """Wrap a non-rigid closure to self-count a static prologue into the cells."""

    def fn(h, after, instant, oid, _core=core, _v=visits, _k=lookups):
        cells = h[-1]
        cells[0] += _v
        cells[1] += _k
        return _core(h, after, instant, oid)

    return fn


class _Kernel:
    """One lowered shape: the root closure and its per-evaluation static cost.

    ``visits``/``lookups`` are the whole tree's constants when the root is
    rigid (``counts`` False, nothing counted at evaluation time) and zero
    otherwise (``counts`` True: the closures count into ``handles[-1]``).
    """

    __slots__ = ("fn", "visits", "lookups", "counts")

    def __init__(self, fn: _Fn, cost) -> None:
        self.fn = fn
        self.visits, self.lookups = cost or (0, 0)
        self.counts = cost is None


class CheckBinder:
    """One evaluator's compile state: kernels by shape, and the handle epoch.

    Every exact-check evaluator — a Trigger Support (the shard coordinator
    included) and each process shard worker — owns one binder and binds its
    rules through it.  Not picklable; a worker
    builds its own.
    """

    def __init__(self, mode: EvaluationMode = EvaluationMode.LOGICAL) -> None:
        self.mode = mode
        #: ``(shape key, instance-rooted?)`` -> the interned kernel.
        self._kernels: "dict[tuple, _Kernel]" = {}
        #: Bindings whose ``_epoch`` differs re-resolve before evaluating.
        self.epoch = 0
        #: The ``(event base, registered type count)`` the epoch describes.
        self._bound: "tuple[StampIndex | None, int]" = (None, -1)
        self._lock = threading.Lock()

    @property
    def kernels_compiled(self) -> int:
        """How many distinct shapes this evaluator has lowered."""
        return len(self._kernels)

    def bind(self, expression: EventExpression) -> "CompiledCheck":
        """The binding of ``expression``: shared kernel + its own slot types."""
        return CompiledCheck(expression, self, *self._kernel(expression, False))

    def _kernel(
        self, expression: EventExpression, instance: bool
    ) -> "tuple[_Kernel, tuple[EventType, ...]]":
        """The interned kernel of ``expression``'s shape, and its slot types."""
        slots: "dict[EventType, int]" = {}
        key = (_shape_key(expression, slots), instance)
        kernel = self._kernels.get(key)
        if kernel is None:
            lowered = _Kernel(*_Lowering(self.mode, slots).lower(expression, instance))
            # Should two threads lower a shape concurrently, the first insert
            # wins so every binding shares the interned kernel.
            kernel = self._kernels.setdefault(key, lowered)
        return kernel, tuple(slots)

    def invalidate(self) -> None:
        """Make every binding re-resolve its handles before its next check.

        O(1): one epoch bump, and the reference to the last-seen Event Base
        (possibly a whole abandoned transaction log) is dropped.
        """
        with self._lock:
            self.epoch += 1
            self._bound = (None, -1)

    def _rebind(self, event_base: StampIndex) -> None:
        """Move the epoch to ``event_base``'s current set of registered types."""
        with self._lock:
            count = len(event_base._by_type)
            if self._bound[0] is not event_base or self._bound[1] != count:
                # Epoch first: a thread that sees the new ``_bound`` on its
                # fast path must also see the epoch that goes with it.
                self.epoch += 1
                self._bound = (event_base, count)


class CompiledCheck:
    """A rule's binding to its shape kernel: the batched exact check.

    Holds no closure of its own — ``ts``/``ots``/``check``/``check_trip`` run
    the binder's shared kernel over this rule's handles.  One binding is
    evaluated by one caller at a time (fixed-home dealing guarantees one
    evaluator per rule per trip).
    """

    __slots__ = ("expression", "binder", "_kernel", "_types", "_handles", "_epoch")

    def __init__(
        self,
        expression: EventExpression,
        binder: CheckBinder,
        kernel: _Kernel,
        types: "tuple[EventType, ...]",
    ) -> None:
        self.expression = expression
        self.binder = binder
        self._kernel = kernel
        self._types = types
        self._handles: tuple = ()
        self._epoch = -1

    # -- index-handle binding -------------------------------------------------
    def _resolve(self, event_base: StampIndex) -> tuple:
        """This rule's handles for ``event_base`` (re-resolved per epoch).

        Two comparisons on the hot path: the binder's epoch only moves when
        the store registers a new event type (``len(_by_type)`` grows — the
        exact condition under which the store drops its own match cache),
        when the Event Base itself is swapped, or on :meth:`CheckBinder.
        invalidate`.  The resolved tuples come from the store's match cache,
        so rules watching one type share one handle.
        """
        binder = self.binder
        bound = binder._bound
        if bound[0] is not event_base or bound[1] != len(event_base._by_type):
            binder._rebind(event_base)
        if self._epoch != binder.epoch:
            epoch = binder.epoch
            resolve = event_base._indexes_matching
            self._handles = tuple([resolve(event_type) for event_type in self._types])
            self._epoch = epoch
        return self._handles

    @property
    def is_bound(self) -> bool:
        """True while the handles are valid for the binder's current epoch."""
        return self._epoch == self.binder.epoch

    # -- point evaluation (compiled ts / ots) ---------------------------------
    def _point(
        self,
        kernel: _Kernel,
        event_base: StampIndex,
        window_start: Timestamp | None,
        instant: Timestamp,
        oid: Any,
        stats: EvaluationStats | None,
    ) -> int:
        handles = self._resolve(event_base)
        cells = _NO_CELLS
        if kernel.counts:
            cells = [0, 0, 0]
            handles += (cells,)
        after = _NEG_INF if window_start is None else window_start
        value = kernel.fn(handles, after, instant, oid)
        if stats is not None:
            _flush(stats, kernel, 1, cells)
        return value

    def ts(
        self,
        event_base: StampIndex,
        window_start: Timestamp | None,
        instant: Timestamp,
        stats: EvaluationStats | None = None,
    ) -> int:
        """Compiled ``ts`` over the window ``(window_start, instant]``."""
        if instant <= 0:
            raise EvaluationError(
                f"ts must be evaluated at a positive instant (got {instant})"
            )
        return self._point(self._kernel, event_base, window_start, instant, None, stats)

    def ots(
        self,
        event_base: StampIndex,
        window_start: Timestamp | None,
        instant: Timestamp,
        oid: Any,
        stats: EvaluationStats | None = None,
    ) -> int:
        """Compiled ``ots`` for ``oid`` over the window ``(window_start, instant]``."""
        if instant <= 0:
            raise EvaluationError(
                f"ots must be evaluated at a positive instant (got {instant})"
            )
        if not self.expression.may_be_instance_operand():
            raise EvaluationError(
                "ots is only defined for instance-oriented expressions "
                f"(got a set-oriented operator in {self.expression})"
            )
        # Diagnostic entry point: the instance-rooted kernel is looked up per
        # call rather than costing every binding a slot.
        kernel, _ = self.binder._kernel(self.expression, True)
        return self._point(kernel, event_base, window_start, instant, oid, stats)

    # -- the batched exact check ----------------------------------------------
    def check(
        self,
        event_base: StampIndex,
        window_start: Timestamp | None,
        now: Timestamp,
        memo: TriggerMemo | None = None,
        stats: EvaluationStats | None = None,
    ) -> TriggeringDecision:
        """Exact triggering check of one block (single-entry :meth:`check_trip`)."""
        entries = ((window_start, now, False),)
        return self.check_trip(event_base, entries, memo, stats)[0]

    def check_trip(
        self,
        event_base: StampIndex,
        entries: Sequence["tuple[Timestamp | None, Timestamp, bool]"],
        memo: TriggerMemo | None = None,
        stats: EvaluationStats | None = None,
    ) -> "list[TriggeringDecision | None]":
        """Evaluate one rule against every block of a trip in a single pass.

        ``entries`` is the rule's ordered trip: one ``(window_start, now,
        pending_only)`` triple per block the trip's plans routed it to, over
        the already fully ingested Event Base.  The in-trip skip semantics of
        ``TriggerSupport.check_after_blocks`` are reproduced exactly —
        a block after an in-trip triggering, or a pending-only rider after an
        in-trip non-empty window, yields ``None`` (no decision row) — and the
        memo ends in the same state the reference per-block sequence leaves
        it in: cleared on triggering, untouched by empty windows, otherwise
        recording the last negative block's frontier once, at the end.

        Candidate instants come straight from the store's deduplicated
        timestamp array: within a trip each block only samples the distinct
        stamps past the previous block's frontier (plus its own ``now``), so
        the whole trip costs one bounded sweep over the new instants instead
        of one evaluator re-entry per block.
        """
        kernel = self._kernel
        handles = self._resolve(event_base)
        cells = _NO_CELLS
        if kernel.counts:
            cells = [0, 0, 0]
            handles += (cells,)
        all_stamps = event_base._all_timestamps
        distinct = event_base._distinct_timestamps
        total = len(all_stamps)
        fn = kernel.fn
        bisect = bisect_right
        decisions: "list[TriggeringDecision | None]" = []
        triggered = False
        saw_nonempty = False
        sampled_total = 0
        frontier: Timestamp | None = None
        frontier_set = False
        recorded_ws: Timestamp | None = None
        for window_start, now, pending_only in entries:
            if triggered or (pending_only and saw_nonempty):
                decisions.append(None)
                continue
            after = _NEG_INF if window_start is None else window_start
            size = bisect(all_stamps, now) - bisect(all_stamps, after)
            if size == 0:
                decisions.append(TriggeringDecision(False, None, None, 0))
                continue
            saw_nonempty = True
            if frontier_set:
                lower: Timestamp | None = frontier
            else:
                lower = None
                if memo is not None and memo.covers(window_start):
                    lower = memo.last_sampled
                    if memo.seen_events < total:
                        first_new = all_stamps[memo.seen_events]
                        if first_new <= lower:
                            lower = first_new - 1
            lo_bound = after if lower is None or lower < after else lower
            start = bisect(distinct, lo_bound)
            stop = bisect(distinct, now)
            sampled = 0
            hit_instant: Timestamp | None = None
            hit_value = 0
            for instant in distinct[start:stop]:
                sampled += 1
                value = fn(handles, after, instant, None)
                if value > 0:
                    hit_instant = instant
                    hit_value = value
                    break
            if hit_instant is None and (start == stop or distinct[stop - 1] != now):
                sampled += 1
                value = fn(handles, after, now, None)
                if value > 0:
                    hit_instant = now
                    hit_value = value
            sampled_total += sampled
            if hit_instant is not None:
                if memo is not None:
                    memo.clear()
                triggered = True
                decisions.append(
                    TriggeringDecision(True, hit_instant, hit_value, size, sampled)
                )
            else:
                frontier = now
                frontier_set = True
                recorded_ws = window_start
                decisions.append(TriggeringDecision(False, None, None, size, sampled))
        if not triggered and frontier_set and memo is not None:
            memo.record(recorded_ws, frontier, total)
        if stats is not None:
            _flush(stats, kernel, sampled_total, cells)
        return decisions


def _flush(
    stats: EvaluationStats, kernel: _Kernel, sampled: int, cells: Sequence[int]
) -> None:
    """Accumulate one check's counters in bulk."""
    stats.evaluations += sampled
    stats.node_visits += cells[0] + kernel.visits * sampled
    stats.primitive_lookups += cells[1] + kernel.lookups * sampled
    stats.lifted_objects += cells[2]


def compile_check(
    expression: EventExpression, mode: EvaluationMode = EvaluationMode.LOGICAL
) -> CompiledCheck:
    """A stand-alone binding of ``expression`` (own one-off binder) for ``mode``."""
    return CheckBinder(mode).bind(expression)
