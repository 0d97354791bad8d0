"""Compilation of composite event expressions into specialized closures.

The interpreted evaluator (:mod:`repro.core.evaluation`) re-discovers the
shape of a rule's event expression on every sample: an isinstance-dispatch
chain per node, a mode test per operator, an ``_indexes_matching`` resolution
per primitive and a per-node ``stats`` increment — all per instant, per
check.  After PRs 1–5 flattened planning and dispatch, that interpretation
loop *is* the measured hot path (PERFORMANCE.md: ~60–80 µs per routed
candidate on the check-heavy grids).

This module lowers an expression once, at rule-definition time, into a tree
of small Python closures and constant-folds everything the tree shape
decides statically:

* **operator dispatch** — each node becomes a direct nested call; no
  isinstance chain survives to evaluation time;
* **evaluation mode** — the :class:`EvaluationMode` combine formulas are
  baked into the closures (both the logical case analysis and the exact
  algebraic ``unit_step`` arithmetic — the two styles are *not* universally
  value-equal, so each is compiled literally);
* **the V(E) verdict** — the rule's variation set is derived once at compile
  time and carried on the compiled object (:attr:`CompiledCheck.variations`),
  so filter construction and introspection never re-walk the tree;
* **lift boundaries** — whether an instance-oriented subtree must be lifted
  over affected objects, whether the lift is existential (max) or universal
  (min, instance negation), and the subtree's ``event_types()`` are all
  resolved at compile time;
* **index handles** — each primitive's per-type index resolution
  (``EventBase._indexes_matching``) is hoisted into a shared one-slot cell,
  re-resolved only when the bound Event Base changes identity or registers a
  new event type (exactly the condition under which the store drops its own
  match cache);
* **stats plumbing** — *rigid* subtrees (no precedence, no lift: their node
  visit and primitive lookup counts per evaluation are compile-time
  constants) do no counting at all; the constants are folded into their
  nearest non-rigid ancestor (or into the per-check flush for a rigid root),
  so the interpreted counters are reproduced exactly, in bulk, without a
  single per-node increment on the fast path.

On top of the per-instant closures, :meth:`CompiledCheck.check_trip`
evaluates all of a trip's blocks for one rule in a single pass over the
store's sorted timestamp arrays, reusing :class:`TriggerMemo`'s coverage
bookkeeping — candidate instants are sliced out of ``_distinct_timestamps``
by bisection instead of re-entering ``is_triggered`` per block.

Equivalence contract: for every expression, mode and history, the compiled
``ts``/``ots``/``check``/``check_trip`` return the same values, the same
:class:`TriggeringDecision` fields and the same ``EvaluationStats`` totals
as the interpreted path (pinned by tests/core/test_compiled_equivalence.py
and the cross-mode differential harnesses).  The only intended difference is
*when* stats are accumulated: per check, in bulk, rather than per node.
"""

from __future__ import annotations

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
from repro.core.optimization import variation_set
from repro.core.triggering import TriggeringDecision, TriggerMemo
from repro.core.ts import unit_step
from repro.errors import EvaluationError
from repro.events.clock import Timestamp
from repro.events.event import EventType
from repro.events.event_base import EventBase

__all__ = ["CompiledCheck", "compile_check"]

#: Neutral lower bound: a window with no start excludes nothing.  Timestamps
#: are ints, so ``-inf`` compares below every candidate and bisects to 0.
_NEG_INF = float("-inf")

#: A set closure: ``fn(after, instant) -> signed ts value``.
_SetFn = Callable[[Any, Timestamp], int]
#: An instance closure: ``fn(after, instant, oid) -> signed ots value``.
_InstFn = Callable[[Any, Timestamp, Any], int]
#: Static per-evaluation cost of a rigid subtree: (node visits, lookups).
_Cost = "tuple[int, int] | None"


class _Compiler:
    """One lowering pass over an expression tree.

    Produces closures plus, for *rigid* subtrees, their static
    ``(node_visits, primitive_lookups)`` per-evaluation cost.  A subtree is
    rigid when it contains no precedence operator (which conditionally skips
    its left operand) and no lifted instance subtree (whose cost scales with
    the affected-object set) — then its interpreted counter increments are a
    compile-time constant and the closure does no counting at all.  Non-rigid
    closures absorb their rigid children's constants and self-count into the
    shared ``cells`` (visits, lookups, lifted objects), flushed in bulk once
    per check.
    """

    __slots__ = ("algebraic", "cells", "handle_cells")

    def __init__(self, mode: EvaluationMode) -> None:
        self.algebraic = mode is EvaluationMode.ALGEBRAIC
        #: [node_visits, primitive_lookups, lifted_objects] — the dynamic
        #: (non-rigid) share of the counters since the last flush.
        self.cells: list[int] = [0, 0, 0]
        #: One shared one-slot cell per event type; slot 0 holds the resolved
        #: ``_indexes_matching`` tuple for the currently bound Event Base.
        self.handle_cells: dict[EventType, list] = {}

    def _handle(self, event_type: EventType) -> list:
        cell = self.handle_cells.get(event_type)
        if cell is None:
            cell = self.handle_cells[event_type] = [()]
        return cell

    # -- set-oriented lowering (mirrors evaluation._ts) ---------------------
    def compile_set(self, node: EventExpression) -> "tuple[_SetFn, _Cost]":
        if isinstance(node, Primitive):
            cell = self._handle(node.event_type)

            def fn(after, instant, _cell=cell, _bisect=bisect_right):
                best = None
                for index in _cell[0]:
                    stamps = index.timestamps
                    position = _bisect(stamps, instant)
                    if position:
                        candidate = stamps[position - 1]
                        if candidate > after and (best is None or candidate > best):
                            best = candidate
                return best if best is not None else -instant

            return fn, (1, 1)

        if isinstance(node, SetNegation):
            operand, cost = self.compile_set(node.operand)

            def fn(after, instant, _operand=operand):
                return -_operand(after, instant)

            if cost is not None:
                return fn, (cost[0] + 1, cost[1])
            return self._counted(fn, 1, 0), None

        if isinstance(node, SetConjunction):
            left, left_cost = self.compile_set(node.left)
            right, right_cost = self.compile_set(node.right)
            return self._combine_binary(
                left, right, left_cost, right_cost, conjunction=True
            )

        if isinstance(node, SetDisjunction):
            left, left_cost = self.compile_set(node.left)
            right, right_cost = self.compile_set(node.right)
            return self._combine_binary(
                left, right, left_cost, right_cost, conjunction=False
            )

        if isinstance(node, SetPrecedence):
            left, left_cost = self.compile_set(node.left)
            right, right_cost = self.compile_set(node.right)
            return self._combine_precedence(left, right, left_cost, right_cost)

        if node.is_instance_oriented:
            return self._lift(node)

        raise EvaluationError(f"cannot compile node of type {type(node).__name__}")

    # -- instance-oriented lowering (mirrors evaluation._ots) ----------------
    def compile_inst(self, node: EventExpression) -> "tuple[_InstFn, _Cost]":
        if isinstance(node, Primitive):
            cell = self._handle(node.event_type)

            def fn(after, instant, oid, _cell=cell, _bisect=bisect_right):
                best = None
                for index in _cell[0]:
                    times = index.per_oid.get(oid)
                    if times:
                        position = _bisect(times, instant)
                        if position:
                            candidate = times[position - 1]
                            if candidate > after and (best is None or candidate > best):
                                best = candidate
                return best if best is not None else -instant

            return fn, (1, 1)

        if isinstance(node, InstanceNegation):
            operand, cost = self.compile_inst(node.operand)

            def fn(after, instant, oid, _operand=operand):
                return -_operand(after, instant, oid)

            if cost is not None:
                return fn, (cost[0] + 1, cost[1])
            return self._counted_inst(fn, 1, 0), None

        if isinstance(node, InstanceConjunction):
            left, left_cost = self.compile_inst(node.left)
            right, right_cost = self.compile_inst(node.right)
            return self._combine_binary_inst(
                left, right, left_cost, right_cost, conjunction=True
            )

        if isinstance(node, InstanceDisjunction):
            left, left_cost = self.compile_inst(node.left)
            right, right_cost = self.compile_inst(node.right)
            return self._combine_binary_inst(
                left, right, left_cost, right_cost, conjunction=False
            )

        if isinstance(node, InstancePrecedence):
            left, left_cost = self.compile_inst(node.left)
            right, right_cost = self.compile_inst(node.right)
            return self._combine_precedence_inst(left, right, left_cost, right_cost)

        raise EvaluationError(
            f"set-oriented operator {type(node).__name__} cannot appear in an "
            "instance-oriented evaluation"
        )

    # -- counting wrappers (non-rigid nodes only) ---------------------------
    def _counted(self, core: _SetFn, visits: int, lookups: int) -> _SetFn:
        """Wrap a set closure to self-count a static prologue into the cells."""
        cells = self.cells

        def fn(after, instant, _core=core, _cells=cells, _v=visits, _k=lookups):
            _cells[0] += _v
            _cells[1] += _k
            return _core(after, instant)

        return fn

    def _counted_inst(self, core: _InstFn, visits: int, lookups: int) -> _InstFn:
        """Instance-closure variant of :meth:`_counted`."""
        cells = self.cells

        def fn(after, instant, oid, _core=core, _cells=cells, _v=visits, _k=lookups):
            _cells[0] += _v
            _cells[1] += _k
            return _core(after, instant, oid)

        return fn

    # -- conjunction / disjunction ------------------------------------------
    def _combine_binary(
        self,
        left: _SetFn,
        right: _SetFn,
        left_cost,
        right_cost,
        conjunction: bool,
    ) -> "tuple[_SetFn, _Cost]":
        if conjunction:
            if self.algebraic:

                def core(after, instant, _l=left, _r=right, _u=unit_step):
                    lv = _l(after, instant)
                    rv = _r(after, instant)
                    both = _u(lv) * _u(rv)
                    return min(lv, rv) * (1 - both) + max(lv, rv) * both

            else:

                def core(after, instant, _l=left, _r=right):
                    lv = _l(after, instant)
                    rv = _r(after, instant)
                    if lv > 0 and rv > 0:
                        return lv if lv > rv else rv
                    return lv if lv < rv else rv

        else:
            if self.algebraic:

                def core(after, instant, _l=left, _r=right, _u=unit_step):
                    lv = _l(after, instant)
                    rv = _r(after, instant)
                    neither = _u(-lv) * _u(-rv)
                    return max(lv, rv) * (1 - neither) + min(lv, rv) * neither

            else:

                def core(after, instant, _l=left, _r=right):
                    lv = _l(after, instant)
                    rv = _r(after, instant)
                    if lv > 0 or rv > 0:
                        return lv if lv > rv else rv
                    return lv if lv < rv else rv

        if left_cost is not None and right_cost is not None:
            return core, (
                left_cost[0] + right_cost[0] + 1,
                left_cost[1] + right_cost[1],
            )
        visits = 1 + (left_cost[0] if left_cost else 0) + (
            right_cost[0] if right_cost else 0
        )
        lookups = (left_cost[1] if left_cost else 0) + (
            right_cost[1] if right_cost else 0
        )
        return self._counted(core, visits, lookups), None

    def _combine_binary_inst(
        self,
        left: _InstFn,
        right: _InstFn,
        left_cost,
        right_cost,
        conjunction: bool,
    ) -> "tuple[_InstFn, _Cost]":
        if conjunction:
            if self.algebraic:

                def core(after, instant, oid, _l=left, _r=right, _u=unit_step):
                    lv = _l(after, instant, oid)
                    rv = _r(after, instant, oid)
                    both = _u(lv) * _u(rv)
                    return min(lv, rv) * (1 - both) + max(lv, rv) * both

            else:

                def core(after, instant, oid, _l=left, _r=right):
                    lv = _l(after, instant, oid)
                    rv = _r(after, instant, oid)
                    if lv > 0 and rv > 0:
                        return lv if lv > rv else rv
                    return lv if lv < rv else rv

        else:
            if self.algebraic:

                def core(after, instant, oid, _l=left, _r=right, _u=unit_step):
                    lv = _l(after, instant, oid)
                    rv = _r(after, instant, oid)
                    neither = _u(-lv) * _u(-rv)
                    return max(lv, rv) * (1 - neither) + min(lv, rv) * neither

            else:

                def core(after, instant, oid, _l=left, _r=right):
                    lv = _l(after, instant, oid)
                    rv = _r(after, instant, oid)
                    if lv > 0 or rv > 0:
                        return lv if lv > rv else rv
                    return lv if lv < rv else rv

        if left_cost is not None and right_cost is not None:
            return core, (
                left_cost[0] + right_cost[0] + 1,
                left_cost[1] + right_cost[1],
            )
        visits = 1 + (left_cost[0] if left_cost else 0) + (
            right_cost[0] if right_cost else 0
        )
        lookups = (left_cost[1] if left_cost else 0) + (
            right_cost[1] if right_cost else 0
        )
        return self._counted_inst(core, visits, lookups), None

    # -- precedence (never rigid: the left operand is conditionally skipped) --
    def _combine_precedence(
        self, left: _SetFn, right: _SetFn, left_cost, right_cost
    ) -> "tuple[_SetFn, _Cost]":
        cells = self.cells
        right_visits = 1 + (right_cost[0] if right_cost else 0)
        right_lookups = right_cost[1] if right_cost else 0
        left_visits = left_cost[0] if left_cost else 0
        left_lookups = left_cost[1] if left_cost else 0
        if self.algebraic:

            def fn(
                after,
                instant,
                _l=left,
                _r=right,
                _cells=cells,
                _u=unit_step,
                _rv=right_visits,
                _rk=right_lookups,
                _lv=left_visits,
                _lk=left_lookups,
            ):
                _cells[0] += _rv
                _cells[1] += _rk
                right_value = _r(after, instant)
                if right_value > 0:
                    _cells[0] += _lv
                    _cells[1] += _lk
                    left_at_right = _l(after, right_value)
                else:
                    left_at_right = -instant
                satisfied = _u(right_value) * _u(left_at_right)
                return -instant * (1 - satisfied) + right_value * satisfied

        else:

            def fn(
                after,
                instant,
                _l=left,
                _r=right,
                _cells=cells,
                _rv=right_visits,
                _rk=right_lookups,
                _lv=left_visits,
                _lk=left_lookups,
            ):
                _cells[0] += _rv
                _cells[1] += _rk
                right_value = _r(after, instant)
                if right_value > 0:
                    _cells[0] += _lv
                    _cells[1] += _lk
                    if _l(after, right_value) > 0:
                        return right_value
                return -instant

        return fn, None

    def _combine_precedence_inst(
        self, left: _InstFn, right: _InstFn, left_cost, right_cost
    ) -> "tuple[_InstFn, _Cost]":
        cells = self.cells
        right_visits = 1 + (right_cost[0] if right_cost else 0)
        right_lookups = right_cost[1] if right_cost else 0
        left_visits = left_cost[0] if left_cost else 0
        left_lookups = left_cost[1] if left_cost else 0
        if self.algebraic:

            def fn(
                after,
                instant,
                oid,
                _l=left,
                _r=right,
                _cells=cells,
                _u=unit_step,
                _rv=right_visits,
                _rk=right_lookups,
                _lv=left_visits,
                _lk=left_lookups,
            ):
                _cells[0] += _rv
                _cells[1] += _rk
                right_value = _r(after, instant, oid)
                if right_value > 0:
                    _cells[0] += _lv
                    _cells[1] += _lk
                    left_at_right = _l(after, right_value, oid)
                else:
                    left_at_right = -instant
                satisfied = _u(right_value) * _u(left_at_right)
                return -instant * (1 - satisfied) + right_value * satisfied

        else:

            def fn(
                after,
                instant,
                oid,
                _l=left,
                _r=right,
                _cells=cells,
                _rv=right_visits,
                _rk=right_lookups,
                _lv=left_visits,
                _lk=left_lookups,
            ):
                _cells[0] += _rv
                _cells[1] += _rk
                right_value = _r(after, instant, oid)
                if right_value > 0:
                    _cells[0] += _lv
                    _cells[1] += _lk
                    if _l(after, right_value, oid) > 0:
                        return right_value
                return -instant

        return fn, None

    # -- lifting an instance subtree into a set context ----------------------
    def _lift(self, node: EventExpression) -> "tuple[_SetFn, _Cost]":
        inst, inst_cost = self.compile_inst(node)
        lift_cells = tuple(
            self._handle(event_type) for event_type in node.event_types()
        )
        universal = isinstance(node, InstanceNegation)
        cells = self.cells
        inst_visits, inst_lookups = inst_cost if inst_cost is not None else (0, 0)

        def fn(
            after,
            instant,
            _inst=inst,
            _lift_cells=lift_cells,
            _cells=cells,
            _bisect=bisect_right,
            _universal=universal,
            _iv=inst_visits,
            _ik=inst_lookups,
        ):
            _cells[0] += 1
            affected = set()
            for cell in _lift_cells:
                for index in cell[0]:
                    for oid, times in index.per_oid.items():
                        if oid not in affected and _bisect(times, instant) > _bisect(
                            times, after
                        ):
                            affected.add(oid)
            count = len(affected)
            _cells[2] += count
            if not count:
                return instant if _universal else -instant
            _cells[0] += count * _iv
            _cells[1] += count * _ik
            if _universal:
                return min(_inst(after, instant, oid) for oid in affected)
            return max(_inst(after, instant, oid) for oid in affected)

        return fn, None


class CompiledCheck:
    """A rule's event expression, lowered for batched exact checks.

    Not picklable and not shareable across concurrently-evaluating callers
    (the bulk-stats cells are per-instance mutable state): each process shard
    worker compiles its own instance from the shipped definition, and the
    fixed-home trip dealing guarantees one evaluator per rule per trip.
    """

    __slots__ = (
        "expression",
        "mode",
        "variations",
        "_set_fn",
        "_set_cost",
        "_inst_fn",
        "_inst_cost",
        "_cells",
        "_handles",
        "_bound_eb",
        "_bound_type_count",
    )

    def __init__(
        self, expression: EventExpression, mode: EvaluationMode = EvaluationMode.LOGICAL
    ) -> None:
        self.expression = expression
        self.mode = mode
        # The folded V(E) verdict: derived once here instead of per filter
        # construction / introspection.
        self.variations = variation_set(expression)
        compiler = _Compiler(mode)
        set_fn, set_cost = compiler.compile_set(expression)
        self._set_fn = set_fn
        self._set_cost = set_cost if set_cost is not None else (0, 0)
        if expression.may_be_instance_operand():
            inst_fn, inst_cost = compiler.compile_inst(expression)
            self._inst_fn: _InstFn | None = inst_fn
            self._inst_cost = inst_cost if inst_cost is not None else (0, 0)
        else:
            self._inst_fn = None
            self._inst_cost = (0, 0)
        self._cells = compiler.cells
        self._handles = compiler.handle_cells
        self._bound_eb: EventBase | None = None
        self._bound_type_count = -1

    # -- index-handle binding -------------------------------------------------
    def _bind(self, event_base: EventBase) -> None:
        """Point every primitive's handle cell at ``event_base``'s indexes.

        Cheap identity check on the hot path: a resolution only changes when
        the store registers a new event type (``len(_by_type)`` grows — the
        exact condition under which the store drops its own match cache) or
        when the Event Base itself is swapped.
        """
        if self._bound_eb is event_base and self._bound_type_count == len(
            event_base._by_type
        ):
            return
        resolve = event_base._indexes_matching
        for event_type, cell in self._handles.items():
            cell[0] = resolve(event_type)
        self._bound_eb = event_base
        self._bound_type_count = len(event_base._by_type)

    def invalidate(self) -> None:
        """Drop every pre-resolved index handle (schema/EB rebind hook)."""
        self._bound_eb = None
        self._bound_type_count = -1
        for cell in self._handles.values():
            cell[0] = ()

    @property
    def is_bound(self) -> bool:
        """True while the handle cells hold a live resolution (for tests)."""
        return self._bound_eb is not None

    # -- bulk stats -----------------------------------------------------------
    def _flush(
        self,
        stats: EvaluationStats | None,
        sampled: int,
        static_cost: "tuple[int, int]",
    ) -> None:
        """Accumulate one check's counters in bulk and reset the cells."""
        cells = self._cells
        if stats is not None:
            stats.evaluations += sampled
            stats.node_visits += cells[0] + static_cost[0] * sampled
            stats.primitive_lookups += cells[1] + static_cost[1] * sampled
            stats.lifted_objects += cells[2]
        cells[0] = 0
        cells[1] = 0
        cells[2] = 0

    # -- point evaluation (compiled ts / ots) ---------------------------------
    def ts(
        self,
        event_base: EventBase,
        window_start: Timestamp | None,
        instant: Timestamp,
        stats: EvaluationStats | None = None,
    ) -> int:
        """Compiled ``ts`` over the window ``(window_start, instant]``."""
        if instant <= 0:
            raise EvaluationError(
                f"ts must be evaluated at a positive instant (got {instant})"
            )
        self._bind(event_base)
        after = _NEG_INF if window_start is None else window_start
        value = self._set_fn(after, instant)
        self._flush(stats, 1, self._set_cost)
        return value

    def ots(
        self,
        event_base: EventBase,
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
        if self._inst_fn is None:
            raise EvaluationError(
                "ots is only defined for instance-oriented expressions "
                f"(got a set-oriented operator in {self.expression})"
            )
        self._bind(event_base)
        after = _NEG_INF if window_start is None else window_start
        value = self._inst_fn(after, instant, oid)
        self._flush(stats, 1, self._inst_cost)
        return value

    # -- the batched exact check ----------------------------------------------
    def check(
        self,
        event_base: EventBase,
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
        event_base: EventBase,
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
        memo ends in the same state the interpreted per-block sequence leaves
        it in: cleared on triggering, untouched by empty windows, otherwise
        recording the last negative block's frontier once, at the end.

        Candidate instants come straight from the store's deduplicated
        timestamp array: within a trip each block only samples the distinct
        stamps past the previous block's frontier (plus its own ``now``), so
        the whole trip costs one bounded sweep over the new instants instead
        of one evaluator re-entry per block.
        """
        self._bind(event_base)
        all_stamps = event_base._all_timestamps
        distinct = event_base._distinct_timestamps
        total = len(all_stamps)
        fn = self._set_fn
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
                value = fn(after, instant)
                if value > 0:
                    hit_instant = instant
                    hit_value = value
                    break
            if hit_instant is None and (start == stop or distinct[stop - 1] != now):
                sampled += 1
                value = fn(after, now)
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
        self._flush(stats, sampled_total, self._set_cost)
        return decisions


def compile_check(
    expression: EventExpression, mode: EvaluationMode = EvaluationMode.LOGICAL
) -> CompiledCheck:
    """Lower ``expression`` into a :class:`CompiledCheck` for ``mode``."""
    return CompiledCheck(expression, mode)
