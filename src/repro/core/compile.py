"""Compilation of composite event expressions into shared shape kernels.

The reference evaluator (:mod:`repro.core.evaluation`) re-discovers the shape
of a rule's event expression on every sample: an isinstance-dispatch chain per
node, a mode test per operator, an ``_indexes_matching`` resolution per
primitive and a per-node ``stats`` increment — all per instant, per check.
This module is the production evaluator: it does that discovery once per
expression **shape** and leaves a rule with nothing but a small binding.

*Compile* (once per shape per evaluator).  A shape is the operator tree with
every primitive replaced by a slot number (one slot per distinct event type,
in first-appearance order).  :class:`CheckBinder` interns one *kernel* per
shape — a tree of small Python closures, its root standing for the whole,
with everything the shape decides folded in:

* **operator dispatch** — each node is a direct nested call;
* **combine formulas** — the paper's logical case analysis (§4) for
  conjunction, disjunction and precedence.  Its algebraic style, sums of
  products of the unit step ``u``, is the same function on every value a
  ``ts`` takes (a non-zero integer), so one combine set serves both
  formulations (tests/core/test_properties.py::
  test_combines_agree_in_both_modes_exhaustively);
* **lift boundaries** — whether an instance-oriented subtree must be lifted
  over affected objects, whether the lift is existential (max) or universal
  (min, instance negation) and which slots it enumerates.

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
rules are bound; each binding re-resolves lazily on its next check.

On top of the per-instant closures, :meth:`CompiledCheck.check` runs one
block's exact check in a single pass over the store's sorted timestamp
arrays, reusing :class:`TriggerMemo`'s coverage bookkeeping — candidate
instants are sliced out of ``_distinct_timestamps`` by bisection instead of
re-entering ``is_triggered``.

The condition side runs on the same kernels: :meth:`CheckBinder.bind_instance`
binds an event formula's expression (``occurred`` / ``at``, paper §3.3) to its
instance-rooted kernel once, and :meth:`CompiledCheck.affected` /
:meth:`CompiledCheck.arises` evaluate it only for the objects the window's
rows touched, plus one probe that stands for every untouched object.

Equivalence contract: for every expression and history, the compiled
``ts``/``ots``/``check`` return the same values and the same
:class:`TriggeringDecision` fields as the reference in either mode, each
sampled instant being one reference evaluation (pinned by
tests/core/test_compiled_equivalence.py and the cross-mode differential
harnesses), and ``affected`` / ``arises`` the same sets and instants as
``active_objects`` / ``activation_instants`` (tests/core/test_event_formulas.py).
The kernels count nothing but the instants a check samples.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Callable

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
from repro.errors import EvaluationError
from repro.events.clock import Timestamp
from repro.events.event import EventType
from repro.events.event_base import BoundedView, StampIndex, WindowLike

__all__ = ["CheckBinder", "CompiledCheck", "compile_check"]

#: Neutral lower bound: a window with no start excludes nothing.  Timestamps
#: are ints, so ``-inf`` compares below every candidate and bisects to 0.
_NEG_INF = float("-inf")

#: The object no index holds: every primitive misses it, so its ``ots`` is the
#: value of any object the window's rows of the formula's types never touched.
_UNTOUCHED = object()

#: A kernel closure: ``fn(handles, after, instant, oid) -> signed ts value``.
#: ``handles[slot]`` is the resolved index tuple of the slot's event type.
#: Set-oriented closures ignore ``oid``.
_Fn = Callable[[tuple, Any, Timestamp, Any], int]

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
    """One lowering pass over the exemplar expression of a shape."""

    __slots__ = ("slots",)

    def __init__(self, slots: "dict[EventType, int]") -> None:
        self.slots = slots

    def lower(self, node: EventExpression, instance: bool) -> _Fn:
        """Mirror of ``evaluation._ts`` (``instance=False``) / ``_ots``."""
        if isinstance(node, Primitive):
            return self._primitive(self.slots[node.event_type], instance)
        if node.is_instance_oriented and not instance:
            return self._lift(node)
        if instance and not node.is_instance_oriented:
            raise EvaluationError(
                f"set-oriented operator {type(node).__name__} cannot appear in an "
                "instance-oriented evaluation"
            )
        if isinstance(node, _NEGATIONS):
            operand = self.lower(node.operand, instance)

            def fn(h, after, instant, oid, _operand=operand):
                return -_operand(h, after, instant, oid)

            return fn
        if isinstance(node, _PRECEDENCES):
            return self._precedence(
                self.lower(node.left, instance), self.lower(node.right, instance)
            )
        if isinstance(node, _CONJUNCTIONS + _DISJUNCTIONS):
            return self._combine(
                self.lower(node.left, instance),
                self.lower(node.right, instance),
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
    @staticmethod
    def _combine(left: _Fn, right: _Fn, conjunction: bool) -> _Fn:
        if conjunction:

            def fn(h, after, instant, oid, _l=left, _r=right):
                lv = _l(h, after, instant, oid)
                rv = _r(h, after, instant, oid)
                if lv > 0 and rv > 0:
                    return lv if lv > rv else rv
                return lv if lv < rv else rv

        else:

            def fn(h, after, instant, oid, _l=left, _r=right):
                lv = _l(h, after, instant, oid)
                rv = _r(h, after, instant, oid)
                if lv > 0 or rv > 0:
                    return lv if lv > rv else rv
                return lv if lv < rv else rv

        return fn

    # -- precedence: the left operand is probed at the right one's stamp ------
    @staticmethod
    def _precedence(left: _Fn, right: _Fn) -> _Fn:
        def fn(h, after, instant, oid, _l=left, _r=right):
            right_value = _r(h, after, instant, oid)
            if right_value > 0 and _l(h, after, right_value, oid) > 0:
                return right_value
            return -instant

        return fn

    # -- lifting an instance subtree into a set context ----------------------
    def _lift(self, node: EventExpression) -> _Fn:
        inst = self.lower(node, instance=True)
        lift_slots = tuple(sorted({self.slots[t] for t in node.event_types()}))
        universal = isinstance(node, InstanceNegation)

        def fn(
            h,
            after,
            instant,
            oid,
            _inst=inst,
            _lift_slots=lift_slots,
            _bisect=bisect_right,
            _universal=universal,
        ):
            # The objects affected in (after, instant]: one slice of each
            # lifted type's OID column.
            affected = set()
            for slot in _lift_slots:
                for index in h[slot]:
                    stamps = index.timestamps
                    affected.update(
                        index.oids[_bisect(stamps, after) : _bisect(stamps, instant)]
                    )
            if not affected:
                return instant if _universal else -instant
            if _universal:
                return min(_inst(h, after, instant, obj) for obj in affected)
            return max(_inst(h, after, instant, obj) for obj in affected)

        return fn


class CheckBinder:
    """One evaluator's compile state: kernels by shape, and the handle epoch.

    Every exact-check evaluator — a Trigger Support (the shard coordinator
    included) and each process shard worker — owns one binder and binds its
    rules through it.  Not picklable; a worker
    builds its own.
    """

    def __init__(self) -> None:
        #: ``(shape key, instance-rooted?)`` -> the interned kernel's root.
        self._kernels: "dict[tuple, _Fn]" = {}
        #: Instance-rooted bindings, one per expression (:meth:`bind_instance`).
        self._instances: "dict[EventExpression, CompiledCheck]" = {}
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

    def bind_instance(self, expression: EventExpression) -> "CompiledCheck":
        """The instance-rooted binding of ``expression``, made once per binder.

        What the event formulas (``occurred`` / ``at``, paper §3.3) and the
        diagnostic :meth:`CompiledCheck.ots` evaluate: the ``(shape,
        instance=True)`` kernel over the expression's own slot types.  The
        expression is validated here, once; repeated calls return the same
        binding.
        """
        binding = self._instances.get(expression)
        if binding is None:
            if not expression.may_be_instance_operand():
                raise EvaluationError(
                    "ots is only defined for instance-oriented expressions "
                    f"(got a set-oriented operator in {expression})"
                )
            binding = CompiledCheck(expression, self, *self._kernel(expression, True))
            binding = self._instances.setdefault(expression, binding)
        return binding

    def _kernel(
        self, expression: EventExpression, instance: bool
    ) -> "tuple[_Fn, tuple[EventType, ...]]":
        """The interned kernel of ``expression``'s shape, and its slot types."""
        slots: "dict[EventType, int]" = {}
        key = (_shape_key(expression, slots), instance)
        kernel = self._kernels.get(key)
        if kernel is None:
            lowered = _Lowering(slots).lower(expression, instance)
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
    """A rule's binding to its shape kernel: the compiled exact check.

    Holds no closure of its own — ``ts``/``ots``/``check`` run the binder's
    shared kernel over this rule's handles.  One binding is evaluated by one
    caller at a time (fixed-home dealing guarantees one evaluator per rule).
    An instance-rooted binding (:meth:`CheckBinder.bind_instance`) is an
    event formula's evaluator: :meth:`affected` and :meth:`arises`.
    """

    __slots__ = (
        "expression",
        "binder",
        "_kernel",
        "_types",
        "_handles",
        "_epoch",
        "_instance",
    )

    def __init__(
        self,
        expression: EventExpression,
        binder: CheckBinder,
        kernel: _Fn,
        types: "tuple[EventType, ...]",
    ) -> None:
        self.expression = expression
        self.binder = binder
        self._kernel = kernel
        self._types = types
        self._handles: tuple = ()
        self._epoch = -1
        #: The instance-rooted binding of the same expression, fetched from
        #: :meth:`CheckBinder.bind_instance` on the first :meth:`ots`.
        self._instance: "CompiledCheck | None" = None

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
        event_base: StampIndex,
        window_start: Timestamp | None,
        instant: Timestamp,
        oid: Any,
    ) -> int:
        after = _NEG_INF if window_start is None else window_start
        return self._kernel(self._resolve(event_base), after, instant, oid)

    def ts(
        self,
        event_base: StampIndex,
        window_start: Timestamp | None,
        instant: Timestamp,
    ) -> int:
        """Compiled ``ts`` over the window ``(window_start, instant]``."""
        if instant <= 0:
            raise EvaluationError(
                f"ts must be evaluated at a positive instant (got {instant})"
            )
        return self._point(event_base, window_start, instant, None)

    def ots(
        self,
        event_base: StampIndex,
        window_start: Timestamp | None,
        instant: Timestamp,
        oid: Any,
    ) -> int:
        """Compiled ``ots`` for ``oid`` over the window ``(window_start, instant]``."""
        if instant <= 0:
            raise EvaluationError(
                f"ots must be evaluated at a positive instant (got {instant})"
            )
        instance = self._instance
        if instance is None:
            instance = self._instance = self.binder.bind_instance(self.expression)
        return instance._point(event_base, window_start, instant, oid)

    # -- the event formulas (instance-rooted bindings) ------------------------
    def affected(self, window: WindowLike, instant: Timestamp) -> "set[Any]":
        """The objects the instance expression is active for (``occurred``).

        Exactly ``evaluation.active_objects(expression, window, instant)``,
        at the cost of what the window touched.  The kernel runs only for the
        objects that the window's rows of the expression's slot types name
        (one slice of each type's OID column).  No primitive sees any row of
        any other object of the window, so one *probe* with an object no
        index holds gives all of them their value: when it is positive
        (instance negation) they join the set wholesale.  Touched objects are
        evaluated at ``min(instant, until)``: the view holds no row in
        between, and with no row in between the sign of ``ots`` — all a
        binding set reads — is the same at both ends.
        """
        if instant <= 0:
            raise EvaluationError(
                f"ots must be evaluated at a positive instant (got {instant})"
            )
        store, after, until = _bounds_of(window)
        handles = self._resolve(store)
        lower = _NEG_INF if after is None else after
        bound = instant if until is None or until > instant else until
        touched: "set[Any]" = set()
        for indexes in handles:
            for index in indexes:
                touched.update(index.oids_between(after, bound))
        fn = self._kernel
        active = {oid for oid in touched if fn(handles, lower, bound, oid) > 0}
        if fn(handles, lower, instant, _UNTOUCHED) > 0:
            active.update(window.oids() - touched)
        return active

    def arises(
        self, window: WindowLike, oid: Any, until: Timestamp
    ) -> "list[Timestamp]":
        """The instants up to ``until`` at which the event arises for ``oid`` (``at``).

        The window's distinct time stamps ``t*`` with ``ots(t*) == t*``:
        exactly ``evaluation.activation_instants(expression, window, oid,
        until)``.
        """
        store, after, view_until = _bounds_of(window)
        handles = self._resolve(store)
        fn = self._kernel
        lower = _NEG_INF if after is None else after
        last = until if view_until is None or view_until > until else view_until
        distinct = store._distinct_timestamps
        start = bisect_right(distinct, lower)
        return [
            instant
            for instant in distinct[start : bisect_right(distinct, last)]
            if fn(handles, lower, instant, oid) == instant
        ]

    # -- the exact check -----------------------------------------------------
    def check(
        self,
        event_base: StampIndex,
        window_start: Timestamp | None,
        now: Timestamp,
        memo: TriggerMemo | None = None,
    ) -> TriggeringDecision:
        """Exact triggering check of one block over ``(window_start, now]``.

        Candidate instants come straight from the store's deduplicated
        timestamp array: the check samples only the distinct stamps past the
        memo's frontier (plus ``now`` itself), so a rule checked after every
        block costs one bounded sweep over the new instants.  The memo ends
        in the state the reference ``is_triggered`` leaves it in: cleared on
        triggering, untouched by an empty window, otherwise recording this
        check's frontier.
        """
        handles = self._resolve(event_base)
        all_stamps = event_base._all_timestamps
        after = _NEG_INF if window_start is None else window_start
        size = bisect_right(all_stamps, now) - bisect_right(all_stamps, after)
        if size == 0:
            return TriggeringDecision(False, None, None, 0)
        distinct = event_base._distinct_timestamps
        total = len(all_stamps)
        fn = self._kernel
        lower: Timestamp | None = None
        if memo is not None and memo.covers(window_start):
            lower = memo.last_sampled
            if memo.seen_events < total:
                first_new = all_stamps[memo.seen_events]
                if first_new <= lower:
                    lower = first_new - 1
        lo_bound = after if lower is None or lower < after else lower
        start = bisect_right(distinct, lo_bound)
        stop = bisect_right(distinct, now)
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
        if hit_instant is not None:
            if memo is not None:
                memo.clear()
            return TriggeringDecision(True, hit_instant, hit_value, size, sampled)
        if memo is not None:
            memo.record(window_start, now, total)
        return TriggeringDecision(False, None, None, size, sampled)


def _bounds_of(
    window: WindowLike,
) -> "tuple[StampIndex, Timestamp | None, Timestamp | None]":
    """``(store, after, until)``: what a kernel reads for ``window``.

    A bounded view is its parent's indexes inside its bounds; the
    :class:`EventBase` is its own whole log, the window ``(None, None]``.
    """
    if isinstance(window, BoundedView):
        return window._parent, window.after, window.until
    return window, None, None


def compile_check(expression: EventExpression) -> CompiledCheck:
    """A stand-alone binding of ``expression`` (own one-off binder)."""
    return CheckBinder().bind(expression)
