"""The calculus evaluator: composite event expressions compiled into shape kernels.

This is the one evaluator of the paper's ``ts`` / ``ots`` functions (§4) in
the package.  Every triggering decision, every event formula of a condition
and every diagnostic surface — :func:`repro.core.explain.explain`, the
traces of :mod:`repro.analysis.traces`, the law checks of
:mod:`repro.core.laws` and ``chimera-events evaluate`` — answers from it.
A recursive interpreter would re-discover the shape of an expression on every
sample: an isinstance-dispatch chain per node and a pattern resolution per
primitive, per instant, per check.  This module does that discovery once per
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
different types share one.

*Bind* (once per rule).  :class:`CompiledCheck` is the per-rule binding: the
shared kernel, the rule's slot types and a tuple of index handles, one per
slot.  A handle is the store's own live list of the indexes the slot's
pattern matches (``StampIndex._indexes_matching``): the store appends every
newly registered type to it, so it stays valid for the life of the store,
and a binding resolves once per store it is checked against.

On top of the per-instant closures, :meth:`CompiledCheck.check` runs one
block's exact check over the rule's own stamps, reusing :class:`TriggerMemo`'s
coverage bookkeeping.  By §3.1–3.2 the sign of ``ts`` over one window changes
only at stamps of the expression's own (matching) types, so the candidate
instants are the resume range's first distinct stamp plus one bisected slice
of each handle's ``timestamps``: the check never visits the stamps of the
types the rule does not watch (tests/core/test_properties.py::
test_the_restricted_candidates_find_the_first_positive_instant).

The condition side runs on the same kernels: :meth:`CheckBinder.bind_instance`
binds an event formula's expression (``occurred`` / ``at``, paper §3.3) to its
instance-rooted kernel once, and :meth:`CompiledCheck.affected` /
:meth:`CompiledCheck.arises` evaluate it only for the objects the window's
rows touched, plus one probe that stands for every untouched object.

The public calculus functions — :func:`ts`, :func:`ots`,
:func:`active_objects`, :func:`activation_instants` and :func:`is_triggered`
— are a few lines each over a :class:`CheckBinder` made for the call, so no
cache outlives it.

Equivalence contract: the recursive interpreter of ``tests/oracle.py`` is the
reference.  For every expression and history, the compiled
``ts``/``ots``/``check`` return the same values and the same
:class:`TriggeringDecision` fields as the reference in either of the paper's
formulations, except ``instants_sampled``: the reference samples every
distinct stamp of the resume range and ``now``, a compiled check only its
candidates, which a brute-force scan of the log counts
(``tests/oracle.py::restricted_samples``; pinned by
tests/core/test_compiled_equivalence.py, the cross-mode differential
harnesses and tests/core/test_sampled_instants.py).  ``affected`` /
``arises`` return the same sets and instants as the reference's
``active_objects`` / ``activation_instants``
(tests/core/test_event_formulas.py).  The kernels count nothing but the
instants a check samples.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
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
from repro.events.event_base import BoundedView, EventBase, StampIndex, WindowLike

__all__ = [
    "CheckBinder",
    "CompiledCheck",
    "Shape",
    "activation_instants",
    "active_objects",
    "compile_check",
    "is_triggered",
    "is_vacuous",
    "ots",
    "shape_of",
    "ts",
]

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
    if isinstance(node, _NEGATIONS):
        return (type(node), _shape_key(node.operand, slots))
    return (type(node), _shape_key(node.left, slots), _shape_key(node.right, slots))


#: ``(shape key, slot types)``: what one walk of an expression yields.
Shape = tuple[Any, tuple[EventType, ...]]


def shape_of(expression: EventExpression) -> Shape:
    """``(shape key, slot types)`` of ``expression``, in one walk.

    Expressions of equal keys are the same tree up to a renaming of their
    types, which the slot types undo: they share a kernel, their ``V(E)``
    and their vacuity.
    """
    slots: "dict[EventType, int]" = {}
    key = _shape_key(expression, slots)
    return key, tuple(slots)


def is_vacuous(expression: EventExpression) -> bool:
    """Is ``expression`` active over an empty log, ``ts(E, {}, 1) > 0``?

    The set-rooted kernel of its shape over all-empty handles at instant 1:
    every primitive is inactive, so the sign is the shape's alone, and it is
    the same at every instant.
    """
    _, types = shape_of(expression)
    kernel = _Lowering(_slot_map(types)).lower(expression, False)
    return kernel(((),) * len(types), _NEG_INF, 1, None) > 0


def _slot_map(types: "tuple[EventType, ...]") -> "dict[EventType, int]":
    return {event_type: slot for slot, event_type in enumerate(types)}


class _Lowering:
    """One lowering pass over the exemplar expression of a shape."""

    __slots__ = ("slots",)

    def __init__(self, slots: "dict[EventType, int]") -> None:
        self.slots = slots

    def lower(self, node: EventExpression, instance: bool) -> _Fn:
        """The set-rooted (``instance=False``) or instance-rooted closure tree."""
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
    """One evaluator's compile state: kernels interned by shape.

    Every exact-check evaluator — a Trigger Support (the shard coordinator
    included) and each process shard worker — owns one binder and binds its
    rules through it.  Not picklable; a worker builds its own.
    """

    def __init__(self) -> None:
        #: ``(shape key, instance-rooted?)`` -> the interned kernel's root.
        self._kernels: "dict[tuple, _Fn]" = {}
        #: Instance-rooted bindings, one per expression (:meth:`bind_instance`).
        self._instances: "dict[EventExpression, CompiledCheck]" = {}

    @property
    def kernels_compiled(self) -> int:
        """How many distinct shapes this evaluator has lowered."""
        return len(self._kernels)

    def bind(
        self, expression: EventExpression, shape: Shape | None = None
    ) -> "CompiledCheck":
        """The binding of ``expression``: shared kernel + its own slot types.

        ``shape`` is ``shape_of(expression)`` when the caller already holds
        it (the Rule Table keeps it on every rule state), so binding a rule
        does not walk its expression again.
        """
        return CompiledCheck(expression, self, *self._kernel(expression, False, shape))

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
            binding = self._instances[expression] = CompiledCheck(
                expression, self, *self._kernel(expression, True)
            )
        return binding

    def _kernel(
        self, expression: EventExpression, instance: bool, shape: Shape | None = None
    ) -> "tuple[_Fn, tuple[EventType, ...]]":
        """The interned kernel of ``expression``'s shape, and its slot types."""
        key, types = shape_of(expression) if shape is None else shape
        kernel = self._kernels.get((key, instance))
        if kernel is None:
            lowering = _Lowering(_slot_map(types))
            kernel = self._kernels[key, instance] = lowering.lower(expression, instance)
        return kernel, types


class CompiledCheck:
    """A rule's binding to its shape kernel: the compiled exact check.

    Holds no closure of its own — ``ts``/``ots``/``check`` run the binder's
    shared kernel over this rule's handles, the live pattern lists of the
    last store it was checked against (:meth:`_resolve`).
    An instance-rooted binding (:meth:`CheckBinder.bind_instance`) is an
    event formula's evaluator: :meth:`affected` and :meth:`arises`.
    """

    __slots__ = (
        "expression",
        "binder",
        "_kernel",
        "_types",
        "_handles",
        "_store",
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
        #: The serial of the store the handles belong to (-1: none yet).
        self._store = -1
        #: The instance-rooted binding of the same expression, fetched from
        #: :meth:`CheckBinder.bind_instance` on the first :meth:`ots`.
        self._instance: "CompiledCheck | None" = None

    # -- index-handle binding -------------------------------------------------
    def _resolve(self, event_base: StampIndex) -> tuple:
        """This rule's handles for ``event_base``, resolved once per store.

        One comparison on the hot path: the handles are the store's live
        pattern lists, which never go stale while the store lives, so only
        a different store (its serial) makes the binding resolve again.
        Rules watching one pattern share one handle.
        """
        if self._store != event_base._serial:
            resolve = event_base._indexes_matching
            self._handles = tuple([resolve(event_type) for event_type in self._types])
            self._store = event_base._serial
        return self._handles

    # -- point evaluation (compiled ts / ots) ---------------------------------
    def _at(self, window: WindowLike, instant: Timestamp, oid: Any, name: str) -> int:
        """The kernel's value over the window ``R`` at ``instant``.

        A kernel reads its store's rows in ``(after, instant]``: the window's
        rows up to ``instant``, unless a view ends before it.  Then the rows
        in ``(until, instant]`` are outside ``R``, and clamping the instant to
        ``until`` would move an inactive ``-t`` as well, so the view's rows
        are evaluated in an Event Base of their own.
        """
        _require_positive(instant, name)
        store, after, until = _bounds_of(window)
        if until is not None and until < instant:
            store, after = EventBase(), None
            store.extend(window.occurrences)
        lower = _NEG_INF if after is None else after
        return self._kernel(self._resolve(store), lower, instant, oid)

    def ts(self, window: WindowLike, instant: Timestamp) -> int:
        """Compiled ``ts`` over the window ``R`` at ``instant``."""
        return self._at(window, instant, None, "ts")

    def ots(self, window: WindowLike, instant: Timestamp, oid: Any) -> int:
        """Compiled ``ots`` for ``oid`` over the window ``R`` at ``instant``."""
        instance = self._instance
        if instance is None:
            instance = self._instance = self.binder.bind_instance(self.expression)
        return instance._at(window, instant, oid, "ots")

    # -- the event formulas (instance-rooted bindings) ------------------------
    def affected(self, window: WindowLike, instant: Timestamp) -> "set[Any]":
        """The objects the instance expression is active for (``occurred``).

        Exactly the reference's ``active_objects(expression, window, instant)``,
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
        _require_positive(instant, "ots")
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
        exactly the reference's ``activation_instants(expression, window,
        oid, until)``.  Every distinct stamp is a candidate, unlike in
        :meth:`check`: arising is an equality, not a sign, and ``-=E``
        arises for an untouched object at the stamps of any type.
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

        Samples, in ascending order up to the first positive value, the
        distinct stamps past the memo's frontier (``lo_bound``) that can
        change the sign of ``ts``: the first of them (the ``R != {}`` case,
        and a negation that is active from the start) and the stamps of the
        rule's own types, one bisected slice of each handle.  Every other
        instant of the range, ``now`` included, has the sign of the candidate
        before it (§3.1–3.2), so a rule checked after every block costs the
        new rows of the types it watches, not every new stamp of the log.
        The decision is the reference ``is_triggered``'s, and the memo ends in
        the state it leaves: cleared on triggering, untouched by an empty
        window, otherwise recording this check's frontier.
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
        if stop - start > 1:
            candidates = {distinct[start]}
            for indexes in handles:
                for index in indexes:
                    stamps = index.timestamps
                    low = bisect_right(stamps, lo_bound)
                    candidates.update(stamps[low : bisect_right(stamps, now)])
            candidates = sorted(candidates)
        else:  # at most one stamp: the range's first is the only candidate
            candidates = distinct[start:stop]
        sampled = 0
        for instant in candidates:
            sampled += 1
            value = fn(handles, after, instant, None)
            if value > 0:
                if memo is not None:
                    memo.clear()
                return TriggeringDecision(True, instant, value, size, sampled)
        if memo is not None:
            memo.record(window_start, now, total)
        return TriggeringDecision(False, None, None, size, sampled)


def _require_positive(instant: Timestamp, name: str) -> None:
    if instant <= 0:
        raise EvaluationError(
            f"{name} must be evaluated at a positive instant (got {instant})"
        )


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


# ---------------------------------------------------------------------------
# The calculus functions: one binding per call
# ---------------------------------------------------------------------------


def ts(expression: EventExpression, window: WindowLike, instant: Timestamp) -> int:
    """The set-oriented ``ts`` function of the paper, as a raw signed integer.

    ``window`` is the occurrence set ``R`` the calculus applies to — the Event
    Base (the whole log) or a :class:`BoundedView` of it — and ``instant`` the
    evaluation time ``t``.  The result is positive (an activation time stamp)
    when the expression is active and ``-t`` otherwise.
    """
    return CheckBinder().bind(expression).ts(window, instant)


def ots(
    expression: EventExpression, window: WindowLike, instant: Timestamp, oid: Any
) -> int:
    """The instance-oriented ``ots`` function for object ``oid``.

    Only primitives and instance-oriented operators may appear in the
    expression (the paper forbids set-oriented operators below instance ones).
    """
    return CheckBinder().bind_instance(expression).ots(window, instant, oid)


def active_objects(
    expression: EventExpression, window: WindowLike, instant: Timestamp
) -> "set[Any]":
    """The objects an instance-oriented expression is active for at ``instant``.

    The binding set of the ``occurred`` event formula (paper §3.3): every
    object of the window whose ``ots`` is positive.
    """
    return CheckBinder().bind_instance(expression).affected(window, instant)


def activation_instants(
    expression: EventExpression, window: WindowLike, oid: Any, until: Timestamp
) -> "list[Timestamp]":
    """The instants up to ``until`` at which the expression arises for ``oid``.

    The ``at`` event formula (paper §3.3): the window's stamps ``t*`` with
    ``ots(t*) == t*``.  For a creation followed by two quantity updates,
    ``create(stock) <= modify(stock.quantity)`` arises at the two updates.
    """
    return CheckBinder().bind_instance(expression).arises(window, oid, until)


def is_triggered(
    expression: EventExpression,
    event_base: WindowLike,
    last_consideration: Timestamp | None,
    now: Timestamp,
    memo: TriggerMemo | None = None,
) -> TriggeringDecision:
    """The triggering predicate ``T(r, t)`` (paper §4.5), decided exactly.

    Over the Event Base, the window is ``(last_consideration, now]`` and the
    decision is :meth:`CompiledCheck.check`'s; with ``memo`` the check is
    incremental and updates it.  An already-built view is the window ``R``
    itself: its rows are checked in an Event Base of their own, the memo is
    left untouched (the view's relation to earlier checks is unknown), and
    ``R != {}`` counts the rows past ``now`` too — when every row is past it,
    the sign at ``now`` is the one sample.
    """
    binding = CheckBinder().bind(expression)
    if not isinstance(event_base, BoundedView):
        return binding.check(event_base, last_consideration, now, memo)
    rows = EventBase()
    rows.extend(event_base.occurrences)
    decision = binding.check(rows, None, now)
    if len(rows) and not decision.window_size:
        value = binding.ts(rows, now)
        active = value > 0
        decision = TriggeringDecision(
            active, now if active else None, value if active else None, 0, 1
        )
    return replace(decision, window_size=len(rows))
