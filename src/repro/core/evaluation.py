"""Evaluation of composite event expressions (the ``ts`` / ``ots`` functions).

This module implements Section 4 of the paper:

* :func:`ts` — the set-oriented semantics.  A primitive event type is active
  when an occurrence exists in the window at or before ``t``; its ``ts`` value
  is the time stamp of the most recent such occurrence, and ``-t`` otherwise.
  Negation flips the sign; conjunction, disjunction and precedence are given
  both in the paper's *logical style* (case analysis) and *algebraic style*
  (sums of products of the unit-step ``u``).  Both styles are implemented and
  must agree — the test suite checks this on random histories.
* :func:`ots` — the instance-oriented semantics, identical in shape but
  restricted to occurrences affecting a single OID.
* lifting — an instance-oriented sub-expression appearing inside a
  set-oriented expression is lifted over the objects mentioned by the window:
  existential operators (conjunction, disjunction, precedence) take the best
  (maximum) ``ots`` over the objects, while instance negation requires *no*
  object to violate it (minimum ``ots``).  This reconstruction follows the
  paper's prose and its stated properties (see DESIGN.md §2, substitution 1).
* :func:`active_objects` and :func:`activation_instants` — the object bindings
  and occurrence instants of the ``occurred`` and ``at`` event formulas.

This module is the **reference oracle**.  Production code evaluates through
the compiled shape kernels of :mod:`repro.core.compile`: the exact triggering
check, and — for rule conditions — the instance-rooted bindings whose
``affected`` / ``arises`` equal :func:`active_objects` /
:func:`activation_instants` (tests/core/test_event_formulas.py).  The recursive
evaluator stays public because it is what every differential test, the
``explain`` derivations and the CLI's ``evaluate`` compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from repro.errors import EvaluationError
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
from repro.core.ts import TsValue, unit_step
from repro.events.clock import Timestamp
from repro.events.event_base import WindowLike
from repro.obs.stats import MergeableStats

__all__ = [
    "EvaluationMode",
    "EvaluationStats",
    "ts",
    "ots",
    "evaluate",
    "is_active",
    "active_objects",
    "activation_instants",
]


class EvaluationMode(Enum):
    """Which of the paper's two equivalent formulations drives the evaluator."""

    LOGICAL = "logical"
    ALGEBRAIC = "algebraic"


@dataclass
class EvaluationStats(MergeableStats):
    """Counters describing the work done by the evaluator.

    They measure work in counts rather than time: how many primitive look-ups
    and node visits a Trigger Support performs with and without the ``V(E)``
    filter.  ``as_dict()``/``merge()`` follow the
    shared :class:`~repro.obs.stats.MergeableStats` protocol (``merge`` is
    hand-written — it runs once per shard batch on the check path).
    """

    node_visits: int = 0
    primitive_lookups: int = 0
    lifted_objects: int = 0
    evaluations: int = 0

    def merge(self, other: "EvaluationStats") -> None:
        """Accumulate another stats record into this one."""
        self.node_visits += other.node_visits
        self.primitive_lookups += other.primitive_lookups
        self.lifted_objects += other.lifted_objects
        self.evaluations += other.evaluations

    def reset(self) -> None:
        """Zero every counter."""
        self.node_visits = 0
        self.primitive_lookups = 0
        self.lifted_objects = 0
        self.evaluations = 0


_NULL_STATS = EvaluationStats()


# ---------------------------------------------------------------------------
# Set-oriented semantics
# ---------------------------------------------------------------------------


def ts(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> int:
    """The set-oriented ``ts`` function of the paper, as a raw signed integer.

    ``window`` is the occurrence set ``R`` the calculus applies to; ``instant``
    is the evaluation time ``t``.  The result is positive (an activation time
    stamp) when the expression is active and ``-t`` otherwise.
    """
    if instant <= 0:
        raise EvaluationError(
            f"ts must be evaluated at a positive instant (got {instant})"
        )
    recorder = stats if stats is not None else _NULL_STATS
    recorder.evaluations += 1
    return _ts(expression, window, instant, mode, recorder)


def _ts(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    mode: EvaluationMode,
    stats: EvaluationStats,
) -> int:
    stats.node_visits += 1

    if isinstance(expression, Primitive):
        stats.primitive_lookups += 1
        last = window.last_timestamp(expression.event_type, instant)
        return last if last is not None else -instant

    if isinstance(expression, SetNegation):
        return -_ts(expression.operand, window, instant, mode, stats)

    if isinstance(expression, SetConjunction):
        left = _ts(expression.left, window, instant, mode, stats)
        right = _ts(expression.right, window, instant, mode, stats)
        return _combine_conjunction(left, right, mode)

    if isinstance(expression, SetDisjunction):
        left = _ts(expression.left, window, instant, mode, stats)
        right = _ts(expression.right, window, instant, mode, stats)
        return _combine_disjunction(left, right, mode)

    if isinstance(expression, SetPrecedence):
        right = _ts(expression.right, window, instant, mode, stats)
        if right > 0:
            left_at_right = _ts(expression.left, window, right, mode, stats)
        else:
            # u(ts(B, t)) = 0 annihilates the whole positive term, so the value
            # of ts(A, ts(B, t)) is irrelevant; skip the ill-defined nested
            # evaluation at a non-positive instant.
            left_at_right = -instant
        return _combine_precedence(right, left_at_right, instant, mode)

    # Instance-oriented sub-expression inside a set-oriented context: lift it
    # over the objects mentioned by the window (paper §4.4, "ots to ts").
    if expression.is_instance_oriented:
        return _lift(expression, window, instant, mode, stats)

    raise EvaluationError(f"cannot evaluate node of type {type(expression).__name__}")


def _combine_conjunction(left: int, right: int, mode: EvaluationMode) -> int:
    if mode is EvaluationMode.ALGEBRAIC:
        both = unit_step(left) * unit_step(right)
        return min(left, right) * (1 - both) + max(left, right) * both
    if left > 0 and right > 0:
        return max(left, right)
    return min(left, right)


def _combine_disjunction(left: int, right: int, mode: EvaluationMode) -> int:
    if mode is EvaluationMode.ALGEBRAIC:
        neither = unit_step(-left) * unit_step(-right)
        return max(left, right) * (1 - neither) + min(left, right) * neither
    if left > 0 or right > 0:
        return max(left, right)
    return min(left, right)


def _combine_precedence(
    right: int, left_at_right: int, instant: Timestamp, mode: EvaluationMode
) -> int:
    if mode is EvaluationMode.ALGEBRAIC:
        satisfied = unit_step(right) * unit_step(left_at_right)
        return -instant * (1 - satisfied) + right * satisfied
    if right > 0 and left_at_right > 0:
        return right
    return -instant


# ---------------------------------------------------------------------------
# Instance-oriented semantics
# ---------------------------------------------------------------------------


def ots(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> int:
    """The instance-oriented ``ots`` function for object ``oid``.

    Only primitives and instance-oriented operators may appear in the
    expression (the paper forbids set-oriented operators below instance ones).
    """
    if instant <= 0:
        raise EvaluationError(
            f"ots must be evaluated at a positive instant (got {instant})"
        )
    if not expression.may_be_instance_operand():
        raise EvaluationError(
            "ots is only defined for instance-oriented expressions "
            f"(got a set-oriented operator in {expression})"
        )
    recorder = stats if stats is not None else _NULL_STATS
    recorder.evaluations += 1
    return _ots(expression, window, instant, oid, mode, recorder)


def _ots(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any,
    mode: EvaluationMode,
    stats: EvaluationStats,
) -> int:
    stats.node_visits += 1

    if isinstance(expression, Primitive):
        stats.primitive_lookups += 1
        last = window.last_timestamp_on(expression.event_type, oid, instant)
        return last if last is not None else -instant

    if isinstance(expression, InstanceNegation):
        return -_ots(expression.operand, window, instant, oid, mode, stats)

    if isinstance(expression, InstanceConjunction):
        left = _ots(expression.left, window, instant, oid, mode, stats)
        right = _ots(expression.right, window, instant, oid, mode, stats)
        return _combine_conjunction(left, right, mode)

    if isinstance(expression, InstanceDisjunction):
        left = _ots(expression.left, window, instant, oid, mode, stats)
        right = _ots(expression.right, window, instant, oid, mode, stats)
        return _combine_disjunction(left, right, mode)

    if isinstance(expression, InstancePrecedence):
        right = _ots(expression.right, window, instant, oid, mode, stats)
        if right > 0:
            left_at_right = _ots(expression.left, window, right, oid, mode, stats)
        else:
            left_at_right = -instant
        return _combine_precedence(right, left_at_right, instant, mode)

    raise EvaluationError(
        f"set-oriented operator {type(expression).__name__} cannot appear in an "
        "instance-oriented evaluation"
    )


def _lift(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    mode: EvaluationMode,
    stats: EvaluationStats,
) -> int:
    """Lift an instance-oriented expression to the set level (paper §4.4).

    Conjunction, disjunction and precedence are existential over objects ("at
    least one object affected by ..."): the lifted value is the maximum ``ots``
    over the candidate objects.  Instance negation is universal ("no object
    ..."): the lifted value is the minimum ``ots``, positive exactly when the
    negation holds for every candidate.  The candidates are the objects
    affected, within the window, by occurrences of the event types the
    sub-expression mentions — an object about which none of those events
    happened is not "affected by" the composite event (and ranging over
    unrelated objects would otherwise let a fresh, untouched object vacuously
    satisfy negation-only conjunctions).  An empty candidate set makes
    existential lifts inactive and negation vacuously active.
    """
    oids = window.objects_affected_by(expression.event_types(), until=instant)
    stats.lifted_objects += len(oids)
    if isinstance(expression, InstanceNegation):
        if not oids:
            return instant
        return min(_ots(expression, window, instant, oid, mode, stats) for oid in oids)
    if not oids:
        return -instant
    return max(_ots(expression, window, instant, oid, mode, stats) for oid in oids)


# ---------------------------------------------------------------------------
# Public wrappers
# ---------------------------------------------------------------------------


def evaluate(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any | None = None,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> TsValue:
    """Evaluate an expression and wrap the result in a :class:`TsValue`.

    With ``oid=None`` this is the set-oriented ``ts``; with an OID it is the
    instance-oriented ``ots`` for that object.
    """
    if oid is None:
        value = ts(expression, window, instant, mode, stats)
    else:
        value = ots(expression, window, instant, oid, mode, stats)
    return TsValue(value=value, instant=instant)


def is_active(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    oid: Any | None = None,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
) -> bool:
    """Convenience: True when the expression is active at ``instant``."""
    return evaluate(expression, window, instant, oid=oid, mode=mode).is_active


def active_objects(
    expression: EventExpression,
    window: WindowLike,
    instant: Timestamp,
    candidates: Iterable[Any] | None = None,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
    stats: EvaluationStats | None = None,
) -> set[Any]:
    """Objects for which an instance-oriented expression is active.

    This is the binding set computed by the ``occurred`` event formula: the
    OIDs affected by the specified (instance-oriented) event expression within
    the window.  ``candidates`` defaults to every OID mentioned by the window.
    The instant and the expression are validated once, not once per OID.
    """
    if instant <= 0:
        raise EvaluationError(
            f"ots must be evaluated at a positive instant (got {instant})"
        )
    if not expression.may_be_instance_operand():
        raise EvaluationError(
            "occurred/active_objects only accept instance-oriented expressions "
            f"(got {expression})"
        )
    pool = set(candidates) if candidates is not None else window.oids()
    recorder = stats if stats is not None else _NULL_STATS
    recorder.evaluations += len(pool)
    return {
        oid
        for oid in pool
        if _ots(expression, window, instant, oid, mode, recorder) > 0
    }


def activation_instants(
    expression: EventExpression,
    window: WindowLike,
    oid: Any,
    until: Timestamp,
    mode: EvaluationMode = EvaluationMode.LOGICAL,
) -> list[Timestamp]:
    """Instants at which the expression *arises* for ``oid`` (the ``at`` formula).

    An expression arises at ``t*`` when its ``ots`` evaluated at ``t*`` equals
    ``t*`` itself — i.e. the composite event occurs exactly then.  Candidate
    instants are the distinct time stamps present in the window; for the
    paper's example (a creation followed by two quantity updates, queried with
    ``create(stock) <= modify(stock.quantity)``) this yields exactly the two
    update instants.
    """
    instants: list[Timestamp] = []
    for candidate in window.timestamps():
        if candidate > until:
            break
        if ots(expression, window, candidate, oid, mode) == candidate:
            instants.append(candidate)
    return instants
