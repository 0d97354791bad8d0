"""Rule (trigger) definitions and their run-time state.

A Chimera rule has five static ingredients — a triggering event expression, a
condition, an action, an Event-Condition coupling mode and an event-consumption
mode — plus a priority and an optional target class.  Its dynamic state is
deliberately tiny (paper §5): a ``triggered`` flag, the time stamp of the last
consideration and the time stamp of the last event consumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from repro.core.compile import CompiledCheck, Shape

from repro.core.expressions import EventExpression
from repro.core.triggering import TriggerMemo
from repro.errors import RuleDefinitionError
from repro.events.clock import Timestamp
from repro.events.event import EventType
from repro.rules.actions import Action
from repro.rules.conditions import Condition

__all__ = ["ECCoupling", "ConsumptionMode", "Rule", "RuleState", "RuleStateObserver"]


class ECCoupling(Enum):
    """Event-Condition coupling: when a triggered rule is considered."""

    IMMEDIATE = "immediate"
    DEFERRED = "deferred"


class ConsumptionMode(Enum):
    """Which event occurrences a rule's condition can observe.

    ``CONSUMING`` — only occurrences newer than the rule's last consideration;
    ``PRESERVING`` — every occurrence since the beginning of the transaction.
    """

    CONSUMING = "consuming"
    PRESERVING = "preserving"


@dataclass
class Rule:
    """A trigger definition (static part)."""

    name: str
    events: EventExpression
    condition: Condition
    action: Action
    coupling: ECCoupling = ECCoupling.IMMEDIATE
    consumption: ConsumptionMode = ConsumptionMode.CONSUMING
    priority: int = 0
    target_class: str | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise RuleDefinitionError(f"invalid rule name: {self.name!r}")
        if self.target_class is not None:
            mismatched = [
                str(event_type)
                for event_type in self.events.event_types()
                if event_type.class_name != self.target_class
            ]
            if mismatched:
                raise RuleDefinitionError(
                    f"rule {self.name!r} is targeted to class {self.target_class!r} but its "
                    f"event expression mentions other classes: {', '.join(mismatched)}"
                )

    def describe(self) -> str:
        """A multi-line human-readable summary of the rule."""
        target = f" for {self.target_class}" if self.target_class else ""
        return (
            f"define {self.coupling.value} {self.name}{target}\n"
            f"  events     {self.events}\n"
            f"  condition  {self.condition}\n"
            f"  action     {self.action}\n"
            f"  priority {self.priority}, {self.consumption.value}"
        )

    def __str__(self) -> str:
        return f"Rule({self.name})"


class RuleStateObserver(Protocol):
    """Who gets told when a rule state's triggering flags change.

    The Rule Table registers itself as the observer of every state it owns.
    Every change of the ``triggered`` or ``rider`` flag notifies it
    (``mark_triggered``, ``mark_considered``, ``disarm``, ``reset``), so its
    priority queue of triggered rules and its set of riders are exact at all
    times without a rescan of the table.  States created outside a table
    have no observer.
    """

    def state_changed(self, state: "RuleState") -> None: ...


@dataclass
class RuleState:
    """The dynamic part of a rule (paper §5: Rule Table entry).

    Beside the paper's flag and time stamps, a state carries what the
    ``V(E)`` routing needs: the watched types, the expression's shape, its
    vacuity and the *rider* flag.  A rider is checked on every block whatever
    the block's types; a rule is one from its add or enable until one check,
    and again after each consideration or reset only when it is vacuous.
    """

    rule: Rule
    triggered: bool = False
    enabled: bool = True
    last_consideration: Timestamp | None = None
    last_consumption: Timestamp | None = None
    definition_order: int = 0
    #: The positive side of the rule's ``V(E)``
    #: (:func:`repro.core.optimization.watched_event_types`), set by the Rule
    #: Table, which indexes the rule under these types.
    watched_types: tuple[EventType, ...] = ()
    #: ``(shape key, slot types)`` of the rule's expression
    #: (:func:`repro.core.compile.shape_of`), set by the Rule Table: the first
    #: binding reads it instead of walking the expression again.
    shape: "Shape | None" = field(default=None, repr=False, compare=False)
    #: True when the expression is active over an empty log (``ts(E, {}, 1) >
    #: 0``, e.g. a pure negation): only ``R != {}`` blocks it, so *any* new
    #: occurrence can trigger it, whatever its type.  Set by the Rule Table
    #: from the shape; a state built without a table is taken as vacuous.
    vacuous: bool = True
    #: True while the rule is a *rider*: the planner checks it on every block,
    #: whatever the block's types, because the ``V(E)`` index cannot be
    #: trusted for it yet.  A rule is armed when it is added or re-enabled
    #: (its window may hold rows no later block routes again), and re-armed
    #: by a consideration or a reset only if it is vacuous (the window is
    #: then empty, and a non-vacuous rule's ``ts`` over it is negative).  A
    #: check disarms a non-vacuous rule, and a vacuous one once its window
    #: was non-empty (:meth:`disarm`).
    rider: bool = True
    #: Incremental state of the exact triggering check: which instants of the
    #: current window have already been sampled negative.  Only valid between
    #: considerations — cleared by mark_considered/reset (the window start
    #: moves) and by the check itself when the rule triggers.
    trigger_memo: TriggerMemo = field(default_factory=TriggerMemo, repr=False)
    #: The rule's binding to its evaluator's shape kernels, made by the
    #: Trigger Support on the rule's first check (None until then, and for
    #: good on the coordinator of the ``processes`` mode when a worker
    #: process is the rule's evaluation home and holds the binding).
    compiled_check: "CompiledCheck | None" = field(
        default=None, repr=False, compare=False
    )
    #: Set by the owning Rule Table; notified whenever the triggered flag or
    #: the window bookkeeping changes so derived indexes stay in sync.
    observer: RuleStateObserver | None = field(default=None, repr=False, compare=False)
    # bookkeeping for experiments
    times_triggered: int = 0
    times_considered: int = 0
    times_executed: int = 0
    ts_computations: int = 0

    def _notify(self) -> None:
        if self.observer is not None:
            self.observer.state_changed(self)

    def mark_triggered(self, instant: Timestamp) -> None:
        """Record the rule's transition to the triggered state."""
        self.triggered = True
        self.times_triggered += 1
        self._notify()

    def disarm(self) -> None:
        """A check saw the rule's window: the ``V(E)`` index routes it now."""
        self.rider = False
        self._notify()

    def mark_considered(self, instant: Timestamp, executed: bool) -> None:
        """Record a consideration (and possible execution) and detrigger the rule."""
        self.triggered = False
        self.times_considered += 1
        self.last_consideration = instant
        self.rider = self.vacuous
        self.trigger_memo.clear()
        if self.rule.consumption is ConsumptionMode.CONSUMING:
            self.last_consumption = instant
        if executed:
            self.times_executed += 1
        self._notify()

    def reset(self, transaction_start: Timestamp) -> None:
        """Reset the state at a transaction boundary.

        The windows restart at ``transaction_start``, past which the log
        holds no row yet (a new transaction's, or a rule defined "now"), so
        only a vacuous rule rides.
        """
        self.triggered = False
        self.last_consideration = transaction_start
        self.last_consumption = transaction_start
        self.rider = self.vacuous
        self.trigger_memo.clear()
        self._notify()

    def observation_window_start(self, transaction_start: Timestamp) -> Timestamp:
        """Lower bound of the window visible to the rule's event formulas."""
        if self.rule.consumption is ConsumptionMode.PRESERVING:
            return transaction_start
        if self.last_consumption is None:
            return transaction_start
        return max(self.last_consumption, transaction_start)

    def trigger_window_start(self, transaction_start: Timestamp) -> Timestamp:
        """Lower bound of the window used by the triggering predicate ``T(r, t)``."""
        if self.last_consideration is None:
            return transaction_start
        return max(self.last_consideration, transaction_start)
