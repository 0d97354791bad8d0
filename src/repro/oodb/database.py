"""The Chimera database facade.

:class:`ChimeraDatabase` wires every component together: the schema, the
object store, the logical clock, the Event Base, the operation executor and the
active-rule engine (Event Handler, Trigger Support, Block Executor).  It is the
entry point used by the examples, the workloads and most tests::

    db = ChimeraDatabase()
    db.define_class("stock", {"quantity": int, "maxquantity": int})
    db.define_rule(CHECK_STOCK_QTY_RULE_TEXT)
    with db.transaction() as tx:
        item = tx.create("stock", {"quantity": 140, "maxquantity": 100})

Transactions follow the paper's processing model: every user operation (or
explicit :meth:`Transaction.line` block) is a non-interruptible block; after
each block, immediate rules are processed to quiescence; at commit, deferred
rules are processed; the Event Base is transaction-scoped.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.config import EngineConfig
from repro.errors import TransactionError
from repro.events.clock import TransactionClock
from repro.events.event_base import EventBase
from repro.oodb.objects import OID, ChimeraObject, ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import ClassDefinition, Schema
from repro.oodb.transactions import Transaction
from repro.rules.executor import ConsiderationRecord, RuleEngine
from repro.rules.language import parse_rule
from repro.rules.rule import Rule, RuleState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = ["ChimeraDatabase"]


class ChimeraDatabase:
    """An in-memory active object-oriented database in the style of Chimera."""

    def __init__(
        self,
        emit_select_events: bool = True,
        metrics: "MetricsRegistry | None" = None,
        **settings: Any,
    ) -> None:
        """``settings`` are :class:`~repro.config.EngineConfig` fields
        (``shards=4, shard_mode="processes"`` checks rules on the coordinator
        and three worker processes; ``max_rule_executions=...``); whatever is
        not given comes from the ``CHIMERA_*`` environment and then the
        defaults.  ``metrics=None`` lets the engine create its own enabled
        registry; pass ``MetricsRegistry(enabled=False)`` to run uninstrumented.
        """
        self.config = EngineConfig.from_env(**settings)
        self.schema = Schema()
        self.store = ObjectStore()
        self.clock = TransactionClock()
        self.event_base = EventBase()
        self.operations = OperationExecutor(
            self.schema,
            self.store,
            self.event_base,
            self.clock,
            emit_select_events=emit_select_events,
        )
        self.engine = RuleEngine(
            schema=self.schema,
            store=self.store,
            event_base=self.event_base,
            clock=self.clock,
            operations=self.operations,
            config=self.config,
            metrics=metrics,
        )
        self.rule_table = self.engine.rule_table
        self._active_transaction: Transaction | None = None

    def close(self) -> None:
        """Release engine worker pools (idempotent; also runs via finalizers)."""
        self.engine.close()

    # ------------------------------------------------------------------
    # Schema and rule definition
    # ------------------------------------------------------------------
    def define_class(
        self,
        name: str,
        attributes: Mapping[str, Any] | Iterable[str] | None = None,
        superclass: str | None = None,
    ) -> ClassDefinition:
        """Declare a class in the schema."""
        return self.schema.define(name, attributes, superclass)

    def define_rule(self, rule: Rule | str) -> Rule:
        """Register an active rule, given either a :class:`Rule` or its textual form."""
        parsed = parse_rule(rule) if isinstance(rule, str) else rule
        self.rule_table.add(parsed).reset(self.clock.now())
        return parsed

    def define_rules(self, text: str) -> list[Rule]:
        """Register several textual rule definitions at once."""
        from repro.rules.language import parse_rules

        return [self.define_rule(rule) for rule in parse_rules(text)]

    def drop_rule(self, name: str) -> Rule:
        """Remove a rule definition."""
        return self.rule_table.remove(name)

    def enable_rule(self, name: str) -> None:
        """Re-enable a disabled rule."""
        self.rule_table.enable(name)

    def disable_rule(self, name: str) -> None:
        """Disable a rule without dropping its definition."""
        self.rule_table.disable(name)

    def rule_state(self, name: str) -> RuleState:
        """The run-time state record of a rule (triggered flag, counters, ...)."""
        return self.rule_table.get(name)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def transaction(self) -> Transaction:
        """Start a transaction (at most one can be active at a time)."""
        if self._active_transaction is not None:
            raise TransactionError("a transaction is already active")
        # The EB is the transaction's log (paper §4.1): emptied, not replaced.
        self.engine.begin_transaction()
        self.store.begin()
        transaction = Transaction(self)
        self._active_transaction = transaction
        return transaction

    def _require_transaction(self, transaction: Transaction) -> None:
        if self._active_transaction is not transaction:
            raise TransactionError("this transaction is not the active one")

    def _run_line(self, transaction: Transaction, block: Callable[[], Any]) -> Any:
        """Run one user block and then the immediate-rule processing loop."""
        self._require_transaction(transaction)
        return self.engine.run_user_block(block)

    def _commit_transaction(self, transaction: Transaction) -> None:
        self._require_transaction(transaction)
        self.engine.process_commit()
        self.store.commit()
        self._active_transaction = None

    def _rollback_transaction(self, transaction: Transaction) -> None:
        self._require_transaction(transaction)
        self.store.rollback()
        # End at the one transaction boundary, so nothing of the aborted
        # transaction stays readable: its log rows, pending rows, triggerings.
        self.engine.begin_transaction()
        self._active_transaction = None

    def raise_event(
        self,
        transaction: Transaction,
        name: str,
        subject: Any = "external",
        payload: Mapping[str, Any] | None = None,
    ) -> Any:
        """Raise an external event (extension) as its own execution block.

        External events use the ``raise(<name>)`` event type; rules whose event
        expressions mention them are processed exactly like rules on internal
        events.  The call must happen inside the given active transaction.
        """
        from repro.events.timers import ExternalEventSource

        self._require_transaction(transaction)
        source = ExternalEventSource(self.event_base, self.clock)
        return self.engine.run_user_block(
            lambda: source.raise_event(name, subject=subject, payload=payload)
        )

    def run_transaction(self, *lines: Callable[[Any], Any]) -> Transaction:
        """Run a whole transaction from callables (one block per callable)."""
        transaction = self.transaction()
        try:
            for line in lines:
                transaction.line(line)
        except Exception:
            transaction.rollback()
            raise
        transaction.commit()
        return transaction

    # ------------------------------------------------------------------
    # Direct queries (outside transactions; no events generated)
    # ------------------------------------------------------------------
    def get(self, oid: OID) -> ChimeraObject:
        """Fetch an object by OID without generating events."""
        return self.store.get(oid)

    def select(
        self,
        class_name: str,
        predicate: Callable[[ChimeraObject], bool] | None = None,
    ) -> list[ChimeraObject]:
        """Query a class extent without generating events."""
        subclasses = self.schema.descendants(class_name)
        return self.store.select(class_name, predicate, subclasses)

    def count(self, class_name: str | None = None) -> int:
        """Number of live objects, optionally restricted to one class."""
        return self.store.count(class_name)

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    @property
    def considerations(self) -> list[ConsiderationRecord]:
        """Every rule consideration performed so far (all transactions)."""
        return self.engine.considerations

    def trigger_statistics(self) -> dict[str, int]:
        """Counters of the Trigger Support (ts computations, filter skips, ...)."""
        return dataclasses.asdict(self.engine.trigger_support.stats)

    def metrics_snapshot(self) -> dict[str, Any]:
        """One metrics snapshot covering the whole logical engine.

        Counters fold in every registered stats source (``trigger.*``,
        ``cluster.*``, ``pool.*``) plus the live counters — including
        ``worker.*`` deltas merged back from process shard workers —
        alongside the span histograms.
        """
        return self.engine.metrics_snapshot()

    def rule_statistics(self) -> dict[str, dict[str, int]]:
        """Per-rule counters: triggered / considered / executed / ts computations."""
        return {
            state.rule.name: {
                "triggered": state.times_triggered,
                "considered": state.times_considered,
                "executed": state.times_executed,
                "ts_computations": state.ts_computations,
            }
            for state in self.rule_table.states()
        }
