"""Transactions and transaction lines.

Chimera processes a transaction as a sequence of *non-interruptible execution
blocks*: the user's transaction lines and the actions of triggered rules.
After every block the Event Handler receives the freshly generated event
occurrences and the Trigger Support looks for newly triggered rules; immediate
rules are considered right away, deferred rules at ``commit``.

:class:`Transaction` is the user-facing handle.  Every data-manipulation call
(``create``, ``modify``, ...) is one transaction line; :meth:`Transaction.line`
groups several operations into a single block, which matters for composite
events whose operands must belong to the same or different blocks.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import TransactionError
from repro.events.clock import Timestamp
from repro.oodb.objects import OID, ChimeraObject
from repro.oodb.operations import OperationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.oodb.database import ChimeraDatabase

__all__ = ["TransactionStatus", "Transaction"]


class TransactionStatus(Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled back"


class Transaction:
    """A handle over one Chimera transaction.

    Usually obtained from :meth:`repro.oodb.database.ChimeraDatabase.transaction`
    and used as a context manager: the transaction commits on normal exit and
    rolls back if the block raises.
    """

    def __init__(self, database: "ChimeraDatabase") -> None:
        self._database = database
        self.status = TransactionStatus.ACTIVE
        self.start_time: Timestamp = database.clock.now()
        self.lines_executed = 0

    # -- control -----------------------------------------------------------
    def _require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionError(
                f"transaction is {self.status.value}; no further operations"
            )

    def commit(self) -> None:
        """Run deferred rules, make the transaction's effects final."""
        self._require_active()
        self._database._commit_transaction(self)
        self.status = TransactionStatus.COMMITTED

    def rollback(self) -> None:
        """Undo every effect of the transaction (including rule actions).

        The object store journals a before-image for every ``create`` /
        ``modify`` / ``delete`` / ``specialize`` / ``generalize`` since the
        transaction began — whether a transaction line, a rule action or a
        Python action holding ``operations.store`` made it — and replays the
        journal backwards, in place: objects, extents and OID serials end up
        as they were, at a cost proportional to what the transaction did.
        The store's mutators are the only supported write path; a direct
        write to ``obj.attributes`` is not journalled and is not undone.
        """
        self._require_active()
        self._database._rollback_transaction(self)
        self.status = TransactionStatus.ROLLED_BACK

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status is not TransactionStatus.ACTIVE:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    # -- transaction lines ----------------------------------------------------
    def line(self, block: Callable[["Transaction"], Any]) -> Any:
        """Run several operations as a single non-interruptible block.

        ``block`` receives a :class:`_LineContext` exposing the raw operations;
        rule processing happens only once, after the whole block.
        """
        self._require_active()
        outcome = self._database._run_line(
            self, lambda: block(_LineContext(self._database))
        )
        self.lines_executed += 1
        return outcome

    def _single_operation(
        self, operation: Callable[[], OperationResult]
    ) -> OperationResult:
        self._require_active()
        result = self._database._run_line(self, operation)
        self.lines_executed += 1
        return result

    # -- operations (each is one transaction line) -----------------------------
    def create(
        self, class_name: str, values: Mapping[str, Any] | None = None
    ) -> ChimeraObject:
        """Create an object; returns it (its OID is ``.oid``)."""
        result = self._single_operation(
            lambda: self._database.operations.create(class_name, values)
        )
        return result.object

    def modify(self, oid: OID, attribute: str, value: Any) -> ChimeraObject:
        """Set one attribute of the object identified by ``oid``."""
        result = self._single_operation(
            lambda: self._database.operations.modify(oid, attribute, value)
        )
        return result.object

    def delete(self, oid: OID) -> ChimeraObject:
        """Delete the object identified by ``oid``."""
        result = self._single_operation(lambda: self._database.operations.delete(oid))
        return result.object

    def specialize(self, oid: OID, subclass: str) -> ChimeraObject:
        """Move an object down the class hierarchy."""
        result = self._single_operation(
            lambda: self._database.operations.specialize(oid, subclass)
        )
        return result.object

    def generalize(self, oid: OID, superclass: str) -> ChimeraObject:
        """Move an object up the class hierarchy."""
        result = self._single_operation(
            lambda: self._database.operations.generalize(oid, superclass)
        )
        return result.object

    def select(
        self,
        class_name: str,
        predicate: Callable[[ChimeraObject], bool] | None = None,
    ) -> list[ChimeraObject]:
        """Query a class extent (generates ``select`` events when enabled)."""
        result = self._single_operation(
            lambda: self._database.operations.select(class_name, predicate)
        )
        return list(result.objects)


class _LineContext:
    """Raw operations exposed to :meth:`Transaction.line` blocks.

    The context talks directly to the operation executor: events are recorded,
    but rule processing is postponed until the whole block finishes.
    """

    def __init__(self, database: "ChimeraDatabase") -> None:
        self._operations = database.operations

    def create(
        self, class_name: str, values: Mapping[str, Any] | None = None
    ) -> ChimeraObject:
        return self._operations.create(class_name, values).object

    def modify(self, oid: OID, attribute: str, value: Any) -> ChimeraObject:
        return self._operations.modify(oid, attribute, value).object

    def delete(self, oid: OID) -> ChimeraObject:
        return self._operations.delete(oid).object

    def specialize(self, oid: OID, subclass: str) -> ChimeraObject:
        return self._operations.specialize(oid, subclass).object

    def generalize(self, oid: OID, superclass: str) -> ChimeraObject:
        return self._operations.generalize(oid, superclass).object

    def select(
        self,
        class_name: str,
        predicate: Callable[[ChimeraObject], bool] | None = None,
    ) -> list[ChimeraObject]:
        return list(self._operations.select(class_name, predicate).objects)
