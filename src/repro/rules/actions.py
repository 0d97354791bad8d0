"""Rule actions: the database manipulations executed after a successful condition.

Chimera executes rules in a set-oriented way: the action is applied once per
binding produced by the condition, within a single non-interruptible block.
Every statement goes through the :class:`~repro.oodb.operations.OperationExecutor`,
so rule actions generate event occurrences exactly like user transaction lines
do — which is what allows rules to trigger other rules (or themselves).

An action returns nothing: the operations record its occurrences in the Event
Base, which is their only record, and the engine's flush after the action
hands the block's type signature to the Trigger Support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ActionError
from repro.oodb.objects import OID
from repro.oodb.operations import OperationExecutor
from repro.rules.terms import Binding, Term

__all__ = [
    "ActionStatement",
    "ModifyStatement",
    "CreateStatement",
    "DeleteStatement",
    "CallableStatement",
    "Action",
    "NO_ACTION",
]


class ActionStatement:
    """Base class of action statements."""

    def execute(self, binding: Binding, operations: OperationExecutor) -> None:
        """Run the statement for one binding."""
        raise NotImplementedError


def _resolve_oid(term: Term, binding: Binding, operations: OperationExecutor) -> OID:
    value = term.evaluate(binding, operations.store)
    if not isinstance(value, OID):
        raise ActionError(f"{term} does not denote an object (got {value!r})")
    return value


@dataclass(frozen=True)
class ModifyStatement(ActionStatement):
    """``modify(class.attribute, S, <value>)`` — set an attribute of the bound object."""

    class_name: str
    attribute: str
    target: Term
    value: Term

    def execute(self, binding: Binding, operations: OperationExecutor) -> None:
        oid = _resolve_oid(self.target, binding, operations)
        obj = operations.store.get(oid)
        if not operations.schema.is_subclass(obj.class_name, self.class_name):
            raise ActionError(
                f"modify targets class {self.class_name!r} but {oid} belongs to "
                f"{obj.class_name!r}"
            )
        value = self.value.evaluate(binding, operations.store)
        operations.modify(oid, self.attribute, value)

    def __str__(self) -> str:
        return (
            f"modify({self.class_name}.{self.attribute}, {self.target}, {self.value})"
        )


@dataclass(frozen=True)
class CreateStatement(ActionStatement):
    """``create(class, attribute=value, ...)`` — create a new object."""

    class_name: str
    values: tuple[tuple[str, Term], ...] = ()
    #: Optional variable that receives the created object's OID, so later
    #: statements of the same action can refer to it.
    bind_as: str | None = None

    def execute(self, binding: Binding, operations: OperationExecutor) -> None:
        concrete = {
            attribute: term.evaluate(binding, operations.store)
            for attribute, term in self.values
        }
        result = operations.create(self.class_name, concrete)
        if self.bind_as is not None and isinstance(binding, dict):
            binding[self.bind_as] = result.object.oid

    def __str__(self) -> str:
        rendered = ", ".join(f"{attribute}={term}" for attribute, term in self.values)
        suffix = f" as {self.bind_as}" if self.bind_as else ""
        return f"create({self.class_name}{', ' + rendered if rendered else ''}){suffix}"


@dataclass(frozen=True)
class DeleteStatement(ActionStatement):
    """``delete(S)`` — delete the bound object."""

    target: Term

    def execute(self, binding: Binding, operations: OperationExecutor) -> None:
        oid = _resolve_oid(self.target, binding, operations)
        # The object may already have been deleted by a previous binding of
        # the same set-oriented execution; deleting twice is a no-op.
        if operations.store.exists(oid):
            operations.delete(oid)

    def __str__(self) -> str:
        return f"delete({self.target})"


@dataclass(frozen=True)
class CallableStatement(ActionStatement):
    """Programmatic escape hatch: run a Python callable as the action body.

    The callable receives ``(binding, operations)``; the operations it runs
    record their occurrences in the Event Base like any statement's, and
    whatever it returns is ignored.
    """

    function: Callable[[Binding, OperationExecutor], Any]
    description: str = "callable"

    def execute(self, binding: Binding, operations: OperationExecutor) -> None:
        self.function(binding, operations)

    def __str__(self) -> str:
        return f"<{self.description}>"


@dataclass
class Action:
    """An ordered sequence of statements applied to every condition binding."""

    statements: Sequence[ActionStatement] = field(default_factory=tuple)

    def execute(
        self,
        bindings: Sequence[Mapping[str, Any]],
        operations: OperationExecutor,
    ) -> None:
        """Run the action for every binding."""
        for binding in bindings:
            # Statements may extend the binding (``create ... as X``); keep a
            # mutable copy so the extension stays local to this binding.
            local = dict(binding)
            for statement in self.statements:
                statement.execute(local, operations)

    def __str__(self) -> str:
        if not self.statements:
            return "skip"
        return ", ".join(str(statement) for statement in self.statements)


#: The empty action (useful for rules that only exist to be observed in tests).
NO_ACTION = Action(())
