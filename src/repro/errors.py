"""Exception hierarchy for the Chimera composite-event reproduction.

Every error raised by the library derives from :class:`ChimeraError`, so
callers can catch a single base class.  Sub-hierarchies mirror the package
layout: event-calculus errors, schema/object-store errors, rule-system errors
and parser errors.
"""

from __future__ import annotations


class ChimeraError(Exception):
    """Base class of every error raised by this library."""


class ConfigError(ChimeraError, ValueError):
    """An engine setting is malformed or out of range.

    Raised by :class:`repro.config.EngineConfig` — the one validation site —
    with the offending field (and environment variable, when the value came
    from one) in the message.
    """


# ---------------------------------------------------------------------------
# Event calculus
# ---------------------------------------------------------------------------


class EventCalculusError(ChimeraError):
    """Base class for errors raised while building or evaluating expressions."""


class ExpressionSyntaxError(EventCalculusError):
    """A textual event expression could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1) -> None:
        self.text = text
        self.position = position
        if text and position >= 0:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)


class CompositionError(EventCalculusError):
    """An operator was composed in a way the calculus forbids.

    The paper restricts instance-oriented operators: they cannot be applied to
    sub-expressions built with set-oriented operators (Section 3.2).
    """


class EvaluationError(EventCalculusError):
    """An event expression could not be evaluated over the given window."""


class SnapshotError(EventCalculusError):
    """A process shard worker's message could not cross, or its delta was refused.

    Raised in the coordinator, before anything is sent, when a message does
    not pickle — naming the offending occurrence's EID when its OID is the
    cause — so the failure surfaces synchronously in the caller, not as a
    crashed shard worker.  A worker raises it for a delta that does not
    continue its mirror (``repro.cluster.transport.apply_delta``).
    """


# ---------------------------------------------------------------------------
# Object store / schema
# ---------------------------------------------------------------------------


class DatabaseError(ChimeraError):
    """Base class for schema and object-store errors."""


class SchemaError(DatabaseError):
    """A class definition is invalid or refers to unknown classes/attributes."""


class UnknownClassError(SchemaError):
    """An operation referenced a class that is not part of the schema."""

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name
        super().__init__(f"unknown class: {class_name!r}")


class UnknownAttributeError(SchemaError):
    """An operation referenced an attribute not declared by the class."""

    def __init__(self, class_name: str, attribute: str) -> None:
        self.class_name = class_name
        self.attribute = attribute
        super().__init__(f"class {class_name!r} has no attribute {attribute!r}")


class UnknownObjectError(DatabaseError):
    """An operation referenced an OID that does not exist (or was deleted)."""

    def __init__(self, oid: object) -> None:
        self.oid = oid
        super().__init__(f"unknown object: {oid!r}")


class TransactionError(DatabaseError):
    """A transaction was used in an invalid state (e.g. after commit)."""


class QueryError(DatabaseError):
    """A declarative query/condition formula is malformed."""


# ---------------------------------------------------------------------------
# Rule system
# ---------------------------------------------------------------------------


class RuleError(ChimeraError):
    """Base class for active-rule errors."""


class RuleDefinitionError(RuleError):
    """A rule definition is syntactically or semantically invalid."""


class DuplicateRuleError(RuleDefinitionError):
    """A rule with the same name is already registered."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"a rule named {name!r} is already defined")


class UnknownRuleError(RuleError):
    """A rule name was referenced but never defined."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown rule: {name!r}")


class ConditionError(RuleError):
    """A rule condition could not be evaluated."""


class ActionError(RuleError):
    """A rule action could not be executed."""


class RuleExecutionError(RuleError):
    """Rule processing failed (e.g. the execution budget was exceeded)."""


class ShardWorkerError(RuleError):
    """A process shard worker failed or died while evaluating a batch."""


class NonTerminationError(RuleExecutionError):
    """Rule processing exceeded the configured maximum number of executions.

    Active-rule sets can loop (a rule action re-triggering itself or a peer);
    the Block Executor guards against this with a budget per transaction (per
    block on the stream path) and raises this error when it is exhausted.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(
            f"rule processing did not quiesce within {limit} rule executions; "
            "the rule set probably does not terminate"
        )
