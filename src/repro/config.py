"""The engine's configuration record: one schema, resolved once.

Every setting the layers below :class:`~repro.oodb.database.ChimeraDatabase`
act on is a field of :class:`EngineConfig`.  The record is built at the top —
``defaults → os.environ → explicit keywords`` in
:meth:`EngineConfig.from_env` — validated in one place, and then handed down
unchanged: the Trigger Support, the shard coordinator, the process pool and
its workers (the pool ships the record to each one it forks) read their
settings from it and never consult the environment themselves.  A malformed
or out-of-range value — or a ``CHIMERA_*`` variable no field owns — raises
:class:`~repro.errors.ConfigError` naming the field (and the environment
variable, when the value came from one) instead of falling back silently.

This module owns the ``CHIMERA_*`` name table; :func:`knob_table` renders it
for PERFORMANCE.md (``tests/test_config.py`` keeps the two in step).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigError

__all__ = ["ENV_NAMES", "SHARD_MODES", "EngineConfig", "knob_table"]

#: Where trigger checks run: inline on the single table, or on ``shards``
#: evaluators — the shard coordinator plus long-lived process workers
#: (``repro.cluster.process_pool``).
SHARD_MODES = ("serial", "processes")

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})


def _knob(default: Any, valid: Any, env: str | None = None, doc: str = "") -> Any:
    """A field plus its schema: ``valid`` is ``bool``, ``str``, a tuple of
    choices, or an inclusive ``(low, high)`` integer range (``None`` = open)."""
    return dataclasses.field(
        default=default, metadata={"valid": valid, "env": env, "doc": doc}
    )


def _is_range(valid: Any) -> bool:
    return isinstance(valid, tuple) and not isinstance(valid[0], str)


def _describe(valid: Any) -> str:
    if valid is bool:
        return "boolean (1/true/yes/on, 0/false/no/off)"
    if valid is str:
        return "string"
    if _is_range(valid):
        low, high = valid
        return f"integer >= {low}" if high is None else f"integer {low}..{high}"
    return " / ".join(valid)


@dataclass(frozen=True)
class EngineConfig:
    """Every engine setting, frozen, hashable and validated on construction.

    ``EngineConfig(...)`` is defaults plus explicit keywords;
    :meth:`from_env` additionally reads the ``CHIMERA_*`` variables and is
    what the two assembly points (``ChimeraDatabase``, ``RuleEngine``) call
    when they are not handed a record.
    """

    use_static_optimization: bool = _knob(
        True, bool, doc="V(E) routed planning; off = the paper's exhaustive scan"
    )
    max_rule_executions: int = _knob(
        10_000, (0, None), doc="rule execution budget per transaction / stream block"
    )
    shards: int = _knob(
        0,
        (0, None),
        "CHIMERA_SHARDS",
        "processes-mode evaluators: coordinator + N-1 workers (0 = single table)",
    )
    shard_mode: str = _knob(
        "serial",
        SHARD_MODES,
        "CHIMERA_SHARD_MODE",
        "processes = shard workers; serial = the single table",
    )
    metrics_path: str = _knob(
        "", str, "CHIMERA_METRICS", "JSON-lines metrics export path (empty = off)"
    )

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            value, valid = getattr(self, spec.name), spec.metadata["valid"]
            if valid is bool or valid is str:
                ok = isinstance(value, valid)
            elif _is_range(valid):
                low, high = valid
                ok = (
                    isinstance(value, int)
                    and not isinstance(value, bool)
                    and value >= low
                    and (high is None or value <= high)
                )
            else:
                ok = value in valid
            if not ok:
                raise ConfigError(
                    f"{spec.name}={value!r} is invalid: expected {_describe(valid)}"
                )

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None, **overrides: Any
    ) -> "EngineConfig":
        """Resolve a record: defaults, then ``CHIMERA_*``, then ``overrides``.

        A blank variable counts as unset; an override left at ``None`` counts
        as not given (CLI flags and harness parameters default to ``None``).
        A set ``CHIMERA_*`` variable that names no field is an error, like an
        unknown keyword: a typo or a retired knob must not pass for a default.
        """
        environ = os.environ if environ is None else environ
        specs = {spec.name: spec for spec in dataclasses.fields(cls)}
        unknown = sorted(set(overrides) - set(specs))
        if unknown:
            raise ConfigError(f"unknown engine setting(s): {', '.join(unknown)}")
        known = set(ENV_NAMES.values())
        stray = sorted(
            variable
            for variable, raw in environ.items()
            if variable.startswith("CHIMERA_") and variable not in known and raw.strip()
        )
        if stray:
            raise ConfigError(
                f"unknown engine variable(s): {', '.join('$' + v for v in stray)} "
                f"(known: {', '.join(sorted(known))})"
            )
        values: dict[str, Any] = {}
        for name, variable in ENV_NAMES.items():
            raw = environ.get(variable, "").strip()
            if not raw:
                continue
            try:
                values[name] = _parse(raw, specs[name].metadata["valid"])
                cls(**{name: values[name]})  # range check, naming the variable
            except ValueError as error:
                raise ConfigError(f"${variable}={raw!r}: {error}") from None
        values.update(
            {name: value for name, value in overrides.items() if value is not None}
        )
        return cls(**values)


#: Field name -> ``CHIMERA_*`` variable, for the fields that have one.
ENV_NAMES = {
    spec.name: spec.metadata["env"]
    for spec in dataclasses.fields(EngineConfig)
    if spec.metadata["env"]
}


def _parse(raw: str, valid: Any) -> Any:
    """One environment string -> the field's Python value."""
    if valid is str:
        return raw
    lowered = raw.lower()
    if valid is bool:
        if lowered in _TRUTHY:
            return True
        if lowered in _FALSY:
            return False
    elif _is_range(valid):
        try:
            return int(raw)
        except ValueError:
            pass
    else:
        return lowered  # a choice: the constructor validates membership
    raise ValueError(f"expected {_describe(valid)}")


def knob_table() -> str:
    """The markdown knob table of PERFORMANCE.md, one row per field."""
    rows = [
        "| field | environment variable | default | valid values | effect |",
        "|---|---|---|---|---|",
    ]
    for spec in dataclasses.fields(EngineConfig):
        meta = spec.metadata
        variable = f"`${meta['env']}`" if meta["env"] else "—"
        rows.append(
            f"| `{spec.name}` | {variable} | `{spec.default!r}` "
            f"| {_describe(meta['valid'])} | {meta['doc']} |"
        )
    return "\n".join(rows)
