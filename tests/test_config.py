"""The one configuration record: precedence, validation, and how it travels.

``EngineConfig`` replaces a dozen hand-threaded ``CHIMERA_*`` lookups.  What
is pinned here: explicit keyword > environment > default for every field that
has a variable; a malformed or out-of-range value raises ``ConfigError``
naming the variable instead of silently falling back; the record is frozen,
hashable and ``repr``-round-trippable; a forked worker receives the
coordinator's own record; a retired field or variable fails loudly instead
of passing for a default; and the knob table in PERFORMANCE.md is the one
``knob_table()`` renders from the dataclass.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.cluster.transport import ShardTransport
from repro.config import ENV_NAMES, EngineConfig, knob_table
from repro.errors import ChimeraError, ConfigError
from repro.oodb.database import ChimeraDatabase

#: field -> (a valid environment spelling, its parsed value, an explicit
#: override that differs from both it and the default).
ENV_CASES = {
    "shards": ("3", 3, 5),
    "shard_mode": ("PROCESSES", "processes", "serial"),
    "metrics_path": ("/tmp/m.jsonl", "/tmp/m.jsonl", "/tmp/other.jsonl"),
}

#: variable -> values the old per-module resolvers swallowed.
MALFORMED = {
    "CHIMERA_SHARDS": ["abc", "-1", "1.5"],
    # The retired worker placements are no shard mode either.
    "CHIMERA_SHARD_MODE": ["fibers", "threads", "tcp", "pipe"],
}


def test_every_environment_variable_has_a_precedence_case():
    assert set(ENV_CASES) == set(ENV_NAMES)
    assert len(ENV_NAMES) == 3
    assert len(dataclasses.fields(EngineConfig)) == 5


@pytest.mark.parametrize("field", sorted(ENV_CASES))
def test_explicit_beats_environment_beats_default(field):
    raw, parsed, explicit = ENV_CASES[field]
    default = getattr(EngineConfig(), field)
    assert parsed != default and explicit != parsed
    environ = {ENV_NAMES[field]: raw}
    assert getattr(EngineConfig.from_env({}), field) == default
    assert getattr(EngineConfig.from_env(environ), field) == parsed
    assert getattr(EngineConfig.from_env(environ, **{field: explicit}), field) == (
        explicit
    )
    # None is "not given" (CLI flags and harness parameters default to it).
    assert getattr(EngineConfig.from_env(environ, **{field: None}), field) == parsed
    # A blank variable is unset, not malformed.
    assert getattr(EngineConfig.from_env({ENV_NAMES[field]: "  "}), field) == default


def test_from_env_reads_the_process_environment_by_default(monkeypatch):
    monkeypatch.setenv("CHIMERA_SHARDS", "4")
    assert EngineConfig.from_env().shards == 4
    assert EngineConfig().shards == 0  # the bare constructor never does


@pytest.mark.parametrize(
    "variable, raw",
    [(variable, raw) for variable, values in MALFORMED.items() for raw in values],
)
def test_malformed_environment_value_raises_naming_the_variable(variable, raw):
    with pytest.raises(ConfigError, match=rf"\${variable}=") as excinfo:
        EngineConfig.from_env({variable: raw})
    assert isinstance(excinfo.value, ChimeraError)
    assert isinstance(excinfo.value, ValueError)


def test_malformed_environment_fails_database_construction(monkeypatch):
    monkeypatch.setenv("CHIMERA_SHARD_MODE", "fibers")
    with pytest.raises(ConfigError, match="CHIMERA_SHARD_MODE"):
        ChimeraDatabase()


@pytest.mark.parametrize(
    "field, value",
    [
        ("shards", -1),
        ("shards", True),
        ("shards", "4"),
        ("shard_mode", "fibers"),
        ("use_static_optimization", 1),
        # A keyword is the value itself: the environment's spellings of a
        # boolean are not parsed here.
        ("use_static_optimization", "yes"),
        ("max_rule_executions", -1),
        ("max_rule_executions", 2.5),
        ("metrics_path", None),
    ],
)
def test_out_of_range_keyword_raises_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        EngineConfig(**{field: value})


def test_unknown_setting_is_rejected_by_every_assembly_point():
    with pytest.raises(ConfigError, match="use_subscription_idx"):
        EngineConfig.from_env({}, use_subscription_idx=False)
    with pytest.raises(ConfigError, match="max_workers"):
        ChimeraDatabase(max_workers=2)
    with pytest.raises(ConfigError, match="batch_blocks"):
        ChimeraDatabase(batch_blocks=2)
    # One planner, one memo of a fixed size: the bound is no setting.
    with pytest.raises(ConfigError, match="plan_cache_size"):
        ChimeraDatabase(plan_cache_size=64)
    # One worker placement: pipes.  The fields that chose another are gone.
    for retired in ("transport", "tcp_port", "tcp_spawn"):
        with pytest.raises(ConfigError, match=f"unknown engine setting.*{retired}"):
            EngineConfig.from_env({}, **{retired: "pipe"})
    # One combine set: the exact check has no ts semantics to choose.
    with pytest.raises(ConfigError, match="unknown engine setting.*evaluation_mode"):
        ChimeraDatabase(evaluation_mode="algebraic")


#: The fields of the retired tcp placement, each with a value it used to
#: accept.
RETIRED_PLACEMENT = {
    "transport": "pipe",
    "tcp_host": "127.0.0.1",
    "tcp_port": 7411,
    "tcp_spawn": False,
}


@pytest.mark.parametrize("field", sorted(RETIRED_PLACEMENT))
def test_retired_placement_setting_fails_database_construction(field):
    """Pipes are the only worker placement: a database asked for another
    one refuses to start instead of quietly forking pipe workers."""
    with pytest.raises(ConfigError, match=f"unknown engine setting.*{field}"):
        ChimeraDatabase(
            shards=2, shard_mode="processes", **{field: RETIRED_PLACEMENT[field]}
        )


#: Values the retired placement variables used to accept (others take "1").
RETIRED_VALUES = {
    "CHIMERA_TRANSPORT": "pipe",
    "CHIMERA_TCP_HOST": "127.0.0.1",
    "CHIMERA_TCP_PORT": "7411",
    "CHIMERA_TCP_SPAWN": "0",
}


@pytest.mark.parametrize(
    "variable",
    # Retired knobs (one block per check is the only execution model, pipes
    # the only worker placement) and a typo of CHIMERA_SHARDS.
    [
        "CHIMERA_BATCH_BLOCKS",
        "CHIMERA_ADAPTIVE_BATCH",
        "CHIMERA_TRANSPORT",
        "CHIMERA_TCP_HOST",
        "CHIMERA_TCP_PORT",
        "CHIMERA_TCP_SPAWN",
        "CHIMERA_SHARD",
    ],
)
def test_unknown_environment_variable_raises_naming_it(variable, monkeypatch):
    raw = RETIRED_VALUES.get(variable, "1")
    with pytest.raises(ConfigError, match=rf"\${variable}\b") as excinfo:
        EngineConfig.from_env({variable: raw, "CHIMERA_SHARDS": "2"})
    assert "CHIMERA_SHARDS" in str(excinfo.value)  # the known names are listed
    # Blank counts as unset, like for every known variable.
    assert EngineConfig.from_env({variable: " "}) == EngineConfig()
    monkeypatch.setenv(variable, raw)
    with pytest.raises(ConfigError, match=variable):
        ChimeraDatabase()


def test_every_unknown_variable_is_named_in_one_error():
    environ = {"CHIMERA_SHARD": "2", "CHIMERA_BATCH_BLOCKS": "4", "CHIMERA_SHARDS": "2"}
    with pytest.raises(ConfigError) as excinfo:
        EngineConfig.from_env(environ)
    message = str(excinfo.value)
    assert "$CHIMERA_BATCH_BLOCKS, $CHIMERA_SHARD " in message
    assert "$CHIMERA_SHARDS" not in message.split("(known:")[0]


def test_an_explicit_keyword_does_not_excuse_an_unknown_variable():
    """``shards=2`` is what ``CHIMERA_SHARD=2`` meant, but the typo still fails:
    the next run without the keyword would otherwise fall back silently."""
    with pytest.raises(ConfigError, match=r"\$CHIMERA_SHARD\b"):
        EngineConfig.from_env({"CHIMERA_SHARD": "2"}, shards=2)


@pytest.mark.parametrize(
    "variable", ["CHIMERA", "CHIMERAX_SHARDS", "chimera_shards", "MY_CHIMERA_SHARDS"]
)
def test_variables_outside_the_engine_prefix_are_not_read(variable):
    assert EngineConfig.from_env({variable: "2"}) == EngineConfig()


def test_record_is_frozen_hashable_and_repr_round_trips():
    config = EngineConfig(
        shards=4, shard_mode="processes", use_static_optimization=False
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.shards = 2
    assert hash(config) == hash(dataclasses.replace(config))
    assert len({config, dataclasses.replace(config), EngineConfig()}) == 2
    assert eval(repr(config), {"EngineConfig": EngineConfig}) == config
    with pytest.raises(ConfigError):
        dataclasses.replace(config, shards=-1)  # replace() re-validates


def test_database_exposes_the_resolved_record(monkeypatch):
    monkeypatch.setenv("CHIMERA_SHARDS", "2")
    db = ChimeraDatabase(shard_mode="processes", max_rule_executions=77)
    try:
        assert db.config.shards == 2
        assert db.config.max_rule_executions == 77
        assert db.engine.config is db.config
        assert db.engine.trigger_support.config is db.config
        assert db.engine.trigger_support.shards == 2
    finally:
        db.close()


def test_forked_worker_receives_the_coordinators_record(monkeypatch):
    """A worker has no engine settings of its own: it must evaluate under
    the coordinator's record, handed over when it is forked."""
    record = EngineConfig(
        use_static_optimization=False, shards=3, shard_mode="processes"
    )
    monkeypatch.setattr(
        "repro.cluster.process_pool._worker_main",
        lambda connection, config, metrics_enabled: connection.send(
            (config, metrics_enabled)
        ),
    )
    transport = ShardTransport(record)
    try:
        transport.launch(1, metrics_enabled=True)
        assert transport.channel(0).poll(10.0)
        assert transport.channel(0).recv() == (record, True)
    finally:
        transport.shutdown()
    assert transport.process(0).exitcode is not None


def test_performance_md_carries_the_generated_knob_table():
    text = (Path(__file__).resolve().parents[1] / "PERFORMANCE.md").read_text()
    assert knob_table() in text
    # One row per field, and no row for a field that does not exist.
    names = [spec.name for spec in dataclasses.fields(EngineConfig)]
    for name in names:
        assert f"| `{name}` |" in knob_table()
    assert knob_table().count("\n") == len(names) + 1
