"""The benchmark tracer still has something to wrap in every layer.

``benchmarks/e2e/e2e_trace.py`` times the engine from outside: it wraps the
callables its ``LAYERS`` table names and silently skips any that no longer
exist.  A rename under ``src/`` would therefore not fail the benchmark — the
layer's span would just vanish and its per-layer metric read zero.  This
guard reads the table as the benchmark ships it (the file is imported, not
edited) and requires at least one live target per layer, resolved the way
the tracer resolves it: a module-level callable, or a callable defined on
the named class or one of its loaded subclasses.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "e2e_trace.py"


def _layers() -> dict[str, list[tuple[str, str | None, str]]]:
    spec = importlib.util.spec_from_file_location("e2e_trace", _TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Load every target module first: a subclass that overrides a target only
    # counts once its module is imported (the tracer does the same).
    for targets in module.LAYERS.values():
        for module_name, _owner, _attribute in targets:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
    return module.LAYERS


LAYERS = _layers()


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def _is_live(module_name: str, owner: str | None, attribute: str) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if owner is None:
        return callable(getattr(module, attribute, None))
    cls = getattr(module, owner, None)
    if not isinstance(cls, type):
        return False
    return any(
        callable(vars(holder).get(attribute)) for holder in _with_subclasses(cls)
    )


def _target_id(target: tuple[str, str | None, str]) -> str:
    return f"{target[1]}.{target[2]}"


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_layer_has_a_live_target(layer):
    live = [target for target in LAYERS[layer] if _is_live(*target)]
    assert live, f"no target of layer {layer!r} resolves: {LAYERS[layer]}"


#: The per-block path's entry points in the check, evaluate and kernel layers,
#: under the names the tracer wraps.
PER_BLOCK = [
    ("repro.rules.trigger_support", "TriggerSupport", "check_after_block"),
    ("repro.core.compile", "CompiledCheck", "check"),
    ("repro.cluster.process_pool", "ProcessShardPool", "evaluate"),
]

#: Their micro-batched siblings, still listed by the tracer, gone from ``src/``.
RETIRED = [
    ("repro.rules.trigger_support", "TriggerSupport", "check_after_blocks"),
    ("repro.core.compile", "CompiledCheck", "check_trip"),
    ("repro.cluster.process_pool", "ProcessShardPool", "evaluate_trip"),
]


@pytest.mark.parametrize("target", PER_BLOCK, ids=_target_id)
def test_per_block_entry_point_is_traced_and_live(target):
    assert any(target in targets for targets in LAYERS.values())
    assert _is_live(*target)


@pytest.mark.parametrize("target", RETIRED, ids=_target_id)
def test_retired_trip_target_resolves_to_nothing(target):
    """The tracer skips these; the guard must see them as dead too, or a
    layer could pass on a name that no longer exists."""
    assert any(target in targets for targets in LAYERS.values())
    assert not _is_live(*target)


def test_retired_sharded_planner_resolves_to_nothing():
    """One planner: the coordinator's ``plan_sharded`` is gone, so the
    tracer's ``rules.plan`` layer stays live through ``TriggerPlanner.plan``
    alone — which the coordinator now calls too."""
    target = ("repro.cluster.coordinator", "ShardCoordinator", "plan_sharded")
    assert target in LAYERS["rules.plan"]
    assert not _is_live(*target)
    assert _is_live("repro.rules.trigger_support", "TriggerPlanner", "plan")


def test_a_subclass_definition_counts_as_live():
    """``home_population`` lives on the shard coordinator only; the tracer
    finds a method like it through ``TriggerSupport``'s loaded subclasses,
    and so must the guard."""
    from repro.rules.trigger_support import TriggerSupport

    assert "home_population" not in vars(TriggerSupport)
    assert _is_live("repro.rules.trigger_support", "TriggerSupport", "home_population")
    assert not _is_live("repro.rules.trigger_support", "NoSuchSupport", "plan")
