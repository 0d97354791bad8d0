"""Root pytest configuration: the ``--shards`` / ``--shard-mode`` switches.

The options set the same ``CHIMERA_*`` variables the engine's configuration
record reads (:data:`repro.config.ENV_NAMES`), so every
:class:`repro.oodb.database.ChimeraDatabase` and every test that resolves
``EngineConfig.from_env()`` picks them up: ``pytest --shards N --shard-mode
processes`` runs the whole suite behind a coordinator checking on N
evaluators, N − 1 of them worker processes (CI runs it with 4 and, for
``tests/cluster``, 2 alongside the plain run).  ``--shards N`` alone, or
with ``--shard-mode serial``, assembles the single table — the same program
as the plain run.  The record is resolved once here, so a
bad option — or a malformed ambient ``CHIMERA_*`` value — fails the run before
collection instead of silently falling back.  Defined here, not in
``tests/conftest.py``, because option registration must happen in an initial
conftest.
"""

from __future__ import annotations

import os
import sys

# The suite normally runs with PYTHONPATH=src; make this file's own import of
# the record work without it too (benchmarks/e2e/test_e2e_smoke.py does the
# same for itself).
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "src"))

from repro.config import ENV_NAMES, SHARD_MODES, EngineConfig  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--shards",
        type=int,
        default=0,
        help="run the suite with every ChimeraDatabase sharded across N shards",
    )
    parser.addoption(
        "--shard-mode",
        choices=SHARD_MODES,
        default=None,
        help="shard-check execution mode for every sharded ChimeraDatabase",
    )


def pytest_configure(config):
    shards = config.getoption("--shards")
    if shards:
        os.environ[ENV_NAMES["shards"]] = str(shards)
    shard_mode = config.getoption("--shard-mode")
    if shard_mode:
        os.environ[ENV_NAMES["shard_mode"]] = shard_mode
    EngineConfig.from_env()
