"""Mutation checks: each row breaks one spot of ``src/`` and names the tests
that must catch it.

Usage, from the repository root::

    python -m tests.mutations            # every row
    python -m tests.mutations ROW ...    # the named rows
    python -m tests.mutations --list     # the row names

A row is applied alone: ``src/``, ``tests/`` and the root ``conftest.py`` are
copied to a temporary directory, the row's fragment is replaced there (plain
text, exactly once), and only the row's tests run in that copy, under a fixed
Hypothesis seed.  The row passes when every test it names fails; a test that
still passes is a surviving mutant, reported by id, and the command exits 1.
A surviving mutant is a finding: add the test that kills it, never narrow the
row.  ``tests/test_mutations.py`` checks, on every tier-1 run, that each
fragment still occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    """One broken spot and the tests that must fail on it."""

    name: str
    #: The mutated file, relative to the repository root.
    path: str
    #: Source text that occurs exactly once in ``path``.
    fragment: str
    replacement: str
    #: Test ids (as pytest prints them) that must fail with the row applied.
    tests: tuple[str, ...]


_RULE_TABLE = "tests/rules/test_rule_table.py"
_BRUTE_FORCE = (
    f"{_RULE_TABLE}::TestTableAgainstBruteForce"
    "::test_every_step_agrees_with_a_brute_force_reading"
)
_STORE_EXTERNAL = "tests/rules/test_event_handler.py::TestStoreExternalSignature"
_MIRROR_DELTA = "tests/cluster/test_mirror_delta.py"
_REFUSED = (
    f"{_MIRROR_DELTA}::test_a_refused_delta_raises_and_leaves_the_mirror_unchanged"
)
_POOL = "tests/cluster/test_process_pool.py"
_INCREMENTAL = "tests/core/test_incremental_triggering.py"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        name="rule-table-remove-keeps-queue-entry",
        path="src/repro/rules/rule_table.py",
        fragment=(
            "        self._drop_rider(name)\n"
            "        self._dequeue(state)\n"
            "        self._disabled.discard(name)\n"
        ),
        replacement=(
            "        self._drop_rider(name)\n"
            "        self._disabled.discard(name)\n"
        ),
        tests=(
            f"{_RULE_TABLE}::TestPriorityQueue"
            "::test_readding_a_removed_name_does_not_resurrect_stale_entries",
            _BRUTE_FORCE,
        ),
    ),
    Mutant(
        name="rule-table-append-not-insort",
        path="src/repro/rules/rule_table.py",
        fragment="insort(self._queues[state.rule.coupling], entry)",
        replacement="self._queues[state.rule.coupling].append(entry)",
        tests=(
            f"{_RULE_TABLE}::TestRuleTable::test_priority_order_selection",
            f"{_RULE_TABLE}::TestPriorityQueue"
            "::test_retrigger_after_consideration_uses_fresh_entry",
            f"{_RULE_TABLE}::TestPriorityQueue"
            "::test_readding_a_removed_name_does_not_resurrect_stale_entries",
            _BRUTE_FORCE,
        ),
    ),
    Mutant(
        name="disarm-without-notification",
        path="src/repro/rules/rule.py",
        fragment="        self.rider = False\n        self._notify()\n",
        replacement="        self.rider = False\n",
        tests=(
            f"{_RULE_TABLE}::TestSubscriptionIndex"
            "::test_disarm_leaves_the_rider_set_at_once",
            f"{_RULE_TABLE}::TestSubscriptionIndex"
            "::test_emptying_the_rider_set_sheds_its_capacity",
            _BRUTE_FORCE,
        ),
    ),
    Mutant(
        name="emptied-rider-set-not-rebound",
        path="src/repro/rules/rule_table.py",
        fragment=(
            "        if pending.pop(name, None) is not None and not pending:\n"
            "            self._pending_full_check = {}\n"
        ),
        replacement="        pending.pop(name, None)\n",
        tests=(
            f"{_RULE_TABLE}::TestSubscriptionIndex"
            "::test_emptying_the_rider_set_sheds_its_capacity",
        ),
    ),
    Mutant(
        name="store-external-ignores-pending",
        path="src/repro/rules/event_handler.py",
        fragment=(
            "        if self.pending_count():\n"
            "            self.event_base.extend(occurrences)\n"
            "            return self.flush_block()\n"
        ),
        replacement="",
        tests=(
            f"{_STORE_EXTERNAL}"
            "::test_segmentation_is_not_a_signature_when_more_was_pending",
            f"{_STORE_EXTERNAL}"
            "::test_pending_occurrence_joins_the_block_at_every_batch_size",
            f"{_STORE_EXTERNAL}::test_stale_pending_occurrences_force_rederivation",
        ),
    ),
    Mutant(
        name="empty-signature-still-checked",
        path="src/repro/rules/trigger_support.py",
        fragment="        if not type_signature:\n",
        replacement="        if False:\n",
        tests=(
            "tests/rules/test_trigger_support.py::TestTriggerSupport"
            "::test_empty_block_changes_nothing",
            "tests/rules/test_trigger_support.py::TestTriggerSupport"
            "::test_empty_block_checks_no_rider",
        ),
    ),
    Mutant(
        name="analysis-ignores-vacuity",
        path="src/repro/rules/analysis.py",
        fragment="    return is_vacuous(rule.events)\n",
        replacement="    return False\n",
        tests=(
            "tests/rules/test_analysis.py::TestTerminationVerdict"
            "::test_a_guaranteed_rule_set_never_exhausts_the_budget",
        ),
    ),
    Mutant(
        name="explain-negation-witness-is-the-max",
        path="src/repro/core/explain.py",
        fragment="pick = min if isinstance(expression, InstanceNegation) else max",
        replacement="pick = max if isinstance(expression, InstanceNegation) else max",
        tests=(
            "tests/core/test_explain.py::TestCompositeExplanations"
            "::test_lifted_negation_records_the_deciding_object",
        ),
    ),
    Mutant(
        name="view-until-below-the-instant-ignored",
        path="src/repro/core/compile.py",
        fragment="        if until is not None and until < instant:\n",
        replacement="        if False:\n",
        tests=(
            f"{_INCREMENTAL}::test_ts_agrees_between_view_and_window",
            f"{_INCREMENTAL}::test_ots_agrees_between_view_and_window",
            f"{_INCREMENTAL}"
            "::test_a_view_ending_before_the_instant_reads_only_its_own_rows",
        ),
    ),
    Mutant(
        name="mirror-delta-start-unchecked",
        path="src/repro/cluster/transport.py",
        fragment="    if start != len(mirror):\n",
        replacement="    if False:\n",
        tests=(
            f"{_REFUSED}[start-behind-the-mirror]",
            f"{_REFUSED}[start-ahead-of-the-mirror]",
            f"{_MIRROR_DELTA}::test_the_same_delta_is_accepted_once",
            f"{_POOL}"
            "::test_delta_that_does_not_continue_the_mirror_poisons_the_pool_loudly",
        ),
    ),
    Mutant(
        name="mirror-delta-order-unchecked",
        path="src/repro/cluster/transport.py",
        fragment="    mirror._check_stamps(stamps)\n",
        replacement="",
        tests=(
            f"{_REFUSED}[a-stamp-before-the-mirrors-last]",
            f"{_REFUSED}[a-stamp-decreasing-within-the-delta]",
            f"{_MIRROR_DELTA}"
            "::test_a_non_positive_stamp_is_refused_and_leaves_the_mirror_unchanged",
        ),
    ),
    Mutant(
        name="column-log-relogs-positions",
        path="src/repro/cluster/transport.py",
        fragment="event_base.occurrences_between(len(type_column), total)",
        replacement="event_base.occurrences_between(0, total)",
        tests=(
            f"{_MIRROR_DELTA}::test_mirrors_equal_the_log_and_every_position_is_logged"
            "_once_property",
            f"{_MIRROR_DELTA}"
            "::test_an_unpicklable_oid_is_named_by_its_eid_and_logged_once",
            f"{_POOL}::test_unpicklable_oid_fails_at_dispatch_not_in_worker",
            f"{_POOL}::test_lagging_worker_catches_up_from_the_log",
        ),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the row's fragment in the copy at ``root``; it must occur once."""
    target = root / mutant.path
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant.fragment)
    if count != 1:
        raise ValueError(f"{mutant.name}: fragment occurs {count} times")
    target.write_text(
        text.replace(mutant.fragment, mutant.replacement), encoding="utf-8"
    )


def survivors(mutant: Mutant) -> list[str]:
    """The row's tests that still pass with the row applied (none: killed)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        root = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, root / tree, ignore=ignore)
        shutil.copy2(ROOT / "conftest.py", root / "conftest.py")
        apply(mutant, root)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-rf",
            "-p",
            "no:cacheprovider",
            "--hypothesis-seed=0",
            *mutant.tests,
        ]
        result = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True
        )
    failed = [
        line.split()[1]
        for line in result.stdout.splitlines()
        if line.startswith("FAILED ")
    ]
    if result.returncode not in (0, 1) or (result.returncode and not failed):
        # Collection or usage error: nothing ran, so nothing was killed.
        raise RuntimeError(f"{mutant.name}: pytest failed to run\n{result.stdout}")
    return [
        test
        for test in mutant.tests
        if not any(f == test or f.startswith(test + "[") for f in failed)
    ]


def main(argv: list[str]) -> int:
    rows = {mutant.name: mutant for mutant in MUTANTS}
    if argv == ["--list"]:
        print("\n".join(rows))
        return 0
    unknown = [name for name in argv if name not in rows]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}", file=sys.stderr)
        return 2
    selected = [rows[name] for name in argv] or list(MUTANTS)
    status = 0
    for mutant in selected:
        started = time.perf_counter()
        alive = survivors(mutant)
        elapsed = time.perf_counter() - started
        verdict = "killed" if not alive else "SURVIVED"
        print(f"{mutant.name}: {verdict} ({elapsed:.1f} s)")
        for test in alive:
            print(f"  still passes: {test}")
        status |= bool(alive)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
