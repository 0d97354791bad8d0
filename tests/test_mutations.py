"""The mutation table still points at code: every row's fragment occurs
exactly once in its file (``python -m tests.mutations`` runs the rows)."""

from __future__ import annotations

import pytest

from tests.mutations import MUTANTS, ROOT


def test_row_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_fragment_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.fragment) == 1
