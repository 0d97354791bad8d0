"""The mutation table still points at code: every row's fragment occurs
exactly once in its file, and every test a row names is still defined where
its id says (``python -m tests.mutations`` runs the rows)."""

from __future__ import annotations

import ast
import functools

import pytest

from tests.mutations import MUTANTS, ROOT

_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def _module_body(path: str) -> list[ast.stmt]:
    return ast.parse((ROOT / path).read_text(encoding="utf-8")).body


def _defined(test_id: str) -> bool:
    """Whether ``path::[Class::]function[params]`` names a definition of that
    file: the class at module level, the function in it (or at module level)."""
    path, *names = test_id.split("[", 1)[0].split("::")
    if not names or not (ROOT / path).is_file():
        return False
    scope = _module_body(path)
    for name in names:
        found = [
            node
            for node in scope
            if isinstance(node, _DEFINITIONS) and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


def test_row_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_fragment_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.fragment) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_every_named_test_is_defined(mutant):
    assert [test for test in mutant.tests if not _defined(test)] == []


@pytest.mark.parametrize(
    "test_id",
    [
        "tests/no_such_file.py::test_x",
        "tests/test_mutations.py::test_no_such_function",
        "tests/test_mutations.py::NoSuchClass::test_row_names_are_unique",
        "tests/test_mutations.py",
    ],
)
def test_a_stale_id_is_not_defined(test_id):
    assert not _defined(test_id)
