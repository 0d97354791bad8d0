"""Every script in ``examples/`` runs, and prints the paper's artefacts.

Each example runs in its own interpreter with ``PYTHONPATH=src``, as its
docstring tells a reader to run it.  The pinned lines are the ones that show a
figure or section of the paper: the §3.1 and Fig. 5 traces, ``V(E)`` sets and
the rule-set analysis verdict.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Lines each example must print, compared with runs of blanks collapsed.
EXAMPLES = {
    "composite_event_calculus.py": [
        # §3.1: create@t1, create@t2, modify@t3 — ts of create(stock), the
        # disjunction, conjunction, precedence and -create(stockOrder).
        "| 3 | 2 + | 3 + | 3 + | 3 + | 3 + |",
        "| 5 | 2 + | 3 + | 3 + | 3 + | -5 - |",
        "ts(-(A , B)) == ts(-A + -B) at every instant: True",
        "occurred(create(stock) <= modify(stock.quantity), X) binds X to ['o1']",
        "V(E) = {Δ+create(C), Δcreate(A), Δcreate(B)}",
    ],
    "order_workflow.py": [
        "Considerations in order: fulfilOrders -> auditActivity -> classifyUnfilled",
    ],
    "quickstart.py": [
        "bolts quantity= 100 max=100",
        "nuts quantity= 60 max=100",
    ],
    "rule_set_analysis.py": [
        "4 rules, 4 triggering edges",
        "shelfRefill -> shelfRefill",
        "The graph is cyclic, so no stratification exists; the run-time execution",
        "(create(stock) += modify(stock.quantity)) + -create(stockOrder) -> active@t5",
        "-create(stockOrder) -> inactive [blocked by e4]",
    ],
    "static_optimization_tour.py": [
        "V(E) = {Δ+create(cls1), Δ+delete(cls2), Δmodify(cls0.attr1)}",
        "| every rule after every block | 2400 | 0 | 296 |",
        "| V(E) routing (static optimization) | 951 | 1449 | 296 |",
    ],
    "stock_management.py": [
        "| checkStockQty | 59 | 59 | 15 |",
        "The V(E) filter avoided 708/990 (71.5%) of the ts recomputations.",
    ],
}


def test_every_example_is_listed():
    assert sorted(path.name for path in (ROOT / "examples").glob("*.py")) == sorted(
        EXAMPLES
    )


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs_and_prints_its_artefacts(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = {" ".join(line.split()) for line in result.stdout.splitlines()}
    for expected in EXAMPLES[name]:
        assert expected in lines, expected
