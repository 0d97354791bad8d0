"""Comparer of the end-to-end benchmark: two result files side by side.

``run.py compare A.json B.json`` prints, per (workload, end-to-end metric),
both medians, the ratio B / A, the regression bound of ``BENCHMARK.json`` and a
verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread between the quartiles of either side, as a share
  of its median, exceeds the bound, so the pair cannot tell a regression from
  noise (fewer than two repetitions on a side is unresolved too);
* ``ok`` — otherwise.

A workload with failed operations on either side is ``worse``: a gain or a
tie does not count when the outputs are wrong.  The exit code is 0 only when
every pair is ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["verdict", "compare", "main"]

def _spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["median"]


def verdict(base: dict, other: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload."""
    a, b = base["median"], other["median"]
    loss = (b - a) / a if better == "lower" else (a - b) / a
    if loss > bound:
        return "worse"
    if min(len(base["samples"]), len(other["samples"])) < 2:
        return "unresolved"
    if max(_spread(base), _spread(other)) > bound:
        return "unresolved"
    return "ok"


def compare(base: dict, other: dict, contract: dict) -> list[dict]:
    """One row per (workload, end-to-end metric), in ``BENCHMARK.json`` order."""
    rows: list[dict] = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        a, b = base["workloads"][workload], other["workloads"][workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in a["metrics"] or name not in b["metrics"]:
                status, ratio = "worse", float("nan")
                medians = (float("nan"), float("nan"))
            else:
                row_a, row_b = a["metrics"][name], b["metrics"][name]
                medians = (row_a["median"], row_b["median"])
                ratio = medians[1] / medians[0]
                status = verdict(row_a, row_b, metric["better"], metric["bound"])
                if a["failed_ops"] or b["failed_ops"]:
                    status = "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": medians[0],
                    "b": medians[1],
                    "ratio_b_over_a": ratio,
                    "bound": metric["bound"],
                    "better": metric["better"],
                    "verdict": status,
                }
            )
    return rows


def main(argv: list[str], contract: dict) -> int:
    """Print the comparison of two result files against ``BENCHMARK.json``."""
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    base, other = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    for label, result in (("A", base), ("B", other)):
        host = result["host"]
        print(
            f"{label}: commit {host['git_commit'][:12]} seed {host['seed']} "
            f"reps {host['repetitions']} cpus {host['host_cpus']} "
            f"load {host['load1_at_start']:.2f} {host['load_flag']}"
        )
        if not result["comparable"]:
            print(f"{label} is a smoke run: not comparable")
    rows = compare(base, other, contract)
    print(
        f"\n{'workload':<21}{'metric':<14}{'A':>12}{'B':>12}"
        f"{'B / A':>8}{'bound':>7}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<21}{row['metric']:<14}{row['a']:>12.3f}"
            f"{row['b']:>12.3f}{row['ratio_b_over_a']:>8.3f}"
            f"{row['bound']:>6.0%}  {row['verdict']} ({row['better']} is better)"
        )
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(f"\n{len(rows) - len(bad)} of {len(rows)} pairs ok")
    return 1 if bad else 0
