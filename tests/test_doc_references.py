"""Every markdown document the code cites exists in the repository.

A docstring that sends the reader to a document nobody can open is a dead
end: the reading it stands for cannot be found.  The scan covers ``src/``,
``tests/`` and ``examples/`` for upper-case document names with the
markdown suffix; each must be a file somewhere in the repository.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "examples")
DOCUMENT = re.compile(r"\b[A-Z_]+\.md\b")


def _files(top: Path):
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            yield path


def test_every_cited_document_exists():
    present = {path.name for path in ROOT.rglob("*.md") if ".git" not in path.parts}
    missing = []
    for directory in SCANNED:
        for path in _files(ROOT / directory):
            text = path.read_text(encoding="utf-8", errors="ignore")
            for number, line in enumerate(text.splitlines(), start=1):
                for name in DOCUMENT.findall(line):
                    if name not in present:
                        missing.append(f"{path.relative_to(ROOT)}:{number}: {name}")
    assert not missing, "cited documents that do not exist:\n" + "\n".join(missing)
