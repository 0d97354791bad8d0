"""Package metadata (there is no ``pyproject.toml``; this file is all of it).

Plain setuptools, so ``pip install .``, ``python setup.py develop`` and the
legacy ``pip install -e . --no-build-isolation`` work on a host with no
network access and no ``wheel`` package.  Installing creates the
``chimera-events`` console script (``repro.cli:main``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"', Path("src/repro/__init__.py").read_text(), re.M
).group(1)

setup(
    name="chimera-events",
    version=VERSION,
    description="Composite events in Chimera: the ts calculus and its trigger engine",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    entry_points={"console_scripts": ["chimera-events = repro.cli:main"]},
)
