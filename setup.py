"""Packaging shim (kept ``setup.py``-based for environments without the
``wheel``/``build`` packages — offline editable installs still work).

The console scripts are the two CLI entry points: ``repro-spatch`` (apply
patches, locally or via ``--server``) and ``repro-spatchd`` (the
persistent patch-application daemon).  Source checkouts need no install:
the repository ``conftest.py`` puts ``src/`` on ``sys.path`` and the
module forms ``python -m repro.cli.spatch`` / ``python -m
repro.cli.spatchd`` are equivalent to the scripts.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="repro-spatch",
    version=_VERSION,
    description="Semantic patching for HPC refactorings "
                "(a reproduction of Martone & Lawall, IPPS 2025)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # stdlib-only by design; `watchdog` is feature-detected at runtime and
    # never required (see repro/watch.py)
    install_requires=[],
    extras_require={"watch": ["watchdog"]},
    entry_points={
        "console_scripts": [
            "repro-spatch = repro.cli.spatch:main",
            "repro-spatchd = repro.cli.spatchd:main",
        ],
    },
)
