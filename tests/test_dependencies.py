"""The library imports no third-party module that ``pyproject.toml`` does not
declare as a runtime dependency, and declares none that it does not import.

Every import under ``src/germglue/`` counts, those inside functions
included; standard-library modules and the package itself do not.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_levels(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies(pyproject: str) -> set[str]:
    requirements = tomllib.loads(pyproject)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower().replace("-", "_") for r in requirements}


def test_the_checks_read_imports_and_requirements():
    source = "import os.path, numpy as np\nfrom a.b import c\nfrom . import d\n"
    assert imported_top_levels(source) == {"os", "numpy", "a"}
    pyproject = '[project]\ndependencies = ["numpy>=1.24", "Foo-Bar[x]; python_version<\'4\'"]\n'
    assert declared_dependencies(pyproject) == {"numpy", "foo_bar"}


def test_the_runtime_imports_exactly_its_declared_dependencies():
    imported = set()
    for path in (ROOT / "src" / "germglue").rglob("*.py"):
        imported |= imported_top_levels(path.read_text())
    third_party = imported - set(sys.stdlib_module_names) - {"germglue"}
    assert third_party == declared_dependencies((ROOT / "pyproject.toml").read_text())
