"""Every name a library module, the sample generator, a test module or a
benchmark module imports is used.

An AST check stands in for a linter: neither pyflakes nor ruff is a
dependency.  ``__init__.py`` is skipped, since a package's own imports may be
re-exports, and so are ``from __future__`` imports.  The acceptance gate
(``tests/test_acceptance.py``) is kept as it is, so it is not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "germglue").glob("*.py") if p.name != "__init__.py"
) + [ROOT / "sample_inputs" / "generate.py"] + sorted(
    p for p in (ROOT / "tests").glob("*.py")
    if p.name not in ("__init__.py", "test_acceptance.py")
) + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
