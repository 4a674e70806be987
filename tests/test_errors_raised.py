"""Every exception class the package declares is raised somewhere in it.

A class that nothing raises is a branch of the exit-code contract that no
run can reach, and a handler for it guards nothing.  An AST check finds each
class defined in ``germglue/errors.py``, except the base ``GermGlueError``
that handlers catch but nothing raises directly, and asserts that some
module under ``src/germglue/`` has a ``raise`` of it (``raise Name(...)``,
``raise Name`` or ``raise module.Name(...)``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germglue"
BASE = "GermGlueError"


def declared_errors(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name != BASE]


def raised_names(source: str) -> set[str]:
    """The class name of every ``raise`` target in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            names.add(exc.id)
        elif isinstance(exc, ast.Attribute):
            names.add(exc.attr)
    return names


def unraised(errors_source: str, raised: set[str]) -> list[str]:
    return [name for name in declared_errors(errors_source) if name not in raised]


def test_the_check_sees_an_unraised_error():
    errors = (
        "class GermGlueError(Exception):\n    pass\n"
        "class Raised(GermGlueError):\n    pass\n"
        "class CaughtOnly(GermGlueError):\n    pass\n"
        "class Qualified(GermGlueError):\n    pass\n"
    )
    user = (
        "def f(x):\n"
        "    try:\n"
        "        raise Raised('bad')\n"
        "    except (CaughtOnly, GermGlueError):\n"
        "        raise errors.Qualified\n"
    )
    assert unraised(errors, raised_names(user)) == ["CaughtOnly"]


@pytest.fixture(scope="module")
def raised() -> set[str]:
    return set().union(*(raised_names(p.read_text()) for p in PACKAGE.glob("*.py")))


@pytest.mark.parametrize("name", declared_errors((PACKAGE / "errors.py").read_text()))
def test_every_error_is_raised(name, raised):
    assert name in raised
