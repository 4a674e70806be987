"""Every field a library class declares in ``__slots__`` is read somewhere.

A stored field that nothing reads restates or outlives what the record
decides.  An AST check finds each ``__slots__`` name of a class in
``src/germglue/`` and asserts it is loaded as an attribute (``x.name``) in
some module under ``src/``, ``tests/``, ``perfbench/`` or ``sample_inputs/``.
The check matches names, not owners: a field counts as read when any
object's attribute of that name is.  This module is left out of the
readers, so its own attribute loads hide no field.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "germglue").glob("*.py"))
READERS = sorted(
    p for d in ("src", "tests", "perfbench", "sample_inputs")
    for p in (ROOT / d).rglob("*.py") if p != Path(__file__).resolve()
)


def slot_names(source: str) -> list[tuple[str, str]]:
    """(class, field) for every name in a class body's ``__slots__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                found += [(node.name, name) for name in ast.literal_eval(stmt.value)]
    return found


def loaded_attributes(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_slots(source: str, loaded: set[str]) -> list[str]:
    return [f"{cls}.{name}" for cls, name in slot_names(source) if name not in loaded]


def test_the_check_sees_an_unread_slot():
    source = (
        "class Record:\n"
        "    __slots__ = ('kept', 'stored', 'note')\n"
        "    def __init__(self, kept, stored):\n"
        "        self.kept = kept\n"
        "        self.stored = stored\n"
        "        self.note = 'constant'\n"
    )
    reader = "def use(r):\n    r.stored = r.kept\n"
    assert unread_slots(source, loaded_attributes(source + reader)) == [
        "Record.stored", "Record.note"]


@pytest.fixture(scope="module")
def loaded() -> set[str]:
    return set().union(*(loaded_attributes(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_slot_is_read(path, loaded):
    assert unread_slots(path.read_text(), loaded) == []
