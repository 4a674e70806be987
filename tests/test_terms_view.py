"""Library modules read ``Jet.terms`` only where a Coeff per term is output.

``Jet.terms`` is a view that builds one Coeff per term on each read, so a
kernel that reads it silently rebuilds the Coeff form that the stored
numerators replace.  An AST check names every function under
``src/germglue/`` that reads an attribute called ``terms`` and compares the
names with a short allow-list: graded term lists for messages and reports.
JSON output and the float evaluator read the numerators.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "germglue"

ALLOWED = {
    "jets.grlex_terms",
}


def terms_readers(source: str) -> list[str]:
    """The qualified names of the functions (``<module>`` at top level)
    that read an attribute called ``terms``, once per read."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "terms":
                out.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return out


def test_the_check_names_each_reader():
    source = (
        "x = j.terms\n"
        "def f(j):\n    return {e: 1 for e in j.terms}\n"
        "class A:\n    def g(self):\n        return self.terms.items()\n"
        "    def h(self):\n        return self.re\n"
    )
    assert terms_readers(source) == ["<module>", "f", "A.g"]


def test_only_the_allowed_functions_read_the_coeff_view():
    found = {
        f"{path.stem}.{name}"
        for path in SRC.glob("*.py")
        for name in terms_readers(path.read_text())
    }
    assert found - ALLOWED == set()
    # every allowed reader still reads it, so the list stays short
    assert found == ALLOWED
