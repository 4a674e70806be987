"""Every name the benchmark's tracer patches resolves in the library.

``perfbench/tracer.py`` wraps each ``TIMED`` function and counts each
``COUNTED`` attribute path by name, so a renamed or deleted function breaks
the benchmark's traced pass.  This check reads those tables without running
a pass: it loads the tracer module from its file (nothing under
``perfbench/`` is changed) and imports ``germglue.cli``, which loads every
module the tables name.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the tracer patches the modules a CLI run has loaded, so resolve in those
importlib.import_module("germglue.cli")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved(timed: dict, counted: dict) -> list[str]:
    """The traced names that are not a callable of a loaded module."""
    missing = []
    for modname, names in timed.items():
        module = sys.modules.get(modname)
        missing += [f"{modname}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    for label, (modname, path) in counted.items():
        owner = sys.modules.get(modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(label)
    return missing


def test_the_check_names_a_made_up_function():
    assert unresolved(
        {"germglue.matrices": ["matrix_inverse", "matrix_pivot"], "germglue.nope": ["f"]},
        {"scalars.coeff_mul": ("germglue.scalars", "Coeff.__mul__"),
         "scalars.coeff_pow": ("germglue.scalars", "Coeff.__pow__")},
    ) == ["germglue.matrices.matrix_pivot", "germglue.nope.f", "scalars.coeff_pow"]


def test_every_traced_name_resolves():
    tracer = _tracer()
    assert unresolved(tracer.TIMED, tracer.COUNTED) == []
