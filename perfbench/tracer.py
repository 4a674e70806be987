"""Outside-in tracing of germglue's public functions.

The benchmark wraps each traced function through every module binding that
holds it: the defining module and each ``from .x import name`` copy (for
example ``germglue.atlas.map_compose`` and ``germglue.matrices.jet_mul``),
so a call is seen however the library reaches it.  Nothing under ``src/``
knows about the tracer.

Every wrapped call updates, per function name, the call count, the
inclusive time of outermost calls and the self time (duration minus the
time covered by wrapped callees).  Calls of the functions in ``SPANS``
also append one span record (name, start, end, parent span, job id) to an
in-memory list that the caller writes out at exit; the hot kernels are too
frequent for per-call records and keep only their aggregates.

Coefficient products and square-root bounds are far more frequent still:
they are counted in a separate pass that installs only their counters
(``install_counters``), so no counting wrapper sits inside a
timed pass and inflates a kernel's self time.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs whose calls are timed.  Names are reported as
# "<module>.<function>" with the module's short name.
TIMED = {
    "germglue.cli": ["main"],
    "germglue.documents": [
        "load_document", "dump_report", "atlas_input_from_json",
        "sheaf_input_from_json", "tep_data_from_json", "tep_glue_input_from_json",
    ],
    "germglue.atlas": [
        "run_glue_pipeline", "validate_germ_data", "compute_overlaps",
        "shrink_tubes", "enforce_triple_domains", "check_closed_relation",
        "build_glued_atlas",
    ],
    "germglue.regions": [
        "refine_cover", "range_bound", "map_image_bound", "recenter",
    ],
    "germglue.jets": [
        "map_compose", "jet_compose", "jet_mul", "map_inverse", "jet_eval",
    ],
    "germglue.matrices": [
        "matrix_mul", "matrix_inverse", "matrix_det", "matrix_compose",
    ],
    "germglue.sheaf": ["validate_sheaf_cocycle", "glue_sheaf"],
    "germglue.tep": ["tep_report", "check_GC", "glue_tep"],
    "germglue.numeval": ["float_transition_audit"],
    "germglue.sampling": ["batch_eval"],
}

# Functions that also leave one span record per call.
SPANS = {
    "cli.main", "documents.load_document", "documents.dump_report",
    "atlas.run_glue_pipeline", "atlas.validate_germ_data",
    "regions.refine_cover", "atlas.compute_overlaps", "atlas.shrink_tubes",
    "atlas.enforce_triple_domains", "atlas.check_closed_relation",
    "atlas.build_glued_atlas", "jets.map_compose", "jets.map_inverse",
    "regions.map_image_bound", "matrices.matrix_inverse", "matrices.matrix_det",
    "sheaf.validate_sheaf_cocycle", "sheaf.glue_sheaf", "tep.tep_report",
    "tep.check_GC", "tep.glue_tep", "numeval.float_transition_audit",
    "sampling.batch_eval",
}

# Counted in their own pass, never timed: (module, attribute path).
COUNTED = {
    "scalars.coeff_mul": ("germglue.scalars", "Coeff.__mul__"),
    "scalars.sqrt_ub": ("germglue.scalars", "sqrt_ub"),
    "scalars.sqrt_lb": ("germglue.scalars", "sqrt_lb"),
}


class Tracer:
    """Span stack, per-name aggregates and span records for one process."""

    def __init__(self):
        self.job = None
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [name, start, child_time, span_id]
        self._depth: dict[str, int] = {}
        self._next_id = 0

    def set_job(self, job_id) -> None:
        self.job = job_id

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def wrap(self, name: str, fn):
        record = name in SPANS
        stack = self._stack
        depth = self._depth
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)
        depth.setdefault(name, 0)
        tracer = self

        def traced(*args, **kwargs):
            span_id = -1
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                calls[name] += 1
                self_time[name] += dur - frame[2]
                if not depth[name]:
                    total[name] += dur
                if stack:
                    stack[-1][2] += dur
                if record:
                    parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    tracer.spans.append(
                        (name, frame[1], end, span_id, parent, tracer.job)
                    )
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe(self, name: str, args, result) -> None:
        """Counters read from arguments and results at the layer boundary."""
        if name == "sampling.batch_eval":
            self.add("sampling.points_evaluated", len(args[1]))
        elif name == "atlas.enforce_triple_domains":
            self.add("atlas.triple_certs_nonvacuous",
                     sum(1 for c in result.values() if not c.vacuous))
        elif name == "jets.map_compose" and self._inside("atlas.enforce_triple_domains"):
            self.add("atlas.triples_map_compose", 1)
        elif name == "atlas.check_closed_relation":
            self.add("atlas.closedness_audited", result["audit"]["audited"])
            self.add("atlas.closedness_samples", result["audit"]["samples"])
        elif name == "atlas.build_glued_atlas":
            self.add("atlas.halvings", result.certificates["halvings"])

    def _inside(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0


def install(tracer: Tracer) -> None:
    """Replace every binding of each ``TIMED`` function in the loaded
    germglue modules with its timing wrapper.  Call after
    ``import germglue.cli``."""
    modules = _germglue_modules()
    for modname, names in TIMED.items():
        short = modname.split(".")[-1]
        for fname in names:
            original = getattr(modules[modname], fname)
            _rebind(modules, original, tracer.wrap(f"{short}.{fname}", original))


def install_counters(tracer: Tracer) -> None:
    """Replace every binding of each ``COUNTED`` function with its counter,
    and nothing else.  Call after ``import germglue.cli``."""
    modules = _germglue_modules()
    for name, (modname, path) in COUNTED.items():
        owner = modules[modname]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapped = tracer.count(name, original)
        if isinstance(owner, type):
            setattr(owner, parts[-1], wrapped)
        else:
            _rebind(modules, original, wrapped)


def _germglue_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "germglue" or k.startswith("germglue.")}


def _rebind(modules: dict, original, wrapped) -> None:
    found = False
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                found = True
    if not found:
        raise RuntimeError(f"no module binding found for {original!r}")


def snapshot(tracer: Tracer) -> dict:
    """Aggregates in a JSON-friendly shape (the span list is separate)."""
    return {
        "calls": dict(tracer.calls),
        "total_s": dict(tracer.total),
        "self_s": dict(tracer.self_time),
        "extra": dict(tracer.extra),
    }
