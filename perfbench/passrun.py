"""One benchmark pass in a fresh interpreter: run a job list through
``germglue.cli.main`` one job at a time and record each job's exit code,
wall time and host-speed-scaled time (see ``hostclock.py``).

    python3 perfbench/passrun.py JOBS.json RESULT.json [--trace SPANS.json | --count]
    python3 perfbench/passrun.py --setup DOC_LIST.json RESULT.json

``--trace`` times the library's public functions from outside (see
``tracer.py``) and writes the span records; ``--count`` counts only the
coefficient-level calls, in a pass whose times are not used.

``--setup`` instead times what every CLI call pays before it does any work:
importing ``germglue.cli`` and loading and validating one document of each
input kind.  The clock starts before the first germglue import, so
interpreter start is excluded; the time is reported both raw and scaled.
A counted pass runs without the host clock.

The caller puts the checkout's ``src`` on PYTHONPATH; report files land in
the ``--out`` directory named in each job's argv.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from hostclock import HostClock  # this script's directory is sys.path[0]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(doc_list_path: str, result_path: str) -> None:
    clock = HostClock()
    clock.start()
    t0 = time.perf_counter()
    import germglue.cli  # noqa: F401  (the import is what is timed)
    from germglue import documents

    with open(doc_list_path, encoding="utf-8") as handle:
        docs = json.load(handle)
    decoders = {
        "atlas-input": documents.atlas_input_from_json,
        "sheaf-input": documents.sheaf_input_from_json,
        "tep-input": documents.tep_data_from_json,
        "tep-glue-input": documents.tep_glue_input_from_json,
    }
    for kind, path in sorted(docs.items()):
        decoders[kind](documents.load_document(path, kind))
    t1 = time.perf_counter()
    clock.stop()
    _write(result_path, {"setup_s": clock.scaled(t0, t1), "wall_s": t1 - t0,
                         "germglue": germglue.cli.__file__})


def run_pass(jobs_path: str, result_path: str, spans_path: str | None,
             counted: bool = False) -> None:
    import germglue.cli as cli

    tracer = None
    if spans_path is not None or counted:
        import tracer as tracing  # this script's directory is sys.path[0]

        tracer = tracing.Tracer()
        if counted:
            tracing.install_counters(tracer)
        else:
            tracing.install(tracer)
    # a counted pass's times are not used
    clock = None if counted else HostClock()
    if clock is not None:
        clock.start()
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    results = []
    sink = io.StringIO()
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.set_job(job["id"])
        raised = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(job["argv"])
        except Exception as exc:  # a raising job is recorded as failed
            code, raised = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        sink.seek(0)
        sink.truncate()
        results.append({"id": job["id"], "exit": code, "seconds": t1 - t0,
                        "raised": raised, "span": (t0, t1)})
    wall = time.perf_counter() - start
    if clock is not None:
        clock.stop()
        for rec in results:
            rec["scaled_s"] = clock.scaled(*rec.pop("span"))
    else:
        for rec in results:
            del rec["span"]
    out = {"wall_s": wall, "peak_rss_mb": _maxrss_mb(), "jobs": results,
           "germglue": cli.__file__}
    if clock is not None:
        out["speed"] = clock.speed()
    if tracer is not None:
        out["trace"] = tracing.snapshot(tracer)
    if spans_path is not None:
        _write(spans_path, {"spans": tracer.spans})
    _write(result_path, out)


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--setup":
        run_setup(argv[1], argv[2])
        return 0
    spans, counted = None, False
    if len(argv) == 4 and argv[2] == "--trace":
        spans = argv[3]
    elif len(argv) == 3 and argv[2] == "--count":
        counted = True
    elif len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    run_pass(argv[0], argv[1], spans, counted)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
