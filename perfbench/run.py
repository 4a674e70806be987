"""germglue benchmark: seeded exact-cocycle workloads through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command generates the workload's
documents from the seed (printing each document's sha256), then runs passes
over the workload's job list until S seconds have gone by.  Each pass is a
fresh interpreter that calls ``germglue.cli.main(argv)`` once per job: one
client, closed loop, one job at a time, and no document repeats within a
pass, so nothing cached in one pass reaches the next.  Every job's report
is checked against the verdict its input guarantees by construction, and
its sha256 is printed and must repeat across passes.

Times are measured twice: as wall time, and scaled to a fixed host speed
by ``hostclock.py``, which samples the host's speed during each pass and
divides it out.  The gated times (``pass_s``, ``setup_s``) are the scaled
ones, because the raw wall time of the same code on the shared host this
was built on spreads by up to a factor of two from run to run.

With ``--trace 0`` the command reports the end-to-end metrics; with
``--trace 1`` each untraced pass is followed by a traced one, and the
command reports the per-layer metrics measured by wrapping the library's
public functions from outside (see ``tracer.py``), each layer's share of
the traced pass, and the tracing overhead.  The metric names and units of
the result line are those of ``BENCHMARK.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Files the benchmark reads from the checkout besides its own.
SETUP_DOCS = {
    "atlas-input": "sample_inputs/identity-atlas.json",
    "sheaf-input": "sample_inputs/rank2-sheaf.json",
    "tep-input": "sample_inputs/flat-tep.json",
    "tep-glue-input": "sample_inputs/tep-glue.json",
}
SPEC = "BENCHMARK.json"
REQUIRED = [SPEC, "src/germglue/cli.py", *SETUP_DOCS.values()]

# Per-command job times, printed in the end-to-end table only (absent when
# a workload has no job of that command).
COMMAND_METRICS = [
    ("validate_s", "validate"), ("glue_s", "glue"), ("glue_float_s", "glue-float"),
    ("glue_sheaf_s", "glue-sheaf"), ("tep_check_s", "tep-check"),
    ("glue_tep_s", "glue-tep"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"not a germglue checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(root, SPEC), encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.abspath(sys.modules["germglue"].__file__).startswith(src):
        print("germglue was not imported from this checkout", file=sys.stderr)
        return 2

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return Bench(args, root, work, workloads, spec).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Bench:
    def __init__(self, args, root: str, work: str, workloads, spec: dict):
        self.args = args
        self.root = root
        self.work = work
        self.wl = workloads
        self.spec = spec
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    # -- children ----------------------------------------------------------

    def child(self, argv: list[str]) -> None:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), *argv],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed:\n{proc.stderr[-2000:]}")

    def read(self, name: str) -> dict:
        with open(os.path.join(self.work, name), encoding="utf-8") as handle:
            return json.load(handle)

    def setup_docs(self) -> str:
        path = os.path.join(self.work, "setup-docs.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({k: os.path.join(self.root, v) for k, v in SETUP_DOCS.items()},
                      handle)
        return path

    def setup_time(self, docs: str) -> dict:
        self.child(["--setup", docs, os.path.join(self.work, "setup.json")])
        return self.read("setup.json")

    # -- inputs ------------------------------------------------------------

    def materialize(self, bld, tag: str) -> list[dict]:
        """Write the documents, print their digests, return the job list
        with argv pointing at this run's files."""
        docs_dir = os.path.join(self.work, f"{tag}-docs")
        os.makedirs(docs_dir)
        for name, doc in sorted(bld.docs.items()):
            data = self.wl.canonical_bytes(doc)
            with open(os.path.join(docs_dir, f"{name}.json"), "wb") as handle:
                handle.write(data)
            print(f"doc {tag}/{name} sha256 {self.wl.sha256(data)}")
        jobs = []
        for job in bld.jobs:
            argv = [job["command"], os.path.join(docs_dir, f"{job['doc']}.json")]
            if job["atlas"]:
                argv += ["--atlas", os.path.join(docs_dir, f"{job['atlas']}.json")]
            out = os.path.join(self.work, f"{tag}-out", job["id"])
            argv += [*job["flags"], "--out", out]
            jobs.append(dict(job, argv=argv, out=out))
        with open(os.path.join(self.work, f"{tag}-jobs.json"), "w") as handle:
            json.dump([{"id": j["id"], "argv": j["argv"]} for j in jobs], handle)
        return jobs

    def run_pass(self, tag: str, jobs: list[dict], mode: str = "plain") -> dict:
        """One pass in a fresh interpreter; ``mode`` is ``plain``, ``trace``
        (timing wrappers and span records) or ``count`` (coefficient-level
        counters only)."""
        shutil.rmtree(os.path.join(self.work, f"{tag}-out"), ignore_errors=True)
        argv = [os.path.join(self.work, f"{tag}-jobs.json"),
                os.path.join(self.work, f"{tag}-result.json")]
        if mode == "trace":
            argv += ["--trace", os.path.join(self.work, f"{tag}-spans.json")]
        elif mode == "count":
            argv += ["--count"]
        self.child(argv)
        result = self.read(f"{tag}-result.json")
        for job, rec in zip(jobs, result["jobs"]):
            path = os.path.join(job["out"], f"{job['command']}-report.json")
            problems = []
            if rec["raised"]:
                problems.append(f"raised {rec['raised']}")
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                rec["report_sha256"] = self.wl.sha256(data)
                rec["report_bytes"] = len(data)
                problems += self.wl.check(job["expect"], json.loads(data))
            except (OSError, ValueError) as exc:
                rec["report_sha256"] = None
                rec["report_bytes"] = 0
                problems.append(f"no report: {exc}")
            rec["problems"] = problems
        if mode == "trace":
            result["spans"] = len(self.read(f"{tag}-spans.json")["spans"])
        return result

    # -- the run -----------------------------------------------------------

    def run(self) -> int:
        args = self.args
        t_gen = time.perf_counter()
        jobs = self.materialize(self.wl.build(args.workload, args.seed), "main")
        probe = None
        if args.workload == "atlas-wide":
            probe = self.materialize(self.wl.build_probe(args.seed), "probe")
        print(f"generated {len(jobs)} jobs in {time.perf_counter() - t_gen:.2f} s")

        # Two set-up starts before each pass spread the set-up samples over
        # the whole run, like the passes; the first start also compiles
        # bytecode and is not counted.  A loop starts only if one more of
        # the last loop's length still ends within the measured seconds.
        docs = self.setup_docs()
        self.setup_time(docs)
        setup, passes, traced_passes = [], [], []
        start = last = time.perf_counter()
        loop_s = 0.0
        while not passes or last - start + loop_s <= args.seconds:
            setup += [self.setup_time(docs), self.setup_time(docs)]
            passes.append(self.run_pass("main", jobs))
            if args.trace:
                traced_passes.append(self.run_pass("main", jobs, "trace"))
            loop_s, last = time.perf_counter() - last, time.perf_counter()
        # Coefficient-level counts are the same in every pass of one seed;
        # one pass with only those counters gives them.
        counted = self.run_pass("main", jobs, "count") if args.trace else None

        attempted = failed = 0
        digests = {}
        for result in passes + traced_passes + ([counted] if counted else []):
            for rec in result["jobs"]:
                attempted += 1
                first = digests.setdefault(rec["id"], rec["report_sha256"])
                if first != rec["report_sha256"]:
                    rec["problems"].append("report bytes differ between passes")
                failed += bool(rec["problems"])
        print_jobs(jobs, passes)

        e2e = end_to_end(jobs, passes, setup)
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        printed = dict(PRINTED_UNITS, **units)
        print_table(f"end-to-end, {args.workload}, seed {args.seed}, "
                    f"{len(passes)} untraced pass(es) of {len(jobs)} jobs",
                    [(k, v, printed.get(k, "s")) for k, v in e2e.items()])
        print("pass wall times: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
        print("pass scaled times: " + " ".join(
            f"{sum(r['scaled_s'] for r in p['jobs']):.3f}" for p in passes))
        print("pass host speeds: " + " ".join(f"{p['speed']:.3f}" for p in passes))
        print("setup_s samples (scaled/raw): "
              + " ".join(f"{t['setup_s']:.3f}/{t['wall_s']:.3f}" for t in setup))
        print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
        if probe is not None:
            self.report_probe(probe)

        if args.trace:
            layers = per_layer(traced_passes, counted)
            units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
            # Metrics outside BENCHMARK.json are times that read 0 on some
            # workload; they are printed, not reported.
            print_table(f"per-layer, {args.workload}, seed {args.seed}, fastest of "
                        f"{len(traced_passes)} traced pass(es), counts from a counted pass",
                        [(k, v, units.get(k, "s")) for k, v in layers.items()])
            traced_wall = fastest_pass_s(traced_passes)
            print_shares(traced_passes, traced_wall)
            traced_s = sum(job_medians(traced_passes))
            print(f"tracing overhead: traced pass_s {traced_s:.4f} s - untraced "
                  f"pass_s {e2e['pass_s']:.4f} s = {traced_s - e2e['pass_s']:.4f} s "
                  f"({traced_s / e2e['pass_s'] - 1:.1%}); "
                  f"{statistics.median(p['spans'] for p in traced_passes):g} spans/pass")
            metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
        else:
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in units.items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0

    def report_probe(self, jobs: list[dict]) -> None:
        """The known false obstruction (ROADMAP item 4): a valid cocycle
        that the region geometry cannot certify.  Reported, never timed,
        and kept out of the result line."""
        result = self.run_pass("probe", jobs)
        bad = 0
        for job, rec in zip(jobs, result["jobs"]):
            bad += bool(rec["problems"])
            print(f"probe {job['id']} exit {rec['exit']} {rec['seconds']:.4f} s report "
                  f"sha256 {rec['report_sha256']}"
                  + (f" PROBLEMS {rec['problems']}" if rec["problems"] else ""))
        print(f"probe failed_ratio {bad}/{len(jobs)} (expected exit 0 by construction; "
              "an exit 3 here is the region-geometry false obstruction)")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# Units of the printed end-to-end metrics that are not seconds.
PRINTED_UNITS = {"host_speed": "ratio", "peak_rss_mb": "MB"}


def job_medians(passes: list[dict]) -> list[float]:
    """Each job's median scaled time over the passes."""
    return [statistics.median(p["jobs"][k]["scaled_s"] for p in passes)
            for k in range(len(passes[0]["jobs"]))]


def fastest_pass_s(passes: list[dict]) -> float:
    """The sum over jobs of each job's fastest raw time over the passes."""
    return sum(min(p["jobs"][k]["seconds"] for p in passes)
               for k in range(len(passes[0]["jobs"])))


def print_jobs(jobs: list[dict], passes: list[dict]) -> None:
    """One line per job: exit code, median scaled and raw time, report digest."""
    for k, (job, scaled) in enumerate(zip(jobs, job_medians(passes))):
        rec = passes[0]["jobs"][k]
        secs = statistics.median(p["jobs"][k]["seconds"] for p in passes)
        print(f"job {job['id']} {job['command']} exit {rec['exit']} "
              f"scaled {scaled:.4f} s raw {secs:.4f} s "
              f"report sha256 {rec['report_sha256']}"
              + (f" PROBLEMS {rec['problems']}" if rec["problems"] else ""))


def _category(job: dict) -> str:
    if job["command"] == "glue" and "float" in job["flags"]:
        return "glue-float"
    return job["command"]


def end_to_end(jobs: list[dict], passes: list[dict], setup: list[dict]) -> dict:
    """End-to-end metrics of one run.  ``pass_s`` and the per-command times
    are scaled job times (each job's median over the passes); ``wall_s`` is
    the median raw wall time of whole passes and ``host_speed`` the median
    speed the host clock sampled in them.  Set-up and memory are medians."""
    best = job_medians(passes)
    cats = [_category(j) for j in jobs]
    out = {"pass_s": sum(best),
           "wall_s": statistics.median(p["wall_s"] for p in passes),
           "host_speed": statistics.median(p["speed"] for p in passes),
           "job_max_s": max(best)}
    for metric, cat in COMMAND_METRICS:
        times = [t for t, c in zip(best, cats) if c == cat]
        if times:
            out[metric] = statistics.median(times)
    glue = [t for t, c in zip(best, cats) if c == "glue"]
    if glue:
        out["glue_max_s"] = max(glue)
    out["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    out["setup_s"] = statistics.median(t["setup_s"] for t in setup)
    out["setup_wall_s"] = statistics.median(t["wall_s"] for t in setup)
    return out


DECODERS = ["atlas_input_from_json", "sheaf_input_from_json",
            "tep_data_from_json", "tep_glue_input_from_json"]


def layer_metrics(result: dict, counted: dict) -> dict:
    """Per-layer metrics of one traced pass; the coefficient-level counts
    come from the counted pass."""
    tr = result["trace"]
    calls, total, own, extra = tr["calls"], tr["total_s"], tr["self_s"], tr["extra"]
    counts = counted["trace"]["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "atlas.validate_s": total["atlas.validate_germ_data"],
        "atlas.refine_s": total["regions.refine_cover"],
        "atlas.overlaps_s": total["atlas.compute_overlaps"],
        "atlas.shrink_s": total["atlas.shrink_tubes"],
        "atlas.triples_s": total["atlas.enforce_triple_domains"],
        "atlas.closedness_s": total["atlas.check_closed_relation"],
        "atlas.build_s": total["atlas.build_glued_atlas"],
        "atlas.halvings": extra.get("atlas.halvings", 0),
        "atlas.triples_compose_per_cert": ratio(
            extra.get("atlas.triples_map_compose", 0),
            extra.get("atlas.triple_certs_nonvacuous", 0)),
        "atlas.closedness_audited_ratio": ratio(
            extra.get("atlas.closedness_audited", 0),
            extra.get("atlas.closedness_samples", 0)),
        "jets.map_compose_calls": calls["jets.map_compose"],
        "jets.map_compose_s": total["jets.map_compose"],
        "jets.jet_mul_calls": calls["jets.jet_mul"],
        "jets.jet_mul_s": own["jets.jet_mul"],
        "jets.map_inverse_s": total["jets.map_inverse"],
        "jets.jet_eval_calls": calls["jets.jet_eval"],
        "jets.jet_eval_s": own["jets.jet_eval"],
        "scalars.coeff_mul_calls": counts["scalars.coeff_mul"],
        "scalars.sqrt_bound_calls": counts["scalars.sqrt_ub"] + counts["scalars.sqrt_lb"],
        "regions.range_bound_calls": calls["regions.range_bound"],
        "regions.range_bound_s": total["regions.range_bound"],
        "regions.map_image_bound_s": total["regions.map_image_bound"],
        "matrices.matrix_mul_calls": calls["matrices.matrix_mul"],
        "matrices.matrix_mul_s": total["matrices.matrix_mul"],
        "matrices.matrix_inverse_s": total["matrices.matrix_inverse"],
        "matrices.matrix_det_s": total["matrices.matrix_det"],
        "sheaf.validate_s": total["sheaf.validate_sheaf_cocycle"],
        "sheaf.glue_self_s": own["sheaf.glue_sheaf"],
        "tep.report_s": total["tep.tep_report"],
        "tep.gc_s": total["tep.check_GC"],
        "tep.glue_self_s": own["tep.glue_tep"],
        "numeval.audit_s": total["numeval.float_transition_audit"],
        "sampling.batch_eval_s": total["sampling.batch_eval"],
        "sampling.points_evaluated": extra.get("sampling.points_evaluated", 0),
        "documents.load_s": total["documents.load_document"],
        "documents.decode_s": sum(total[f"documents.{name}"] for name in DECODERS),
        "documents.dump_s": total["documents.dump_report"],
        "documents.report_bytes": sum(r["report_bytes"] for r in result["jobs"]),
        "cli.self_s": own["cli.main"],
    }


def per_layer(passes: list[dict], counted: dict) -> dict:
    """The smallest value of each metric over the traced passes (counts
    and ratios are the same in every pass)."""
    rows = [layer_metrics(p, counted) for p in passes]
    return {k: min(r[k] for r in rows) for k in rows[0]}


# Inclusive spans whose share of the traced pass says which part of the
# program a workload exercises; an indented span runs inside the one above.
SHARE_SPANS = {
    "atlas.run_glue_pipeline": ["atlas.run_glue_pipeline"],
    "  atlas.validate_germ_data": ["atlas.validate_germ_data"],
    "  atlas.enforce_triple_domains": ["atlas.enforce_triple_domains"],
    "  atlas.check_closed_relation": ["atlas.check_closed_relation"],
    "  regions.range_bound": ["regions.range_bound"],
    "sheaf.glue_sheaf": ["sheaf.glue_sheaf"],
    "  sheaf.validate_sheaf_cocycle": ["sheaf.validate_sheaf_cocycle"],
    "tep.tep_report": ["tep.tep_report"],
    "numeval.float_transition_audit": ["numeval.float_transition_audit"],
    "documents (load, decode, dump)": [
        "documents.load_document", "documents.dump_report",
        *(f"documents.{name}" for name in DECODERS)],
}


def print_shares(passes: list[dict], wall: float) -> None:
    """Self time of each module (the sum over its traced functions) and the
    inclusive time of the main spans, each with its share of the traced
    pass.  ``glue-sheaf`` and ``glue-tep`` jobs run the atlas pipeline
    first, and ``glue_tep`` calls ``glue_sheaf`` and ``tep_report``."""
    modules = sorted({name.split(".")[0] for name in passes[0]["trace"]["self_s"]})
    print(f"self time by module (smallest over traced passes; share of traced wall_s {wall:.4f} s):")
    for module in modules:
        value = min(sum(v for n, v in p["trace"]["self_s"].items()
                            if n.split(".")[0] == module) for p in passes)
        print(f"  {module:<32} {value:10.4f} s {value / wall:7.1%}")
    print("inclusive time of main spans (smallest over traced passes; share of traced wall_s):")
    for label, names in SHARE_SPANS.items():
        value = min(sum(p["trace"]["total_s"][n] for n in names) for p in passes)
        print(f"  {label:<32} {value:10.4f} s {value / wall:7.1%}")


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    print(f"  {'metric':<34} {'value':>16}  unit")
    for name, value, unit in rows:
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>16}  {unit}")


if __name__ == "__main__":
    sys.exit(main())
