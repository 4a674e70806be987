"""Tests of the benchmark's own generator, verdict checks and tracer.

Run with the library on the path:
    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from germglue.cli import main as cli_main  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _digests(bld) -> dict:
    return {name: workloads.sha256(workloads.canonical_bytes(doc))
            for name, doc in bld.docs.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_documents(workload):
    first = _digests(workloads.build(workload, 7, tiny=True))
    again = _digests(workloads.build(workload, 7, tiny=True))
    other = _digests(workloads.build(workload, 8, tiny=True))
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def _run_jobs(bld, tmp_path) -> dict:
    docs = tmp_path / "docs"
    docs.mkdir()
    for name, doc in bld.docs.items():
        (docs / f"{name}.json").write_bytes(workloads.canonical_bytes(doc))
    problems = {}
    for job in bld.jobs:
        out = tmp_path / "out" / job["id"]
        argv = [job["command"], str(docs / f"{job['doc']}.json"), *job["flags"],
                "--out", str(out)]
        if job["atlas"]:
            argv += ["--atlas", str(docs / f"{job['atlas']}.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(argv)
        envelope = json.loads((out / f"{job['command']}-report.json").read_text())
        problems[job["id"]] = workloads.check(job["expect"], envelope)
    return problems


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_by_construction_verdicts_hold_at_tiny_size(workload, tmp_path):
    problems = _run_jobs(workloads.build(workload, 3, tiny=True), tmp_path)
    assert problems and all(not p for p in problems.values()), problems


def test_check_reports_a_wrong_verdict():
    expect = {"exit": 2, "valid": False, "violation": "cocycle",
              "triples": [["A", "B", "C"]]}
    envelope = {"exit_code": 0, "report": {"validation": {"valid": True,
                                                          "violations": []}}}
    assert len(workloads.check(expect, envelope)) == 4


def test_perturbed_atlas_breaks_exactly_the_triples_with_both_charts():
    assert workloads.broken_triples(["A", "B", "C", "D"], "A", "D") == [
        ["A", "B", "D"], ["A", "C", "D"], ["A", "D", "B"], ["A", "D", "C"],
        ["B", "A", "D"], ["B", "D", "A"], ["C", "A", "D"], ["C", "D", "A"],
        ["D", "A", "B"], ["D", "A", "C"], ["D", "B", "A"], ["D", "C", "A"],
    ]


def test_traced_pass_patches_every_binding(tmp_path):
    bld = workloads.build("atlas-deep", 1, tiny=True)
    docs = tmp_path / "docs"
    docs.mkdir()
    for name, doc in bld.docs.items():
        (docs / f"{name}.json").write_bytes(workloads.canonical_bytes(doc))
    job = next(j for j in bld.jobs if j["command"] == "glue" and not j["flags"])
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([{"id": job["id"], "argv": [
        "glue", str(docs / f"{job['doc']}.json"), "--out", str(tmp_path / "out")]}]))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def run_pass(*mode):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), str(jobs),
             str(tmp_path / "result.json"), *mode],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        return json.loads((tmp_path / "result.json").read_text())

    result = run_pass("--trace", str(tmp_path / "spans.json"))
    assert result["jobs"][0]["exit"] == 0
    calls = result["trace"]["calls"]
    # run_glue_pipeline reaches each stage through germglue.atlas, the
    # triple loop reaches map_compose through germglue.atlas, and
    # jet_compose reaches jet_mul through germglue.jets.
    for name in ("atlas.validate_germ_data", "regions.refine_cover",
                 "atlas.enforce_triple_domains", "jets.map_compose",
                 "jets.jet_mul", "regions.range_bound"):
        assert calls[name] > 0, name
    # the timed pass carries no coefficient counters
    assert "scalars.coeff_mul" not in calls
    extra = result["trace"]["extra"]
    assert extra["atlas.triples_map_compose"] >= extra["atlas.triple_certs_nonvacuous"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    by_id = {s[3]: s for s in spans}
    stage = next(s for s in spans if s[0] == "atlas.shrink_tubes")
    assert by_id[stage[4]][0] == "atlas.run_glue_pipeline"
    assert all(s[5] == job["id"] for s in spans)

    counted = run_pass("--count")["trace"]["calls"]
    assert counted["scalars.coeff_mul"] > 0 and counted["scalars.sqrt_ub"] > 0
    assert "jets.jet_mul" not in counted


def test_result_line_metrics_are_computed():
    """Every metric BENCHMARK.json names is one the command computes."""
    import run
    import tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    zero = {f"{mod.split('.')[-1]}.{name}": 0
            for mod, names in tracer.TIMED.items() for name in names}
    traced = {"trace": {"calls": zero, "total_s": zero, "self_s": zero, "extra": {}},
              "jobs": []}
    counted = {"trace": {"calls": {name: 0 for name in tracer.COUNTED}}}
    layers = run.layer_metrics(traced, counted)
    assert {m["name"] for m in spec["per_layer"]} <= layers.keys()
    plain = [{"wall_s": 2.0, "peak_rss_mb": 40.0, "speed": 0.8,
              "jobs": [{"seconds": 1.5, "scaled_s": 1.2},
                       {"seconds": 0.5, "scaled_s": 0.4}]},
             {"wall_s": 1.7, "peak_rss_mb": 41.0, "speed": 1.0,
              "jobs": [{"seconds": 1.0, "scaled_s": 1.0},
                       {"seconds": 0.7, "scaled_s": 0.6}]}]
    jobs = [{"command": "glue", "flags": []}, {"command": "validate", "flags": []}]
    setup = [{"setup_s": t, "wall_s": 2 * t} for t in (0.4, 0.5, 0.6)]
    e2e = run.end_to_end(jobs, plain, setup)
    assert {m["name"] for m in spec["end_to_end"]} <= e2e.keys()
    # each job at its median scaled time over the passes
    assert e2e["pass_s"] == pytest.approx(1.6) and e2e["glue_max_s"] == 1.1
    assert e2e["wall_s"] == pytest.approx(1.85) and e2e["setup_s"] == 0.5


def test_host_clock_divides_out_the_sampled_speed():
    import hostclock

    ref = hostclock.REF_S
    clock = hostclock.HostClock()
    # speeds 1, 1/2 and 1 inside the stretch from 1.0 to 1.3
    clock.starts = [1.0, 1.1, 1.2, 5.0, 5.1, 5.2]
    clock.lengths = [ref, 2 * ref, ref, ref / 2, ref / 2, ref / 2]
    own = 0.3 - 4 * ref
    assert clock.scaled(1.0, 1.3) == pytest.approx(own * (2.5 / 3))
    # a stretch with too few samples of its own borrows the nearest ones
    assert clock.scaled(5.05, 5.06) == pytest.approx(0.01 * 2)

    live = hostclock.HostClock()
    live.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    finally:
        live.stop()
    assert len(live.starts) >= 5
    assert 0 < live.scaled(t0, t1) < 10 * (t1 - t0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_document_repeats_within_a_pass(workload):
    digests = _digests(workloads.build(workload, 5))
    assert len(set(digests.values())) == len(digests)
