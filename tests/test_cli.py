"""Exit codes, report documents, and determinism of the command line."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import germglue
from germglue import documents
from germglue.cli import build_parser, main
from germglue.documents import validate_document

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def run_cli(tmp_path, *argv):
    code = main([*map(str, argv), "--out", str(tmp_path)])
    report_path = tmp_path / f"{argv[0]}-report.json"
    envelope = json.loads(report_path.read_text())
    validate_document(envelope, "report")
    return code, envelope, report_path


def test_validate_identity_atlas(tmp_path):
    code, envelope, _ = run_cli(tmp_path, "validate", SAMPLES / "identity-atlas.json")
    assert code == 0
    assert envelope["ok"]
    assert envelope["report"]["validation"]["valid"]


def test_glue_identity_atlas(tmp_path):
    code, envelope, _ = run_cli(
        tmp_path, "glue", SAMPLES / "identity-atlas.json", "--samples", "10"
    )
    assert code == 0
    report = envelope["report"]
    assert report["certificates"]["hausdorff"]["holds"]
    assert len(report["nerve"]["pairs"]) > 0
    assert set(report["radii"]) == {"A", "B", "C"}


@pytest.mark.parametrize("command", ["validate", "glue"])
def test_hidden_triple_overlap_fails_every_ordering(tmp_path, command):
    code, envelope, _ = run_cli(
        tmp_path, command, SAMPLES / "hidden-triple-atlas.json"
    )
    assert code == 2
    validation = envelope["report"]["validation"]
    assert validation["cocycle_triples_checked"] == 6
    assert sorted(tuple(v["triple"]) for v in validation["violations"]) == \
        list(itertools.permutations("ABC"))


def test_glue_broken_cocycle_exits_2_and_names_triple(tmp_path):
    code, envelope, path = run_cli(
        tmp_path, "glue", SAMPLES / "broken-cocycle-atlas.json"
    )
    assert code == 2
    assert not envelope["ok"]
    assert envelope["error"]["kind"] == "ValidationFailure"
    violations = envelope["report"]["validation"]["violations"]
    assert any(
        v.get("kind") == "cocycle" and v.get("triple") == ["A", "B", "C"]
        for v in violations
    )
    assert "A" in envelope["error"]["message"]


@pytest.mark.parametrize("kept", [(), (("A", "B"), ("B", "A"))], ids=["none", "A-B"])
def test_glue_without_transitions_on_a_triple_exits_2(tmp_path, kept):
    # the identity atlas's three charts overlap, and a pair with no
    # transition either way leaves its two tubes unidentified
    doc = json.loads((SAMPLES / "identity-atlas.json").read_text())
    doc["transitions"] = [t for t in doc["transitions"] if (t["from"], t["to"]) in kept]
    path = tmp_path / "atlas.json"
    path.write_text(json.dumps(doc))
    code, envelope, _ = run_cli(tmp_path, "glue", path)
    assert code == 2
    violations = envelope["report"]["validation"]["violations"]
    assert violations == [{"kind": "cocycle", "triple": ["A", "B", "C"],
                           "pair": ["A", "B"] if not kept else ["A", "C"],
                           "detail": "missing transition over a triple overlap"}]


def test_glue_exhausted_search_exits_3(tmp_path):
    code, envelope, _ = run_cli(
        tmp_path, "glue", SAMPLES / "pinch-atlas.json", "--radius-floor", "1"
    )
    assert code == 3
    assert envelope["error"] == {
        "kind": "ShrinkExhausted",
        "message": "pair ('A', 'B') not certified; radius floor 1 reached",
    }


def test_radius_floor_bounds_every_chart_radius(tmp_path):
    args = ["glue", SAMPLES / "scaling-atlas.json", "--samples", "10"]
    code, envelope, _ = run_cli(tmp_path, *args, "--radius-floor", "1/40")
    assert code == 3
    assert envelope["error"] == {
        "kind": "ShrinkExhausted",
        "message": "pair ('A', 'C') not certified; radius floor 1/40 reached",
    }
    code, envelope, _ = run_cli(tmp_path, *args, "--radius-floor", "1/64")
    assert code == 0
    assert min(map(Fraction, envelope["report"]["radii"].values())) == Fraction(1, 64)


def test_glue_radius_floor_names_the_blocking_triple(tmp_path):
    # the default floor 2^-20, and a floor so deep that only the floor, not
    # a cap on the number of rounds, can end the triple stage
    deep = f"1/{2**250}"
    for flags, floor in [([], "1/1048576"), (["--radius-floor", deep], deep)]:
        code, envelope, _ = run_cli(
            tmp_path, "glue", SAMPLES / "identity-chain-atlas.json", *flags
        )
        assert code == 3
        assert envelope["error"] == {
            "kind": "ShrinkExhausted",
            "message": "triple ('C000', 'C002', 'C003'): image bound escapes O_jk; "
                       f"radius floor {floor} reached",
        }


def test_glue_reports_are_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    args = ["glue", str(SAMPLES / "scaling-atlas.json"), "--samples", "50",
            "--seed", "3"]
    assert main(args + ["--out", str(a_dir)]) == 0
    assert main(args + ["--out", str(b_dir)]) == 0
    assert (a_dir / "glue-report.json").read_bytes() == (
        b_dir / "glue-report.json"
    ).read_bytes()


def test_glue_float_mode_attaches_audit(tmp_path):
    code, envelope, _ = run_cli(
        tmp_path, "glue", SAMPLES / "scaling-atlas.json",
        "--mode", "float", "--samples", "20",
    )
    assert code == 0
    audit = envelope["report"]["float_audit"]
    assert audit["ok"]
    assert audit["backend"] == "python"
    assert audit["violations"] == 0
    assert audit["max_residual"] < 1e-9


def test_glue_sheaf_over_pinch_atlas(tmp_path):
    code, envelope, _ = run_cli(
        tmp_path, "glue-sheaf", SAMPLES / "rank2-sheaf.json",
        "--atlas", SAMPLES / "pinch-atlas.json", "--samples", "10",
    )
    assert code == 0
    report = envelope["report"]
    assert set(report) == {"epsilons", "det_bounds", "atlas_certificates"}
    assert set(report["epsilons"]) == {"A", "B"}
    assert report["det_bounds"]


def test_glue_sheaf_requires_atlas_flag(tmp_path):
    code, envelope, _ = run_cli(tmp_path, "glue-sheaf", SAMPLES / "rank2-sheaf.json")
    assert code == 4
    assert envelope["error"]["kind"] == "SchemaError"


def test_glue_sheaf_radius_floor_names_the_capping_domain(tmp_path):
    doc = json.loads((SAMPLES / "rank2-sheaf.json").read_text())
    doc["domains"][0]["domain"]["fiber_radius"] = "1/1000"
    sheaf = tmp_path / "thin-sheaf.json"
    sheaf.write_text(json.dumps(doc))
    code, envelope, _ = run_cli(
        tmp_path, "glue-sheaf", sheaf, "--atlas", SAMPLES / "pinch-atlas.json",
        "--radius-floor", "1/64",
    )
    assert code == 3
    assert envelope["error"] == {
        "kind": "ShrinkExhausted",
        "message": "chart 'A' capped at 1/1000 by the fiber radius of A domain "
                   "('A', 'B'); radius floor 1/64 reached",
    }


def test_glue_sheaf_rejects_a_base_transition_over_the_total_space(tmp_path):
    # g_AB itself as the declared (A, B) base transition: over the total
    # space its entry t*z survives, so it must not pass as base data
    doc = json.loads((SAMPLES / "rank2-sheaf.json").read_text())
    doc["base_transitions"][0]["matrix"] = next(
        m["matrix"] for m in doc["matrices"] if (m["from"], m["to"]) == ("A", "B"))
    sheaf = tmp_path / "total-space-base.json"
    sheaf.write_text(json.dumps(doc))
    code, envelope, _ = run_cli(
        tmp_path, "glue-sheaf", sheaf, "--atlas", SAMPLES / "pinch-atlas.json",
    )
    assert code == 4
    assert envelope["error"] == {
        "kind": "ShapeError",
        "message": "base transition ('A', 'B') has 2 variables, the base of A_ij has 1",
    }


@pytest.mark.parametrize(
    "key, value", [("presentations", {}), ("chi", [])], ids=["presentations", "chi"],
)
def test_sheaf_document_with_presentation_data_exits_4(tmp_path, key, value):
    # sheaf documents hold locally free data only
    doc = json.loads((SAMPLES / "rank2-sheaf.json").read_text())
    doc[key] = value
    sheaf = tmp_path / "presented.json"
    sheaf.write_text(json.dumps(doc))
    code, envelope, _ = run_cli(
        tmp_path, "glue-sheaf", sheaf, "--atlas", SAMPLES / "pinch-atlas.json",
    )
    assert code == 4
    assert envelope["error"] == {
        "kind": "SchemaError",
        "message": "sheaf-input document rejected: "
                   f"Additional properties are not allowed ('{key}' was unexpected)",
    }


def test_tep_check_flat_frame(tmp_path):
    code, envelope, _ = run_cli(tmp_path, "tep-check", SAMPLES / "flat-tep.json")
    assert code == 0
    tep = envelope["report"]["tep"]
    assert tep["valid"]
    assert tep["IC"]
    assert tep["GC"]["holds"]


def test_tep_check_bad_pairing_exits_2(tmp_path):
    code, envelope, _ = run_cli(tmp_path, "tep-check", SAMPLES / "antisym-tep.json")
    assert code == 2
    assert not envelope["ok"]
    assert not envelope["report"]["tep"]["pairing"]["valid"]


def test_glue_tep_product_family(tmp_path):
    code, envelope, _ = run_cli(
        tmp_path, "glue-tep", SAMPLES / "tep-glue.json", "--samples", "10"
    )
    assert code == 0
    cert = envelope["report"]["certificate"]
    assert cert["valid"]
    assert cert["intertwining"]["pairs_checked"] == 6
    assert cert["intertwining"]["residuals"] == []
    assert cert["point_checks"]


# One well-formed value per flag, spelled as str() prints the parsed value.
# No command reads --n-max or --tolerance: the radius floor is the one search
# budget and the float audit's tolerance is a constant.  Nor --order or
# --z-order: each document declares its own truncation orders.
FLAG_VALUES = {
    "--atlas": "atlas.json", "--order": "3", "--z-order": "2", "--mode": "float",
    "--tolerance": "0.5", "--n-max": "8", "--radius-floor": "1/64",
    "--samples": "5", "--seed": "1", "--out": "reports",
}
GLUE_FLAGS = {"--mode", "--radius-floor", "--samples", "--seed", "--out"}
# the flags each command reads; every other flag is a usage error
READS = {
    "validate": {"--out"},
    "glue": GLUE_FLAGS,
    "glue-sheaf": GLUE_FLAGS | {"--atlas"},
    "tep-check": {"--seed", "--out"},
    "glue-tep": GLUE_FLAGS,
}


def _dest(flag):
    return flag[2:].replace("-", "_")


@pytest.mark.parametrize("command", sorted(READS))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_each_command_parses_only_the_flags_it_reads(command, flag):
    argv = [command, "in.json", flag, FLAG_VALUES[flag]]
    if flag in READS[command]:
        assert str(getattr(build_parser().parse_args(argv), _dest(flag))) == argv[-1]
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 4


def test_commands_have_24_settable_values():
    settable = {
        command: set(vars(build_parser().parse_args([command, "in.json"]))) - {"command"}
        for command in READS
    }
    assert settable == {c: {"input"} | {_dest(f) for f in flags} for c, flags in READS.items()}
    assert sum(map(len, settable.values())) == 24


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "identity-atlas.json", "--mode", "float", "--samples", "5"],
        ["tep-check", "flat-tep.json", "--radius-floor", "1/2"],
        ["glue", "identity-atlas.json", "--samples", "abc"],
        ["glue", "identity-atlas.json", "--mode", "fast"],
        ["glue", "identity-atlas.json", "--bogus"],
        ["demolish", "identity-atlas.json"],
        [],
    ],
    ids=["unread-flags", "unread-budget", "malformed-int", "bad-choice", "unknown-flag",
         "unknown-command", "no-command"],
)
def test_usage_error_exits_4_without_a_report(tmp_path, capsys, argv):
    args = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path)] if args else args)
    assert exc.value.code == 4
    assert capsys.readouterr().err.startswith("usage: germglue")
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["glue", "--help"])
    assert exc.value.code == 0
    assert "--radius-floor" in capsys.readouterr().out


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    from germglue import cli

    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    counts = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["glue", "--help"])
        counts.append(len(built))
    # the second call builds nothing, whether or not the first one did
    assert counts[1] == counts[0]


def test_missing_file_exits_4(tmp_path):
    code, envelope, _ = run_cli(tmp_path, "validate", tmp_path / "absent.json")
    assert code == 4


def test_malformed_json_exits_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, envelope, _ = run_cli(tmp_path, "validate", bad)
    assert code == 4
    assert envelope["error"]["kind"] == "JSONDecodeError"


def test_wrong_document_kind_exits_4(tmp_path):
    code, envelope, _ = run_cli(tmp_path, "glue", SAMPLES / "rank2-sheaf.json")
    assert code == 4
    assert envelope["error"]["kind"] == "SchemaError"
    assert envelope["error"]["message"] == (
        "atlas-input document rejected: 'base_dim' is a required property"
    )


def _write_edited(tmp_path, sample, edit):
    doc = json.loads((SAMPLES / sample).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(order=3.0), "order must be an integer, got 3.0"),
        (lambda doc: doc["charts"]["A"].update(centers=["1\n"]), "bad fraction '1\\n'"),
    ],
    ids=["integral-float-order", "fraction-with-newline"],
)
def test_input_accepted_by_json_schema_but_not_decodable_exits_4(tmp_path, edit, message):
    path = _write_edited(tmp_path, "identity-atlas.json", edit)
    code, envelope, _ = run_cli(tmp_path, "glue", path)
    assert code == 4
    assert envelope["error"] == {"kind": "SchemaError", "message": message}


def test_tep_term_outside_the_declared_box_exits_4(tmp_path):
    # the document's box is t <= 2, z <= 2 under jets of order 10
    def edit(doc):
        doc["B"]["entries"][0][0]["terms"].append({"exponent": [3, 0], "value": "1"})

    path = _write_edited(tmp_path, "flat-tep.json", edit)
    code, envelope, _ = run_cli(tmp_path, "tep-check", path)
    assert code == 4
    assert envelope["error"] == {
        "kind": "SchemaError",
        "message": "B has a term at exponent [3, 0] outside the declared box (t <= 2, z <= 2)",
    }


def test_transition_order_above_the_atlas_order_is_a_shape_violation(tmp_path):
    def edit(doc):
        for tr in doc["transitions"]:
            for comp in tr["map"]["components"]:
                comp["order"] = doc["order"] + 1

    path = _write_edited(tmp_path, "identity-atlas.json", edit)
    code, envelope, _ = run_cli(tmp_path, "validate", path)
    assert code == 2
    report = envelope["report"]["validation"]
    shape = [v for v in report["violations"] if v["kind"] == "shape"]
    assert [v["detail"] for v in shape] == ["transition order differs from atlas order"] * 6
    # no pair is usable, so no inverse check ran and the triple is a gap
    assert report["transitions_checked"] == 0
    assert report["violations"][6:] == [{
        "kind": "cocycle", "triple": ["A", "B", "C"], "pair": ["A", "B"],
        "detail": "missing transition over a triple overlap",
    }]


def _shift_jet_vars(node, step):
    """``node`` with every jet's variable count moved by ``step``: +1 appends
    a variable that no term uses, -1 drops the last variable and keeps only
    the terms free of it.  A map's ``source_vars`` moves with its jets."""
    if isinstance(node, list):
        return [_shift_jet_vars(x, step) for x in node]
    if not isinstance(node, dict):
        return node
    if "terms" in node:
        return {**node, "vars": node["vars"] + step, "terms": [
            {**t, "exponent": t["exponent"] + [0] if step > 0 else t["exponent"][:-1]}
            for t in node["terms"] if step > 0 or t["exponent"][-1] == 0
        ]}
    out = {key: _shift_jet_vars(value, step) for key, value in node.items()}
    if "source_vars" in node:
        out["source_vars"] = node["source_vars"] + step
    return out


def test_sheaf_matrix_with_an_extra_variable_exits_2_naming_each_pair(tmp_path):
    path = _write_edited(
        tmp_path, "rank2-sheaf.json", lambda doc: doc.update(_shift_jet_vars(doc, 1)))
    code, envelope, _ = run_cli(
        tmp_path, "glue-sheaf", path, "--atlas", SAMPLES / "pinch-atlas.json")
    assert code == 2
    report = envelope["report"]["validation"]
    assert [(v["kind"], v["pair"], v["detail"]) for v in report["violations"]] == [
        ("shape", ["A", "B"], "matrix has wrong variable count"),
        ("shape", ["B", "A"], "matrix has wrong variable count"),
        ("base_transition", ["A", "B"], "declared base data on a pair with no usable matrix"),
    ]
    assert report["pairs_checked"] == 0


def test_sheaf_matrices_at_two_orders_exit_4_naming_each_pair(tmp_path):
    # a sheaf document declares no order, so neither pair is the wrong one
    def edit(doc):
        for item in doc["matrices"]:
            if (item["from"], item["to"]) == ("A", "B"):
                for jet in (x for row in item["matrix"]["entries"] for x in row):
                    jet["order"] = 4
                    jet["terms"] = [t for t in jet["terms"] if sum(t["exponent"]) <= 4]

    path = _write_edited(tmp_path, "rank2-sheaf.json", edit)
    code, envelope, _ = run_cli(
        tmp_path, "glue-sheaf", path, "--atlas", SAMPLES / "pinch-atlas.json")
    assert code == 4
    assert envelope["error"] == {
        "kind": "ShapeError",
        "message": "sheaf matrices must share one jet order: "
                   "order 4 at [('A', 'B')]; order 6 at [('B', 'A')]",
    }


@pytest.mark.parametrize("step", [1, -1], ids=["extra-var", "dropped-var"])
@pytest.mark.parametrize(
    "argv",
    [
        ["glue", "identity-atlas.json"],
        ["glue-sheaf", "rank2-sheaf.json", "--atlas", "pinch-atlas.json"],
        ["tep-check", "flat-tep.json"],
        ["glue-tep", "tep-glue.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_variable_count_mismatch_gives_a_report(tmp_path, argv, step):
    command, sample, *rest = argv
    path = _write_edited(
        tmp_path, sample, lambda doc: doc.update(_shift_jet_vars(doc, step)))
    flags = [str(SAMPLES / a) if a.endswith(".json") else a for a in rest]
    code, envelope, _ = run_cli(tmp_path, command, path, *flags)
    assert code in (2, 4)
    assert not envelope["ok"]


# Runs one command through germglue.cli.main in a fresh interpreter and
# prints whether it loaded jsonschema (test-only) or numpy (not used).
_IMPORT_PROBE = """
import json, sys
from germglue.cli import build_parser, main
code = main(sys.argv[1:])
print(json.dumps([code, "jsonschema" in sys.modules, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["glue", "identity-atlas.json"], [0, False, False]),
        (["glue", "identity-atlas.json", "--mode", "float", "--samples", "10"],
         [0, False, False]),
        (["glue", "rank2-sheaf.json"], [4, False, False]),
    ],
    ids=["exact", "float", "rejected"],
)
def test_heavy_imports_load_only_when_needed(tmp_path, argv, expected):
    args = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
    src = str(Path(germglue.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *args, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == expected


@pytest.mark.parametrize("floor", ["0", "-1/2"])
def test_nonpositive_radius_floor_exits_4(tmp_path, floor):
    code, envelope, _ = run_cli(
        tmp_path, "glue", SAMPLES / "identity-atlas.json", f"--radius-floor={floor}"
    )
    assert code == 4
    assert envelope["error"]["kind"] == "SchemaError"


@pytest.mark.parametrize("command", ["glue", "glue-sheaf", "glue-tep"])
def test_radius_floor_is_checked_before_the_input_is_read(tmp_path, command):
    bad = tmp_path / "undecodable.json"
    bad.write_text("{not json")
    extra = ["--atlas", bad] if command == "glue-sheaf" else []
    code, envelope, _ = run_cli(tmp_path, command, bad, *extra, "--radius-floor", "0")
    assert code == 4
    assert envelope["error"]["kind"] == "SchemaError"
    assert "--radius-floor" in envelope["error"]["message"]


@pytest.mark.parametrize("flag", ["--samples=-1"])
def test_out_of_range_budget_exits_4(tmp_path, flag):
    code, envelope, _ = run_cli(
        tmp_path, "glue", SAMPLES / "identity-atlas.json", flag
    )
    assert code == 4
    assert envelope["error"]["kind"] == "SchemaError"
    assert "closedness" not in envelope["report"]


# Exit code and report sha256 of each command on the committed sample
# inputs (default flags unless given): exact arithmetic must not move a byte.
SAMPLE_REPORTS = [
    (["validate", "identity-atlas.json"], 0,
     "53dd47c7b86a27083a65b1a8e7f00505341c7226c77318ad7d0191f3c557da7e"),
    (["validate", "scaling-atlas.json"], 0,
     "023deaa6f02a1ec79b436ca684015f003aea0c4fac3f932d4a7dd682fa534346"),
    (["validate", "pinch-atlas.json"], 0,
     "ee975b5d4e34e015844aae1fbdc0900851cc5740768bd3f1d74bc1495c2b2c6f"),
    (["validate", "broken-cocycle-atlas.json"], 2,
     "17c30820d675a72dbf38e9667600be4e55cda5a43b955b38eccb4ebbce69fda9"),
    (["glue", "identity-atlas.json"], 0,
     "0b2e815d1ad816b9cea5c2deb3306317b84ddaeba5bc268ca53fd23ddcdb66f2"),
    (["glue", "scaling-atlas.json"], 0,
     "d017e4a4012c62c08ea59dbf93244f2ce6424289f33568dcfc07c6f251ffb4d0"),
    (["glue", "pinch-atlas.json"], 0,
     "62f45f8c50f151943fc0ad900ced8e45822f8b4a9920306d3434e4f8a15bebf7"),
    (["glue", "broken-cocycle-atlas.json"], 2,
     "6484d11a646e70c0f0a302d10a856591bdefddbb7b955bf229fbf23a38d0dbf8"),
    # halves a radius in the triple stage; float mode's seeded audits read
    # the order of the pair and triple certificates
    (["glue", "scaling-halving-atlas.json"], 0,
     "ddf876fac0162022816b7da9ce6181578171eea3743d1162680da7479a6667a8"),
    (["glue", "scaling-halving-atlas.json", "--mode", "float"], 0,
     "2a4de67d462919fd4fc5067963b95a323594e34d38487574e9e7c60d3515bbfe"),
    (["glue", "identity-chain-atlas.json"], 3,
     "ca33494ae59ae57f0c6309a7d52730649102545cfe715495329cede57258ad7d"),
    (["glue-sheaf", "rank2-sheaf.json", "--atlas", "pinch-atlas.json"], 0,
     "34721487b30ff4824ae7e2f2c2423e55c04e8a7d084280215b95c21d3be2b0aa"),
    (["tep-check", "flat-tep.json"], 0,
     "09ff737a1601b76750604168ed23f05201be3ea083588280381f2f96ec415a4e"),
    (["tep-check", "antisym-tep.json"], 2,
     "7e8b4e1eadc82ad28db30064dad24ba7e9fff18a4296524852057f7ce51196fe"),
    (["glue-tep", "tep-glue.json"], 0,
     "664ebb0e65950f4df74e38fd65adecdd1f4fa7d4dcfa9d91051f67980c37652d"),
    # a triple overlap that no chord point of two discs reaches
    (["validate", "hidden-triple-atlas.json"], 2,
     "6bb5c3a34c668dde3b3432727ff112758b8834b66d78b9ee262a381085c05783"),
    (["glue", "hidden-triple-atlas.json"], 2,
     "ec2d567a769c266c3551340561a972763716e0aaf65a5950ae268ed044a284b2"),
    # two overlapping charts and no transition: no triple for validation to
    # walk, so the glued atlas refuses the nerve pair
    (["glue", "unidentified-pair-atlas.json"], 2,
     "5301e440837c94257c37e5b59eac4fef223d57d91cb0d1e2ac685d47865e3ffb"),
]


def test_sample_reports_are_byte_stable(tmp_path):
    seen = []
    for argv, _, _ in SAMPLE_REPORTS:
        out = tmp_path / str(len(seen))
        args = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
        code = main([*args, "--out", str(out)])
        report = (out / f"{argv[0]}-report.json").read_bytes()
        seen.append((argv, code, hashlib.sha256(report).hexdigest()))
    assert seen == SAMPLE_REPORTS


def _string_leaves(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _string_leaves(child)


@pytest.mark.parametrize(
    "argv", [argv for argv, code, _ in SAMPLE_REPORTS if code == 0], ids=" ".join,
)
def test_exit_0_reports_hold_no_prose(tmp_path, argv):
    # every field of a certificate is a value the run computed; the prose
    # that defines the fields is in the README, once
    args = [SAMPLES / a if a.endswith(".json") else a for a in argv]
    code, envelope, _ = run_cli(tmp_path, *args)
    assert code == 0
    assert [s for s in _string_leaves(envelope) if any(c.isspace() for c in s)] == []


@pytest.mark.parametrize(
    "argv", [argv for argv, code, _ in SAMPLE_REPORTS if argv[0] == "glue" and code == 0],
    ids=" ".join,
)
def test_glue_report_n_index_is_the_inverse_radius(tmp_path, argv):
    # radii start at 1 and only halve, so each radius is 1/n with the n
    # index n = 2^h
    args = [SAMPLES / a if a.endswith(".json") else a for a in argv]
    code, envelope, _ = run_cli(tmp_path, *args)
    assert code == 0
    for r in map(Fraction, envelope["report"]["radii"].values()):
        n = r.denominator
        assert r.numerator == 1 and n & (n - 1) == 0


@pytest.mark.parametrize(
    "argv, checks",
    [
        (["glue", SAMPLES / "identity-atlas.json"], 1),
        (["glue-sheaf", SAMPLES / "rank2-sheaf.json",
          "--atlas", SAMPLES / "pinch-atlas.json"], 2),
        # one check walks the outer document and its nested atlas, sheaf
        # and charts
        (["glue-tep", SAMPLES / "tep-glue.json"], 1),
    ],
    ids=["glue", "glue-sheaf", "glue-tep"],
)
def test_each_document_is_schema_checked_once(tmp_path, monkeypatch, argv, checks):
    calls = []

    def counted(doc, kind):
        calls.append(kind)
        return validate_document(doc, kind)

    monkeypatch.setattr(documents, "validate_document", counted)
    code = main([*map(str, argv), "--samples", "10", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == checks


def test_out_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "nested"
    monkeypatch.setenv("GERMGLUE_OUT", str(target))
    code = main(["validate", str(SAMPLES / "identity-atlas.json")])
    assert code == 0
    assert (target / "validate-report.json").exists()
