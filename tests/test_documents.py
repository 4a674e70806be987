"""Round trips through the JSON document layer and schema rejection."""

import importlib.util
import pathlib
import random
from fractions import Fraction as F

import pytest

from germglue.documents import (
    atlas_input_from_json,
    atlas_input_to_json,
    coeff_from_json,
    coeff_to_json,
    dump_report,
    jet_from_json,
    jet_to_json,
    jsonable,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    polydisc_from_json,
    polydisc_to_json,
    sheaf_input_from_json,
    sheaf_input_to_json,
    tep_data_from_json,
    tep_data_to_json,
    tep_glue_input_from_json,
    tep_glue_input_to_json,
    tube_from_json,
    tube_to_json,
    validate_document,
)
from germglue.errors import SchemaError
from germglue.jets import jet_eq, jet_var, map_eq
from germglue.matrices import matrix_eq
from germglue.scalars import Coeff

from .test_atlas import identity_atlas, pinch_atlas
from .test_numeval import random_jet
from .test_sheaf import rank2_input
from .test_tep import glue_frame, identity_bundle


def test_coeff_forms_round_trip():
    real = Coeff(F(-3, 4))
    mixed = Coeff(F(1, 2), F(-5))
    assert coeff_to_json(real) == "-3/4"
    assert coeff_to_json(mixed) == {"re": "1/2", "im": "-5"}
    assert coeff_from_json("-3/4") == real
    assert coeff_from_json({"re": "1/2", "im": "-5"}) == mixed
    assert coeff_from_json("7") == Coeff(F(7))


def test_bad_coefficients_rejected():
    with pytest.raises(SchemaError):
        coeff_from_json("0.5")
    with pytest.raises(SchemaError):
        coeff_from_json("1/0")
    with pytest.raises(SchemaError):
        coeff_from_json(3)


def test_jet_round_trip():
    rng = random.Random(19)
    for _ in range(6):
        f = random_jet(rng, num_vars=3, order=5, max_terms=10)
        assert jet_eq(jet_from_json(jet_to_json(f)), f)


def test_jet_term_above_order_rejected():
    doc = {"vars": 1, "order": 2, "terms": [{"exponent": [3], "value": "1"}]}
    with pytest.raises(SchemaError, match="order"):
        jet_from_json(doc)


def test_map_and_matrix_round_trip():
    inp = pinch_atlas()
    f = inp.transitions[("A", "B")].map
    assert map_eq(map_from_json(map_to_json(f)), f)
    g = rank2_input().matrices[("A", "B")]
    assert matrix_eq(matrix_from_json(matrix_to_json(g)), g)


def test_matrix_shape_declaration_checked():
    g = rank2_input().matrices[("A", "B")]
    doc = matrix_to_json(g)
    doc["cols"] = 3
    with pytest.raises(SchemaError, match="shape"):
        matrix_from_json(doc)


def test_region_round_trip():
    inp = identity_atlas()
    w = inp.charts["A"]
    assert polydisc_from_json(polydisc_to_json(w)) == w
    tube = inp.transitions[("A", "B")].domain
    back = tube_from_json(tube_to_json(tube))
    assert back.chart == tube.chart
    assert back.base == tube.base
    assert back.fiber_radius == tube.fiber_radius


def test_atlas_document_round_trip():
    inp = pinch_atlas()
    doc = atlas_input_to_json(inp)
    validate_document(doc, "atlas-input")
    back = atlas_input_from_json(doc)
    assert (back.base_dim, back.fiber_dim, back.order) == (1, 1, 6)
    assert set(back.charts) == set(inp.charts)
    for key, tr in inp.transitions.items():
        assert map_eq(back.transitions[key].map, tr.map)


def test_atlas_order_override_truncates():
    doc = atlas_input_to_json(pinch_atlas(order=6))
    back = atlas_input_from_json(doc, order=2)
    assert back.order == 2
    fiber = back.transitions[("A", "B")].map.components[1]
    assert jet_eq(fiber, jet_var(2, 2, 1))


def test_sheaf_document_round_trip():
    s = rank2_input()
    doc = sheaf_input_to_json(s)
    validate_document(doc, "sheaf-input")
    back = sheaf_input_from_json(doc)
    assert back.ranks == s.ranks
    assert set(back.matrices) == set(s.matrices)
    for key, m in s.matrices.items():
        assert matrix_eq(back.matrices[key], m)
    assert set(back.domains) == set(s.domains)
    for key, m in s.base_transitions.items():
        assert matrix_eq(back.base_transitions[key], m)


def test_tep_document_round_trip():
    d = glue_frame()
    doc = tep_data_to_json(d)
    validate_document(doc, "tep-input")
    back = tep_data_from_json(doc)
    assert (back.base_dim, back.rank) == (d.base_dim, d.rank)
    assert (back.t_order, back.z_order) == (d.t_order, d.z_order)
    assert matrix_eq(back.b_mat, d.b_mat)
    assert matrix_eq(back.zeta, d.zeta)
    for mine, theirs in zip(back.a_mats, d.a_mats):
        assert matrix_eq(mine, theirs)


def test_tep_order_override_truncates_box():
    d = glue_frame(kind="shift")
    doc = tep_data_to_json(d)
    back = tep_data_from_json(doc, t_order=1)
    assert back.t_order == 1
    entry = back.b_mat.entries[0][0]
    assert all(sum(e[:2]) <= 1 for e in entry.terms)


def test_tep_glue_document_round_trip():
    charts = {cid: glue_frame() for cid in ("A", "B", "C")}
    atlas = identity_atlas()
    sheaf = identity_bundle()
    points = [("A", (Coeff(F(1, 10)), Coeff(0)))]
    doc = tep_glue_input_to_json(charts, atlas, sheaf, points)
    validate_document(doc, "tep-glue-input")
    back_charts, back_atlas, back_sheaf, back_points = tep_glue_input_from_json(doc)
    assert set(back_charts) == {"A", "B", "C"}
    assert matrix_eq(back_charts["B"].p_mat, charts["B"].p_mat)
    assert set(back_atlas.transitions) == set(atlas.transitions)
    assert back_sheaf.ranks == sheaf.ranks
    assert back_points == points


def test_schema_field_is_enforced():
    doc = atlas_input_to_json(identity_atlas())
    doc["schema"] = "germglue/atlas-input/v0"
    with pytest.raises(SchemaError):
        atlas_input_from_json(doc)
    doc.pop("schema")
    with pytest.raises(SchemaError):
        atlas_input_from_json(doc)


def test_unexpected_keys_rejected():
    doc = atlas_input_to_json(identity_atlas())
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        validate_document(doc, "atlas-input")


def test_unknown_document_kind_rejected():
    with pytest.raises(SchemaError, match="unknown document kind"):
        validate_document({}, "nope")


def test_report_envelope_schema():
    envelope = {
        "schema": "germglue/report/v1",
        "command": "glue",
        "ok": True,
        "exit_code": 0,
        "report": {"charts": 3},
    }
    validate_document(envelope, "report")
    envelope["command"] = "demolish"
    with pytest.raises(SchemaError):
        validate_document(envelope, "report")


def test_jsonable_converts_exact_values():
    out = jsonable({("A", "B"): F(1, 2), "x": (Coeff(F(1, 3)),), "n": 4})
    assert out == {"('A', 'B')": "1/2", "x": ["1/3"], "n": 4}
    with pytest.raises(TypeError):
        jsonable(object())


def test_dump_report_is_canonical():
    a = dump_report({"b": 1, "a": {"y": F(1, 3), "x": 2}})
    b = dump_report({"a": {"x": 2, "y": F(1, 3)}, "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_committed_sample_inputs_match_generator():
    samples = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
    spec = importlib.util.spec_from_file_location(
        "sample_inputs_generate", samples / "generate.py"
    )
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    docs = generate.build_documents()
    assert sorted(docs) == sorted(p.name for p in samples.glob("*.json"))
    for name, doc in docs.items():
        expected = generate.document_text(doc).encode("utf-8")
        assert (samples / name).read_bytes() == expected, name
