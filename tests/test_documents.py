"""Round trips through the JSON document layer and schema rejection."""

import abc
import contextlib
import copy
import functools
import importlib.util
import io
import json
import pathlib
import random
import re
import tempfile
from fractions import Fraction as F

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from germglue.cli import main
from germglue.documents import (
    SCHEMA_IDS,
    atlas_input_from_json,
    atlas_input_to_json,
    coeff_from_json,
    coeff_to_json,
    compile_schema,
    dump_report,
    fraction_from_json,
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
    shipped_schema,
    tep_data_from_json,
    tep_data_to_json,
    tep_glue_input_from_json,
    tep_glue_input_to_json,
    tube_from_json,
    tube_to_json,
    validate_document,
)
from germglue.errors import SchemaError
from germglue.jets import jet_eq, map_eq
from germglue.matrices import matrix_eq
from germglue.scalars import Coeff

from .test_atlas import identity_atlas, pinch_atlas
from .test_jets import jets
from .test_numeval import random_jet
from .test_sheaf import rank2_input
from .test_tep import glue_frame, identity_bundle

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


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


def test_a_rejection_reason_from_the_checker_becomes_the_message(monkeypatch):
    # the compiled checker decides and words every rejection
    from germglue import documents

    reason = (("charts", "A", "radii", 0), "pattern", "{!r} does not match {!r}", "1/", "^x$")
    monkeypatch.setattr(documents, "_checker", lambda kind: lambda doc: reason)
    doc = json.loads((SAMPLES / "identity-atlas.json").read_text())
    with pytest.raises(SchemaError) as info:
        validate_document(doc, "atlas-input")
    assert str(info.value) == (
        "atlas-input document rejected: $.charts.A.radii[0] fails pattern: "
        "'1/' does not match '^x$'"
    )


def test_a_nested_rejection_names_its_path_and_keyword():
    doc = json.loads((SAMPLES / "identity-atlas.json").read_text())
    doc["transitions"][0]["map"]["components"][1]["terms"][0]["value"] = "1.5"
    with pytest.raises(SchemaError) as info:
        validate_document(doc, "atlas-input")
    assert str(info.value) == (
        "atlas-input document rejected: "
        "$.transitions[0].map.components[1].terms[0].value fails oneOf: "
        "'1.5' is not valid under any of the given schemas"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["atlas"]["charts"]["A"]["radii"].__setitem__(0, "1.5"),
         "tep-glue-input document rejected: $.atlas.charts.A.radii[0] fails pattern: "
         "'1.5' does not match '^-?[0-9]+(/[0-9]+)?$'"),
        (lambda doc: doc["atlas"].pop("base_dim"),
         "tep-glue-input document rejected: $.atlas fails required: "
         "'base_dim' is a required property"),
        (lambda doc: doc["sheaf"].pop("ranks"),
         "tep-glue-input document rejected: $.sheaf fails required: "
         "'ranks' is a required property"),
        (lambda doc: doc["charts"]["B"].pop("m"),
         "tep-glue-input document rejected: $.charts.B fails required: "
         "'m' is a required property"),
    ],
    ids=["atlas-radius", "atlas-base-dim", "sheaf-ranks", "chart-m"],
)
def test_a_rejection_inside_a_tep_glue_file_names_its_path_in_the_file(edit, message):
    doc = json.loads((SAMPLES / "tep-glue.json").read_text())
    edit(doc)
    with pytest.raises(SchemaError) as info:
        tep_glue_input_from_json(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["atlas"].update(order=3.0),
         "tep-glue-input document rejected: $.atlas: order must be an integer, got 3.0"),
        (lambda doc: doc["atlas"]["charts"]["A"]["centers"].__setitem__(0, "1\n"),
         "tep-glue-input document rejected: $.atlas: bad fraction '1\\n'"),
        (lambda doc: doc["sheaf"]["ranks"].update(A=2.0),
         "tep-glue-input document rejected: $.sheaf: ranks['A'] must be an integer, got 2.0"),
        (lambda doc: doc["charts"]["B"].update(m=2.0),
         "tep-glue-input document rejected: $.charts.B: m must be an integer, got 2.0"),
    ],
    ids=["atlas-order", "atlas-center", "sheaf-rank", "chart-m"],
)
def test_a_decoding_error_inside_a_tep_glue_file_names_its_document(edit, message):
    doc = json.loads((SAMPLES / "tep-glue.json").read_text())
    edit(doc)
    with pytest.raises(SchemaError) as info:
        tep_glue_input_from_json(doc)
    assert str(info.value) == message


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


def test_serialising_builds_no_fraction(monkeypatch):
    from germglue import documents

    class Refused(abc.ABC):
        # every Fraction is still an instance; building one fails
        def __new__(cls, *args):
            raise AssertionError("a Fraction was built while serialising")

    Refused.register(F)
    coeff, disc = Coeff(F(1, 2), F(-5, 3)), identity_atlas().charts["A"]
    report = {"margin": F(-7, 4), "point": (coeff, Coeff(F(2)))}
    expected = [polydisc_to_json(disc), dump_report(report)]
    monkeypatch.setattr(documents, "Fraction", Refused)
    assert coeff_to_json(coeff) == {"re": "1/2", "im": "-5/3"}
    assert [polydisc_to_json(disc), dump_report(report)] == expected
    assert jsonable(report) == {"margin": "-7/4", "point": [{"re": "1/2", "im": "-5/3"}, "2"]}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jets())
def test_jet_to_json_writes_the_coeff_view_from_the_numerators(f):
    # real and Gaussian jets with denominators up to 97
    assert jet_to_json(f) == {
        "vars": f.num_vars,
        "order": f.order,
        "terms": [{"exponent": list(e), "value": coeff_to_json(c)}
                  for e, c in sorted(f.terms.items())],
    }


def test_dump_report_is_canonical():
    a = dump_report({"b": 1, "a": {"y": F(1, 3), "x": 2}})
    b = dump_report({"a": {"x": 2, "y": F(1, 3)}, "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_committed_sample_inputs_match_generator():
    samples = SAMPLES
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


# ---------------------------------------------------------------------------
# the compiled schema checker against jsonschema
# ---------------------------------------------------------------------------


@functools.cache
def _jsonschema_validator(kind):
    schema = shipped_schema(kind)
    return jsonschema.validators.validator_for(schema)(schema)


@functools.cache
def _compiled(kind):
    check = compile_schema(shipped_schema(kind))
    return lambda doc: check(doc) is None


@functools.cache
def _sample_documents():
    """(kind, document) for every committed sample input, the atlas, sheaf
    and chart documents nested in ``tep-glue.json``, and report envelopes
    of an accepted, a failed and a rejected run."""
    kinds = {v: k for k, v in SCHEMA_IDS.items()}
    docs = []
    for path in sorted(SAMPLES.glob("*.json")):
        doc = json.loads(path.read_text())
        docs.append((kinds[doc["schema"]], doc))
        if doc["schema"] == SCHEMA_IDS["tep-glue-input"]:
            docs += [("atlas-input", doc["atlas"]), ("sheaf-input", doc["sheaf"])]
            docs += [("tep-input", chart) for chart in doc["charts"].values()]
    with tempfile.TemporaryDirectory() as out:
        for name in ("identity-atlas.json", "broken-cocycle-atlas.json", "rank2-sheaf.json"):
            with contextlib.redirect_stdout(io.StringIO()):
                main(["validate", str(SAMPLES / name), "--out", out])
            envelope = json.loads((pathlib.Path(out) / "validate-report.json").read_text())
            docs.append(("report", envelope))
    return docs


def _nodes(doc, path=()):
    """Every (path, value) pair of a JSON document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _nodes(value, path + (index,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


_FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")

# (what the mutation does, which nodes it applies to, the replacement values)
MUTATIONS = [
    ("delete a key", lambda p, v: isinstance(v, dict) and bool(v),
     lambda v: st.sampled_from(sorted(v)).map(
         lambda k: {x: y for x, y in v.items() if x != k})),
    ("add a key", lambda p, v: isinstance(v, dict),
     lambda v: st.just({**v, "extra": 1})),
    ("wrong type", lambda p, v: True,
     lambda v: st.sampled_from([None, True, 7, 0.5, "x", [], {}])),
    ("bool or integral float for an integer", lambda p, v: type(v) is int,
     lambda v: st.sampled_from([True, False, float(v)])),
    ("negative order", lambda p, v: p[-1:] == ("order",),
     lambda v: st.just(-1)),
    ("bad fraction string", lambda p, v: isinstance(v, str) and bool(_FRACTION.fullmatch(v)),
     lambda v: st.sampled_from(["1.5", "1/", "", "x", "- 1", v + "\n", v + "/"])),
    ("coeff object with an extra key", lambda p, v: isinstance(v, dict) and set(v) == {"re", "im"},
     lambda v: st.just({**v, "extra": "0"})),
    ("too-short charts list", lambda p, v: p[-1:] == ("charts",) and isinstance(v, list),
     lambda v: st.just(v[:-1])),
]


def test_compiled_checker_agrees_with_jsonschema_on_samples():
    for kind, doc in _sample_documents():
        assert _compiled(kind)(doc), kind
        assert _jsonschema_validator(kind).is_valid(doc), kind
        assert validate_document(doc, kind) is doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_compiled_checker_agrees_with_jsonschema_on_mutations(data):
    kind, doc = data.draw(st.sampled_from(_sample_documents()))
    nodes = list(_nodes(doc))
    usable = [m for m in MUTATIONS if any(m[1](p, v) for p, v in nodes)]
    _, applies, replacements = data.draw(st.sampled_from(usable))
    path, value = data.draw(st.sampled_from([(p, v) for p, v in nodes if applies(p, v)]))
    mutant = _replaced(doc, path, data.draw(replacements(value)))
    verdict = _jsonschema_validator(kind).is_valid(mutant)
    assert _compiled(kind)(mutant) == verdict
    if not verdict:
        # the reason names one of the errors jsonschema reports
        path, keyword = compile_schema(shipped_schema(kind))(mutant)[:2]
        errors = _jsonschema_validator(kind).iter_errors(mutant)
        assert (path, keyword) in {(tuple(e.absolute_path), e.validator) for e in errors}
        with pytest.raises(SchemaError, match=f"^{kind} document rejected: "):
            validate_document(mutant, kind)


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {"^x": {"type": "string"}}},
    {"properties": {"a": {"type": "string", "format": "date"}}},
    {"$defs": {"n": {"type": "number"}}, "$ref": "#/$defs/n"},
    {"$defs": {"n": {"anyOf": [{"type": "string"}]}}, "items": {"$ref": "#/$defs/n"}},
    {"$ref": "other.json#/$defs/n"},
    {"const": 1},
])
def test_compiling_an_unsupported_schema_raises(schema):
    with pytest.raises(ValueError, match="cannot compile"):
        compile_schema(schema)


@pytest.mark.parametrize("kind", sorted(SCHEMA_IDS))
def test_shipped_schemas_are_valid_json_schemas(kind):
    schema = shipped_schema(kind)
    jsonschema.validators.validator_for(schema).check_schema(schema)
    compile_schema(schema)


def _subschemas(schema):
    """Every dict nested in a schema, the schema itself included."""
    return [v for _, v in _nodes(schema) if isinstance(v, dict)]


def test_every_shipped_definition_is_reached_from_a_kind():
    defs = shipped_schema("report")["$defs"]  # each kind's view holds them all
    reached, todo = set(), sorted(SCHEMA_IDS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [s["$ref"].removeprefix("#/$defs/")
                     for s in _subschemas(defs[name]) if "$ref" in s]
    assert reached == set(defs)


def test_no_shipped_definition_body_appears_twice():
    defs = shipped_schema("report")["$defs"]
    bodies = [json.dumps(body, sort_keys=True) for body in defs.values()]
    assert len(set(bodies)) == len(bodies)
    # nor is any definition written out again inside another one
    inline = {json.dumps(s, sort_keys=True)
              for body in defs.values() for s in _subschemas(body)[1:]}
    assert inline.isdisjoint(bodies)


def test_a_nested_document_of_the_wrong_kind_is_rejected_at_its_schema_field():
    doc = json.loads((SAMPLES / "tep-glue.json").read_text())
    doc["atlas"]["schema"] = SCHEMA_IDS["sheaf-input"]
    with pytest.raises(SchemaError) as info:
        tep_glue_input_from_json(doc)
    assert str(info.value) == (
        "tep-glue-input document rejected: $.atlas.schema fails const: "
        "'germglue/atlas-input/v1' was expected"
    )


# (sample input, path to an integer field, the name the rejection gives it)
INTEGER_FIELDS = [
    ("identity-atlas.json", ("base_dim",), "base_dim"),
    ("identity-atlas.json", ("fiber_dim",), "fiber_dim"),
    ("identity-atlas.json", ("order",), "order"),
    ("identity-atlas.json", ("transitions", 0, "domain", "fiber_dim"), "fiber_dim"),
    ("identity-atlas.json", ("transitions", 0, "map", "source_vars"), "source_vars"),
    ("identity-atlas.json", ("transitions", 0, "map", "components", 0, "vars"), "vars"),
    ("identity-atlas.json", ("transitions", 0, "map", "components", 0, "order"), "order"),
    ("identity-atlas.json",
     ("transitions", 0, "map", "components", 0, "terms", 0, "exponent", 0), "exponent"),
    ("rank2-sheaf.json", ("ranks", "A"), "ranks"),
    ("rank2-sheaf.json", ("matrices", 0, "matrix", "rows"), "rows"),
    ("rank2-sheaf.json", ("matrices", 0, "matrix", "cols"), "cols"),
    ("flat-tep.json", ("m",), "m"),
    ("flat-tep.json", ("rank",), "rank"),
    ("flat-tep.json", ("orders", "t"), "orders.t"),
    ("flat-tep.json", ("orders", "z"), "orders.z"),
]
DECODERS = {
    "atlas-input": atlas_input_from_json,
    "sheaf-input": sheaf_input_from_json,
    "tep-input": tep_data_from_json,
}


@pytest.mark.parametrize("name,path,field", INTEGER_FIELDS)
def test_integral_float_in_an_integer_field_is_rejected(name, path, field):
    doc = json.loads((SAMPLES / name).read_text())
    node = doc
    for step in path[:-1]:
        node = node[step]
    assert type(node[path[-1]]) is int
    mutant = _replaced(doc, path, float(node[path[-1]]))
    kind = next(k for k, v in SCHEMA_IDS.items() if v == doc["schema"])
    # JSON Schema's integer admits 3.0, so only the decoder can refuse it.
    assert _compiled(kind)(mutant) and _jsonschema_validator(kind).is_valid(mutant)
    with pytest.raises(SchemaError, match=re.escape(field)):
        DECODERS[kind](mutant)


def test_fraction_with_trailing_newline_rejected():
    with pytest.raises(SchemaError, match="bad fraction"):
        coeff_from_json("1\n")
    with pytest.raises(SchemaError, match="bad fraction"):
        coeff_from_json({"re": "0", "im": "1/2\n"})


@pytest.mark.parametrize(
    "text, value",
    [("-007/010", F(-7, 10)), ("5", F(5)), ("0/3", F(0)), ("-12/8", F(-3, 2))],
)
def test_fraction_is_read_from_its_matched_parts(text, value):
    got = fraction_from_json(text)
    assert got == value and type(got) is F


@pytest.mark.parametrize("text", ["3/0", "-1/000", "1/-2", "1.5", " 1", "", 3])
def test_malformed_or_zero_denominator_fraction_rejected(text):
    with pytest.raises(SchemaError, match="bad fraction"):
        fraction_from_json(text)
