"""JSON documents for inputs and reports, with versioned schemas.

Exact scalars travel as fraction strings ("3/4", "-2"); a complex value
with nonzero imaginary part becomes {"re": ..., "im": ...}.  Jets are term
lists under their declared variable count and order; maps, matrices, and
regions nest those.  Every input document carries a "schema" field naming
its contract version.  One shipped JSON Schema document,
``germglue/schemas/germglue.v1.json``, holds the five kinds and the
definitions they share under ``$defs``; each decoder checks its document,
nested documents included, before decoding.  Structural violations raise
SchemaError; semantic violations found later (germ axioms, cocycle
failures) keep their own error types.

The one schema check is ``compile_schema``: once per process, each kind's
schema becomes a tree of closures that decides in one walk and gives the
reason that ``validate_document`` words.  jsonschema is the tests' oracle.
JSON Schema's integer type admits integral floats such as ``3.0``; the
decoders reject those, naming the field, because the exact pipeline counts
with Python ints.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, Optional, Sequence, Tuple

from .atlas import GermAtlasInput, GermTransition
from .errors import SchemaError
from .jets import Jet, PolyMap, jet_canonical
from .matrices import JetMatrix
from .regions import Point, Polydisc, TubeDomain
from .scalars import Coeff
from .sheaf import SheafInput
from .tep import TEPData

SCHEMA_IDS = {
    "atlas-input": "germglue/atlas-input/v1",
    "sheaf-input": "germglue/sheaf-input/v1",
    "tep-input": "germglue/tep-input/v1",
    "tep-glue-input": "germglue/tep-glue-input/v1",
    "report": "germglue/report/v1",
}


def shipped_schema(kind: str) -> dict:
    """The shipped document rooted at the kind's definition, read afresh on
    each call: ``_checker`` keeps only the compiled form."""
    path = resources.files("germglue").joinpath("schemas", "germglue.v1.json")
    shipped = json.loads(path.read_text())
    return {"$schema": shipped["$schema"], "$defs": shipped["$defs"],
            "$ref": f"#/$defs/{kind}"}


# ---------------------------------------------------------------------------
# compiled schema checks
# ---------------------------------------------------------------------------

Check = Callable[[object], Optional[tuple]]

_NOT_OF_TYPE = "{!r} is not of type {!r}"
_CLASSES = {"object": dict, "array": list, "string": str, "integer": int, "boolean": bool}
_OBJECT = {"properties", "required", "additionalProperties", "minProperties"}
_ARRAY = {"items", "minItems", "maxItems"}
_KEYWORDS = _OBJECT | _ARRAY | {
    "type", "minimum", "maximum", "const", "enum", "pattern", "oneOf", "$ref",
    "$schema", "$defs", "title",
}


def compile_schema(schema: dict) -> Check:
    """A check giving jsonschema's verdict on ``schema``: None for an accepted
    JSON value, else a reason ``(path, keyword, template, *values)`` that is
    one of jsonschema's errors: the keys and indices down to the failing
    node, its keyword, and the message ``template.format(*values)``.

    Covers ``_KEYWORDS``, with ``const``/``enum`` over strings only and
    ``$ref`` into the root's ``$defs`` only; any other keyword raises
    ValueError, so a schema edit cannot silently widen what is accepted."""
    defs = schema.get("$defs", {})
    done: Dict[str, Check] = {}

    def ref(target: str) -> Check:
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise ValueError(f"cannot compile $ref {target!r}")
        if name not in done:
            done[name] = node(defs[name])
        return done[name]

    def node(s: dict) -> Check:
        unknown = set(s) - _KEYWORDS
        if unknown:
            raise ValueError(f"cannot compile schema keywords {sorted(unknown)}")
        kind = s.get("type")
        if kind is not None and (not isinstance(kind, str) or kind not in _CLASSES):
            raise ValueError(f"cannot compile type {kind!r}")
        checks = []
        if kind is not None and kind not in ("object", "array"):
            checks.append(_type_check(kind))
        if kind == "object" or _OBJECT & s.keys():
            checks.append(_object_check(s, kind == "object", node))
        if kind == "array" or _ARRAY & s.keys():
            checks.append(_array_check(s, kind == "array", node))
        if "minimum" in s or "maximum" in s:
            checks.append(_bounds_check(s.get("minimum"), s.get("maximum")))
        if "const" in s:
            checks.append(_choice_check("const", [s["const"]], "{1[0]!r} was expected"))
        if "enum" in s:
            checks.append(_choice_check("enum", s["enum"], "{!r} is not one of {!r}"))
        if "pattern" in s:
            search = re.compile(s["pattern"]).search
            checks.append(lambda v: None if not isinstance(v, str) or search(v) else (
                (), "pattern", "{!r} does not match {!r}", v, s["pattern"]))
        if "oneOf" in s:
            checks.append(_one_of([node(b) for b in s["oneOf"]]))
        if "$ref" in s:
            checks.append(ref(s["$ref"]))
        return _all_of(checks)

    return node(schema)


def _type_check(kind: str) -> Check:
    if kind == "integer":
        # jsonschema's "integer": a bool is not one, an integral float is.
        return lambda v: None if (
            v.is_integer() if isinstance(v, float)
            else isinstance(v, int) and not isinstance(v, bool)
        ) else ((), "type", _NOT_OF_TYPE, v, kind)
    cls = _CLASSES[kind]
    return lambda v: None if isinstance(v, cls) else ((), "type", _NOT_OF_TYPE, v, kind)


def _object_check(s: dict, strict: bool, node: Callable[[dict], Check]) -> Check:
    props = {key: node(sub) for key, sub in s.get("properties", {}).items()}
    required = tuple(s.get("required", ()))
    least = s.get("minProperties", 0)
    extra = s.get("additionalProperties", True)  # None: any other key; False: none
    extra = None if extra is True else extra is not False and node(extra)

    def check(v: object) -> Optional[tuple]:
        if not isinstance(v, dict):
            return ((), "type", _NOT_OF_TYPE, v, "object") if strict else None
        if len(v) < least:
            return ((), "minProperties", "{!r} does not have enough properties", v)
        for key in required:
            if key not in v:
                return ((), "required", "{!r} is a required property", key)
        for key, value in v.items():
            sub = props.get(key, extra)
            if sub is False:
                return ((), "additionalProperties",
                        "Additional properties are not allowed ({!r} was unexpected)", key)
            if sub and (reason := sub(value)):
                return ((key, *reason[0]), *reason[1:])
        return None

    return check


def _array_check(s: dict, strict: bool, node: Callable[[dict], Check]) -> Check:
    item = node(s["items"]) if "items" in s else None
    least, most = s.get("minItems", 0), s.get("maxItems")

    def check(v: object) -> Optional[tuple]:
        if not isinstance(v, list):
            return ((), "type", _NOT_OF_TYPE, v, "array") if strict else None
        if len(v) < least:
            return ((), "minItems", "{!r} is too short", v)
        if most is not None and len(v) > most:
            return ((), "maxItems", "{!r} is too long", v)
        # a C-level scan; the failing index is looked up only after a failure
        if item is None or next(filter(None, map(item, v)), None) is None:
            return None
        index, reason = next((i, r) for i, r in enumerate(map(item, v)) if r)
        return ((index, *reason[0]), *reason[1:])

    return check


def _bounds_check(low, high) -> Check:
    def check(v: object) -> Optional[tuple]:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        if low is not None and v < low:
            return ((), "minimum", "{!r} is less than the minimum of {!r}", v, low)
        if high is not None and v > high:
            return ((), "maximum", "{!r} is greater than the maximum of {!r}", v, high)
        return None

    return check


def _choice_check(keyword: str, allowed: list, template: str) -> Check:
    if not all(isinstance(a, str) for a in allowed):
        raise ValueError(f"cannot compile non-string {keyword} {allowed!r}")
    return lambda v: None if v in allowed else ((), keyword, template, v, allowed)


def _all_of(checks: Sequence[Check]) -> Check:
    if len(checks) == 1:
        return checks[0]
    if len(checks) == 2:
        first, second = checks
        return lambda v: first(v) or second(v)
    return lambda v: next(filter(None, (c(v) for c in checks)), None)


def _one_of(branches: Sequence[Check]) -> Check:
    def check(v: object) -> Optional[tuple]:
        matched = False
        for branch in branches:
            if branch(v) is None:
                if matched:
                    return ((), "oneOf", "{!r} is valid under more than one schema", v)
                matched = True
        return None if matched else (
            (), "oneOf", "{!r} is not valid under any of the given schemas", v)

    return check


@functools.cache
def _checker(kind: str) -> Check:
    return compile_schema(shipped_schema(kind))


def validate_document(doc: object, kind: str) -> dict:
    """Check a parsed document, nested documents included, against the
    shipped schema for ``kind``.

    A rejection's SchemaError words the compiled checker's reason, naming
    the JSON path and failing keyword of a failure below the root."""
    if kind not in SCHEMA_IDS:
        raise SchemaError(f"unknown document kind {kind!r}")
    reason = _checker(kind)(doc)
    if reason is None:
        return doc
    path, keyword, template, *values = reason
    where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)
    message = (f"${where} fails {keyword}: " if path else "") + template.format(*values)
    raise SchemaError(f"{kind} document rejected: {message}")


def load_document(path: str, kind: str) -> dict:
    """Read and parse a JSON document of the given kind.

    The schema check is left to the kind's decoder (``atlas_input_from_json``
    and its siblings), so each document is checked once."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def fraction_to_json(x: Fraction) -> str:
    return str(x)


_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio_from_json(v: object) -> tuple[int, int]:
    """A fraction string as its integer parts ``(num, den)``, den > 0, not
    reduced."""
    match = _FRACTION_RE.fullmatch(v) if isinstance(v, str) else None
    den = int(match[2] or 1) if match else 0
    if not den:
        raise SchemaError(f"bad fraction {v!r}")
    return int(match[1]), den


def fraction_from_json(v: object) -> Fraction:
    return Fraction(*_ratio_from_json(v))


def _integer(value: object, field: str) -> int:
    """A decoded integer field; JSON Schema lets an integral float through."""
    if isinstance(value, float):
        raise SchemaError(f"{field} must be an integer, got {value!r}")
    return value


def coeff_to_json(c: Coeff) -> object:
    if c.im == 0:
        return fraction_to_json(c.re)
    return {"re": fraction_to_json(c.re), "im": fraction_to_json(c.im)}


def _coeff_ratios(v: object) -> tuple[tuple[int, int], tuple[int, int]]:
    """A coefficient as the :func:`_ratio_from_json` parts of its real and
    imaginary parts."""
    if isinstance(v, str):
        return _ratio_from_json(v), (0, 1)
    if isinstance(v, dict):
        return _ratio_from_json(v["re"]), _ratio_from_json(v["im"])
    raise SchemaError(f"bad coefficient {v!r}")


def coeff_from_json(v: object) -> Coeff:
    (a, b), (c, d) = _coeff_ratios(v)
    return Coeff(Fraction(a, b), Fraction(c, d))


# ---------------------------------------------------------------------------
# jets, maps, matrices
# ---------------------------------------------------------------------------


def _ratio_to_json(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, reduced by one gcd."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def jet_to_json(f: Jet) -> dict:
    """The term list in exponent order, each part written from its
    numerator over ``f.den``, as :func:`coeff_to_json` writes a Coeff."""
    terms = []
    for e in sorted({**f.re, **f.im}):
        value = _ratio_to_json(f.re.get(e, 0), f.den)
        if e in f.im:
            value = {"re": value, "im": _ratio_to_json(f.im[e], f.den)}
        terms.append({"exponent": list(e), "value": value})
    return {"vars": f.num_vars, "order": f.order, "terms": terms}


def jet_from_json(doc: dict) -> Jet:
    """The jet of a term list, built from the integer parts of its fraction
    strings over their lcm and normalised once."""
    num_vars = _integer(doc["vars"], "vars")
    order = _integer(doc["order"], "order")
    terms: Dict[tuple, tuple] = {}  # exponent -> its _coeff_ratios
    for item in doc["terms"]:
        exp = tuple(item["exponent"])
        if len(exp) != num_vars:
            raise SchemaError(f"exponent {list(exp)} has wrong length")
        degree = sum(exp)
        if isinstance(degree, float):
            raise SchemaError(f"exponent entries must be integers, got {list(exp)}")
        if degree > order:
            raise SchemaError(f"term {list(exp)} exceeds the declared order")
        if exp in terms:
            raise SchemaError(f"duplicate term {list(exp)}")
        parts = _coeff_ratios(item["value"])
        if parts[0][0] or parts[1][0]:
            terms[exp] = parts
    den = math.lcm(*[d for parts in terms.values() for _, d in parts])
    re: Dict[tuple, int] = {}
    im: Dict[tuple, int] = {}
    for e, ((a, b), (c, d)) in terms.items():
        re[e], im[e] = a * (den // b), c * (den // d)
    return jet_canonical(num_vars, order, den, re, im)


def map_to_json(f: PolyMap) -> dict:
    return {
        "source_vars": f.source_vars,
        "components": [jet_to_json(c) for c in f.components],
    }


def map_from_json(doc: dict) -> PolyMap:
    comps = [jet_from_json(c) for c in doc["components"]]
    try:
        return PolyMap(_integer(doc["source_vars"], "source_vars"), comps)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def matrix_to_json(m: JetMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[jet_to_json(x) for x in row] for row in m.entries],
    }


def matrix_from_json(doc: dict) -> JetMatrix:
    entries = [[jet_from_json(x) for x in row] for row in doc["entries"]]
    try:
        m = JetMatrix(entries)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if m.rows != _integer(doc["rows"], "rows") or m.cols != _integer(doc["cols"], "cols"):
        raise SchemaError("matrix shape disagrees with declared rows/cols")
    return m


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def polydisc_to_json(p: Polydisc) -> dict:
    return {
        "centers": [coeff_to_json(c) for c in p.centers],
        "radii": [fraction_to_json(r) for r in p.radii],
    }


def polydisc_from_json(doc: dict) -> Polydisc:
    try:
        return Polydisc(
            [coeff_from_json(c) for c in doc["centers"]],
            [fraction_from_json(r) for r in doc["radii"]],
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def tube_to_json(t: TubeDomain) -> dict:
    return {
        "chart": t.chart,
        "base": polydisc_to_json(t.base),
        "fiber_dim": t.fiber_dim,
        "fiber_radius": fraction_to_json(t.fiber_radius),
    }


def tube_from_json(doc: dict) -> TubeDomain:
    try:
        return TubeDomain(
            doc["chart"],
            polydisc_from_json(doc["base"]),
            _integer(doc["fiber_dim"], "fiber_dim"),
            fraction_from_json(doc["fiber_radius"]),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def point_from_json(values: Sequence[object]) -> Point:
    return tuple(coeff_from_json(v) for v in values)


# ---------------------------------------------------------------------------
# atlas input
# ---------------------------------------------------------------------------


def atlas_input_to_json(inp: GermAtlasInput) -> dict:
    for cid in inp.charts:
        if not isinstance(cid, str):
            raise SchemaError(f"chart id {cid!r} must be a string in documents")
    transitions = [
        {
            "from": i,
            "to": j,
            "domain": tube_to_json(tr.domain),
            "map": map_to_json(tr.map),
        }
        for (i, j), tr in sorted(inp.transitions.items())
    ]
    return {
        "schema": SCHEMA_IDS["atlas-input"],
        "base_dim": inp.base_dim,
        "fiber_dim": inp.fiber_dim,
        "order": inp.order,
        "charts": {cid: polydisc_to_json(w) for cid, w in sorted(inp.charts.items())},
        "transitions": transitions,
        "base_points": [[coeff_to_json(c) for c in p] for p in inp.base_points],
    }


def atlas_input_from_json(doc: dict) -> GermAtlasInput:
    validate_document(doc, "atlas-input")
    return _atlas_input(doc)


def _atlas_input(doc: dict) -> GermAtlasInput:
    charts = {cid: polydisc_from_json(w) for cid, w in doc["charts"].items()}
    transitions = [
        GermTransition(
            item["from"],
            item["to"],
            tube_from_json(item["domain"]),
            map_from_json(item["map"]),
        )
        for item in doc["transitions"]
    ]
    points = [point_from_json(p) for p in doc.get("base_points", [])]
    try:
        return GermAtlasInput(
            _integer(doc["base_dim"], "base_dim"),
            _integer(doc["fiber_dim"], "fiber_dim"),
            _integer(doc["order"], "order"), charts, transitions, points,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# sheaf input
# ---------------------------------------------------------------------------


def sheaf_input_to_json(s: SheafInput) -> dict:
    doc = {
        "schema": SCHEMA_IDS["sheaf-input"],
        "ranks": {cid: r for cid, r in sorted(s.ranks.items())},
        "domains": [
            {"charts": list(key), "domain": tube_to_json(dom)}
            for key, dom in sorted(s.domains.items())
        ],
        "matrices": [
            {"from": i, "to": j, "matrix": matrix_to_json(m)}
            for (i, j), m in sorted(s.matrices.items())
        ],
    }
    if s.triple_domains:
        doc["triple_domains"] = [
            {"charts": list(key), "domain": tube_to_json(dom)}
            for key, dom in sorted(s.triple_domains.items())
        ]
    if s.base_transitions:
        doc["base_transitions"] = [
            {"from": i, "to": j, "matrix": matrix_to_json(m)}
            for (i, j), m in sorted(s.base_transitions.items())
        ]
    return doc


def _pair_matrices(items: Sequence[dict]) -> Dict[tuple, JetMatrix]:
    out: Dict[tuple, JetMatrix] = {}
    for item in items:
        key = (item["from"], item["to"])
        if key in out:
            raise SchemaError(f"duplicate matrix for pair {key!r}")
        out[key] = matrix_from_json(item["matrix"])
    return out


def sheaf_input_from_json(doc: dict) -> SheafInput:
    validate_document(doc, "sheaf-input")
    return _sheaf_input(doc)


def _sheaf_input(doc: dict) -> SheafInput:
    domains = {
        tuple(item["charts"]): tube_from_json(item["domain"])
        for item in doc["domains"]
    }
    triple_domains = {
        tuple(item["charts"]): tube_from_json(item["domain"])
        for item in doc.get("triple_domains", [])
    } or None
    return SheafInput(
        ranks={cid: _integer(r, f"ranks[{cid!r}]") for cid, r in doc["ranks"].items()},
        domains=domains,
        matrices=_pair_matrices(doc["matrices"]),
        triple_domains=triple_domains,
        base_transitions=_pair_matrices(doc.get("base_transitions", [])) or None,
    )


# ---------------------------------------------------------------------------
# framed connection data
# ---------------------------------------------------------------------------


def tep_data_to_json(d: TEPData) -> dict:
    doc = {
        "schema": SCHEMA_IDS["tep-input"],
        "m": d.base_dim,
        "rank": d.rank,
        "orders": {"t": d.t_order, "z": d.z_order},
        "A": [matrix_to_json(m) for m in d.a_mats],
        "B": matrix_to_json(d.b_mat),
        "P": matrix_to_json(d.p_mat),
        "zeta": matrix_to_json(d.zeta),
    }
    if d.domain is not None:
        doc["domain"] = polydisc_to_json(d.domain)
    return doc


def tep_data_from_json(doc: dict) -> TEPData:
    validate_document(doc, "tep-input")
    return _tep_data(doc)


def _tep_data(doc: dict) -> TEPData:
    orders = doc["orders"]
    domain = polydisc_from_json(doc["domain"]) if "domain" in doc else None
    try:
        return TEPData(
            base_dim=_integer(doc["m"], "m"),
            rank=_integer(doc["rank"], "rank"),
            t_order=_integer(orders["t"], "orders.t"),
            z_order=_integer(orders["z"], "orders.z"),
            a_mats=[matrix_from_json(a) for a in doc["A"]],
            b_mat=matrix_from_json(doc["B"]),
            p_mat=matrix_from_json(doc["P"]),
            zeta=matrix_from_json(doc["zeta"]),
            domain=domain,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def tep_glue_input_to_json(
    charts: Dict[str, TEPData],
    atlas: GermAtlasInput,
    sheaf: SheafInput,
    points: Sequence[Tuple[str, Point]] = (),
) -> dict:
    doc = {
        "schema": SCHEMA_IDS["tep-glue-input"],
        "atlas": atlas_input_to_json(atlas),
        "sheaf": sheaf_input_to_json(sheaf),
        "charts": {cid: tep_data_to_json(d) for cid, d in sorted(charts.items())},
    }
    if points:
        doc["points"] = [
            {"chart": cid, "point": [coeff_to_json(c) for c in pt]}
            for cid, pt in points
        ]
    return doc


def _nested(where: str, decode, *args):
    """``decode(*args)`` for the nested document at ``where`` of a
    tep-glue-input file; a SchemaError it raises is prefixed with that path."""
    try:
        return decode(*args)
    except SchemaError as exc:
        raise SchemaError(f"tep-glue-input document rejected: {where}: {exc}") from exc


def tep_glue_input_from_json(doc: dict):
    """Returns (charts, atlas_input, sheaf_input, points).  One check covers
    the nested documents too, so a rejection names its path in this one,
    and a decoding error names the nested document it comes from."""
    validate_document(doc, "tep-glue-input")
    atlas = _nested("$.atlas", _atlas_input, doc["atlas"])
    sheaf = _nested("$.sheaf", _sheaf_input, doc["sheaf"])
    charts = {cid: _nested(f"$.charts.{cid}", _tep_data, item)
              for cid, item in doc["charts"].items()}
    points = [
        (item["chart"], point_from_json(item["point"]))
        for item in doc.get("points", [])
    ]
    return charts, atlas, sheaf, points


# ---------------------------------------------------------------------------
# report payloads
# ---------------------------------------------------------------------------


def jsonable(obj: object) -> object:
    """Convert report structures (exact scalars, tuples) to JSON values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return fraction_to_json(obj)
    if isinstance(obj, Coeff):
        return coeff_to_json(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {
            (k if isinstance(k, str) else repr(k)): jsonable(v)
            for k, v in obj.items()
        }
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dump_report(doc: dict) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline end."""
    return json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"
