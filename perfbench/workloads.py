"""Seeded input generator for the germglue benchmark.

Every atlas is built from the exact-cocycle family phi_ij = h_j^-1 o h_i,
where each h_i is a seeded random germ that fixes the zero section.  The
inverses and composites are computed with the library's own
``map_inverse``/``map_compose`` (and ``matrix_inverse``/``matrix_mul`` for
sheaf cocycles), so the inverse pairs and the cocycle hold exactly at the
truncation order by construction, and any change in those kernels shows up
as a change in the generated bytes (each document's sha256 is printed).

A perturbed variant replaces one transition phi_ac by phi_ac + c*z^2 in a
base component and phi_ca by its formal inverse, as
``sample_inputs/broken-cocycle-atlas.json`` does (sheaves: one entry of
g_ac, with g_ca its inverse).  Inverse pairs still hold; every ordered
triple that contains both a and c violates the cocycle.

``build(workload, seed)`` returns the documents and the job list; each job
carries the verdict its input guarantees by construction, which ``check``
compares with the job's report.  ``tiny=True`` shrinks orders and chart
counts for the tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction as F

from germglue.atlas import GermAtlasInput, GermTransition
from germglue.documents import (
    atlas_input_to_json,
    sheaf_input_to_json,
    tep_data_to_json,
    tep_glue_input_to_json,
)
from germglue.jets import (
    Jet,
    PolyMap,
    jet_from_terms,
    jet_var,
    map_compose,
    map_inverse,
)
from germglue.matrices import (
    JetMatrix,
    matrix_inverse,
    matrix_mul,
    matrix_transpose,
    matrix_var_coeff,
)
from germglue.regions import Polydisc, TubeDomain
from germglue.scalars import ONE, ZERO, Coeff
from germglue.sheaf import SheafInput
from germglue.tep import TEPData

WORKLOADS = ("atlas-deep", "atlas-wide", "bundle")


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def canonical_bytes(doc: dict) -> bytes:
    """The exact bytes written for a generated document."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def chart_ids(n: int) -> list[str]:
    return [f"C{k:02d}" for k in range(n)]


def _rat(rng: random.Random, num: int, den: int) -> F:
    """+-num/den with a random sign."""
    return F(num * rng.choice((-1, 1)), den)


def _coeff(rng: random.Random, num: int, den: int, gaussian: bool) -> Coeff:
    if gaussian and rng.random() < 0.5:
        return Coeff(_rat(rng, num, den), _rat(rng, num, den))
    return Coeff(_rat(rng, num, den))


def _monomials(nv: int, order: int, fiber: range):
    """Exponents of total degree 1..order with positive fiber degree."""
    for deg in range(1, order + 1):
        for e in itertools.product(range(deg + 1), repeat=nv):
            if sum(e) == deg and any(e[k] for k in fiber):
                yield e


# ---------------------------------------------------------------------------
# atlas family
# ---------------------------------------------------------------------------


def random_germ(shape, rng, b: int, f: int, order: int, density: float,
                gaussian: bool, scale: F) -> PolyMap:
    """A dense germ h(t, z) = (t + O(z), L z + O(z^2)) fixing the zero
    section.  Each component gets a ``density`` share of the allowed
    monomials with coefficients +-1/4 (or +-1/4 +- i/4), and L is upper
    triangular with diagonal ``scale``.

    Terms of fiber degree 1 come from ``shape``, a stream that does not
    depend on the seed; terms of fiber degree >= 2 come from the seeded
    ``rng``.  The fiber-linear part dominates every bound on a thin tube, so
    it sets the certified radii and the shrinking and halving path, which
    would otherwise make one seed's job cost a third more than another's;
    the seeded part still changes nearly every coefficient of the composites
    the exact kernels work on."""
    nv = b + f
    comps = []
    for idx in range(nv):
        unit = tuple(1 if k == idx else 0 for k in range(nv))
        terms = [(unit, ONE if idx < b else Coeff(scale))]
        # the fiber linear part stays upper triangular with the set diagonal
        allowed = [e for e in _monomials(nv, order, range(b, nv))
                   if idx < b or sum(e) > 1 or e.index(1) > idx]
        fiber_degree = lambda e: sum(e[b:])
        for source, part in ((shape, [e for e in allowed if fiber_degree(e) == 1]),
                             (rng, [e for e in allowed if fiber_degree(e) > 1])):
            for e in source.sample(part, round(density * len(part))):
                terms.append((e, _coeff(source, 1, 4, gaussian)))
        comps.append(jet_from_terms(nv, order, terms))
    return PolyMap(nv, comps)


def polynomial_germ(rng, b: int, f: int, order: int, gaussian: bool,
                    scale: F) -> PolyMap:
    """h(t, z) = (t + p(z), c z) with deg p <= order.  Germs of this shape
    form a group under untruncated composition that never raises the
    degree, so phi_ij = h_j^-1 o h_i is an exact polynomial cocycle and the
    float audit residuals are pure rounding."""
    nv = b + f
    comps = []
    for idx in range(nv):
        unit = tuple(1 if k == idx else 0 for k in range(nv))
        if idx < b:
            terms = [(unit, ONE)]
            for e in _monomials(nv, order, range(b, nv)):
                if not any(e[:b]):
                    terms.append((e, _coeff(rng, 1, 4, gaussian)))
        else:
            terms = [(unit, Coeff(scale))]
        comps.append(jet_from_terms(nv, order, terms))
    return PolyMap(nv, comps)


def germ_atlas(germs: dict, centers: dict, b: int, f: int, order: int) -> GermAtlasInput:
    """phi_ij = h_j^-1 o h_i over unit polydisc charts at ``centers``."""
    ids = sorted(germs)
    inverses = {cid: map_inverse(germs[cid]) for cid in ids}
    charts = {cid: Polydisc(list(centers[cid]), [F(1)] * b) for cid in ids}
    transitions = [
        GermTransition(i, j, TubeDomain(i, charts[i], f, F(1)),
                       map_compose(germs[i], inverses[j]))
        for i in ids for j in ids if i != j
    ]
    return GermAtlasInput(b, f, order, charts, transitions)


def perturb_atlas(inp: GermAtlasInput, a: str, c: str, value: Coeff) -> GermAtlasInput:
    """Replace phi_ac by phi_ac + value * z_0^2 in base component 0 and
    phi_ca by its formal inverse."""
    nv, order = inp.total_vars, inp.order
    old = inp.transitions[(a, c)]
    bump = tuple(2 if k == inp.base_dim else 0 for k in range(nv))
    comps = list(old.map.components)
    terms = dict(comps[0].terms)
    terms[bump] = terms.get(bump, ZERO) + value
    comps[0] = Jet(nv, order, {e: v for e, v in terms.items() if not v.is_zero()})
    bent = PolyMap(nv, comps)
    rev = inp.transitions[(c, a)]
    transitions = dict(inp.transitions)
    transitions[(a, c)] = GermTransition(a, c, old.domain, bent)
    transitions[(c, a)] = GermTransition(c, a, rev.domain, map_inverse(bent))
    return GermAtlasInput(inp.base_dim, inp.fiber_dim, order, inp.charts,
                          list(transitions.values()))


def broken_triples(ids: list[str], a: str, c: str) -> list[list[str]]:
    """Ordered triples the perturbation of pair (a, c) breaks, when every
    triple of charts overlaps: those containing both a and c."""
    return sorted(
        list(t) for t in itertools.permutations(sorted(ids), 3)
        if a in t and c in t
    )


def cluster_centers(ids: list[str], b: int, spacing: F) -> dict:
    """Chart centres on a chain (b = 1) or a square grid (b = 2) with the
    given spacing.  Unit charts closer than 1 to the middle point all
    contain it, so every pair and triple of charts overlaps."""
    centers = {}
    side = 1 if b == 1 else max(1, round(len(ids) ** 0.5))
    for k, cid in enumerate(ids):
        coords = []
        for axis in range(b):
            step = k if b == 1 else (k % side if axis == 0 else k // side)
            coords.append(Coeff(spacing * step))
        centers[cid] = coords
    return centers


# ---------------------------------------------------------------------------
# sheaf family
# ---------------------------------------------------------------------------


def _random_jet(rng, nv: int, order: int, density: float, coeff: F,
                constant: Coeff = ZERO) -> Jet:
    terms = [((0,) * nv, constant)]
    for deg in range(1, order + 1):
        for e in itertools.product(range(deg + 1), repeat=nv):
            if sum(e) == deg and rng.random() < density:
                terms.append((e, Coeff(coeff * rng.choice((-1, 1)))))
    return jet_from_terms(nv, order, terms)


def random_frame(rng, rank: int, nv: int, order: int, density: float) -> JetMatrix:
    """G = I + N with N dense and constant-free, so G is invertible over
    the jet ring and det G stays close to 1 on small tubes."""
    return JetMatrix([
        [_random_jet(rng, nv, order, density, F(1, 16), ONE if r == c else ZERO)
         for c in range(rank)]
        for r in range(rank)
    ])


def _midpoint(points: list) -> list:
    return [sum((p[k] for p in points), ZERO) / Coeff(len(points))
            for k in range(len(points[0]))]


def sheaf_input(frames: dict, centers: dict, base_dim: int, fiber_dim: int,
                fiber_radius: F = F(1, 2)) -> SheafInput:
    """g_ij = G_j G_i^-1 on pair and triple tubes around the chart cluster."""
    ids = sorted(frames)
    inverses = {cid: matrix_inverse(frames[cid]) for cid in ids}
    matrices = {(i, j): matrix_mul(frames[j], inverses[i])
                for i in ids for j in ids if i != j}
    radius = [F(7, 10)] * base_dim

    def tube(key):
        base = Polydisc(_midpoint([centers[c] for c in key]), radius)
        return TubeDomain(key[0], base, fiber_dim, fiber_radius)

    pairs = list(itertools.combinations(ids, 2))
    triples = list(itertools.combinations(ids, 3))
    ranks = {cid: frames[cid].rows for cid in ids}
    return SheafInput(ranks, {p: tube(p) for p in pairs}, matrices,
                      triple_domains={t: tube(t) for t in triples})


def perturb_sheaf(inp: SheafInput, a: str, c: str, value: Coeff) -> SheafInput:
    """Add value * x_last to entry (0, 1) of g_ac; g_ca becomes its inverse."""
    g = inp.matrices[(a, c)]
    entries = [list(row) for row in g.entries]
    bump = tuple(1 if k == g.num_vars - 1 else 0 for k in range(g.num_vars))
    terms = dict(entries[0][1].terms)
    terms[bump] = terms.get(bump, ZERO) + value
    entries[0][1] = Jet(g.num_vars, g.order,
                        {e: v for e, v in terms.items() if not v.is_zero()})
    bent = JetMatrix(entries)
    matrices = dict(inp.matrices)
    matrices[(a, c)] = bent
    matrices[(c, a)] = matrix_inverse(bent)
    return SheafInput(inp.ranks, inp.domains, matrices,
                      triple_domains=inp.triple_domains)


# ---------------------------------------------------------------------------
# framed connection family
# ---------------------------------------------------------------------------


def unimodular(rng, n: int) -> list[list[int]]:
    """Integer matrix of determinant 1: a product of elementary matrices."""
    mat = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(2 * n):
        r, c = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        mat[r] = [x + k * y for x, y in zip(mat[r], mat[c])]
    return mat


def _constant(rows, nv: int, order: int) -> JetMatrix:
    return matrix_var_coeff(len(rows), nv, order,
                            [[Coeff(x) for x in row] for row in rows])


def gauge_frame(d: TEPData, rows) -> TEPData:
    """The frame s' = C s for a constant invertible C: A' = C A C^-1,
    B' = C B C^-1, P' = C^-T P C^-1, zeta' = C zeta.  A constant gauge
    keeps every degree, so the data stay in the declared box, and it maps
    flat, paired, IC/GC-satisfying data to data with the same verdicts."""
    c = _constant(rows, d.num_vars, d.work_order)
    c_inv = matrix_inverse(c)
    conj = lambda m: matrix_mul(c, matrix_mul(m, c_inv))
    p = matrix_mul(matrix_transpose(c_inv), matrix_mul(d.p_mat, c_inv))
    return TEPData(d.base_dim, d.rank, d.t_order, d.z_order,
                   [conj(a) for a in d.a_mats], conj(d.b_mat), p,
                   matrix_mul(c, d.zeta))


def identity_atlas(ids: list[str], centers: dict, order: int) -> GermAtlasInput:
    b = len(next(iter(centers.values())))
    charts = {cid: Polydisc(list(centers[cid]), [F(1)] * b) for cid in ids}
    ident = PolyMap(b + 1, [jet_var(b + 1, order, k) for k in range(b + 1)])
    transitions = [GermTransition(i, j, TubeDomain(i, charts[i], 1, F(1)), ident)
                   for i in ids for j in ids if i != j]
    return GermAtlasInput(b, 1, order, charts, transitions)


def gauge_bundle(gauges: dict, centers: dict, order: int) -> SheafInput:
    """Constant bundle transitions g_ij = C_j C_i^-1 in the atlas variables."""
    ids = sorted(gauges)
    nv = len(next(iter(centers.values()))) + 1
    mats = {cid: _constant(rows, nv, order) for cid, rows in gauges.items()}
    inverses = {cid: matrix_inverse(m) for cid, m in mats.items()}
    matrices = {(i, j): matrix_mul(mats[j], inverses[i])
                for i in ids for j in ids if i != j}
    radius = [F(7, 10)] * (nv - 1)
    domains = {
        (i, j): TubeDomain(i, Polydisc(_midpoint([centers[i], centers[j]]), radius),
                           1, F(1))
        for i, j in itertools.combinations(ids, 2)
    }
    ranks = {cid: len(rows) for cid, rows in gauges.items()}
    return SheafInput(ranks, domains, matrices)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class JobSet:
    """Collects documents and jobs for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.docs: dict[str, dict] = {}
        self.jobs: list[dict] = []

    def rng(self, tag: str) -> random.Random:
        """An independent stream per (workload, seed, tag): inserting a job
        never changes the inputs of another."""
        digest = hashlib.sha256(f"{self.workload}/{self.seed}/{tag}".encode())
        return random.Random(int.from_bytes(digest.digest()[:8], "big"))

    def shape_rng(self, tag: str) -> random.Random:
        """A stream that depends on the workload and tag, not the seed."""
        digest = hashlib.sha256(f"{self.workload}/shape/{tag}".encode())
        return random.Random(int.from_bytes(digest.digest()[:8], "big"))

    def doc(self, name: str, doc: dict) -> str:
        if name in self.docs:
            raise ValueError(f"document {name} generated twice")
        self.docs[name] = doc
        return name

    def job(self, name: str, command: str, doc: str, expect: dict,
            atlas: str | None = None, flags: tuple = ()) -> None:
        self.jobs.append({"id": name, "command": command, "doc": doc,
                          "atlas": atlas, "flags": list(flags), "expect": expect})


GLUED = {"exit": 0, "valid": True, "hausdorff": True}
# The fixture frame is flat, paired, and satisfies IC, GC and
# miniversality; a constant gauge keeps all of these, and gauged charts
# glue with no intertwining residual.
TEP_OK = {"exit": 0, "tep_valid": True}


def _atlas_doc(bld: JobSet, name: str, n: int, b: int, f: int, order: int,
               density: float, gaussian: bool, spacing: F,
               family: str = "dense") -> GermAtlasInput:
    rng, shape = bld.rng(name), bld.shape_rng(name)
    ids = chart_ids(n)
    # fiber scalings 1, 3/2, 2, ... by chart position, not by seed
    scales = {c: F(2 + k, 2) for k, c in enumerate(ids)}
    if family == "dense":
        germs = {c: random_germ(shape, rng, b, f, order, density, gaussian,
                               scales[c])
                 for c in ids}
    else:
        germs = {c: polynomial_germ(rng, b, f, order, gaussian, scales[c])
                 for c in ids}
    inp = germ_atlas(germs, cluster_centers(ids, b, spacing), b, f, order)
    bld.doc(name, atlas_input_to_json(inp))
    return inp


def _broken_atlas_doc(bld: JobSet, name: str, inp: GermAtlasInput) -> dict:
    ids = sorted(inp.charts)
    a, c = ids[0], ids[-1]
    bld.doc(name, atlas_input_to_json(perturb_atlas(inp, a, c, Coeff(F(1, 4)))))
    return {"exit": 2, "valid": False, "violation": "cocycle",
            "triples": broken_triples(ids, a, c)}


def atlas_deep(bld: JobSet, tiny: bool) -> None:
    """Three charts, high order, dense terms: exact jet arithmetic
    dominates while regions and the triple loop stay small."""
    k = (lambda big, small: small) if tiny else (lambda big, small: big)
    sp = F(1, 10)
    # the composites h_j^-1 o h_i are dense at any germ density
    _atlas_doc(bld, "deep-dense", 3, 1, 1, k(8, 3), 0.3, False, sp)
    bld.job("glue-dense", "glue", "deep-dense", GLUED)
    _atlas_doc(bld, "deep-gauss", 3, 1, 1, k(4, 3), 0.8, True, sp)
    bld.job("glue-gauss", "glue", "deep-gauss", GLUED)
    _atlas_doc(bld, "deep-f2", 3, 1, 2, k(3, 2), 0.5, False, sp)
    bld.job("glue-f2", "glue", "deep-f2", GLUED)
    _atlas_doc(bld, "deep-poly", 3, 1, 1, k(8, 3), 1.0, False, sp, family="poly")
    bld.job("glue-float", "glue", "deep-poly", dict(GLUED, float_ok=True),
            flags=("--mode", "float"))
    inp = _atlas_doc(bld, "deep-check", 3, 1, 1, k(8, 3), 1.0, False, sp)
    bld.job("validate-dense", "validate", "deep-check", {"exit": 0, "valid": True})
    bld.job("validate-broken", "validate", "deep-broken",
            _broken_atlas_doc(bld, "deep-broken", inp))


def atlas_wide(bld: JobSet, tiny: bool) -> None:
    """Five and six clustered charts at order 3 and 4 on 1-D and 2-D
    bases: the O(N^3) triple loop, its recomputed cocycle residuals and the
    region bounds dominate, while each kernel call is cheap.  The chain of
    six sits at spacing 1/40 because at 1/20 it meets the false obstruction
    of ``item4_probe``."""
    n = (lambda big, small: small) if tiny else (lambda big, small: big)
    layouts = [
        ("chain5", n(5, 3), 1, n(4, 2), 0.4, F(1, 20)),
        ("chain6", n(6, 3), 1, 3, 0.6, F(1, 40)),
        ("grid5", n(5, 3), 2, n(3, 2), 0.4, F(1, 20)),
    ]
    for name, charts, b, order, density, spacing in layouts:
        _atlas_doc(bld, f"wide-{name}", charts, b, 1, order, density, False, spacing)
        bld.job(f"glue-{name}", "glue", f"wide-{name}", GLUED)


def bundle(bld: JobSet, tiny: bool) -> None:
    """Sheaf and framed-connection data over cheap identity atlases: the
    sheaf cocycle products (matrices over jets) do most of the work."""
    k = (lambda big, small: small) if tiny else (lambda big, small: big)
    # four charts give four triple domains, so the cocycle products
    # (6 per triple) outweigh decoding the twelve matrices
    sheaf_ids = chart_ids(k(4, 3))
    sheaf_centers = cluster_centers(sheaf_ids, 1, F(1, 20))
    # the base atlases differ in order, so no document repeats in a pass
    sheaves = [("r2", 2, k(8, 3), 0.6, 2), ("r3", 3, k(6, 2), 0.5, 3)]
    for name, rank, order, density, base_order in sheaves:
        rng = bld.rng(f"sheaf-{name}")
        frames = {c: random_frame(rng, rank, 2, order, density) for c in sheaf_ids}
        bld.doc(f"sheaf-{name}",
                sheaf_input_to_json(sheaf_input(frames, sheaf_centers, 1, 1)))
        bld.doc(f"base-{name}",
                atlas_input_to_json(identity_atlas(sheaf_ids, sheaf_centers,
                                                   base_order)))
        bld.job(f"glue-sheaf-{name}", "glue-sheaf", f"sheaf-{name}",
                {"exit": 0, "hausdorff": True, "sheaf_charts": len(sheaf_ids)},
                atlas=f"base-{name}")
    ids = chart_ids(3)
    centers = cluster_centers(ids, 1, F(1, 10))
    rng = bld.rng("sheaf-broken")
    frames = {c: random_frame(rng, 2, 2, k(4, 2), 0.6) for c in ids}
    a, c = ids[0], ids[-1]
    broken = perturb_sheaf(sheaf_input(frames, centers, 1, 1), a, c, Coeff(F(1, 4)))
    bld.doc("sheaf-broken", sheaf_input_to_json(broken))
    bld.doc("base-broken", atlas_input_to_json(identity_atlas(ids, centers, 2)))
    bld.job("glue-sheaf-broken", "glue-sheaf", "sheaf-broken",
            {"exit": 2, "valid": False, "violation": "cocycle",
             "triples": broken_triples(ids, a, c)},
            atlas="base-broken")

    frame = _fixture_frame()
    for idx in range(3):
        rng = bld.rng(f"tep-{idx}")
        d = gauge_frame(frame, unimodular(rng, frame.rank))
        bld.doc(f"tep-{idx}", tep_data_to_json(d))
        bld.job(f"tep-check-{idx}", "tep-check", f"tep-{idx}", TEP_OK)
    tep_ids = chart_ids(k(5, 3))
    tep_centers = cluster_centers(tep_ids, 1, F(1, 20))
    rng = bld.rng("glue-tep")
    gauges = {cid: unimodular(rng, frame.rank) for cid in tep_ids}
    bld.doc("glue-tep", tep_glue_input_to_json(
        {cid: gauge_frame(frame, gauges[cid]) for cid in tep_ids},
        identity_atlas(tep_ids, tep_centers, 3),
        gauge_bundle(gauges, tep_centers, 3),
    ))
    bld.job("glue-tep", "glue-tep", "glue-tep", TEP_OK)


def _fixture_frame() -> TEPData:
    """The chart frame of ``sample_inputs/tep-glue.json`` (all its charts
    carry the same frame)."""
    from germglue.documents import load_document, tep_glue_input_from_json

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "sample_inputs", "tep-glue.json")
    charts, _, _, _ = tep_glue_input_from_json(load_document(path, "tep-glue-input"))
    return charts[sorted(charts)[0]]


def item4_probe(bld: JobSet) -> None:
    """An eight-chart chain at spacing 1/20: a valid cocycle that the seed
    commit rejects with a false obstruction (exit 3) from region geometry.
    Run once per invocation, outside the timed passes."""
    _atlas_doc(bld, "probe-chain8", 8, 1, 1, 3, 0.6, False, F(1, 20))
    bld.job("probe-chain8", "glue", "probe-chain8", GLUED)


FAMILIES = {"atlas-deep": atlas_deep, "atlas-wide": atlas_wide, "bundle": bundle}


def build(workload: str, seed: int, tiny: bool = False) -> JobSet:
    """Documents and jobs of one workload; the same seed gives the same
    bytes."""
    bld = JobSet(workload, seed)
    FAMILIES[workload](bld, tiny)
    return bld


def build_probe(seed: int) -> JobSet:
    bld = JobSet("atlas-wide-probe", seed)
    item4_probe(bld)
    return bld


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _hypotheses(tep: dict) -> list:
    return [tep.get("IC"), tep.get("GC", {}).get("holds"),
            tep.get("miniversal", {}).get("holds")]


def _check_tep(report: dict, valid: bool) -> list[str]:
    bad = []
    if "tep" in report:
        tep = report["tep"]
        charts = [tep]
    else:
        tep = report.get("certificate", {})
        charts = list(tep.get("chart_reports", {}).values())
        residuals = tep.get("intertwining", {}).get("residuals")
        if residuals != []:
            bad.append(f"intertwining residuals {residuals!r:.120}")
    if tep.get("valid") is not valid:
        bad.append(f"tep valid {tep.get('valid')} != {valid}")
    if not charts or any(_hypotheses(c) != [True] * 3 for c in charts):
        bad.append(f"IC/GC/miniversal {[_hypotheses(c) for c in charts]}")
    return bad


def check(expect: dict, envelope: dict) -> list[str]:
    """Differences between a job's report envelope and its by-construction
    verdict; empty when the job is correct."""
    bad = []
    report = envelope.get("report", {})
    if envelope.get("exit_code") != expect["exit"]:
        err = envelope.get("error", {})
        bad.append(f"exit {envelope.get('exit_code')} != {expect['exit']}"
                   f" ({err.get('kind')}: {str(err.get('message'))[:120]})")
    validation = report.get("validation", {})
    if "valid" in expect and validation.get("valid") is not expect["valid"]:
        bad.append(f"validation.valid {validation.get('valid')} != {expect['valid']}")
    if "hausdorff" in expect:
        certs = report.get("certificates") or report.get("atlas_certificates") or {}
        holds = certs.get("hausdorff", {}).get("holds")
        if holds is not expect["hausdorff"]:
            bad.append(f"hausdorff.holds {holds} != {expect['hausdorff']}")
    if "violation" in expect:
        violations = validation.get("violations", [])
        kinds = sorted({v.get("kind") for v in violations})
        triples = sorted({tuple(v["triple"]) for v in violations if "triple" in v})
        if kinds != [expect["violation"]]:
            bad.append(f"violation kinds {kinds} != {[expect['violation']]}")
        if [list(t) for t in triples] != expect["triples"]:
            bad.append(f"violated triples {triples} != {expect['triples']}")
    if "float_ok" in expect:
        ok = report.get("float_audit", {}).get("ok")
        if ok is not expect["float_ok"]:
            bad.append(f"float_audit.ok {ok} != {expect['float_ok']}")
    if "sheaf_charts" in expect and len(report.get("epsilons", {})) != expect["sheaf_charts"]:
        bad.append(f"glued sheaf charts {len(report.get('epsilons', {}))}"
                   f" != {expect['sheaf_charts']}")
    if "tep_valid" in expect:
        bad += _check_tep(report, expect["tep_valid"])
    return bad
