"""Flat-connection frames with a pairing over a base-times-line germ.

A frame datum holds, per chart, the pole-cleared matrices of a meromorphic
connection on a rank N+1 free module over a polydisc times a z-line: one
matrix A_a per base direction (the connection acts as d/dt_a + A_a/z), one
z-direction matrix B (acting as d/dz + B/z^2), a pairing Gram matrix P and a
distinguished section zeta.  Entries are jets in (t_1..t_m, z) with z the
last variable, boxed by independent truncation orders in t and in z.

The module verifies the structure axioms (flatness of the connection,
symmetry and flatness-compatibility of the pairing), decides the injectivity
and generation hypotheses of the unfolding construction and miniversality at
base points, and glues chart-wise frame data through the atlas and sheaf
layers, re-verifying everything on the glued object.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .errors import CompositionDomainError, ShapeError, ValidationFailure
from .scalars import ZERO, Coeff
from .jets import (
    PolyMap,
    PowerTable,
    grlex_terms,
    jet_eval,
    jet_extend_vars,
    jet_from_terms,
    jet_is_zero,
    jet_mul_var,
    jet_partial,
    jet_var,
    jet_with_order,
)
from .matrices import (
    JetMatrix,
    coeff_det,
    coeff_matvec,
    column_span_rank,
    matrix_add,
    matrix_compose,
    matrix_det,
    matrix_eval,
    matrix_flip_var,
    matrix_map,
    matrix_mul,
    matrix_partial,
    matrix_scale_jet,
    matrix_sub,
    matrix_transpose,
    matrix_with_order,
)
from .regions import Polydisc, point_in_polydisc, point_in_tube
from .atlas import (
    RADIUS_FLOOR_DEFAULT,
    GermAtlasInput,
    GluedAtlas,
    run_glue_pipeline,
)
from .sheaf import SheafInput, glue_sheaf

# Symbolic determinant expansion is affordable up to this rank; larger
# miniversality questions fall back to seeded randomized evaluation.
SYMBOLIC_RANK_CAP = 5
RANDOM_TRIALS = 12
_RANDOM_RANGE = 10**6


class TEPData:
    """Connection-with-pairing data in one frame.

    ``a_mats`` lists the base-direction matrices (one per t-variable),
    ``b_mat`` the z-direction matrix, ``p_mat`` the pairing, ``zeta`` the
    distinguished column.  Every entry must stay inside the declared box
    deg_t <= t_order, deg_z <= z_order; internally all entries are lifted to
    a working order high enough that products and pole-clearing shifts in
    the validators never truncate.  ``domain``, when given, restricts the
    base points admitted by the pointwise checks.
    """

    __slots__ = (
        "base_dim",
        "rank",
        "t_order",
        "z_order",
        "work_order",
        "a_mats",
        "b_mat",
        "p_mat",
        "zeta",
        "domain",
    )

    def __init__(
        self,
        base_dim: int,
        rank: int,
        t_order: int,
        z_order: int,
        a_mats: Sequence[JetMatrix],
        b_mat: JetMatrix,
        p_mat: JetMatrix,
        zeta,
        domain: Optional[Polydisc] = None,
    ):
        if base_dim < 1 or rank < 1:
            raise ShapeError("need base_dim >= 1 and rank >= 1")
        if t_order < 1 or z_order < 1:
            raise ShapeError("need t_order >= 1 and z_order >= 1")
        self.base_dim = base_dim
        self.rank = rank
        self.t_order = t_order
        self.z_order = z_order
        self.work_order = 2 * (t_order + z_order) + 2
        if len(a_mats) != base_dim:
            raise ShapeError("need one A matrix per base direction")
        if isinstance(zeta, JetMatrix):
            zcol = zeta
        else:
            zcol = JetMatrix([[x] for x in zeta])
        named = [(f"A_{a + 1}", m, rank) for a, m in enumerate(a_mats)]
        named += [("B", b_mat, rank), ("P", p_mat, rank), ("zeta", zcol, 1)]
        for label, mat, cols in named:
            if (mat.rows, mat.cols) != (rank, cols):
                raise ShapeError(f"{label} must be {rank}x{cols}")
            if mat.num_vars != base_dim + 1:
                raise ShapeError(
                    f"{label} entries must live in {base_dim} base variables plus z"
                )
            self._check_box(mat, label)
        if domain is not None and domain.dim != base_dim:
            raise ShapeError("domain polydisc must match the base dimension")
        self.a_mats = tuple(matrix_with_order(m, self.work_order) for m in a_mats)
        self.b_mat = matrix_with_order(b_mat, self.work_order)
        self.p_mat = matrix_with_order(p_mat, self.work_order)
        self.zeta = matrix_with_order(zcol, self.work_order)
        self.domain = domain

    def _check_box(self, mat: JetMatrix, label: str) -> None:
        for row in mat.entries:
            for x in row:
                for e in {**x.re, **x.im}:
                    if sum(e[: self.base_dim]) > self.t_order or e[self.base_dim] > self.z_order:
                        raise ShapeError(
                            f"{label} has a term at exponent {list(e)} outside the "
                            f"declared box (t <= {self.t_order}, z <= {self.z_order})"
                        )

    @property
    def num_vars(self) -> int:
        return self.base_dim + 1

    @property
    def z_index(self) -> int:
        return self.base_dim

    def __repr__(self) -> str:
        return (
            f"TEPData(m={self.base_dim}, rank={self.rank}, "
            f"orders=({self.t_order},{self.z_order}))"
        )


# ---------------------------------------------------------------------------
# residual helpers
# ---------------------------------------------------------------------------


def _z_times(mat: JetMatrix, z: int, power: int, order: int) -> JetMatrix:
    return matrix_map(mat, lambda x: jet_mul_var(jet_with_order(x, order), z, power))


def _commutator(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    return matrix_sub(matrix_mul(a, b), matrix_mul(b, a))


def _box_entries(mat: JetMatrix, base_dim: int, t_cap: int, z_cap: int) -> list[dict]:
    """Nonzero residual terms inside the sub-box where the truncated inputs
    fully determine the residual."""
    out = []
    for r, row in enumerate(mat.entries):
        for c, x in enumerate(row):
            for e, v in grlex_terms(x):
                if sum(e[:base_dim]) <= t_cap and e[base_dim] <= z_cap:
                    out.append({"entry": [r, c], "exponent": list(e), "value": v})
    return out


def _tagged(mat: JetMatrix, base_dim: int, t_cap: int, z_cap: int, tag: dict) -> list[dict]:
    out = []
    for item in _box_entries(mat, base_dim, t_cap, z_cap):
        merged = dict(tag)
        merged.update(item)
        out.append(merged)
    return out


def _eval_point(d: TEPData, y: Optional[Sequence[Coeff]]) -> tuple[Coeff, ...]:
    if y is None:
        y = d.domain.centers if d.domain is not None else (ZERO,) * d.base_dim
    y = tuple(y)
    if len(y) != d.base_dim:
        raise ShapeError("base point has wrong length")
    if d.domain is not None and not point_in_polydisc(y, d.domain, strict=False):
        raise CompositionDomainError("base point lies outside the declared domain")
    return y + (ZERO,)


# ---------------------------------------------------------------------------
# axiom validators
# ---------------------------------------------------------------------------


def validate_tep_flatness(d: TEPData) -> dict:
    """Commutator residuals of the pole-cleared connection.

    The (t_a, t_b) commutator times z^2 gives the first identity,
        z*(dA_b/dt_a - dA_a/dt_b) + A_a*A_b - A_b*A_a = 0;
    the (t_a, z) commutator times z^3 gives the second,
        z*dB/dt_a - z^2*dA_a/dz + z*A_a + A_a*B - B*A_a = 0.
    Residual terms are reported on the box deg_t <= t_order - 1 (one
    t-derivative is taken) and deg_z <= z_order, the region the declared
    truncation determines.
    """
    m, z, w = d.base_dim, d.z_index, d.work_order
    t_cap, z_cap = d.t_order - 1, d.z_order
    residuals: list[dict] = []
    for a in range(m):
        for b in range(a + 1, m):
            mixed = matrix_sub(matrix_partial(d.a_mats[b], a), matrix_partial(d.a_mats[a], b))
            res = matrix_add(_z_times(mixed, z, 1, w), _commutator(d.a_mats[a], d.a_mats[b]))
            residuals += _tagged(res, m, t_cap, z_cap, {"directions": [a, b]})
        res = matrix_sub(
            _z_times(matrix_partial(d.b_mat, a), z, 1, w),
            _z_times(matrix_partial(d.a_mats[a], z), z, 2, w),
        )
        res = matrix_add(res, _z_times(d.a_mats[a], z, 1, w))
        res = matrix_add(res, _commutator(d.a_mats[a], d.b_mat))
        residuals += _tagged(res, m, t_cap, z_cap, {"directions": [a, "z"]})
    return {
        "flat": not residuals,
        "box": {"t": t_cap, "z": z_cap},
        "residuals": residuals,
    }


def validate_tep_pairing(d: TEPData) -> dict:
    """Symmetry, flatness-compatibility and non-degeneracy of the pairing.

    Symmetry is P(t,z) = P(t,-z)^T coefficientwise.  Compatibility is the
    pair of frame identities
        z*dP/dt_a = -A_a(t,-z)^T*P + P*A_a(t,z),
        z^2*dP/dz = -B(t,z)^T*P + P*B(t,z),
    with the transpose-slot convention fixed once for the whole package:
    the z-direction identity takes the transpose of B at +z, and the
    involution z -> -z acts only on the A-direction matrices and on the
    pairing itself.  Non-degeneracy asks for an invertible constant term,
    the germ-level meaning of P(t,0) being invertible.
    """
    m, z, w = d.base_dim, d.z_index, d.work_order
    p = d.p_mat
    symmetry = _box_entries(
        matrix_sub(p, matrix_transpose(matrix_flip_var(p, z))), m, d.t_order, d.z_order
    )
    compatibility: list[dict] = []
    for a in range(m):
        twisted = matrix_transpose(matrix_flip_var(d.a_mats[a], z))
        res = matrix_add(
            _z_times(matrix_partial(p, a), z, 1, w),
            matrix_sub(matrix_mul(twisted, p), matrix_mul(p, d.a_mats[a])),
        )
        compatibility += _tagged(res, m, d.t_order - 1, d.z_order, {"direction": a})
    res = matrix_add(
        _z_times(matrix_partial(p, z), z, 2, w),
        matrix_sub(matrix_mul(matrix_transpose(d.b_mat), p), matrix_mul(p, d.b_mat)),
    )
    compatibility += _tagged(res, m, d.t_order, d.z_order, {"direction": "z"})
    det0 = coeff_det(matrix_eval(p, (ZERO,) * d.num_vars))
    nondegenerate = not det0.is_zero()
    return {
        "valid": not symmetry and not compatibility and nondegenerate,
        "symmetry": symmetry,
        "compatibility": compatibility,
        "nondegenerate": nondegenerate,
        "det_at_origin": det0,
    }


# ---------------------------------------------------------------------------
# pointwise hypothesis checks
# ---------------------------------------------------------------------------


def check_IC(d: TEPData, y: Optional[Sequence[Coeff]] = None) -> bool:
    """Injectivity of v -> (z nabla_v zeta) at (y, 0).

    The z d/dt_a term of z nabla_a zeta carries an explicit z factor and
    dies at z = 0, so the columns are A_a(y,0) zeta(y,0); injectivity is
    full column rank.
    """
    pt = _eval_point(d, y)
    zv = [jet_eval(row[0], pt) for row in d.zeta.entries]
    cols = [coeff_matvec(matrix_eval(a, pt), zv) for a in d.a_mats]
    return column_span_rank(cols) == d.base_dim


def check_GC(d: TEPData, y: Optional[Sequence[Coeff]] = None) -> tuple[bool, list[int]]:
    """Generation of the fiber at (y, 0) by iterated covariant derivatives.

    Words are built with the z-direction operator applied outside the base
    direction operators, matching the generating set; the trace records the
    evaluated span dimension per word length, capped at the rank.  Words are
    grown at an order high enough that no operator application truncates.
    """
    pt = _eval_point(d, y)
    cap = d.rank
    wg = (cap + 1) * (d.t_order + d.z_order) + 2 * cap + 2
    z = d.z_index
    amats = [matrix_with_order(a, wg) for a in d.a_mats]
    bmat = matrix_with_order(d.b_mat, wg)

    def k_op(a: int, s: JetMatrix) -> JetMatrix:
        return matrix_add(_z_times(matrix_partial(s, a), z, 1, wg), matrix_mul(amats[a], s))

    def u_op(s: JetMatrix) -> JetMatrix:
        return matrix_add(_z_times(matrix_partial(s, z), z, 2, wg), matrix_mul(bmat, s))

    def evaluate(s: JetMatrix) -> list[Coeff]:
        return [jet_eval(row[0], pt) for row in s.entries]

    frontier: list[tuple[int, JetMatrix]] = [(0, matrix_with_order(d.zeta, wg))]
    vectors = [evaluate(frontier[0][1])]
    trace = [column_span_rank(vectors)]
    depth = 0
    while trace[-1] < d.rank and depth < cap:
        depth += 1
        grown: list[tuple[int, JetMatrix]] = []
        for u_count, s in frontier:
            grown.append((u_count + 1, u_op(s)))
            if u_count == 0:
                grown.extend((0, k_op(a, s)) for a in range(d.base_dim))
        frontier = grown
        vectors.extend(evaluate(s) for _, s in frontier)
        trace.append(column_span_rank(vectors))
    return trace[-1] == d.rank, trace


def check_miniversal(
    d: TEPData, y: Optional[Sequence[Coeff]] = None, seed: int = 0
) -> tuple[bool, dict]:
    """Existence of x with [A_1(y,0)x | ... | A_m(y,0)x] invertible.

    Requires the base dimension to equal the rank.  The determinant is a
    polynomial in the entries of x: expanded symbolically for small ranks,
    otherwise tested by seeded random evaluation with exact arithmetic
    (degree rank over a sample range of 2e6 values per entry, so each trial
    misses a nonzero determinant with probability below rank / 2e6).
    """
    if d.base_dim != d.rank:
        return False, {"method": "dimension"}
    pt = _eval_point(d, y)
    mats = [matrix_eval(a, pt) for a in d.a_mats]
    n = d.rank
    if n <= SYMBOLIC_RANK_CAP:
        unit = lambda c: tuple(1 if i == c else 0 for i in range(n))
        rows = [
            [jet_from_terms(n, n, [(unit(c), mats[a][r][c]) for c in range(n)])
             for a in range(n)]
            for r in range(n)
        ]
        det = matrix_det(JetMatrix(rows))
        nonzero = not jet_is_zero(det)
        witness = next(iter(grlex_terms(det)), None) if nonzero else None
        return nonzero, {
            "method": "symbolic",
            "witness_term": list(witness[0]) if witness else None,
        }
    rng = random.Random(seed)
    for _ in range(RANDOM_TRIALS):
        x = [Coeff(Fraction(rng.randint(-_RANDOM_RANGE, _RANDOM_RANGE))) for _ in range(n)]
        cols = [coeff_matvec(mat, x) for mat in mats]
        det = coeff_det([list(row) for row in zip(*cols)])
        if not det.is_zero():
            return True, {"method": "randomized", "seed": seed, "witness": x}
    return False, {"method": "randomized", "seed": seed, "trials": RANDOM_TRIALS,
                   "witness": None}


def _hypotheses(d: TEPData, y: Optional[Sequence[Coeff]], seed: int) -> dict:
    """The injectivity, generation and miniversality verdicts at (y, 0)."""
    gc_holds, gc_trace = check_GC(d, y)
    mini_holds, mini_info = check_miniversal(d, y, seed=seed)
    return {
        "IC": check_IC(d, y),
        "GC": {"holds": gc_holds, "trace": gc_trace},
        "miniversal": {"holds": mini_holds, **mini_info},
    }


def tep_report(d: TEPData, y: Optional[Sequence[Coeff]] = None, seed: int = 0) -> dict:
    """Axiom validation plus hypothesis checks at one base point.

    ``valid`` covers the structure axioms (flatness and pairing); the
    injectivity, generation and miniversality verdicts are reported
    alongside, as hypotheses about the data rather than validity of it.
    """
    pt = _eval_point(d, y)
    flatness = validate_tep_flatness(d)
    pairing = validate_tep_pairing(d)
    return {
        "valid": flatness["flat"] and pairing["valid"],
        "point": list(pt[: d.base_dim]),
        "flatness": flatness,
        "pairing": pairing,
        **_hypotheses(d, y, seed),
    }


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


class GluedTEP:
    """Glued frame data: the certified atlas, the chart-wise data (gluing
    never modifies it) and the composite certificate, which carries what
    the glued module decides (the atlas and sheaf certificates, the
    intertwining residuals and the chart and point checks)."""

    __slots__ = ("atlas", "charts", "certificate")

    def __init__(self, atlas: GluedAtlas, charts, certificate):
        self.atlas = atlas
        self.charts = charts
        self.certificate = certificate


def _intertwining_residuals(
    pair: tuple,
    di: TEPData,
    dj: TEPData,
    transition_map: PolyMap,
    g: JetMatrix,
    atlas_vars: int,
) -> list[dict]:
    """Residuals of the frame-change identities along one transition.

    With s_j = g s_i and base change Phi = (phi, z), the connection, the
    z-direction matrix, the pairing and the section must satisfy
        g A^i_a = z dg/dt_a + sum_b J^b_a (A^j_b o Phi) g,
        g B^i   = z^2 dg/dz + (B^j o Phi) g,
        P^i     = g(t,-z)^T (P^j o Phi) g,
        zeta^j o Phi = g zeta^i,
    where J is the Jacobian of phi.  The bundle transition lives in the
    atlas variables, so it is constant in z and the dg/dz term vanishes.
    """
    nv, w, z = di.num_vars, di.work_order, di.z_index
    extend = lambda x: jet_extend_vars(jet_with_order(x, w), nv)
    comps = [extend(c) for c in transition_map.components]
    phi = PolyMap(nv, comps + [jet_var(nv, w, z)])
    gx = matrix_map(g, extend)
    t_cap = min(di.t_order, transition_map.order, g.order) - 1
    z_cap = di.z_order
    i, j = pair
    out: list[dict] = []

    def collect(res: JetMatrix, datum: str, direction=None) -> None:
        tag = {"pair": [i, j], "datum": datum}
        if direction is not None:
            tag["direction"] = direction
        out.extend(_tagged(res, di.base_dim, t_cap, z_cap, tag))

    powers = PowerTable()  # the monomials of Phi, shared by every composition
    a_composed = [matrix_compose(m, phi, powers) for m in dj.a_mats]
    jac = [
        [jet_with_order(jet_partial(comps[b], a), w) for a in range(atlas_vars)]
        for b in range(atlas_vars)
    ]
    for a in range(atlas_vars):
        res = matrix_mul(gx, di.a_mats[a])
        for b in range(atlas_vars):
            res = matrix_sub(res, matrix_scale_jet(matrix_mul(a_composed[b], gx), jac[b][a]))
        res = matrix_sub(res, _z_times(matrix_partial(gx, a), z, 1, w))
        collect(res, "A", a)
    res = matrix_sub(matrix_mul(gx, di.b_mat),
                     matrix_mul(matrix_compose(dj.b_mat, phi, powers), gx))
    res = matrix_sub(res, _z_times(matrix_partial(gx, z), z, 2, w))
    collect(res, "B")
    res = matrix_sub(
        matrix_mul(
            matrix_transpose(matrix_flip_var(gx, z)),
            matrix_mul(matrix_compose(dj.p_mat, phi, powers), gx),
        ),
        di.p_mat,
    )
    collect(res, "P")
    collect(matrix_sub(matrix_mul(gx, di.zeta), matrix_compose(dj.zeta, phi, powers)), "zeta")
    return out


def glue_tep(
    charts: Dict[object, TEPData],
    atlas_input: GermAtlasInput,
    sheaf_input: SheafInput,
    points: Sequence[tuple] = (),
    radius_floor: Fraction = RADIUS_FLOOR_DEFAULT,
    samples: int = 200,
    seed: int = 0,
) -> GluedTEP:
    """Glue chart-wise frame data over a certified atlas and module.

    Runs the atlas pipeline on the base datum and the module gluing on the
    bundle datum (either raises on failure), then checks that every declared
    bundle transition intertwines the connection matrices, the pairings and
    the sections, and re-validates the axioms and hypotheses on each chart
    at its tube center plus any user-supplied (chart, point) pairs.  The
    certificate's ``valid`` covers the axioms and the intertwining; the
    ``zero_section_pullback`` entry holds when no intertwining residual
    survives restriction to the zero section, where the glued data must
    reproduce the input; the residuals themselves are under
    ``intertwining``.
    """
    ids = sorted(atlas_input.charts, key=repr)
    if set(charts) != set(atlas_input.charts):
        raise ShapeError("chart data and atlas describe different chart sets")
    ref = charts[ids[0]]
    for cid in ids:
        d = charts[cid]
        if d.base_dim != atlas_input.total_vars:
            raise ShapeError(
                f"chart {cid!r}: frame base dimension {d.base_dim} must match "
                f"the atlas base plus fiber dimension {atlas_input.total_vars}"
            )
        if (d.rank, d.t_order, d.z_order) != (ref.rank, ref.t_order, ref.z_order):
            raise ShapeError("chart data must share one rank and one truncation box")
        if sheaf_input.ranks.get(cid) != d.rank:
            raise ShapeError(f"sheaf rank at chart {cid!r} differs from the frame rank")

    atlas_report, glued_atlas = run_glue_pipeline(
        atlas_input, radius_floor=radius_floor, samples=samples, seed=seed
    )
    glued_sheaf = glue_sheaf(sheaf_input, glued_atlas, radius_floor)

    residuals: list[dict] = []
    pairs_checked = 0
    for (i, j), tr in sorted(atlas_input.transitions.items(), key=repr):
        g = sheaf_input.matrices.get((i, j))
        if g is None:
            raise ValidationFailure(
                f"no bundle transition declared for atlas pair {(i, j)!r}"
            )
        residuals += _intertwining_residuals(
            (i, j), charts[i], charts[j], tr.map, g, atlas_input.total_vars
        )
        pairs_checked += 1

    fiber_span = range(atlas_input.base_dim, atlas_input.total_vars)
    on_section = any(all(r["exponent"][k] == 0 for k in fiber_span) for r in residuals)

    chart_reports = {}
    for cid in ids:
        tube = glued_atlas.cover.tubes[cid]
        y = tuple(tube.base.centers) + (ZERO,) * atlas_input.fiber_dim
        chart_reports[cid] = tep_report(charts[cid], y=y, seed=seed)

    point_checks = []
    for cid, pt in points:
        if cid not in charts:
            raise ShapeError(f"sample point names unknown chart {cid!r}")
        pt = tuple(pt)
        tube = glued_atlas.cover.tubes[cid]
        if not point_in_tube(pt, tube, strict=False):
            raise CompositionDomainError(
                f"sample point lies outside the glued tube of chart {cid!r}"
            )
        point_checks.append(
            {"chart": cid, "point": list(pt), **_hypotheses(charts[cid], pt, seed)}
        )

    valid = not residuals and all(r["valid"] for r in chart_reports.values())
    certificate = {
        "valid": valid,
        "atlas": atlas_report,
        "atlas_certificates": glued_atlas.certificates,
        "sheaf": {
            "epsilons": glued_sheaf.epsilons,
            "det_bounds": glued_sheaf.det_bounds,
        },
        "intertwining": {"pairs_checked": pairs_checked, "residuals": residuals},
        "zero_section_pullback": {"holds": not on_section},
        "chart_reports": chart_reports,
        "point_checks": point_checks,
    }
    return GluedTEP(glued_atlas, dict(charts), certificate)
