"""Gluing chart-wise sheaf data over a glued atlas.

The sheaves are locally free: per ordered pair a transition matrix g_ij
(l_j x l_i, entries jets in the chart coordinates) on a declared symmetric
tube A_ij, with triple tubes B_ijk inside the pairwise intersections.
Validation checks the matrix cocycle g_jk * g_ij = g_ik at order K,
inverse pairs, identity diagonals, and a determinant-unit certificate for
each g_ij over its tube.  Gluing finds per-chart radii eps_i whose tubes
fit inside the chart tube and the declared A/B domains and restricts the
transitions; the glued sheaf computes the zero-section (fiber = 0)
restriction of each matrix when it is read.

Chart-wise module homomorphisms glue when g2_ij * Phi_i = Phi_j * g1_ij at
order K on every pair; invertible chart matrices upgrade the result to an
isomorphism certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .atlas import RADIUS_FLOOR_DEFAULT, cech_walk
from .errors import (
    AgreementError,
    ShapeError,
    ShrinkExhausted,
    ValidationFailure,
)
from .jets import (
    Jet,
    grlex_terms,
    jet_const,
    jet_constant_term,
    jet_eval,
    jet_is_zero,
    jet_project,
    jet_scale,
    jet_sub,
    jet_substitute_zero,
)
from .matrices import (
    JetMatrix,
    coeff_det,
    matrix_det,
    matrix_identity,
    matrix_mul,
    matrix_sub,
)
from .regions import (
    Polydisc,
    TubeDomain,
    disc_contains,
    disc_lens_outer_candidates,
    range_bound_tube,
)
from .scalars import ONE, ZERO, coeff_abs_lb

Pair = Tuple[object, object]


def _unordered(i, j):
    return tuple(sorted((i, j), key=repr))


def _matrix_first_nonzero(m: JetMatrix):
    for r in range(m.rows):
        for c in range(m.cols):
            if not jet_is_zero(m.entries[r][c]):
                e, v = next(iter(grlex_terms(m.entries[r][c])))
                return r, c, list(e), v
    return None


class SheafInput:
    """Chart-wise sheaf data: ranks, pair matrices on symmetric tubes,
    triple tubes, optional declared base-level (zero-section) transitions."""

    __slots__ = ("ranks", "domains", "matrices", "triple_domains", "base_transitions")

    def __init__(
        self,
        ranks: Dict[object, int],
        domains: Dict[Pair, TubeDomain],
        matrices: Dict[Pair, JetMatrix],
        triple_domains: Optional[Dict[tuple, TubeDomain]] = None,
        base_transitions: Optional[Dict[Pair, JetMatrix]] = None,
    ):
        self.ranks = dict(ranks)
        self.matrices = dict(matrices)
        # a sheaf document declares no order, so no rule says which pair is off
        orders: Dict[int, list] = {}
        for key in sorted(self.matrices, key=repr):
            if key[0] != key[1]:
                orders.setdefault(self.matrices[key].order, []).append(key)
        if len(orders) > 1:
            raise ShapeError("sheaf matrices must share one jet order: " + "; ".join(
                f"order {k} at {v!r}" for k, v in sorted(orders.items())))
        self.base_transitions = dict(base_transitions or {})
        canon: Dict[Pair, TubeDomain] = {}
        for (i, j), dom in domains.items():
            key = _unordered(i, j)
            if key in canon:
                prev = canon[key]
                if prev.base != dom.base or prev.fiber_radius != dom.fiber_radius:
                    raise ValidationFailure(
                        f"pair domain for {key!r} is not symmetric: "
                        "A_ij and A_ji differ"
                    )
            else:
                canon[key] = dom
        self.domains = canon
        triples: Dict[tuple, TubeDomain] = {}
        for key, dom in (triple_domains or {}).items():
            skey = tuple(sorted(key, key=repr))
            if skey in triples:
                prev = triples[skey]
                if prev.base != dom.base or prev.fiber_radius != dom.fiber_radius:
                    raise ValidationFailure(
                        f"triple domain for {skey!r} is not symmetric"
                    )
            else:
                triples[skey] = dom
        self.triple_domains = triples

    def domain(self, i, j) -> Optional[TubeDomain]:
        return self.domains.get(_unordered(i, j))


class GluedSheaf:
    __slots__ = ("ranks", "epsilons", "chart_tubes", "pair_tubes", "matrices", "det_bounds")

    def __init__(self, ranks, epsilons, chart_tubes, pair_tubes, matrices, det_bounds):
        self.ranks = ranks
        self.epsilons = epsilons
        self.chart_tubes = chart_tubes
        self.pair_tubes = pair_tubes
        self.matrices = matrices
        self.det_bounds = det_bounds

    @property
    def zero_section(self) -> Dict[Pair, JetMatrix]:
        """Each off-diagonal transition restricted to the zero section
        (fiber = 0), a matrix over the chart base coordinates."""
        return {
            (i, j): _zero_section_matrix(g, self.chart_tubes[i].base.dim)
            for (i, j), g in self.matrices.items() if i != j
        }


class GluedMorphism:
    __slots__ = ("epsilons", "domains", "matrices", "isomorphism")

    def __init__(self, epsilons, domains, matrices, isomorphism):
        self.epsilons = epsilons
        self.domains = domains
        self.matrices = matrices
        self.isomorphism = isomorphism


def _det_unit_certificate(det: Jet, tube: TubeDomain):
    """Lower bound for |det| on the tube, or None.

    Writes det = c (1 - u) with c the value at the tube's center on the zero
    section; range-bounding u (the reciprocal's denominator deviation) below
    1 certifies the determinant has no zero on the tube."""
    center = tube.base.centers + (ZERO,) * tube.fiber_dim
    c = jet_eval(det, center)
    if c.is_zero():
        return None
    u = jet_scale(jet_sub(jet_const(det.num_vars, det.order, c), det), ONE / c)
    bound = range_bound_tube(u, tube)
    if bound >= 1:
        return None
    return coeff_abs_lb(c) * (1 - bound)


def _residual_violations(product: JetMatrix, target: JetMatrix, head: dict) -> list[dict]:
    """No violation when the matrices are equal; otherwise ``head`` plus the
    first nonzero entry of ``product - target``."""
    if product == target:
        return []
    hit = _matrix_first_nonzero(matrix_sub(product, target))
    return [{**head, "entry": hit[:2], "exponent": hit[2], "value": hit[3]}]


def _orderings(skey: tuple):
    """The six orderings of a sorted triple, (i, j, k) first."""
    for a in range(3):
        i, j, k = skey[a], skey[(a + 1) % 3], skey[(a + 2) % 3]
        yield i, j, k
        yield i, k, j


def validate_sheaf_cocycle(inp: SheafInput, dets: Optional[dict] = None) -> dict:
    """Shape, symmetry, inverse-pair, cocycle, determinant and base-data
    checks.

    Inverse pairs and the cocycle go through :func:`~germglue.atlas.cech_walk`
    over the six orderings of each declared triple domain.  An inverse pair
    of equal ranks is certified by g_ji * g_ij = 1 alone, since a square
    matrix over the truncated jet ring with a one-sided inverse is
    invertible; g_ij * g_ji is multiplied out only when that fails or the
    ranks differ.  ``pairs_checked`` counts the ordered pairs whose inverse
    check ran, ``triples_checked`` the domains with an ordering decided.
    A declared base transition on a pair with no usable matrix is a
    ``base_transition`` violation.

    ``dets``, when given, receives det g_ij for every pair whose
    determinant is certified on A_ij, so that :func:`glue_sheaf` bounds the
    same jet on the restricted tube without recomputing it.  A declared base
    transition must be over A_ij's base variables, else ShapeError: over the
    total space it would restrict nothing.

    Returns the report when valid, raises ValidationFailure carrying it
    otherwise."""
    violations: list[dict] = []
    det_bounds: Dict[Pair, Fraction] = {}
    m = inp.matrices

    for (i, j), g in sorted(m.items(), key=lambda kv: repr(kv[0])):
        li, lj = inp.ranks.get(i), inp.ranks.get(j)
        if li is None or lj is None:
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": "matrix references unknown chart"})
            continue
        if i == j:
            if g != matrix_identity(li, g.num_vars, g.order):
                violations.append({"kind": "diagonal", "pair": [i, j],
                                   "detail": "diagonal transition is not the identity"})
            continue
        if (g.rows, g.cols) != (lj, li):
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": f"expected {lj}x{li}, got {g.rows}x{g.cols}"})
            continue
        dom = inp.domain(i, j)
        if dom is None:
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": "missing pair domain A_ij"})
        elif g.num_vars != dom.base.dim + dom.fiber_dim:
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": "matrix has wrong variable count"})

    def inverse(i, j):
        g, h = m[(i, j)], m[(j, i)]
        li, lj = inp.ranks[i], inp.ranks[j]
        found = _residual_violations(matrix_mul(h, g), matrix_identity(li, g.num_vars, g.order),
                                     {"kind": "inverse_pair", "pair": [i, j]})
        if found or li != lj:
            found += _residual_violations(
                matrix_mul(g, h), matrix_identity(lj, g.num_vars, g.order),
                {"kind": "inverse_pair", "pair": [j, i]},
            )
        return found

    def cocycle(i, j, k):
        return _residual_violations(matrix_mul(m[(j, k)], m[(i, j)]), m[(i, k)],
                                    {"kind": "cocycle", "triple": [i, j, k]})

    orderings = [t for skey in sorted(inp.triple_domains, key=repr) for t in _orderings(skey)]
    usable, decided = cech_walk(m, orderings, violations, inverse, cocycle)
    for i, j in sorted(usable, key=repr):
        det = matrix_det(m[(i, j)])
        lb = _det_unit_certificate(det, inp.domain(i, j))
        if lb is None:
            violations.append({"kind": "determinant", "pair": [i, j],
                               "detail": "no certified nonzero determinant on A_ij"})
        else:
            det_bounds[(i, j)] = lb
            if dets is not None:
                dets[(i, j)] = det
    for (i, j), base_m in sorted(inp.base_transitions.items(), key=repr):
        if (i, j) not in usable:
            violations.append({"kind": "base_transition", "pair": [i, j],
                               "detail": "declared base data on a pair with no usable matrix"})
            continue
        base_dim = inp.domain(i, j).base.dim
        if base_m.num_vars != base_dim:
            raise ShapeError(f"base transition {(i, j)!r} has {base_m.num_vars} variables, "
                             f"the base of A_ij has {base_dim}")
        restricted = _zero_section_matrix(m[(i, j)], base_dim)
        if restricted != base_m:
            hit = _matrix_first_nonzero(matrix_sub(restricted, base_m))
            violations.append({
                "kind": "base_transition", "pair": [i, j],
                "entry": hit[:2],
                "detail": "zero-section restriction differs from declared base data",
            })

    report = {
        "valid": not violations,
        "pairs_checked": sum((j, i) in usable for i, j in usable),
        "triples_checked": len({frozenset(t) for t in decided}),
        "det_lower_bounds": det_bounds,
        "violations": violations,
    }
    if violations:
        raise ValidationFailure(
            f"sheaf validation failed with {len(violations)} violation(s); "
            f"first: {violations[0]}", report=report,
        )
    return report


def _zero_section_matrix(g: JetMatrix, base_dim: int) -> JetMatrix:
    fiber = list(range(base_dim, g.num_vars))
    return JetMatrix([
        [jet_project(jet_substitute_zero(e, fiber), list(range(base_dim)))
         for e in row]
        for row in g.entries
    ])


def _lens_fits(us: Sequence[Polydisc], target: Polydisc) -> bool:
    """Some sound outer disc of each coordinate's lens of the 2 or 3 discs,
    nested through them in turn, fits in the target disc.  The discs must
    overlap, which keeps every nested lens nonempty: each candidate disc
    contains the lens before it."""
    for k, (tc, tr) in enumerate(zip(target.centers, target.radii)):
        candidates = [(us[0].centers[k], us[0].radii[k])]
        for u in us[1:]:
            candidates = [cr for c, r in candidates for cr in
                          disc_lens_outer_candidates(c, r, u.centers[k], u.radii[k])]
        if not any(disc_contains(c, r, tc, tr) for c, r in candidates):
            return False
    return True


def glue_sheaf(inp: SheafInput, atlas, radius_floor=RADIUS_FLOOR_DEFAULT) -> GluedSheaf:
    """Restrict validated sheaf data to certified tubes over the atlas.

    eps_i is the largest certified radius: it must not exceed the atlas
    chart radius, the declared A_ij fiber radii of pairs at i, or the B_ijk
    fiber radii of triples at i; base inclusions of the (outer-bounded)
    pairwise and triple overlaps into the declared domains are certified
    directly and do not depend on eps, so each domain is decided once, from
    the first chart that reads it.  A domain whose charts are not in the
    atlas's U-nerve has an empty overlap and holds vacuously.  A chart
    outside the atlas is a ShapeError, raised before the data are
    validated."""
    cover = atlas.cover
    charts = cover.input.charts
    for cid in inp.ranks:
        if cid not in charts:
            raise ShapeError(f"sheaf references unknown chart {cid!r}")
    for key in [*inp.domains, *inp.triple_domains]:
        if any(c not in charts for c in key):
            raise ShapeError(f"sheaf domain {key!r} references an unknown chart")
    dets: Dict[Pair, Jet] = {}
    validate_sheaf_cocycle(inp, dets)

    # (charts, domain, overlap kind, domain name); the pairs before the triples
    declared = [(key, dom, "pair", "A") for key, dom in inp.domains.items() if key[0] != key[1]]
    declared += [(key, dom, "triple", "B") for key, dom in inp.triple_domains.items()]
    # the overlaps still to decide: the nonempty ones, keyed as the domains are
    pending = set(atlas.nerve_pairs).union(atlas.nerve_triples)
    epsilons: Dict[object, Fraction] = {}
    for cid in sorted(inp.ranks, key=repr):
        eps, limit = cover.radii[cid], "its atlas radius"
        for key, dom, overlap, name in declared:
            if cid not in key:
                continue
            if key in pending:
                if not _lens_fits([cover.triples[c].U for c in key], dom.base):
                    raise ShrinkExhausted(
                        f"{overlap} overlap {key!r} not certified inside {name} domain"
                    )
                pending.remove(key)
            if dom.fiber_radius < eps:
                eps, limit = dom.fiber_radius, f"the fiber radius of {name} domain {key!r}"
        if eps < radius_floor:
            raise ShrinkExhausted(
                f"chart {cid!r} capped at {eps} by {limit}; radius floor {radius_floor} reached"
            )
        epsilons[cid] = eps

    chart_tubes = {
        cid: TubeDomain(cid, cover.triples[cid].U, cover.input.fiber_dim, epsilons[cid])
        for cid in inp.ranks
    }
    pair_tubes: Dict[Pair, TubeDomain] = {}
    det_bounds: Dict[Pair, Fraction] = {}
    for (i, j) in inp.matrices:
        if i == j:
            continue
        dom = inp.domain(i, j)
        fiber = min(epsilons[i], epsilons[j], dom.fiber_radius)
        pair_tubes[(i, j)] = TubeDomain(i, dom.base, dom.fiber_dim, fiber)
        lb = _det_unit_certificate(dets[(i, j)], pair_tubes[(i, j)])
        if lb is None:
            raise ShrinkExhausted(
                f"determinant certificate lost on restricted tube {(i, j)!r}"
            )
        det_bounds[(i, j)] = lb

    return GluedSheaf(
        dict(inp.ranks), epsilons, chart_tubes, pair_tubes, dict(inp.matrices), det_bounds,
    )


def glue_sheaf_morphism(
    s1: GluedSheaf,
    s2: GluedSheaf,
    maps: Dict[object, JetMatrix],
) -> GluedMorphism:
    """Glue chart-wise module homomorphisms Phi_i between two glued sheaves
    over the same atlas.

    Requires g2_ij * Phi_i = Phi_j * g1_ij at order K on every pair; a
    nonzero residual raises an agreement error naming the pair and entry,
    and a pair that the target sheaf lacks is a ShapeError.  All chart
    matrices invertible over jets yields an isomorphism flag: a matrix over
    the local jet ring is invertible exactly when it is square with an
    invertible matrix of constant terms."""
    if set(s1.ranks) != set(s2.ranks):
        raise ShapeError("sheaves must share the chart index set")
    for cid in sorted(s1.ranks, key=repr):
        phi = maps.get(cid)
        if phi is None:
            raise ShapeError(f"missing chart matrix for {cid!r}")
        if (phi.rows, phi.cols) != (s2.ranks[cid], s1.ranks[cid]):
            raise ShapeError(f"chart matrix {cid!r} has wrong shape")

    for (i, j) in sorted(s1.matrices, key=repr):
        if i == j:
            continue
        if (i, j) not in s2.matrices:
            raise ShapeError(f"target sheaf lacks transition {(i, j)!r}")
        left = matrix_mul(s2.matrices[(i, j)], maps[i])
        right = matrix_mul(maps[j], s1.matrices[(i, j)])
        if left != right:
            hit = _matrix_first_nonzero(matrix_sub(left, right))
            raise AgreementError(
                f"chart matrices incompatible with transitions on {(i, j)!r}: "
                f"entry {tuple(hit[:2])}, exponent {hit[2]}, value {hit[3]!r}"
            )

    isomorphism = all(
        phi.rows == phi.cols and not coeff_det(
            [[jet_constant_term(x) for x in row] for row in phi.entries]).is_zero()
        for phi in maps.values()
    )

    epsilons = {cid: min(s1.epsilons[cid], s2.epsilons[cid]) for cid in s1.ranks}
    domains = {
        cid: TubeDomain(
            cid, s1.chart_tubes[cid].base, s1.chart_tubes[cid].fiber_dim,
            epsilons[cid],
        )
        for cid in s1.ranks
    }
    return GluedMorphism(epsilons, domains, dict(maps), isomorphism)
