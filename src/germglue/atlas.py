"""Gluing chart-wise neighbourhood-germ data into a certified atlas.

Input: a finite cover of the base by polydisc charts, and for each ordered
pair a transition map germ along the zero section (a jet-order-K polynomial
map) together with the tube it is declared on.  The pipeline

    validate -> refine_cover -> compute_overlaps -> shrink_tubes
             -> enforce_triple_domains -> check_closed_relation
             -> build_glued_atlas

produces per-chart tubes Q_i, restricted transitions, and certificates:

(a) Q_i relatively compact in O_i = V_i x (fiber space),
(b) U_i x {0} inside Q_i inside U_i x (fiber space),
(c) Q_ij := Q_i ∩ O_ij ∩ phi_ij^{-1}(Q_j) relatively compact in O_ij,
(d) Q_ij ∩ Q_ik inside phi_ij^{-1}(O_jk),
(e) phi_jk ∘ phi_ij = phi_ik on Q_ij ∩ Q_ik at order K,

plus a closed-relation (Hausdorff) certificate.  The sets O_ij and Q_ij are
the mathematical intersections; the artifact carries certified tube bounds
for them (an inner tube witness for O_ij, an outer tube bound for Q_ij), and
every certificate is sound for the true sets.

Certified constructions prefer shrinking to failing: both shrink stages
halve fiber radii 1/n (n = 1, 2, 4, ...) and stop at one budget, the radius
floor, raising a shrink-exhausted error that names the blocking pair or
triple and the floor.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    AgreementError,
    CertificateIncompleteError,
    ShapeError,
    ShrinkExhausted,
    ValidationFailure,
)
from .jets import (
    Jet,
    PolyMap,
    PowerTable,
    eval_numerators,
    grlex_terms,
    identity_map,
    jet_is_zero,
    jet_sub,
    jet_substitute_zero,
    jet_truncate,
    jet_var,
    map_compose,
    map_is_constant_free,
    map_numerators,
    map_sub,
)
from .regions import (
    CoverTriple,
    Polydisc,
    TubeDomain,
    disc_lens_outer_candidates,
    disc_margin,
    fiber_bound,
    fiber_profile,
    map_image_bound,
    max_dist2,
    numerators_in_table,
    polydisc_common_point,
    polydisc_contains,
    polydisc_inflate,
    polydisc_intersection_inner,
    polydisc_intersection_outer,
    refine_cover,
    region_table,
    table_of,
    tube_contains,
    tube_rel_compact,
)
from .sampling import sample_numerators
from .scalars import sqrt_lb

RADIUS_FLOOR_DEFAULT = Fraction(1, 2**20)

Pair = Tuple[object, object]
Triple = Tuple[object, object, object]


class GermTransition:
    """Transition germ phi_ij on a declared tube N_ij in chart i."""

    __slots__ = ("i", "j", "domain", "map")

    def __init__(self, i, j, domain: TubeDomain, map: PolyMap):
        self.i = i
        self.j = j
        self.domain = domain
        self.map = map

    def __repr__(self) -> str:
        return f"GermTransition({self.i!r} -> {self.j!r})"


class GermAtlasInput:
    """Chart cover plus pairwise transition germs at truncation order K.

    Diagonal transitions are normalized away: phi_ii is the identity on the
    full tube over W_i, so they are never stored; a supplied diagonal entry
    must be the identity map.
    """

    __slots__ = ("base_dim", "fiber_dim", "order", "charts", "transitions", "base_points")

    def __init__(
        self,
        base_dim: int,
        fiber_dim: int,
        order: int,
        charts: Dict[object, Polydisc],
        transitions: Sequence[GermTransition],
        base_points: Sequence[tuple] = (),
    ):
        if base_dim < 1 or fiber_dim < 1 or order < 1:
            raise ShapeError("need base_dim, fiber_dim, order >= 1")
        self.base_dim = base_dim
        self.fiber_dim = fiber_dim
        self.order = order
        self.charts = dict(charts)
        self.base_points = tuple(tuple(p) for p in base_points)
        stored: Dict[Pair, GermTransition] = {}
        for tr in transitions:
            if tr.i not in self.charts or tr.j not in self.charts:
                raise ShapeError(f"transition references unknown chart: {tr.i!r}/{tr.j!r}")
            if tr.i == tr.j:
                if tr.map != identity_map(base_dim + fiber_dim, order):
                    raise ValidationFailure(
                        f"diagonal transition for chart {tr.i!r} is not the identity"
                    )
                continue
            if (tr.i, tr.j) in stored:
                raise ShapeError(f"duplicate transition {(tr.i, tr.j)!r}")
            stored[(tr.i, tr.j)] = tr
        for chart_id, w in self.charts.items():
            if w.dim != base_dim:
                raise ShapeError(f"chart {chart_id!r} polydisc has wrong dimension")
        self.transitions = stored

    @property
    def total_vars(self) -> int:
        return self.base_dim + self.fiber_dim

    def fiber_indices(self) -> range:
        return range(self.base_dim, self.total_vars)


class OverlapData:
    """Certified tube data for one ordered pair (i, j), stored under that key.

    ``o_inner`` (a polydisc containing the base lens U_i ∩ U_j, inflated by
    a margin delta, with a certified fiber radius) is a tube certified
    inside the true overlap domain O_ij; ``witness`` is the relatively
    compact witness P, the same polydisc inflated by 0.9 delta, at 0.9 of
    the fiber radius.  Both tubes are None when the U-level base overlap is
    certifiably empty, which ``vacuous`` reads.  ``coarse`` holds the fiber
    profile of each base-escape jet of phi_ij (base component k minus t_k)
    over U_i ∩ V_j ∩ N_ij.base, which every pair bound reads, or None when
    that coarse base is certified empty."""

    __slots__ = ("coarse", "o_inner", "witness")

    def __init__(self, coarse, o_inner, witness):
        self.coarse = coarse
        self.o_inner = o_inner
        self.witness = witness

    @property
    def vacuous(self) -> bool:
        return self.o_inner is None


class PairCertificate:
    """Condition (c) data for one ordered pair, stored under its key: the
    certified outer tube bound for Q_ij and the relative-compactness margin
    against the O_ij inner tube.  Both are None when Q_ij is certified
    empty, which ``vacuous`` reads."""

    __slots__ = ("bound", "margin")

    def __init__(self, bound, margin):
        self.bound = bound
        self.margin = margin

    @property
    def vacuous(self) -> bool:
        return self.bound is None


class ShrunkCover:
    """The shrunk cover: per-chart fiber radii r_i, the tubes Q_i over U_i,
    the pair certificates at those radii, and the count of triple-stage
    halvings.  Radii start at 1 and only halve, so each r_i is 1/n(i) with
    n(i) a power of two: n(i) is ``radii[i].denominator``."""

    __slots__ = ("input", "triples", "overlaps", "radii", "tubes",
                 "pairs", "halvings", "memo")

    def __init__(self, input, triples, overlaps, radii, tubes, pairs):
        self.input = input
        self.triples = triples          # chart id -> CoverTriple
        self.overlaps = overlaps        # (i, j) -> OverlapData
        self.radii = radii              # chart id -> Fraction r_i
        self.tubes = tubes              # chart id -> TubeDomain Q_i
        self.pairs = pairs              # (i, j) -> PairCertificate
        self.halvings = 0
        self.memo = {}                  # pair or triple -> (r_i, value at r_i)


class TripleCertificate:
    """Condition (d) data for one triple, stored under its key: whether the
    triple domain is certified empty, and otherwise the margin of the image
    bound inside O_jk (None when that bound only touches it)."""

    __slots__ = ("vacuous", "domain_margin")

    def __init__(self, vacuous, domain_margin):
        self.vacuous = vacuous
        self.domain_margin = domain_margin


class GluedAtlas:
    __slots__ = (
        "cover",
        "triple_certs",
        "closedness",
        "nerve_pairs",
        "nerve_triples",
        "certificates",
    )

    def __init__(self, cover, triple_certs, closedness,
                 nerve_pairs, nerve_triples, certificates):
        self.cover = cover
        self.triple_certs = triple_certs
        self.closedness = closedness
        self.nerve_pairs = nerve_pairs
        self.nerve_triples = nerve_triples
        self.certificates = certificates


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _zero_section_residuals(inp: GermAtlasInput, f: PolyMap) -> list[tuple[int, Jet]]:
    """Component residuals of phi(t, 0) - (t, 0)."""
    fiber = list(inp.fiber_indices())
    bad = []
    for idx, comp in enumerate(f.components):
        restricted = jet_substitute_zero(comp, fiber)
        if idx < inp.base_dim:
            expected = jet_var(inp.total_vars, inp.order, idx)
            residual = jet_sub(restricted, expected)
        else:
            residual = restricted
        if not jet_is_zero(residual):
            bad.append((idx, residual))
    return bad


def _residual_violations(composed: PolyMap, target: PolyMap, head: dict) -> list[dict]:
    """No violation when the maps are equal; otherwise one per nonzero
    component of ``composed - target``: ``head`` plus its first term."""
    if composed == target:
        return []
    out = []
    for idx, comp in enumerate(map_sub(composed, target).components):
        if not jet_is_zero(comp):
            exp, value = grlex_terms(comp)[0]
            out.append({**head, "component": idx, "exponent": list(exp), "value": value})
    return out


def cech_walk(pairs, orderings, violations: list, inverse, cocycle) -> tuple[set, list]:
    """The Čech checks of atlas and sheaf validation: inverse pairs, the
    cocycle on each ordering of each triple, and the missing-data rule.
    Appends to ``violations``, which holds the caller's shape pass.

    A declared pair in ``pairs`` is usable when it is off the diagonal and
    no ``shape`` violation names it.  ``inverse(i, j)`` and
    ``cocycle(i, j, k)`` return the violations of one inverse pair and of
    one ordering of a triple; ``orderings`` lists the ordered triples to
    decide, in report order.

    Both validators check a group: truncated K-jets of constant-free maps
    with invertible linear part under truncated composition, or invertible
    matrices over the truncated jet ring.  So each inverse pair is checked
    once, from its first key by ``repr``, and once the three inverse pairs
    of a triple hold, one ordering that holds implies the other five, which
    are counted without being composed.  Until then each ordering is
    composed, so the violation list is the one an all-orderings check
    gives.

    Missing data: a usable pair whose reverse is not usable is an
    ``inverse_pair`` violation; a triple with a pair usable in neither
    direction is one ``cocycle`` violation naming that pair, at the
    triple's first ordering, and none of its orderings is decided.  Any
    other ordering is composed when its three pairs are usable.

    Returns the usable pairs and the ordered triples decided, composed or
    implied."""
    shape_bad = {tuple(v["pair"]) for v in violations if v["kind"] == "shape"}
    usable = {(i, j) for (i, j) in pairs if i != j and (i, j) not in shape_bad}
    held = {}  # unordered pair -> its inverse pair holds
    for i, j in sorted(usable, key=repr):
        if (j, i) not in usable:
            violations.append({"kind": "inverse_pair", "pair": [i, j],
                               "detail": "missing reverse transition"})
        elif frozenset((i, j)) not in held:
            found = inverse(i, j)
            violations.extend(found)
            held[frozenset((i, j))] = not found
    decided = []
    state = {}  # unordered triple -> "gap", "open" or "implied"
    for i, j, k in orderings:
        sides = ((i, j), (i, k), (j, k))
        key = frozenset((i, j, k))
        if key not in state:
            gap = next((p for p in sides if p not in usable and p[::-1] not in usable), None)
            if gap is not None:
                violations.append({"kind": "cocycle", "triple": [i, j, k], "pair": list(gap),
                                   "detail": "missing transition over a triple overlap"})
            state[key] = "open" if gap is None else "gap"
        if state[key] == "implied":
            decided.append((i, j, k))
        elif state[key] == "open" and set(sides) <= usable:
            found = cocycle(i, j, k)
            violations.extend(found)
            decided.append((i, j, k))
            if not found and all(held.get(frozenset(p)) for p in sides):
                state[key] = "implied"
    return usable, decided


def validate_germ_data(inp: GermAtlasInput) -> dict:
    """Check identity-on-zero-section, then the inverse pairs and the
    order-K cocycle through :func:`cech_walk`, over every ordering of each
    triple with a certified nonempty base overlap.  An inverse pair is
    composed on one side: phi_ji o phi_ij = id at order K already makes the
    linear parts inverse to each other.  Overlap is decided once per
    unordered triple (:func:`cover_nerve`), and the orderings are walked in
    sorted order (by ``repr``).  ``transitions_checked`` counts the
    ordered pairs whose inverse check ran, ``cocycle_triples_checked`` the
    ordered triples decided.

    Returns the report when everything holds; raises ValidationFailure
    carrying the full report otherwise."""
    violations: list[dict] = []
    ident = identity_map(inp.total_vars, inp.order)
    phi = {key: tr.map for key, tr in inp.transitions.items()}

    for (i, j), tr in sorted(inp.transitions.items(), key=lambda kv: repr(kv[0])):
        f = tr.map
        if f.source_vars != inp.total_vars or f.target_vars != inp.total_vars:
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": "transition has wrong variable count"})
            continue
        if f.order != inp.order:
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": "transition order differs from atlas order"})
            continue
        if tr.domain.chart != i or tr.domain.base.dim != inp.base_dim \
                or tr.domain.fiber_dim != inp.fiber_dim:
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": "declared tube does not live in the source chart"})
            continue
        if not map_is_constant_free(f):
            violations.append({"kind": "shape", "pair": [i, j],
                               "detail": "transition has a constant term"})
            continue
        for idx, residual in _zero_section_residuals(inp, f):
            exp, value = grlex_terms(residual)[0]
            violations.append({
                "kind": "zero_section", "pair": [i, j], "component": idx,
                "exponent": list(exp), "value": value,
            })

    def inverse(i, j):
        return _residual_violations(map_compose(phi[(i, j)], phi[(j, i)]), ident,
                                    {"kind": "inverse_pair", "pair": [i, j]})

    def cocycle(i, j, k):
        return _residual_violations(map_compose(phi[(i, j)], phi[(j, k)]), phi[(i, k)],
                                    {"kind": "cocycle", "triple": [i, j, k]})

    overlapping = {frozenset(t) for t in _nerve(inp.charts, 3)}
    orderings = [t for t in permutations(sorted(inp.charts, key=repr), 3)
                 if frozenset(t) in overlapping]
    usable, decided = cech_walk(phi, orderings, violations, inverse, cocycle)

    report = {
        "valid": not violations,
        "order": inp.order,
        "transitions_checked": sum((j, i) in usable for i, j in usable),
        "cocycle_triples_checked": len(decided),
        "violations": violations,
    }
    if violations:
        first = violations[0]
        raise ValidationFailure(
            f"germ data validation failed with {len(violations)} violation(s); "
            f"first: {first}", report=report,
        )
    return report


# ---------------------------------------------------------------------------
# overlap domains
# ---------------------------------------------------------------------------


def _witness_base(u_i: Polydisc, u_j: Polydisc, v_i: Polydisc, v_j: Polydisc):
    """Per-coordinate outer lens disc of (U_i, U_j), with its certified
    margin inside both V discs.  Returns (polydisc, delta) or a reason.

    Each coordinate picks, among the sound outer-disc candidates for the
    U-lens, the one with the largest certified margin into both V discs
    (chord disc preferred on ties: the shrunk pair bounds converge to it)."""
    centers, radii, margins = [], [], []
    for ci, ri, cj, rj, cvi, rvi, cvj, rvj in zip(
        u_i.centers, u_i.radii, u_j.centers, u_j.radii,
        v_i.centers, v_i.radii, v_j.centers, v_j.radii,
    ):
        candidates = disc_lens_outer_candidates(ci, ri, cj, rj)
        if candidates is None:
            return None, "empty"
        best = None
        for c, r in candidates:
            m1 = disc_margin(c, r, cvi, rvi)
            m2 = disc_margin(c, r, cvj, rvj)
            if m1 is None or m2 is None:
                continue
            m = min(m1, m2)
            if best is None or m > best[2]:
                best = (c, r, m)
        if best is None:
            return None, "witness disc not certified inside the V overlap"
        centers.append(best[0])
        radii.append(best[1])
        margins.append(best[2])
    return (Polydisc(centers, radii), min(margins) / 2), None


def compute_overlaps(
    inp: GermAtlasInput,
    triples: Dict[object, CoverTriple],
    radius_floor: Fraction = RADIUS_FLOOR_DEFAULT,
) -> Dict[Pair, OverlapData]:
    """Certified inner tube approximations of the overlap domains O_ij.

    For each ordered pair with a transition and a nonempty certified V-level
    base overlap, builds a tube (core polydisc around the U-level lens,
    inflated by a margin delta, with fiber radius rho) certified to lie in
    O_ij: inside the V overlap, inside the declared tube N_ij, and mapped by
    phi_ij into the V overlap (base-escape range bounds at most delta).
    Also fixes the relatively compact witness P (fraction 0.9 of the margin
    layer and fiber), and keeps each pair's coarse escape profiles, vacuous
    pairs included.  A fiber radius costs one evaluation of each profile."""
    overlaps: Dict[Pair, OverlapData] = {}
    for (i, j), tr in inp.transitions.items():
        u_i, v_i = triples[i].U, triples[i].V
        u_j, v_j = triples[j].U, triples[j].V
        if polydisc_intersection_outer(v_i, v_j) is None:
            continue  # V-level overlap certifiably empty: no pair domain
        # E_k = base component k of phi_ij minus the coordinate t_k
        escape = [
            jet_sub(tr.map.components[k], jet_var(inp.total_vars, inp.order, k))
            for k in range(inp.base_dim)
        ]
        base = polydisc_intersection_outer(u_i, v_j)
        if base is not None:
            base = polydisc_intersection_outer(base, tr.domain.base)
        coarse = None if base is None else [fiber_profile(e, base) for e in escape]
        built, reason = _witness_base(u_i, u_j, v_i, v_j)
        if built is None:
            if reason == "empty":
                overlaps[(i, j)] = OverlapData(coarse, None, None)
                continue
            raise ShrinkExhausted(
                f"pair {(i, j)!r}: {reason}"
            )
        core, delta = built
        # the inflated core must also fit the declared base of N_ij
        while not polydisc_contains(polydisc_inflate(core, delta), tr.domain.base):
            delta = delta / 2
            if delta < radius_floor:
                raise ShrinkExhausted(
                    f"pair {(i, j)!r}: witness base does not fit inside the "
                    f"declared transition tube; radius floor {radius_floor} reached"
                )
        inflated = polydisc_inflate(core, delta)
        profiles = [fiber_profile(e, inflated) for e in escape]
        rho = tr.domain.fiber_radius
        while any(fiber_bound(p, rho) > delta for p in profiles):
            rho = rho / 2
            if rho < radius_floor:
                raise ShrinkExhausted(
                    f"pair {(i, j)!r}: no certified fiber radius keeps the base "
                    f"image inside the V overlap; radius floor {radius_floor} reached"
                )
        o_inner = TubeDomain(i, inflated, inp.fiber_dim, rho)
        witness = TubeDomain(
            i,
            polydisc_inflate(core, delta * Fraction(9, 10)),
            inp.fiber_dim,
            rho * Fraction(9, 10),
        )
        overlaps[(i, j)] = OverlapData(coarse, o_inner, witness)
    return overlaps


# ---------------------------------------------------------------------------
# shrinking (condition (c))
# ---------------------------------------------------------------------------


def _pair_outer_bound(
    inp: GermAtlasInput,
    triples: Dict[object, CoverTriple],
    overlaps: Dict[Pair, OverlapData],
    i,
    j,
    fiber_radius: Fraction,
) -> Optional[TubeDomain]:
    """Certified outer tube bound for Q_i(f) ∩ O_ij ∩ phi_ij^{-1}(Q_j(f)),
    where f = fiber_radius bounds the Q_i fiber; None when the set is
    certified empty.

    Stages: a coarse bound from Q_i ⊆ U_i x ball and O_ij ⊆ N_ij, then a
    base refinement pulling the phi-preimage constraint back through a
    base-escape range bound, read from the pair's coarse profiles.  Each
    refined coordinate picks, among the sound outer-disc candidates, the one
    sitting deepest inside the pair's witness disc (all candidates are outer
    bounds, so any choice is sound)."""
    data = overlaps[(i, j)]
    if data.coarse is None:
        return None
    u_i, u_j = triples[i].U, triples[j].U
    fiber = min(fiber_radius, inp.transitions[(i, j)].domain.fiber_radius)
    etas = [fiber_bound(p, fiber) for p in data.coarse]
    witness = None if data.vacuous else data.witness.base
    centers, radii = [], []
    for k in range(inp.base_dim):
        candidates = disc_lens_outer_candidates(
            u_i.centers[k], u_i.radii[k], u_j.centers[k], u_j.radii[k] + etas[k])
        if candidates is None:
            return None
        fits = [] if witness is None else [
            (m, cr) for cr in candidates
            if (m := disc_margin(*cr, witness.centers[k], witness.radii[k])) is not None]
        c, r = max(fits, key=lambda fit: fit[0])[1] if fits else \
            min(candidates, key=lambda cr: cr[1])
        centers.append(c)
        radii.append(r)
    return TubeDomain(i, Polydisc(centers, radii), inp.fiber_dim, fiber)


def shrink_tubes(
    inp: GermAtlasInput,
    triples: Dict[object, CoverTriple],
    overlaps: Dict[Pair, OverlapData],
    radius_floor: Fraction = RADIUS_FLOOR_DEFAULT,
) -> ShrunkCover:
    """Find fiber radii r_i so that every pair satisfies (c).

    Every chart starts at radius 1.  While some pair's certificate fails at
    the current radii, the radius of that pair's first chart, the only one
    its bound reads, halves; a pair still blocking once the halved radius
    would fall below radius_floor raises ShrinkExhausted."""
    radii = {cid: Fraction(1) for cid in inp.charts}
    tubes = {
        cid: TubeDomain(cid, triples[cid].U, inp.fiber_dim, radii[cid])
        for cid in inp.charts
    }
    cover = ShrunkCover(inp, triples, overlaps, radii, tubes, {})
    while True:
        blocking = _refresh_pair_certificates(cover)
        if blocking is None:
            return cover
        i = blocking[0]
        if cover.radii[i] / 2 < radius_floor:
            raise ShrinkExhausted(
                f"pair {blocking!r} not certified; radius floor {radius_floor} reached"
            )
        _halve_chart(cover, i)


def _halve_chart(cover: ShrunkCover, cid) -> None:
    cover.radii[cid] = cover.radii[cid] / 2
    cover.tubes[cid] = TubeDomain(
        cid, cover.triples[cid].U, cover.input.fiber_dim, cover.radii[cid]
    )


def _at_radius(cover: ShrunkCover, key, decide):
    """decide() for a pair or triple key, reused while the radius r_i of the
    key's first chart is unchanged; only the latest (r_i, value) is kept."""
    hit = cover.memo.get(key)
    if hit is None or hit[0] != cover.radii[key[0]]:
        hit = cover.memo[key] = (cover.radii[key[0]], decide())
    return hit[1]


def _pair_outcome(cover: ShrunkCover, i, j) -> Optional[PairCertificate]:
    """Condition (c) for (i, j) at the current radii: its certificate, or
    None when the outer bound for Q_ij is neither certified empty nor
    relatively compact in O_ij around the witness P."""
    data = cover.overlaps[(i, j)]
    bound = _pair_outer_bound(
        cover.input, cover.triples, cover.overlaps, i, j, cover.radii[i]
    )
    if bound is None:
        return PairCertificate(None, None)
    if data.vacuous:
        return None
    margin = tube_rel_compact(bound, data.o_inner)
    if margin is None or margin <= 0 or not tube_contains(bound, data.witness):
        return None
    return PairCertificate(bound, margin)


def _refresh_pair_certificates(cover: ShrunkCover) -> Optional[Pair]:
    """Re-certify every pair at the current radii.  Returns the first
    pair whose (c) margin cannot be re-certified (the caller shrinks that
    chart further and retries: the bounds converge onto the witness core as
    the fiber radius drops), or None when all certificates hold.

    A pair's outcome depends only on the input and r_i: it is decided once
    per r_i."""
    pairs: Dict[Pair, PairCertificate] = {}
    for (i, j) in cover.overlaps:
        cert = _at_radius(cover, (i, j), lambda: _pair_outcome(cover, i, j))
        if cert is None:
            return (i, j)
        pairs[(i, j)] = cert
    cover.pairs = pairs
    return None


# ---------------------------------------------------------------------------
# triple enforcement (conditions (d) and (e))
# ---------------------------------------------------------------------------


def _bound_for(cover: ShrunkCover, i, j) -> Optional[TubeDomain]:
    """Outer bound for Q_ij; for j == i this is Q_i itself (Q_ii = Q_i)."""
    if i == j:
        return cover.tubes[i]
    cert = cover.pairs.get((i, j))
    return None if cert is None else cert.bound


def _cocycle_holds(inp: GermAtlasInput, i, j, k, powers: PowerTable) -> bool:
    """phi_jk o phi_ij == phi_ik at order K, composed through ``powers``,
    which keeps the monomials of phi_ij between triples that share it."""
    left = map_compose(inp.transitions[(i, j)].map, inp.transitions[(j, k)].map, powers)
    right = inp.transitions[(i, k)].map if k != i else identity_map(inp.total_vars, inp.order)
    return left == right


_PAIR_IMAGE = object()  # memo key tag of phi_ij's image over Q_ij's bound


def _triple_outcome(cover: ShrunkCover, i, j, k):
    """Condition (d) for (i, j, k) at the current radii: its certificate
    (vacuous, or with the margin of the image bound in O_jk, None when that
    bound only touches it) or the reason (d) is not certified.  As Q_ij ∩ Q_ik
    lies in Q_ij, phi_ij's image over Q_ij's bound, shared by every k, is
    tried first, and the image over the gauge only when that one escapes."""
    inp = cover.input
    t_ij = _bound_for(cover, i, j)
    t_ik = _bound_for(cover, i, k)
    base = None if t_ij is None or t_ik is None \
        else polydisc_intersection_outer(t_ij.base, t_ik.base)
    if base is None:
        return TripleCertificate(True, None)
    target = cover.overlaps.get((j, k))
    if target is None or target.vacuous:
        return "no certified overlap domain O_jk for the image"
    phi = inp.transitions[(i, j)].map
    image = _at_radius(cover, (i, j, _PAIR_IMAGE),
                       lambda: map_image_bound(phi, t_ij, inp.base_dim, target_chart=j))
    if not tube_contains(image, target.o_inner):
        gauge = TubeDomain(i, base, inp.fiber_dim, min(t_ij.fiber_radius, t_ik.fiber_radius))
        image = map_image_bound(phi, gauge, inp.base_dim, target_chart=j)
        if not tube_contains(image, target.o_inner):
            return "image bound escapes O_jk"
    return TripleCertificate(False, tube_rel_compact(image, target.o_inner))


def enforce_triple_domains(
    cover: ShrunkCover,
    radius_floor: Fraction = RADIUS_FLOOR_DEFAULT,
) -> Dict[Triple, TripleCertificate]:
    """Shrink per-chart radii (geometric halving) until condition (d) is
    certified for every triple (i, j, k) with i != j, j != k, and attach the
    symbolic (e) certificate plus the derived stronger inclusion.  Every
    round halves a radius that stays at least radius_floor, so the floor
    bounds the rounds; a halving below it raises ShrinkExhausted.

    Triples with j == k or i == j hold by the definitions of Q_ij and (c),
    so only the remaining ones are enforced; that includes (i, j, i), whose
    condition reads Q_ij ⊆ phi_ij^{-1}(O_ji).

    A (d) outcome reads O_jk and the bounds for Q_ij and Q_ik (Q_i when
    k == i), so it depends only on the input and r_i: it is decided once
    per r_i.  ``work`` runs in (i, j, k) order, so consecutive residuals
    compose after the same phi_ij and share one table of its monomials."""
    inp = cover.input
    chart_ids = sorted(inp.charts, key=repr)
    work = [
        (i, j, k) for i in chart_ids for j in chart_ids for k in chart_ids
        if i != j != k and (i, j) in inp.transitions
        and (k == i or (i, k) in inp.transitions)
    ]

    certs: Dict[Triple, TripleCertificate] = {}
    # the residual depends only on the input: decide it once per triple
    residual_checked: set[Triple] = set()
    powers = PowerTable()
    while True:
        blocking = None
        for (i, j, k) in work:
            cert = _at_radius(cover, (i, j, k), lambda: _triple_outcome(cover, i, j, k))
            if isinstance(cert, str):
                blocking = (i, j, k, cert)
                break
            if not cert.vacuous and (i, j, k) not in residual_checked:
                if not _cocycle_holds(inp, i, j, k, powers):
                    raise ValidationFailure(
                        f"triple {(i, j, k)!r}: cocycle residual nonzero at order "
                        f"{inp.order} on a nonempty triple domain"
                    )
                residual_checked.add((i, j, k))
            certs[(i, j, k)] = cert
        if blocking is None:
            break
        i, j, k, why = blocking
        shrink_target = i
        while True:
            if cover.radii[shrink_target] / 2 < radius_floor:
                raise ShrinkExhausted(
                    f"triple {(i, j, k)!r}: {why}; radius floor {radius_floor} reached"
                )
            cover.halvings += 1
            _halve_chart(cover, shrink_target)
            lost = _refresh_pair_certificates(cover)
            if lost is None:
                break
            shrink_target = lost[0]
        certs.clear()
    return certs


# ---------------------------------------------------------------------------
# closedness / Hausdorff certificate
# ---------------------------------------------------------------------------


def _in(tables: dict, x, region, strict: bool = True) -> bool:
    return numerators_in_table(x, table_of(tables, region), strict)


def _q_pair_image(cover: ShrunkCover, i, j, x, tables: dict):
    """phi_ij(x) when x is certified in Q_ij = Q_i ∩ O_ij ∩ phi_ij^{-1}(Q_j),
    else None: exact for the Q parts, via the certified inner tube for the O
    part.  Points are numerator tuples; ``tables`` keeps, for one call, the
    :func:`table_of` tables and each phi_ij's evaluation form."""
    data = cover.overlaps.get((i, j))
    if data is None or data.vacuous or not _in(tables, x, cover.tubes[i]) \
            or not _in(tables, x, data.o_inner):
        return None
    if (i, j) not in tables:
        tables[(i, j)] = map_numerators(cover.input.transitions[(i, j)].map)
    image = eval_numerators(tables[(i, j)], x)
    return image if _in(tables, image, cover.tubes[j]) else None


def check_closed_relation(
    cover: ShrunkCover,
    samples: int = 200,
    seed: int = 0,
) -> dict:
    """Closedness of the gluing relation.

    ``closed`` follows from the positive (c) margins (relative compactness
    of each overlap graph).  The seeded separation audit on sampled
    non-equivalent point pairs is reporting only: it decides nothing."""
    margins = []
    for (i, j), cert in cover.pairs.items():
        if cert.vacuous:
            continue
        if cert.margin is None or cert.margin <= 0:
            raise CertificateIncompleteError(
                f"pair {(i, j)!r} lacks a positive (c) margin"
            )
        margins.append(cert.margin)
    rng = random.Random(seed)
    pairs = [pk for pk, cert in cover.pairs.items() if not cert.vacuous]
    audited = separated = skipped = 0
    tables: dict = {}
    min_separation: Optional[Fraction] = None
    for _ in range(samples if pairs else 0):
        i, j = pairs[rng.randrange(len(pairs))]
        x = sample_numerators(rng, table_of(tables, cover.tubes[i]))
        y = sample_numerators(rng, table_of(tables, cover.tubes[j]))
        partner = _q_pair_image(cover, i, j, x, tables)
        if partner is None:
            skipped += 1
            continue
        gap = max_dist2(y, partner)
        audited += 1
        if gap == 0:
            continue  # sampled an equivalent pair: nothing to separate
        separated += 1
        sep = sqrt_lb(gap)
        if sep > 0:
            min_separation = sep if min_separation is None else min(min_separation, sep)
    return {
        "closed": True,
        "margin": min(margins) if margins else None,
        "audit": {
            "samples": samples,
            "audited": audited,
            "separated": separated,
            "skipped": skipped,
            "min_separation": min_separation,
        },
    }


# ---------------------------------------------------------------------------
# assembling the atlas
# ---------------------------------------------------------------------------


def _nerve(discs: Dict[object, Polydisc], size: int) -> list:
    """The sorted ``size``-subsets of the cover with a nonempty overlap."""
    return [s for s in combinations(sorted(discs, key=repr), size)
            if polydisc_common_point([discs[c] for c in s]) is not None]


def cover_nerve(discs: Dict[object, Polydisc]) -> tuple[list, list]:
    """Pairs and triples of the cover with a nonempty overlap."""
    return _nerve(discs, 2), _nerve(discs, 3)


def build_glued_atlas(
    cover: ShrunkCover,
    triple_certs: Dict[Triple, TripleCertificate],
    closedness: dict,
) -> GluedAtlas:
    """Assemble the glued atlas from the certified cover.

    Refuses to glue when any certificate is missing, and raises
    ValidationFailure when a pair of the nerve lacks a transition in one or
    both directions: its overlap would be glued from no data.  The zero-section
    restriction is the U-cover itself, so the nerve is that of the U discs.
    Hausdorffness is the closed relation plus the equivalence-relation
    certificate: reflexivity is Q_ii = Q_i under the identity transition,
    transitivity is (d) and (e) on the certified triples, and symmetry
    reads the set of certified inverse-pair triples (i, j, i)."""
    inp = cover.input
    nerve_pairs, nerve_triples = cover_nerve({cid: cover.triples[cid].U for cid in inp.charts})
    gaps = [p for p in nerve_pairs if p not in inp.transitions or p[::-1] not in inp.transitions]
    if gaps:
        raise ValidationFailure(
            f"nerve pairs {gaps!r} lack a transition in one or both directions")
    if not closedness.get("closed"):
        raise CertificateIncompleteError("closedness certificate missing")
    for (i, j), cert in cover.pairs.items():
        if not cert.vacuous and (cert.margin is None or cert.margin <= 0):
            raise CertificateIncompleteError(f"pair {(i, j)!r} margin missing")
    for key in list(inp.transitions):
        if key not in cover.pairs and key in cover.overlaps:
            raise CertificateIncompleteError(f"pair {key!r} certificate missing")

    # (i, j, i) is certified only once phi_ji o phi_ij composes to the
    # identity on a nonempty Q_ij (a nonzero residual raises) or Q_ij is empty
    symmetric = all((i, j, i) in triple_certs for (i, j) in inp.transitions)
    certificates = {
        "cocycle_order": inp.order,
        "hausdorff": {
            "holds": closedness["closed"] and symmetric,
            "margin": closedness.get("margin"),
        },
        "equivalence_relation": {"symmetric": symmetric},
        "halvings": cover.halvings,
    }
    return GluedAtlas(
        cover, triple_certs, closedness, nerve_pairs, nerve_triples, certificates,
    )


def run_glue_pipeline(
    inp: GermAtlasInput,
    radius_floor: Fraction = RADIUS_FLOOR_DEFAULT,
    samples: int = 200,
    seed: int = 0,
) -> tuple[dict, GluedAtlas]:
    """validate -> refine -> overlaps -> shrink -> triples -> closedness -> atlas."""
    report = validate_germ_data(inp)
    triple_list = refine_cover(
        [inp.charts[cid] for cid in sorted(inp.charts, key=repr)], inp.base_points
    )
    triples = dict(zip(sorted(inp.charts, key=repr), triple_list))
    overlaps = compute_overlaps(inp, triples, radius_floor)
    cover = shrink_tubes(inp, triples, overlaps, radius_floor)
    triple_certs = enforce_triple_domains(cover, radius_floor)
    closedness = check_closed_relation(cover, samples=samples, seed=seed)
    atlas = build_glued_atlas(cover, triple_certs, closedness)
    return report, atlas


# ---------------------------------------------------------------------------
# sampling audits
# ---------------------------------------------------------------------------


def audit_cover_certificates(
    cover: ShrunkCover,
    triple_certs: Dict[Triple, TripleCertificate],
    samples: int = 1000,
    seed: int = 0,
) -> dict:
    """Independent re-verification of (a)-(e) on sampled points.

    Every sampled point of each certified inner set must land in the
    corresponding outer set; (e) compares evaluations of the order-K
    composite jet against the direct transition jet, which must agree
    exactly for validated input."""
    inp = cover.input
    rng = random.Random(seed)
    counts = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}
    violations = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}

    chart_ids = sorted(inp.charts, key=repr)
    live_pairs = [pk for pk, c in cover.pairs.items() if not c.vacuous]
    live_triples = [key for key, tc in triple_certs.items() if not tc.vacuous]
    composites, probes, tables = {}, {}, {}
    for (i, j, k) in live_triples:
        composites[(i, j, k)] = map_numerators(map_compose(
            inp.transitions[(i, j)].map, inp.transitions[(j, k)].map
        ))
        t_ij, t_ik = _bound_for(cover, i, j), _bound_for(cover, i, k)
        base = polydisc_intersection_inner(t_ij.base, t_ik.base)
        probes[(i, j, k)] = None if base is None else region_table(TubeDomain(
            i, base, inp.fiber_dim, min(t_ij.fiber_radius, t_ik.fiber_radius)))

    for _ in range(samples):
        cid = chart_ids[rng.randrange(len(chart_ids))]
        tube, triple = cover.tubes[cid], cover.triples[cid]
        q, xr, xi = sample_numerators(rng, table_of(tables, tube))
        x_base = (q, xr[: inp.base_dim], xi[: inp.base_dim])
        counts["a"] += 1
        if not _in(tables, x_base, triple.V):
            violations["a"] += 1
        counts["b"] += 1
        # (u, 0) lies in the closure of Q_i exactly when u lies in its base's
        u = sample_numerators(rng, table_of(tables, triple.U))
        if not _in(tables, u, tube.base, strict=False) or not _in(tables, x_base, triple.U):
            violations["b"] += 1

        if live_pairs:
            i, j = live_pairs[rng.randrange(len(live_pairs))]
            y = sample_numerators(rng, table_of(tables, cover.pairs[(i, j)].bound))
            if _q_pair_image(cover, i, j, y, tables) is not None:
                counts["c"] += 1
                data = cover.overlaps[(i, j)]
                if not (_in(tables, y, data.witness, strict=False)
                        and _in(tables, y, data.o_inner)):
                    violations["c"] += 1

        if live_triples:
            i, j, k = live_triples[rng.randrange(len(live_triples))]
            probe = probes[(i, j, k)]
            if probe is not None:
                y = sample_numerators(rng, probe)
                image = _q_pair_image(cover, i, j, y, tables)
                direct = y if k == i else _q_pair_image(cover, i, k, y, tables)
                if image is not None and direct is not None:
                    counts["d"] += 1
                    if not _in(tables, image, cover.overlaps[(j, k)].o_inner, strict=False):
                        violations["d"] += 1
                    counts["e"] += 1
                    if max_dist2(eval_numerators(composites[(i, j, k)], y), direct):
                        violations["e"] += 1

    return {"samples": samples, "checked": counts, "violations": violations}


def sample_chains(cover: ShrunkCover, chains: int, seed: int = 0) -> tuple[list, int]:
    """Seeded chains x ~ y ~ z: x sampled in Q_ij, y = phi_ij(x) in Q_jk,
    z = phi_jk(y), over the live triples (nonvacuous (i, j) and (j, k) with
    a transition (i, k)).  Stops after ``chains`` accepted chains or
    ``chains * 200`` attempts; returns the accepted ``(i, j, k, x, z)``
    chains, x and z as numerator tuples, and the attempt count."""
    return _sample_chains(cover, chains, seed, {})


def _sample_chains(cover: ShrunkCover, chains: int, seed: int, tables: dict):
    """:func:`sample_chains` into the caller's per-call ``tables``, which
    keep each phi_ij's evaluation form under (i, j) for the caller to reuse."""
    inp = cover.input
    rng = random.Random(seed)
    live = [
        (i, j, k)
        for (i, j) in cover.pairs
        for k in sorted(inp.charts, key=repr)
        if not cover.pairs[(i, j)].vacuous
        and k != j and k != i
        and (j, k) in cover.pairs and not cover.pairs[(j, k)].vacuous
        and (i, k) in inp.transitions
    ]
    accepted: list = []
    attempts = 0
    max_attempts = chains * 200 if live else 0
    while len(accepted) < chains and attempts < max_attempts:
        attempts += 1
        i, j, k = live[rng.randrange(len(live))]
        x = sample_numerators(rng, table_of(tables, cover.pairs[(i, j)].bound))
        y = _q_pair_image(cover, i, j, x, tables)
        z = None if y is None else _q_pair_image(cover, j, k, y, tables)
        if z is not None:
            accepted.append((i, j, k, x, z))
    return accepted, attempts


def audit_transitivity(
    cover: ShrunkCover,
    chains: int = 1000,
    seed: int = 0,
) -> dict:
    """Sampled transitivity: for chains x ~ y ~ z from ``sample_chains``,
    verify z equals the direct transition of x exactly.

    Sound for inputs whose transitions satisfy the cocycle exactly as
    polynomial maps (the jets then evaluate as the maps themselves)."""
    tables: dict = {}
    selected, attempts = _sample_chains(cover, chains, seed, tables)
    violations = 0
    for i, j, k, x, z in selected:
        if (i, k) not in tables:
            tables[(i, k)] = map_numerators(cover.input.transitions[(i, k)].map)
        if max_dist2(z, eval_numerators(tables[(i, k)], x)):
            violations += 1
    return {
        "chains_requested": chains,
        "chains_verified": len(selected),
        "violations": violations,
        "attempts": attempts,
    }


# ---------------------------------------------------------------------------
# gluing chart-wise maps
# ---------------------------------------------------------------------------


class GluedMap:
    __slots__ = ("epsilons", "domains", "maps")

    def __init__(self, epsilons, domains, maps):
        self.epsilons = epsilons
        self.domains = domains
        self.maps = maps


def glue_chartwise_maps(
    atlas1: GluedAtlas,
    atlas2: GluedAtlas,
    maps: Dict[object, PolyMap],
    radius_floor: Fraction = RADIUS_FLOOR_DEFAULT,
) -> GluedMap:
    """Glue per-chart maps psi_i (identity on the zero section) between two
    glued atlases over the same chart index set.

    Agreement on overlaps is the order-K germ identity
    psi_j ∘ phi1_ij = phi2_ij ∘ psi_i; a nonzero residual raises an
    agreement error naming the pair, component, and first coefficient.
    Output radii eps_i satisfy: the eps_i-tube over U_i sits inside the
    declared domain Q_i of psi_i, and the restricted overlap bounds map into
    the target's certified O_ij inner tubes."""
    inp1 = atlas1.cover.input
    inp2 = atlas2.cover.input
    if set(inp1.charts) != set(inp2.charts):
        raise ShapeError("atlases must share the chart index set")
    if (inp1.base_dim, inp1.fiber_dim) != (inp2.base_dim, inp2.fiber_dim):
        raise ShapeError("atlases must share base and fiber dimensions")
    order = min(inp1.order, inp2.order)
    for cid in inp1.charts:
        if cid not in maps:
            raise ShapeError(f"missing chart map for {cid!r}")
        psi = maps[cid]
        if psi.source_vars != inp1.total_vars or psi.target_vars != inp2.total_vars:
            raise ShapeError(f"chart map {cid!r} has wrong variable counts")
        bad = _zero_section_residuals(inp1, psi)
        if bad:
            idx, residual = bad[0]
            exp, value = grlex_terms(residual)[0]
            raise ValidationFailure(
                f"chart map {cid!r} is not the identity on the zero section "
                f"(component {idx}, exponent {list(exp)})"
            )

    def trunc(m: PolyMap) -> PolyMap:
        if m.order == order:
            return m
        return PolyMap(m.source_vars, [jet_truncate(c, order) for c in m.components])

    for (i, j) in sorted(inp1.transitions, key=repr):
        if (i, j) not in inp2.transitions:
            raise ShapeError(f"target atlas lacks transition {(i, j)!r}")
        lhs = map_compose(trunc(inp1.transitions[(i, j)].map), trunc(maps[j]))
        rhs = map_compose(trunc(maps[i]), trunc(inp2.transitions[(i, j)].map))
        residual = map_sub(lhs, rhs)
        for idx, comp in enumerate(residual.components):
            if not jet_is_zero(comp):
                exp, value = grlex_terms(comp)[0]
                raise AgreementError(
                    f"chart maps disagree on overlap {(i, j)!r}: component {idx}, "
                    f"exponent {list(exp)}, value {value!r}"
                )

    epsilons: Dict[object, Fraction] = {}
    domains: Dict[object, TubeDomain] = {}
    for cid in sorted(inp1.charts, key=repr):
        eps = atlas1.cover.radii[cid]
        while True:
            ok = True
            for (i, j), cert in atlas1.cover.pairs.items():
                if i != cid or cert.vacuous:
                    continue
                probe = TubeDomain(
                    cid, cert.bound.base, inp1.fiber_dim,
                    min(eps, cert.bound.fiber_radius),
                )
                image = map_image_bound(maps[cid], probe, inp1.base_dim, target_chart=cid)
                target = atlas2.cover.overlaps.get((i, j))
                if target is None or target.vacuous \
                        or not tube_contains(image, target.o_inner):
                    ok = False
                    break
            if ok:
                break
            eps = eps / 2
            if eps < radius_floor:
                raise ShrinkExhausted(
                    f"chart map {cid!r} not certified; radius floor {radius_floor} reached"
                )
        epsilons[cid] = eps
        domains[cid] = TubeDomain(cid, atlas1.cover.triples[cid].U, inp1.fiber_dim, eps)

    return GluedMap(epsilons, domains, dict(maps))
