"""Region certificates against sampling oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from germglue.errors import CoverageLossError, ShapeError
from germglue.jets import (
    PolyMap,
    identity_map,
    jet_add,
    jet_const,
    jet_eval,
    jet_from_terms,
    jet_mul,
    jet_pow,
    jet_var,
    point_numerators,
)
from germglue.regions import (
    CoverTriple,
    Polydisc,
    TubeDomain,
    disc_contains,
    disc_lens_inner,
    disc_lens_outer,
    disc_lens_outer_candidates,
    disc_margin,
    fiber_bound,
    fiber_profile,
    map_image_bound,
    max_dist2,
    numerators_in_tube,
    point_in_polydisc,
    point_in_tube,
    polydisc_common_point,
    polydisc_contains,
    polydisc_inflate,
    polydisc_intersection_inner,
    polydisc_intersection_outer,
    polydisc_rel_compact,
    polydisc_scale,
    range_bound,
    range_bound_tube,
    recenter,
    refine_cover,
    tube_as_polydisc,
    tube_contains,
    tube_rel_compact,
)
from germglue.regions import _discs_common_point, _dist2_ratio
from germglue.scalars import Coeff, ONE, ZERO

from .oracles import (
    _inside,
    discs_disjoint,
    oracle_disc_contains,
    oracle_disc_lens_inner,
    oracle_disc_lens_outer_candidates,
    oracle_disc_margin,
    oracle_discs_common_point,
    oracle_eval,
    oracle_point_in_discs,
    oracle_point_in_tube,
    oracle_range_bound,
)


def frac(p, q=1):
    return Coeff(Fraction(p, q))


def disc(center, radius) -> Polydisc:
    return Polydisc([center if isinstance(center, Coeff) else frac(center)], [Fraction(radius)])


def grid_points(center: Coeff, radius: Fraction, steps: int = 8):
    """Rational points of the closed disc on a square grid."""
    for a in range(-steps, steps + 1):
        for b in range(-steps, steps + 1):
            dx = Fraction(a, steps) * radius
            dy = Fraction(b, steps) * radius
            if dx * dx + dy * dy <= radius * radius:
                yield center + Coeff(dx, dy)


# ---------------------------------------------------------------------------
# construction and basic containment
# ---------------------------------------------------------------------------


def test_polydisc_validation():
    with pytest.raises(ShapeError):
        Polydisc([frac(0)], [Fraction(0)])
    with pytest.raises(ShapeError):
        Polydisc([frac(0), frac(1)], [Fraction(1)])


def test_radii_are_kept_or_made_fractions():
    r = Fraction(1, 3)
    p = Polydisc([frac(0), frac(1)], [r, 2])
    t = TubeDomain("c", p, 1, r)
    assert p.radii[0] is r and t.fiber_radius is r
    assert type(p.radii[1]) is Fraction and p.radii[1] == 2
    one = TubeDomain("c", p, 1, 1).fiber_radius
    assert type(one) is Fraction and one == 1


def test_contains_examples():
    assert polydisc_contains(disc(0, 1), disc(0, 2))
    assert polydisc_rel_compact(disc(0, 1), disc(0, 2)) == 1
    assert polydisc_contains(disc(0, 1), disc(0, 1))
    assert polydisc_rel_compact(disc(0, 1), disc(0, 1)) is None
    assert polydisc_rel_compact(disc(Fraction(1, 2), 1), disc(0, 2)) == Fraction(1, 2)


def test_contains_is_sound_on_samples():
    inner, outer = disc(Fraction(1, 2), 1), disc(0, 2)
    assert polydisc_contains(inner, outer)
    for p in grid_points(inner.centers[0], inner.radii[0], steps=6):
        assert point_in_polydisc((p,), outer, strict=False)


def test_tube_containment():
    a = TubeDomain("c", disc(0, 1), 2, Fraction(1, 4))
    b = TubeDomain("c", disc(0, 2), 2, Fraction(1, 2))
    assert tube_contains(a, b)
    assert tube_rel_compact(a, b) == Fraction(1, 4)
    with pytest.raises(ShapeError):
        tube_contains(a, TubeDomain("other", disc(0, 2), 2, Fraction(1, 2)))


def test_cover_triple_requires_concentric_increasing():
    with pytest.raises(ShapeError):
        CoverTriple(disc(0, 1), disc(1, 2), disc(0, 3))
    with pytest.raises(ShapeError):
        CoverTriple(disc(0, 2), disc(0, 1), disc(0, 3))


# ---------------------------------------------------------------------------
# lens calculus
# ---------------------------------------------------------------------------

disc_strategy = st.builds(
    lambda cr, ci, r: (Coeff(cr, ci), r),
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 4)),
)


@settings(max_examples=120, deadline=None)
@given(disc_strategy, disc_strategy)
def test_lens_outer_contains_sampled_intersection(d1, d2):
    (c1, r1), (c2, r2) = d1, d2
    lens = disc_lens_outer(c1, r1, c2, r2)
    if lens is None:
        assert discs_disjoint(c1, r1, c2, r2)
        return
    m, rho = lens
    for p in grid_points(c1, r1, steps=5):
        if (p - c2).abs2() <= r2 * r2:
            assert (p - m).abs2() <= rho * rho


@settings(max_examples=120, deadline=None)
@given(disc_strategy, disc_strategy)
def test_lens_inner_inside_both(d1, d2):
    (c1, r1), (c2, r2) = d1, d2
    lens = disc_lens_inner(c1, r1, c2, r2)
    if lens is None:
        return
    m, rho = lens
    assert (m - c1).abs2() < r1 * r1 and (m - c2).abs2() < r2 * r2
    # sample strictly inside the open inner disc
    for p in grid_points(m, rho * Fraction(5, 6), steps=3):
        assert (p - c1).abs2() < r1 * r1
        assert (p - c2).abs2() < r2 * r2


def test_lens_concentric_exact():
    assert disc_lens_outer(frac(0), Fraction(2), frac(0), Fraction(1)) == (frac(0), Fraction(1))
    assert disc_lens_inner(frac(0), Fraction(2), frac(0), Fraction(1)) == (frac(0), Fraction(1))


# the integer certificates equal their Fraction forms (tests/oracles.py):
# the same bool, the same None, the same candidates in the same order

gauss_discs = st.builds(
    lambda a, da, b, db, k, dk: (Coeff(Fraction(a, da), Fraction(b, db)), Fraction(k, dk)),
    st.integers(-12, 12), st.integers(1, 6), st.integers(-12, 12), st.integers(1, 6),
    st.integers(1, 18), st.integers(1, 6),
)

# unit directions (p + i q) / h with rational components
DIRECTIONS = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (-5, 12, 13), (-4, -3, 5)]


@st.composite
def disc_pairs(draw):
    """Independent pairs, or a second disc at s (r1 +- r2) from the first
    along a rational direction: s = 1 is external or internal tangency,
    s = 0 concentric (a duplicate when r2 = r1), 0 < s < 1 with r1 - r2 one
    disc inside the other."""
    c1, r1 = draw(gauss_discs)
    if draw(st.booleans()):
        return (c1, r1), draw(gauss_discs)
    r2 = draw(st.one_of(st.just(r1), gauss_discs.map(lambda cr: cr[1])))
    p, q, h = draw(st.sampled_from(DIRECTIONS))
    s = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                              Fraction(1), Fraction(3, 2)]))
    gap = s * (r1 + r2 if draw(st.booleans()) else r1 - r2)
    return (c1, r1), (c1 + Coeff(gap * Fraction(p, h), gap * Fraction(q, h)), r2)


def assert_certificates_match(c1, r1, c2, r2):
    for a, ra, b, rb in ((c1, r1, c2, r2), (c2, r2, c1, r1)):
        assert disc_contains(a, ra, b, rb) == oracle_disc_contains(a, ra, b, rb)
        assert disc_margin(a, ra, b, rb) == oracle_disc_margin(a, ra, b, rb)
        assert disc_lens_outer_candidates(a, ra, b, rb) == \
            oracle_disc_lens_outer_candidates(a, ra, b, rb)
        assert disc_lens_inner(a, ra, b, rb) == oracle_disc_lens_inner(a, ra, b, rb)
    assert (disc_lens_outer_candidates(c1, r1, c2, r2) is None) == discs_disjoint(c1, r1, c2, r2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(disc_pairs())
def test_disc_certificates_equal_their_fraction_forms(pair):
    (c1, r1), (c2, r2) = pair
    assert_certificates_match(c1, r1, c2, r2)


C0 = Coeff(Fraction(1, 3), Fraction(-1, 2))


@pytest.mark.parametrize("d1, d2, disjoint, inside", [
    # |Δc| = r1 + r2 along (3 + 4i) / 5: the open discs are disjoint
    ((C0, Fraction(1)), (C0 + Coeff(Fraction(3, 2), 2), Fraction(3, 2)), True, False),
    # |Δc| = r1 - r2: the second closed disc lies in the first, with no margin
    ((C0, Fraction(2)), (C0 + Coeff(Fraction(9, 10), Fraction(6, 5)), Fraction(1, 2)), False, True),
    ((C0, Fraction(2)), (C0, Fraction(1, 2)), False, True),
    ((C0, Fraction(5, 3)), (C0, Fraction(5, 3)), False, True),
    ((C0, Fraction(2)), (C0 + Coeff(Fraction(1, 5), Fraction(1, 7)), Fraction(1, 2)), False, True),
    # |Δc|^2 + r2^2 = r1^2: the chord runs through c2, so s2 = 0
    ((C0, Fraction(5, 4)), (C0 + Coeff(Fraction(3, 5), Fraction(4, 5)), Fraction(3, 4)), False, False),
], ids=["external-tangent", "internal-tangent", "concentric", "duplicate", "nested",
        "chord-through-centre"])
def test_disc_certificates_at_the_boundaries(d1, d2, disjoint, inside):
    (c1, r1), (c2, r2) = d1, d2
    assert_certificates_match(c1, r1, c2, r2)
    assert (disc_lens_outer_candidates(c1, r1, c2, r2) is None) == disjoint
    assert disc_contains(c2, r2, c1, r1) == inside


@st.composite
def disc_lists(draw):
    """1-5 Gaussian discs, or discs with collinear centres c + k v (every
    triple has det = 0); either kind sometimes with one disc repeated."""
    if draw(st.booleans()):
        discs = draw(st.lists(gauss_discs, min_size=1, max_size=5))
    else:
        (c, _), (v, _) = draw(gauss_discs), draw(gauss_discs)
        discs = [(c + v * Coeff(Fraction(k, 2)), r)
                 for k, r in draw(st.lists(st.tuples(st.integers(-4, 4),
                                                     gauss_discs.map(lambda cr: cr[1])),
                                           min_size=1, max_size=5))]
    if draw(st.booleans()):
        discs.append(draw(st.sampled_from(discs)))
    return discs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(disc_lists())
def test_common_point_equals_its_fraction_form(discs):
    assert _discs_common_point(discs) == oracle_discs_common_point(discs)


def test_polydisc_intersections_and_common_point():
    a = Polydisc([frac(0), frac(0)], [Fraction(1), Fraction(1)])
    b = Polydisc([frac(1), frac(0)], [Fraction(1), Fraction(2)])
    outer = polydisc_intersection_outer(a, b)
    inner = polydisc_intersection_inner(a, b)
    assert outer is not None and inner is not None
    assert polydisc_rel_compact(inner, polydisc_inflate(outer, Fraction(1, 100))) is not None
    pt = polydisc_common_point([a, b])
    assert pt is not None
    assert point_in_polydisc(pt, a) and point_in_polydisc(pt, b)
    far = Polydisc([frac(10), frac(0)], [Fraction(1), Fraction(1)])
    assert polydisc_intersection_outer(a, far) is None


# ---------------------------------------------------------------------------
# the exact overlap decision
# ---------------------------------------------------------------------------

grid_disc = st.builds(
    lambda a, b, k: (Coeff(Fraction(a, 20), Fraction(b, 20)), Fraction(k, 20)),
    st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 30),
)


def polydiscs(dim: int, max_size: int = 3):
    return st.lists(
        st.builds(lambda cs: Polydisc([c for c, _ in cs], [r for _, r in cs]),
                  st.lists(grid_disc, min_size=dim, max_size=dim)),
        min_size=1, max_size=max_size,
    )


def on_grid_in_all(ps) -> bool:
    """Some point of the 1/40 grid lies in every open disc (1-dim
    polydiscs with centres and radii on the 1/20 grid), decided on
    integers."""
    discs = [(int(p.centers[0].re * 40), int(p.centers[0].im * 40), int(p.radii[0] * 40))
             for p in ps]
    x0, y0, r0 = discs[0]
    return any(
        all((x - a) ** 2 + (y - b) ** 2 < r * r for a, b, r in discs)
        for x in range(x0 - r0, x0 + r0 + 1) for y in range(y0 - r0, y0 + r0 + 1)
    )


@settings(max_examples=150, deadline=None)
@given(polydiscs(2))
def test_common_point_lies_inside_every_polydisc(ps):
    pt = polydisc_common_point(ps)
    if pt is not None:
        assert all(_inside(pt, p) for p in ps)


@settings(max_examples=60, deadline=None)
@given(polydiscs(2, max_size=4))
def test_common_point_does_not_depend_on_the_order(ps):
    pt = polydisc_common_point(ps)
    for perm in itertools.permutations(ps):
        assert polydisc_common_point(list(perm)) == pt


@settings(max_examples=150, deadline=None)
@given(polydiscs(1))
def test_common_point_is_found_wherever_the_grid_meets_all_discs(ps):
    pt = polydisc_common_point(ps)
    if on_grid_in_all(ps):
        assert pt is not None
    if pt is not None:
        assert all(_inside(pt, p) for p in ps)


@pytest.mark.parametrize("discs, point", [
    ([(0, 1), (2, 1)], None),                    # externally tangent
    ([(0, 2), (1, 1)], frac(1)),                 # internally tangent
    ([(0, 1), (0, 2)], frac(0)),                 # concentric
    ([(frac(1, 3), 1), (frac(1, 3), 1)], frac(1, 3)),  # identical
    ([(0, 3), (frac(1, 2), Fraction(1, 2))], frac(1, 2)),  # one inside the other
    ([(0, Fraction(6, 5)), (1, Fraction(6, 5)), (2, Fraction(6, 5))], frac(1)),  # collinear
    ([(0, 1), (1, 1), (2, 1)], None),            # collinear, outer pair tangent
], ids=["external-tangent", "internal-tangent", "concentric", "identical",
        "nested", "collinear", "collinear-tangent"])
def test_common_point_edge_cases(discs, point):
    ps = [disc(c, r) for c, r in discs]
    pt = polydisc_common_point(ps)
    assert pt == (None if point is None else (point,))
    pairs = [(p.centers[0], p.radii[0]) for p in ps]
    assert _discs_common_point(pairs) == oracle_discs_common_point(pairs)


def test_common_point_of_a_triple_no_chord_point_reaches():
    # unit discs whose pairwise chord points each miss the third disc: the
    # common point is the radical centre
    ps = [disc(0, 1), disc(Fraction(8, 5), 1), disc(Coeff(Fraction(4, 5), Fraction(693, 500)), 1)]
    pt = polydisc_common_point(ps)
    assert pt is not None and all(_inside(pt, p) for p in ps)
    for a, b in itertools.combinations(ps, 2):
        chord = polydisc_common_point([a, b])
        assert not all(_inside(chord, p) for p in ps)
    # the reversed order turns the triangle clockwise: a negative determinant
    assert polydisc_common_point(ps[::-1]) == pt
    pairs = [(p.centers[0], p.radii[0]) for p in ps]
    for order in (pairs, pairs[::-1]):
        assert _discs_common_point(order) == oracle_discs_common_point(order)


def test_pairwise_overlaps_need_not_make_a_triple_overlap():
    # unit discs on an equilateral triangle of side 9/5: circumradius > 1
    h = Fraction(9, 10) * Fraction(1732, 1000)
    ps = [disc(0, 1), disc(Fraction(9, 5), 1), disc(Coeff(Fraction(9, 10), h), 1)]
    assert all(polydisc_common_point(list(pair)) is not None
               for pair in itertools.combinations(ps, 2))
    assert polydisc_common_point(ps) is None


def test_common_point_rejects_mixed_dimensions():
    with pytest.raises(ShapeError):
        polydisc_common_point([disc(0, 1), Polydisc([frac(0), frac(0)], [1, 1])])


# ---------------------------------------------------------------------------
# range bounds
# ---------------------------------------------------------------------------


def test_range_bound_spec_values():
    x = jet_var(1, 3, 0)
    assert range_bound(jet_pow(x, 2), disc(0, Fraction(1, 2))) == Fraction(1, 4)
    f = jet_add(jet_const(1, 3, ONE), x)
    assert range_bound(f, disc(0, 1)) == 2


def test_recenter_is_exact_shift():
    x = jet_var(1, 3, 0)
    f = jet_add(jet_pow(x, 2), x)  # x + x^2
    g = recenter(f, (frac(1),))    # (1+u) + (1+u)^2 = 2 + 3u + u^2
    assert g.terms == {(0,): frac(2), (1,): frac(3), (2,): ONE}
    for v in (frac(0), frac(1, 3), frac(-2)):
        assert jet_eval(g, (v,)) == jet_eval(f, (v + frac(1),))


def test_range_bound_dominates_grid_max():
    # random-ish cubic with complex coefficients on a shifted disc
    f = jet_from_terms(
        1,
        3,
        [
            ((0,), Coeff(Fraction(1, 3), Fraction(-1, 2))),
            ((1,), Coeff(Fraction(-2), Fraction(1, 4))),
            ((2,), Coeff(Fraction(1, 2), Fraction(1))),
            ((3,), Coeff(Fraction(3, 7), Fraction(0))),
        ],
    )
    d = disc(Fraction(1, 3), Fraction(5, 4))
    bound = range_bound(f, d)
    for p in grid_points(d.centers[0], d.radii[0], steps=7):
        val = jet_eval(f, (p,))
        assert val.abs2() <= bound * bound


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.builds(Coeff,
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))),
        ),
        max_size=5,
    ),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)),
)
def test_range_bound_sound_random(terms, center, radius):
    f = jet_from_terms(1, 3, [((k,), c) for k, c in terms])
    d = Polydisc([Coeff(center)], [radius])
    bound = range_bound(f, d)
    for p in grid_points(d.centers[0], d.radii[0], steps=4):
        assert jet_eval(f, (p,)).abs2() <= bound * bound


def test_range_bound_tube_counts_fiber():
    # f(t, z) = t * z^2 over base disc radius 1, fiber radius 1/2 -> 1/4
    t = jet_var(2, 3, 0)
    z = jet_var(2, 3, 1)
    f = jet_mul(t, jet_pow(z, 2))
    tube = TubeDomain(0, disc(0, 1), 1, Fraction(1, 2))
    assert range_bound_tube(f, tube) == Fraction(1, 4)


# small rationals, most of them with a denominator that is not a power of 2
rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))
radii_st = st.builds(Fraction, st.integers(1, 9), st.integers(1, 7))
coeffs = st.one_of(
    st.builds(Coeff, rationals),                       # real
    st.builds(lambda b: Coeff(0, b), rationals),       # purely imaginary
    st.builds(Coeff, rationals, rationals),            # mixed
)


@st.composite
def bound_cases(draw):
    """(f, centers, radii): a jet in one or two variables, a Gaussian
    centre and radii.  Sometimes f is the shift of a sparse g by -centre,
    so the recentring cancels every term g does not have."""
    nv = draw(st.integers(1, 2))
    order = draw(st.integers(0, 4))
    exps = [e for e in itertools.product(range(order + 1), repeat=nv) if sum(e) <= order]
    terms = draw(st.lists(st.tuples(st.sampled_from(exps), coeffs), max_size=6))
    centers = tuple(draw(st.builds(Coeff, rationals, rationals)) for _ in range(nv))
    radii = tuple(draw(radii_st) for _ in range(nv))
    f = jet_from_terms(nv, order, terms)
    if draw(st.booleans()):
        f = recenter(f, tuple(Coeff(-c.re, -c.im) for c in centers))
    return f, centers, radii


@settings(max_examples=150, deadline=None)
@given(bound_cases())
def test_range_bound_equals_the_termwise_sum(case):
    f, centers, radii = case
    assert range_bound(f, Polydisc(centers, radii)) == oracle_range_bound(f, centers, radii)


def test_range_bound_of_cancelling_and_zero_jets():
    x = jet_var(1, 3, 0)
    c = Coeff(Fraction(2, 3), Fraction(-1, 5))
    shifted = jet_add(x, jet_const(1, 3, Coeff(-c.re, -c.im)))
    f = jet_mul(jet_mul(shifted, shifted), shifted)   # (x - c)^3
    d = Polydisc([c], [Fraction(3, 7)])
    assert range_bound(f, d) == oracle_range_bound(f, d.centers, d.radii) == Fraction(27, 343)
    zero = jet_from_terms(1, 3, [])
    assert range_bound(zero, d) == oracle_range_bound(zero, d.centers, d.radii) == 0


@st.composite
def profile_cases(draw):
    """(f, base, fiber_dim): a jet over one Gaussian base disc and 1 or 2
    fiber variables.  Sometimes f is the shift of a sparse g by -(base
    centre, 0), so the recentring cancels every term g does not have."""
    fiber_dim = draw(st.integers(1, 2))
    order = draw(st.integers(0, 4))
    nv = 1 + fiber_dim
    exps = [e for e in itertools.product(range(order + 1), repeat=nv) if sum(e) <= order]
    terms = draw(st.lists(st.tuples(st.sampled_from(exps), coeffs), max_size=6))
    base = Polydisc([draw(st.builds(Coeff, rationals, rationals))], [draw(radii_st)])
    f = jet_from_terms(nv, order, terms)
    if draw(st.booleans()):
        c = base.centers[0]
        f = recenter(f, (Coeff(-c.re, -c.im),) + (ZERO,) * fiber_dim)
    return f, base, fiber_dim


def _cancelling_cube() -> tuple:
    """(t - c)^3 z over the disc around c: one term survives the recentring."""
    c = Coeff(Fraction(2, 3), Fraction(-1, 5))
    t = jet_add(jet_var(2, 4, 0), jet_const(2, 4, Coeff(-c.re, -c.im)))
    return jet_mul(jet_pow(t, 3), jet_var(2, 4, 1)), Polydisc([c], [Fraction(3, 7)]), 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(profile_cases())
@example((jet_from_terms(3, 3, []), Polydisc([Coeff(Fraction(1, 3))], [Fraction(1, 2)]), 2))
@example(_cancelling_cube())
def test_fiber_profile_bounds_equal_the_tube_bounds(case):
    f, base, fiber_dim = case
    profile = fiber_profile(f, base)
    for rho in (Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(1, 2**20)):
        tube = TubeDomain("a", base, fiber_dim, rho)
        assert fiber_bound(profile, rho) == range_bound_tube(f, tube) == oracle_range_bound(
            f, tube_as_polydisc(tube).centers, tube_as_polydisc(tube).radii)


@settings(max_examples=60, deadline=None)
@given(bound_cases(), radii_st)
def test_image_bound_centres_and_radii_match_the_termwise_form(case, fiber_radius):
    f, centers, radii = case
    if f.num_vars < 2 or f.order < 1:
        return
    # component 0 is the base coordinate, component 1 the fiber one
    t = TubeDomain("a", Polydisc(centers[:1], radii[:1]), 1, fiber_radius)
    g = PolyMap(2, [f, jet_add(f, jet_var(2, f.order, 1))])
    out = map_image_bound(g, t, 1)
    point = (centers[0], ZERO)
    value = oracle_eval(f, point)
    dev = jet_add(f, jet_const(2, f.order, Coeff(-value.re, -value.im)))
    tiny = Fraction(1, 2**40)
    assert out.base.centers == (value,)
    assert out.base.radii == (oracle_range_bound(dev, point, (radii[0], fiber_radius)) or tiny,)
    assert out.fiber_radius == (oracle_range_bound(g.components[1], point,
                                                   (radii[0], fiber_radius)) or tiny)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _boundary_point(center: Coeff, radius: Fraction, k: int) -> Coeff:
    """A point at distance exactly radius from center (3-4-5 directions)."""
    u, v = [(3, 4), (-4, 3), (-3, -4), (4, -3), (5, 0), (0, -5)][k % 6]
    return center + Coeff(Fraction(u, 5) * radius, Fraction(v, 5) * radius)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.builds(Coeff, rationals, rationals), radii_st),
             min_size=1, max_size=3),
    st.integers(1, 2),
    radii_st,
    st.data(),
)
def test_membership_agrees_with_the_coeff_reference(base, fiber_dim, fiber_radius, data):
    p = Polydisc([c for c, _ in base], [r for _, r in base])
    t = TubeDomain("a", p, fiber_dim, fiber_radius)
    discs = list(zip(p.centers, p.radii)) + [(ZERO, fiber_radius)] * fiber_dim
    # each coordinate on its boundary, or anywhere within 7/3 of the radius
    x = tuple(
        _boundary_point(c, r, data.draw(st.integers(0, 5)))
        if data.draw(st.booleans())
        else c + Coeff(data.draw(rationals) * r / 3, data.draw(rationals) * r / 3)
        for c, r in discs
    )
    # the integer test also on the point over an unreduced denominator
    s = data.draw(st.integers(1, 30))
    q, re, im = point_numerators(x)
    unreduced = (q * s, tuple(v * s for v in re), tuple(v * s for v in im))
    for strict in (True, False):
        assert point_in_tube(x, t, strict=strict) == oracle_point_in_tube(x, t, strict)
        assert numerators_in_tube(unreduced, t, strict) == oracle_point_in_tube(x, t, strict)
        assert point_in_polydisc(x[: p.dim], p, strict=strict) == \
            oracle_point_in_discs(x[: p.dim], discs[: p.dim], strict)
    y = tuple(c for c, _ in discs)
    assert max_dist2(unreduced, point_numerators(y)) == max((a - b).abs2() for a, b in zip(x, y))
    for xv, (c, _) in zip(x, discs):
        assert Fraction(*_dist2_ratio(xv, c)) == (xv - c).abs2()


def test_membership_on_the_boundary_depends_on_strictness():
    c = Coeff(Fraction(1, 3), Fraction(-2, 7))
    t = TubeDomain("a", Polydisc([c], [Fraction(5, 7)]), 1, Fraction(2, 3))
    on_base = (_boundary_point(c, Fraction(5, 7), 0), ZERO)
    on_fiber = (c, _boundary_point(ZERO, Fraction(2, 3), 1))
    for x in (on_base, on_fiber):
        assert not point_in_tube(x, t, strict=True)
        assert point_in_tube(x, t, strict=False)
    assert not point_in_polydisc(on_base[:1], t.base, strict=True)
    assert point_in_polydisc(on_base[:1], t.base, strict=False)


def test_membership_rejects_a_wrong_length_point():
    t = TubeDomain("a", disc(0, 1), 2, Fraction(1, 2))
    for x in ((ZERO,) * 2, (ZERO,) * 4):
        with pytest.raises(ShapeError):
            point_in_tube(x, t)
        with pytest.raises(ShapeError):
            point_in_tube(x, t, strict=False)
    with pytest.raises(ShapeError):
        point_in_polydisc((ZERO, ZERO), t.base)


# ---------------------------------------------------------------------------
# image bounds
# ---------------------------------------------------------------------------


def test_image_bound_identity_exact():
    d = TubeDomain("a", Polydisc([frac(1, 2)], [Fraction(3, 4)]), 2, Fraction(1, 8))
    out = map_image_bound(identity_map(3, 4), d, 1)
    assert out == d


def test_image_bound_spec_example():
    # f(t,z) = (t, z + t z^2), base disc(0,1), fiber 1/4 -> fiber bound 5/16
    t = jet_var(2, 4, 0)
    z = jet_var(2, 4, 1)
    f = PolyMap(2, [t, jet_add(z, jet_mul(t, jet_pow(z, 2)))])
    d = TubeDomain(0, disc(0, 1), 1, Fraction(1, 4))
    out = map_image_bound(f, d, 1)
    assert out.fiber_radius == Fraction(5, 16)
    assert out.base == d.base


def test_image_bound_is_sound_on_samples():
    t = jet_var(2, 4, 0)
    z = jet_var(2, 4, 1)
    f = PolyMap(2, [jet_add(t, jet_pow(z, 2)), jet_add(z, jet_mul(t, jet_pow(z, 2)))])
    d = TubeDomain(0, disc(Fraction(1, 4), 1), 1, Fraction(1, 4))
    out = map_image_bound(f, d, 1)
    box = tube_as_polydisc(d)
    # sample rational points of the tube on a coarse grid
    for a in range(-3, 4):
        for b in range(-3, 4):
            pt = (
                box.centers[0] + Coeff(Fraction(a, 3) * box.radii[0]),
                Coeff(Fraction(b, 3) * box.radii[1]),
            )
            if not point_in_polydisc(pt, box, strict=False):
                continue
            img = tuple(jet_eval(c, pt) for c in f.components)
            assert point_in_tube(img, out, strict=False)


# ---------------------------------------------------------------------------
# cover refinement
# ---------------------------------------------------------------------------


def test_refine_cover_defaults():
    [triple] = refine_cover([disc(0, 1)])
    assert triple.U.radii == (Fraction(3, 5),)
    assert triple.V.radii == (Fraction(4, 5),)
    assert triple.W.radii == (Fraction(1),)


def test_refine_cover_keeps_segment_covered():
    ws = [disc(0, 1), disc(1, 1)]
    pts = [(frac(k, 10),) for k in range(11)]
    triples = refine_cover(ws, pts)
    assert len(triples) == 2


def test_refine_cover_detects_loss():
    ws = [disc(0, 1), disc(10, 1)]
    pts = [(frac(5),)]
    with pytest.raises(CoverageLossError):
        refine_cover(ws, pts)


def test_scale_and_inflate():
    d = disc(Fraction(1, 2), 2)
    assert polydisc_scale(d, Fraction(1, 2)).radii == (Fraction(1),)
    assert polydisc_inflate(d, Fraction(1, 4)).radii == (Fraction(9, 4),)
    assert polydisc_scale(d, Fraction(1, 2)).centers == d.centers
