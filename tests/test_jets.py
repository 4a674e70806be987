"""Jet arithmetic, composition, evaluation, recentring and inversion against
independent oracles."""

from __future__ import annotations

import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germglue.errors import (
    CompositionDomainError,
    NotInvertibleError,
    ShapeError,
)
from germglue.jets import (
    Jet,
    PolyMap,
    PowerTable,
    identity_map,
    jet_add,
    jet_compose,
    jet_const,
    jet_eval,
    jet_eq,
    jet_extend_vars,
    jet_filter,
    jet_flip_var,
    jet_from_terms,
    jet_is_zero,
    jet_mul,
    jet_mul_var,
    jet_neg,
    jet_partial,
    jet_pow,
    jet_project,
    jet_scale,
    jet_sub,
    jet_substitute_zero,
    jet_truncate,
    jet_var,
    jet_with_order,
    jet_zero,
    sum_of_products,
    linear_part,
    eval_numerators,
    map_compose,
    map_inverse,
    map_eval,
    map_numerators,
    point_from_numerators,
    point_numerators,
)
from germglue.documents import jet_from_json, jet_to_json
from germglue.regions import recenter
from germglue.scalars import Coeff, ONE, ZERO

from .oracles import (
    oracle_compose,
    oracle_eval,
    oracle_mul,
    oracle_series_inverse_1var,
)


def frac(p, q=1):
    return Coeff(Fraction(p, q))


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

# denominators up to 97 are mostly pairwise coprime, so the shared
# denominators of the integer kernels grow as they would on real data
small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=97),
)


def coeffs(real: bool):
    """Real coefficients, or Gaussian ones with both parts drawn."""
    return st.builds(Coeff, small_fraction, st.just(0) if real else small_fraction)


@st.composite
def jets(draw, num_vars=None, order=None, min_degree=0, real=None):
    """Jets with real or Gaussian coefficients (drawn when ``real`` is None),
    so both the real and the Gaussian integer kernels run."""
    nv = num_vars if num_vars is not None else draw(st.integers(1, 3))
    k = order if order is not None else draw(st.integers(1, 4))
    real = draw(st.booleans()) if real is None else real
    exps = st.lists(
        st.tuples(*[st.integers(0, k) for _ in range(nv)]).filter(
            lambda e: min_degree <= sum(e) <= k
        ),
        max_size=6,
    )
    terms = [(e, draw(coeffs(real))) for e in draw(exps)]
    return jet_from_terms(nv, k, terms)


def points(num_vars: int, real: bool):
    return st.tuples(*[coeffs(real) for _ in range(num_vars)])


def assert_canonical(f: Jet) -> None:
    """The stored numerators are canonical: den > 0, gcd 1 with every
    numerator, no zero entry, ``im`` empty iff the jet is real, every
    exponent within the shape; and the Coeff view builds the same jet."""
    assert f.den > 0
    assert math.gcd(f.den, *f.re.values(), *f.im.values()) == 1
    assert all(f.re.values()) and all(f.im.values())
    assert (not f.im) == all(c.im == 0 for c in f.terms.values())
    assert all(len(e) == f.num_vars and sum(e) <= f.order for e in {**f.re, **f.im})
    assert Jet(f.num_vars, f.order, f.terms) == f


@st.composite
def jet_triples(draw):
    nv = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    return (
        draw(jets(num_vars=nv, order=k)),
        draw(jets(num_vars=nv, order=k)),
        draw(jets(num_vars=nv, order=k)),
    )


@st.composite
def constant_free_maps(draw, source_vars=None, target_vars=None, order=None):
    sv = source_vars if source_vars is not None else draw(st.integers(1, 2))
    tv = target_vars if target_vars is not None else draw(st.integers(1, 2))
    k = order if order is not None else draw(st.integers(1, 4))
    comps = [draw(jets(num_vars=sv, order=k, min_degree=1)) for _ in range(tv)]
    return PolyMap(sv, comps)


# ---------------------------------------------------------------------------
# constructors and shape checks
# ---------------------------------------------------------------------------


def test_from_terms_rejects_overflow_and_merges():
    with pytest.raises(ShapeError):
        jet_from_terms(2, 2, [((3, 0), ONE)])
    j = jet_from_terms(2, 3, [((1, 0), frac(1)), ((1, 0), frac(-1))])
    assert jet_is_zero(j)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_every_operation_returns_the_canonical_form(data):
    nv = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    a, b = data.draw(jets(num_vars=nv, order=k)), data.draw(jets(num_vars=nv, order=k))
    s = data.draw(coeffs(data.draw(st.booleans())))
    var = data.draw(st.integers(0, nv - 1))
    inner = data.draw(constant_free_maps(source_vars=nv, target_vars=nv, order=k))
    rest = [i for i in range(nv) if i != var]
    results = [
        a, jet_zero(nv, k), jet_const(nv, k, s), jet_var(nv, k, var),
        jet_from_terms(nv, k, [*a.terms.items(), *b.terms.items()]),
        jet_add(a, b), jet_sub(a, b), jet_neg(a), jet_scale(a, s), jet_mul(a, b),
        jet_pow(a, 2), sum_of_products(nv, k, [(a, b), (b, a)]),
        jet_truncate(a, k - 1), jet_with_order(a, k + 1), jet_partial(a, var),
        jet_mul_var(jet_with_order(a, k + 1), var), jet_flip_var(a, var),
        jet_substitute_zero(a, rest), jet_project(jet_substitute_zero(a, rest), [var]),
        jet_extend_vars(a, nv + 1), jet_filter(a, lambda e: e[var] % 2 == 0),
        jet_compose(a, inner), *map_compose(inner, PolyMap(nv, [a, b])).components,
        recenter(a, data.draw(points(nv, data.draw(st.booleans())))),
        jet_from_json(jet_to_json(a)),
    ]
    for f in results:
        assert_canonical(f)
    # == is structural on canonical forms and agrees with the Coeff views
    for x, y in [(a, b), (a, jet_add(jet_sub(a, b), b)), (jet_mul(a, b), jet_mul(b, a))]:
        assert (x == y) == (x.num_vars == y.num_vars and x.order == y.order
                            and x.terms == y.terms)
    assert a == jet_add(jet_sub(a, b), b)


def test_canonical_form_edge_cases():
    x = jet_var(1, 2, 0)
    zero = jet_sub(jet_scale(x, frac(1, 7)), jet_scale(x, frac(1, 7)))
    assert (zero.den, zero.re, zero.im) == (1, {}, {}) and zero == jet_zero(1, 2)
    assert (jet_zero(2, 3).den, jet_zero(2, 3).re, jet_zero(2, 3).im) == (1, {}, {})
    imaginary = Jet(1, 2, {(1,): Coeff(0, Fraction(2, 6))})
    assert (imaginary.den, imaginary.re, imaginary.im) == (3, {}, {(1,): 1})
    assert imaginary.terms == {(1,): Coeff(0, Fraction(1, 3))}
    # dropping the only term over 9 shrinks the denominator from 18 to 2
    f = jet_from_terms(1, 2, [((0,), frac(1, 2)), ((2,), frac(1, 9))])
    assert f.den == 18
    low = jet_truncate(f, 1)
    assert (low.den, low.re, low.im) == (2, {(0,): 1}, {})


def test_var_and_const():
    x = jet_var(2, 3, 0)
    assert x.terms == {(1, 0): ONE}
    assert jet_const(2, 3, ZERO).terms == {}


def test_mixed_shapes_rejected():
    with pytest.raises(ShapeError):
        jet_add(jet_zero(2, 3), jet_zero(2, 4))
    with pytest.raises(ShapeError):
        jet_mul(jet_zero(1, 3), jet_zero(2, 3))


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(jet_triples())
def test_ring_axioms(abc):
    a, b, c = abc
    assert jet_eq(jet_add(a, b), jet_add(b, a))
    assert jet_eq(jet_add(jet_add(a, b), c), jet_add(a, jet_add(b, c)))
    assert jet_eq(jet_mul(a, b), jet_mul(b, a))
    assert jet_eq(jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c)))
    assert jet_eq(jet_mul(a, jet_add(b, c)), jet_add(jet_mul(a, b), jet_mul(a, c)))
    assert jet_is_zero(jet_add(a, jet_neg(a)))
    one = jet_const(a.num_vars, a.order, ONE)
    assert jet_eq(jet_mul(a, one), a)


@settings(max_examples=80, deadline=None)
@given(jets(), jets())
def test_mul_matches_oracle(a, b):
    if a.num_vars != b.num_vars or a.order != b.order:
        b = jet_from_terms(a.num_vars, a.order, [])
    product = jet_mul(a, b)
    assert_canonical(product)
    assert jet_eq(product, oracle_mul(a, b))


def test_mul_truncates():
    x = jet_var(1, 2, 0)
    sq = jet_mul(x, x)
    assert sq.terms == {(2,): ONE}
    assert jet_is_zero(jet_mul(sq, x))


def test_kernels_drop_cancelled_terms():
    x = jet_var(1, 3, 0)
    one = jet_const(1, 3, ONE)
    i = jet_const(1, 3, Coeff(0, 1))
    assert jet_mul(jet_add(one, x), jet_sub(one, x)).terms == {(0,): ONE, (2,): -ONE}
    assert jet_mul(jet_add(x, i), jet_sub(x, i)).terms == {(0,): ONE, (2,): ONE}
    # x^2 - 2x recentred at 1 is u^2 - 1
    f = jet_sub(jet_pow(x, 2), jet_scale(x, frac(2)))
    assert recenter(f, (ONE,)).terms == {(0,): -ONE, (2,): ONE}


def test_scale_and_pow():
    x = jet_var(1, 4, 0)
    g = jet_add(x, jet_pow(x, 2))
    assert jet_eq(jet_scale(g, frac(2)), jet_add(g, g))
    assert jet_pow(x, 0).terms == {(0,): ONE}


# ---------------------------------------------------------------------------
# truncation, derivatives, evaluation
# ---------------------------------------------------------------------------


def test_truncate_and_with_order():
    x = jet_var(1, 4, 0)
    f = jet_add(x, jet_pow(x, 3))
    assert jet_truncate(f, 2).terms == {(1,): ONE}
    lifted = jet_with_order(jet_truncate(f, 2), 5)
    assert lifted.order == 5
    with pytest.raises(ShapeError):
        jet_truncate(f, 5)


@settings(max_examples=40, deadline=None)
@given(jets(num_vars=2, order=4))
def test_partials_commute(f):
    ab = jet_partial(jet_partial(f, 0), 1)
    ba = jet_partial(jet_partial(f, 1), 0)
    assert jet_eq(ab, ba)


def test_partial_is_leibniz():
    t, z = jet_var(2, 5, 0), jet_var(2, 5, 1)
    f = jet_mul(t, jet_mul(z, z))
    df = jet_partial(f, 1)
    assert df.terms == {(1, 1): frac(2)}
    assert df.order == 4


def test_eval_exact():
    t, z = jet_var(2, 3, 0), jet_var(2, 3, 1)
    f = jet_add(jet_mul(t, z), jet_pow(z, 3))
    v = jet_eval(f, (frac(1, 2), frac(-2)))
    assert v == Coeff(Fraction(1, 2) * Fraction(-2) + Fraction(-8))


@pytest.mark.parametrize("real", [True, False], ids=["real", "gaussian"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eval_matches_oracle(real, data):
    f = data.draw(jets(real=real))
    x = data.draw(points(f.num_vars, real))
    assert jet_eval(f, x) == oracle_eval(f, x)


@pytest.mark.parametrize("real", [True, False], ids=["real", "gaussian"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_numerator_evaluator_matches_oracle_at_unreduced_points(real, data):
    """Every component of a map at a real or Gaussian point given over an
    unreduced denominator; the point is reduced once, so the value's
    denominator is d * q^K for the reduced q."""
    nv = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    f = PolyMap(nv, [data.draw(jets(num_vars=nv, order=k))
                     for _ in range(data.draw(st.integers(1, 3)))])
    x = data.draw(points(nv, real))
    s = data.draw(st.integers(1, 50))
    q, re, im = point_numerators(x)
    fn = map_numerators(f)
    got = eval_numerators(fn, (q * s, tuple(v * s for v in re), tuple(v * s for v in im)))
    assert point_from_numerators(got) == tuple(oracle_eval(c, x) for c in f.components)
    assert got[0] == fn[0] * q**k


@pytest.mark.parametrize("real", [True, False], ids=["real", "gaussian"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recenter_is_shifted_evaluation(real, data):
    f = data.draw(jets(real=real))
    c = data.draw(points(f.num_vars, real))
    u = data.draw(points(f.num_vars, real))
    g = recenter(f, c)
    assert_canonical(g)
    assert oracle_eval(g, u) == oracle_eval(f, tuple(a + b for a, b in zip(c, u)))


def test_flip_var():
    z = jet_var(1, 3, 0)
    f = jet_add(z, jet_pow(z, 2))
    g = jet_flip_var(f, 0)
    assert g.terms == {(1,): -ONE, (2,): ONE}


def test_mul_var_shift():
    z = jet_var(1, 3, 0)
    f = jet_mul_var(z, 0, 2)
    assert f.terms == {(3,): ONE}
    with pytest.raises(ShapeError):
        jet_mul_var(f, 0)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_requires_constant_free():
    f = jet_var(1, 3, 0)
    g = PolyMap(1, [jet_add(jet_var(1, 3, 0), jet_const(1, 3, ONE))])
    with pytest.raises(CompositionDomainError):
        jet_compose(f, g)


def test_compose_known_value():
    # (x + x^2) o (x + x^2) = x + 2x^2 + 2x^3 + x^4
    x4 = jet_var(1, 4, 0)
    f = jet_add(x4, jet_pow(x4, 2))
    g = PolyMap(1, [f])
    h = jet_compose(f, g)
    assert h.terms == {(1,): ONE, (2,): frac(2), (3,): frac(2), (4,): frac(1)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_matches_oracle(data):
    inner = data.draw(constant_free_maps())
    f = data.draw(jets(num_vars=inner.target_vars, order=inner.order))
    composite = jet_compose(f, inner)
    assert_canonical(composite)
    assert jet_eq(composite, oracle_compose(f, inner))


def test_compose_leaves_no_reference_cycle():
    # The table of powers g^e must be freed when the call returns, not when
    # the cyclic collector next runs.
    x = jet_var(2, 4, 0)
    y = jet_var(2, 4, 1)
    f = jet_add(jet_pow(x, 3), jet_mul(x, jet_pow(y, 2)))
    g = PolyMap(2, [jet_add(x, jet_mul(x, y)), jet_add(y, jet_pow(x, 2))])
    gc.collect()
    gc.disable()
    try:
        jet_compose(f, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_map_compose_through_one_table_matches_fresh_and_oracle(data):
    inner = data.draw(constant_free_maps())
    outers = [
        data.draw(constant_free_maps(source_vars=inner.target_vars, order=inner.order))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    powers = PowerTable()
    for f in outers:
        shared = map_compose(inner, f, powers)
        assert shared == map_compose(inner, f)
        for comp, got in zip(f.components, shared.components):
            assert_canonical(got)
            assert jet_eq(got, oracle_compose(comp, inner))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_handed_another_inner_map_starts_over(data):
    order = data.draw(st.integers(1, 4))
    g1 = data.draw(constant_free_maps(target_vars=2, order=order))
    g2 = data.draw(constant_free_maps(source_vars=g1.source_vars, target_vars=2,
                                      order=order))
    f = data.draw(constant_free_maps(source_vars=2, order=order))
    powers = PowerTable()
    map_compose(g1, f, powers)
    assert map_compose(g2, f, powers) == map_compose(g2, f)
    assert map_compose(g1, f, powers) == map_compose(g1, f)


def _two_var_maps():
    x = jet_var(2, 4, 0)
    y = jet_var(2, 4, 1)
    g = PolyMap(2, [jet_add(x, jet_mul(x, y)), jet_add(y, jet_pow(x, 2))])
    f = PolyMap(2, [jet_add(jet_pow(x, 3), jet_mul(x, jet_pow(y, 2))),
                    jet_add(y, jet_pow(y, 4))])
    return g, f


def test_table_builds_each_monomial_once(monkeypatch):
    import germglue.jets

    g, f = _two_var_maps()
    calls = []
    real = germglue.jets.jet_mul

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(germglue.jets, "jet_mul", counted)
    powers = PowerTable()
    first = map_compose(g, f, powers)
    built = len(calls)
    assert built > 0
    # every monomial of f's second composition is already in the table
    assert map_compose(g, f, powers) == first
    assert len(calls) == built


def test_map_compose_with_a_kept_table_leaves_no_reference_cycle():
    g, f = _two_var_maps()
    powers = PowerTable()
    gc.collect()
    gc.disable()
    try:
        map_compose(g, f, powers)
        map_compose(g, f, powers)
        assert gc.collect() == 0
        # dropping the table frees it at once: nothing in it refers back
        del powers
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_compose_associative(data):
    order = data.draw(st.integers(1, 3))
    g = data.draw(constant_free_maps(source_vars=1, target_vars=2, order=order))
    h = data.draw(constant_free_maps(source_vars=2, target_vars=1, order=order))
    f = data.draw(jets(num_vars=1, order=order))
    # f o (h o g) == (f o h) o g
    lhs = jet_compose(f, map_compose(g, h))
    rhs = jet_compose(jet_compose(f, h), g)
    assert jet_eq(lhs, rhs)


def test_compose_truncation_consistency():
    # The order-K composite, truncated to K-1, equals the order-(K-1)
    # composite of truncated operands.
    x = jet_var(1, 4, 0)
    f = jet_add(x, jet_add(jet_pow(x, 2), jet_pow(x, 4)))
    g = PolyMap(1, [jet_add(x, jet_pow(x, 3))])
    full = jet_compose(f, g)
    low = jet_compose(
        jet_truncate(f, 3),
        PolyMap(1, [jet_truncate(g.components[0], 3)]),
    )
    assert jet_eq(jet_truncate(full, 3), low)


def test_identity_map_neutral():
    t, z = jet_var(2, 4, 0), jet_var(2, 4, 1)
    f = jet_add(jet_mul(t, z), jet_pow(t, 2))
    assert jet_eq(jet_compose(f, identity_map(2, 4)), f)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

# Compositional inverse of x + x^2: signed Catalan numbers.
SIGNED_CATALAN = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-5),
    Fraction(14),
    Fraction(-42),
    Fraction(132),
    Fraction(-429),
]


def test_oracle_inverse_is_signed_catalan():
    b = oracle_series_inverse_1var([Fraction(0), Fraction(1), Fraction(1)], 8)
    assert b[1:] == SIGNED_CATALAN


def test_map_inverse_signed_catalan():
    x = jet_var(1, 8, 0)
    f = PolyMap(1, [jet_add(x, jet_pow(x, 2))])
    g = map_inverse(f)
    expected = jet_from_terms(
        1, 8, [((k + 1,), Coeff(c)) for k, c in enumerate(SIGNED_CATALAN)]
    )
    assert jet_eq(g.components[0], expected)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_inverse_round_trip(data):
    nv = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(1, 4))
    # invertible linear part: identity plus a strictly upper triangular bump
    comps = []
    for i in range(nv):
        base = jet_var(nv, order, i)
        extra = data.draw(jets(num_vars=nv, order=order, min_degree=2))
        comps.append(jet_add(base, extra))
    f = PolyMap(nv, comps)
    g = map_inverse(f)
    ident = identity_map(nv, order)
    assert map_compose(g, f) == ident
    assert map_compose(f, g) == ident


def test_inverse_rejects_singular():
    x = jet_var(1, 3, 0)
    f = PolyMap(1, [jet_pow(x, 2)])
    with pytest.raises(NotInvertibleError):
        map_inverse(f)


def test_inverse_matches_oracle_random_series():
    coeffs = [Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 3)]
    order = 7
    f = PolyMap(
        1, [jet_from_terms(1, order, [((k,), Coeff(c)) for k, c in enumerate(coeffs)])]
    )
    g = map_inverse(f)
    b = oracle_series_inverse_1var(coeffs, order)
    expected = jet_from_terms(
        1, order, [((k,), Coeff(c)) for k, c in enumerate(b)]
    )
    assert jet_eq(g.components[0], expected)


def test_linear_part_and_eval():
    t, z = jet_var(2, 3, 0), jet_var(2, 3, 1)
    f = PolyMap(2, [jet_add(t, jet_mul(z, z)), jet_scale(z, frac(3))])
    lp = linear_part(f)
    assert lp[0][0] == ONE and lp[0][1] == ZERO
    assert lp[1][1] == frac(3)
    assert map_eval(f, (frac(1), frac(2))) == (frac(5), frac(6))

