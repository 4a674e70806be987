"""Jet-matrix algebra and exact scalar linear algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from germglue.errors import NotInvertibleError, ShapeError
from germglue.jets import (
    PowerTable,
    jet_add,
    jet_const,
    jet_eq,
    jet_is_constant_free,
    jet_mul,
    jet_pow,
    jet_truncate,
    jet_var,
    jet_zero,
)
from germglue.matrices import (
    JetMatrix,
    coeff_det,
    coeff_matvec,
    coeff_rank,
    column_span_rank,
    jet_reciprocal,
    matrix_compose,
    matrix_det,
    matrix_eval,
    matrix_identity,
    matrix_inverse,
    matrix_mul,
    matrix_partial,
    matrix_transpose,
)
from germglue.scalars import Coeff, ONE, ZERO, coeff_inverse

from .oracles import (
    oracle_coeff_det,
    oracle_coeff_inverse,
    oracle_coeff_rank,
    oracle_compose,
    oracle_eval,
    oracle_jet_reciprocal,
    oracle_matmul,
    oracle_matrix_inverse,
)
from .test_jets import coeffs, constant_free_maps, jets, points


def frac(p, q=1):
    return Coeff(Fraction(p, q))


def test_shape_checks():
    z = jet_zero(2, 3)
    with pytest.raises(ShapeError):
        JetMatrix([[z], [z, z]])
    with pytest.raises(ShapeError):
        JetMatrix([[z, jet_zero(1, 3)]])


def test_identity_and_mul():
    t = jet_var(2, 3, 0)
    z = jet_var(2, 3, 1)
    m = JetMatrix([[jet_const(2, 3, ONE), jet_mul(t, z)], [jet_zero(2, 3), jet_const(2, 3, ONE)]])
    i2 = matrix_identity(2, 2, 3)
    assert matrix_mul(m, i2) == m
    assert matrix_mul(i2, m) == m
    sq = matrix_mul(m, m)
    assert jet_eq(sq.entries[0][1], jet_add(jet_mul(t, z), jet_mul(t, z)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mul_matches_oracle(data):
    nv, k = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    n, m, p = (data.draw(st.integers(1, 3)) for _ in range(3))

    def matrix(rows, cols):
        return JetMatrix([[data.draw(jets(num_vars=nv, order=k)) for _ in range(cols)]
                          for _ in range(rows)])

    a, b = matrix(n, m), matrix(m, p)
    product = matrix_mul(a, b)
    assert all(not c.is_zero() for row in product.entries for x in row
               for c in x.terms.values())
    assert product == oracle_matmul(a, b)


def test_transpose_involution():
    t = jet_var(2, 2, 0)
    m = JetMatrix([[t, jet_zero(2, 2)]])
    assert matrix_transpose(matrix_transpose(m)) == m
    assert matrix_transpose(m).rows == 2


def test_jet_reciprocal():
    x = jet_var(1, 5, 0)
    f = jet_add(jet_const(1, 5, frac(2)), x)  # 2 + x
    g = jet_reciprocal(f)
    assert jet_eq(jet_mul(f, g), jet_const(1, 5, ONE))
    with pytest.raises(NotInvertibleError):
        jet_reciprocal(x)


def test_matrix_inverse_unipotent():
    t = jet_var(2, 4, 0)
    z = jet_var(2, 4, 1)
    m = JetMatrix(
        [[jet_const(2, 4, ONE), jet_mul(t, z)], [jet_zero(2, 4), jet_const(2, 4, ONE)]]
    )
    inv = matrix_inverse(m)
    assert matrix_mul(m, inv) == matrix_identity(2, 2, 4)
    assert matrix_mul(inv, m) == matrix_identity(2, 2, 4)


def test_matrix_inverse_needs_unit_constant():
    t = jet_var(1, 3, 0)
    m = JetMatrix([[t]])
    with pytest.raises(NotInvertibleError):
        matrix_inverse(m)


def test_det_and_eval():
    t = jet_var(2, 4, 0)
    z = jet_var(2, 4, 1)
    one = jet_const(2, 4, ONE)
    m = JetMatrix([[one, jet_mul(t, z)], [z, one]])
    d = matrix_det(m)
    # 1 - t z^2
    assert d.terms == {(0, 0): ONE, (1, 2): -ONE}
    vals = matrix_eval(m, (frac(2), frac(3)))
    assert vals[0][1] == frac(6)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compose_and_eval_through_one_table_match_the_entrywise_oracles(data):
    """Two matrices composed after one map through one shared table, and
    a matrix evaluated in one call, equal the entry-by-entry oracles."""
    g = data.draw(constant_free_maps(target_vars=2))
    mats = [JetMatrix([[data.draw(jets(num_vars=2, order=g.order)) for _ in range(2)]
                       for _ in range(data.draw(st.integers(1, 2)))]) for _ in range(2)]
    powers = PowerTable()
    for m in mats:
        got = matrix_compose(m, g, powers)
        assert got.entries == [[oracle_compose(x, g) for x in row] for row in m.entries]
    x = data.draw(points(2, data.draw(st.booleans())))
    assert matrix_eval(mats[0], x) == [[oracle_eval(e, x) for e in row] for row in mats[0].entries]


def test_det_multiplicative():
    t = jet_var(2, 3, 0)
    z = jet_var(2, 3, 1)
    one = jet_const(2, 3, ONE)
    a = JetMatrix([[one, t], [z, one]])
    b = JetMatrix([[one, jet_zero(2, 3)], [jet_mul(t, z), one]])
    lhs = matrix_det(matrix_mul(a, b))
    rhs = jet_mul(matrix_det(a), matrix_det(b))
    assert jet_eq(lhs, rhs)


def test_partial_product_rule():
    t = jet_var(2, 4, 0)
    z = jet_var(2, 4, 1)
    one = jet_const(2, 4, ONE)
    a = JetMatrix([[one, jet_mul(t, z)], [jet_zero(2, 4), one]])
    b = JetMatrix([[jet_pow(z, 2), jet_zero(2, 4)], [t, one]])
    from germglue.matrices import matrix_add, matrix_map

    def truncate(m):
        return matrix_map(m, lambda x: jet_truncate(x, 3))

    lhs = matrix_partial(matrix_mul(a, b), 0)
    rhs = matrix_add(
        matrix_mul(truncate(matrix_partial(a, 0)), truncate(b)),
        matrix_mul(truncate(a), truncate(matrix_partial(b, 0))),
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# scalar linear algebra
# ---------------------------------------------------------------------------


def test_rank_and_det():
    m = [[frac(1), frac(2)], [frac(2), frac(4)]]
    assert coeff_rank(m) == 1
    assert coeff_det(m) == ZERO
    m2 = [[frac(1), frac(2)], [frac(3), frac(4)]]
    assert coeff_rank(m2) == 2
    assert coeff_det(m2) == frac(-2)


def test_det_complex_entries():
    i = Coeff(Fraction(0), Fraction(1))
    m = [[i, frac(1)], [frac(-1), i]]
    # det = i*i - (1)(-1) = -1 + 1 = 0
    assert coeff_det(m) == ZERO
    assert coeff_rank(m) == 1


def test_matvec_and_span():
    m = [[frac(1), frac(0)], [frac(1), frac(1)]]
    assert coeff_matvec(m, [frac(2), frac(3)]) == [frac(2), frac(5)]
    assert column_span_rank([[frac(1), frac(0)], [frac(2), frac(0)]]) == 1
    assert column_span_rank([[frac(1), frac(0)], [frac(0), frac(1)]]) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.builds(Coeff, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))),
                 min_size=3, max_size=3),
        min_size=3, max_size=3,
    )
)
def test_rank_bounds_and_det_consistency(rows):
    r = coeff_rank(rows)
    assert 0 <= r <= 3
    d = coeff_det(rows)
    assert (r == 3) == (not d.is_zero())


# ---------------------------------------------------------------------------
# the one elimination and the series inverse against the references
# ---------------------------------------------------------------------------


def scalar_rows(draw, rows: int, cols: int, real: bool) -> list:
    """Entries zero half the time, so pivots are often missing from the top
    row and the elimination must swap."""
    entry = st.one_of(st.just(ZERO), coeffs(real))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def coeff_matrices(draw):
    """Real or Gaussian matrices of size 1-4, square half the time, with up
    to two rows replaced by a combination of two rows (a zero row when both
    factors are zero), so many are rank-deficient."""
    n = draw(st.integers(1, 4))
    m = n if draw(st.booleans()) else draw(st.integers(1, 4))
    real = draw(st.booleans())
    rows = scalar_rows(draw, n, m, real)
    for _ in range(draw(st.integers(0, 2))):
        k, i, j = (draw(st.integers(0, n - 1)) for _ in range(3))
        s, t = (draw(st.one_of(st.just(ZERO), coeffs(real))) for _ in range(2))
        rows[k] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeff_matrices())
@example([[ZERO, ONE], [ONE, ZERO]])  # one swap: det -1
@example([[ZERO, ZERO, ONE], [ZERO, ONE, ZERO], [frac(2), ZERO, ZERO]])
@example([[ZERO, ZERO], [ZERO, frac(3)]])
def test_rank_det_and_inverse_match_the_reference_eliminations(rows):
    assert coeff_rank(rows) == oracle_coeff_rank(rows)
    if len(rows) != len(rows[0]):
        with pytest.raises(ShapeError):
            coeff_det(rows)
        with pytest.raises(ShapeError):
            coeff_inverse(rows)
        return
    assert coeff_det(rows) == oracle_coeff_det(rows)
    try:
        want = oracle_coeff_inverse(rows)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError):
            coeff_inverse(rows)
    else:
        assert coeff_inverse(rows) == want


def unit_constant_matrix(draw, const: list, nv: int, order: int, real: bool) -> JetMatrix:
    """The constant matrix ``const`` plus constant-free jets in every entry."""
    def free():
        if not order:
            return jet_zero(nv, order)
        return draw(jets(num_vars=nv, order=order, min_degree=1, real=real))

    return JetMatrix([[jet_add(jet_const(nv, order, c), free()) for c in row]
                      for row in const])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_matrix_inverse_and_reciprocal_match_the_jet_pivot_reference(data):
    n, nv = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    order, real = data.draw(st.integers(0, 6)), data.draw(st.booleans())
    const = scalar_rows(data.draw, n, n, real)
    assume(not oracle_coeff_det(const).is_zero())
    a = unit_constant_matrix(data.draw, const, nv, order, real)
    inv = matrix_inverse(a)
    assert inv == oracle_matrix_inverse(a)
    one = matrix_identity(n, nv, order)
    assert matrix_mul(a, inv) == one and matrix_mul(inv, a) == one
    for x in (x for row in a.entries for x in row):
        if not jet_is_constant_free(x):
            assert jet_reciprocal(x) == oracle_jet_reciprocal(x)
    if n == 1:
        assert jet_reciprocal(a.entries[0][0]) == inv.entries[0][0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_a_singular_constant_part_or_a_non_square_matrix_has_no_inverse(data):
    n, nv = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    order, real = data.draw(st.integers(0, 4)), data.draw(st.booleans())
    const = scalar_rows(data.draw, n, n, real)
    k, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if k == j:  # a zero column
        for row in const:
            row[k] = ZERO
    else:  # row k a multiple of row j
        s = data.draw(coeffs(real))
        const[k] = [s * x for x in const[j]]
    a = unit_constant_matrix(data.draw, const, nv, order, real)
    with pytest.raises(NotInvertibleError):
        oracle_matrix_inverse(a)
    with pytest.raises(NotInvertibleError):
        matrix_inverse(a)
    if n == 1:
        with pytest.raises(NotInvertibleError):
            jet_reciprocal(a.entries[0][0])
    wide = JetMatrix([row + [row[0]] for row in a.entries])
    for fn in (matrix_inverse, matrix_det):
        with pytest.raises(ShapeError):
            fn(wide)
