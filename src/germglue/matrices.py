"""Matrices over the jet ring, plus exact scalar-matrix linear algebra.

Jet-valued matrices carry transition data for sheaf gluing and connection
matrices for flatness checks.  A jet matrix is inverted by the terminating
geometric series around the inverse of its constant terms
(:func:`matrix_inverse`), with no pivot search over jets;
:func:`jet_reciprocal` is its 1x1 case.  Scalar (Coeff) matrices appear
wherever data is restricted to a point: rank computations for the
injectivity and generation conditions, determinants, and Jacobians of
linear parts.  Their rank, determinant and inverse all read the one
elimination, :func:`germglue.scalars.coeff_eliminate`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .errors import ShapeError
from .jets import (
    Jet,
    PolyMap,
    PowerTable,
    jet_add,
    jet_const,
    jet_constant_term,
    jet_eq,
    jet_flip_var,
    jet_is_zero,
    jet_mul,
    jet_neg,
    jet_partial,
    jet_sub,
    jet_with_order,
    jet_zero,
    map_compose,
    map_eval,
    sum_of_products,
)
from .scalars import Coeff, ONE, ZERO, coeff_eliminate, coeff_inverse

JetRows = List[List[Jet]]
CoeffRows = List[List[Coeff]]


class JetMatrix:
    """Rectangular matrix with jet entries sharing one shape."""

    __slots__ = ("rows", "cols", "num_vars", "order", "entries")

    def __init__(self, entries: Sequence[Sequence[Jet]]):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise ShapeError("matrix needs at least one entry")
        cols = len(entries[0])
        first = entries[0][0]
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged matrix")
            for x in row:
                if x.num_vars != first.num_vars or x.order != first.order:
                    raise ShapeError("matrix entries must share one jet shape")
        self.rows = len(entries)
        self.cols = cols
        self.num_vars = first.num_vars
        self.order = first.order
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JetMatrix):
            return NotImplemented
        return matrix_eq(self, other)

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self) -> str:
        return f"JetMatrix({self.rows}x{self.cols}, {self.num_vars} vars, order {self.order})"


def matrix_identity(n: int, num_vars: int, order: int) -> JetMatrix:
    one = jet_const(num_vars, order, ONE)
    zero = jet_zero(num_vars, order)
    return JetMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def matrix_map(m: JetMatrix, fn: Callable[[Jet], Jet]) -> JetMatrix:
    return JetMatrix([[fn(x) for x in row] for row in m.entries])


def matrix_add(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    _check_same_dims(a, b)
    return JetMatrix(
        [[jet_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]
    )


def matrix_sub(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    _check_same_dims(a, b)
    return JetMatrix(
        [[jet_sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]
    )


def matrix_scale_jet(a: JetMatrix, f: Jet) -> JetMatrix:
    return matrix_map(a, lambda x: jet_mul(x, f))


def matrix_mul(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    """Product over the jet ring: each product entry is one
    :func:`sum_of_products` of the row's and the column's entries, over one
    denominator."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if (a.num_vars, a.order) != (b.num_vars, b.order):
        raise ShapeError("matrix factors must share one jet shape")
    cols = list(zip(*b.entries))
    return JetMatrix([
        [sum_of_products(a.num_vars, a.order, list(zip(row, col))) for col in cols]
        for row in a.entries
    ])


def matrix_transpose(a: JetMatrix) -> JetMatrix:
    return JetMatrix([[a.entries[i][j] for i in range(a.rows)] for j in range(a.cols)])


def matrix_eq(a: JetMatrix, b: JetMatrix) -> bool:
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    return all(
        jet_eq(x, y) for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)
    )


def matrix_partial(a: JetMatrix, var: int) -> JetMatrix:
    return matrix_map(a, lambda x: jet_partial(x, var))


def matrix_flip_var(a: JetMatrix, var: int) -> JetMatrix:
    return matrix_map(a, lambda x: jet_flip_var(x, var))


def _flat(a: JetMatrix) -> PolyMap:
    """The entries in row order, as the components of one map."""
    return PolyMap(a.num_vars, [x for row in a.entries for x in row])


def _reshaped(a: JetMatrix, flat: Sequence) -> list[list]:
    return [list(flat[r * a.cols:(r + 1) * a.cols]) for r in range(a.rows)]


def matrix_compose(a: JetMatrix, g: PolyMap, powers: PowerTable | None = None) -> JetMatrix:
    """Every entry composed after ``g`` in one :func:`map_compose`, so each
    monomial of g is built once; a caller composing several matrices after
    the same g passes its own table as ``powers``."""
    return JetMatrix(_reshaped(a, map_compose(g, _flat(a), powers).components))


def matrix_with_order(a: JetMatrix, order: int) -> JetMatrix:
    return matrix_map(a, lambda x: jet_with_order(x, order))


def matrix_eval(a: JetMatrix, point: Sequence[Coeff]) -> CoeffRows:
    """Every entry's value at ``point`` through one :func:`map_eval`, so the
    point is converted once and its monomials are shared."""
    return _reshaped(a, map_eval(_flat(a), point))


def matrix_det(a: JetMatrix) -> Jet:
    """Determinant by cofactor expansion; fine for the small ranks used in
    transition data."""
    if a.rows != a.cols:
        raise ShapeError("determinant of a non-square matrix")
    n = a.rows
    if n == 1:
        return a.entries[0][0]

    def minor(entries: JetRows, col: int) -> JetRows:
        return [[row[j] for j in range(len(row)) if j != col] for row in entries[1:]]

    def det(entries: JetRows) -> Jet:
        k = len(entries)
        if k == 1:
            return entries[0][0]
        acc = jet_zero(a.num_vars, a.order)
        for j, top in enumerate(entries[0]):
            if jet_is_zero(top):
                continue
            sub = jet_mul(top, det(minor(entries, j)))
            acc = jet_add(acc, sub if j % 2 == 0 else jet_neg(sub))
        return acc

    return det(a.entries)


def jet_reciprocal(f: Jet) -> Jet:
    """1/f as a jet, requiring an invertible constant term: the 1x1 case of
    :func:`matrix_inverse`."""
    return matrix_inverse(JetMatrix([[f]])).entries[0][0]


def matrix_inverse(a: JetMatrix) -> JetMatrix:
    """Inverse over the jet ring, requiring the scalar matrix C of constant
    terms to be invertible (otherwise no inverse exists over the local ring).

    With a = C(1 - u), u = 1 - C^-1 a is constant-free, so u^(K+1) vanishes
    at the truncation order K and the geometric series terminates:
    a^-1 = (1 + u + ... + u^K) C^-1 exactly."""
    if a.rows != a.cols:
        raise ShapeError("inverse of a non-square matrix")
    n, nv, order = a.rows, a.num_vars, a.order
    c_inv = matrix_var_coeff(
        n, nv, order, coeff_inverse([[jet_constant_term(x) for x in row] for row in a.entries])
    )
    one = matrix_identity(n, nv, order)
    u = matrix_sub(one, matrix_mul(c_inv, a))
    acc = power = one
    for _ in range(order):
        power = matrix_mul(power, u)
        if all(jet_is_zero(x) for row in power.entries for x in row):
            break
        acc = matrix_add(acc, power)
    return matrix_mul(acc, c_inv)


# ---------------------------------------------------------------------------
# exact scalar linear algebra
# ---------------------------------------------------------------------------


def coeff_matvec(a: CoeffRows, v: Sequence[Coeff]) -> list[Coeff]:
    if not a or len(a[0]) != len(v):
        raise ShapeError("scalar matrix/vector shape mismatch")
    return [sum((row[k] * v[k] for k in range(len(v))), ZERO) for row in a]


def coeff_rank(mat: CoeffRows) -> int:
    """Exact rank: the pivot count of :func:`coeff_eliminate`."""
    if not mat:
        return 0
    return len(coeff_eliminate(mat, len(mat[0]))[1])


def coeff_det(mat: CoeffRows) -> Coeff:
    """Exact determinant: the signed pivot product of
    :func:`coeff_eliminate`, or zero without a full set of pivots."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ShapeError("determinant of a non-square matrix")
    _, pivots, det = coeff_eliminate(mat, n)
    return det if len(pivots) == n else ZERO


def column_span_rank(columns: Sequence[Sequence[Coeff]]) -> int:
    """Rank of the span of the given column vectors."""
    if not columns:
        return 0
    return coeff_rank([list(col) for col in zip(*columns)])


def _check_same_dims(a: JetMatrix, b: JetMatrix) -> None:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(
            f"matrix shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )


def matrix_var_coeff(n: int, num_vars: int, order: int, scalar_rows: CoeffRows) -> JetMatrix:
    """Lift a scalar matrix to a constant jet matrix."""
    if len(scalar_rows) != n or any(len(r) != n for r in scalar_rows):
        raise ShapeError("scalar matrix has wrong size")
    return JetMatrix(
        [[jet_const(num_vars, order, c) for c in row] for row in scalar_rows]
    )
