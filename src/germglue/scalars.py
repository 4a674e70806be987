"""Gaussian-rational scalars, their one exact elimination, and certified
square-root bounds.

A :class:`Coeff` is a complex number ``re + im*i`` whose parts are exact
:class:`fractions.Fraction` values.  It is the package's one scalar type:
every equality test is exact, and float work (the float-mode audit) runs on
Python complex numbers in :mod:`germglue.sampling` and
:mod:`germglue.numeval`.

Linear algebra over Coeff has one routine, the Gauss–Jordan elimination
:func:`coeff_eliminate`; :func:`coeff_inverse` is its case ``[mat | 1]``,
here rather than in :mod:`germglue.matrices` because
:func:`germglue.jets.map_inverse` needs it.

The module also provides rational upper/lower bounds for square roots of
non-negative rationals.  These are what make disc geometry decidable: a
containment test ``|c| + r <= R`` is replaced by exact comparisons of
squared quantities, and reported margins use the (sound) ceil-sqrt bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import NotInvertibleError, ShapeError

Number = Union[int, Fraction]


class Coeff:
    """Complex scalar with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Number = 0, im: Number = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Coeff") -> "Coeff":
        return Coeff(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Coeff") -> "Coeff":
        return Coeff(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Coeff":
        return Coeff(-self.re, -self.im)

    def __mul__(self, other: "Coeff") -> "Coeff":
        # Real-only fast path.
        if not (self.im or other.im):
            return Coeff(self.re * other.re)
        return Coeff(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "Coeff") -> "Coeff":
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero coefficient")
        return Coeff(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self) -> "Coeff":
        return Coeff(self.re, -self.im)

    def abs2(self):
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- comparisons --------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"Coeff({self.re})"
        return f"Coeff({self.re}, {self.im})"


ZERO = Coeff(0)
ONE = Coeff(1)


def coeff_eliminate(rows: Sequence[Sequence[Coeff]], cols: int):
    """Gauss–Jordan elimination of a copy of ``rows`` over their first
    ``cols`` columns.

    Returns the reduced rows (each pivot 1, alone in its column), the pivot
    columns in order, and the product of the pivots, negated once per row
    swap: the determinant when ``rows`` is square and every column has a
    pivot."""
    work = [list(row) for row in rows]
    pivots: list[int] = []
    det = ONE
    for col in range(cols):
        top = len(pivots)
        p = next((r for r in range(top, len(work)) if not work[r][col].is_zero()), None)
        if p is None:
            continue
        if p != top:
            work[top], work[p] = work[p], work[top]
            det = -det
        det = det * work[top][col]
        inv = ONE / work[top][col]
        work[top] = pivot_row = [inv * x for x in work[top]]
        for r, row in enumerate(work):
            f = row[col]
            if r != top and not f.is_zero():
                work[r] = [x - f * y for x, y in zip(row, pivot_row)]
        pivots.append(col)
    return work, pivots, det


def coeff_inverse(mat: Sequence[Sequence[Coeff]]) -> list[list[Coeff]]:
    """Exact inverse of a square Coeff matrix: the right half of
    ``[mat | 1]`` after :func:`coeff_eliminate`."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ShapeError("inverse of a non-square matrix")
    aug = [[*row, *(ONE if i == j else ZERO for j in range(n))] for i, row in enumerate(mat)]
    reduced, pivots, _ = coeff_eliminate(aug, n)
    if len(pivots) < n:
        raise NotInvertibleError("scalar matrix is singular")
    return [row[n:] for row in reduced]


def coeff_abs_lb(c: Coeff) -> Fraction:
    """Rational lower bound for |c|."""
    return sqrt_lb(c.abs2())


def _isqrt_ceil(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


# extra binary digits in the square-root bounds: certified margins are often
# small differences of radii, so the rounding slack must be far below them
_SQRT_SCALE = 1 << 24


def sqrt_ub(q: Fraction) -> Fraction:
    """Rational upper bound >= sqrt(q) for q >= 0, within 2^-24 of exact.

    Uses sqrt(p/d) = sqrt(p*d*S^2)/(d*S) and integer ceil-sqrt, so the bound
    is exact whenever p*d is a perfect square (for squares of rationals)."""
    if q < 0:
        raise ValueError("sqrt bound of negative rational")
    return Fraction(*sqrt_ub_ratio(q.numerator, q.denominator))


def sqrt_ub_ratio(num: int, den: int) -> tuple[int, int]:
    """``sqrt_ub(Fraction(num, den))`` as an integer pair ``(a, den * S)``,
    for ``num >= 0`` and ``den > 0``.

    The ratio is reduced by one gcd before the rounding, exactly as the
    Fraction is, and the numerator is scaled back to ``den``: so bounds of
    several ratios over one ``den`` share a denominator and add on their
    numerators."""
    g = math.gcd(num, den)
    p, d = num // g, den // g
    return _isqrt_ceil(p * d * _SQRT_SCALE * _SQRT_SCALE) * g, den * _SQRT_SCALE


def sqrt_lb(q: Fraction) -> Fraction:
    """Rational lower bound <= sqrt(q) for q >= 0, within 2^-24 of exact."""
    if q < 0:
        raise ValueError("sqrt bound of negative rational")
    num = q.numerator * q.denominator * _SQRT_SCALE * _SQRT_SCALE
    return Fraction(math.isqrt(num), q.denominator * _SQRT_SCALE)
