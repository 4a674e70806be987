"""Gaussian-rational scalars and certified square-root bounds.

A :class:`Coeff` is a complex number ``re + im*i`` whose parts are exact
:class:`fractions.Fraction` values.  It is the package's one scalar type:
every equality test is exact, and float work (the float-mode audit) runs on
numpy arrays in :mod:`germglue.sampling` and :mod:`germglue.numeval`.

The module also provides rational upper/lower bounds for square roots of
non-negative rationals.  These are what make disc geometry decidable: a
containment test ``|c| + r <= R`` is replaced by exact comparisons of
squared quantities, and reported margins use the (sound) ceil-sqrt bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Fraction

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
