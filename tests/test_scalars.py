"""Exact scalar arithmetic and the rational square-root bounds."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germglue.scalars import (
    Coeff,
    ONE,
    ZERO,
    coeff_abs_lb,
    sqrt_lb,
    sqrt_ub,
    sqrt_ub_ratio,
)

from .oracles import coeff_abs_ub


def test_constructor_normalizes():
    c = Coeff(2, Fraction(1, 3))
    assert c.re == Fraction(2) and c.im == Fraction(1, 3)
    assert isinstance(c.re, Fraction)


def test_field_ops():
    a = Coeff(Fraction(1, 2), Fraction(1))
    b = Coeff(Fraction(0), Fraction(-2))
    assert a + b == Coeff(Fraction(1, 2), Fraction(-1))
    assert a * b == Coeff(Fraction(2), Fraction(-1))
    assert (a / b) * b == a
    assert a - a == ZERO
    assert a.conj() == Coeff(Fraction(1, 2), Fraction(-1))
    assert a.abs2() == Fraction(1, 4) + 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_real_fast_path_matches_general():
    a = Coeff(Fraction(3, 7))
    b = Coeff(Fraction(-2, 5))
    assert a * b == Coeff(Fraction(-6, 35))


rationals = st.builds(
    Fraction, st.integers(min_value=0, max_value=10**6), st.integers(1, 997)
)


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_sqrt_bounds_bracket(q):
    lo, hi = sqrt_lb(q), sqrt_ub(q)
    assert lo * lo <= q <= hi * hi
    assert lo <= hi


def test_sqrt_exact_on_squares():
    assert sqrt_ub(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_lb(Fraction(9, 4)) == Fraction(3, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**12), st.integers(1, 10**9), st.integers(1, 10**6))
def test_sqrt_ub_ratio_does_not_depend_on_a_common_factor(n, d, g):
    # the disc certificates pass |Δc|^2 as an unreduced pair
    assert Fraction(*sqrt_ub_ratio(g * n, g * d)) == Fraction(*sqrt_ub_ratio(n, d)) \
        == sqrt_ub(Fraction(n, d))


@settings(max_examples=60, deadline=None)
@given(st.builds(Coeff, st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
                 st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))))
def test_abs_bounds_bracket_modulus(c):
    lo, hi = coeff_abs_lb(c), coeff_abs_ub(c)
    assert lo * lo <= c.abs2() <= hi * hi
    assert lo >= 0
