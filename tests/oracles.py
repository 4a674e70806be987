"""Independent reference implementations used to check the package.

Everything in this module is deliberately naive: quadratic-time convolution,
substitute-then-truncate composition, term-by-term evaluation with repeated
Fraction products, direct Lagrange inversion in one variable.  None of it
imports algorithmic code from the package beyond the plain data containers,
so agreement between the two sides is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from germglue.jets import Jet, PolyMap
from germglue.scalars import Coeff, ONE, ZERO


def oracle_mul(a: Jet, b: Jet) -> Jet:
    """Full convolution product, truncated afterwards."""
    assert a.num_vars == b.num_vars and a.order == b.order
    out: dict[tuple[int, ...], Coeff] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > a.order:
                continue
            out[e] = out.get(e, ZERO) + ca * cb
    out = {e: c for e, c in out.items() if not c.is_zero()}
    return Jet(a.num_vars, a.order, out)


def oracle_eval(f: Jet, point) -> Coeff:
    """Value of f at a point of Coeff, term by term: each monomial is a
    product of repeated (re, im) Fraction multiplications."""
    assert len(point) == f.num_vars
    total_re, total_im = Fraction(0), Fraction(0)
    for e, c in f.terms.items():
        re, im = c.re, c.im
        for x, k in zip(point, e):
            for _ in range(k):
                re, im = re * x.re - im * x.im, re * x.im + im * x.re
        total_re += re
        total_im += im
    return Coeff(total_re, total_im)


def _poly_mul_exact(a: dict, b: dict, num_vars: int) -> dict:
    out: dict[tuple[int, ...], Coeff] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, ZERO) + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def oracle_compose(f: Jet, g: PolyMap) -> Jet:
    """Substitute the components of g into f as exact polynomials (with power
    caching), then truncate once at the end.

    Sound for constant-free g because the exact product only ever creates
    terms of total degree >= the degree of the monomial being expanded, so
    dropping f-terms above the order loses nothing below it.
    """
    assert f.num_vars == g.target_vars and f.order == g.order
    nv = g.source_vars
    const_one = {(0,) * nv: ONE}
    powers: list[list[dict]] = []
    for comp in g.components:
        powers.append([dict(const_one), dict(comp.terms)])

    def power(i: int, k: int) -> dict:
        tower = powers[i]
        while len(tower) <= k:
            tower.append(_poly_mul_exact(tower[-1], tower[1], nv))
        return tower[k]

    acc: dict[tuple[int, ...], Coeff] = {}
    for e, c in f.terms.items():
        term = dict(const_one)
        for i, k in enumerate(e):
            if k:
                term = _poly_mul_exact(term, power(i, k), nv)
        for ee, cc in term.items():
            v = c * cc
            acc[ee] = acc.get(ee, ZERO) + v
    acc = {e: c for e, c in acc.items() if sum(e) <= f.order and not c.is_zero()}
    return Jet(nv, f.order, acc)


def oracle_series_inverse_1var(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse of f(x) = sum coeffs[k] x^k (coeffs[0] = 0,
    coeffs[1] != 0), as coefficients b[0..order] with b[0] = 0.

    Solved degree by degree from f(g(x)) = x by plain triangular elimination;
    no shared code with the package inverter.
    """
    assert coeffs[0] == 0 and coeffs[1] != 0
    b: list[Fraction] = [Fraction(0), Fraction(1) / coeffs[1]]
    a = list(coeffs) + [Fraction(0)] * (order + 1 - len(coeffs))
    for n in range(2, order + 1):
        # coefficient of x^n in sum_k a[k] * g(x)^k must vanish; the b[n]
        # contribution appears only through k = 1, linearly.
        g_pows: list[list[Fraction]] = [[Fraction(1)] + [Fraction(0)] * n]
        g_trunc = b + [Fraction(0)] * (n + 1 - len(b))
        for _ in range(n):
            prev = g_pows[-1]
            nxt = [Fraction(0)] * (n + 1)
            for i, x in enumerate(prev):
                if x == 0:
                    continue
                for j, y in enumerate(g_trunc):
                    if i + j <= n and y != 0:
                        nxt[i + j] += x * y
            g_pows.append(nxt)
        residual = Fraction(0)
        for k in range(2, n + 1):
            residual += a[k] * g_pows[k][n]
        b.append(-residual / a[1])
    return b


def exhaustive_exponents(num_vars: int, order: int):
    """All exponent tuples of total degree <= order."""
    for e in itertools.product(range(order + 1), repeat=num_vars):
        if sum(e) <= order:
            yield e
