"""Seeded samplers and batched float evaluation of jets.

Certificate audits sample exact rational points (denominator-bounded grids
with rejection, drawn on integers) and keep each as Gaussian-integer
numerators over one denominator, the form the integer membership test and
evaluator take, so membership tests and residual evaluations stay exact.

Separately, :func:`batch_eval` evaluates a jet in Python complex floats
over a list of points; the float-mode audit in :mod:`germglue.numeval` runs
on it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .jets import Jet, NumPoint, point_from_numerators
from .regions import Point, Polydisc, TubeDomain, tube_discs
from .scalars import Coeff


# ---------------------------------------------------------------------------
# exact rational sampling
# ---------------------------------------------------------------------------

GRID_DENOMINATOR = 64


def _sample(rng: random.Random, discs: Sequence[tuple[Coeff, Fraction]]) -> NumPoint:
    """A point c_k + (a_k + i*b_k) * r_k / G of the discs (c_k, r_k) as a
    numerator tuple over q, the lcm of the c_k and G * r_k denominators: per
    disc, grid numerators a, b in [-G, G] (G = GRID_DENOMINATOR) are drawn
    until a^2 + b^2 <= 81/100 * G^2."""
    g = GRID_DENOMINATOR
    q = math.lcm(*[n for c, r in discs
                   for n in (c.re.denominator, c.im.denominator, g * r.denominator)])
    re, im = [], []
    for c, r in discs:
        while True:
            a = rng.randrange(-g, g + 1)
            b = rng.randrange(-g, g + 1)
            if 100 * (a * a + b * b) <= 81 * g * g:
                break
        s = r.numerator * (q // (g * r.denominator))
        re.append(c.re.numerator * (q // c.re.denominator) + a * s)
        im.append(c.im.numerator * (q // c.im.denominator) + b * s)
    return q, tuple(re), tuple(im)


def sample_numerators(rng: random.Random, t: TubeDomain) -> NumPoint:
    """A point of the tube (base coordinates, then fiber), as numerators."""
    return _sample(rng, tube_discs(t))


def sample_in_polydisc(rng: random.Random, p: Polydisc) -> Point:
    return point_from_numerators(_sample(rng, tuple(zip(p.centers, p.radii))))


def sample_in_tube(rng: random.Random, t: TubeDomain) -> Point:
    """:func:`sample_numerators` as a point of Coeff."""
    return point_from_numerators(sample_numerators(rng, t))


# ---------------------------------------------------------------------------
# batched float evaluation
# ---------------------------------------------------------------------------


def batch_eval(f: Jet, points: list) -> list:
    """Evaluate f at a list of points, each a tuple of ``num_vars`` complex
    values, into a list of complex values.

    Each coefficient is read from the numerators as a correctly rounded
    quotient.  Terms are summed in sorted exponent order, each as its
    coefficient times x_v ** k for every nonzero k in variable order (an
    int power, so binary powering)."""
    den, re, im = f.den, f.re, f.im
    table = [(complex(re.get(e, 0) / den, im.get(e, 0) / den),
              [(v, k) for v, k in enumerate(e) if k])
             for e in sorted({**re, **im})]
    out = []
    for x in points:
        acc = 0j
        for term, powers in table:
            for v, k in powers:
                term = term * x[v] ** k
            acc += term
        out.append(acc)
    return out
