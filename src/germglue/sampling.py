"""Seeded samplers and batched float evaluation of jets.

Certificate audits sample exact rational points (denominator-bounded grids
with rejection, drawn on integers) and keep each as Gaussian-integer
numerators over one denominator, the form the integer membership test and
evaluator take, so membership tests and residual evaluations stay exact.
A draw reads the region's :func:`germglue.regions.region_table`, built once
per audit call: q, each centre over q and the grid step.

Separately, :func:`batch_eval` evaluates a jet in Python complex floats
over a list of points; the float-mode audit in :mod:`germglue.numeval` runs
on it.
"""

from __future__ import annotations

import random

from .jets import Jet, NumPoint
from .regions import GRID_DENOMINATOR


# ---------------------------------------------------------------------------
# exact rational sampling
# ---------------------------------------------------------------------------


def sample_numerators(rng: random.Random, table: tuple) -> NumPoint:
    """A point of the region of a :func:`germglue.regions.region_table`, as
    numerators over its q: per coordinate, the centre plus (a + i*b) grid
    steps, with a, b in [-G, G] (G = GRID_DENOMINATOR) drawn until
    a^2 + b^2 <= 81/100 * G^2."""
    g = GRID_DENOMINATOR
    q, rows = table
    re, im = [], []
    for m, mi, _, h in rows:
        while True:
            a = rng.randrange(-g, g + 1)
            b = rng.randrange(-g, g + 1)
            if 100 * (a * a + b * b) <= 81 * g * g:
                break
        re.append(m + a * h)
        im.append(mi + b * h)
    return q, tuple(re), tuple(im)


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
