"""Seeded samplers and batched float evaluation of jets.

Certificate audits sample exact rational points (denominator-bounded grids
with rejection, drawn on integers) and keep each as Gaussian-integer
numerators over one denominator, the form the integer membership test and
evaluator take, so membership tests and residual evaluations stay exact.

Separately, :func:`batch_eval` turns a jet into a flat term table (exponent
matrix + complex coefficients) and evaluates it over many points at once
with numpy; the float-mode audit in :mod:`germglue.numeval` runs on it.
numpy is imported by those float functions, so exact runs never load it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .jets import Jet, NumPoint, point_from_numerators
from .regions import Point, Polydisc, TubeDomain, tube_discs
from .scalars import Coeff

if TYPE_CHECKING:
    import numpy as np


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
# float term tables and batched evaluation
# ---------------------------------------------------------------------------


def term_table(f: Jet) -> tuple[np.ndarray, np.ndarray]:
    """(T, num_vars) int64 exponent matrix and length-T complex coefficients."""
    import numpy as np

    terms = f.terms
    if not terms:
        return (
            np.zeros((0, f.num_vars), dtype=np.int64),
            np.zeros(0, dtype=np.complex128),
        )
    exps = np.array(sorted(terms), dtype=np.int64)
    coeffs = np.array(
        [complex(terms[tuple(e)].re, terms[tuple(e)].im) for e in exps.tolist()],
        dtype=np.complex128,
    )
    return exps, coeffs


def batch_eval(f: Jet, points: np.ndarray) -> np.ndarray:
    """Evaluate f at an array of complex points, shape (P, num_vars)."""
    import numpy as np

    points = np.ascontiguousarray(points, dtype=np.complex128)
    if points.ndim != 2 or points.shape[1] != f.num_vars:
        raise ValueError("points must have shape (P, num_vars)")
    exps, coeffs = term_table(f)
    out = np.zeros(points.shape[0], dtype=np.complex128)
    for t in range(exps.shape[0]):
        term = np.full(points.shape[0], coeffs[t])
        for v in range(exps.shape[1]):
            k = exps[t, v]
            if k:
                term = term * points[:, v] ** k
        out += term
    return out


def points_to_array(points: Sequence[Point]) -> np.ndarray:
    import numpy as np

    return np.array(
        [[complex(c.re, c.im) for c in pt] for pt in points], dtype=np.complex128
    )
