"""Seeded samplers and batched float evaluation of jets.

Certificate audits sample exact rational points (denominator-bounded grids
with rejection, drawn and tested on integers), so membership tests and
residual evaluations stay exact.

Separately, :func:`batch_eval` turns a jet into a flat term table (exponent
matrix + complex coefficients) and evaluates it over many points at once
with numpy; the float-mode audit in :mod:`germglue.numeval` runs on it.
numpy is imported by those float functions, so exact runs never load it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .jets import Jet
from .regions import Point, Polydisc, TubeDomain
from .scalars import Coeff, ZERO

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# exact rational sampling
# ---------------------------------------------------------------------------

GRID_DENOMINATOR = 64


def sample_in_disc(rng: random.Random, center: Coeff, radius: Fraction) -> Coeff:
    """Exact rational point with |result - center| <= 9/10 * radius.

    Draws grid numerators a, b in [-G, G] (G = GRID_DENOMINATOR) until
    (a/G)^2 + (b/G)^2 <= 81/100, tested on integers, and returns
    center + (a + i*b) * radius / G."""
    g = GRID_DENOMINATOR
    while True:
        a = rng.randrange(-g, g + 1)
        b = rng.randrange(-g, g + 1)
        if 100 * (a * a + b * b) <= 81 * g * g:
            n, q = radius.numerator, g * radius.denominator
            return Coeff(center.re + Fraction(a * n, q), center.im + Fraction(b * n, q))


def sample_in_polydisc(rng: random.Random, p: Polydisc) -> Point:
    return tuple(sample_in_disc(rng, c, r) for c, r in zip(p.centers, p.radii))


def sample_in_tube(rng: random.Random, t: TubeDomain) -> Point:
    """A point of the tube: the base coordinates first, then each fiber
    coordinate around 0, the draws of :func:`sample_in_polydisc` on the
    tube as a polydisc."""
    return sample_in_polydisc(rng, t.base) + tuple(
        sample_in_disc(rng, ZERO, t.fiber_radius) for _ in range(t.fiber_dim))


# ---------------------------------------------------------------------------
# float term tables and batched evaluation
# ---------------------------------------------------------------------------


def term_table(f: Jet) -> tuple[np.ndarray, np.ndarray]:
    """(T, num_vars) int64 exponent matrix and length-T complex coefficients."""
    import numpy as np

    if not f.terms:
        return (
            np.zeros((0, f.num_vars), dtype=np.int64),
            np.zeros(0, dtype=np.complex128),
        )
    exps = np.array(sorted(f.terms), dtype=np.int64)
    coeffs = np.array(
        [complex(f.terms[tuple(e)].re, f.terms[tuple(e)].im) for e in exps.tolist()],
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
