"""Seeded exact samplers and the float batch evaluator."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from germglue.jets import jet_eval, jet_from_terms, point_from_numerators
from germglue.regions import (
    Polydisc,
    TubeDomain,
    numerators_in_tube,
    point_in_polydisc,
    point_in_tube,
    region_table,
)
from germglue.sampling import batch_eval, sample_numerators
from germglue.scalars import Coeff

from .oracles import oracle_sample_in_polydisc, oracle_sample_in_tube
from .test_numeval import random_jet


def frac(p, q=1):
    return Coeff(Fraction(p, q))


def test_samples_are_exact_and_inside():
    rng = random.Random(7)
    p = Polydisc([frac(1, 2), frac(-1)], [Fraction(1, 3), Fraction(2)])
    for _ in range(200):
        pt = point_from_numerators(sample_numerators(rng, region_table(p)))
        assert all(isinstance(c.re, Fraction) for c in pt)
        assert point_in_polydisc(pt, p, strict=True)


def test_tube_samples_inside():
    rng = random.Random(11)
    t = TubeDomain("c", Polydisc([frac(0)], [Fraction(1)]), 2, Fraction(1, 4))
    for _ in range(100):
        pt = point_from_numerators(sample_numerators(rng, region_table(t)))
        assert point_in_tube(pt, t, strict=True)


def test_sampling_deterministic_under_seed():
    p = Polydisc([frac(0)], [Fraction(1)])
    a = [sample_numerators(random.Random(3), region_table(p)) for _ in range(1)]
    b = [sample_numerators(random.Random(3), region_table(p)) for _ in range(1)]
    assert a == b


@pytest.mark.parametrize("seed", range(10))
def test_samplers_draw_the_reference_points(seed):
    """The integer-grid sampler returns the points of the Fraction
    formulation and leaves the generator in the same state."""
    center = Coeff(Fraction(2, 3), Fraction(-5, 7))
    radius = Fraction(7, 9)
    tube = TubeDomain("c", Polydisc([center, frac(-1, 3)], [radius, Fraction(5, 11)]),
                      2, Fraction(3, 13))
    got, want = random.Random(seed), random.Random(seed)
    for region in (tube, tube.base) * 20:
        # the numerator tuples the audits draw, inside by the integer test
        x = sample_numerators(got, region_table(region))
        if region is tube:
            assert point_from_numerators(x) == oracle_sample_in_tube(want, tube)
            assert numerators_in_tube(x, tube, strict=True)
        else:
            assert point_from_numerators(x) == oracle_sample_in_polydisc(want, region)
            assert point_in_polydisc(point_from_numerators(x), region, strict=True)
    assert got.getstate() == want.getstate()


def _example_jet():
    return jet_from_terms(
        2,
        4,
        [
            ((0, 0), Coeff(Fraction(1, 3))),
            ((1, 0), Coeff(Fraction(-2), Fraction(1, 2))),
            ((1, 2), Coeff(Fraction(0), Fraction(1))),
            ((0, 3), Coeff(Fraction(5, 7))),
        ],
    )


def test_batch_eval_matches_exact_eval():
    f = _example_jet()
    rng = random.Random(5)
    p = Polydisc([frac(0), frac(0)], [Fraction(1), Fraction(1)])
    pts = [point_from_numerators(sample_numerators(rng, region_table(p))) for _ in range(64)]
    got = batch_eval(f, [tuple(complex(c.re, c.im) for c in pt) for pt in pts])
    assert len(got) == len(pts)
    for value, pt in zip(got, pts):
        exact = jet_eval(f, pt)
        assert abs(value - complex(exact.re, exact.im)) < 1e-9



def test_batch_eval_bits_are_pinned():
    """Float reports carry residual bits, so the evaluation order is part of
    their bytes: coefficients rounded from the numerators, terms in sorted
    exponent order, integer powers.  A digest of the values of Gaussian
    jets at complex points pins it."""
    rng = random.Random(3)
    jets = [random_jet(rng, num_vars=2, order=7, max_terms=25) for _ in range(4)]
    pts = [tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
           for _ in range(30)]
    values = [v for f in jets for v in batch_eval(f, pts)]
    text = " ".join(f"{v.real.hex()},{v.imag.hex()}" for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8d82db5f7f26438e234e88a528b07b74bdb6f9c0605d7799302896793fd6ca48")
