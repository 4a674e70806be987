"""Float batch evaluation agrees with exact evaluation; chain audits."""

import random
from fractions import Fraction as F

from germglue.atlas import GermTransition, audit_transitivity, run_glue_pipeline
from germglue.jets import Jet, PolyMap, identity_map, jet_add, jet_const, map_eval
from germglue.numeval import batch_eval_map, float_transition_audit
from germglue.scalars import Coeff

from .test_atlas import identity_atlas, scaling_atlas


def random_jet(rng: random.Random, num_vars: int, order: int, max_terms: int) -> Jet:
    terms = {}
    for _ in range(max_terms):
        exp = [0] * num_vars
        budget = rng.randrange(order + 1)
        for _ in range(budget):
            exp[rng.randrange(num_vars)] += 1
        value = Coeff(F(rng.randrange(-9, 10), rng.randrange(1, 7)),
                      F(rng.randrange(-9, 10), rng.randrange(1, 7)))
        if not value.is_zero():
            terms[tuple(exp)] = value
    return Jet(num_vars, order, terms)


def random_points(rng: random.Random, count: int, num_vars: int):
    return [
        tuple(Coeff(F(rng.randrange(-40, 41), 64), F(rng.randrange(-40, 41), 64))
              for _ in range(num_vars))
        for _ in range(count)
    ]


def test_batch_map_matches_exact_eval():
    rng = random.Random(11)
    for _ in range(5):
        comps = [random_jet(rng, num_vars=3, order=4, max_terms=12) for _ in range(2)]
        f = PolyMap(3, comps)
        points = random_points(rng, 17, 3)
        got = batch_eval_map(f, [tuple(complex(c.re, c.im) for c in pt) for pt in points])
        assert len(got) == len(points)
        for row, pt in zip(got, points):
            exact = map_eval(f, pt)
            assert max(abs(v - complex(c.re, c.im)) for v, c in zip(row, exact)) < 1e-9


def test_float_audit_exact_cocycle_has_tiny_residuals():
    _, atlas = run_glue_pipeline(scaling_atlas(), samples=10)
    audit = float_transition_audit(atlas.cover, chains=40, seed=5)
    assert audit["ok"]
    assert audit["violations"] == 0
    assert audit["chains_verified"] == 40
    assert audit["max_residual"] < 1e-12
    assert audit["backend"] == "python"
    # pinned at the bits of the numpy term-table kernel this evaluator replaced
    assert (audit["max_residual"].hex(), audit["violations"], audit["attempts"]) == (
        "0x0.0p+0", 0, 56)


def test_float_audit_flags_tampered_transition():
    inp = identity_atlas()
    _, atlas = run_glue_pipeline(inp, samples=10)
    old = inp.transitions[("A", "C")]
    drifted = identity_map(2, 3)
    comps = list(drifted.components)
    comps[0] = jet_add(comps[0], jet_const(2, 3, Coeff(F(1, 7))))
    inp.transitions[("A", "C")] = GermTransition(
        "A", "C", old.domain, PolyMap(2, comps)
    )
    audit = float_transition_audit(atlas.cover, chains=60, seed=2)
    assert not audit["ok"]
    assert audit["violations"] > 0
    assert audit["max_residual"] > 1e-3
    # pinned at the bits of the numpy term-table kernel this evaluator replaced
    assert (audit["max_residual"].hex(), audit["violations"], audit["attempts"]) == (
        "0x1.2492492492494p-3", 29, 62)


def test_float_audit_deterministic_for_seed():
    _, atlas = run_glue_pipeline(scaling_atlas(), samples=10)
    first = float_transition_audit(atlas.cover, chains=30, seed=9)
    second = float_transition_audit(atlas.cover, chains=30, seed=9)
    assert first == second


def test_float_and_exact_audits_share_chain_selection():
    _, atlas = run_glue_pipeline(scaling_atlas(), samples=10)
    exact = audit_transitivity(atlas.cover, chains=30, seed=4)
    numeric = float_transition_audit(atlas.cover, chains=30, seed=4)
    assert exact["attempts"] > exact["chains_verified"] == 30
    assert numeric["attempts"] == exact["attempts"]
    assert numeric["chains_verified"] == exact["chains_verified"]
