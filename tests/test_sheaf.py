"""Sheaf-data validation and gluing over glued atlases."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from germglue.atlas import GermAtlasInput, GermTransition, run_glue_pipeline
from germglue.errors import AgreementError, ShapeError, ShrinkExhausted, ValidationFailure
from germglue.jets import identity_map, jet_add, jet_from_terms, jet_neg
from germglue.matrices import (
    JetMatrix,
    jet_reciprocal,
    matrix_identity,
    matrix_inverse,
    matrix_mul,
)
from germglue.regions import Polydisc, TubeDomain, polydisc_common_point
from germglue.scalars import Coeff
from germglue.sheaf import (
    GluedSheaf,
    SheafInput,
    _zero_section_matrix,
    glue_sheaf,
    glue_sheaf_morphism,
    validate_sheaf_cocycle,
)

from .oracles import oracle_matmul, oracle_sheaf_cocycle
from .test_atlas import disc_chart, full_tube, identity_atlas, pinch_atlas

F = Fraction


def jet(nv, order, terms):
    return jet_from_terms(nv, order, [(e, Coeff(c)) for e, c in terms])


def unipotent_tz(order: int) -> JetMatrix:
    """[[1, t z], [0, 1]] over (t, z)."""
    one = jet(2, order, [((0, 0), 1)])
    tz = jet(2, order, [((1, 1), 1)])
    zero = jet(2, order, [])
    return JetMatrix([[one, tz], [zero, one]])


def unipotent_tz_inverse(order: int) -> JetMatrix:
    one = jet(2, order, [((0, 0), 1)])
    neg = jet(2, order, [((1, 1), -1)])
    zero = jet(2, order, [])
    return JetMatrix([[one, neg], [zero, one]])


@pytest.fixture(scope="module")
def pinch_glued():
    _, atlas = run_glue_pipeline(pinch_atlas(), samples=10)
    return atlas


@pytest.fixture(scope="module")
def identity_glued():
    _, atlas = run_glue_pipeline(identity_atlas(), samples=10)
    return atlas


@pytest.fixture(scope="module")
def sparse_glued():
    """Identity charts at 0, 1/2 and 3: only A and B overlap."""
    charts = {cid: disc_chart(c) for cid, c in zip("ABC", (F(0), F(1, 2), F(3)))}
    ident = identity_map(2, 3)
    transitions = [GermTransition(i, j, full_tube(i, charts[i]), ident)
                   for i in charts for j in charts if i != j]
    _, atlas = run_glue_pipeline(GermAtlasInput(1, 1, 3, charts, transitions), samples=10)
    return atlas


def wide_domain(chart, center: Fraction, fiber: Fraction = F(1)) -> TubeDomain:
    return TubeDomain(chart, Polydisc([Coeff(center)], [F(7, 10)]), 1, fiber)


def rank2_input(order: int = 6) -> SheafInput:
    dom = wide_domain("A", F(1, 20), F(1, 2))
    base_identity = matrix_identity(2, 1, order)
    return SheafInput(
        ranks={"A": 2, "B": 2},
        domains={("A", "B"): dom},
        matrices={
            ("A", "B"): unipotent_tz(order),
            ("B", "A"): unipotent_tz_inverse(order),
        },
        base_transitions={("A", "B"): base_identity},
    )


def test_validate_rank2_unipotent():
    report = validate_sheaf_cocycle(rank2_input())
    assert report["valid"]
    assert report["pairs_checked"] == 2
    assert report["det_lower_bounds"][("A", "B")] > 0


def test_validate_identity_family_with_triple():
    order = 3
    ident = matrix_identity(2, 2, order)
    doms = {
        (i, j): wide_domain(i, F(1, 10))
        for i in "ABC"
        for j in "ABC"
        if i < j
    }
    inp = SheafInput(
        ranks={c: 2 for c in "ABC"},
        domains=doms,
        matrices={(i, j): ident for i in "ABC" for j in "ABC" if i != j},
        triple_domains={("A", "B", "C"): wide_domain("A", F(1, 10))},
    )
    report = validate_sheaf_cocycle(inp)
    assert report["valid"]
    assert report["triples_checked"] == 1


def test_cocycle_perturbation_names_triple_and_entry():
    order = 3
    ident = matrix_identity(2, 2, order)
    bumped = JetMatrix([
        [jet(2, order, [((0, 0), 1)]), jet(2, order, [((1, 0), 1)])],
        [jet(2, order, []), jet(2, order, [((0, 0), 1)])],
    ])
    doms = {
        (i, j): wide_domain(i, F(1, 10))
        for i in "ABC"
        for j in "ABC"
        if i < j
    }
    matrices = {(i, j): ident for i in "ABC" for j in "ABC" if i != j}
    matrices[("A", "C")] = bumped
    matrices[("C", "A")] = JetMatrix([
        [jet(2, order, [((0, 0), 1)]), jet(2, order, [((1, 0), -1)])],
        [jet(2, order, []), jet(2, order, [((0, 0), 1)])],
    ])
    inp = SheafInput(
        ranks={c: 2 for c in "ABC"},
        domains=doms,
        matrices=matrices,
        triple_domains={("A", "B", "C"): wide_domain("A", F(1, 10))},
    )
    with pytest.raises(ValidationFailure) as exc:
        validate_sheaf_cocycle(inp)
    cocycle = [v for v in exc.value.report["violations"] if v["kind"] == "cocycle"]
    assert cocycle
    assert cocycle[0]["entry"] == [0, 1] or tuple(cocycle[0]["entry"]) == (0, 1)
    assert cocycle[0]["exponent"] == [1, 0]


def gauge_sheaf(ids: str = "ABCD", order: int = 3) -> SheafInput:
    """Rank-2 cocycle g_ij = G_j G_i^-1 with non-commuting unimodular gauges
    G_i = [[1, 0], [q_i, 1]] [[1, p_i], [0, 1]]; a domain on every pair and
    every triple."""
    one, zero = jet(2, order, [((0, 0), 1)]), jet(2, order, [])
    gauges = {}
    for n, cid in enumerate(ids):
        p = jet(2, order, [((1, 0), F(1, 3 + n)), ((0, 1), F(-1, 4))])
        q = jet(2, order, [((0, 1), F(1, 5)), ((1, 1), F(n, 3))])
        lower = JetMatrix([[one, zero], [q, one]])
        upper = JetMatrix([[one, p], [zero, one]])
        lower_inv = JetMatrix([[one, zero], [jet_neg(q), one]])
        upper_inv = JetMatrix([[one, jet_neg(p)], [zero, one]])
        gauges[cid] = (oracle_matmul(lower, upper), oracle_matmul(upper_inv, lower_inv))
    base = Polydisc([Coeff(F(1, 10))], [F(1)])
    return SheafInput(
        ranks={c: 2 for c in ids},
        domains={key: TubeDomain(key[0], base, 1, F(1, 4))
                 for key in combinations(ids, 2)},
        matrices={(i, j): oracle_matmul(gauges[j][0], gauges[i][1])
                  for i in ids for j in ids if i != j},
        triple_domains={key: TubeDomain(key[0], base, 1, F(1, 4))
                        for key in combinations(ids, 3)},
    )


def validation_report(inp) -> dict:
    try:
        return validate_sheaf_cocycle(inp)
    except ValidationFailure as exc:
        return exc.report


def test_gauge_sheaf_validates():
    report = validate_sheaf_cocycle(gauge_sheaf())
    assert report["valid"]
    assert report["triples_checked"] == 4
    assert oracle_sheaf_cocycle(gauge_sheaf()) == []


@settings(max_examples=20, deadline=None)
@given(
    pair=st.sampled_from([(i, j) for i in "ABCD" for j in "ABCD" if i != j]),
    keep_inverse=st.booleans(),
    entry=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    exponent=st.sampled_from([(0, 1), (1, 1), (0, 2), (2, 1)]),
    coeff=st.sampled_from([F(1), F(-1, 2), F(3, 7), F(-1, 3)]),
)
def test_validation_matches_all_orderings_oracle(pair, keep_inverse, entry,
                                                 exponent, coeff):
    # Perturb one matrix of a valid sheaf by a term that vanishes on the
    # zero section (so its determinant stays certified); with keep_inverse
    # the reverse matrix becomes its exact inverse, and only cocycles fail.
    inp = gauge_sheaf()
    rows = [list(row) for row in inp.matrices[pair].entries]
    r, c = entry
    rows[r][c] = jet_add(rows[r][c], jet(2, 3, [(exponent, coeff)]))
    inp.matrices[pair] = JetMatrix(rows)
    if keep_inverse:
        inp.matrices[pair[::-1]] = matrix_inverse(inp.matrices[pair])
    report = validation_report(inp)
    assert report["violations"] == oracle_sheaf_cocycle(inp)
    assert report["triples_checked"] == len(inp.triple_domains)
    assert not report["valid"]


def test_triple_domain_missing_a_pair_is_a_cocycle_violation():
    # with no g_AC, g_CA or A_AC, no ordering of (A, B, C) or (A, C, D) can
    # be multiplied out: neither triple counts as checked
    inp = gauge_sheaf()
    del inp.matrices[("A", "C")], inp.matrices[("C", "A")], inp.domains[("A", "C")]
    with pytest.raises(ValidationFailure) as exc:
        validate_sheaf_cocycle(inp)
    report = exc.value.report
    assert report["violations"] == [
        {"kind": "cocycle", "triple": list(t), "pair": ["A", "C"],
         "detail": "missing transition over a triple overlap"}
        for t in (("A", "B", "C"), ("A", "C", "D"))
    ]
    assert report["triples_checked"] == 2


def test_validation_multiplies_one_side_and_one_ordering(monkeypatch):
    import germglue.sheaf

    calls = []
    real = germglue.sheaf.matrix_mul

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(germglue.sheaf, "matrix_mul", counted)
    assert validate_sheaf_cocycle(gauge_sheaf())["valid"]
    # six inverse pairs on one side, one ordering of each of four triples
    assert len(calls) == 10


def test_inverse_pair_violation_reported():
    inp = rank2_input()
    inp.matrices[("B", "A")] = unipotent_tz(6)
    with pytest.raises(ValidationFailure) as exc:
        validate_sheaf_cocycle(inp)
    assert any(v["kind"] == "inverse_pair" for v in exc.value.report["violations"])


def test_asymmetric_domains_rejected():
    order = 3
    ident = matrix_identity(1, 2, order)
    with pytest.raises(ValidationFailure):
        SheafInput(
            ranks={"A": 1, "B": 1},
            domains={
                ("A", "B"): wide_domain("A", F(0)),
                ("B", "A"): wide_domain("B", F(0), F(1, 2)),
            },
            matrices={("A", "B"): ident, ("B", "A"): ident},
        )


def test_determinant_zero_on_domain_rejected():
    order = 4
    one = jet(2, order, [((0, 0), 1)])
    zero = jet(2, order, [])
    one_plus_t = jet(2, order, [((0, 0), 1), ((1, 0), 1)])
    recip = jet_reciprocal(one_plus_t)
    g = JetMatrix([[one_plus_t, zero], [zero, one]])
    ginv = JetMatrix([[recip, zero], [zero, one]])
    dom = TubeDomain("A", Polydisc([Coeff(0)], [F(6, 5)]), 1, F(1))
    inp = SheafInput(
        ranks={"A": 2, "B": 2},
        domains={("A", "B"): dom},
        matrices={("A", "B"): g, ("B", "A"): ginv},
    )
    with pytest.raises(ValidationFailure) as exc:
        validate_sheaf_cocycle(inp)
    assert any(v["kind"] == "determinant" for v in exc.value.report["violations"])


def test_base_transition_mismatch_reported():
    inp = rank2_input()
    bad = JetMatrix([
        [jet(1, 6, [((0,), 1)]), jet(1, 6, [((1,), 1)])],
        [jet(1, 6, []), jet(1, 6, [((0,), 1)])],
    ])
    inp.base_transitions[("A", "B")] = bad
    with pytest.raises(ValidationFailure) as exc:
        validate_sheaf_cocycle(inp)
    assert any(v["kind"] == "base_transition" for v in exc.value.report["violations"])


def test_validator_rejects_a_base_transition_over_the_total_space():
    # g_AB itself as its own base transition: over the total space its entry
    # t*z survives, so the validator must not take it as base data
    inp = rank2_input()
    inp.base_transitions[("A", "B")] = inp.matrices[("A", "B")]
    with pytest.raises(ShapeError, match=r"^base transition \('A', 'B'\) has 2 variables, "
                                         r"the base of A_ij has 1$"):
        validate_sheaf_cocycle(inp)


def test_base_transition_without_a_usable_matrix_is_a_violation():
    # (A, C) has no matrix and Z is no chart: neither base transition can be
    # compared with a zero-section restriction
    inp = gauge_sheaf("ABC")
    del inp.matrices[("A", "C")], inp.matrices[("C", "A")], inp.domains[("A", "C")]
    inp.triple_domains.clear()
    base = matrix_identity(2, 1, 3)
    inp.base_transitions.update({("A", "C"): base, ("Z", "A"): base})
    with pytest.raises(ValidationFailure) as exc:
        validate_sheaf_cocycle(inp)
    assert exc.value.report["violations"] == [
        {"kind": "base_transition", "pair": list(pair),
         "detail": "declared base data on a pair with no usable matrix"}
        for pair in (("A", "C"), ("Z", "A"))
    ]


def test_pairs_checked_counts_the_pairs_whose_inverse_check_ran():
    # (A, B) is shape-bad, so neither it nor (B, A), left without a usable
    # reverse, reaches an inverse check: 10 of the 12 declared pairs do
    inp = gauge_sheaf()
    inp.matrices[("A", "B")] = matrix_identity(3, 2, 3)
    report = validation_report(inp)
    assert report["pairs_checked"] == 10
    assert [(v["kind"], v["pair"]) for v in report["violations"][:2]] == [
        ("shape", ["A", "B"]), ("inverse_pair", ["B", "A"])]


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def test_glue_rank2_over_pinch_atlas(pinch_glued):
    sheaf = glue_sheaf(rank2_input(), pinch_glued)
    assert isinstance(sheaf, GluedSheaf)
    r = pinch_glued.cover.radii
    assert sheaf.epsilons["A"] == min(r["A"], F(1, 2))
    assert sheaf.epsilons["B"] == min(r["B"], F(1, 2))
    assert sheaf.zero_section[("A", "B")] == matrix_identity(2, 1, 6)
    assert sheaf.zero_section.keys() == {("A", "B"), ("B", "A")}
    for key, zs in sheaf.zero_section.items():
        assert zs == _zero_section_matrix(sheaf.matrices[key], 1)
    assert sheaf.det_bounds[("A", "B")] > 0


def test_glue_identity_sheaf_keeps_atlas_radii(identity_glued):
    order = 3
    ident = matrix_identity(2, 2, order)
    doms = {
        (i, j): TubeDomain(i, Polydisc([Coeff(F(1, 10))], [F(1)]), 1, F(1))
        for i in "ABC"
        for j in "ABC"
        if i < j
    }
    inp = SheafInput(
        ranks={c: 2 for c in "ABC"},
        domains=doms,
        matrices={(i, j): ident for i in "ABC" for j in "ABC" if i != j},
        triple_domains={
            ("A", "B", "C"): TubeDomain(
                "A", Polydisc([Coeff(F(1, 10))], [F(1)]), 1, F(1)
            )
        },
    )
    sheaf = glue_sheaf(inp, identity_glued)
    assert sheaf.epsilons == identity_glued.cover.radii


def test_glue_computes_each_determinant_once(identity_glued, monkeypatch):
    import germglue.sheaf

    inp = gauge_sheaf("ABC")
    expected = validate_sheaf_cocycle(inp)["det_lower_bounds"]
    calls = []
    real = germglue.sheaf.matrix_det

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(germglue.sheaf, "matrix_det", counted)
    sheaf = glue_sheaf(inp, identity_glued)
    assert len(calls) == len(sheaf.pair_tubes) == 6
    assert sheaf.det_bounds.keys() == expected.keys()
    assert all(b > 0 for b in sheaf.det_bounds.values())


def test_glue_decides_each_declared_domain_once(identity_glued, monkeypatch):
    import germglue.sheaf

    inp = gauge_sheaf("ABC")
    calls = []
    real = germglue.sheaf._lens_fits

    def counted(us, target):
        calls.append(target)
        return real(us, target)

    monkeypatch.setattr(germglue.sheaf, "_lens_fits", counted)
    glue_sheaf(inp, identity_glued)
    declared = [key for key in inp.domains if key[0] != key[1]] + list(inp.triple_domains)
    assert len(calls) == len(declared) == 4


def test_glue_accepts_domains_off_the_nerve_without_a_fit(sparse_glued, monkeypatch):
    import germglue.sheaf

    inp = gauge_sheaf("ABC")
    cover = sparse_glued.cover
    off = [key for key in [*inp.domains, *inp.triple_domains]
           if key not in sparse_glued.nerve_pairs + sparse_glued.nerve_triples]
    assert off == [("A", "C"), ("B", "C"), ("A", "B", "C")]
    for key in off:
        assert polydisc_common_point([cover.triples[c].U for c in key]) is None
    calls = []
    real = germglue.sheaf._lens_fits

    def counted(us, target):
        calls.append(us)
        return real(us, target)

    monkeypatch.setattr(germglue.sheaf, "_lens_fits", counted)
    sheaf = glue_sheaf(inp, sparse_glued)
    assert calls == [[cover.triples["A"].U, cover.triples["B"].U]]
    assert sheaf.epsilons == {cid: min(cover.radii[cid], F(1, 4)) for cid in "ABC"}


@pytest.mark.parametrize("key", [("A", "Z"), ("Y", "Z"), ("A", "B", "Z")])
def test_glue_rejects_a_domain_on_an_unknown_chart(identity_glued, key):
    inp = gauge_sheaf("ABC")
    dom = TubeDomain(key[0], Polydisc([Coeff(F(1, 10))], [F(1)]), 1, F(1, 4))
    if len(key) == 2:
        inp.domains[key] = dom
    else:
        inp.triple_domains[key] = dom
    with pytest.raises(ShapeError, match=r"references an unknown chart$"):
        glue_sheaf(inp, identity_glued)


def test_glue_single_chart_free_module(identity_glued):
    inp = SheafInput(ranks={"A": 3}, domains={}, matrices={})
    sheaf = glue_sheaf(inp, identity_glued)
    assert sheaf.epsilons["A"] == identity_glued.cover.radii["A"]
    assert sheaf.pair_tubes == {}


def test_glue_rejects_undersized_domain(pinch_glued):
    inp = rank2_input()
    tiny = TubeDomain("A", Polydisc([Coeff(F(1, 20))], [F(1, 100)]), 1, F(1, 2))
    inp.domains[("A", "B")] = tiny
    with pytest.raises(ShrinkExhausted):
        glue_sheaf(inp, pinch_glued)


@pytest.mark.parametrize("tiny_pairs, tiny_triple, message", [
    ([("B", "C")], False, r"^pair overlap \('B', 'C'\) not certified inside A domain$"),
    ([], True, r"^triple overlap \('A', 'B', 'C'\) not certified inside B domain$"),
    # chart A's loop reads the triple domain before chart B's reads (B, C)
    ([("B", "C")], True,
     r"^triple overlap \('A', 'B', 'C'\) not certified inside B domain$"),
    ([("A", "C"), ("B", "C")], True,
     r"^pair overlap \('A', 'C'\) not certified inside A domain$"),
])
def test_glue_names_the_first_domain_that_does_not_fit(
        identity_glued, tiny_pairs, tiny_triple, message):
    inp = gauge_sheaf("ABC")
    tiny = Polydisc([Coeff(F(1, 10))], [F(1, 100)])
    for key in tiny_pairs:
        inp.domains[key] = TubeDomain(key[0], tiny, 1, F(1, 4))
    if tiny_triple:
        inp.triple_domains[("A", "B", "C")] = TubeDomain("A", tiny, 1, F(1, 4))
    with pytest.raises(ShrinkExhausted, match=message):
        glue_sheaf(inp, identity_glued)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def test_identity_morphism_is_isomorphism(pinch_glued):
    sheaf = glue_sheaf(rank2_input(), pinch_glued)
    ident = matrix_identity(2, 2, 6)
    morph = glue_sheaf_morphism(sheaf, sheaf, {"A": ident, "B": ident})
    assert morph.isomorphism
    assert morph.epsilons == sheaf.epsilons


def test_global_scalar_morphism(pinch_glued):
    sheaf = glue_sheaf(rank2_input(), pinch_glued)
    two = JetMatrix([
        [jet(2, 6, [((0, 0), 2)]), jet(2, 6, [])],
        [jet(2, 6, []), jet(2, 6, [((0, 0), 2)])],
    ])
    morph = glue_sheaf_morphism(sheaf, sheaf, {"A": two, "B": two})
    assert morph.isomorphism


def test_zero_morphism_is_not_an_isomorphism(pinch_glued):
    sheaf = glue_sheaf(rank2_input(), pinch_glued)
    zero = JetMatrix([[jet(2, 6, []), jet(2, 6, [])], [jet(2, 6, []), jet(2, 6, [])]])
    morph = glue_sheaf_morphism(sheaf, sheaf, {"A": zero, "B": zero})
    assert morph.isomorphism is False


def test_morphism_rejects_a_pair_the_target_lacks(pinch_glued):
    sheaf = glue_sheaf(rank2_input(), pinch_glued)
    target = glue_sheaf(rank2_input(), pinch_glued)
    del target.matrices[("B", "A")]
    ident = matrix_identity(2, 2, 6)
    with pytest.raises(ShapeError, match=r"^target sheaf lacks transition \('B', 'A'\)$"):
        glue_sheaf_morphism(sheaf, target, {"A": ident, "B": ident})


def test_overlap_disagreement_rejected(pinch_glued):
    sheaf = glue_sheaf(rank2_input(), pinch_glued)
    ident = matrix_identity(2, 2, 6)
    bumped = JetMatrix([
        [jet(2, 6, [((0, 0), 1)]), jet(2, 6, [((0, 1), 1)])],
        [jet(2, 6, []), jet(2, 6, [((0, 0), 1)])],
    ])
    with pytest.raises(AgreementError) as exc:
        glue_sheaf_morphism(sheaf, sheaf, {"A": ident, "B": bumped})
    assert "'A'" in str(exc.value) and "'B'" in str(exc.value)


def test_identity_family_composition_neutral(pinch_glued):
    sheaf = glue_sheaf(rank2_input(), pinch_glued)
    ident = matrix_identity(2, 2, 6)
    idm = glue_sheaf_morphism(sheaf, sheaf, {"A": ident, "B": ident})
    two = JetMatrix([
        [jet(2, 6, [((0, 0), 2)]), jet(2, 6, [])],
        [jet(2, 6, []), jet(2, 6, [((0, 0), 2)])],
    ])
    other = glue_sheaf_morphism(sheaf, sheaf, {"A": two, "B": two})
    for cid in other.matrices:
        composed = matrix_mul(other.matrices[cid], idm.matrices[cid])
        assert composed == other.matrices[cid]
