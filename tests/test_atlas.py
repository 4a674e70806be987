"""Atlas gluing pipeline: validation, shrinking, certificates, map gluing."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from germglue.atlas import (
    GermAtlasInput,
    GermTransition,
    audit_cover_certificates,
    audit_transitivity,
    build_glued_atlas,
    check_closed_relation,
    compute_overlaps,
    enforce_triple_domains,
    glue_chartwise_maps,
    run_glue_pipeline,
    sample_chains,
    shrink_tubes,
    validate_germ_data,
)
from germglue.errors import (
    AgreementError,
    CoverageLossError,
    ShrinkExhausted,
    ValidationFailure,
)
from germglue.jets import (
    PolyMap,
    identity_map,
    jet_add,
    jet_from_terms,
    map_compose,
    map_inverse,
    point_from_numerators,
)
from germglue.regions import Polydisc, TubeDomain, polydisc_common_point
from germglue.scalars import Coeff

from .oracles import oracle_atlas_cocycle, oracle_closed_audit, oracle_sample_chains

F = Fraction


def disc_chart(center: Fraction, radius: Fraction = F(1)) -> Polydisc:
    return Polydisc([Coeff(center)], [radius])


def full_tube(chart_id, w: Polydisc) -> TubeDomain:
    return TubeDomain(chart_id, w, 1, F(1))


def identity_atlas(order: int = 3) -> GermAtlasInput:
    """Three tightly packed line charts with identity transition germs."""
    charts = {
        "A": disc_chart(F(0)),
        "B": disc_chart(F(1, 10)),
        "C": disc_chart(F(1, 5)),
    }
    ident = identity_map(2, order)
    transitions = [
        GermTransition(i, j, full_tube(i, charts[i]), ident)
        for i in charts
        for j in charts
        if i != j
    ]
    return GermAtlasInput(1, 1, order, charts, transitions)


def pinch_map(order: int) -> PolyMap:
    """(t, z) -> (t, z + t z^2)."""
    t = jet_from_terms(2, order, [((1, 0), Coeff(1))])
    fiber = jet_from_terms(2, order, [((0, 1), Coeff(1)), ((1, 2), Coeff(1))])
    return PolyMap(2, [t, fiber])


def pinch_atlas(order: int = 6) -> GermAtlasInput:
    """Two charts with the fiber-pinching transition and its exact inverse."""
    charts = {"A": disc_chart(F(0)), "B": disc_chart(F(1, 10))}
    fwd = pinch_map(order)
    transitions = [
        GermTransition("A", "B", full_tube("A", charts["A"]), fwd),
        GermTransition("B", "A", full_tube("B", charts["B"]), map_inverse(fwd)),
    ]
    return GermAtlasInput(1, 1, order, charts, transitions)


def scaling_map(c: Fraction, order: int) -> PolyMap:
    """(t, z) -> (t + (c^2 - 1) z^2, c z): an exact cocycle family."""
    t = jet_from_terms(
        2, order, [((1, 0), Coeff(1)), ((0, 2), Coeff(c * c - 1))]
    )
    fiber = jet_from_terms(2, order, [((0, 1), Coeff(c))])
    return PolyMap(2, [t, fiber])


def scaling_atlas(order: int = 4, weights=(F(1), F(2), F(4))) -> GermAtlasInput:
    ids = ["A", "B", "C"]
    centers = [F(0), F(1, 10), F(1, 5)]
    charts = {cid: disc_chart(c) for cid, c in zip(ids, centers)}
    a = dict(zip(ids, weights))
    transitions = [
        GermTransition(i, j, full_tube(i, charts[i]), scaling_map(a[j] / a[i], order))
        for i in ids
        for j in ids
        if i != j
    ]
    return GermAtlasInput(1, 1, order, charts, transitions)


def broken_cocycle_atlas(order: int = 4) -> GermAtlasInput:
    """Scaling atlas with the A->C germ perturbed at z^2; its inverse is
    adjusted, so only the cocycle check can fire."""
    inp = scaling_atlas(order)
    old = inp.transitions[("A", "C")]
    perturbed = PolyMap(
        2,
        [
            jet_from_terms(
                2, order,
                [((1, 0), Coeff(1)), ((0, 2), Coeff(F(16)))],
            ),
            old.map.components[1],
        ],
    )
    inp.transitions[("A", "C")] = GermTransition("A", "C", old.domain, perturbed)
    rev = inp.transitions[("C", "A")]
    inp.transitions[("C", "A")] = GermTransition(
        "C", "A", rev.domain, map_inverse(perturbed)
    )
    return inp


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_identity_atlas():
    report = validate_germ_data(identity_atlas())
    assert report["valid"]
    assert report["transitions_checked"] == 6
    assert report["cocycle_triples_checked"] == 6


def test_validate_rejects_zero_section_drift():
    inp = identity_atlas()
    bad = PolyMap(
        2,
        [
            jet_from_terms(2, 3, [((1, 0), Coeff(1)), ((2, 0), Coeff(1))]),
            jet_from_terms(2, 3, [((0, 1), Coeff(1))]),
        ],
    )
    tr = inp.transitions[("A", "B")]
    inp.transitions[("A", "B")] = GermTransition("A", "B", tr.domain, bad)
    with pytest.raises(ValidationFailure) as exc:
        validate_germ_data(inp)
    kinds = {v["kind"] for v in exc.value.report["violations"]}
    assert "zero_section" in kinds


def test_validate_rejects_broken_inverse_pair():
    inp = pinch_atlas(order=4)
    tr = inp.transitions[("B", "A")]
    inp.transitions[("B", "A")] = GermTransition(
        "B", "A", tr.domain, pinch_map(4)
    )
    with pytest.raises(ValidationFailure) as exc:
        validate_germ_data(inp)
    assert any(v["kind"] == "inverse_pair" for v in exc.value.report["violations"])


def test_validate_names_cocycle_triple_and_exponent():
    with pytest.raises(ValidationFailure) as exc:
        validate_germ_data(broken_cocycle_atlas())
    cocycle = [v for v in exc.value.report["violations"] if v["kind"] == "cocycle"]
    assert cocycle
    first = cocycle[0]
    assert set(first["triple"]) == {"A", "B", "C"}
    assert first["component"] == 0
    assert first["exponent"] == [0, 2]


def germ(order: int, a, b, c, d) -> PolyMap:
    """(t, z) -> (t + a z^2, b z + c t z + d z^2), the identity on z = 0."""
    return PolyMap(2, [
        jet_from_terms(2, order, [((1, 0), Coeff(1)), ((0, 2), Coeff(a))]),
        jet_from_terms(2, order, [((0, 1), Coeff(b)), ((1, 1), Coeff(c)),
                                  ((0, 2), Coeff(d))]),
    ])


def cocycle_atlas(order: int = 3) -> GermAtlasInput:
    """Four packed line charts with phi_ij = h_j^-1 o h_i: a non-commuting
    exact cocycle."""
    h = {
        "A": germ(order, F(1, 2), F(1), F(1, 3), F(0)),
        "B": germ(order, F(0), F(2), F(-1, 4), F(1, 5)),
        "C": germ(order, F(-1, 3), F(1, 2), F(0), F(1, 7)),
        "D": germ(order, F(1, 5), F(3, 2), F(1, 6), F(-1, 2)),
    }
    charts = {cid: disc_chart(F(n, 10)) for n, cid in enumerate(h)}
    transitions = [
        GermTransition(i, j, full_tube(i, charts[i]),
                       map_compose(h[i], map_inverse(h[j])))
        for i in h
        for j in h
        if i != j
    ]
    return GermAtlasInput(1, 1, order, charts, transitions)


def validation_report(inp) -> dict:
    try:
        return validate_germ_data(inp)
    except ValidationFailure as exc:
        return exc.report


def test_cocycle_atlas_validates_with_all_orderings_counted():
    inp = cocycle_atlas()
    report = validate_germ_data(inp)
    assert report["valid"]
    assert report["cocycle_triples_checked"] == 24
    assert oracle_atlas_cocycle(inp) == ([], 24)


@settings(max_examples=15, deadline=None)
@given(
    pair=st.sampled_from([(i, j) for i in "ABCD" for j in "ABCD" if i != j]),
    keep_inverse=st.booleans(),
    component=st.integers(0, 1),
    exponent=st.sampled_from([(1, 1), (0, 2), (2, 1), (1, 2), (0, 3)]),
    coeff=st.sampled_from([F(1), F(-1, 2), F(3, 7), F(-5, 3)]),
)
def test_validation_matches_all_orderings_oracle(pair, keep_inverse, component,
                                                 exponent, coeff):
    # Perturb one transition of a valid atlas by a term of positive fiber
    # degree (so the zero section stays fixed); with keep_inverse its
    # reverse becomes its exact inverse, and only cocycles can fail.
    inp = cocycle_atlas()
    i, j = pair
    old = inp.transitions[pair]
    comps = list(old.map.components)
    comps[component] = jet_add(
        comps[component], jet_from_terms(2, inp.order, [(exponent, Coeff(coeff))])
    )
    bumped = PolyMap(2, comps)
    inp.transitions[pair] = GermTransition(i, j, old.domain, bumped)
    if keep_inverse:
        rev = inp.transitions[(j, i)]
        inp.transitions[(j, i)] = GermTransition(j, i, rev.domain, map_inverse(bumped))
    report = validation_report(inp)
    violations, checked = oracle_atlas_cocycle(inp)
    assert report["violations"] == violations
    assert report["cocycle_triples_checked"] == checked
    assert not report["valid"]


def test_cocycle_checked_on_every_ordering_of_a_thin_overlap():
    # A and B meet in a lens that misses C, while A and C meet in a thin
    # lens that meets B: a search narrowing the discs in list order finds a
    # common point for two orderings only.  The decision is exact, so all
    # six orderings are checked, and the broken A-C transition fails each.
    charts = {
        "A": disc_chart(F(0)),
        "B": Polydisc([Coeff(F(95, 100), F(1))], [F(1001, 1000)]),
        "C": disc_chart(F(19, 10)),
    }
    orderings = list(itertools.permutations("ABC"))
    assert all(polydisc_common_point([charts[c] for c in t]) is not None
               for t in orderings)
    broken = broken_cocycle_atlas()
    inp = GermAtlasInput(1, 1, broken.order, charts, [
        GermTransition(i, j, full_tube(i, charts[i]), tr.map)
        for (i, j), tr in broken.transitions.items()
    ])
    report = validation_report(inp)
    violations, checked = oracle_atlas_cocycle(inp)
    assert checked == 6
    assert {tuple(v["triple"]) for v in violations} == set(orderings)
    assert report["violations"] == violations
    assert report["cocycle_triples_checked"] == checked


def test_validation_decides_each_unordered_triple_once(monkeypatch):
    import germglue.atlas

    calls = []
    real = germglue.atlas.polydisc_common_point

    def counted(ps):
        calls.append(frozenset(map(id, ps)))
        return real(ps)

    monkeypatch.setattr(germglue.atlas, "polydisc_common_point", counted)
    assert validate_germ_data(cocycle_atlas())["cocycle_triples_checked"] == 24
    # four charts: one decision for each of the four unordered triples
    assert len(calls) == len(set(calls)) == 4


def test_triple_missing_a_pair_is_a_cocycle_violation():
    # with no phi_AC or phi_CA, no ordering of (A, B, C) or (A, C, D) can be
    # composed: each is one violation naming the pair, and neither counts
    inp = cocycle_atlas()
    del inp.transitions[("A", "C")], inp.transitions[("C", "A")]
    report = validation_report(inp)
    assert report["violations"] == [
        {"kind": "cocycle", "triple": list(t), "pair": ["A", "C"],
         "detail": "missing transition over a triple overlap"}
        for t in (("A", "B", "C"), ("A", "C", "D"))
    ]
    # the six orderings of (A, B, D) and of (B, C, D)
    assert report["cocycle_triples_checked"] == 12


def test_glue_refuses_a_nerve_pair_without_transitions():
    # two overlapping charts and no transition: validation has no triple to
    # walk, and the glued space would be two unidentified tubes
    charts = {"A": disc_chart(F(0)), "B": disc_chart(F(1, 10))}
    inp = GermAtlasInput(1, 1, 3, charts, [])
    assert validate_germ_data(inp)["valid"]
    with pytest.raises(ValidationFailure, match=r"^nerve pairs \[\('A', 'B'\)\] lack a "):
        run_glue_pipeline(inp, samples=10)


def test_validation_composes_one_ordering_per_triple(monkeypatch):
    import germglue.atlas

    calls = []
    real = germglue.atlas.map_compose

    def counted(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(germglue.atlas, "map_compose", counted)
    report = validate_germ_data(scaling_atlas())
    assert report["valid"] and report["cocycle_triples_checked"] == 6
    # three inverse pairs and one ordering of the one triple
    assert len(calls) == 4


def test_diagonal_transition_must_be_identity():
    charts = {"A": disc_chart(F(0))}
    with pytest.raises(ValidationFailure):
        GermAtlasInput(
            1, 1, 4, charts,
            [GermTransition("A", "A", full_tube("A", charts["A"]), pinch_map(4))],
        )


# ---------------------------------------------------------------------------
# pipeline on the identity atlas
# ---------------------------------------------------------------------------


def test_identity_pipeline_full_fiber_and_nerve():
    inp = identity_atlas()
    report, atlas = run_glue_pipeline(inp, samples=50)
    assert report["valid"]
    # overlap tubes keep the full declared fiber: no fiber loss for identities
    for data in atlas.cover.overlaps.values():
        assert not data.vacuous
        assert data.o_inner.fiber_radius == F(1)
    assert atlas.cover.halvings == 0
    # glued transitions are the input identities
    ident = identity_map(2, 3)
    for tr in inp.transitions.values():
        assert tr.map == ident
    assert atlas.certificates["hausdorff"]["holds"] is True
    assert atlas.certificates["hausdorff"]["margin"] > 0
    assert atlas.nerve_pairs == [("A", "B"), ("A", "C"), ("B", "C")]
    assert atlas.nerve_triples == [("A", "B", "C")]


def test_identity_triple_certificates_nonvacuous():
    inp = identity_atlas()
    _, atlas = run_glue_pipeline(inp, samples=10)
    nonvac = [c for c in atlas.triple_certs.values() if not c.vacuous]
    assert nonvac
    for cert in nonvac:
        assert cert.domain_margin > 0


# ---------------------------------------------------------------------------
# pinch atlas: nontrivial fiber transition
# ---------------------------------------------------------------------------


def test_pinch_pipeline_certificates_and_audit():
    inp = pinch_atlas()
    report, atlas = run_glue_pipeline(inp, samples=100, seed=7)
    assert report["valid"]
    for cert in atlas.cover.pairs.values():
        assert not cert.vacuous
        assert cert.margin > 0
    audit = audit_cover_certificates(atlas.cover, atlas.triple_certs,
                                     samples=400, seed=11)
    assert audit["violations"] == {k: 0 for k in "abcde"}
    assert audit["checked"]["c"] > 0
    assert audit["checked"]["d"] > 0
    sep = atlas.closedness["audit"]
    assert sep["separated"] > 0
    assert sep["min_separation"] is None or sep["min_separation"] > 0


def test_pinch_inverse_is_exact_at_order():
    inp = pinch_atlas()
    fwd = inp.transitions[("A", "B")].map
    rev = inp.transitions[("B", "A")].map
    assert map_compose(fwd, rev) == identity_map(2, 6)
    assert map_compose(rev, fwd) == identity_map(2, 6)


# ---------------------------------------------------------------------------
# scaling atlas: exact cocycle, sampled transitivity
# ---------------------------------------------------------------------------


def test_scaling_pipeline_and_transitivity_chains():
    inp = scaling_atlas()
    report, atlas = run_glue_pipeline(inp, samples=50, seed=3)
    assert report["valid"]
    audit = audit_transitivity(atlas.cover, chains=200, seed=5)
    assert audit["chains_verified"] == 200
    assert audit["violations"] == 0


def test_transitivity_without_chains_reports_zero_attempts():
    _, atlas = run_glue_pipeline(pinch_atlas(), samples=10)
    audit = audit_transitivity(atlas.cover, chains=50, seed=1)
    assert audit["attempts"] == 0
    assert audit["chains_verified"] == audit["violations"] == 0


def test_broken_cocycle_blocks_pipeline():
    with pytest.raises(ValidationFailure):
        run_glue_pipeline(broken_cocycle_atlas())


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_shallow_overlap_exhausts_witness_search():
    charts = {"A": disc_chart(F(0)), "B": disc_chart(F(1))}
    ident = identity_map(2, 3)
    inp = GermAtlasInput(
        1, 1, 3, charts,
        [
            GermTransition("A", "B", full_tube("A", charts["A"]), ident),
            GermTransition("B", "A", full_tube("B", charts["B"]), ident),
        ],
    )
    report = validate_germ_data(inp)
    assert report["valid"]
    from germglue.regions import refine_cover

    triple_list = refine_cover([charts["A"], charts["B"]])
    triples = dict(zip(["A", "B"], triple_list))
    with pytest.raises(ShrinkExhausted):
        compute_overlaps(inp, triples)


def test_n_max_exhaustion():
    with pytest.raises(ShrinkExhausted):
        run_glue_pipeline(pinch_atlas(), radius_floor=Fraction(1))


def _cover_triples(inp: GermAtlasInput) -> dict:
    from germglue.regions import refine_cover

    ids = sorted(inp.charts)
    return dict(zip(ids, refine_cover([inp.charts[c] for c in ids])))


def test_overlap_margin_search_names_the_radius_floor():
    inp = identity_atlas()
    tight = TubeDomain("A", Polydisc([Coeff(F(1, 20))], [F(1, 100)]), 1, F(1))
    inp.transitions[("A", "B")] = GermTransition("A", "B", tight, identity_map(2, 3))
    with pytest.raises(ShrinkExhausted, match=(
            r"^pair \('A', 'B'\): witness base does not fit inside the declared "
            r"transition tube; radius floor 1/64 reached$")):
        compute_overlaps(inp, _cover_triples(inp), radius_floor=F(1, 64))


def test_overlap_fiber_search_names_the_radius_floor():
    # phi_AB moves the base by (32^2 - 1) z^2: no fiber radius of 1/4 or
    # more keeps the image inside the V overlap
    inp = scaling_atlas(order=3, weights=(F(1), F(32), F(1024)))
    with pytest.raises(ShrinkExhausted, match=(
            r"^pair \('A', 'B'\): no certified fiber radius keeps the base image "
            r"inside the V overlap; radius floor 1/4 reached$")):
        compute_overlaps(inp, _cover_triples(inp), radius_floor=F(1, 4))


def test_pair_bounds_recentre_nothing(monkeypatch):
    """Both shrink stages read each pair's bound from its coarse profiles:
    no halving recentres a jet or intersects polydiscs for a pair bound."""
    import germglue.atlas
    import germglue.regions

    inp = scaling_atlas(order=3, weights=(F(1), F(8), F(64)))
    triples = _cover_triples(inp)
    overlaps = compute_overlaps(inp, triples)
    inside, bounded, seen = [], [], []
    for module, name in [(germglue.regions, "_recentered"),
                         (germglue.regions, "range_bound"),
                         (germglue.regions, "polydisc_intersection_outer"),
                         (germglue.atlas, "polydisc_intersection_outer")]:
        def watched(*args, _real=getattr(module, name), _name=name):
            if inside:
                seen.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, watched)
    real = germglue.atlas._pair_outer_bound

    def bound(inp, triples, overlaps, i, j, fiber_radius):
        bounded.append(fiber_radius)
        inside.append((i, j))
        try:
            return real(inp, triples, overlaps, i, j, fiber_radius)
        finally:
            inside.pop()

    monkeypatch.setattr(germglue.atlas, "_pair_outer_bound", bound)
    cover = shrink_tubes(inp, triples, overlaps)
    enforce_triple_domains(cover)
    assert cover.halvings == 1 and len(set(bounded)) > 1
    assert seen == []


def test_coverage_loss_reported():
    inp = identity_atlas()
    inp = GermAtlasInput(
        1, 1, 3, inp.charts,
        list(inp.transitions.values()),
        base_points=[(Coeff(F(9, 10)),)],
    )
    with pytest.raises(CoverageLossError):
        run_glue_pipeline(inp)


# ---------------------------------------------------------------------------
# gluing chart-wise maps
# ---------------------------------------------------------------------------


def test_identity_chart_maps_glue_with_input_radii():
    inp = pinch_atlas()
    _, atlas = run_glue_pipeline(inp, samples=10)
    ident = identity_map(2, 6)
    glued = glue_chartwise_maps(atlas, atlas, {"A": ident, "B": ident})
    assert glued.epsilons == atlas.cover.radii
    for cid, dom in glued.domains.items():
        assert dom.fiber_radius == atlas.cover.radii[cid]
        assert dom.base == atlas.cover.triples[cid].U


def test_disagreeing_chart_maps_rejected_with_pair():
    inp = identity_atlas()
    _, atlas = run_glue_pipeline(inp, samples=10)
    ident = identity_map(2, 3)
    bumped = PolyMap(
        2,
        [
            ident.components[0],
            jet_from_terms(2, 3, [((0, 1), Coeff(1)), ((0, 2), Coeff(1))]),
        ],
    )
    with pytest.raises(AgreementError) as exc:
        glue_chartwise_maps(atlas, atlas, {"A": ident, "B": bumped, "C": ident})
    msg = str(exc.value)
    assert "'A'" in msg and "'B'" in msg
    assert "[0, 2]" in msg


def test_chart_map_must_fix_zero_section():
    inp = identity_atlas()
    _, atlas = run_glue_pipeline(inp, samples=10)
    ident = identity_map(2, 3)
    drifting = PolyMap(
        2,
        [
            ident.components[0],
            jet_from_terms(2, 3, [((0, 1), Coeff(1)), ((1, 0), Coeff(1))]),
        ],
    )
    with pytest.raises(ValidationFailure):
        glue_chartwise_maps(atlas, atlas, {"A": ident, "B": drifting, "C": ident})


def test_chart_map_search_names_the_radius_floor():
    _, atlas = run_glue_pipeline(identity_atlas(), samples=10)
    # (t, z) -> (t + 10^6 z^2, z) fixes the zero section and agrees with the
    # identity transitions, but moves the base too far at every radius
    push = PolyMap(2, [
        jet_from_terms(2, 3, [((1, 0), Coeff(1)), ((0, 2), Coeff(10**6))]),
        identity_map(2, 3).components[1],
    ])
    with pytest.raises(ShrinkExhausted, match=(
            r"^chart map 'A' not certified; radius floor 1/64 reached$")):
        glue_chartwise_maps(atlas, atlas, {c: push for c in "ABC"}, radius_floor=F(1, 64))


# ---------------------------------------------------------------------------
# assembly guards
# ---------------------------------------------------------------------------


def shrunk_cover(inp: GermAtlasInput):
    """The cover as the pipeline hands it to the triple stage."""
    triples = _cover_triples(inp)
    overlaps = compute_overlaps(inp, triples)
    return shrink_tubes(inp, triples, overlaps)


def test_build_requires_closedness():
    cover = shrunk_cover(identity_atlas())
    certs = enforce_triple_domains(cover)
    with pytest.raises(Exception):
        build_glued_atlas(cover, certs, {"closed": False})
    closed = check_closed_relation(cover, samples=20)
    atlas = build_glued_atlas(cover, certs, closed)
    assert atlas.certificates["equivalence_relation"]["symmetric"] is True


def test_build_reads_symmetry_from_inverse_pair_triples():
    cover = shrunk_cover(identity_atlas())
    certs = enforce_triple_domains(cover)
    closed = check_closed_relation(cover, samples=20)
    key = ("A", "B", "A")
    assert not certs[key].vacuous
    del certs[key]
    atlas = build_glued_atlas(cover, certs, closed)
    assert atlas.certificates["equivalence_relation"]["symmetric"] is False
    assert atlas.certificates["hausdorff"]["holds"] is False


def test_triple_stage_composes_each_triple_once(monkeypatch):
    import germglue.atlas

    cover = shrunk_cover(scaling_atlas(order=3, weights=(F(1), F(8), F(64))))
    calls = []
    real = germglue.atlas.map_compose

    def counted(f, g, *rest):
        calls.append((f, g))
        return real(f, g, *rest)

    monkeypatch.setattr(germglue.atlas, "map_compose", counted)
    certs = enforce_triple_domains(cover)
    assert cover.halvings == 1
    assert 0 < len(calls) <= len(certs)


def test_triple_stage_rejects_a_broken_cocycle():
    # the stage decides each non-vacuous triple's residual itself; it does
    # not lean on validate_germ_data having run first
    cover = shrunk_cover(broken_cocycle_atlas())
    with pytest.raises(ValidationFailure, match=r"^triple \('A', 'B', 'C'\): cocycle"):
        enforce_triple_domains(cover)


def test_closedness_evaluates_each_sample_at_most_once(monkeypatch):
    import germglue.atlas

    cover = shrunk_cover(pinch_atlas())
    calls = []
    real = germglue.atlas.eval_numerators

    def counted(fn, x):
        calls.append(x)
        return real(fn, x)

    monkeypatch.setattr(germglue.atlas, "eval_numerators", counted)
    closed = check_closed_relation(cover, samples=40, seed=3)
    assert closed["audit"]["audited"] > 0
    assert 0 < len(calls) <= 40


def test_chain_sampler_evaluates_at_most_twice_per_attempt(monkeypatch):
    import germglue.atlas

    cover = shrunk_cover(scaling_atlas())
    enforce_triple_domains(cover)
    calls = []
    real = germglue.atlas.eval_numerators

    def counted(fn, x):
        calls.append(x)
        return real(fn, x)

    monkeypatch.setattr(germglue.atlas, "eval_numerators", counted)
    accepted, attempts = sample_chains(cover, 20, seed=1)
    assert accepted
    assert 0 < len(calls) <= 2 * attempts


@pytest.mark.parametrize("audit", ["closedness", "chains", "cover", "transitivity"])
def test_audits_build_each_table_and_form_once_per_call(monkeypatch, audit):
    """Each region's integer table and each map's evaluation form is built
    at most once per audit call, however many samples the call draws."""
    import germglue.atlas
    import germglue.regions

    cover = shrunk_cover(scaling_atlas())
    certs = enforce_triple_domains(cover)
    built = []
    for module, name in ((germglue.atlas, "region_table"), (germglue.regions, "region_table"),
                         (germglue.atlas, "map_numerators")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x, real=real: built.append(x) or real(x))
    runs = {
        "closedness": lambda n: check_closed_relation(cover, samples=n, seed=2),
        "chains": lambda n: sample_chains(cover, n, seed=2),
        "cover": lambda n: audit_cover_certificates(cover, certs, samples=n, seed=2),
        "transitivity": lambda n: audit_transitivity(cover, n, seed=2),
    }
    # what an audit can read: Q_i, U_i and V_i per chart; the bound, O_ij
    # and its witness per live pair; a probe and a composite per triple; and
    # each transition
    live = [c for c in cover.pairs.values() if not c.vacuous]
    most = 3 * len(cover.tubes) + 3 * len(live) + 2 * len(certs) + len(cover.input.transitions)
    for samples in (20, 400):
        built.clear()
        runs[audit](samples)
        assert built
        assert len({id(x) for x in built}) == len(built) <= most


def _sample_atlas_cover(name: str):
    """The cover of a sample atlas as the triple stage leaves it, also when
    that stage stops on a broken cocycle or at the radius floor."""
    from germglue.documents import atlas_input_from_json, load_document

    path = Path(__file__).resolve().parent.parent / "sample_inputs" / name
    cover = shrunk_cover(atlas_input_from_json(load_document(str(path), "atlas-input")))
    try:
        enforce_triple_domains(cover)
    except (ShrinkExhausted, ValidationFailure):
        pass
    return cover


SAMPLE_ATLASES = sorted(
    p.name for p in (Path(__file__).resolve().parent.parent / "sample_inputs").glob("*-atlas.json"))


@pytest.mark.parametrize("name", SAMPLE_ATLASES)
def test_sampled_audits_match_the_fraction_reference(name):
    """The integer audits equal the Fraction-point reference: the audit
    dict of the closedness check and the chains of the chain sampler."""
    cover = _sample_atlas_cover(name)
    audited = 0
    for seed in range(3):
        closed = check_closed_relation(cover, samples=60, seed=seed)
        assert closed["audit"] == oracle_closed_audit(cover, 60, seed)
        accepted, attempts = sample_chains(cover, 20, seed=seed)
        points = [(i, j, k, point_from_numerators(x), point_from_numerators(z))
                  for i, j, k, x, z in accepted]
        assert (points, attempts) == oracle_sample_chains(cover, 20, seed)
        audited += closed["audit"]["audited"]
    # hidden-triple-atlas.json has no V-level pair overlap, so nothing to audit
    assert audited > 0 or all(cert.vacuous for cert in cover.pairs.values())


@pytest.mark.parametrize("name", SAMPLE_ATLASES)
def test_pair_image_certifies_only_points_it_bounds(name):
    """Wherever phi_ij's image over the bound t_ij for Q_ij certifies a
    triple, the points of Q_ij ∩ Q_ik sampled in the triple's gauge lie in
    t_ij, and their images in that image bound and in O_jk."""
    from germglue.atlas import _PAIR_IMAGE, _bound_for, _q_pair_image
    from germglue.regions import (
        numerators_in_tube, polydisc_intersection_outer, region_table, tube_contains)
    from germglue.sampling import sample_numerators

    cover = _sample_atlas_cover(name)
    rng = random.Random(0)
    maps: dict = {}
    certified = checked = 0
    for key, (radius, image) in cover.memo.items():
        i, j = key[:2]
        if key[-1] is not _PAIR_IMAGE or radius != cover.radii[i]:
            continue
        t_ij = _bound_for(cover, i, j)
        for k in sorted(cover.input.charts):
            target = cover.overlaps.get((j, k))
            t_ik = _bound_for(cover, i, k)
            if k == j or t_ik is None or target is None or target.vacuous \
                    or not tube_contains(image, target.o_inner):
                continue
            base = polydisc_intersection_outer(t_ij.base, t_ik.base)
            if base is None:
                continue
            certified += 1
            fiber = min(t_ij.fiber_radius, t_ik.fiber_radius)
            gauge = TubeDomain(i, base, cover.input.fiber_dim, fiber)
            for _ in range(20):
                y = sample_numerators(rng, region_table(gauge))
                moved = _q_pair_image(cover, i, j, y, maps)
                if moved is None or (k != i and _q_pair_image(cover, i, k, y, maps) is None):
                    continue
                checked += 1
                assert numerators_in_tube(y, t_ij, strict=False)
                assert numerators_in_tube(moved, image, strict=False)
                assert numerators_in_tube(moved, target.o_inner, strict=False)
    assert checked > 0 or certified == 0


def test_triple_stage_decides_each_triple_once_per_radius(monkeypatch):
    import sys

    import germglue.atlas

    cover = shrunk_cover(scaling_atlas(order=3, weights=(F(1), F(8), F(64))))
    pair_images, gauge_images = [], []
    real = germglue.atlas.map_image_bound

    def counted(f, tube, base_dim, target_chart):
        caller = sys._getframe(1).f_locals
        if "k" in caller:  # the gauge of one triple: its stage names (i, j, k)
            key = (caller["i"], caller["j"], caller["k"])
            gauge_images.append((key, cover.radii[key[0]]))
        else:  # phi_ij over the bound for Q_ij, shared by every k
            key = (tube.chart, target_chart)
            pair_images.append((key, cover.radii[key[0]]))
        return real(f, tube, base_dim, target_chart=target_chart)

    monkeypatch.setattr(germglue.atlas, "map_image_bound", counted)
    enforce_triple_domains(cover)
    assert cover.halvings == 1
    assert pair_images and len(set(pair_images)) == len(pair_images)
    assert gauge_images and len(set(gauge_images)) == len(gauge_images)


@pytest.mark.parametrize("name", ["identity-atlas.json", "scaling-atlas.json"])
def test_shrink_bounds_each_pair_once_per_radius(monkeypatch, name):
    import germglue.atlas
    from germglue.documents import atlas_input_from_json, load_document

    path = Path(__file__).resolve().parent.parent / "sample_inputs" / name
    inp = atlas_input_from_json(load_document(str(path), "atlas-input"))
    bounded = []
    real = germglue.atlas._pair_outer_bound

    def counted(inp, triples, overlaps, i, j, fiber_radius):
        bounded.append((i, j, fiber_radius))
        return real(inp, triples, overlaps, i, j, fiber_radius)

    monkeypatch.setattr(germglue.atlas, "_pair_outer_bound", counted)
    shrunk_cover(inp)
    assert bounded and len(set(bounded)) == len(bounded)


def test_reused_certificates_match_a_fresh_recomputation():
    from germglue.atlas import ShrunkCover, _refresh_pair_certificates

    cover = shrunk_cover(scaling_atlas(order=3, weights=(F(1), F(8), F(64))))
    certs = enforce_triple_domains(cover)
    assert cover.halvings == 1
    fresh = ShrunkCover(
        cover.input, cover.triples, cover.overlaps,
        dict(cover.radii), dict(cover.tubes), {},
    )
    assert _refresh_pair_certificates(fresh) is None
    fresh_certs = enforce_triple_domains(fresh)
    assert fresh.halvings == 0

    def pair_view(pairs):
        return [(key, c.bound, c.margin, c.vacuous) for key, c in pairs.items()]

    def triple_view(triple_certs):
        return [(key, c.vacuous, c.domain_margin) for key, c in triple_certs.items()]

    assert pair_view(cover.pairs) == pair_view(fresh.pairs)
    assert triple_view(certs) == triple_view(fresh_certs)


def test_triple_without_relative_compactness_margin_stays_nonvacuous(monkeypatch):
    import germglue.atlas

    expected = enforce_triple_domains(shrunk_cover(identity_atlas()))
    cover = shrunk_cover(identity_atlas())
    monkeypatch.setattr(germglue.atlas, "tube_rel_compact", lambda inner, outer: None)
    certs = enforce_triple_domains(cover)
    assert cover.halvings == 0
    assert [(k, c.vacuous) for k, c in certs.items()] == [
        (k, c.vacuous) for k, c in expected.items()
    ]
    live = [c for c in certs.values() if not c.vacuous]
    assert live and all(c.domain_margin is None for c in live)
