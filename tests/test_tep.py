"""Frame data: flatness, pairing, hypothesis checks and gluing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from germglue.errors import CompositionDomainError, ShapeError, ValidationFailure
from germglue.jets import (
    jet_add,
    jet_const,
    jet_from_terms,
    jet_mul,
    jet_neg,
    jet_scale,
    jet_var,
    jet_zero,
)
from germglue.matrices import (
    JetMatrix,
    matrix_add,
    matrix_eq,
    matrix_flip_var,
    matrix_identity,
    matrix_scale_jet,
    matrix_sub,
    matrix_transpose,
    matrix_var_coeff,
)
from germglue.regions import Polydisc
from germglue.scalars import ONE, ZERO, Coeff
from germglue.sheaf import SheafInput
from germglue.tep import (
    SYMBOLIC_RANK_CAP,
    TEPData,
    check_GC,
    check_IC,
    check_miniversal,
    glue_tep,
    tep_report,
    validate_tep_flatness,
    validate_tep_pairing,
)
from germglue.atlas import GermAtlasInput
from .test_atlas import disc_chart, identity_atlas
from .test_sheaf import wide_domain

F = Fraction


def matrix_zero(rows: int, cols: int, num_vars: int, order: int) -> JetMatrix:
    z = jet_zero(num_vars, order)
    return JetMatrix([[z] * cols for _ in range(rows)])


def c(x) -> Coeff:
    return Coeff(F(x))


# ---------------------------------------------------------------------------
# single-frame fixtures, variables (t, z)
# ---------------------------------------------------------------------------


def flat_frame(perturb: bool = False, antisym: bool = False) -> TEPData:
    """Rank-2 frame over one base direction: A the constant swap matrix,
    B = -t A + z Id, P the swap pairing, zeta the first basis column."""
    order = 4
    t = jet_var(2, order, 0)
    z = jet_var(2, order, 1)
    zero = jet_zero(2, order)
    one = jet_const(2, order, ONE)
    top = jet_const(2, order, c(2)) if perturb else one
    a = JetMatrix([[zero, top], [one, zero]])
    neg_t = jet_neg(t)
    b = JetMatrix([[z, neg_t], [neg_t, z]])
    low = jet_neg(one) if antisym else one
    p = JetMatrix([[zero, one], [low, zero]])
    return TEPData(1, 2, 2, 2, [a], b, p, [one, zero])


def scalar_frame(value) -> TEPData:
    order = 2
    a = JetMatrix([[jet_const(2, order, c(value))]])
    zero = JetMatrix([[jet_zero(2, order)]])
    one = JetMatrix([[jet_const(2, order, ONE)]])
    return TEPData(1, 1, 1, 1, [a], zero, one, [jet_const(2, order, ONE)])


def test_zero_connection_is_flat_but_not_injective():
    order = 2
    zero = matrix_zero(2, 2, 3, order)
    p = matrix_identity(2, 3, order)
    one = jet_const(3, order, ONE)
    d = TEPData(2, 2, 1, 1, [zero, zero], zero, p, [one, jet_zero(3, order)])
    assert validate_tep_flatness(d)["flat"]
    assert validate_tep_pairing(d)["valid"]
    assert not check_IC(d)
    ok, trace = check_GC(d)
    assert not ok
    assert trace == [1, 1, 1]


def test_reference_frame_is_flat():
    report = validate_tep_flatness(flat_frame())
    assert report["flat"]
    assert report["residuals"] == []
    assert report["box"] == {"t": 1, "z": 2}


def test_reference_frame_pairing_valid():
    report = validate_tep_pairing(flat_frame())
    assert report["valid"]
    assert report["nondegenerate"]
    assert report["det_at_origin"] == c(-1)


def test_perturbed_connection_fails_flatness():
    report = validate_tep_flatness(flat_frame(perturb=True))
    assert not report["flat"]
    assert any(r["directions"] == [0, "z"] for r in report["residuals"])
    assert any(
        r["entry"] == [0, 1] and r["exponent"] == [0, 1] for r in report["residuals"]
    )


def test_nilpotent_connection_with_zero_b_fails():
    order = 3
    zero = jet_zero(2, order)
    one = jet_const(2, order, ONE)
    a = JetMatrix([[zero, one], [zero, zero]])
    d = TEPData(1, 2, 1, 1, [a], matrix_zero(2, 2, 2, order),
                matrix_identity(2, 2, order), [one, zero])
    report = validate_tep_flatness(d)
    assert not report["flat"]
    # the residual is exactly z * A
    assert [(r["entry"], r["exponent"], r["value"]) for r in report["residuals"]] == [
        ([0, 1], [0, 1], ONE)
    ]


def test_antisymmetric_pairing_fails_symmetry():
    report = validate_tep_pairing(flat_frame(antisym=True))
    assert not report["valid"]
    assert report["symmetry"]


def test_pairing_compatibility_constant_example():
    order = 3
    zero = jet_zero(2, order)
    one = jet_const(2, order, ONE)
    q = jet_const(2, order, c(3))
    a = JetMatrix([[zero, q], [one, zero]])
    p = JetMatrix([[zero, one], [one, zero]])
    d = TEPData(1, 2, 2, 2, [a], matrix_zero(2, 2, 2, order), p, [one, zero])
    report = validate_tep_pairing(d)
    assert report["valid"]
    assert report["compatibility"] == []


def test_degenerate_pairing_rejected():
    order = 2
    zero = jet_zero(2, order)
    one = jet_const(2, order, ONE)
    p = JetMatrix([[one, zero], [zero, zero]])
    d = TEPData(1, 2, 1, 1, [matrix_zero(2, 2, 2, order)],
                matrix_zero(2, 2, 2, order), p, [one, zero])
    report = validate_tep_pairing(d)
    assert not report["valid"]
    assert not report["nondegenerate"]
    assert report["symmetry"] == [] and report["compatibility"] == []


def test_flip_transpose_is_an_involution():
    rng = random.Random(7)
    for _ in range(20):
        entries = [
            [
                jet_from_terms(
                    2,
                    3,
                    [
                        ((i, j), c(rng.randint(-5, 5)))
                        for i in range(3)
                        for j in range(3 - i)
                        if rng.random() < 0.5
                    ],
                )
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        m = JetMatrix(entries)
        twist = lambda x: matrix_transpose(matrix_flip_var(x, 1))
        assert matrix_eq(twist(twist(m)), m)


def test_box_violation_rejected():
    order = 4
    cubic = jet_from_terms(2, order, [((3, 0), ONE)])
    zero = jet_zero(2, order)
    one = jet_const(2, order, ONE)
    a = JetMatrix([[cubic, zero], [zero, zero]])
    with pytest.raises(ShapeError) as exc:
        TEPData(1, 2, 2, 2, [a], matrix_zero(2, 2, 2, order),
                matrix_identity(2, 2, order), [one, zero])
    assert "box" in str(exc.value)


def test_injectivity_reference_and_rescaling():
    assert check_IC(flat_frame())
    order = 4
    zero = jet_zero(2, order)
    base = flat_frame()
    for scale in (c(2), c(-3), c(F(1, 7))):
        d = TEPData(1, 2, 2, 2, [base.a_mats[0]], base.b_mat, base.p_mat,
                    [jet_const(2, order, scale), zero])
        assert check_IC(d)
    d = TEPData(1, 2, 2, 2, [base.a_mats[0]], base.b_mat, base.p_mat, [zero, zero])
    assert not check_IC(d)


def test_generation_reference_trace():
    ok, trace = check_GC(flat_frame())
    assert ok
    assert trace == [1, 2]
    assert all(a <= b for a, b in zip(trace, trace[1:]))


def test_generation_rank_one_at_depth_zero():
    ok, trace = check_GC(scalar_frame(0))
    assert ok
    assert trace == [1]


def test_miniversal_rank_one():
    ok, info = check_miniversal(scalar_frame(2))
    assert ok and info["method"] == "symbolic"
    ok, info = check_miniversal(scalar_frame(0))
    assert not ok


def test_miniversal_dimension_mismatch():
    ok, info = check_miniversal(flat_frame())
    assert not ok
    assert info == {"method": "dimension"}


def test_miniversal_two_directions():
    order = 2
    ident = matrix_var_coeff(2, 3, order, [[ONE, ZERO], [ZERO, ONE]])
    swap = matrix_var_coeff(2, 3, order, [[ZERO, ONE], [ONE, ZERO]])
    one = jet_const(3, order, ONE)
    d = TEPData(2, 2, 1, 1, [ident, swap], matrix_zero(2, 2, 3, order),
                ident, [one, jet_zero(3, order)])
    ok, info = check_miniversal(d)
    assert ok
    assert info["method"] == "symbolic"


def diagonal_frame(n: int, units: bool) -> TEPData:
    """Rank-n frame over n base directions whose A_a has a single 1 at
    (a, a), so det[A_1 x | ... | A_n x] = x_1 ... x_n; all-zero A when not
    ``units``."""
    order = 1
    mats = [
        matrix_var_coeff(n, n + 1, order, [
            [ONE if units and r == k == a else ZERO for k in range(n)] for r in range(n)
        ])
        for a in range(n)
    ]
    zeta = [jet_const(n + 1, order, ONE)] + [jet_zero(n + 1, order)] * (n - 1)
    return TEPData(n, n, order, order, mats, matrix_zero(n, n, n + 1, order),
                   matrix_identity(n, n + 1, order), zeta)


def test_miniversal_above_the_symbolic_cap_is_randomized():
    n = SYMBOLIC_RANK_CAP + 1
    assert n == 6
    ok, info = check_miniversal(diagonal_frame(n, units=True), seed=7)
    assert ok and info.keys() == {"method", "seed", "witness"}
    assert (info["method"], info["seed"]) == ("randomized", 7)
    # the witness is a point where x_1 ... x_n does not vanish
    assert len(info["witness"]) == n and not any(x.is_zero() for x in info["witness"])
    assert check_miniversal(diagonal_frame(n, units=True), seed=7) == (True, info)
    ok, info = check_miniversal(diagonal_frame(n, units=False), seed=7)
    assert not ok
    assert info == {"method": "randomized", "seed": 7, "trials": 12, "witness": None}


def test_domain_gates_pointwise_checks():
    order = 4
    base = flat_frame()
    d = TEPData(1, 2, 2, 2, [base.a_mats[0]], base.b_mat, base.p_mat,
                base.zeta, domain=Polydisc([ZERO], [F(1, 2)]))
    assert check_IC(d)
    with pytest.raises(CompositionDomainError):
        check_IC(d, (c(2),))


def test_report_shape():
    report = tep_report(flat_frame())
    assert report["valid"]
    assert report["IC"]
    assert report["GC"] == {"holds": True, "trace": [1, 2]}
    assert not report["miniversal"]["holds"]
    assert report["point"] == [ZERO]


# ---------------------------------------------------------------------------
# gluing fixtures, variables (t, q, z) over the three-chart identity atlas
# ---------------------------------------------------------------------------


def glue_frame(kind: str = "match", order: int = 4) -> TEPData:
    """Two base directions, rank 2.  The "shift" variant adds t*Id to the
    first connection matrix and rebalances B, staying flat on its own but
    disagreeing with the "match" variant at order one."""
    nv = 3
    t = jet_var(nv, order, 0)
    ident = matrix_identity(2, nv, order)
    swap = matrix_var_coeff(2, nv, order, [[ZERO, ONE], [ONE, ZERO]])
    q = jet_var(nv, order, 1)
    if kind == "shift":
        a1 = matrix_add(swap, matrix_scale_jet(ident, t))
        drift = jet_add(jet_scale(jet_mul(t, t), c(F(1, 2))), q)
    else:
        a1 = swap
        drift = q
    b = matrix_sub(
        matrix_scale_jet(swap, jet_neg(t)), matrix_scale_jet(ident, drift)
    )
    one = jet_const(nv, order, ONE)
    return TEPData(2, 2, 2, 1, [a1, ident], b, swap, [one, jet_zero(nv, order)])


def identity_bundle(order: int = 3) -> SheafInput:
    ident = matrix_identity(2, 2, order)
    pairs = [("A", "B"), ("A", "C"), ("B", "C")]
    return SheafInput(
        ranks={"A": 2, "B": 2, "C": 2},
        domains={pair: wide_domain(pair[0], F(1, 10)) for pair in pairs},
        matrices={(i, j): ident for i, j in pairs for i, j in [(i, j), (j, i)]},
    )


@pytest.fixture(scope="module")
def product_glued():
    charts = {cid: glue_frame() for cid in ("A", "B", "C")}
    return glue_tep(charts, identity_atlas(), identity_bundle(), samples=10)


def test_glue_product_certificate(product_glued):
    cert = product_glued.certificate
    assert cert["valid"]
    assert cert["intertwining"] == {"pairs_checked": 6, "residuals": []}
    assert cert["zero_section_pullback"]["holds"]
    for cid in ("A", "B", "C"):
        report = cert["chart_reports"][cid]
        assert report["valid"]
        assert report["IC"]
        assert report["GC"]["holds"]
        assert report["miniversal"]["holds"]
    assert set(cert["sheaf"]) == {"epsilons", "det_bounds"}


def test_glue_keeps_chart_data(product_glued):
    charts = product_glued.charts
    reference = glue_frame()
    for cid in ("A", "B", "C"):
        assert matrix_eq(charts[cid].b_mat, reference.b_mat)
        assert matrix_eq(charts[cid].zeta, reference.zeta)


def test_glue_single_chart_reduces_to_chart_report():
    atlas = GermAtlasInput(1, 1, 3, {"A": disc_chart(F(0))}, [])
    bundle = SheafInput(ranks={"A": 2}, domains={}, matrices={})
    d = glue_frame()
    glued = glue_tep({"A": d}, atlas, bundle, samples=5)
    cert = glued.certificate
    assert cert["valid"]
    assert cert["intertwining"]["pairs_checked"] == 0
    assert cert["chart_reports"]["A"] == tep_report(d, y=(ZERO, ZERO))


def test_glue_reports_connection_disagreement():
    charts = {"A": glue_frame(), "B": glue_frame("shift"), "C": glue_frame()}
    glued = glue_tep(charts, identity_atlas(), identity_bundle(), samples=5)
    cert = glued.certificate
    assert not cert["valid"]
    assert all(report["valid"] for report in cert["chart_reports"].values())
    hits = [r for r in cert["intertwining"]["residuals"] if r["datum"] == "A"]
    assert hits
    assert any(r["pair"] == ["A", "B"] and r["direction"] == 0 for r in hits)
    assert any(r["exponent"] == [1, 0, 0] for r in hits)
    assert not cert["zero_section_pullback"]["holds"]


def test_glue_requires_bundle_transitions():
    ident = matrix_identity(2, 2, 3)
    pairs = [("A", "B"), ("A", "C")]
    bundle = SheafInput(
        ranks={"A": 2, "B": 2, "C": 2},
        domains={pair: wide_domain(pair[0], F(1, 10)) for pair in pairs},
        matrices={(i, j): ident for i, j in pairs for i, j in [(i, j), (j, i)]},
    )
    charts = {cid: glue_frame() for cid in ("A", "B", "C")}
    with pytest.raises(ValidationFailure, match="bundle transition"):
        glue_tep(charts, identity_atlas(), bundle, samples=5)


def test_glue_shape_checks():
    charts = {cid: glue_frame() for cid in ("A", "B")}
    with pytest.raises(ShapeError, match="chart sets"):
        glue_tep(charts, identity_atlas(), identity_bundle(), samples=5)
    charts = {cid: flat_frame() for cid in ("A", "B", "C")}
    with pytest.raises(ShapeError, match="base plus fiber"):
        glue_tep(charts, identity_atlas(), identity_bundle(), samples=5)
    bad_ranks = identity_bundle()
    bad_ranks.ranks["B"] = 3
    charts = {cid: glue_frame() for cid in ("A", "B", "C")}
    with pytest.raises(ShapeError, match="sheaf rank"):
        glue_tep(charts, identity_atlas(), bad_ranks, samples=5)


def test_glue_point_checks():
    atlas = GermAtlasInput(1, 1, 3, {"A": disc_chart(F(0))}, [])
    bundle = SheafInput(ranks={"A": 2}, domains={}, matrices={})
    d = glue_frame()
    glued = glue_tep({"A": d}, atlas, bundle, samples=5,
                     points=[("A", (c(F(1, 10)), ZERO))])
    entry = glued.certificate["point_checks"][0]
    assert entry["chart"] == "A"
    assert entry["IC"] and entry["GC"]["holds"] and entry["miniversal"]["holds"]
    with pytest.raises(CompositionDomainError):
        glue_tep({"A": d}, atlas, bundle, samples=5, points=[("A", (c(5), ZERO))])
