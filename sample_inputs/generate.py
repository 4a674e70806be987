"""Regenerate the sample documents in this directory from library fixtures.

Run from the repository root:  python3 sample_inputs/generate.py
"""

from __future__ import annotations

import json
import os
from fractions import Fraction as F

from germglue.atlas import GermAtlasInput, GermTransition
from germglue.documents import (
    atlas_input_to_json,
    sheaf_input_to_json,
    tep_data_to_json,
    tep_glue_input_to_json,
)
from germglue.jets import (
    PolyMap,
    identity_map,
    jet_const,
    jet_from_terms,
    jet_neg,
    jet_scale,
    jet_var,
    jet_zero,
    map_inverse,
)
from germglue.matrices import (
    JetMatrix,
    matrix_identity,
    matrix_scale_jet,
    matrix_sub,
    matrix_var_coeff,
)
from germglue.regions import Polydisc, TubeDomain
from germglue.scalars import ONE, ZERO, Coeff
from germglue.sheaf import SheafInput
from germglue.tep import TEPData


def disc_chart(center: F, radius: F = F(1)) -> Polydisc:
    return Polydisc([Coeff(center)], [radius])


def full_tube(chart_id: str, w: Polydisc) -> TubeDomain:
    return TubeDomain(chart_id, w, 1, F(1))


def identity_atlas(order: int = 3) -> GermAtlasInput:
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


def pinch_atlas(order: int = 6) -> GermAtlasInput:
    charts = {"A": disc_chart(F(0)), "B": disc_chart(F(1, 10))}
    t = jet_from_terms(2, order, [((1, 0), Coeff(1))])
    fiber = jet_from_terms(2, order, [((0, 1), Coeff(1)), ((1, 2), Coeff(1))])
    fwd = PolyMap(2, [t, fiber])
    transitions = [
        GermTransition("A", "B", full_tube("A", charts["A"]), fwd),
        GermTransition("B", "A", full_tube("B", charts["B"]), map_inverse(fwd)),
    ]
    return GermAtlasInput(1, 1, order, charts, transitions)


def scaling_map(c: F, order: int) -> PolyMap:
    t = jet_from_terms(2, order, [((1, 0), Coeff(1)), ((0, 2), Coeff(c * c - 1))])
    fiber = jet_from_terms(2, order, [((0, 1), Coeff(c))])
    return PolyMap(2, [t, fiber])


def scaling_atlas(order: int = 4, weights=(F(1), F(2), F(4))) -> GermAtlasInput:
    """Charts A, B, C with phi_ij the scaling map by weights[j] / weights[i].

    With weights (1, 8, 64) at order 3 the triple stage halves a radius."""
    ids = ["A", "B", "C"]
    centers = [F(0), F(1, 10), F(1, 5)]
    weights = dict(zip(ids, weights))
    charts = {cid: disc_chart(c) for cid, c in zip(ids, centers)}
    transitions = [
        GermTransition(
            i, j, full_tube(i, charts[i]), scaling_map(weights[j] / weights[i], order)
        )
        for i in ids
        for j in ids
        if i != j
    ]
    return GermAtlasInput(1, 1, order, charts, transitions)


def identity_chain_atlas() -> GermAtlasInput:
    """Four unit line charts at spacing 1/10 with identity transitions.

    The triple stage reaches the radius floor: a false obstruction of the
    disc-only region geometry."""
    ids = [f"C{k:03d}" for k in range(4)]
    discs = {cid: disc_chart(k * F(1, 10)) for k, cid in enumerate(ids)}
    ident = identity_map(2, 3)
    transitions = [
        GermTransition(i, j, full_tube(i, discs[i]), ident)
        for i in ids
        for j in ids
        if i != j
    ]
    return GermAtlasInput(1, 1, 3, discs, transitions)


def broken_cocycle_atlas(order: int = 4) -> GermAtlasInput:
    inp = scaling_atlas(order)
    old = inp.transitions[("A", "C")]
    perturbed = PolyMap(
        2,
        [
            jet_from_terms(2, order, [((1, 0), Coeff(1)), ((0, 2), Coeff(F(16)))]),
            old.map.components[1],
        ],
    )
    inp.transitions[("A", "C")] = GermTransition("A", "C", old.domain, perturbed)
    rev = inp.transitions[("C", "A")]
    inp.transitions[("C", "A")] = GermTransition(
        "C", "A", rev.domain, map_inverse(perturbed)
    )
    return inp


def hidden_triple_atlas(order: int = 3) -> GermAtlasInput:
    """Unit discs at 0, 8/5 and 4/5 + 693/500 i whose triple overlap is
    nonempty though every chord point of two discs misses the third, with
    phi_AC = (t, 2z), phi_CA its inverse and identities elsewhere: every
    ordering of (A, B, C) breaks the cocycle."""
    charts = {
        "A": disc_chart(F(0)),
        "B": disc_chart(F(8, 5)),
        "C": Polydisc([Coeff(F(4, 5), F(693, 500))], [F(1)]),
    }
    fiber = {("A", "C"): F(2), ("C", "A"): F(1, 2)}
    transitions = [
        GermTransition(i, j, full_tube(i, charts[i]), PolyMap(2, [
            jet_var(2, order, 0),
            jet_scale(jet_var(2, order, 1), Coeff(fiber.get((i, j), F(1)))),
        ]))
        for i in charts
        for j in charts
        if i != j
    ]
    return GermAtlasInput(1, 1, order, charts, transitions)


def unidentified_pair_atlas(order: int = 3) -> GermAtlasInput:
    """Two overlapping unit line charts and no transition: no point of one
    tube is identified with a point of the other, so there is nothing to
    glue over their overlap."""
    return GermAtlasInput(1, 1, order, {"A": disc_chart(F(0)), "B": disc_chart(F(1, 10))}, [])


def wide_domain(chart: str, center: F, fiber: F = F(1)) -> TubeDomain:
    return TubeDomain(chart, Polydisc([Coeff(center)], [F(7, 10)]), 1, fiber)


def rank2_sheaf(order: int = 6) -> SheafInput:
    one = jet_const(2, order, ONE)
    tz = jet_from_terms(2, order, [((1, 1), Coeff(1))])
    zero = jet_zero(2, order)
    unipotent = JetMatrix([[one, tz], [zero, one]])
    inverse = JetMatrix([[one, jet_neg(tz)], [zero, one]])
    return SheafInput(
        ranks={"A": 2, "B": 2},
        domains={("A", "B"): wide_domain("A", F(1, 20), F(1, 2))},
        matrices={("A", "B"): unipotent, ("B", "A"): inverse},
        base_transitions={("A", "B"): matrix_identity(2, 1, order)},
    )


def flat_frame(antisym: bool = False) -> TEPData:
    order = 4
    t = jet_var(2, order, 0)
    z = jet_var(2, order, 1)
    zero = jet_zero(2, order)
    one = jet_const(2, order, ONE)
    a = JetMatrix([[zero, one], [one, zero]])
    neg_t = jet_neg(t)
    b = JetMatrix([[z, neg_t], [neg_t, z]])
    low = jet_neg(one) if antisym else one
    p = JetMatrix([[zero, one], [low, zero]])
    return TEPData(1, 2, 2, 2, [a], b, p, [one, zero])


def glue_frame(order: int = 4) -> TEPData:
    nv = 3
    t = jet_var(nv, order, 0)
    q = jet_var(nv, order, 1)
    ident = matrix_identity(2, nv, order)
    swap = matrix_var_coeff(2, nv, order, [[ZERO, ONE], [ONE, ZERO]])
    b = matrix_sub(matrix_scale_jet(swap, jet_neg(t)), matrix_scale_jet(ident, q))
    one = jet_const(nv, order, ONE)
    return TEPData(2, 2, 2, 1, [swap, ident], b, swap, [one, jet_zero(nv, order)])


def identity_bundle(order: int = 3) -> SheafInput:
    ident = matrix_identity(2, 2, order)
    pairs = [("A", "B"), ("A", "C"), ("B", "C")]
    return SheafInput(
        ranks={"A": 2, "B": 2, "C": 2},
        domains={pair: wide_domain(pair[0], F(1, 10)) for pair in pairs},
        matrices={key: ident for i, j in pairs for key in [(i, j), (j, i)]},
    )


def build_documents() -> dict:
    """Every sample document, keyed by its file name in this directory."""
    return {
        "identity-atlas.json": atlas_input_to_json(identity_atlas()),
        "pinch-atlas.json": atlas_input_to_json(pinch_atlas()),
        "scaling-atlas.json": atlas_input_to_json(scaling_atlas()),
        "scaling-halving-atlas.json": atlas_input_to_json(
            scaling_atlas(order=3, weights=(F(1), F(8), F(64)))
        ),
        "identity-chain-atlas.json": atlas_input_to_json(identity_chain_atlas()),
        "broken-cocycle-atlas.json": atlas_input_to_json(broken_cocycle_atlas()),
        "hidden-triple-atlas.json": atlas_input_to_json(hidden_triple_atlas()),
        "unidentified-pair-atlas.json": atlas_input_to_json(unidentified_pair_atlas()),
        "rank2-sheaf.json": sheaf_input_to_json(rank2_sheaf()),
        "flat-tep.json": tep_data_to_json(flat_frame()),
        "antisym-tep.json": tep_data_to_json(flat_frame(antisym=True)),
        "tep-glue.json": tep_glue_input_to_json(
            {cid: glue_frame() for cid in ("A", "B", "C")},
            identity_atlas(),
            identity_bundle(),
            points=[("A", (Coeff(F(1, 10)), Coeff(0)))],
        ),
    }


def document_text(doc: dict) -> str:
    """A document as it is stored in this directory."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_documents(docs: dict, directory: str) -> None:
    for name, doc in docs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(document_text(doc))
        print(f"wrote {name}")


def main() -> None:
    write_documents(build_documents(), os.path.dirname(os.path.abspath(__file__)))


if __name__ == "__main__":
    main()
