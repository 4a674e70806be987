"""Batched float re-verification of transition-chain identities.

The pipeline certifies cocycle closure coefficient by coefficient in exact
arithmetic.  Float mode re-checks the same chain identities numerically at
sampled points: chains are selected by ``atlas.sample_chains`` (the exact
rational sampler and exact membership tests), and the three map
evaluations per chain then run in Python complex floats through
``sampling.batch_eval``.  Residuals above TOLERANCE count as violations;
for exactly closed transition families the residual is pure float
rounding.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .atlas import ShrunkCover, sample_chains
from .jets import PolyMap
from .sampling import batch_eval

TOLERANCE = 1e-9


def batch_eval_map(f: PolyMap, points: list) -> list:
    """Evaluate every component of f at a list of complex points, each a
    tuple of ``source_vars`` values, into one tuple per point."""
    return list(zip(*[batch_eval(comp, points) for comp in f.components]))


def float_transition_audit(
    cover: ShrunkCover,
    chains: int = 200,
    seed: int = 0,
) -> dict:
    """Numeric chain audit: phi_jk(phi_ij(x)) vs phi_ik(x) in float.

    Chains come from ``atlas.sample_chains``, the same selector as the
    exact transitivity audit, so both audits check the same chains for a
    seed; each x is rounded to complex floats from its numerators, and the
    residuals are evaluated in batches per triple.  Returns a report with
    the backend, the worst residual seen, and the count of residuals above
    TOLERANCE."""
    transitions = cover.input.transitions
    accepted, attempts = sample_chains(cover, chains, seed)
    selected: Dict[Tuple, List[tuple]] = {}
    for i, j, k, (q, re, im), _ in accepted:
        x = tuple([complex(a / q, b / q) for a, b in zip(re, im)])
        selected.setdefault((i, j, k), []).append(x)
    violations = 0
    max_residual = 0.0
    for (i, j, k) in sorted(selected, key=repr):
        pts = selected[(i, j, k)]
        mid = batch_eval_map(transitions[(i, j)].map, pts)
        chained = batch_eval_map(transitions[(j, k)].map, mid)
        direct = batch_eval_map(transitions[(i, k)].map, pts)
        for a, b in zip(chained, direct):
            residual = max([abs(u - v) for u, v in zip(a, b)])
            violations += residual > TOLERANCE
            max_residual = max(max_residual, residual)
    return {
        "backend": "python",
        "tolerance": TOLERANCE,
        "chains_requested": chains,
        "chains_verified": len(accepted),
        "attempts": attempts,
        "violations": violations,
        "max_residual": max_residual,
        "ok": violations == 0,
    }
