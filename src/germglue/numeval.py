"""Batched float re-verification of transition-chain identities.

The pipeline certifies cocycle closure coefficient by coefficient in exact
arithmetic.  Float mode re-checks the same chain identities numerically at
sampled points: chains are selected by ``atlas.sample_chains`` (the exact
rational sampler and exact membership tests), and the three map
evaluations per chain then run through the batched numpy term-table
kernel.  Residuals above TOLERANCE count as violations; for exactly
closed transition families the residual is pure float rounding.  numpy
is imported inside the float functions, so exact runs never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from .atlas import ShrunkCover, sample_chains
from .jets import PolyMap
from .regions import Point
from .sampling import batch_eval, points_to_array

if TYPE_CHECKING:
    import numpy as np

TOLERANCE = 1e-9


def batch_eval_map(f: PolyMap, points: np.ndarray) -> np.ndarray:
    """Evaluate every component of f over a (P, source_vars) float array."""
    import numpy as np

    pts = np.ascontiguousarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != f.source_vars:
        raise ValueError("points must have shape (P, source_vars)")
    cols = [batch_eval(comp, pts) for comp in f.components]
    return np.stack(cols, axis=1)


def float_transition_audit(
    cover: ShrunkCover,
    chains: int = 200,
    seed: int = 0,
) -> dict:
    """Numeric chain audit: phi_jk(phi_ij(x)) vs phi_ik(x) in float.

    Chains come from ``atlas.sample_chains``, the same selector as the
    exact transitivity audit, so both audits check the same chains for a
    seed; the residuals are then evaluated in batches through the numpy
    kernel.  Returns a report with the backend, the worst residual seen,
    and the count of residuals above TOLERANCE."""
    import numpy as np

    transitions = cover.input.transitions
    accepted, attempts = sample_chains(cover, chains, seed)
    selected: Dict[Tuple, List[Point]] = {}
    for i, j, k, x, _ in accepted:
        selected.setdefault((i, j, k), []).append(x)
    violations = 0
    max_residual = 0.0
    for (i, j, k) in sorted(selected, key=repr):
        pts = points_to_array(selected[(i, j, k)])
        mid = batch_eval_map(transitions[(i, j)].map, pts)
        chained = batch_eval_map(transitions[(j, k)].map, mid)
        direct = batch_eval_map(transitions[(i, k)].map, pts)
        residuals = np.abs(chained - direct).max(axis=1)
        violations += int((residuals > TOLERANCE).sum())
        max_residual = max(max_residual, float(residuals.max()))
    return {
        "backend": "numpy",
        "tolerance": TOLERANCE,
        "chains_requested": chains,
        "chains_verified": len(accepted),
        "attempts": attempts,
        "violations": violations,
        "max_residual": max_residual,
        "ok": violations == 0,
    }
