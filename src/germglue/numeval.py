"""Batched float re-verification of transition-chain identities.

The pipeline certifies cocycle closure coefficient by coefficient in exact
arithmetic.  Float mode re-checks the same chain identities numerically at
sampled points: chains are selected with the exact rational sampler and
exact membership tests, and the three map evaluations per chain then run
through the batched numpy term-table kernel.  Residuals above the
tolerance count as violations; for exactly closed transition families the
residual is pure float rounding.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from .atlas import ShrunkCover, _exact_point_in_q_pair
from .jets import PolyMap, map_eval
from .regions import Point
from .sampling import batch_eval, points_to_array, sample_in_tube


def batch_eval_map(f: PolyMap, points: np.ndarray) -> np.ndarray:
    """Evaluate every component of f over a (P, source_vars) float array."""
    pts = np.ascontiguousarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != f.source_vars:
        raise ValueError("points must have shape (P, source_vars)")
    cols = [batch_eval(comp, pts) for comp in f.components]
    return np.stack(cols, axis=1)


def float_transition_audit(
    cover: ShrunkCover,
    chains: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> dict:
    """Numeric chain audit: phi_jk(phi_ij(x)) vs phi_ik(x) in float.

    Mirrors the exact transitivity audit's chain selection (same sampler,
    same membership tests), then batches the residual evaluation through
    the numpy kernel.  Returns a report with the backend, the
    worst residual seen, and the count of residuals above tolerance.
    """
    inp = cover.input
    rng = random.Random(seed)
    live = [
        (i, j, k)
        for (i, j) in cover.pairs
        for k in sorted(inp.charts, key=repr)
        if not cover.pairs[(i, j)].vacuous
        and k != j and k != i
        and (j, k) in cover.pairs and not cover.pairs[(j, k)].vacuous
        and (i, k) in inp.transitions
    ]
    report = {
        "backend": "numpy",
        "tolerance": float(tolerance),
        "chains_requested": chains,
        "chains_verified": 0,
        "attempts": 0,
        "violations": 0,
        "max_residual": 0.0,
    }
    if not live:
        report["ok"] = True
        return report
    selected: Dict[Tuple, List[Point]] = {}
    verified = attempts = 0
    max_attempts = chains * 200
    while verified < chains and attempts < max_attempts:
        attempts += 1
        i, j, k = live[rng.randrange(len(live))]
        x = sample_in_tube(rng, cover.pairs[(i, j)].bound)
        if not _exact_point_in_q_pair(cover, i, j, x):
            continue
        y = map_eval(inp.transitions[(i, j)].map, x)
        if not _exact_point_in_q_pair(cover, j, k, y):
            continue
        selected.setdefault((i, j, k), []).append(x)
        verified += 1
    violations = 0
    max_residual = 0.0
    for (i, j, k) in sorted(selected, key=repr):
        pts = points_to_array(selected[(i, j, k)])
        mid = batch_eval_map(inp.transitions[(i, j)].map, pts)
        chained = batch_eval_map(inp.transitions[(j, k)].map, mid)
        direct = batch_eval_map(inp.transitions[(i, k)].map, pts)
        residuals = np.abs(chained - direct).max(axis=1)
        violations += int((residuals > tolerance).sum())
        if residuals.size:
            max_residual = max(max_residual, float(residuals.max()))
    report["chains_verified"] = verified
    report["attempts"] = attempts
    report["violations"] = violations
    report["max_residual"] = max_residual
    report["ok"] = violations == 0
    return report
