"""Independent reference implementations used to check the package.

Everything in this module is deliberately naive: quadratic-time convolution,
substitute-then-truncate composition, term-by-term evaluation with repeated
Fraction products, direct Lagrange inversion in one variable, cocycle
checks that compose every ordering of every triple, forward elimination
for scalar rank and determinant, Gauss-Jordan with jet pivots for the
inverse of a jet matrix, binomial recentring and range bounds in Coeff
arithmetic, the single-disc certificates and the overlap decision's
candidate search in Fractions, Fraction-grid sampling and Coeff membership
tests, and the sampled closedness audit and chain selector on those.  None of it imports algorithmic code from the package
beyond the plain data containers and the square-root bounds whose rounding
the package must reproduce (``sqrt_ub`` for range bounds, through
``coeff_abs_ub`` here, and for disc radii and margins, and ``sqrt_lb`` for
the reported separation), so agreement between the two sides is
meaningful.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from germglue.errors import NotInvertibleError
from germglue.jets import Jet, PolyMap
from germglue.matrices import JetMatrix
from germglue.regions import TubeDomain, polydisc_common_point
from germglue.scalars import Coeff, ONE, ZERO, sqrt_lb, sqrt_ub


def oracle_mul(a: Jet, b: Jet) -> Jet:
    """Full convolution product, truncated afterwards."""
    assert a.num_vars == b.num_vars and a.order == b.order
    out: dict[tuple[int, ...], Coeff] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > a.order:
                continue
            out[e] = out.get(e, ZERO) + ca * cb
    out = {e: c for e, c in out.items() if not c.is_zero()}
    return Jet(a.num_vars, a.order, out)


def oracle_eval(f: Jet, point) -> Coeff:
    """Value of f at a point of Coeff, term by term: each monomial is a
    product of repeated (re, im) Fraction multiplications."""
    assert len(point) == f.num_vars
    total_re, total_im = Fraction(0), Fraction(0)
    for e, c in f.terms.items():
        re, im = c.re, c.im
        for x, k in zip(point, e):
            for _ in range(k):
                re, im = re * x.re - im * x.im, re * x.im + im * x.re
        total_re += re
        total_im += im
    return Coeff(total_re, total_im)


def _poly_mul_exact(a: dict, b: dict, num_vars: int) -> dict:
    out: dict[tuple[int, ...], Coeff] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, ZERO) + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def oracle_compose(f: Jet, g: PolyMap) -> Jet:
    """Substitute the components of g into f as exact polynomials (with power
    caching), then truncate once at the end.

    Sound for constant-free g because the exact product only ever creates
    terms of total degree >= the degree of the monomial being expanded, so
    dropping f-terms above the order loses nothing below it.
    """
    assert f.num_vars == g.target_vars and f.order == g.order
    nv = g.source_vars
    const_one = {(0,) * nv: ONE}
    powers: list[list[dict]] = []
    for comp in g.components:
        powers.append([dict(const_one), dict(comp.terms)])

    def power(i: int, k: int) -> dict:
        tower = powers[i]
        while len(tower) <= k:
            tower.append(_poly_mul_exact(tower[-1], tower[1], nv))
        return tower[k]

    acc: dict[tuple[int, ...], Coeff] = {}
    for e, c in f.terms.items():
        term = dict(const_one)
        for i, k in enumerate(e):
            if k:
                term = _poly_mul_exact(term, power(i, k), nv)
        for ee, cc in term.items():
            v = c * cc
            acc[ee] = acc.get(ee, ZERO) + v
    acc = {e: c for e, c in acc.items() if sum(e) <= f.order and not c.is_zero()}
    return Jet(nv, f.order, acc)


def oracle_series_inverse_1var(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse of f(x) = sum coeffs[k] x^k (coeffs[0] = 0,
    coeffs[1] != 0), as coefficients b[0..order] with b[0] = 0.

    Solved degree by degree from f(g(x)) = x by plain triangular elimination;
    no shared code with the package inverter.
    """
    assert coeffs[0] == 0 and coeffs[1] != 0
    b: list[Fraction] = [Fraction(0), Fraction(1) / coeffs[1]]
    a = list(coeffs) + [Fraction(0)] * (order + 1 - len(coeffs))
    for n in range(2, order + 1):
        # coefficient of x^n in sum_k a[k] * g(x)^k must vanish; the b[n]
        # contribution appears only through k = 1, linearly.
        g_pows: list[list[Fraction]] = [[Fraction(1)] + [Fraction(0)] * n]
        g_trunc = b + [Fraction(0)] * (n + 1 - len(b))
        for _ in range(n):
            prev = g_pows[-1]
            nxt = [Fraction(0)] * (n + 1)
            for i, x in enumerate(prev):
                if x == 0:
                    continue
                for j, y in enumerate(g_trunc):
                    if i + j <= n and y != 0:
                        nxt[i + j] += x * y
            g_pows.append(nxt)
        residual = Fraction(0)
        for k in range(2, n + 1):
            residual += a[k] * g_pows[k][n]
        b.append(-residual / a[1])
    return b


def exhaustive_exponents(num_vars: int, order: int):
    """All exponent tuples of total degree <= order."""
    for e in itertools.product(range(order + 1), repeat=num_vars):
        if sum(e) <= order:
            yield e


def _first_term(a: Jet, b: Jet):
    """The first term of a - b in graded-lexicographic order, or None."""
    diff = []
    for e in set(a.terms) | set(b.terms):
        c = a.terms.get(e, ZERO) - b.terms.get(e, ZERO)
        if not c.is_zero():
            diff.append(((sum(e), e), e, c))
    if not diff:
        return None
    _, e, c = min(diff, key=lambda t: t[0])
    return list(e), c


def _map_violations(composed: list, target: PolyMap, head: dict) -> list:
    out = []
    for idx, (a, b) in enumerate(zip(composed, target.components)):
        hit = _first_term(a, b)
        if hit is not None:
            out.append({**head, "component": idx, "exponent": hit[0], "value": hit[1]})
    return out


def _inside(point, disc) -> bool:
    return all(
        (x - c).re ** 2 + (x - c).im ** 2 < r * r
        for x, c, r in zip(point, disc.centers, disc.radii)
    )


def oracle_atlas_cocycle(inp, overlapping=None) -> tuple[list, int]:
    """Inverse-pair and cocycle violations of an atlas input, and the count
    of ordered triples checked, composing every ordering of every triple.

    For inputs whose transitions are all well shaped, constant-free, the
    identity on the zero section and paired with their reverse.  An ordered
    triple (i, j, k) is checked when ``overlapping(i, j, k)`` holds; by
    default, when the three charts have a common point by the exact
    decision ``polydisc_common_point``, which tests/test_regions.py checks
    against :func:`_inside` and a grid."""
    if overlapping is None:
        def overlapping(*ids):
            return polydisc_common_point([inp.charts[c] for c in ids]) is not None
    nv, order = inp.total_vars, inp.order
    ident = PolyMap(nv, [
        Jet(nv, order, {tuple(int(v == k) for v in range(nv)): ONE})
        for k in range(nv)
    ])

    def compose(inner: PolyMap, outer: PolyMap) -> list:
        return [oracle_compose(f, inner) for f in outer.components]

    phi = {key: tr.map for key, tr in inp.transitions.items()}
    violations: list = []
    seen = set()
    for i, j in sorted(phi, key=repr):
        if (j, i) in seen:
            continue
        seen.add((i, j))
        violations += _map_violations(
            compose(phi[(i, j)], phi[(j, i)]), ident,
            {"kind": "inverse_pair", "pair": [i, j]},
        )
    checked = 0
    ids = sorted(inp.charts, key=repr)
    for i in ids:
        for j in ids:
            for k in ids:
                if len({i, j, k}) != 3:
                    continue
                if not overlapping(i, j, k):
                    continue
                checked += 1
                violations += _map_violations(
                    compose(phi[(i, j)], phi[(j, k)]), phi[(i, k)],
                    {"kind": "cocycle", "triple": [i, j, k]},
                )
    return violations, checked


def oracle_matmul(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    """Entry (r, c) is the sum over k of oracle_mul(a[r][k], b[k][c])."""
    rows = []
    for ra in a.entries:
        row = []
        for c in range(b.cols):
            acc: dict = {}
            for k, x in enumerate(ra):
                for e, v in oracle_mul(x, b.entries[k][c]).terms.items():
                    acc[e] = acc.get(e, ZERO) + v
            row.append(Jet(a.num_vars, a.order,
                           {e: v for e, v in acc.items() if not v.is_zero()}))
        rows.append(row)
    return JetMatrix(rows)


def oracle_coeff_rank(mat) -> int:
    """Rank by forward elimination with a pivot search per column."""
    if not mat:
        return 0
    work = [list(row) for row in mat]
    rows, cols = len(work), len(work[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, rows):
            f = work[r][col] / work[rank][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def oracle_coeff_det(mat) -> Coeff:
    """Determinant by forward elimination, negated once per row swap."""
    n = len(mat)
    work = [list(row) for row in mat]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det


def oracle_coeff_inverse(mat) -> list:
    """Gauss-Jordan on ``[mat | 1]``, its own loop."""
    n = len(mat)
    aug = [list(mat[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise NotInvertibleError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [inv * x for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _jet_axpy(a: Jet, s: Coeff, b: Jet) -> Jet:
    """a + s*b, term by term."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, ZERO) + s * c
    return Jet(a.num_vars, a.order, out)


def oracle_jet_reciprocal(f: Jet) -> Jet:
    """1/f = (1 + u + ... + u^K) / c for f = c(1 - u), c the constant term,
    with the powers of u taken by oracle_mul."""
    zero = Jet(f.num_vars, f.order, {})
    c = f.terms.get((0,) * f.num_vars, ZERO)
    if c.is_zero():
        raise NotInvertibleError("zero constant term")
    one = Jet(f.num_vars, f.order, {(0,) * f.num_vars: ONE})
    u = _jet_axpy(one, -ONE / c, f)
    acc = power = one
    for _ in range(f.order):
        power = oracle_mul(power, u)
        acc = _jet_axpy(acc, ONE, power)
    return _jet_axpy(zero, ONE / c, acc)


def oracle_matrix_inverse(a: JetMatrix) -> JetMatrix:
    """Gauss-Jordan over the jet ring: a pivot search for an entry with a
    nonzero constant term, whose oracle_jet_reciprocal scales its row."""
    n, nv, order = a.rows, a.num_vars, a.order
    const = (0,) * nv
    work = [list(row) for row in a.entries]
    out = [[Jet(nv, order, {const: ONE} if i == j else {}) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not work[r][col].terms.get(const, ZERO).is_zero()), None)
        if pivot is None:
            raise NotInvertibleError("constant term of matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        out[col], out[pivot] = out[pivot], out[col]
        inv = oracle_jet_reciprocal(work[col][col])
        work[col] = [oracle_mul(inv, x) for x in work[col]]
        out[col] = [oracle_mul(inv, x) for x in out[col]]
        for r in range(n):
            if r != col:
                factor = work[r][col]
                work[r] = [_jet_axpy(x, -ONE, oracle_mul(factor, y))
                           for x, y in zip(work[r], work[col])]
                out[r] = [_jet_axpy(x, -ONE, oracle_mul(factor, y))
                          for x, y in zip(out[r], out[col])]
    return JetMatrix(out)


def _matrix_violation(product: JetMatrix, target: JetMatrix, head: dict) -> list:
    for r, (pa, ta) in enumerate(zip(product.entries, target.entries)):
        for c, (x, y) in enumerate(zip(pa, ta)):
            hit = _first_term(x, y)
            if hit is not None:
                return [{**head, "entry": (r, c), "exponent": hit[0], "value": hit[1]}]
    return []


def oracle_sheaf_cocycle(inp) -> list:
    """Inverse-pair (both products) and cocycle violations of a locally free
    sheaf input, checking all six orderings of every triple domain in the
    order (i, j, k), (i, k, j) for each rotation of the sorted triple.

    For inputs whose off-diagonal matrices all have the right shapes."""
    m = inp.matrices

    def identity(n: int, like: JetMatrix) -> JetMatrix:
        one = Jet(like.num_vars, like.order, {(0,) * like.num_vars: ONE})
        zero = Jet(like.num_vars, like.order, {})
        return JetMatrix([[one if r == c else zero for c in range(n)] for r in range(n)])

    violations: list = []
    seen = set()
    for i, j in sorted(m, key=repr):
        if i == j or (j, i) in seen:
            continue
        seen.add((i, j))
        g, h = m[(i, j)], m[(j, i)]
        violations += _matrix_violation(
            oracle_matmul(h, g), identity(inp.ranks[i], g),
            {"kind": "inverse_pair", "pair": [i, j]},
        )
        violations += _matrix_violation(
            oracle_matmul(g, h), identity(inp.ranks[j], g),
            {"kind": "inverse_pair", "pair": [j, i]},
        )
    for skey in sorted(inp.triple_domains, key=repr):
        for a in range(3):
            i, j, k = skey[a], skey[(a + 1) % 3], skey[(a + 2) % 3]
            for x, y, z in ((i, j, k), (i, k, j)):
                violations += _matrix_violation(
                    oracle_matmul(m[(y, z)], m[(x, y)]), m[(x, z)],
                    {"kind": "cocycle", "triple": [x, y, z]},
                )
    return violations


def oracle_recenter(f: Jet, center) -> dict:
    """Terms of u -> f(center + u): every monomial expanded by the binomial
    theorem in Coeff arithmetic, one variable at a time."""
    out: dict[tuple[int, ...], Coeff] = {}
    for e, c in f.terms.items():
        partial = {(): c}
        for x, k in zip(center, e):
            grown = {}
            for head, v in partial.items():
                for j in range(k + 1):
                    w = v * Coeff(math.comb(k, j))
                    for _ in range(k - j):
                        w = w * x
                    grown[head + (j,)] = grown.get(head + (j,), ZERO) + w
            partial = grown
        for u, v in partial.items():
            out[u] = out.get(u, ZERO) + v
    return {u: v for u, v in out.items() if not v.is_zero()}


def coeff_abs_ub(c: Coeff) -> Fraction:
    """Rational upper bound for |c|: ``sqrt_ub`` of |c|^2, exact when |c|^2
    is a rational square.  The rounding rule a range bound reproduces."""
    return sqrt_ub(c.abs2())


def oracle_range_bound(f: Jet, centers, radii) -> Fraction:
    """sum over the recentred terms of coeff_abs_ub(c_u) * prod r**k, each
    product and sum taken in Fractions."""
    total = Fraction(0)
    for u, c in oracle_recenter(f, centers).items():
        term = coeff_abs_ub(c)
        for r, k in zip(radii, u):
            term *= r**k
        total += term
    return total


def dist2(a: Coeff, b: Coeff) -> Fraction:
    """|a - b|^2 in Fractions."""
    dr = a.re - b.re
    di = a.im - b.im
    return dr * dr + di * di


def oracle_disc_contains(c_in: Coeff, r_in: Fraction, c_out: Coeff, r_out: Fraction) -> bool:
    """Closed disc (c_in, r_in) inside closed disc (c_out, r_out)."""
    if r_in > r_out:
        return False
    return dist2(c_in, c_out) <= (r_out - r_in) ** 2


def oracle_disc_margin(c_in: Coeff, r_in: Fraction, c_out: Coeff, r_out: Fraction):
    """r_out - r_in - sqrt_ub(|Δc|^2) when positive, else None."""
    m = r_out - r_in - sqrt_ub(dist2(c_in, c_out))
    return m if m > 0 else None


def discs_disjoint(c1: Coeff, r1: Fraction, c2: Coeff, r2: Fraction) -> bool:
    """Certified disjointness of the open discs: |Δc| >= r1 + r2."""
    return dist2(c1, c2) >= (r1 + r2) ** 2


def oracle_disc_lens_outer_candidates(c1: Coeff, r1: Fraction, c2: Coeff, r2: Fraction):
    """The chord disc (when the chord separates the lens), then either
    input disc; None when the open discs are disjoint."""
    if discs_disjoint(c1, r1, c2, r2):
        return None
    d2 = dist2(c1, c2)
    if d2 == 0:
        return [(c1, min(r1, r2))]
    candidates = []
    s1 = d2 + r1 * r1 - r2 * r2
    s2 = d2 + r2 * r2 - r1 * r1
    if s1 >= 0 and s2 >= 0:
        t = s1 / (2 * d2)
        m = c1 + (c2 - c1) * Coeff(t)
        h2 = r1 * r1 - t * t * d2
        if h2 > 0:
            candidates.append((m, sqrt_ub(h2)))
    candidates.append((c1, r1))
    candidates.append((c2, r2))
    return candidates


def oracle_disc_lens_inner(c1: Coeff, r1: Fraction, c2: Coeff, r2: Fraction):
    """A disc around the chord point clamped onto the segment, of radius
    the smaller sqrt_ub margin into either disc; None when not positive."""
    if discs_disjoint(c1, r1, c2, r2):
        return None
    d2 = dist2(c1, c2)
    if d2 == 0:
        return (c1, min(r1, r2))
    t = (d2 + r1 * r1 - r2 * r2) / (2 * d2)
    t = max(Fraction(0), min(Fraction(1), t))
    m = c1 + (c2 - c1) * Coeff(t)
    rho = min(r1 - sqrt_ub(dist2(m, c1)), r2 - sqrt_ub(dist2(m, c2)))
    if rho <= 0:
        return None
    return (m, rho)


def oracle_discs_common_point(discs):
    """Among the centres, the chord points of pairs and the radical centres
    of triples (in that order), the first with the least largest power
    |x - c|^2 - r^2, in Coeff arithmetic; None unless that power is
    negative."""
    candidates = [c for c, _ in discs]
    for (a, ra), (b, rb) in itertools.combinations(discs, 2):
        d2 = dist2(a, b)
        if d2:
            candidates.append(a + (b - a) * Coeff((d2 + ra * ra - rb * rb) / (2 * d2)))
    for (a, ra), (b, rb), (c, rc) in itertools.combinations(discs, 3):
        b, c = b - a, c - a
        det = 2 * (b.re * c.im - b.im * c.re)
        if det:
            pb, pc = b.abs2() + ra * ra - rb * rb, c.abs2() + ra * ra - rc * rc
            candidates.append(a + Coeff((pb * c.im - pc * b.im) / det,
                                        (pc * b.re - pb * c.re) / det))

    def power(x: Coeff) -> Fraction:
        return max(dist2(x, c) - r * r for c, r in discs)

    best = min(candidates, key=power)
    return best if power(best) < 0 else None


def oracle_sample_in_disc(rng, center: Coeff, radius: Fraction) -> Coeff:
    """A grid point drawn as Fractions a/64, b/64, rejected unless
    a^2 + b^2 <= 81/100, then scaled by the radius around the centre."""
    while True:
        a = Fraction(rng.randrange(-64, 65), 64)
        b = Fraction(rng.randrange(-64, 65), 64)
        if a * a + b * b <= Fraction(81, 100):
            return center + Coeff(a * radius, b * radius)


def _tube_discs(t: TubeDomain):
    """(centre, radius) per coordinate of a tube: the base discs, then the
    fiber discs around 0."""
    return list(zip(t.base.centers, t.base.radii)) + [(ZERO, t.fiber_radius)] * t.fiber_dim


def oracle_sample_in_tube(rng, t: TubeDomain) -> tuple:
    return tuple(oracle_sample_in_disc(rng, c, r) for c, r in _tube_discs(t))


def oracle_sample_in_polydisc(rng, p) -> tuple:
    return tuple(oracle_sample_in_disc(rng, c, r) for c, r in zip(p.centers, p.radii))


def oracle_point_in_discs(x, discs, strict: bool) -> bool:
    """Membership through the Coeff difference: |x_n - c_n|^2 against r_n^2,
    below it when strict, at most it otherwise."""
    assert len(x) == len(discs)
    for xv, (c, r) in zip(x, discs):
        d2 = (xv - c).abs2()
        if not (d2 < r * r if strict else d2 <= r * r):
            return False
    return True


def oracle_point_in_tube(x, t: TubeDomain, strict: bool) -> bool:
    return oracle_point_in_discs(x, _tube_discs(t), strict)


def _oracle_pair_image(cover, i, j, x):
    """phi_ij(x) by term-by-term evaluation when x lies in Q_i and in the
    inner tube of O_ij and the image lies in Q_j, all by Coeff membership;
    else None."""
    data = cover.overlaps.get((i, j))
    if data is None or data.vacuous or not oracle_point_in_tube(x, cover.tubes[i], True) \
            or not oracle_point_in_tube(x, data.o_inner, True):
        return None
    image = tuple(oracle_eval(c, x) for c in cover.input.transitions[(i, j)].map.components)
    return image if oracle_point_in_tube(image, cover.tubes[j], True) else None


def oracle_closed_audit(cover, samples: int, seed: int) -> dict:
    """The separation audit of ``check_closed_relation`` on Fraction points:
    the same draws, each gap max |y_k - phi_ij(x)_k|^2 taken in Coeff."""
    rng = random.Random(seed)
    pairs = [pk for pk, cert in cover.pairs.items() if not cert.vacuous]
    audited = separated = skipped = 0
    min_separation = None
    for _ in range(samples if pairs else 0):
        i, j = pairs[rng.randrange(len(pairs))]
        x = oracle_sample_in_tube(rng, cover.tubes[i])
        y = oracle_sample_in_tube(rng, cover.tubes[j])
        partner = _oracle_pair_image(cover, i, j, x)
        if partner is None:
            skipped += 1
            continue
        audited += 1
        gap = max((a - b).abs2() for a, b in zip(y, partner))
        if gap:
            separated += 1
            sep = sqrt_lb(gap)
            if sep > 0 and (min_separation is None or sep < min_separation):
                min_separation = sep
    return {"samples": samples, "audited": audited, "separated": separated,
            "skipped": skipped, "min_separation": min_separation}


def oracle_sample_chains(cover, chains: int, seed: int) -> tuple[list, int]:
    """``sample_chains`` on Fraction points: the same live triples and
    draws, each link decided by ``_oracle_pair_image``."""
    charts = sorted(cover.input.charts, key=repr)
    live = [(i, j, k) for (i, j), cert in cover.pairs.items() for k in charts
            if not cert.vacuous and k not in (i, j) and (j, k) in cover.pairs
            and not cover.pairs[(j, k)].vacuous and (i, k) in cover.input.transitions]
    rng = random.Random(seed)
    accepted, attempts = [], 0
    while live and len(accepted) < chains and attempts < chains * 200:
        attempts += 1
        i, j, k = live[rng.randrange(len(live))]
        x = oracle_sample_in_tube(rng, cover.pairs[(i, j)].bound)
        y = _oracle_pair_image(cover, i, j, x)
        z = None if y is None else _oracle_pair_image(cover, j, k, y)
        if z is not None:
            accepted.append((i, j, k, x, z))
    return accepted, attempts
