"""Certified region arithmetic: polydiscs, tube domains, range bounds.

Regions are restricted to products of discs.  Every predicate here is a
one-sided certificate: a ``True`` answer (or a returned margin/bound) is
backed by exact rational arithmetic and is sound; a ``False``/``None``
answer means "not certified", never "certified false".  Callers react to
uncertified answers by shrinking, not by failing.  The one exception is
:func:`polydisc_common_point`, an exact decision: its ``None`` means the
open intersection is empty.

Closures are modelled by closed polydiscs with the same radii, so all
relative-compactness checks demand strictly positive margins.

The fiber balls of tube domains use the maximum norm, i.e. they are
polydiscs themselves; this fixes the free choice of fiberwise metric and
keeps every region a product of discs.

Range bounds run on integers: a jet is recentred on its Gaussian-integer
numerators over one denominator, each term's modulus is rounded up by the
rule of :func:`germglue.scalars.sqrt_ub` (through ``sqrt_ub_ratio``), and
the terms are summed over one common denominator into one Fraction.  The
result is the rational the term-by-term Fraction sum gives.  A fiber
profile keeps these sums per fiber degree, so the bound over one base
disc at each fiber radius is a Horner evaluation on integers.  Membership
runs on integers too: a point is taken as Gaussian-integer numerators over
one denominator (:func:`germglue.jets.point_numerators`), a region as its
:func:`region_table` (every centre and radius over one denominator, built
once per audit call), and each coordinate's |x - c|^2 against r^2 is one
cross-multiplied comparison.  So are the disc certificates: each is an
integer sign test on unreduced |Δc|^2 pairs, margins round through
``sqrt_ub_ratio``, and a Fraction is built only for a returned value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Tuple

from .errors import CoverageLossError, ShapeError
from .jets import (
    Jet,
    NumPoint,
    Numerators,
    PolyMap,
    gaussian_powers,
    jet_canonical,
    point_numerators,
)
from .scalars import Coeff, ZERO, sqrt_ub, sqrt_ub_ratio

Point = Tuple[Coeff, ...]


class Polydisc:
    """Product of open discs: one (center, radius) pair per variable."""

    __slots__ = ("centers", "radii")

    def __init__(self, centers: Sequence[Coeff], radii: Sequence[Fraction]):
        centers = tuple(centers)
        radii = tuple([r if isinstance(r, Fraction) else Fraction(r) for r in radii])
        if len(centers) != len(radii) or not centers:
            raise ShapeError("polydisc needs matching nonempty centers and radii")
        if any(r <= 0 for r in radii):
            raise ShapeError("polydisc radii must be positive")
        self.centers = centers
        self.radii = radii

    @property
    def dim(self) -> int:
        return len(self.radii)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polydisc):
            return NotImplemented
        return self.centers == other.centers and self.radii == other.radii

    def __hash__(self):
        raise TypeError("regions are not hashable")

    def __repr__(self) -> str:
        return f"Polydisc(dim {self.dim}, radii {[str(r) for r in self.radii]})"


class TubeDomain:
    """Base polydisc times the fiber ball {max_j |z_j| < fiber_radius}."""

    __slots__ = ("chart", "base", "fiber_dim", "fiber_radius")

    def __init__(self, chart, base: Polydisc, fiber_dim: int, fiber_radius: Fraction):
        if not isinstance(fiber_radius, Fraction):
            fiber_radius = Fraction(fiber_radius)
        if fiber_dim < 1:
            raise ShapeError("tube needs at least one fiber variable")
        if fiber_radius <= 0:
            raise ShapeError("fiber radius must be positive")
        self.chart = chart
        self.base = base
        self.fiber_dim = fiber_dim
        self.fiber_radius = fiber_radius

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TubeDomain):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.base == other.base
            and self.fiber_dim == other.fiber_dim
            and self.fiber_radius == other.fiber_radius
        )

    def __hash__(self):
        raise TypeError("regions are not hashable")

    def __repr__(self) -> str:
        return (
            f"TubeDomain(chart {self.chart!r}, base {self.base!r}, "
            f"fiber {self.fiber_dim} vars < {self.fiber_radius})"
        )


class CoverTriple:
    """Concentric shrinking U inside V inside W with strict margins."""

    __slots__ = ("U", "V", "W")

    def __init__(self, U: Polydisc, V: Polydisc, W: Polydisc):
        if not (U.centers == V.centers == W.centers):
            raise ShapeError("cover triple must be concentric")
        if not all(u < v < w for u, v, w in zip(U.radii, V.radii, W.radii)):
            raise ShapeError("cover triple needs strictly increasing radii")
        self.U = U
        self.V = V
        self.W = W

    def __repr__(self) -> str:
        return f"CoverTriple({self.U!r} in {self.V!r} in {self.W!r})"


# ---------------------------------------------------------------------------
# single-disc certificates (cross-multiplied integer sign tests)
# ---------------------------------------------------------------------------


def _diff(a: Fraction, b: Fraction) -> tuple[int, int]:
    """a - b as an unreduced pair ``(num, den)``, den > 0, with no gcd."""
    p, q = a.denominator, b.denominator
    if p == q:
        return a.numerator - b.numerator, p
    return a.numerator * q - b.numerator * p, p * q


def _dist2_ratio(a: Coeff, b: Coeff) -> tuple[int, int]:
    """|a - b|^2 as an unreduced pair ``(num, den)``, den > 0, built from the
    parts' numerators and denominators with no gcd."""
    x, xd = _diff(a.re, b.re)
    y, yd = _diff(a.im, b.im)
    return (x * yd) ** 2 + (y * xd) ** 2, (xd * yd) ** 2


def disc_contains(c_in: Coeff, r_in: Fraction, c_out: Coeff, r_out: Fraction) -> bool:
    """Closed disc (c_in, r_in) inside closed disc (c_out, r_out):
    r_in <= r_out and |Δc|^2 <= (r_out - r_in)^2."""
    g, h = _diff(r_out, r_in)
    if g < 0:
        return False
    n, d = _dist2_ratio(c_in, c_out)
    return n * h * h <= g * g * d


def disc_margin(c_in: Coeff, r_in: Fraction, c_out: Coeff, r_out: Fraction) -> Optional[Fraction]:
    """Certified lower bound r_out - r_in - sqrt_ub(|Δc|^2) for the boundary
    gap r_out - r_in - |Δc|, or None when no positive margin is certified."""
    g, h = _diff(r_out, r_in)
    s, e = sqrt_ub_ratio(*_dist2_ratio(c_in, c_out))
    m = g * e - s * h
    return Fraction(m, h * e) if m > 0 else None


def _lens(c1: Coeff, r1: Fraction, c2: Coeff, r2: Fraction) -> Optional[tuple[int, ...]]:
    """``(big, d, u1, u2, w)`` with |Δc|^2 = big / (d w^2), r_k = u_k / w, or
    None when the open discs are certifiably disjoint (|Δc| >= r1 + r2)."""
    n, d = _dist2_ratio(c1, c2)
    b1, b2 = r1.denominator, r2.denominator
    u1, u2, w = r1.numerator * b2, r2.numerator * b1, b1 * b2
    big = n * w * w
    if big >= (u1 + u2) ** 2 * d:
        return None
    return big, d, u1, u2, w


def disc_lens_outer_candidates(
    c1: Coeff, r1: Fraction, c2: Coeff, r2: Fraction
) -> Optional[list[tuple[Coeff, Fraction]]]:
    """Discs certified to contain the intersection of the two closed discs;
    None when the open discs are certifiably disjoint.

    Candidates: the disc on the radical chord (when the chord separates the
    lens; exact rational center, upper square-root radius bound) listed
    first, then either input disc.  Callers needing a single disc take the
    smallest; callers fitting the bound into a target may try each."""
    lens = _lens(c1, r1, c2, r2)
    if lens is None:
        return None
    big, d, u1, u2, w = lens
    if not big:
        return [(c1, min(r1, r2))]
    candidates = []
    # over d w^2: s1 = |Δc|^2 + r1^2 - r2^2 and s2 = |Δc|^2 + r2^2 - r1^2
    diff = (u1 * u1 - u2 * u2) * d
    s1 = big + diff
    if s1 >= 0 and big >= diff:
        # chord disc: center on the segment at t = s1 / (2 |Δc|^2), covering
        # the lens because both circular arcs bend inside it when the chord
        # lies between centers; h^2 = r1^2 - t^2 |Δc|^2
        h2 = 4 * big * d * u1 * u1 - s1 * s1
        if h2 > 0:
            m = c1 + (c2 - c1) * Coeff(Fraction(s1, 2 * big))
            candidates.append((m, sqrt_ub(Fraction(h2, 4 * big * d * w * w))))
    candidates.append((c1, r1))
    candidates.append((c2, r2))
    return candidates


def disc_lens_outer(
    c1: Coeff, r1: Fraction, c2: Coeff, r2: Fraction
) -> Optional[tuple[Coeff, Fraction]]:
    """Smallest candidate disc certified to contain the intersection of the
    two closed discs; None when the open discs are certifiably disjoint."""
    candidates = disc_lens_outer_candidates(c1, r1, c2, r2)
    if candidates is None:
        return None
    return min(candidates, key=lambda cr: cr[1])


def disc_lens_inner(
    c1: Coeff, r1: Fraction, c2: Coeff, r2: Fraction
) -> Optional[tuple[Coeff, Fraction]]:
    """An open disc certified inside the open intersection, or None.

    Every point strictly within rho of the returned center lies in both
    open discs."""
    lens = _lens(c1, r1, c2, r2)
    if lens is None:
        return None
    big, d, u1, u2, w = lens
    if not big:
        return (c1, min(r1, r2))
    # the chord point at t = p / (2 big), clamped onto the segment so the
    # center is sensible even in one-disc-inside-the-other configurations
    p = min(max(big + (u1 * u1 - u2 * u2) * d, 0), 2 * big)
    m = c1 + (c2 - c1) * Coeff(Fraction(p, 2 * big))
    # |m - c1|^2 = p^2 / den and |m - c2|^2 = (2 big - p)^2 / den
    den = 4 * big * d * w * w
    q1, e = sqrt_ub_ratio(p * p, den)
    q2, _ = sqrt_ub_ratio((2 * big - p) ** 2, den)
    rho = min(u1 * e - q1 * w, u2 * e - q2 * w)
    if rho <= 0:
        return None
    return (m, Fraction(rho, w * e))


# ---------------------------------------------------------------------------
# polydisc certificates
# ---------------------------------------------------------------------------


def _check_same_dim(a: Polydisc, b: Polydisc) -> None:
    if a.dim != b.dim:
        raise ShapeError(f"polydisc dimension mismatch: {a.dim} vs {b.dim}")


def polydisc_contains(inner: Polydisc, outer: Polydisc) -> bool:
    _check_same_dim(inner, outer)
    return all(
        disc_contains(ci, ri, co, ro)
        for ci, ri, co, ro in zip(inner.centers, inner.radii, outer.centers, outer.radii)
    )


def polydisc_rel_compact(inner: Polydisc, outer: Polydisc) -> Optional[Fraction]:
    """Strict containment margin (minimum over coordinates), or None."""
    _check_same_dim(inner, outer)
    margins = []
    for ci, ri, co, ro in zip(inner.centers, inner.radii, outer.centers, outer.radii):
        m = disc_margin(ci, ri, co, ro)
        if m is None:
            return None
        margins.append(m)
    return min(margins)


def polydisc_intersection_outer(a: Polydisc, b: Polydisc) -> Optional[Polydisc]:
    """Polydisc certified to contain the intersection; None when the
    intersection is certifiably empty."""
    _check_same_dim(a, b)
    centers, radii = [], []
    for ca, ra, cb, rb in zip(a.centers, a.radii, b.centers, b.radii):
        lens = disc_lens_outer(ca, ra, cb, rb)
        if lens is None:
            return None
        centers.append(lens[0])
        radii.append(lens[1])
    return Polydisc(centers, radii)


def polydisc_intersection_inner(a: Polydisc, b: Polydisc) -> Optional[Polydisc]:
    """Polydisc certified inside the open intersection; None when no
    positive-radius inner witness is found."""
    _check_same_dim(a, b)
    centers, radii = [], []
    for ca, ra, cb, rb in zip(a.centers, a.radii, b.centers, b.radii):
        lens = disc_lens_inner(ca, ra, cb, rb)
        if lens is None:
            return None
        centers.append(lens[0])
        radii.append(lens[1])
    return Polydisc(centers, radii)


def polydisc_inflate(p: Polydisc, delta: Fraction) -> Polydisc:
    if delta < 0:
        raise ShapeError("inflation amount must be nonnegative")
    return Polydisc(p.centers, [r + delta for r in p.radii])


def polydisc_scale(p: Polydisc, factor: Fraction) -> Polydisc:
    if factor <= 0:
        raise ShapeError("scale factor must be positive")
    return Polydisc(p.centers, [r * factor for r in p.radii])


def _discs_common_point(discs: Sequence[tuple[Coeff, Fraction]]) -> Optional[Coeff]:
    """The minimiser x of the largest power |x - c_i|^2 - r_i^2 of a point
    with respect to the circles, when that power is negative; else None:
    the open discs share no point.

    At the minimiser 0 lies in the hull of the gradients 2(x - c_i) of the
    largest powers, so x lies in the hull of at most three centres of equal
    power (Caratheodory): a centre, the chord point of two discs, or the
    radical centre of three.  The largest power is least at x among them.

    Every disc is scaled by one common denominator L to integers
    (x_i + i y_i, s_i), and each candidate is kept as (a, b, q) for the
    point (a + i b) / (q L), q != 0: its largest power is an integer over
    q^2, so powers compare cross-multiplied."""
    scale = math.lcm(*[v.denominator for c, r in discs for v in (c.re, c.im, r)])
    ints = [[v.numerator * (scale // v.denominator) for v in (c.re, c.im, r)]
            for c, r in discs]
    candidates = [(x, y, 1) for x, y, _ in ints]
    for (ax, ay, ra), (bx, by, rb) in combinations(ints, 2):
        bx, by = bx - ax, by - ay
        d2 = bx * bx + by * by
        if d2:
            s = d2 + ra * ra - rb * rb
            candidates.append((2 * d2 * ax + bx * s, 2 * d2 * ay + by * s, 2 * d2))
    for (ax, ay, ra), (bx, by, rb), (cx, cy, rc) in combinations(ints, 3):
        # equal powers at a + y: 2 y.(b - a) = pb and 2 y.(c - a) = pc
        bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
        det = 2 * (bx * cy - by * cx)
        if det:
            pb = bx * bx + by * by + ra * ra - rb * rb
            pc = cx * cx + cy * cy + ra * ra - rc * rc
            candidates.append((ax * det + pb * cy - pc * by, ay * det + pc * bx - pb * cx, det))
    best = None
    for a, b, q in candidates:
        power = max((a - x * q) ** 2 + (b - y * q) ** 2 - (s * q) ** 2 for x, y, s in ints)
        if best is None or power * best[2] ** 2 < best[3] * q * q:
            best = (a, b, q, power)
    a, b, q, power = best
    if power >= 0:
        return None
    return Coeff(Fraction(a, q * scale), Fraction(b, q * scale))


def polydisc_common_point(ps: Sequence[Polydisc]) -> Optional[Point]:
    """A rational point in the open intersection of the polydiscs, decided
    exactly coordinate by coordinate; None means the intersection is empty.
    Each coordinate of the point is the unique minimiser of the largest
    power, so the point does not depend on the order of ``ps``."""
    for q in ps[1:]:
        _check_same_dim(ps[0], q)
    point = []
    for k in range(ps[0].dim):
        x = _discs_common_point([(p.centers[k], p.radii[k]) for p in ps])
        if x is None:
            return None
        point.append(x)
    return tuple(point)


# ---------------------------------------------------------------------------
# tube-domain certificates
# ---------------------------------------------------------------------------


def tube_as_polydisc(t: TubeDomain) -> Polydisc:
    """The tube as a polydisc in base + fiber variables (fiber centered 0)."""
    centers = t.base.centers + (ZERO,) * t.fiber_dim
    radii = t.base.radii + (t.fiber_radius,) * t.fiber_dim
    return Polydisc(centers, radii)


def tube_contains(inner: TubeDomain, outer: TubeDomain) -> bool:
    if inner.chart != outer.chart:
        raise ShapeError("tube containment across different charts")
    if inner.fiber_dim != outer.fiber_dim:
        raise ShapeError("tube fiber dimension mismatch")
    return (
        polydisc_contains(inner.base, outer.base)
        and inner.fiber_radius <= outer.fiber_radius
    )


def tube_rel_compact(inner: TubeDomain, outer: TubeDomain) -> Optional[Fraction]:
    if inner.chart != outer.chart:
        raise ShapeError("tube containment across different charts")
    if inner.fiber_dim != outer.fiber_dim:
        raise ShapeError("tube fiber dimension mismatch")
    base_margin = polydisc_rel_compact(inner.base, outer.base)
    fiber_margin = outer.fiber_radius - inner.fiber_radius
    if base_margin is None or fiber_margin <= 0:
        return None
    return min(base_margin, fiber_margin)


GRID_DENOMINATOR = 64


def region_table(region) -> tuple:
    """A :class:`Polydisc` or :class:`TubeDomain` (fiber discs around 0) as
    membership and the grid sampler read it: ``(q, rows)``, q the lcm of the
    centre and G * radius denominators (G = GRID_DENOMINATOR), and per disc
    a row (m, m', s, h): centre (m + i*m') / q, radius s / q, grid step h / q."""
    p = region if isinstance(region, Polydisc) else tube_as_polydisc(region)
    discs = tuple(zip(p.centers, p.radii))
    g = GRID_DENOMINATOR
    q = math.lcm(*[n for c, r in discs
                   for n in (c.re.denominator, c.im.denominator, g * r.denominator)])
    return q, tuple([(c.re.numerator * (q // c.re.denominator),
                      c.im.numerator * (q // c.im.denominator),
                      r.numerator * (q // r.denominator),
                      r.numerator * (q // (g * r.denominator))) for c, r in discs])


def table_of(tables: dict, region) -> tuple:
    """:func:`region_table`, built once per ``tables``, the caller's dict for
    one call: keyed by id, its entry keeps ``region`` so that no id recurs."""
    entry = tables.get(id(region))
    if entry is None:
        entry = tables[id(region)] = (region, region_table(region))
    return entry[1]


def numerators_in_table(x: NumPoint, table: tuple, strict: bool = True) -> bool:
    """``x`` lies in every disc of a :func:`region_table`, open when strict:
    for x_k = (a + i*b) / p and the row (m, m', s, h) over q, the integer
    test (a q - m p)^2 + (b q - m' p)^2 < (s p)^2."""
    p, xr, xi = x
    q, rows = table
    if len(xr) != len(rows):
        raise ShapeError("point dimension mismatch")
    for a, b, (m, mi, s, _) in zip(xr, xi, rows):
        dr = a * q - m * p
        di = b * q - mi * p
        lhs, rp = dr * dr + di * di, s * p
        if not (lhs < rp * rp if strict else lhs <= rp * rp):
            return False
    return True


def numerators_in_tube(x: NumPoint, t: TubeDomain, strict: bool = True) -> bool:
    """Membership of a :func:`germglue.jets.point_numerators` point."""
    return numerators_in_table(x, region_table(t), strict)


def point_in_tube(x: Sequence[Coeff], t: TubeDomain, strict: bool = True) -> bool:
    return numerators_in_table(point_numerators(x), region_table(t), strict)


def point_in_polydisc(x: Sequence[Coeff], p: Polydisc, strict: bool = True) -> bool:
    return numerators_in_table(point_numerators(x), region_table(p), strict)


def max_dist2(x: NumPoint, y: NumPoint) -> Fraction:
    """max over k of |x_k - y_k|^2, as one Fraction."""
    q, xr, xi = x
    p, yr, yi = y
    top = max((a * p - c * q) ** 2 + (b * p - e * q) ** 2
              for a, b, c, e in zip(xr, xi, yr, yi))
    return Fraction(top, (q * p) ** 2)


# ---------------------------------------------------------------------------
# range bounds
# ---------------------------------------------------------------------------


def _shift_into(out: dict, num: dict, var: int, weights: list) -> None:
    """out += num with x_var^m replaced by sum over j of weights[m][j] x_var^j."""
    for e, v in num.items():
        m = e[var]
        head, tail = e[:var], e[var + 1:]
        for j, w in enumerate(weights[m]):
            if w:
                key = head + (j,) + tail
                out[key] = out.get(key, 0) + v * w


def recenter(f: Jet, center: Sequence[Coeff]) -> Jet:
    """The polynomial u -> f(center + u), exact (no truncation loss: the
    total degree never grows under the shift)."""
    return jet_canonical(f.num_vars, f.order, *_recentered(f, center))


def _recentered(f: Jet, center: Sequence[Coeff]) -> tuple[int, Numerators, Numerators]:
    """:func:`recenter` as a triple ``(d, re, im)`` of the jet's fields.

    For each shift x_i -> x_i + p/q (p a Gaussian integer) the whole
    polynomial is scaled by q^k, k the largest power of x_i, so
    (x_i + p/q)^m expands with the integer weights C(m, j) p^(m-j) q^(k-m+j).
    Nothing is normalised: a term that cancels stays as a zero numerator.
    With no nonzero centre coordinate the dicts are f's own, so callers
    must not mutate them."""
    if len(center) != f.num_vars:
        raise ShapeError("center has wrong dimension")
    d, re, im = f.den, f.re, f.im
    for var, c in enumerate(center):
        if c.is_zero():
            continue
        k = max((e[var] for e in {**re, **im}), default=0)
        q, (pr,), (pi,) = point_numerators((c,))
        # p^t q^(k-t) for t = 0..k
        scaled = [(a * q ** (k - t), b * q ** (k - t))
                  for t, (a, b) in enumerate(gaussian_powers(pr, pi, k))]
        wr = [[math.comb(m, j) * scaled[m - j][0] for j in range(m + 1)]
              for m in range(k + 1)]
        new_re: dict = {}
        new_im: dict = {}
        _shift_into(new_re, re, var, wr)
        _shift_into(new_im, im, var, wr)
        if pi:
            wi = [[math.comb(m, j) * scaled[m - j][1] for j in range(m + 1)]
                  for m in range(k + 1)]
            _shift_into(new_re, im, var, [[-w for w in row] for row in wi])
            _shift_into(new_im, re, var, wi)
        re, im, d = new_re, new_im, d * q**k
    return d, re, im


def range_bound(f: Jet, d: Polydisc) -> Fraction:
    """Sound upper bound for sup over the closed polydisc of |f|, treating
    the stored terms of f as an exact polynomial: after recentering,
    sum |coeff| * radii**e.  Exact for monomials with real coefficients.

    Each |coeff| is the one :func:`germglue.scalars.sqrt_ub` gives for
    |coeff|^2, so the total is the same rational as that sum taken term by
    term; it is computed on the integer numerators of the recentring."""
    if f.num_vars != d.dim:
        raise ShapeError("jet/polydisc dimension mismatch")
    (num,), den = _moduli_by_degree(*_recentered(f, d.centers), d.radii)
    return Fraction(num, den)


def _moduli_by_degree(d: int, re: Numerators, im: Numerators, radii: Sequence[Fraction],
                      skip: Optional[tuple] = None) -> tuple[list[int], int]:
    """``(nums, den)``: nums[m] / den is the sum over e != skip of degree m
    in the variables past the first n = len(radii) of
    |(re[e] + i*im[e]) / d| * radii**e[:n], each modulus rounded up as
    :func:`sqrt_ub` rounds it, summed on integers.

    A real or imaginary term contributes |n| / d, which is what sqrt_ub
    gives for n^2 / d^2, so it needs no square root.  A mixed term rounds
    (re^2 + im^2) / d^2 through ``sqrt_ub_ratio``, which puts every mixed
    term over one denominator.  With radii r_i = rn_i / rd_i and K_i the top
    power of variable i, radii**e is the integer weight
    prod rn_i^k_i rd_i^(K_i - k_i) over prod rd_i^K_i."""
    keys = {**re, **im}
    keys.pop(skip, None)
    n = len(radii)
    degree = {e: sum(e[n:]) for e in keys}
    tops = [max((e[i] for e in keys), default=0) for i in range(n)]
    weights = [[r.numerator ** k * r.denominator ** (top - k) for k in range(top + 1)]
               for r, top in zip(radii, tops)]
    d2 = d * d
    den = None
    real = [0] * (max(degree.values(), default=0) + 1)
    mixed = real[:]
    for e, m in degree.items():
        w = 1
        for row, k in zip(weights, e):
            w *= row[k]
        a, b = re.get(e, 0), im.get(e, 0)
        if not b:
            real[m] += abs(a) * w
        elif not a:
            real[m] += abs(b) * w
        else:
            s, den = sqrt_ub_ratio(a * a + b * b, d2)
            mixed[m] += s * w
    scale = math.prod(r.denominator ** top for r, top in zip(radii, tops))
    if den is None:
        return real, d * scale
    return [r * (den // d) + x for r, x in zip(real, mixed)], den * scale


def range_bound_tube(f: Jet, t: TubeDomain) -> Fraction:
    return range_bound(f, tube_as_polydisc(t))


def fiber_profile(f: Jet, base: Polydisc) -> tuple[list[int], int]:
    """The range bounds of f over base x {max_j |z_j| <= rho}, for every
    rho at once: f recentred at (base centres, 0), and the bound of its
    fiber-degree-m terms at rho = 1 as ``nums[m] / den``."""
    center = base.centers + (ZERO,) * (f.num_vars - base.dim)
    return _moduli_by_degree(*_recentered(f, center), base.radii)


def fiber_bound(profile: tuple[list[int], int], rho: Fraction) -> Fraction:
    """sum over m of nums[m] / den * rho^m, by Horner on integers: equal to
    :func:`range_bound_tube` over the profile's base at fiber radius rho,
    since every term's rounded modulus is an exact rational."""
    nums, den = profile
    p, q = rho.numerator, rho.denominator
    acc, scale = nums[-1], 1
    for num in nums[-2::-1]:
        scale *= q
        acc = acc * p + num * scale
    return Fraction(acc, den * scale)


def map_image_bound(
    f: PolyMap,
    d: TubeDomain,
    target_base_dim: int,
    target_chart=None,
) -> TubeDomain:
    """Certified tube superset of f(d).

    The first ``target_base_dim`` components are treated as base
    coordinates: each image disc is centered at the component's value at the
    domain center (base center, fiber 0) with radius bounding the deviation.
    That value is the constant term of the component recentred there, and
    the radius is the range bound of the other recentred terms, so each base
    component is recentred once.  Remaining components are fiber coordinates
    measured from 0.  For the identity map the result equals the input
    exactly.
    """
    if f.source_vars != d.base.dim + d.fiber_dim:
        raise ShapeError("map source does not match tube dimension")
    if not 0 <= target_base_dim < f.target_vars:
        raise ShapeError("target base dimension out of range")
    box = tube_as_polydisc(d)
    origin = (0,) * f.source_vars
    centers, radii = [], []
    for comp in f.components[:target_base_dim]:
        den, re, im = _recentered(comp, box.centers)
        centers.append(Coeff(Fraction(re.get(origin, 0), den),
                             Fraction(im.get(origin, 0), den)))
        (num,), bound_den = _moduli_by_degree(den, re, im, box.radii, skip=origin)
        radii.append(Fraction(num, bound_den))
    fiber = Fraction(0)
    for comp in f.components[target_base_dim:]:
        fiber = max(fiber, range_bound(comp, box))
    if fiber == 0:
        # a certified superset must stay a valid (open) tube
        fiber = Fraction(1, 2**40)
    radii = [r if r > 0 else Fraction(1, 2**40) for r in radii]
    chart = d.chart if target_chart is None else target_chart
    return TubeDomain(chart, Polydisc(centers, radii), f.target_vars - target_base_dim, fiber)


# ---------------------------------------------------------------------------
# cover shrinking
# ---------------------------------------------------------------------------

RHO_U = Fraction(3, 5)
RHO_V = Fraction(4, 5)


def refine_cover(ws: Sequence[Polydisc], base_points: Sequence[Point] = ()) -> list[CoverTriple]:
    """Concentric shrinking of each W at radius fractions RHO_U < RHO_V < 1,
    certifying that the shrunk U's still cover the declared base sample
    points (closed-disc membership)."""
    triples = [CoverTriple(polydisc_scale(w, RHO_U), polydisc_scale(w, RHO_V), w) for w in ws]
    missed = [
        tuple(str(c) for c in pt)
        for pt in base_points
        if not any(point_in_polydisc(pt, t.U, strict=False) for t in triples)
    ]
    if missed:
        raise CoverageLossError(
            f"shrunk cover misses {len(missed)} declared base point(s); first: {missed[0]}"
        )
    return triples
