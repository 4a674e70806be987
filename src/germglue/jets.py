"""Truncated multivariate power series (jets) and polynomial map germs.

A :class:`Jet` stores a polynomial in ``num_vars`` variables, truncated at a
total degree ``order``, as Gaussian-integer numerators over one denominator:
f = sum over e of (re[e] + i*im[e]) / den * x^e.  Jets are the
computational stand-in for germs of holomorphic functions along a zero
section: two germs are treated as equal when their jets agree, and every
certificate produced downstream records the order at which identities were
checked.

A jet stores only its numerators, and they stay canonical:
``den > 0``, the gcd of ``den`` and every numerator is 1, no entry is zero,
and ``im`` is empty for a real jet (the content-and-primitive-part layout of
FLINT's ``fmpq_poly``; Hart, "FLINT: Fast Library for Number Theory", ICMS
2010).  So two jets are equal exactly when their fields are.  Every kernel
reads the fields and hands its result to :func:`jet_canonical`, the one
constructor that normalises, by one gcd.  The kernels run on plain ints
(real parts only when every operand is real): :func:`jet_mul` (with
:func:`sum_of_products`), :func:`jet_compose` and :func:`eval_numerators`
(behind :func:`jet_eval` and :func:`map_eval`) here, and
:func:`germglue.regions.recenter`, :func:`germglue.regions.range_bound` and
:func:`germglue.regions.map_image_bound`, which bound the recentred
numerators without building a jet.  No fraction is reduced inside an inner
loop.  ``Jet.terms`` is a read-only view that builds one
:class:`~germglue.scalars.Coeff` per term on each read, for output:
serialization, reports and messages.

A :class:`PolyMap` is a tuple of jets sharing one source variable count and
one order, and models a map germ.  Composition and inversion are only defined
for maps all of whose components are constant-free; that is exactly the
condition under which the truncated composite depends on the operands only
through their jets.

Composition has one routine.  It sums each outer component from one table of
the monomials g^e of the inner map g (a :class:`PowerTable`), in which every
monomial is built once through :func:`jet_mul`; every component of the outer
map reads from it (Brent & Kung, "Fast algorithms for manipulating formal
power series", J. ACM 25(4), 1978, share the powers of the inner series the
same way).  The table belongs to the caller: :func:`map_compose` takes one
as ``powers``, so that several compositions after the same g share it, and
builds a fresh one otherwise.  Nothing is cached on a jet, a map or the
module.

Evaluation has one routine too: :func:`eval_numerators` takes a map
converted once by :func:`map_numerators` and a point given as
Gaussian-integer numerators over one denominator, and builds each monomial
of the point once for all components from flat terms (power of q, nonzero
variable powers, numerators per component).  :func:`map_eval` and
:func:`jet_eval` are its cases for a point of Coeff.

All operations are pure: they never mutate their operands, so values can be
shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .errors import CompositionDomainError, ShapeError
from .scalars import Coeff, ONE, coeff_inverse

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Coeff]
Numerators = Dict[Exponent, int]


class Jet:
    """Polynomial truncated at total degree ``order``.

    ``re`` and ``im`` map exponent tuples of length ``num_vars`` to the
    nonzero numerators of the real and imaginary parts over ``den``, in the
    canonical form the module docstring states; no stored exponent exceeds
    ``order`` in total degree.  ``Jet(num_vars, order, {exponent: Coeff})``
    builds a jet from its coefficients through :func:`jet_from_terms`;
    kernels build theirs through :func:`jet_canonical`.  Instances are
    immutable by convention: no public operation mutates them.
    """

    __slots__ = ("num_vars", "order", "den", "re", "im")

    def __init__(self, num_vars: int, order: int, terms: Terms):
        f = jet_from_terms(num_vars, order, terms.items())
        self.num_vars, self.order = num_vars, order
        self.den, self.re, self.im = f.den, f.re, f.im

    @property
    def terms(self) -> Terms:
        """The nonzero coefficients as ``{exponent: Coeff}``, built on each
        read."""
        return {e: _coeff(self, e) for e in {**self.re, **self.im}}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return jet_eq(self, other)

    def __hash__(self):
        raise TypeError("jets are not hashable")

    def __repr__(self) -> str:
        body = " + ".join(f"{c!r}*x^{e}" for e, c in grlex_terms(self))
        return f"Jet({self.num_vars} vars, order {self.order}: {body or '0'})"


def jet_canonical(num_vars: int, order: int, den: int, re: Numerators,
                  im: Numerators) -> Jet:
    """The jet sum over e of (re[e] + i*im[e]) / den * x^e, for den > 0, in
    canonical form: reduced by one gcd, zero entries dropped."""
    g = math.gcd(den, *re.values(), *im.values())
    f = Jet.__new__(Jet)
    f.num_vars, f.order, f.den = num_vars, order, den // g
    f.re = {e: v // g for e, v in re.items() if v}
    f.im = {e: v // g for e, v in im.items() if v}
    return f


def _grlex_key(item):
    e = item[0]
    return (sum(e), e)


def grlex_terms(f: Jet):
    """Terms of ``f`` in graded-lexicographic order (the canonical order used
    for serialization and for reporting offending exponents)."""
    return sorted(f.terms.items(), key=_grlex_key)


def jet_zero(num_vars: int, order: int) -> Jet:
    _check_shape_args(num_vars, order)
    return jet_canonical(num_vars, order, 1, {}, {})


def jet_const(num_vars: int, order: int, value: Coeff) -> Jet:
    return Jet(num_vars, order, {(0,) * num_vars: value})


def jet_var(num_vars: int, order: int, index: int) -> Jet:
    """The coordinate monomial x_index as a jet."""
    _check_shape_args(num_vars, order)
    if not 0 <= index < num_vars:
        raise ShapeError(f"variable index {index} out of range for {num_vars} vars")
    if order < 1:
        raise ShapeError("order must be >= 1 to hold a coordinate monomial")
    e = tuple(1 if k == index else 0 for k in range(num_vars))
    return jet_canonical(num_vars, order, 1, {e: 1}, {})


def jet_from_terms(num_vars: int, order: int, terms: Iterable[tuple[Exponent, Coeff]]) -> Jet:
    """Build a jet from explicit terms, rejecting out-of-shape exponents;
    repeated exponents add.  The coefficients are written over the lcm of
    their denominators and normalised once."""
    _check_shape_args(num_vars, order)
    items = []
    for e, c in terms:
        e = tuple(e)
        if len(e) != num_vars or any(k < 0 for k in e):
            raise ShapeError(f"exponent {e} does not fit {num_vars} variables")
        if sum(e) > order:
            raise ShapeError(f"exponent {e} exceeds truncation order {order}")
        items.append((e, c))
    den = math.lcm(*[v.denominator for _, c in items for v in (c.re, c.im)])
    re: Numerators = {}
    im: Numerators = {}
    for e, c in items:
        re[e] = re.get(e, 0) + c.re.numerator * (den // c.re.denominator)
        im[e] = im.get(e, 0) + c.im.numerator * (den // c.im.denominator)
    return jet_canonical(num_vars, order, den, re, im)


def _check_shape_args(num_vars: int, order: int) -> None:
    if num_vars < 0 or order < 0:
        raise ShapeError("num_vars and order must be non-negative")


def _check_same_shape(a: Jet, b: Jet) -> None:
    if a.num_vars != b.num_vars or a.order != b.order:
        raise ShapeError(
            f"jet shape mismatch: ({a.num_vars} vars, order {a.order}) vs "
            f"({b.num_vars} vars, order {b.order})"
        )


def gaussian_powers(re: int, im: int, k: int) -> list[tuple[int, int]]:
    """(re + i*im)^t for t = 0..k, each as an (re, im) pair of ints."""
    out = [(1, 0)]
    for _ in range(k):
        a, b = out[-1]
        out.append((a * re - b * im, a * im + b * re))
    return out


def _convolve_into(out: Numerators, a: Numerators, b: Numerators, order: int,
                   scale: int = 1) -> None:
    """out += scale * a * b, dropping products above total degree ``order``."""
    bs = sorted((sum(e), e, v) for e, v in b.items())
    for ea, va in a.items():
        room = order - sum(ea)
        if room < 0:
            continue
        va *= scale
        for db, eb, vb in bs:
            if db > room:
                break
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + va * vb


def _axpy_into(out: Numerators, s: int, src: Numerators) -> None:
    """out += s * src."""
    if s:
        for e, v in src.items():
            out[e] = out.get(e, 0) + s * v


def _moved(a: Jet, num_vars: int, order: int,
           move: Callable[[Exponent], Optional[tuple[Exponent, int]]]) -> Jet:
    """``a`` with each term moved to the exponent e' and its numerators
    multiplied by the nonzero int s, where move(e) = (e', s); a term is
    dropped where move(e) is None."""
    parts: tuple[Numerators, Numerators] = ({}, {})
    for out, part in zip(parts, (a.re, a.im)):
        for e, v in part.items():
            m = move(e)
            if m is not None:
                out[m[0]] = v * m[1]
    return jet_canonical(num_vars, order, a.den, *parts)


def _combine(a: Jet, b: Jet, sign: int) -> Jet:
    """a + sign * b over the lcm of the two denominators."""
    _check_same_shape(a, b)
    den = math.lcm(a.den, b.den)
    re: Numerators = {}
    im: Numerators = {}
    for s, f in ((den // a.den, a), (sign * (den // b.den), b)):
        _axpy_into(re, s, f.re)
        _axpy_into(im, s, f.im)
    return jet_canonical(a.num_vars, a.order, den, re, im)


def jet_add(a: Jet, b: Jet) -> Jet:
    return _combine(a, b, 1)


def jet_neg(a: Jet) -> Jet:
    return _combine(jet_zero(a.num_vars, a.order), a, -1)


def jet_sub(a: Jet, b: Jet) -> Jet:
    return _combine(a, b, -1)


def jet_scale(a: Jet, s: Coeff) -> Jet:
    """s * a: with s = (p + i*r) / q, the numerators times p + i*r over
    a.den * q, each term kept under its exponent."""
    q, (p,), (r,) = point_numerators((s,))
    re: Numerators = {}
    im: Numerators = {}
    _axpy_into(re, p, a.re)
    _axpy_into(re, -r, a.im)
    _axpy_into(im, r, a.re)
    _axpy_into(im, p, a.im)
    return jet_canonical(a.num_vars, a.order, a.den * q, re, im)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated product; degree pairs above ``order`` are never formed."""
    _check_same_shape(a, b)
    return sum_of_products(a.num_vars, a.order, [(a, b)])


def sum_of_products(num_vars: int, order: int, pairs: Sequence[tuple[Jet, Jet]]) -> Jet:
    """The truncated sum of a_k * b_k over ``pairs`` of jets ``(a_k, b_k)``.

    Every product is accumulated on the numerators over one denominator, the
    lcm of the products' denominators, and the sum is normalised once; the
    imaginary convolutions run only for a complex operand."""
    lcm = math.lcm(*(a.den * b.den for a, b in pairs))
    re: Numerators = {}
    im: Numerators = {}
    for a, b in pairs:
        s = lcm // (a.den * b.den)
        _convolve_into(re, a.re, b.re, order, s)
        if a.im or b.im:
            _convolve_into(re, a.im, b.im, order, -s)
            _convolve_into(im, a.re, b.im, order, s)
            _convolve_into(im, a.im, b.re, order, s)
    return jet_canonical(num_vars, order, lcm, re, im)


def jet_pow(a: Jet, k: int) -> Jet:
    if k < 0:
        raise ShapeError("negative power of a jet")
    out = jet_const(a.num_vars, a.order, ONE)
    for _ in range(k):
        out = jet_mul(out, a)
    return out


def jet_filter(a: Jet, keep: Callable[[Exponent], bool]) -> Jet:
    """The terms of ``a`` whose exponent passes ``keep``."""
    return _moved(a, a.num_vars, a.order, lambda e: (e, 1) if keep(e) else None)


def jet_truncate(a: Jet, order: int) -> Jet:
    """Forget terms above ``order`` (which must not exceed the current one)."""
    if order > a.order:
        raise ShapeError("cannot truncate to a higher order; use jet_with_order")
    return _moved(a, a.num_vars, order, lambda e: (e, 1) if sum(e) <= order else None)


def jet_with_order(a: Jet, order: int) -> Jet:
    """Re-declare the truncation order, treating the stored terms as exact
    polynomial data.  Raising the order adds no information; lowering it
    truncates."""
    if order < a.order:
        return jet_truncate(a, order)
    return jet_canonical(a.num_vars, order, a.den, a.re, a.im)


def jet_eq(a: Jet, b: Jet) -> bool:
    """Equal shapes and values: on canonical forms, equal fields."""
    return (a.num_vars == b.num_vars and a.order == b.order and a.den == b.den
            and a.re == b.re and a.im == b.im)


def jet_is_zero(a: Jet) -> bool:
    return not (a.re or a.im)


def jet_partial(a: Jet, var: int) -> Jet:
    """Formal partial derivative; the order drops by one in the differentiated
    grading (total order here), never below zero."""
    if not 0 <= var < a.num_vars:
        raise ShapeError(f"variable index {var} out of range")

    def lower(e):
        k = e[var]
        return (e[:var] + (k - 1,) + e[var + 1:], k) if k else None

    return _moved(a, a.num_vars, max(a.order - 1, 0), lower)


def jet_mul_var(a: Jet, var: int, power: int = 1) -> Jet:
    """Multiply by the coordinate monomial x_var**power, keeping the order.

    Raises if a shifted term would exceed the truncation order: callers that
    need headroom should lift the order first (`jet_with_order`)."""
    if not 0 <= var < a.num_vars:
        raise ShapeError(f"variable index {var} out of range")

    def shift(e):
        if sum(e) + power > a.order:
            raise ShapeError("variable shift exceeds truncation order")
        return e[:var] + (e[var] + power,) + e[var + 1:], 1

    return _moved(a, a.num_vars, a.order, shift)


def jet_eval(a: Jet, point: Sequence[Coeff]) -> Coeff:
    """Exact value at a point (tuple of Coeff): the one-jet case of
    :func:`map_eval`."""
    return map_eval(PolyMap(a.num_vars, [a]), point)[0]


def jet_substitute_zero(a: Jet, vars_to_zero: Sequence[int]) -> Jet:
    """Set the given variables to zero, keeping the variable count."""
    kill = set(vars_to_zero)
    return jet_filter(a, lambda e: all(e[i] == 0 for i in kill))


def jet_project(a: Jet, keep: Sequence[int]) -> Jet:
    """Project onto a subset of variables; terms involving dropped variables
    must have already been removed (ShapeError otherwise)."""
    keep = list(keep)
    dropped = [i for i in range(a.num_vars) if i not in keep]

    def project(e):
        if any(e[i] for i in dropped):
            raise ShapeError("projection would lose a term; substitute zero first")
        return tuple(e[i] for i in keep), 1

    return _moved(a, len(keep), a.order, project)


def jet_extend_vars(a: Jet, num_vars: int) -> Jet:
    """View a jet in a larger variable ring (new variables appended)."""
    if num_vars < a.num_vars:
        raise ShapeError("cannot extend to fewer variables")
    pad = (0,) * (num_vars - a.num_vars)
    return _moved(a, num_vars, a.order, lambda e: (e + pad, 1))


def jet_flip_var(a: Jet, var: int) -> Jet:
    """Substitute x_var -> -x_var (sign twist by exponent parity)."""
    if not 0 <= var < a.num_vars:
        raise ShapeError(f"variable index {var} out of range")
    return _moved(a, a.num_vars, a.order, lambda e: (e, -1 if e[var] % 2 else 1))


def _coeff(a: Jet, e: Exponent) -> Coeff:
    """The coefficient of x^e in ``a``."""
    return Coeff(Fraction(a.re.get(e, 0), a.den), Fraction(a.im.get(e, 0), a.den))


def jet_constant_term(a: Jet) -> Coeff:
    return _coeff(a, (0,) * a.num_vars)


def jet_is_constant_free(a: Jet) -> bool:
    origin = (0,) * a.num_vars
    return origin not in a.re and origin not in a.im


# ---------------------------------------------------------------------------
# Polynomial map germs
# ---------------------------------------------------------------------------


class PolyMap:
    """Map germ: ``target_vars`` jets, each in ``source_vars`` variables,
    sharing one truncation order."""

    __slots__ = ("source_vars", "target_vars", "order", "components")

    def __init__(self, source_vars: int, components: Sequence[Jet]):
        components = tuple(components)
        if not components:
            raise ShapeError("a map needs at least one component")
        order = components[0].order
        for f in components:
            if f.num_vars != source_vars:
                raise ShapeError("component variable count differs from source_vars")
            if f.order != order:
                raise ShapeError("components must share one truncation order")
        self.source_vars = source_vars
        self.target_vars = len(components)
        self.order = order
        self.components = components

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.source_vars == other.source_vars
            and self.target_vars == other.target_vars
            and all(jet_eq(a, b) for a, b in zip(self.components, other.components))
        )

    def __hash__(self):
        raise TypeError("maps are not hashable")

    def __repr__(self) -> str:
        return f"PolyMap({self.source_vars} -> {self.target_vars}, order {self.order})"


def identity_map(num_vars: int, order: int) -> PolyMap:
    return PolyMap(num_vars, [jet_var(num_vars, order, i) for i in range(num_vars)])


def map_eq(f: PolyMap, g: PolyMap) -> bool:
    return f == g


def map_is_constant_free(g: PolyMap) -> bool:
    return all(jet_is_constant_free(c) for c in g.components)


def map_sub(f: PolyMap, g: PolyMap) -> PolyMap:
    if (f.source_vars, f.target_vars) != (g.source_vars, g.target_vars):
        raise ShapeError("map shape mismatch")
    return PolyMap(f.source_vars, [jet_sub(a, b) for a, b in zip(f.components, g.components)])


NumPoint = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


def point_numerators(x: Sequence[Coeff]) -> NumPoint:
    """``x`` as ``(q, re, im)``: x_k = (re[k] + i*im[k]) / q, q the lcm of
    the coordinates' denominators."""
    q = math.lcm(*(c.re.denominator for c in x), *(c.im.denominator for c in x))
    return (q, tuple([c.re.numerator * (q // c.re.denominator) for c in x]),
            tuple([c.im.numerator * (q // c.im.denominator) for c in x]))


def point_from_numerators(x: NumPoint) -> tuple[Coeff, ...]:
    """The point of Coeff that a :func:`point_numerators` tuple stands for."""
    q, re, im = x
    return tuple([Coeff(Fraction(a, q), Fraction(b, q)) for a, b in zip(re, im)])


def map_numerators(f: PolyMap) -> tuple:
    """``f`` as :func:`eval_numerators` reads it: ``(d, k, n, terms)``, with
    d the lcm of the denominators, k the order, n the component count and
    one ``(k - |e|, powers, coeffs)`` in ``terms`` per exponent e: the
    nonzero (variable, power) pairs of e, and one ``(c, re, im)`` per
    component c whose coefficient (re + i*im) / d of x^e is nonzero."""
    d, k = math.lcm(*[comp.den for comp in f.components]), f.order
    terms: dict = {}
    for c, comp in enumerate(f.components):
        s, re, im = d // comp.den, comp.re, comp.im
        for e in {**re, **im}:
            terms.setdefault(e, []).append((c, re.get(e, 0) * s, im.get(e, 0) * s))
    return d, k, f.target_vars, [(k - sum(e), [(v, j) for v, j in enumerate(e) if j], coeffs)
                                 for e, coeffs in terms.items()]


def eval_numerators(fn, x: NumPoint) -> NumPoint:
    """The components of a :func:`map_numerators` form at the point ``x``,
    as one ``(q', re, im)`` tuple, not normalised.

    ``x`` is reduced by one gcd first, so q is the lcm of its reduced
    denominators.  With p its numerators and k the order, each monomial
    q^(k - |e|) p^e is built once from one table of the point's powers and
    shared by every component; component c is the sum over e of its
    numerator times that monomial, over q' = d * q^k."""
    d, k, n, terms = fn
    q, pr, pi = x
    g = math.gcd(q, *pr, *pi)
    if g > 1:
        q, pr, pi = q // g, [v // g for v in pr], [v // g for v in pi]
    qk = [q**j for j in range(k + 1)]
    sr, si = [0] * n, [0] * n
    if not any(pi):
        pows = [[p**j for j in range(k + 1)] for p in pr]
        for dk, powers, coeffs in terms:
            m = qk[dk]
            for v, j in powers:
                m *= pows[v][j]
            for c, a, b in coeffs:
                sr[c] += a * m
                if b:
                    si[c] += b * m
        return d * qk[k], tuple(sr), tuple(si)
    pows = [gaussian_powers(a, b, k) for a, b in zip(pr, pi)]
    for dk, powers, coeffs in terms:
        mr, mi = qk[dk], 0
        for v, j in powers:
            ur, ui = pows[v][j]
            mr, mi = mr * ur - mi * ui, mr * ui + mi * ur
        for c, a, b in coeffs:
            sr[c] += a * mr - b * mi if b else a * mr
            si[c] += a * mi + b * mr if b else a * mi
    return d * qk[k], tuple(sr), tuple(si)


def map_eval(f: PolyMap, point: Sequence[Coeff]) -> tuple[Coeff, ...]:
    """Exact values of the components at a point (tuple of Coeff), through
    one :func:`eval_numerators`; one fraction is normalised per part."""
    if len(point) != f.source_vars:
        raise ShapeError("evaluation point has wrong length")
    return point_from_numerators(eval_numerators(map_numerators(f), point_numerators(point)))


def linear_part(f: PolyMap) -> list[list[Coeff]]:
    """Matrix L with L[i][j] = coefficient of x_j in component i."""
    n = f.source_vars
    units = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    return [[_coeff(comp, e) for e in units] for comp in f.components]


class PowerTable:
    """The monomials g^e of one inner map g, each built on first use.

    A caller that composes several outer maps after the same g keeps one
    table and hands it to :func:`map_compose` each time.  The table records
    the map it was built for: handed another map, it starts over, so one
    map's monomials are never applied to another.  It refers to nothing
    that refers back to it, so it is freed as soon as its owner drops it."""

    __slots__ = ("inner", "entries")

    def __init__(self):
        self.inner = None
        self.entries: dict[Exponent, Jet] = {}


def _compose(fs: Sequence[Jet], g: PolyMap, powers: PowerTable) -> list[Jet]:
    """The K-jets of f o g for each f in ``fs`` (jets of one shape), every
    one summed from the monomials of g in ``powers``.

    Requires every component of ``g`` to be constant-free; with a constant
    term present, coefficients of f beyond the truncation order would
    contribute below it and the result would not be a function of the jets.
    """
    f0 = fs[0]
    if f0.num_vars != g.target_vars:
        raise ShapeError(
            f"cannot substitute a {g.target_vars}-component map into a "
            f"{f0.num_vars}-variable jet"
        )
    if f0.order != g.order:
        raise ShapeError("jet and map must share one truncation order")
    if not map_is_constant_free(g):
        raise CompositionDomainError(
            "substitution target has a constant term; composition is not "
            "defined on truncations"
        )
    order = g.order
    nv = g.source_vars
    if powers.inner is not g:
        powers.inner = g
        powers.entries = {(0,) * g.target_vars: jet_const(nv, order, ONE)}
    entries = powers.entries
    out = []
    for f in fs:
        # sum of c_e * g^e over the lcm of the monomials' denominators
        fr, fi = f.re, f.im
        parts = [(_monomial(entries, e, g.components), fr.get(e, 0), fi.get(e, 0))
                 for e in {**fr, **fi}]
        lcm = math.lcm(*(m.den for m, _, _ in parts))
        re: Numerators = {}
        im: Numerators = {}
        for m, cr, ci in parts:
            s = lcm // m.den
            _axpy_into(re, cr * s, m.re)
            _axpy_into(re, -ci * s, m.im)
            _axpy_into(im, cr * s, m.im)
            _axpy_into(im, ci * s, m.re)
        out.append(jet_canonical(nv, order, f.den * lcm, re, im))
    return out


def _monomial(entries: dict, e: Exponent, components: Sequence[Jet]) -> Jet:
    """The monomial g^e of the ``components``, built through
    :func:`jet_mul` from g^(e - 1_i) on first use and kept in ``entries``.

    A module-level function rather than a closure over ``entries``: a
    self-referencing closure is a reference cycle, which would keep the
    table alive after the composition until the cyclic collector runs."""
    got = entries.get(e)
    if got is None:
        i = next(k for k, v in enumerate(e) if v > 0)
        prev = list(e)
        prev[i] -= 1
        got = entries[e] = jet_mul(_monomial(entries, tuple(prev), components), components[i])
    return got


def jet_compose(f: Jet, g: PolyMap) -> Jet:
    """K-jet of f o g (the one-jet case of :func:`map_compose`)."""
    return _compose([f], g, PowerTable())[0]


def map_compose(g: PolyMap, f: PolyMap, powers: PowerTable | None = None) -> PolyMap:
    """The composite f o g (apply ``g`` first, then ``f``).

    Every component of ``f`` reads the monomials g^e from one
    :class:`PowerTable`.  A caller that composes several maps after the same
    ``g`` passes its own table as ``powers``, so each monomial is built once
    across the calls; by default the table lives for this call only."""
    if g.target_vars != f.source_vars:
        raise ShapeError("inner map target does not match outer map source")
    table = PowerTable() if powers is None else powers
    return PolyMap(g.source_vars, _compose(f.components, g, table))


def _apply_linear(mat: list[list[Coeff]], vec: Sequence[Jet]) -> list[Jet]:
    """The jets sum over k of row[k] * vec[k], one per row of ``mat``."""
    return [functools.reduce(jet_add, map(jet_scale, vec, row)) for row in mat]


def map_inverse(f: PolyMap) -> PolyMap:
    """Formal inverse germ of a constant-free square map with invertible
    linear part.  The result ``g`` satisfies f o g = g o f = id up to the
    truncation order.  The linear part is inverted by
    :func:`germglue.scalars.coeff_inverse`, which raises NotInvertibleError
    when it is singular."""
    if f.source_vars != f.target_vars:
        raise ShapeError("only square maps can be inverted")
    if not map_is_constant_free(f):
        raise CompositionDomainError("map with constant term has no germ inverse at 0")
    n = f.source_vars
    order = f.order
    lin_inv = coeff_inverse(linear_part(f))

    # Higher-degree part h := f - linear(f); the fixed-point iteration
    # g <- L^{-1} (id - h o g) gains at least one correct order per step.
    higher = [jet_filter(comp, lambda e: sum(e) >= 2) for comp in f.components]
    ident = identity_map(n, order)
    g = PolyMap(n, _apply_linear(lin_inv, ident.components))
    for _ in range(max(order, 2)):
        hg = _compose(higher, g, PowerTable())
        target = [jet_sub(i, h) for i, h in zip(ident.components, hg)]
        g_next = PolyMap(n, _apply_linear(lin_inv, target))
        if g_next == g:
            break
        g = g_next
    return g

