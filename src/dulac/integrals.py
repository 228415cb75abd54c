"""First integrals of maps and fields: construction, search, pullback,
exact verification, and an exact independence check of the jets at seeded
sample points (it holds for the jets as polynomials, not for series with
these jets).  The search and each of the two residual checks have one entry
point for both kinds of system, `search_integrals`, `verify_integral` and
`normal_form_residual`, with the map/field difference in one branch.

A set of integrals is a plain tuple of series, each with zero constant term
and expected to pass its verify_integral check with an exactly zero
residual.

The search runs in the coordinates of the normal form, where only the
lattice monomials (those with value(m) = value(0)) can carry a first
integral: its columns are those monomials' images, read from the parts of
the degree loop's table of the normal form G (maps) or summed by
`series.lie_derivative`'s pairs over G's parts (fields), and its kernel is
pulled back to the system's coordinates.  F's own table is not read.  An
integral is pulled back through the normalizer's own table of the powers of
Phi = y + phi (`Powers.pull`), with no inverse of Phi built.

The residual of an integral W has two routes, each one packed sum per degree
that becomes that part of the residual.  `verify_integral` sums W o F - W or
<grad W, X> over F's own table; it is `verify`'s route, since a report
claims no normalization.  `normal_form_residual` carries W to the normal
form, V = W o Phi through the table of Phi, and sums V o G - V or <grad V,
G> over the table of G.  By F o Phi = Phi o G (or DPhi G = X o Phi) that is
the first residual composed with Phi, which is tangent to the identity, so
the two have the same lowest nonzero part; a run that holds the
normalization, as `dulac integrals` does, builds no table of F for it.

The gradients, the packed `series._gradients` of each integral, are
evaluated homogenised, in integers, at each sample point.  Every
elimination, the search's kernel, its reduced echelon form and the sample
points' ranks, runs in the integer `linalg.Echelon`; only the vectors it
reads off become `Fraction`s."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import HypothesisError
from .linalg import Echelon, kernel_basis
from .resonance import LatticeBasis, iter_exponents
from .scalars import Scalar
from .series import (
    Powers,
    ScalarSeries,
    SeriesError,
    _ZERO,
    _gradients,
    _lie_pairs,
    _pairs,
    _products,
    _rekeyed,
)
from .normalizer import MapSystem, NormalizationResult, System


@dataclass(frozen=True)
class IndependenceCertificate:
    independent: bool
    rank_found: int
    witness: Optional[tuple[Scalar, ...]]
    trials: int


def monomial_integrals(basis: LatticeBasis, trunc: int | None = None) -> tuple[ScalarSeries, ...]:
    """The monomial first integrals y^m of the linear system, one per
    lattice generator, through `trunc` (default: the lattice bound, or the
    largest generator degree above it)."""
    if not basis.generators:
        return ()
    if trunc is None:
        trunc = max(basis.bound, max(sum(g) for g in basis.generators))
    for g in basis.generators:
        if sum(g) > trunc:
            raise HypothesisError(
                f"lattice generator {g} has degree {sum(g)}, above the order "
                f"{trunc}: its monomial integral is not representable"
            )
    return tuple(ScalarSeries.monomial(basis.n, trunc, g) for g in basis.generators)


def pullback_integrals(
    integrals: Sequence[ScalarSeries],
    normalization: NormalizationResult,
    order: int | None = None,
) -> tuple[ScalarSeries, ...]:
    """Transport integrals V of the normal form back to the original system:
    W = V o Phi^-1 for the normalization x = Phi(y) = y + phi(y), through
    `order` (default: the least truncation degree of the normalization and
    the integrals).  W is the series with W o Phi = V, pulled through
    `normalization.powers`, the table the degree loop filled
    (`series.Powers.pull`): no inverse of Phi and no second table is built."""
    vs = tuple(integrals)
    if order is None:
        order = min([normalization.order] + [v.trunc for v in vs])
    if order > normalization.order:
        raise SeriesError(f"normalization known through degree {normalization.order}; cannot pull back to {order}")
    return tuple(normalization.powers.pull(vs, order))


def verify_integral(V: ScalarSeries, system: System, order: int | None = None) -> ScalarSeries:
    """Exact residual through the order, zero iff V is a first integral:
    V o F - V for a map, <grad V, A x + f(x)> for a field.  Each degree s is
    one packed sum over the system's table, kept as that part of the
    residual: the pairs of V o F and (-1, V_s) for a map, for a field those
    of the derivative along X that `series.lie_derivative` sums.  This is
    `verify`'s route, and that of a solve that holds no normalization; an
    `integrals` run that made one takes `normal_form_residual` instead."""
    if order is None:
        order = min(V.trunc, system.order)
    if order > system.order:
        raise HypothesisError(f"system data certified to degree {system.order}; cannot verify to {order}")
    if not system.spec.has_exact_values():
        # formal base (maps only): only the linear map is representable, and
        # the residual of a monomial y^m is (mu^m - 1) y^m, so invariance is
        # decided on the exponent certificate alone
        if not system.nonlinear.is_zero():
            raise HypothesisError(
                "formal-base verification supports linear maps only"
            )
        for m in V.exponents():
            if not system.spec.resonant(m):
                raise HypothesisError(
                    f"residual of monomial {m} is not representable over the "
                    "coefficient field (nonresonant against the formal base)"
                )
        return ScalarSeries.zero(V.n, order)
    P = system.powers
    return _residual(V.n, order, V._keyed(order, P.base), P, isinstance(system, MapSystem))


def normal_form_residual(W: ScalarSeries, normalization: NormalizationResult, order: int | None = None) -> ScalarSeries:
    """The residual of W carried to the normal form G through the order
    (default: the least of W's truncation and the normalization's): V o G -
    V for a map, <grad V, G> for a field, where V = W o Phi.  It is (W o F -
    W) o Phi, or <grad W, X> o Phi, so, Phi being tangent to the identity,
    it has the same lowest nonzero degree as `verify_integral`'s residual
    and the same part there, and is zero iff that one is.  V is composed
    through `normalization.powers`, whose entries a pullback through it has
    filled; each degree of the residual is then one packed sum over the
    table of G, `normalization.normal_form_powers` (a field's reads only
    its parts), as in `verify_integral`."""
    if order is None:
        order = min(W.trunc, normalization.order)
    if order > normalization.order:
        raise SeriesError(f"normalization known through degree {normalization.order}; cannot verify to {order}")
    P, G = normalization.powers, normalization.normal_form_powers
    packed = W._keyed(order, P.base)
    V = (packed[:1] or [_ZERO]) + [_products(_pairs(packed, P, s)) for s in range(1, order + 1)]
    return _residual(W.n, order, V, G, normalization.spec.kind != "additive")


def _residual(n: int, order: int, packed: list[tuple], T: Powers, is_map: bool) -> ScalarSeries:
    """V o T - V for a map, <grad V, T> for a field, through the order, from
    V's packed parts keyed as in T, the table of the system's powers, of
    which a field's parts alone are read.  Each degree s is one packed sum:
    the pairs of V o T and (-1, V_s), or those `series.lie_derivative`
    sums."""
    if is_map:
        sums = (_pairs(packed, T, s) + [((1, -1, 0), p) for p in packed[s : s + 1]] for s in range(1, order + 1))
    else:
        grads = _gradients(enumerate(packed), T.weights, T.base)
        sums = (_lie_pairs(grads, T.parts, s) for s in range(1, order + 1))
    parts = [_ZERO] + [_products(pairs) for pairs in sums]
    return ScalarSeries._make(n, order, _rekeyed(parts, n, T.base, order, order + 1))


# -- search -----------------------------------------------------------------------
#
# The search works in the coordinates of the normal form G = B y + g (or the
# field lambda y + g), whose g is resonant.  There V -> V o G - V (or <grad V,
# G>) keeps each value class of monomials in itself: the image of y^m is
# (mu^m - 1) y^m (or <m, lambda> y^m) plus terms of higher degree and the same
# value.  So it is invertible on every class but that of value(0), the lattice
# monomials, and its kernel through the order is the kernel of the lattice
# columns alone.  W o F - W vanishes through the order exactly when V o G - V
# does for V = W o Phi, so the first integrals of F through the order are the
# pullbacks W of those kernel vectors (`Powers.pull`).  The polynomials of
# degree at most `degree` among them are spanned by the vectors of their
# reduced echelon form whose pivot, the highest monomial in graded-lex order,
# has degree at most `degree`; with each vector 1 on its pivot and 0 on the
# others' pivots, that basis is unique, and it is the kernel basis the
# operator on every monomial through `degree` gives (`linalg`).  A column is
# entered straight from packed parts: the row of the term y^r of degree s is
# s * base^n + (packed key of r).


def search_integrals(system: System, degree: int) -> tuple[ScalarSeries, ...]:
    """Spanning set of polynomial W of degree <= `degree` that are first
    integrals (W o F = W for a map, <grad W, X> = 0 for a field) exactly
    through every degree the system data certifies.

    The free parameters sit on the resonant monomials; nonresonant slots are
    forced, and the higher-order compatibility conditions (through the full
    certified order, not just `degree`) remove truncation artifacts such as
    powers of lower-degree solutions.  The flip side: an integral whose honest
    polynomial degree exceeds `degree` contributes nothing, so searching below
    the certification order can legitimately come back empty even for
    integrable systems.

    Solved in normal-form coordinates (see the comment above), through
    `system.normalized`, read only when the lattice class is not empty.
    One column per lattice monomial y^m, degree 1 included: y^m o G - y^m,
    read degree by degree from the parts [G^m]_s of the degree loop's table
    of G (its degree-|m| part mu^m y^m = y^m cancels), or <grad y^m, G>,
    each degree one packed sum of the pairs that `series.lie_derivative`
    sums.  Their kernel, in the integer
    `linalg.Echelon`, is pulled back through the loop's table of Phi, and
    the basis is the reduced echelon form of the pullbacks in a second
    Echelon, with rows numbered downwards in graded-lex order so that each
    pivot is its vector's highest monomial.  The series go in the order of
    their first terms' exponents."""
    n, N = system.n, system.order
    if degree > N:
        raise HypothesisError(
            f"system data certified to degree {N}; cannot search to {degree}"
        )
    spec = system.spec
    if not spec.has_exact_values() or N < 2:
        # a system known through degree 1 is its linear part, and a formal
        # base (maps only) supports linear maps alone: each monomial is an
        # eigenvector of the diagonal linear part, and the resonant ones span
        # the integrals
        if not system.nonlinear.is_zero():
            raise HypothesisError("formal-base search supports linear maps only")
        return tuple(ScalarSeries.monomial(n, degree, m) for m in iter_exponents(n, 1, degree) if spec.resonant(m))
    lattice = [m for m in iter_exponents(n, 1, 1) if spec.resonant(m)] + spec.resonant_class(N)
    if not lattice:
        return ()
    normal_form = system.normalized
    is_map = isinstance(system, MapSystem)
    G = normal_form.normal_form_powers
    shift = G.base**n
    columns = []
    for m in lattice:
        k, d = sum(map(mul, m, G.weights)), sum(m)
        if is_map:
            parts = [G.part(k, s) for s in range(d + 1, N + 1)]
        else:
            grads = _gradients([(d, (1, {k: 1}, {}))], G.weights, G.base)
            parts = [_products(_lie_pairs(grads, G.parts, s)) for s in range(d + 1, N + 1)]
        # the parts of degrees d+1..N merged over their lcm, row s*shift + key
        den = lcm(*(part[0] for part in parts))
        columns.append((den, *(
            {s * shift + key: den // part[0] * x for s, part in enumerate(parts, d + 1) for key, x in part[i].items()}
            for i in (1, 2)
        )))
    vs = [ScalarSeries(n, N, {lattice[c]: x for c, x in vec.items()}) for vec in kernel_basis(columns)]
    # the pullbacks, keyed with base N + 1, each on rows -(its monomials'
    # graded-lex indices), and merged over the lcm of its parts
    monomials = list(iter_exponents(n, 1, N))
    weights = [(N + 1) ** i for i in range(n)]
    rows = {sum(map(mul, m, weights)): -i for i, m in enumerate(monomials)}
    echelon = Echelon()
    for w in normal_form.powers.pull(vs, N):
        den = lcm(*(part[0] for part in w.parts))
        echelon.add(*({rows[key]: den // part[0] * x for part in w.parts for key, x in part[i].items()} for i in (1, 2)))
    top = comb(n + degree, n) - 1  # the monomials through `degree`
    # the vectors by pivot, then (a stable sort) by first term
    basis = echelon.reduced(row for row in sorted(echelon.pivots, reverse=True) if -row < top)
    return tuple(
        ScalarSeries(n, degree, {monomials[-row]: x for row, x in vec.items()})
        for vec in sorted(basis.values(), key=lambda vec: monomials[-max(vec)])
    )


# -- independence ------------------------------------------------------------------


def _value(nums: dict[int, int], pw: list[list[int]], base: int) -> int:
    """sum c prod_i pw[i][e_i] over the packed terms c y^e, keyed with base."""
    total = 0
    for k, c in nums.items():
        for row in pw:
            k, e = divmod(k, base)
            c *= row[e]
        total += c
    return total


def independence_check(
    integrals: Sequence[ScalarSeries],
    trials: int = 8,
    seed: int = 0,
) -> IndependenceCertificate:
    """Exact-rank test of the truncated gradients at pseudo-random rational
    points.

    A full-rank evaluation shows that the jets, as polynomials, are
    functionally independent (the witness point is recorded); it shows
    nothing for series with these jets, whose terms above the order can
    change the Jacobian anywhere.  Failing every trial only reports "not
    certified", since rank deficiency at sample points proves nothing.

    The evaluation is in integers.  With T the largest truncation degree and
    the point p_i / q_i, the row of V is its gradient at the point times
    den(V) * prod_i q_i^T, where den(V) is the lcm of V's denominators: the
    sum of den(V) c_m m_j prod_i p_i^e_i q_i^(T - e_i) over the terms
    c_m y^m of V, with e = m - e_j.  Scaling a row by a nonzero constant
    keeps the rank, so the certificate is the one the rational rows give.
    The rows enter the integer echelon of `linalg` as they are.  A rank of n
    (possible below k only when k > n) is the largest any point can give,
    so sampling stops there, with the same certificate as after all the
    trials."""
    vs = tuple(integrals)
    if not vs:
        raise ValueError("independence check needs at least one integral")
    n = vs[0].n
    k = len(vs)
    T = max(v.trunc for v in vs)
    base = T + 1
    w = [base**i for i in range(n)]
    # each gradient component times den(V): the packed numerators of its
    # real and imaginary parts, keyed with base, merged over V's degrees
    grads = []
    for v in vs:
        parts = v._keyed(T)
        den = lcm(*(p[0] for p in parts))
        gs = _gradients(enumerate(parts), w, base).values()
        grads.append([[{k: x * (den // g[j][0]) for g in gs for k, x in g[j][i].items()} for i in (1, 2)]
                      for j in range(n)])
    rng = random.Random(seed)
    best = 0
    for t in range(trials):
        # rationals from a fixed box, never on a coordinate hyperplane
        point = tuple(
            Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(n)
        )
        pw = [[x.numerator**e * x.denominator ** (T - e) for e in range(T + 1)] for x in point]
        echelon = Echelon()  # each row enters as a column of the transpose
        for g in grads:  # the real and the imaginary numerators of the row
            echelon.add(*({j: _value(nums, pw, base) for j, nums in enumerate(part)} for part in zip(*g)))
        r = echelon.rank
        best = max(best, r)
        if r == k:
            return IndependenceCertificate(
                independent=True, rank_found=k, witness=point, trials=t + 1
            )
        if r == n:  # k > n, and no point gives a rank above n
            break
    return IndependenceCertificate(
        independent=False, rank_found=best, witness=None, trials=trials
    )
