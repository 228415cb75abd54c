"""First integrals of maps and fields: construction, search, pullback,
exact verification, and an exact independence check of the jets at seeded
sample points (it holds for the jets as polynomials, not for series with
these jets).

A set of integrals is a plain tuple of series, each with zero constant term
and expected to pass its verify_integral check with an exactly zero
residual."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import HypothesisError
from .linalg import kernel_basis, rank as q_rank
from .resonance import LatticeBasis, iter_exponents
from .scalars import Scalar
from .series import (
    Exponent,
    Powers,
    ScalarSeries,
    VectorSeries,
    gradient,
    grlex_key,
    invert,
    scalar_inner,
)
from .normalizer import FieldSystem, MapSystem


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
    phi: VectorSeries,
    order: int | None = None,
) -> tuple[ScalarSeries, ...]:
    """Transport integrals of the normal form back to the original system
    through the inverse psi of x = y + phi(y), all through one table of psi."""
    vs = tuple(integrals)
    if order is None:
        order = min([phi.trunc] + [v.trunc for v in vs])
    psi = invert(VectorSeries.identity(phi.n, order) + phi.truncate(order), order)
    return tuple(Powers.of(psi, order).compose([v.truncate(order) for v in vs], order))


def verify_integral_map(V: ScalarSeries, F: MapSystem, order: int | None = None) -> ScalarSeries:
    """Exact residual V o F - V through the order (zero iff V is invariant)."""
    if order is None:
        order = min(V.trunc, F.order)
    if order > F.order:
        raise HypothesisError(f"system data certified to degree {F.order}; cannot verify to {order}")
    if not F.mu.has_exact_values():
        # formal base: only the linear map is representable, and the residual
        # of a monomial y^m is (mu^m - 1) y^m, so invariance is decided on the
        # exponent certificate alone
        if not F.nonlinear.is_zero():
            raise HypothesisError(
                "formal-base verification supports linear maps only"
            )
        for m, _ in V.terms():
            if not F.mu.resonant(m):
                raise HypothesisError(
                    f"residual of monomial {m} is not representable over the "
                    "coefficient field (nonresonant against the formal base)"
                )
        return ScalarSeries.zero(V.n, order)
    return F.powers.compose([V.truncate(order)], order)[0] - V.truncate(order)


def verify_integral_field(V: ScalarSeries, X: FieldSystem, order: int | None = None) -> ScalarSeries:
    """Exact residual <grad V, A x + f(x)> through the order."""
    if order is None:
        order = min(V.trunc, X.order)
    return scalar_inner(gradient(V), X.full_field(order), order)


# -- search -----------------------------------------------------------------------


def _echelon_kernel_series(
    columns: dict[Exponent, dict[Exponent, Scalar]],
    monomials: list[Exponent],
    n: int,
    degree: int,
) -> tuple[ScalarSeries, ...]:
    """Kernel of the linear map whose column at y^m is columns[m], expressed
    as series over the monomial basis in graded-lex order.  Rows go in graded
    order too: the operator is block lower triangular with mu^m - 1 (or
    <m, lambda>) on each column's own monomial, so each nonresonant column is
    a pivot on its own row and only the resonant columns are ever reduced."""
    rows = sorted({r for col in columns.values() for r in col}, key=grlex_key)
    row_index = {r: i for i, r in enumerate(rows)}
    kernel = kernel_basis(
        {row_index[r]: v for r, v in columns[m].items()} for m in monomials
    )
    series = [
        ScalarSeries(n, degree, {monomials[c]: v for c, v in vec.items()})
        for vec in kernel
    ]
    series.sort(key=lambda s: s.terms()[0][0] if not s.is_zero() else ())
    return tuple(series)


def search_integrals_map(F: MapSystem, degree: int) -> tuple[ScalarSeries, ...]:
    """Spanning set of polynomial W of degree <= `degree` with W o F = W
    exactly through every degree the system data certifies.

    The free parameters sit on the resonant monomials; nonresonant slots are
    forced, and the higher-order compatibility conditions (through the full
    certified order, not just `degree`) remove truncation artifacts such as
    powers of lower-degree solutions.  The flip side: an integral whose honest
    polynomial degree exceeds `degree` contributes nothing, so searching below
    the certification order can legitimately come back empty even for
    integrable systems.  Solved as one exact kernel computation over the
    monomial basis by the sparse echelon of `linalg`: the graded-lex column
    order alone fixes the kernel basis, the row order only sets the cost."""
    if degree > F.order:
        raise HypothesisError(
            f"system data certified to degree {F.order}; cannot search to {degree}"
        )
    n = F.n
    if not F.mu.has_exact_values():
        if not F.nonlinear.is_zero():
            raise HypothesisError("formal-base search supports linear maps only")
        return tuple(
            ScalarSeries.monomial(n, degree, m)
            for m in iter_exponents(n, 1, degree)
            if F.mu.resonant(m)
        )
    monomials = list(iter_exponents(n, 1, degree))
    outers = [ScalarSeries.monomial(n, F.order, m) for m in monomials]
    powers = F.powers.compose(outers, F.order)
    columns = {m: dict((p - o).coeffs) for m, o, p in zip(monomials, outers, powers)}
    return _echelon_kernel_series(columns, monomials, n, degree)


def search_integrals_field(X: FieldSystem, degree: int) -> tuple[ScalarSeries, ...]:
    """Spanning set of polynomial V of degree <= `degree` whose derivative
    along the field vanishes exactly through every certified degree."""
    if degree > X.order:
        raise HypothesisError(
            f"system data certified to degree {X.order}; cannot search to {degree}"
        )
    n = X.n
    through = X.order
    Xf = X.full_field(through)
    monomials = list(iter_exponents(n, 1, degree))
    columns: dict[Exponent, dict[Exponent, Scalar]] = {}
    for m in monomials:
        acc: dict[Exponent, Scalar] = {}
        for i, e in enumerate(m):
            if e == 0:
                continue
            shifted = m[:i] + (e - 1,) + m[i + 1 :]
            base = sum(shifted)
            for mm, c in Xf.components[i].coeffs.items():
                if base + sum(mm) > through:
                    continue
                out = tuple(a + b for a, b in zip(shifted, mm))
                prev = acc.get(out, Fraction(0))
                v = prev + c * e
                if v == 0:
                    acc.pop(out, None)
                else:
                    acc[out] = v
        columns[m] = acc
    return _echelon_kernel_series(columns, monomials, n, degree)


# -- independence ------------------------------------------------------------------


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
    certified", since rank deficiency at sample points proves nothing."""
    vs = tuple(integrals)
    if not vs:
        raise ValueError("independence check needs at least one integral")
    n = vs[0].n
    k = len(vs)
    grads = [gradient(v) for v in vs]
    rng = random.Random(seed)
    best = 0
    for t in range(trials):
        # rationals from a fixed box, never on a coordinate hyperplane
        point = tuple(
            Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(n)
        )
        rows = [[comp.eval(point) for comp in g.components] for g in grads]
        r = q_rank(rows)
        best = max(best, r)
        if r == k:
            return IndependenceCertificate(
                independent=True, rank_found=k, witness=point, trials=t + 1
            )
    return IndependenceCertificate(
        independent=False, rank_found=best, witness=None, trials=trials
    )
