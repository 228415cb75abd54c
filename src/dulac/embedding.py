"""Cross-product vector fields attached to integrable maps.

Given n-1 first integrals of a map F in dimension n >= 2, the generalized
cross product of their gradients is a field tangent to every common level
set.  The construction rescales that field by the Jacobian determinant of F
evaluated along F^(-1), pulled through the map's one table of powers with no
inverse of F built; both factors are minors read from `series._minors`, and
the output is checked for exact tangency and for the intertwining identity
DF(y) X(y) = X(F(y)), whose derivatives along X (and the time-one flow's)
are `series.lie_derivative`.

The intertwining identity is what the construction certifies; it does not by
itself make F the time-one map of X.  time_one_map exposes the truncated
flow so the two can be compared, and reports flag the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import HypothesisError
from .normalizer import MapSystem
from .series import (
    ScalarSeries,
    VectorSeries,
    cross,
    det_series,
    gradient,
    jacobian,
    lie_derivative,
)


@dataclass(frozen=True)
class EmbeddingField:
    """The constructed field with its provenance and verification record."""

    field: VectorSeries
    order: int
    system: MapSystem
    integrals: tuple[ScalarSeries, ...]
    tangency_residuals: tuple[ScalarSeries, ...]
    equivariance_residual: VectorSeries
    flags: tuple[str, ...] = ()

    @property
    def tangent(self) -> bool:
        return all(r.is_zero() for r in self.tangency_residuals)

    @property
    def equivariant(self) -> bool:
        return self.equivariance_residual.is_zero()


def embedding_field(
    F: MapSystem,
    integrals: Sequence[ScalarSeries],
    order: int | None = None,
) -> EmbeddingField:
    """det(DF) o F^(-1) times the cross product of the integral gradients,
    det(DF) pulled through F's own table (`series.Powers.pull`), for n >= 2
    and exactly n - 1 integrals; each integral is a first integral of the
    cross product by the repeated-row determinant identity.

    The determinant factor is what makes the intertwining identity provable
    from invariance of the integrals; tangency holds for the bare cross
    product already.  Both residuals, <grad V, X> for each integral V and
    DF*X - X(F), are computed exactly and recorded, and a nonzero
    intertwining residual is flagged rather than hidden: it occurs
    precisely when det(DF) is not identically one, where rescaling along
    orbits would be needed and no canonical choice exists.  `verify`
    rebuilds a claimed field with it.
    """
    vs = tuple(integrals)
    n = F.n
    if n < 2:
        raise HypothesisError(f"an embedding field needs dimension n >= 2, not n = {n}")
    if len(vs) != n - 1:
        raise HypothesisError(
            f"dimension {n} needs exactly {n - 1} integrals, got {len(vs)}"
        )
    if not F.spec.has_exact_values():
        raise HypothesisError("embedding needs exactly representable eigenvalues")
    if order is None:
        order = min([F.order - 1] + [v.trunc - 1 for v in vs])
    if order < 1:
        raise ValueError("embedding order must be >= 1")
    [det_back] = F.powers.pull([det_series(jacobian(F.full()), order)], order)
    X = VectorSeries([det_back.mul(c, order) for c in cross([gradient(v) for v in vs], order)])
    equi = verify_equivariance(F, X, order)
    flags = () if equi.is_zero() else (
        "intertwining residual DF*X - X(F) is nonzero: det(DF) is not "
        "identically one, and the determinant-rescaled construction only "
        "intertwines up to the det(DF) cocycle",
    )
    return EmbeddingField(
        field=X,
        order=order,
        system=F,
        integrals=vs,
        tangency_residuals=tuple(lie_derivative(v, X, order) for v in vs),
        equivariance_residual=equi,
        flags=flags,
    )


def verify_equivariance(F: MapSystem, X: VectorSeries, order: int | None = None) -> VectorSeries:
    """Exact residual DF(y) X(y) - X(F(y)) through the order."""
    if order is None:
        order = min(F.order, X.trunc)
    if X.low_degree() == 0 and order > F.order - 1:
        raise HypothesisError(
            "X has constant terms; the residual is only certified one degree "
            "below the system order"
        )
    return lie_derivative(F.full(), X, order) - VectorSeries(F.powers.compose(X.components, order))


def time_one_map(X: VectorSeries, lie_order: int, order: int | None = None) -> VectorSeries:
    """Truncated time-one flow of X: the partial sum of the exponential of
    the derivation along X, applied to the identity.

    Exact rational output; nilpotent fields make the sum terminate, so the
    result is then independent of lie_order once it stabilizes."""
    if any(c.low_degree() == 0 for c in X):
        raise ValueError("flow needs a field without constant term")
    if order is None:
        order = X.trunc
    acc = VectorSeries.identity(X.n, order)
    term = acc
    for k in range(1, lie_order + 1):
        term = lie_derivative(term, X.truncate(order), order).scale(Fraction(1, k))
        if term.is_zero():
            break
        acc = acc + term
    return acc
