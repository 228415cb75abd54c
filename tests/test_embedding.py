from fractions import Fraction as F

import pytest

from helpers import (
    conjugate_map,
    mat_vec,
    normal_form_from_units,
    normalization_of,
    oracle_gradient,
    oracle_jacobian,
    scalar_inner,
    three_dim_fixture,
    two_dim_fixture,
)

from dulac.embedding import embedding_field, time_one_map, verify_equivariance
from dulac.errors import HypothesisError
from dulac.integrals import monomial_integrals, pullback_integrals, verify_integral
from dulac.normalizer import MapSystem
from dulac.resonance import EigenSpec, enumerate_lattice
from dulac.series import (
    ScalarSeries,
    VectorSeries,
    compose,
    cross,
    gradient,
    unit_power,
)

HALF_DOUBLE = EigenSpec.multiplicative([F(1, 2), 2])


def S(n, trunc, terms):
    return ScalarSeries(n, trunc, terms)


def cross_of_gradients(vs, order=None):
    return cross([gradient(v) for v in vs], order)


class TestCrossField:
    """The cross product of the integral gradients, bare and as the
    embedding field of a linear map with det(DF) = 1."""

    def test_planar(self):
        Z = cross_of_gradients([ScalarSeries.monomial(2, 6, (1, 1))])
        assert Z.components[0] == S(2, 5, {(1, 0): 1})
        assert Z.components[1] == S(2, 5, {(0, 1): -1})
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 6), 6)
        assert embedding_field(Fm, [ScalarSeries.monomial(2, 6, (1, 1))]).field == Z

    def test_three_dim_tangency(self):
        vs = [ScalarSeries.monomial(3, 8, (1, 2, 1)), ScalarSeries.monomial(3, 8, (1, 1, 3))]
        Z = cross_of_gradients(vs)
        for v in vs:
            assert scalar_inner(oracle_gradient(v), Z, Z.trunc).is_zero()
        Fm = MapSystem(EigenSpec.multiplicative([F(1, 2), 4, F(1, 2)]), VectorSeries.zero(3, 8), 8)
        emb = embedding_field(Fm, vs)
        assert emb.field == Z and emb.tangent and emb.equivariant

    def test_degenerate_constant_gradient(self):
        Z = cross_of_gradients([ScalarSeries.variable(2, 0, 4)])
        assert Z.components[0].is_zero()
        assert Z.components[1] == ScalarSeries.const(2, 3, -1)
        assert scalar_inner(oracle_gradient(ScalarSeries.variable(2, 0, 4)), Z, 3).is_zero()

    def test_wrong_count(self):
        Fm = MapSystem(EigenSpec.multiplicative([F(1, 2), 4, F(1, 2)]), VectorSeries.zero(3, 4), 4)
        with pytest.raises(HypothesisError, match="exactly 2 integrals, got 1"):
            embedding_field(Fm, [ScalarSeries.monomial(3, 4, (1, 1, 1))])

    def test_one_dimension_is_refused(self):
        """n = 1 has n - 1 = 0 integrals and no cross product: an unmet
        hypothesis, not a series error."""
        Fm = MapSystem(EigenSpec.multiplicative([2]), VectorSeries([S(1, 5, {(2,): 1})]), 5)
        with pytest.raises(HypothesisError, match="dimension n >= 2, not n = 1"):
            embedding_field(Fm, [], 4)


class TestEmbeddingField:
    def test_linear_half_double(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 10), 10)
        emb = embedding_field(Fm, [ScalarSeries.monomial(2, 10, (1, 1))], 8)
        assert emb.field.components[0] == S(2, 8, {(1, 0): 1})
        assert emb.field.components[1] == S(2, 8, {(0, 1): -1})
        assert emb.tangent and emb.equivariant

    def test_fixture_with_unimodular_jacobian(self):
        system, phi, _ = two_dim_fixture(N=10)
        pulled = pullback_integrals(
            monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=10), normalization_of(phi, system.spec), 10
        )
        assert verify_integral(pulled[0], system, 10).is_zero()
        emb = embedding_field(system, pulled, 8)
        assert emb.tangent
        assert emb.equivariant
        assert emb.flags == ()

    def test_nonconstant_jacobian_keeps_tangency_flags_intertwining(self):
        # Phi = (y1 + y1 y2^2, y2) has det DPhi = 1 + y2^2, so det DF is not
        # constant; tangency stays exact while the intertwining identity
        # acquires the determinant cocycle defect, which must be flagged
        N = 10
        mu_vals = [F(1, 2), F(2)]
        u = ScalarSeries.monomial(2, N, (1, 1))
        p1 = unit_power(u, -1, N) - ScalarSeries.one(2, N)
        G = normal_form_from_units(mu_vals, [p1, u], N)
        phi = VectorSeries([S(2, N, {(1, 2): 1}), ScalarSeries.zero(2, N)])
        system = conjugate_map(mu_vals, G, phi, N)
        pulled = pullback_integrals([ScalarSeries.monomial(2, N, (1, 1))], normalization_of(phi, system.spec), N)
        assert verify_integral(pulled[0], system, N).is_zero()
        emb = embedding_field(system, pulled, 8)
        assert emb.tangent
        assert not emb.equivariant
        assert emb.flags and "cocycle" in emb.flags[0]
        # the bare cross product (no determinant factor) is not equivariant either
        bare = cross_of_gradients(pulled, 8)
        assert not verify_equivariance(system, bare, 8).is_zero()

    def test_three_dim_fixture(self):
        system, phi, _, _ = three_dim_fixture(N=9)
        basis = enumerate_lattice(EigenSpec.multiplicative([F(1, 32), 4, 2]), 8)
        pulled = pullback_integrals(monomial_integrals(basis, trunc=9), normalization_of(phi, system.spec), 9)
        emb = embedding_field(system, pulled, 7)
        assert emb.tangent

    def test_wrong_integral_count(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 6), 6)
        with pytest.raises(HypothesisError):
            embedding_field(Fm, [], 4)


class TestEquivariance:
    def test_linear_hand_check(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 8), 8)
        X = VectorSeries([S(2, 8, {(1, 0): 1}), S(2, 8, {(0, 1): -1})])
        assert verify_equivariance(Fm, X, 8).is_zero()

    def test_detects_wrong_field(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 8), 8)
        X = VectorSeries([S(2, 8, {(1, 0): 1, (0, 2): 1}), S(2, 8, {(0, 1): -1})])
        assert not verify_equivariance(Fm, X, 8).is_zero()

    def test_field_with_a_constant_term_matches_the_jacobian_oracle(self):
        """Below the system order a constant term of X is allowed; the
        residual is DF X - X o F as the Jacobian times X gave it."""
        system, _, _ = two_dim_fixture(N=8)
        X = VectorSeries([S(2, 7, {(0, 0): 2, (1, 0): 1, (1, 2): F(1, 3)}), S(2, 7, {(0, 0): -1, (0, 3): 5})])
        want = mat_vec(oracle_jacobian(system.full()), X, 7) - compose(X, system.full(7), 7)
        got = verify_equivariance(system, X, 7)
        assert got == want and not got.is_zero()
        with pytest.raises(HypothesisError, match="constant terms"):
            verify_equivariance(system, X.with_trunc(8), 8)


class TestTimeOne:
    def test_partial_exponential_sums(self):
        X = VectorSeries([S(2, 6, {(1, 0): 1}), S(2, 6, {(0, 1): -1})])
        got = time_one_map(X, 2, 6)
        assert got.components[0] == S(2, 6, {(1, 0): F(5, 2)})
        assert got.components[1] == S(2, 6, {(0, 1): F(1, 2)})

    def test_zero_field(self):
        assert time_one_map(VectorSeries.zero(2, 4), 5) == VectorSeries.identity(2, 4)

    def test_nilpotent_shear_terminates(self):
        X = VectorSeries([S(2, 5, {(0, 1): 1}), ScalarSeries.zero(2, 5)])
        expected0 = S(2, 5, {(1, 0): 1, (0, 1): 1})
        for K in (1, 4, 9):
            got = time_one_map(X, K, 5)
            assert got.components[0] == expected0
            assert got.components[1] == S(2, 5, {(0, 1): 1})

    def test_time_one_differs_from_half_double(self):
        # the well-documented gap: the cross-product field of diag(1/2, 2) has
        # time-one map diag(e, 1/e), not diag(1/2, 2)
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 8), 8)
        X = VectorSeries([S(2, 8, {(1, 0): 1}), S(2, 8, {(0, 1): -1})])
        assert verify_equivariance(Fm, X, 8).is_zero()
        phi_one = time_one_map(X, 12, 8)
        assert phi_one != Fm.full(8)

    def test_constant_term_rejected(self):
        bad = VectorSeries([ScalarSeries.one(2, 3), ScalarSeries.zero(2, 3)])
        with pytest.raises(ValueError):
            time_one_map(bad, 3)
