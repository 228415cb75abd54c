import random
from fractions import Fraction as F

import pytest

from helpers import oracle_resonant, two_dim_fixture, three_dim_fixture

from dulac.errors import HypothesisError
from dulac.integrals import (
    independence_check,
    monomial_integrals,
    pullback_integrals,
    search_integrals_field,
    search_integrals_map,
    verify_integral_field,
    verify_integral_map,
)
from dulac.normalizer import FieldSystem, MapSystem, normalize_map
from dulac.resonance import EigenSpec, enumerate_lattice
from dulac.series import ScalarSeries, VectorSeries

HALF_DOUBLE = EigenSpec.multiplicative([F(1, 2), 2])
SADDLE = EigenSpec.additive([1, -1])


def S(n, trunc, terms):
    return ScalarSeries(n, trunc, terms)


def _in_span(V, basis):
    """Exact membership of V in the linear span of the basis series."""
    from dulac.linalg import rank

    monomials = sorted(
        {m for s in list(basis) + [V] for m in s.coeffs}, key=lambda m: (sum(m), m)
    )
    rows = [[s.coeff(m) for m in monomials] for s in basis]
    return rank(rows) == rank(rows + [[V.coeff(m) for m in monomials]])


class TestMonomialIntegrals:
    def test_half_double(self):
        basis = enumerate_lattice(HALF_DOUBLE, 10)
        H = monomial_integrals(basis)
        assert len(H) == 1
        assert H[0].coeff((1, 1)) == 1

    def test_three_dim(self):
        basis = enumerate_lattice(EigenSpec.multiplicative([F(1, 32), 4, 2]), 8)
        H = monomial_integrals(basis)
        assert len(H) == 2
        assert {h.terms()[0][0] for h in H} == {(1, 2, 1), (1, 1, 3)}

    def test_empty_basis(self):
        basis = enumerate_lattice(EigenSpec.multiplicative([2, 3]), 6)
        assert len(monomial_integrals(basis)) == 0

    def test_order_below_a_generator_degree_is_a_hypothesis_error(self):
        basis = enumerate_lattice(EigenSpec.multiplicative([F(1, 32), 4, 2]), 8)
        assert len(monomial_integrals(basis, trunc=5)) == 2
        with pytest.raises(HypothesisError, match=r"generator \(1, 1, 3\) has degree 5.*order 4"):
            monomial_integrals(basis, trunc=4)


class TestVerify:
    def test_linear_map_invariant(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 10), 10)
        assert verify_integral_map(ScalarSeries.monomial(2, 10, (1, 1)), Fm).is_zero()

    def test_linear_map_witness(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 6), 6)
        r = verify_integral_map(ScalarSeries.variable(2, 0, 6), Fm)
        assert r.coeff((1, 0)) == F(-1, 2)

    def test_order_above_the_system_refused(self):
        """F's data is certified only through its order: V o F above it would
        treat the truncated map as exact."""
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 6), 6)
        with pytest.raises(HypothesisError, match="certified to degree 6; cannot verify to 8"):
            verify_integral_map(ScalarSeries.monomial(2, 10, (1, 1)), Fm, 8)

    def test_formal_base_certification(self):
        spec = EigenSpec.multiplicative_base([-5, 2])
        Fm = MapSystem(spec, VectorSeries.zero(2, 8), 8)
        assert verify_integral_map(ScalarSeries.monomial(2, 8, (2, 5)), Fm).is_zero()
        with pytest.raises(HypothesisError):
            verify_integral_map(ScalarSeries.monomial(2, 8, (1, 1)), Fm)

    def test_nilpotent_polynomial_first_integral(self):
        # x' = y^(p+1), y' = -x^(q+1) with p = q = 0: H = x^2/2 + y^2/2
        X = VectorSeries([S(2, 6, {(0, 1): 1}), S(2, 6, {(1, 0): -1})])
        H = S(2, 6, {(2, 0): F(1, 2), (0, 2): F(1, 2)})
        from dulac.series import gradient, scalar_inner

        assert scalar_inner(gradient(H), X).is_zero()

    def test_center_field(self):
        f = VectorSeries([S(2, 6, {(2, 1): 1}), S(2, 6, {(1, 2): -1})])
        X = FieldSystem(SADDLE, f, 6)
        assert verify_integral_field(ScalarSeries.monomial(2, 6, (1, 1)), X).is_zero()
        assert not verify_integral_field(ScalarSeries.variable(2, 0, 6), X).is_zero()


class TestPullback:
    def test_identity_transformation(self):
        H = monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8))
        pulled = pullback_integrals(H, VectorSeries.zero(2, 8), 8)
        assert pulled[0] == H[0].truncate(8)

    def test_shift_pullback_closed_form(self):
        phi = VectorSeries([S(2, 8, {(0, 2): 1}), ScalarSeries.zero(2, 8)])
        pulled = pullback_integrals([ScalarSeries.monomial(2, 8, (1, 1))], phi, 8)
        assert pulled[0] == S(2, 8, {(1, 1): 1, (0, 3): -1})

    def test_pullbacks_are_integrals_of_the_fixture(self):
        system, phi, _ = two_dim_fixture(N=8)
        H = monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=8)
        pulled = pullback_integrals(H, phi, 8)
        for V in pulled:
            assert verify_integral_map(V, system, 8).is_zero()

    def test_three_dim_pullbacks(self):
        system, phi, _, _ = three_dim_fixture(N=8)
        basis = enumerate_lattice(EigenSpec.multiplicative([F(1, 32), 4, 2]), 8)
        pulled = pullback_integrals(monomial_integrals(basis, trunc=8), phi, 8)
        for V in pulled:
            assert verify_integral_map(V, system, 8).is_zero()


class TestSearchMap:
    def test_linear_half_double(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 2), 2)
        got = search_integrals_map(Fm, 2)
        assert len(got) == 1
        assert got[0] == ScalarSeries.monomial(2, 2, (1, 1))

    def test_no_resonances_empty(self):
        Fm = MapSystem(EigenSpec.multiplicative([2, 3]), VectorSeries.zero(2, 6), 6)
        assert len(search_integrals_map(Fm, 6)) == 0

    def test_fixture_search_is_the_pullback_line(self):
        system, phi, _ = two_dim_fixture(N=8)
        got = search_integrals_map(system, 4)
        assert len(got) == 1
        pulled = pullback_integrals(
            monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=4), phi.truncate(4), 4
        )
        V, W = got[0], pulled[0]
        lead = V.terms()[0]
        factor = W.coeff(lead[0]) / lead[1]
        assert V.scale(factor) == W

    def test_search_at_full_order_contains_pullbacks(self):
        system, phi, _ = two_dim_fixture(N=8)
        got = search_integrals_map(system, 8)
        pulled = pullback_integrals(
            monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=8), phi, 8
        )
        assert _in_span(pulled[0], got)

    def test_search_results_verify(self):
        system, _, _ = two_dim_fixture(N=8)
        for V in search_integrals_map(system, 6):
            assert verify_integral_map(V, system, 6).is_zero()

    def test_map_resonance_structure(self):
        system, _, _ = two_dim_fixture(N=8)
        basis_spec = HALF_DOUBLE
        # searched integrals of the normal form consist of resonant monomials
        res = normalize_map(system)
        Gsys = MapSystem(HALF_DOUBLE, res.g, 8)
        for W in search_integrals_map(Gsys, 6):
            for m, _ in W.terms():
                assert oracle_resonant(basis_spec, m)


class TestSearchField:
    def test_linear_saddle(self):
        X = FieldSystem(SADDLE, VectorSeries.zero(2, 4), 4)
        got = search_integrals_field(X, 4)
        assert [v.terms()[0][0] for v in got] == [(1, 1), (2, 2)]

    def test_center_same_integrals(self):
        f = VectorSeries([S(2, 4, {(2, 1): 1}), S(2, 4, {(1, 2): -1})])
        X = FieldSystem(SADDLE, f, 4)
        got = search_integrals_field(X, 4)
        assert [v.terms()[0][0] for v in got] == [(1, 1), (2, 2)]
        for V in got:
            assert verify_integral_field(V, X, 4).is_zero()

    def test_poincare_domain_empty(self):
        X = FieldSystem(EigenSpec.additive([1, 2]), VectorSeries.zero(2, 6), 6)
        assert len(search_integrals_field(X, 6)) == 0

    def test_degenerate_eigenvalue_linear_integral(self):
        X = FieldSystem(EigenSpec.additive([1, 0]), VectorSeries.zero(2, 4), 4)
        got = search_integrals_field(X, 4)
        assert got[0] == ScalarSeries.variable(2, 1, 4)

    def test_count_never_exceeds_rank(self):
        rng = random.Random(6)
        for _ in range(8):
            lam = EigenSpec.additive([rng.randint(-3, 3), rng.randint(-3, 3)])
            if all(v == 0 for v in lam.values):
                continue
            X = FieldSystem(lam, VectorSeries.zero(2, 5), 5)
            basis = enumerate_lattice(lam, 5)
            found = search_integrals_field(X, 5)
            # spanning sets can repeat powers; independent count is bounded by rank
            if found:
                cert = independence_check(found, trials=6, seed=1)
                assert cert.rank_found <= max(basis.rank, 1)


class TestIndependence:
    def test_single_monomial(self):
        cert = independence_check([ScalarSeries.monomial(2, 4, (1, 1))])
        assert cert.independent and cert.rank_found == 1
        assert cert.witness is not None

    def test_three_dim_pair(self):
        vs = [ScalarSeries.monomial(3, 8, (1, 2, 1)), ScalarSeries.monomial(3, 8, (2, 5, 0))]
        cert = independence_check(vs)
        assert cert.independent

    def test_functionally_dependent_pair(self):
        vs = [ScalarSeries.monomial(2, 4, (1, 1)), ScalarSeries.monomial(2, 4, (2, 2))]
        cert = independence_check(vs)
        assert not cert.independent and cert.rank_found == 1

    def test_deterministic_given_seed(self):
        vs = [ScalarSeries.monomial(2, 4, (1, 1))]
        a = independence_check(vs, seed=7)
        b = independence_check(vs, seed=7)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            independence_check([])
