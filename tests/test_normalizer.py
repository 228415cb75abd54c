import dataclasses
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (
    oracle_resonant,
    random_integrable_case,
    random_sparse_series,
    three_dim_fixture,
    two_dim_fixture,
)

from dulac.errors import HypothesisError, InternalInvariantError
from dulac.normalizer import (
    FieldSystem,
    MapSystem,
    NormalizationResult,
    System,
    check_functional_equations,
    classify,
    extract_common_factor_field,
    extract_integrable_shape_map,
    growth_diagnostic,
    normalize,
    reduce_to_single_function,
    verify_conjugacy,
)
from dulac.resonance import EigenSpec, enumerate_lattice, iter_exponents
from dulac.scalars import gaussian
from dulac.series import ScalarSeries, VectorSeries

HALF_DOUBLE = EigenSpec.multiplicative([F(1, 2), 2])
SADDLE = EigenSpec.additive([1, -1])


def S(n, trunc, terms):
    return ScalarSeries(n, trunc, terms)


KINDS = pytest.mark.parametrize("kind,spec", [(MapSystem, HALF_DOUBLE), (FieldSystem, SADDLE)], ids=["map", "field"])


class TestNormalize:
    @KINDS
    def test_zero_nonlinearity(self, kind, spec):
        res = normalize(kind(spec, VectorSeries.zero(2, 4), 4))
        assert res.phi.is_zero() and res.g.is_zero()

    @pytest.mark.parametrize("kind,spec,divided,g_zero_to", [
        (MapSystem, HALF_DOUBLE, F(2, 7), 3), (FieldSystem, SADDLE, F(-1, 3), 2),
    ], ids=["map", "field"])
    def test_single_homological_division(self, kind, spec, divided, g_zero_to):
        # y2^2 e_1 over mu^(0,2) - mu_1 = 7/2, or <(0,2), lambda> - lambda_1 = -3
        f = VectorSeries([S(2, 3, {(0, 2): 1}), ScalarSeries.zero(2, 3)])
        res = normalize(kind(spec, f, 3))
        assert res.phi.components[0].coeff((0, 2)) == divided
        assert res.g.truncate(g_zero_to).is_zero()


class TestSystemType:
    """MapSystem and FieldSystem are the two kinds of one System: it compares
    and hashes by (spec, nonlinear, order) within a kind, never across, and
    its cached power table enters neither."""

    def f(self, trunc=4):
        return VectorSeries([S(2, trunc, {(0, 2): 1, (1, 1): F(1, 3)}), S(2, trunc, {(2, 1): -1})])

    @KINDS
    def test_equal_systems_hash_equal(self, kind, spec):
        a, b = kind(spec, self.f(), 4), kind(spec, self.f(6), 4)
        assert a == b and hash(a) == hash(b)
        assert a == kind(spec, self.f())  # order defaults to the series' truncation
        assert a != kind(spec, self.f(), 3)

    @KINDS
    def test_power_table_enters_neither(self, kind, spec):
        a, b = kind(spec, self.f(), 4), kind(spec, self.f(), 4)
        before = hash(a)
        assert a.powers.parts is a.powers.parts  # filled once, then cached
        assert a == b and hash(a) == before == hash(b)
        assert [f.name for f in dataclasses.fields(a)] == ["spec", "nonlinear", "order"]

    def test_kinds_from_identical_data_stay_unequal(self):
        m = MapSystem(HALF_DOUBLE, self.f(), 4)
        # the spectrum checks keep a field from multiplicative eigenvalues,
        # so the twin is built past them
        twin = object.__new__(FieldSystem)
        for f in dataclasses.fields(m):
            object.__setattr__(twin, f.name, getattr(m, f.name))
        assert m != twin and twin != m
        assert m == MapSystem(HALF_DOUBLE, self.f(), 4)

    def test_only_the_two_kinds_are_built(self):
        with pytest.raises(TypeError):
            System(HALF_DOUBLE, self.f(), 4)
        with pytest.raises(ValueError, match="multiplicative"):
            MapSystem(SADDLE, self.f(), 4)
        with pytest.raises(ValueError, match="additive"):
            FieldSystem(HALF_DOUBLE, self.f(), 4)

    @KINDS
    def test_full_is_linear_plus_nonlinear(self, kind, spec):
        system = kind(spec, self.f(), 4)
        assert system.full() == system.linear() + system.nonlinear
        assert system.full(6) == system.linear(6) + system.nonlinear.with_trunc(6)
        assert system.full(3) == system.linear(3) + system.nonlinear.truncate(3)


class TestNormalizeMap:
    def test_round_trip_two_dim_fixture(self):
        system, phi, g = two_dim_fixture(N=8)
        res = normalize(system)
        assert res.phi == phi
        assert res.g == g
        assert res.residual_zero_degrees == tuple(range(2, 9))

    def test_distinguished_splitting(self):
        system, _, _ = two_dim_fixture(N=6)
        res = normalize(system, 6)
        for j, comp in enumerate(res.phi.components):
            for m in comp.coeffs:
                assert not oracle_resonant(HALF_DOUBLE, m, j)
        for j, comp in enumerate(res.g.components):
            for m in comp.coeffs:
                assert oracle_resonant(HALF_DOUBLE, m, j)

    def test_conjugacy_residual_detects_perturbation(self):
        system, phi, g = two_dim_fixture(N=6)
        res = normalize(system, 6)
        bumped = res.phi + VectorSeries([S(2, 6, {(0, 2): 1}), ScalarSeries.zero(2, 6)])
        fake = NormalizationResult(spec=res.spec, phi=bumped, g=res.g, order=6)
        assert not verify_conjugacy(system, fake).is_zero()

    def test_formal_base_rejected(self):
        spec = EigenSpec.multiplicative_base([-5, 2, 1])
        sys3 = MapSystem(spec, VectorSeries.zero(3, 4), 4)
        with pytest.raises(HypothesisError):
            normalize(sys3)

    def test_gaussian_coefficients_flow_through(self):
        from dulac.scalars import gaussian

        i = gaussian(0, 1)
        f = VectorSeries([S(2, 4, {(0, 2): i}), ScalarSeries.zero(2, 4)])
        system = MapSystem(HALF_DOUBLE, f, 4)
        res = normalize(system)
        assert res.phi.components[0].coeff((0, 2)) == i * F(2, 7)
        assert verify_conjugacy(system, res).is_zero()


class TestNormalizeField:
    def test_resonant_term_stays(self):
        f = VectorSeries([S(2, 3, {(2, 1): 1}), ScalarSeries.zero(2, 3)])
        res = normalize(FieldSystem(SADDLE, f, 3))
        assert res.phi.is_zero()
        assert res.g == f

    def test_center_normal_form_unchanged(self):
        f = VectorSeries([S(2, 8, {(2, 1): 1}), S(2, 8, {(1, 2): -1})])
        system = FieldSystem(SADDLE, f, 8)
        res = normalize(system)
        assert res.phi.is_zero()
        assert res.g == f
        assert verify_conjugacy(system, res).is_zero()

    def test_field_round_trip(self):
        # Y = (y1 (1 + u), -y2 (1 + u)), u = y1 y2, conjugated by a shift
        N = 7
        u = ScalarSeries.monomial(2, N, (1, 1))
        one = ScalarSeries.one(2, N)
        Y = VectorSeries([
            (one + u).mul(ScalarSeries.variable(2, 0, N), N),
            (one + u).mul(ScalarSeries.variable(2, 1, N), N).scale(-1),
        ])
        g = (Y - VectorSeries.diagonal_linear([1, -1], N)).strip_low(2)
        phi = VectorSeries([S(2, N, {(0, 2): F(1, 2)}), ScalarSeries.zero(2, N)])
        # transported field: DPhi(y)^(-1) is implicit; build X by solving the
        # conjugacy the verifier checks: X o Phi given by DPhi * Y
        from dulac.series import compose, invert

        from helpers import mat_vec, oracle_jacobian

        Phi = VectorSeries.identity(2, N) + phi
        lhs = mat_vec(oracle_jacobian(Phi), Y, N)  # (A + f)(Phi(y)) must equal this
        Psi = invert(Phi, N)
        Xfull = compose(lhs, Psi, N)
        f = (Xfull - VectorSeries.diagonal_linear([1, -1], N)).strip_low(2)
        system = FieldSystem(SADDLE, f, N)
        res = normalize(system)
        assert res.phi == phi
        assert res.g == g


class TestShape:
    def test_two_dim_shape_and_equations(self):
        system, _, _ = two_dim_fixture(N=8)
        res = normalize(system)
        shape = extract_integrable_shape_map(res)
        assert shape.ok
        u = ScalarSeries.monomial(2, 7, (1, 1))
        assert shape.p[1] == u
        basis = enumerate_lattice(HALF_DOUBLE, 10)
        residuals = check_functional_equations(shape.p, basis, 7)
        assert len(residuals) == 1 and residuals[0].is_zero()

    def test_shape_failure_witness(self):
        # mu = (8, 2): y2^3 e_1 is resonant but not divisible by y1
        mu = EigenSpec.multiplicative([8, 2])
        f = VectorSeries([S(2, 4, {(0, 3): 1}), ScalarSeries.zero(2, 4)])
        res = normalize(MapSystem(mu, f, 4))
        assert res.g.components[0].coeff((0, 3)) == 1
        shape = extract_integrable_shape_map(res)
        assert not shape.ok
        assert shape.witness == (0, (0, 3))

    def test_zero_normal_form(self):
        res = normalize(MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 4), 4))
        shape = extract_integrable_shape_map(res)
        assert shape.ok and all(p.is_zero() for p in shape.p)


class TestReduce:
    def test_three_dim_exponents(self):
        _, _, _, ps = three_dim_fixture(N=8)
        basis = enumerate_lattice(EigenSpec.multiplicative([F(1, 32), 4, 2]), 8)
        red = reduce_to_single_function([p.truncate(7) for p in ps], basis, 7)
        assert red.iota == 1
        assert red.exponents == (F(-5, 2), F(1), F(1, 2))

    def test_two_dim(self):
        system, _, _ = two_dim_fixture(N=8)
        res = normalize(system)
        shape = extract_integrable_shape_map(res)
        basis = enumerate_lattice(HALF_DOUBLE, 10)
        red = reduce_to_single_function(shape.p, basis, 7)
        assert red.iota == 1 and red.exponents == (F(-1), F(1))

    def test_zero_p_convention(self):
        basis = enumerate_lattice(HALF_DOUBLE, 6)
        red = reduce_to_single_function(
            [ScalarSeries.zero(2, 5), ScalarSeries.zero(2, 5)], basis, 5
        )
        assert red.iota == 0 and red.exponents == (F(0), F(0))

    def test_inconsistent_p_rejected(self):
        basis = enumerate_lattice(HALF_DOUBLE, 6)
        u = ScalarSeries.monomial(2, 5, (1, 1))
        with pytest.raises(HypothesisError):
            reduce_to_single_function([u, u], basis, 5)


class TestCommonFactor:
    def test_center(self):
        f = VectorSeries([S(2, 6, {(2, 1): 1}), S(2, 6, {(1, 2): -1})])
        res = normalize(FieldSystem(SADDLE, f, 6))
        out = extract_common_factor_field(res)
        assert out.ok and out.h == ScalarSeries.monomial(2, 5, (1, 1))

    def test_zero(self):
        res = normalize(FieldSystem(SADDLE, VectorSeries.zero(2, 4), 4))
        out = extract_common_factor_field(res)
        assert out.ok and out.h.is_zero()

    def test_degenerate_eigenvalue(self):
        lam = EigenSpec.additive([1, 0])
        f = VectorSeries([S(2, 4, {(1, 1): 1}), ScalarSeries.zero(2, 4)])
        res = normalize(FieldSystem(lam, f, 4))
        out = extract_common_factor_field(res)
        assert out.ok and out.h == ScalarSeries.monomial(2, 3, (0, 1))

    def test_mismatched_factor_witnessed(self):
        # resonant normal form lacking a common factor: g = (x(2u), -y(3u))
        f = VectorSeries([S(2, 5, {(2, 1): 2}), S(2, 5, {(1, 2): -3})])
        res = normalize(FieldSystem(SADDLE, f, 5))
        out = extract_common_factor_field(res)
        assert not out.ok
        assert out.witness == (1, None)

    def test_zero_eigenvalue_component_must_vanish(self):
        lam = EigenSpec.additive([1, 0])
        # (0,2) e_2 is resonant (<m,lam> = 0 = lam_2) but breaks the strict shape
        f = VectorSeries([ScalarSeries.zero(2, 4), S(2, 4, {(0, 2): 1})])
        res = normalize(FieldSystem(lam, f, 4))
        out = extract_common_factor_field(res)
        assert not out.ok and out.witness == (1, (0, 2))


class TestClassify:
    def test_two_dim_integrable(self):
        system, _, _ = two_dim_fixture(N=8)
        rep = classify(system, 10, 8)
        assert rep.verdict == "integrable-consistent"
        assert rep.lattice.rank == 1 and rep.rank_ok
        assert all(r.is_zero() for r in rep.functional_residuals)
        assert rep.reduction.exponents == (F(-1), F(1))

    def test_three_dim_integrable(self):
        system, phi, g, _ = three_dim_fixture(N=8)
        rep = classify(system, 8, 8)
        assert rep.verdict == "integrable-consistent"
        assert rep.lattice.rank == 2
        assert rep.normalization.phi == phi and rep.normalization.g == g
        assert rep.reduction.iota == 1
        assert rep.reduction.exponents == (F(-5, 2), F(1), F(1, 2))

    def test_rank_failure(self):
        rep = classify(FieldSystem(EigenSpec.additive([1, 2]), VectorSeries.zero(2, 4), 4), 8, 4)
        assert rep.verdict == "not-integrable"
        assert "rank" in rep.witness

    def test_shape_failure_through_pipeline(self):
        mu3 = EigenSpec.multiplicative([F(1, 32), 4, 2])
        f = VectorSeries([
            ScalarSeries.zero(3, 4), S(3, 4, {(0, 0, 2): 1}), ScalarSeries.zero(3, 4),
        ])
        rep = classify(MapSystem(mu3, f, 4), 8, 4)
        assert rep.verdict == "not-integrable"
        assert "not divisible" in rep.witness

    def test_functional_equation_failure(self):
        # resonant shape-compatible normal form violating the product relation:
        # p1 = u, p2 = 0 gives (1+p1)(1+p2) - 1 = u != 0
        f = VectorSeries([S(2, 5, {(2, 1): F(1, 2)}), ScalarSeries.zero(2, 5)])
        rep = classify(MapSystem(HALF_DOUBLE, f, 5), 8, 5)
        assert rep.verdict == "not-integrable"
        assert "functional equation" in rep.witness

    def test_hypotheses_not_met(self):
        rep = classify(MapSystem(EigenSpec.multiplicative([1, -1]), VectorSeries.zero(2, 4), 4), 6, 4)
        assert rep.verdict == "hypotheses-not-met"
        rep2 = classify(FieldSystem(EigenSpec.additive([0, 0]), VectorSeries.zero(2, 4), 4), 6, 4)
        assert rep2.verdict == "hypotheses-not-met"

    def test_field_common_factor_failure(self):
        f = VectorSeries([S(2, 5, {(2, 1): 2}), S(2, 5, {(1, 2): -3})])
        rep = classify(FieldSystem(SADDLE, f, 5), 8, 5)
        assert rep.verdict == "not-integrable"

    def test_degenerate_field_integrable(self):
        lam = EigenSpec.additive([1, 0])
        f = VectorSeries([S(2, 4, {(1, 1): 1}), ScalarSeries.zero(2, 4)])
        rep = classify(FieldSystem(lam, f, 4), 8, 4)
        assert rep.verdict == "integrable-consistent"
        assert rep.h == ScalarSeries.monomial(2, 3, (0, 1))


class TestRandomRoundTrips:
    def test_maps_recover_planted_data(self):
        rng = random.Random(20240817)
        for case in range(25):
            n = 2 if case % 2 == 0 else 3
            system, phi, g = random_integrable_case(rng, n, N=6)
            res = normalize(system, 6)
            assert res.phi == phi, f"case {case}: phi mismatch"
            assert res.g == g, f"case {case}: g mismatch"


class TestGrowth:
    def test_zero_phi(self):
        diag = growth_diagnostic(VectorSeries.zero(2, 6))
        assert diag.rows == () and diag.slope is None

    def test_bounded_fixture_not_flagged(self):
        system, _, _ = two_dim_fixture(N=8)
        res = normalize(system)
        diag = growth_diagnostic(res.phi)
        assert not diag.super_geometric

    def test_factorial_growth_flagged(self):
        import math

        terms = {}
        for s in range(2, 9):
            terms[(s, 0)] = F(math.factorial(s))
        phi = VectorSeries([S(2, 8, terms), ScalarSeries.zero(2, 8)])
        diag = growth_diagnostic(phi)
        assert diag.super_geometric

    def test_geometric_growth_not_flagged(self):
        terms = {(s, 0): F(3) ** s for s in range(2, 9)}
        phi = VectorSeries([S(2, 8, terms), ScalarSeries.zero(2, 8)])
        diag = growth_diagnostic(phi)
        assert not diag.super_geometric
        assert abs(diag.ratio - 3.0) < 1e-6


def test_growth_rows_equal_the_per_degree_rescan():
    """growth_diagnostic keeps the largest magnitude per degree in one pass;
    the rows match a rescan of every coefficient per degree."""
    def magnitude(c):
        return max(abs(c.re), abs(c.im)) if hasattr(c, "im") else abs(c)

    rng = random.Random("growth-rows")
    for _ in range(200):
        n, trunc = rng.randint(1, 3), rng.randint(2, 8)
        phi = VectorSeries([
            random_sparse_series(rng, n, trunc, 10, rng.random() < 0.5) for _ in range(n)
        ])
        rows = []
        for s in range(2, trunc + 1):
            mags = [magnitude(c) for comp in phi.components
                    for m, c in comp.coeffs.items() if sum(m) == s]
            if mags:
                rows.append((s, max(mags)))
        assert growth_diagnostic(phi).rows == tuple(rows)


# -- the solver's self-check ---------------------------------------------------------

I = gaussian(0, 1)
SELF_CHECK_SPECTRA = {
    "map-rational": EigenSpec.multiplicative([F(1, 2), 2]),
    "map-gaussian": EigenSpec.multiplicative([2 * I, -I / 2]),
    "field-rational": EigenSpec.additive([1, -1]),
    "field-gaussian": EigenSpec.additive([I, -I]),
}


def self_check_system(name, N=6):
    """A seeded system with every degree-2 term and about half the higher
    ones, with Gaussian coefficients over a Gaussian spectrum."""
    spec = SELF_CHECK_SPECTRA[name]
    rng = random.Random(f"self-check/{name}")
    terms = []
    for m in iter_exponents(2, 2, N):
        for j in range(2):
            if sum(m) == 2 or rng.random() < 0.5:
                c = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                terms.append((j, m, c + F(rng.randint(-2, 2), 3) * I if "gaussian" in name else c))
    f = VectorSeries.from_terms(2, N, terms)
    return MapSystem(spec, f) if spec.is_multiplicative() else FieldSystem(spec, f)


class TestSelfCheckCatchesMutations:
    """`normalize` re-sums the conjugacy residual through the degree loop's
    own tables; a slip in the loop's split or in its sums' degree ranges
    must leave that residual nonzero and raise, never return a pair."""

    @pytest.mark.parametrize("name", sorted(SELF_CHECK_SPECTRA))
    def test_perturbed_split(self, name, monkeypatch):
        from dulac import normalizer
        from dulac.series import _reduced

        split, perturbed = normalizer._split_degree, []

        def one_numerator_off(spec, rhs, P):
            g_s, phi_s = split(spec, rhs, P)
            for j, (den, re, im) in enumerate(phi_s):
                if (re or im) and not perturbed:
                    k = min(re.keys() | im.keys())
                    phi_s[j] = _reduced(den, {**re, k: re.get(k, 0) + 1}, im)
                    perturbed.append(len(P.parts[0]))  # the degree being split
            return g_s, phi_s

        system = self_check_system(name)
        normalize(system)  # sound as it stands
        monkeypatch.setattr(normalizer, "_split_degree", one_numerator_off)
        with pytest.raises(InternalInvariantError, match="nonzero conjugacy residual at degree 2$"):
            normalize(system)
        assert perturbed == [2]

    @pytest.mark.parametrize("name", sorted(SELF_CHECK_SPECTRA))
    def test_loop_sums_from_degree_three(self, name, monkeypatch):
        from dulac import normalizer

        pairs, shifted = normalizer._pairs, []

        def from_three(outer, powers, s, low=1, sign=1):
            if low == 2:
                shifted.append(s)
                low = 3
            return pairs(outer, powers, s, low, sign)

        monkeypatch.setattr(normalizer, "_pairs", from_three)
        with pytest.raises(InternalInvariantError, match="nonzero conjugacy residual at degree 2$"):
            normalize(self_check_system(name))
        assert shifted  # the loop's sums, and only those, were shifted

    def test_cli_exits_4(self, monkeypatch, capsys):
        from dulac import normalizer
        from dulac.cli import main

        pairs = normalizer._pairs
        monkeypatch.setattr(normalizer, "_pairs", lambda outer, powers, s, low=1, sign=1:
                            pairs(outer, powers, s, 3 if low == 2 else low, sign))
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "ex2_2d.json"
        assert main(["normalize", "--input", str(fixture)]) == 4
        assert "nonzero conjugacy residual" in capsys.readouterr().err
