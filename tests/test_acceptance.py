"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every asserted value is either computed by an independent construction in
the test (round-trip fixtures built from series primitives only), verified
by exhaustive enumeration, or checked to be exactly zero.  Each test prints
one pass line with its runtime; the stated time budgets are asserted.
"""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

from helpers import (
    normalization_of,
    oracle_resonant,
    random_integrable_case,
    random_sparse_series,
    random_tangent_identity,
    scalar_inner,
    three_dim_fixture,
    two_dim_fixture,
)

from dulac.cli import main as cli_main
from dulac.embedding import embedding_field, time_one_map
from dulac.integrals import (
    monomial_integrals,
    pullback_integrals,
    search_integrals,
    verify_integral,
)
from dulac.normalizer import (
    FieldSystem,
    MapSystem,
    classify,
    extract_common_factor_field,
    extract_integrable_shape_map,
    normalize,
    reduce_to_single_function,
    verify_conjugacy,
)
from dulac.resonance import (
    EigenSpec,
    enumerate_lattice,
    small_divisor_bound_field,
    small_divisor_bound_map,
    verify_bound,
)
from dulac.series import (
    ScalarSeries,
    VectorSeries,
    compose,
    cross,
    invert,
    unit_power,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HALF_DOUBLE = EigenSpec.multiplicative([F(1, 2), 2])
SADDLE = EigenSpec.additive([1, -1])


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
            print(f"[{status}] {self.name}  ({elapsed:.2f}s / {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        else:
            print(f"[FAIL] {self.name}")
        return False


def test_criterion_1_two_dim_reproduction(tmp_path):
    with _Budget("criterion 1: 2D reproduction at N=8", 5.0):
        system, phi, g = two_dim_fixture(N=8)
        result = normalize(system, 8)
        assert result.phi == phi
        assert result.g == g
        assert verify_conjugacy(system, result).is_zero()
        report = classify(system, 10, 8)
        assert report.verdict == "integrable-consistent"
        assert report.lattice.rank == 1
        assert all(r.is_zero() for r in report.functional_residuals)
        # same through the command-line front end
        out = tmp_path / "c1.json"
        assert cli_main([
            "classify", "--input", str(FIXTURES / "ex2_2d.json"),
            "--output", str(out),
        ]) == 0
        doc = json.loads(out.read_text())["classification"]
        assert doc["verdict"] == "integrable-consistent"
        assert doc["lattice"]["rank"] == 1
        assert doc["functional_equation_residuals_zero"] == [True]


def test_criterion_2_three_dim_reproduction():
    with _Budget("criterion 2: 3D lattice and single-function reduction", 10.0):
        spec = EigenSpec.multiplicative_base([-5, 2, 1])
        basis = enumerate_lattice(spec, 8)
        assert basis.rank == 2
        for m in [(1, 2, 1), (1, 1, 3), (1, 0, 5), (2, 5, 0)]:
            assert m in basis.exponents
        # p built from psi = y1 y2^2 y3 with exponents (-5/2, 1, 1/2)
        N = 8
        psi = ScalarSeries.monomial(3, N, (1, 2, 1))
        one = ScalarSeries.one(3, N)
        p = [
            unit_power(psi, F(-5, 2), N) - one,
            psi,
            unit_power(psi, F(1, 2), N) - one,
        ]
        red = reduce_to_single_function(p, basis, N)
        assert red.exponents == (F(-5, 2), F(1), F(1, 2))
        assert red.iota == 1


def test_criterion_3_small_divisor_bounds():
    with _Budget("criterion 3: small-divisor bounds, exhaustive to |m|<=12", 30.0):
        basis = enumerate_lattice(HALF_DOUBLE, 12)
        sigma = small_divisor_bound_map(HALF_DOUBLE, basis)
        assert sigma.value == F(1, 4)
        ver = verify_bound(HALF_DOUBLE, sigma, 12)
        assert ver.passed
        assert ver.min_gap == F(1, 4)
        assert ver.witness == ((2, 0), 0)  # 0-based component: the first
        fbasis = enumerate_lattice(SADDLE, 12)
        kappa = small_divisor_bound_field(SADDLE, fbasis)
        assert kappa.value == 1
        fver = verify_bound(SADDLE, kappa, 12)
        assert fver.passed
        assert fver.min_gap == 1


def test_criterion_4_planar_center_normal_form():
    with _Budget("criterion 4: planar center normal form", 10.0):
        f = VectorSeries([
            ScalarSeries(2, 8, {(2, 1): 1}),
            ScalarSeries(2, 8, {(1, 2): -1}),
        ])
        system = FieldSystem(SADDLE, f, 8)
        result = normalize(system, 8)
        assert result.phi.is_zero()
        assert result.g == f
        factor = extract_common_factor_field(result)
        assert factor.ok
        assert factor.h == ScalarSeries.monomial(2, 7, (1, 1))
        found = search_integrals(system, 4)
        assert [v.terms()[0][0] for v in found] == [(1, 1), (2, 2)]
        assert found[0] == ScalarSeries.monomial(2, 4, (1, 1))
        assert found[1] == ScalarSeries.monomial(2, 4, (2, 2))
        for v in found:
            assert verify_integral(v, system, 4).is_zero()


def test_criterion_5_round_trip_property_suite():
    with _Budget("criterion 5: 200 randomized round trips (n in {2,3})", 60.0):
        rng = random.Random(51_2024)
        for case in range(200):
            n = 2 if case % 2 == 0 else 3
            system, phi, g = random_integrable_case(rng, n, N=6)
            result = normalize(system, 6)
            assert result.phi == phi, f"case {case}: transformation differs"
            assert result.g == g, f"case {case}: normal form differs"
            assert result.residual_zero_degrees == tuple(range(2, 7))
            for j, comp in enumerate(result.phi.components):
                for m in comp.coeffs:
                    assert not oracle_resonant(system.spec, m, j)
            for j, comp in enumerate(result.g.components):
                for m in comp.coeffs:
                    assert oracle_resonant(system.spec, m, j)


def test_criterion_6_embedding_suite(tmp_path):
    with _Budget("criterion 6: embedding identities and time-one gap", 30.0):
        # linear half/double map: X = (y1, -y2) exactly
        lin = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 12), 12)
        V_lin = [ScalarSeries.monomial(2, 12, (1, 1))]
        emb_lin = embedding_field(lin, V_lin, 8)
        assert emb_lin.field == VectorSeries([
            ScalarSeries(2, 8, {(1, 0): 1}), ScalarSeries(2, 8, {(0, 1): -1}),
        ])
        assert emb_lin.tangent and emb_lin.equivariant
        phi_one = time_one_map(emb_lin.field, 12, 8)
        assert phi_one != lin.full(8).truncate(8)
        # the 2D integrable fixture, certified through degree 8
        system, phi, _ = two_dim_fixture(N=10)
        pulled = pullback_integrals(
            monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=10), normalization_of(phi, system.spec), 10
        )
        emb = embedding_field(system, pulled, 8)
        assert emb.tangent
        assert emb.equivariant
        # report flags the time-one discrepancy
        out = tmp_path / "c6.json"
        assert cli_main([
            "embed", "--input", str(FIXTURES / "halfdouble.json"),
            "--output", str(out),
        ]) == 0
        doc = json.loads(out.read_text())["embedding"]
        assert doc["equivariance_zero"] is True
        assert doc["time_one_matches_map"] is False
        assert any("time-one" in flag for flag in doc["flags"])
        # 3D fixture: tangency stays exact; the intertwining identity only
        # survives when det(DF) is identically one, which this spectrum
        # (product of multipliers 1/4) cannot provide, and that is flagged
        sys3, phi3, _, _ = three_dim_fixture(
            N=9, phi_terms={0: {(0, 1, 1): F(1)}}
        )
        basis3 = enumerate_lattice(EigenSpec.multiplicative([F(1, 32), 4, 2]), 8)
        pulled3 = pullback_integrals(monomial_integrals(basis3, trunc=9), normalization_of(phi3, sys3.spec), 9)
        emb3 = embedding_field(sys3, pulled3, 7)
        assert emb3.tangent
        assert (not emb3.equivariant) and any("cocycle" in f for f in emb3.flags)


def test_criterion_7_negative_controls():
    with _Budget("criterion 7: negative controls", 30.0):
        # rank failure
        rep = classify(FieldSystem(EigenSpec.additive([1, 2]), VectorSeries.zero(2, 8), 8), 10, 8)
        assert rep.verdict == "not-integrable"
        assert rep.lattice.rank == 0
        # shape violation with a named witness (direct)
        mu = EigenSpec.multiplicative([8, 2])
        f = VectorSeries([ScalarSeries(2, 4, {(0, 3): 1}), ScalarSeries.zero(2, 4)])
        shape = extract_integrable_shape_map(normalize(MapSystem(mu, f, 4)))
        assert not shape.ok
        assert shape.witness == (0, (0, 3))
        # shape violation through the full pipeline (rank n-1 spectrum)
        mu3 = EigenSpec.multiplicative([F(1, 32), 4, 2])
        f3 = VectorSeries([
            ScalarSeries.zero(3, 4),
            ScalarSeries(3, 4, {(0, 0, 2): 1}),
            ScalarSeries.zero(3, 4),
        ])
        rep3 = classify(MapSystem(mu3, f3, 4), 8, 4)
        assert rep3.verdict == "not-integrable"
        assert "not divisible" in rep3.witness
        # nonresonant spectra: searches come back empty through degree 8
        empty_map = search_integrals(
            MapSystem(EigenSpec.multiplicative([2, 3]), VectorSeries.zero(2, 8), 8), 8
        )
        assert len(empty_map) == 0
        empty_field = search_integrals(
            FieldSystem(EigenSpec.additive([1, 2]), VectorSeries.zero(2, 8), 8), 8
        )
        assert len(empty_field) == 0


def test_criterion_8_algebra_property_suite():
    with _Budget("criterion 8: 500 randomized algebra properties", 30.0):
        rng = random.Random(82_2024)
        cases = 0
        # ring axioms on truncated series (150 cases)
        for _ in range(150):
            n = rng.choice([1, 2, 3])
            t = rng.randint(3, 5)
            a = random_sparse_series(rng, n, t, gaussian=True)
            b = random_sparse_series(rng, n, t, gaussian=True)
            c = random_sparse_series(rng, n, t, gaussian=True)
            assert a + b == b + a
            assert a.mul(b, t) == b.mul(a, t)
            assert a.mul(b, t).mul(c, t) == a.mul(b.mul(c, t), t)
            assert a.mul(b + c, t) == a.mul(b, t) + a.mul(c, t)
            assert (a + b) + c == a + (b + c)
            cases += 1
        # composition associativity (100 cases)
        for _ in range(100):
            n = rng.choice([2, 3])
            t = rng.randint(3, 5)
            Fv = random_tangent_identity(rng, n, t)
            G = random_tangent_identity(rng, n, t)
            H = random_tangent_identity(rng, n, t)
            assert compose(compose(Fv, G, t), H, t) == compose(Fv, compose(G, H, t), t)
            cases += 1
        # inversion is two-sided (100 cases)
        for _ in range(100):
            n = rng.choice([2, 3])
            t = rng.randint(3, 6)
            phi = random_tangent_identity(rng, n, t)
            psi = invert(phi, t)
            ident = VectorSeries.identity(n, t)
            assert compose(phi, psi, t) == ident
            assert compose(psi, phi, t) == ident
            cases += 1
        # cross-product orthogonality (75 cases)
        for _ in range(75):
            n = rng.choice([2, 3, 4])
            t = 4
            vs = [
                VectorSeries([random_sparse_series(rng, n, t, max_terms=3) for _ in range(n)])
                for _ in range(n - 1)
            ]
            x = cross(vs, t)
            for v in vs:
                assert scalar_inner(x, v, t).is_zero()
            cases += 1
        # unit powers satisfy the exponent addition law (75 cases)
        for _ in range(75):
            n = rng.choice([1, 2])
            t = rng.randint(3, 5)
            u = random_sparse_series(rng, n, t, max_terms=3)
            u = u - ScalarSeries.const(n, t, u.constant_term())
            r1 = F(rng.randint(-5, 5), rng.randint(1, 4))
            r2 = F(rng.randint(-5, 5), rng.randint(1, 4))
            lhs = unit_power(u, r1 + r2, t)
            rhs = unit_power(u, r1, t).mul(unit_power(u, r2, t), t)
            assert lhs == rhs
            cases += 1
        assert cases == 500
