import random
import sys
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest

from helpers import (
    normalization_of,
    oracle_independence,
    oracle_independence_check,
    oracle_inner,
    oracle_power,
    oracle_pullback_integrals,
    oracle_rank,
    oracle_resonant,
    oracle_search_integrals,
    oracle_search_integrals_field,
    oracle_search_integrals_map,
    oracle_verify_integral_field,
    oracle_verify_integral_map,
    random_integrable_case,
    random_sparse_series,
    three_dim_fixture,
    two_dim_fixture,
)

from dulac.errors import HypothesisError
from dulac.integrals import (
    independence_check,
    monomial_integrals,
    normal_form_residual,
    pullback_integrals,
    search_integrals,
    verify_integral,
)
from dulac.normalizer import FieldSystem, MapSystem, normalize
from dulac.resonance import EigenSpec, enumerate_lattice, iter_exponents
from dulac.scalars import gaussian
from dulac.series import ScalarSeries, SeriesError, VectorSeries

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

HALF_DOUBLE = EigenSpec.multiplicative([F(1, 2), 2])
SADDLE = EigenSpec.additive([1, -1])


def S(n, trunc, terms):
    return ScalarSeries(n, trunc, terms)


def _in_span(V, basis):
    """Exact membership of V in the linear span of the basis series."""
    monomials = sorted(
        {m for s in list(basis) + [V] for m in s.coeffs}, key=lambda m: (sum(m), m)
    )
    rows = [[s.coeff(m) for m in monomials] for s in basis]
    return oracle_rank(rows) == oracle_rank(rows + [[V.coeff(m) for m in monomials]])


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
        assert verify_integral(ScalarSeries.monomial(2, 10, (1, 1)), Fm).is_zero()

    def test_linear_map_witness(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 6), 6)
        r = verify_integral(ScalarSeries.variable(2, 0, 6), Fm)
        assert r.coeff((1, 0)) == F(-1, 2)

    @pytest.mark.parametrize("kind,spec", [(MapSystem, HALF_DOUBLE), (FieldSystem, SADDLE)], ids=["map", "field"])
    def test_order_above_the_system_refused(self, kind, spec):
        """The system's data is certified only through its order: V o F (or
        <grad V, X>) above it would treat the truncated system as exact."""
        system = kind(spec, VectorSeries.zero(2, 6), 6)
        with pytest.raises(HypothesisError, match="certified to degree 6; cannot verify to 8"):
            verify_integral(ScalarSeries.monomial(2, 10, (1, 1)), system, 8)

    def test_formal_base_certification(self):
        spec = EigenSpec.multiplicative_base([-5, 2])
        Fm = MapSystem(spec, VectorSeries.zero(2, 8), 8)
        assert verify_integral(ScalarSeries.monomial(2, 8, (2, 5)), Fm).is_zero()
        with pytest.raises(HypothesisError):
            verify_integral(ScalarSeries.monomial(2, 8, (1, 1)), Fm)

    def test_nilpotent_polynomial_first_integral(self):
        # x' = y^(p+1), y' = -x^(q+1) with p = q = 0: H = x^2/2 + y^2/2
        X = VectorSeries([S(2, 6, {(0, 1): 1}), S(2, 6, {(1, 0): -1})])
        H = S(2, 6, {(2, 0): F(1, 2), (0, 2): F(1, 2)})
        from helpers import oracle_gradient, scalar_inner

        assert scalar_inner(oracle_gradient(H), X).is_zero()

    def test_center_field(self):
        f = VectorSeries([S(2, 6, {(2, 1): 1}), S(2, 6, {(1, 2): -1})])
        X = FieldSystem(SADDLE, f, 6)
        assert verify_integral(ScalarSeries.monomial(2, 6, (1, 1)), X).is_zero()
        assert not verify_integral(ScalarSeries.variable(2, 0, 6), X).is_zero()


class TestPullback:
    def test_identity_transformation(self):
        H = monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8))
        pulled = pullback_integrals(H, normalization_of(VectorSeries.zero(2, 8)), 8)
        assert pulled[0] == H[0].truncate(8)

    def test_shift_pullback_closed_form(self):
        phi = VectorSeries([S(2, 8, {(0, 2): 1}), ScalarSeries.zero(2, 8)])
        pulled = pullback_integrals([ScalarSeries.monomial(2, 8, (1, 1))], normalization_of(phi), 8)
        assert pulled[0] == S(2, 8, {(1, 1): 1, (0, 3): -1})

    def test_pullbacks_are_integrals_of_the_fixture(self):
        system, phi, _ = two_dim_fixture(N=8)
        H = monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=8)
        pulled = pullback_integrals(H, normalization_of(phi, system.spec), 8)
        for V in pulled:
            assert verify_integral(V, system, 8).is_zero()

    def test_three_dim_pullbacks(self):
        system, phi, _, _ = three_dim_fixture(N=8)
        basis = enumerate_lattice(EigenSpec.multiplicative([F(1, 32), 4, 2]), 8)
        pulled = pullback_integrals(monomial_integrals(basis, trunc=8), normalization_of(phi, system.spec), 8)
        for V in pulled:
            assert verify_integral(V, system, 8).is_zero()


def _random_integrals(rng, n, N, gauss):
    """A few integrals around monomials y^g with |g| < N, each with terms of
    degrees below and above |g| (a constant among them), some of them
    truncated below N."""
    out = []
    for _ in range(rng.randint(1, 3)):
        g = rng.choice([m for m in iter_exponents(n, 1, N - 1) if max(m) <= 2])
        below = ScalarSeries(n, N, {(0,) * n: 3, tuple(int(i == 0) for i in range(n)): F(-1, 2)})
        above = ScalarSeries.monomial(n, N, (g[0] + 1,) + g[1:], gaussian(1, 2) if gauss else F(5, 3))
        v = ScalarSeries.monomial(n, N, g) + below + above + random_sparse_series(rng, n, N, 6, gauss)
        out.append(v.truncate(rng.choice([N, N, N - 1])))
    return out


class TestPullbackMatchesTheInverse:
    """Pulled back over the normalization's own table of Phi = y + phi, an
    integral equals its composition with psi = Phi^-1, which
    `oracle_pullback_integrals` builds by the online loop that `invert`
    ran before `Powers.pull` (`helpers.online_invert`)."""

    @pytest.mark.parametrize("gauss", [False, True], ids=["rational", "gaussian"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_phi(self, n, gauss):
        rng = random.Random(f"pullback/{n}/{gauss}")
        N = (9, 7, 5, 4)[n - 1]
        for trial in range(8):
            phi = VectorSeries([random_sparse_series(rng, n, N, 5, gauss) for _ in range(n)]).strip_low(2)
            if trial == 0:
                phi = VectorSeries.zero(n, N)
            vs = _random_integrals(rng, n, N, gauss)
            order = None if trial % 2 else rng.randint(1, min(v.trunc for v in vs))
            got = pullback_integrals(vs, normalization_of(phi), order)
            assert got == oracle_pullback_integrals(vs, phi, order)
            assert all(w.trunc == (order or min(v.trunc for v in vs)) for w in got)

    @pytest.mark.parametrize("n", [2, 3])
    def test_solved_normalizations(self, n):
        """Through the table the degree loop filled (and its self-check
        read), on planted integrable maps and a dense Gaussian map."""
        rng = random.Random(f"pullback/solved/{n}")
        i = gaussian(0, 1)
        dense = MapSystem(
            EigenSpec.multiplicative([F(1, 2) * i, 2 * i, F(1, 3)][:n]),
            VectorSeries([random_sparse_series(rng, n, 5, 6, True) for _ in range(n)]).strip_low(2), 5,
        )
        for system in [random_integrable_case(rng, n)[0] for _ in range(3)] + [dense]:
            result = normalize(system)
            for order in (None, system.order - 2):
                for gauss in (False, True):
                    vs = [v.with_trunc(system.order) for v in _random_integrals(rng, n, system.order, gauss)]
                    assert pullback_integrals(vs, result, order) == oracle_pullback_integrals(vs, result.phi, order)

    def test_order_and_dimension_are_checked(self):
        phi = VectorSeries.zero(2, 4)
        with pytest.raises(SeriesError, match="through degree 4; cannot pull back to 5"):
            pullback_integrals([ScalarSeries.monomial(2, 6, (1, 1))], normalization_of(phi), 5)
        with pytest.raises(SeriesError, match="cannot truncate to degree 4"):
            pullback_integrals([ScalarSeries.monomial(2, 3, (1, 1))], normalization_of(phi), 4)
        with pytest.raises(SeriesError, match="dimension mismatch"):
            pullback_integrals([ScalarSeries.monomial(3, 4, (1, 1, 0))], normalization_of(phi))


class TestSearchMap:
    def test_linear_half_double(self):
        Fm = MapSystem(HALF_DOUBLE, VectorSeries.zero(2, 2), 2)
        got = search_integrals(Fm, 2)
        assert len(got) == 1
        assert got[0] == ScalarSeries.monomial(2, 2, (1, 1))

    def test_no_resonances_empty(self):
        Fm = MapSystem(EigenSpec.multiplicative([2, 3]), VectorSeries.zero(2, 6), 6)
        assert len(search_integrals(Fm, 6)) == 0

    def test_fixture_search_is_the_pullback_line(self):
        system, phi, _ = two_dim_fixture(N=8)
        got = search_integrals(system, 4)
        assert len(got) == 1
        pulled = pullback_integrals(
            monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=4), normalization_of(phi, system.spec), 4
        )
        V, W = got[0], pulled[0]
        lead = V.terms()[0]
        factor = W.coeff(lead[0]) / lead[1]
        assert V.scale(factor) == W

    def test_search_at_full_order_contains_pullbacks(self):
        system, phi, _ = two_dim_fixture(N=8)
        got = search_integrals(system, 8)
        pulled = pullback_integrals(
            monomial_integrals(enumerate_lattice(HALF_DOUBLE, 8), trunc=8), normalization_of(phi, system.spec), 8
        )
        assert _in_span(pulled[0], got)

    def test_search_results_verify(self):
        system, _, _ = two_dim_fixture(N=8)
        for V in search_integrals(system, 6):
            assert verify_integral(V, system, 6).is_zero()

    def test_map_resonance_structure(self):
        system, _, _ = two_dim_fixture(N=8)
        basis_spec = HALF_DOUBLE
        # searched integrals of the normal form consist of resonant monomials
        res = normalize(system)
        Gsys = MapSystem(HALF_DOUBLE, res.g, 8)
        for W in search_integrals(Gsys, 6):
            for m, _ in W.terms():
                assert oracle_resonant(basis_spec, m)


class TestSearchField:
    def test_linear_saddle(self):
        X = FieldSystem(SADDLE, VectorSeries.zero(2, 4), 4)
        got = search_integrals(X, 4)
        assert [v.terms()[0][0] for v in got] == [(1, 1), (2, 2)]

    def test_center_same_integrals(self):
        f = VectorSeries([S(2, 4, {(2, 1): 1}), S(2, 4, {(1, 2): -1})])
        X = FieldSystem(SADDLE, f, 4)
        got = search_integrals(X, 4)
        assert [v.terms()[0][0] for v in got] == [(1, 1), (2, 2)]
        for V in got:
            assert verify_integral(V, X, 4).is_zero()

    def test_poincare_domain_empty(self):
        X = FieldSystem(EigenSpec.additive([1, 2]), VectorSeries.zero(2, 6), 6)
        assert len(search_integrals(X, 6)) == 0

    def test_degenerate_eigenvalue_linear_integral(self):
        X = FieldSystem(EigenSpec.additive([1, 0]), VectorSeries.zero(2, 4), 4)
        got = search_integrals(X, 4)
        assert got[0] == ScalarSeries.variable(2, 1, 4)

    def test_count_never_exceeds_rank(self):
        rng = random.Random(6)
        for _ in range(8):
            lam = EigenSpec.additive([rng.randint(-3, 3), rng.randint(-3, 3)])
            if all(v == 0 for v in lam.values):
                continue
            X = FieldSystem(lam, VectorSeries.zero(2, 5), 5)
            basis = enumerate_lattice(lam, 5)
            found = search_integrals(X, 5)
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


# -- the packed searches, residual and independence check against their oracles


def _nonlinear(rng, n, N, gauss):
    """A dense-ish nonlinear part: a few random terms of degree 2..N per component."""
    comps = []
    for _ in range(n):
        s = random_sparse_series(rng, n, N, 6, gauss)
        comps.append(ScalarSeries(n, N, {m: c for m, c in s.coeffs.items() if sum(m) >= 2}))
    return VectorSeries(comps)


def _resonant_exponents(rng, n):
    """Integer exponents of both signs, so that the spectrum has resonances."""
    a = [rng.randint(1, 2), -rng.randint(1, 2)] + [rng.randint(-2, 2) for _ in range(n - 2)]
    rng.shuffle(a)
    return a


def _dense_map(rng, n, N, gauss):
    base = gaussian(1, 1) if gauss else F(rng.choice([2, 3]))
    mu = EigenSpec.multiplicative([base**e for e in _resonant_exponents(rng, n)])
    return MapSystem(mu, _nonlinear(rng, n, N, gauss), N)


def _dense_field(rng, n, N, gauss):
    lam = [F(e) for e in _resonant_exponents(rng, n)]
    if gauss:
        lam = [gaussian(e, e) for e in lam]
    return FieldSystem(EigenSpec.additive(lam), _nonlinear(rng, n, N, gauss), N)


def _maps(seed):
    rng = random.Random(seed)
    out = [two_dim_fixture(N=7)[0], three_dim_fixture(N=6)[0]]
    out += [random_integrable_case(rng, n, N)[0] for n, N in ((2, 7), (3, 5))]
    out += [_dense_map(rng, n, N, g) for n, N in ((2, 6), (3, 5), (4, 4)) for g in (False, True)]
    return out


def _fields(seed):
    rng = random.Random(seed)
    out = [FieldSystem(EigenSpec.additive([1, -1, 2]), VectorSeries.zero(3, 5), 5)]
    out += [_dense_field(rng, n, N, g) for n, N in ((2, 6), (3, 5), (4, 4)) for g in (False, True)]
    return out


def _same(got, want):
    assert got == want
    assert [v.trunc for v in got] == [v.trunc for v in want]


# per kind: the systems of a seed, the oracle search and the oracle residual
KINDS = {
    "map": (_maps, oracle_search_integrals_map, oracle_verify_integral_map),
    "field": (_fields, oracle_search_integrals_field, oracle_verify_integral_field),
}


class TestPackedSearch:
    @pytest.mark.parametrize("kind", ["map", "field"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_equals_oracle(self, kind, seed):
        systems, oracle, _ = KINDS[kind]
        for system in systems(seed):
            for degree in (system.order - 2, system.order):
                _same(search_integrals(system, degree), oracle(system, degree))

    def test_zero_nonlinearity_resonant_field(self):
        X = FieldSystem(EigenSpec.additive([1, -1, 2]), VectorSeries.zero(3, 5), 5)
        got = search_integrals(X, 5)
        assert got == oracle_search_integrals_field(X, 5)
        assert got and all(len(v.coeffs) == 1 for v in got)

    def test_formal_base_map_path(self):
        Fm = MapSystem(EigenSpec.multiplicative_base([-5, 2]), VectorSeries.zero(2, 8), 8)
        for degree in (7, 8):
            got = search_integrals(Fm, degree)
            assert got == oracle_search_integrals_map(Fm, degree)
            assert ScalarSeries.monomial(2, degree, (2, 5)) in got


# -- the search in normal-form coordinates against the dense search -------------


def _catalogue_systems():
    """The system of each `integrals` catalogue entry, as `dulac integrals`
    reads it."""
    from dulac.cli import _system_from_doc

    return [_system_from_doc(op.system, op.key).system() for op in workloads.catalogue("integrals")]


def _exact_fixture_files():
    from dulac.cli import parse_system

    sfs = [parse_system(str(path)) for path in sorted(FIXTURES.glob("*.json"))]
    return [sf for sf in sfs if sf.eigen.has_exact_values()]


def _exact_fixtures():
    return [sf.system() for sf in _exact_fixture_files()]


def _one_dim(rng, kind, N, gauss):
    """n = 1 with a resonant spectrum: mu = -1 (or i), lambda = 0."""
    if kind is FieldSystem:
        spec = EigenSpec.additive([0])
    else:
        spec = EigenSpec.multiplicative([gaussian(0, 1) if gauss else -1])
    return kind(spec, _nonlinear(rng, 1, N, gauss), N)


def _seeded_systems(seed):
    """Planted maps and resonant fields, n = 1..4, over Q and Q(i)."""
    from dulac.cli import _system_from_doc

    rng = random.Random(seed)
    out = []
    for gauss in (False, True):
        out += [_one_dim(rng, kind, 7, gauss) for kind in (MapSystem, FieldSystem)]
        for n, N in ((2, 7), (3, 5), (4, 4)):
            doc, _ = workloads.planted_map(n, N, gauss)(rng)
            out += [_system_from_doc(doc, "planted").system(), _dense_field(rng, n, N, gauss)]
    return out


def _edge_systems():
    """A unit multiplier, mu = -1 at n = 1, (i, -i), zero field eigenvalues
    and mu = 2 at n = 1 (no lattice monomial at all)."""
    rng = random.Random(29)
    i = gaussian(0, 1)
    maps = [([1, 2], False), ([1], False), ([-1], False), ([i, -i], True), ([2], False)]
    fields = [([0, 0], False), ([1, 0], False), ([0, i], True)]
    out = [MapSystem(EigenSpec.multiplicative(mu), _nonlinear(rng, len(mu), 6, g), 6) for mu, g in maps]
    out += [FieldSystem(EigenSpec.additive(lam), _nonlinear(rng, len(lam), 6, g), 6) for lam, g in fields]
    return out


def _lattice_class(system, order):
    """The monomials y^m with 1 <= |m| <= order and value(m) = value(0)."""
    spec = system.spec
    return [m for m in iter_exponents(system.n, 1, 1) if spec.resonant(m)] + spec.resonant_class(order)


class TestSearchInNormalForm:
    """The search over the lattice monomials of the normal form equals the
    dense search over every monomial of F through the degree
    (`helpers.oracle_search_integrals`), byte for byte."""

    @staticmethod
    def _every_degree(system):
        for degree in range(1, system.order + 1):
            _same(search_integrals(system, degree), oracle_search_integrals(system, degree))

    def test_integrals_catalogue(self):
        systems = _catalogue_systems()
        assert len(systems) == 104
        for system in systems:
            _same(search_integrals(system, system.order), oracle_search_integrals(system, system.order))

    def test_exact_fixtures_at_every_degree(self):
        systems = _exact_fixtures()
        assert len(systems) == 5
        for system in systems:
            self._every_degree(system)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_planted_maps_and_resonant_fields(self, seed):
        for system in _seeded_systems(seed):
            self._every_degree(system)

    def test_edge_spectra(self):
        for system in _edge_systems():
            self._every_degree(system)

    def test_order_one(self):
        """Through degree 1 a system is its linear part, with no normal form
        to solve for: the resonant degree-1 monomials are the integrals."""
        for system in (MapSystem(EigenSpec.multiplicative([1, 2]), VectorSeries.zero(2, 1), 1),
                       FieldSystem(EigenSpec.additive([0, 1, 0]), VectorSeries.zero(3, 1), 1)):
            got = search_integrals(system, 1)
            _same(got, oracle_search_integrals(system, 1))
            assert got and all(len(v.coeffs) == 1 for v in got)

    def test_formal_base_and_order_checks(self):
        Fm = MapSystem(EigenSpec.multiplicative_base([-5, 2]), VectorSeries.zero(2, 8), 8)
        _same(search_integrals(Fm, 8), oracle_search_integrals(Fm, 8))
        with pytest.raises(HypothesisError, match="certified to degree 8; cannot search to 9"):
            search_integrals(Fm, 9)


class TestNormalFormKeepsValueClasses:
    """The premise of the search: on a normal form, V -> V o G - V (or <grad
    V, G>) keeps each monomial outside the lattice class in its own value
    class, with mu^m - 1 (or <m, lambda>), nonzero, on its own term."""

    def test_integrals_catalogue(self):
        for system in _catalogue_systems():
            N, spec = system.order, system.spec
            is_field = isinstance(system, FieldSystem)
            value, value0 = (oracle_inner, 0) if is_field else (oracle_power, 1)
            normal = type(system)(spec, normalize(system).g, N)
            lattice = set(_lattice_class(system, N))
            for m in iter_exponents(system.n, 1, N):
                if m in lattice:
                    continue
                image = verify_integral(ScalarSeries.monomial(system.n, N, m), normal)
                assert {value(spec, r) for r in image.exponents()} == {value(spec, m)}
                assert image.coeff(m) == value(spec, m) - value0 != 0


class TestSearchWork:
    """What the search builds and reads."""

    def test_one_column_per_lattice_monomial(self, monkeypatch):
        import dulac.integrals

        counted = []

        def counting(columns):
            columns = list(columns)
            counted.append(len(columns))
            return dulac.linalg.kernel_basis(columns)

        monkeypatch.setattr(dulac.integrals, "kernel_basis", counting)
        for system in _exact_fixtures() + _catalogue_systems()[::8] + _edge_systems():
            counted.clear()
            search_integrals(system, system.order)
            lattice = _lattice_class(system, system.order)
            assert counted == ([len(lattice)] if lattice else [])

    def test_reads_no_table_of_the_system(self, monkeypatch):
        from dulac.normalizer import System

        def refused(self):
            raise AssertionError("the search read System.powers")

        systems = _exact_fixtures() + _catalogue_systems()[::8]
        for system in systems:
            system.normalized
        monkeypatch.setattr(System, "powers", property(refused))
        for system in systems:
            assert search_integrals(system, system.order)

    def test_one_normalization_keeps_the_table_of_the_normal_form(self, monkeypatch):
        """`System.normalized` is solved once and keeps the degree loop's
        table of G, so the search builds no table; `normalize`'s own result
        keeps none."""
        import dulac.normalizer
        from dulac.series import Powers

        def refused(*args):
            raise AssertionError("the search built a power table")

        calls = []
        solve = dulac.normalizer._solve
        monkeypatch.setattr(dulac.normalizer, "_solve", lambda *args: calls.append(args) or solve(*args))
        monkeypatch.setattr(Powers, "of", refused)
        for system in _exact_fixtures():
            calls.clear()
            search_integrals(system, system.order)
            search_integrals(system, 2)
            assert len(calls) == 1
            assert "normal_form_powers" not in normalize(system).__dict__

    def test_empty_class_makes_no_normalize_call(self, monkeypatch):
        import dulac.normalizer

        def refused(*args):
            raise AssertionError("the search normalized a system with no lattice monomial")

        monkeypatch.setattr(dulac.normalizer, "_normalize", refused)
        for spec in (EigenSpec.multiplicative([2]), EigenSpec.multiplicative([2, 3]), EigenSpec.additive([1, 2])):
            kind = FieldSystem if spec.kind == "additive" else MapSystem
            system = kind(spec, _nonlinear(random.Random(3), spec.n, 6, False), 6)
            assert search_integrals(system, 6) == ()

    def test_integrals_run_solves_the_degree_loop_at_most_once(self, monkeypatch):
        """The search, the pullback and the `residual_zero` flags of a
        `dulac integrals` run share one normalization."""
        import dulac.normalizer
        from dulac.cli import _run_integrals, _system_from_doc

        calls = []
        solve = dulac.normalizer._solve
        monkeypatch.setattr(dulac.normalizer, "_solve", lambda *args: calls.append(args) or solve(*args))
        sfs = _exact_fixture_files() + [_system_from_doc(op.system, op.key) for op in workloads.catalogue("integrals")]
        for sf in sfs:
            calls.clear()
            _run_integrals(sf, sf.lattice_bound, sf.order, 0)
            assert len(calls) <= 1

    def test_empty_class_and_no_pullback_run_makes_no_normalize_call(self, monkeypatch):
        """An `integrals` run whose sections are both empty, with no lattice
        monomial and no lattice generator, checks no residual and so
        normalizes nothing."""
        import dulac.normalizer
        from dulac.cli import SystemFile, _run_integrals

        def refused(*args):
            raise AssertionError("the integrals run normalized a system with no lattice monomial")

        monkeypatch.setattr(dulac.normalizer, "_normalize", refused)
        for spec in (EigenSpec.multiplicative([2]), EigenSpec.multiplicative([2, 3]), EigenSpec.additive([1, 2])):
            kind = "field" if spec.kind == "additive" else "map"
            sf = SystemFile(kind, spec.n, "rational", spec, _nonlinear(random.Random(3), spec.n, 6, False), 6, 6)
            assert _run_integrals(sf, 6, 6, 0) == {"integrals": {"search": {"integrals": [], "residual_zero": []}}}


def _candidates(rng, system):
    """Random series to verify: three over the system's own scalars for a
    map, one rational and one Gaussian for a field."""
    if isinstance(system, FieldSystem):
        return [random_sparse_series(rng, system.n, system.order, 6, gauss) for gauss in (False, True)]
    gauss = any(hasattr(c, "abs2") for comp in system.nonlinear for c in comp.coeffs.values())
    return [random_sparse_series(rng, system.n, system.order, 6, gauss) for _ in range(3)]


class TestPackedResidual:
    @pytest.mark.parametrize("kind", ["map", "field"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_equals_oracle(self, kind, seed):
        systems, _, oracle = KINDS[kind]
        rng = random.Random(seed)
        for system in systems(seed):
            candidates = _candidates(rng, system) + list(search_integrals(system, system.order))
            for V in candidates:
                for order in (system.order - 1, system.order):
                    got = verify_integral(V, system, order)
                    assert got == oracle(V, system, order)
                    assert got.trunc == order

    @pytest.mark.parametrize("kind", ["map", "field"])
    def test_search_results_have_zero_residual(self, kind):
        systems, _, _ = KINDS[kind]
        for system in systems(3):
            for V in search_integrals(system, system.order):
                assert verify_integral(V, system).is_zero()


# -- the residual carried to the normal form against the residual over F ----------


def _reported(sf, D, N):
    """The system `dulac integrals --degree D --order N` reads, and the
    integrals of its report: the search's, and the pullbacks when the
    lattice at D has generators, all of degree at most N (the run exits 3
    otherwise)."""
    system = sf.system()
    vs = list(search_integrals(system, N))
    basis = enumerate_lattice(sf.eigen, D)
    if basis.generators and max(map(sum, basis.generators)) <= N:
        vs += pullback_integrals(monomial_integrals(basis, trunc=N), system.normalized, N)
    return system, vs


def _same_lowest_part(W, system, order):
    """Whether W's residual through the order is zero, after checking that
    both routes agree on it: both zero, or nonzero with the same lowest
    degree and the same part there."""
    want = verify_integral(W, system, order)
    got = normal_form_residual(W, system.normalized, order)
    assert got.trunc == want.trunc == order
    if want.is_zero():
        assert got.is_zero()
        return True
    d = want.low_degree()
    assert got.low_degree() == d and got.homogeneous_part(d) == want.homogeneous_part(d)
    return False


class TestResidualInNormalForm:
    """`normal_form_residual`, the `integrals` run's check, against
    `verify_integral`, verify's: W o F - W is zero exactly when (W o F - W) o
    Phi is, and Phi, tangent to the identity, keeps its lowest part."""

    @pytest.mark.parametrize("below, reported, nonzero", [(0, 470, 43), (1, 219, 24)])
    def test_integrals_catalogue(self, below, reported, nonzero):
        """Every integral of the 104 entries' reports at order_N and one
        order below; the non-integrable ones' pullbacks have a nonzero
        residual."""
        from dulac.cli import _system_from_doc

        zero = []
        for op in workloads.catalogue("integrals"):
            sf = _system_from_doc(op.system, op.key)
            N = sf.order - below
            system, vs = _reported(sf, sf.lattice_bound, N)
            zero += [_same_lowest_part(W, system, N) for W in vs]
        assert len(zero) == reported and zero.count(False) == nonzero

    def test_report_below_the_order_verifies(self, tmp_path):
        """A report of `dulac integrals --order order_N - 1` with a nonzero
        residual flag passes `verify`, which re-derives every flag over the
        system's own table."""
        import json

        from dulac.cli import main

        op = next(op for op in workloads.catalogue("integrals") if op.key == "integrals/field2-rat-N6/1/integrals")
        system_path, rep = tmp_path / "system.json", tmp_path / "rep.json"
        system_path.write_text(json.dumps(op.system))
        order = op.system["order_N"] - 1
        assert main(["integrals", "--input", str(system_path), "--order", str(order), "--output", str(rep)]) == 0
        flags = [x for sec in json.loads(rep.read_text())["integrals"].values() for x in sec["residual_zero"]]
        assert False in flags
        assert main(["verify", "--input", str(rep)]) == 0

    def test_exact_fixtures_at_every_order(self):
        sfs = _exact_fixture_files()
        assert len(sfs) == 5
        for sf in sfs:
            for N in range(2, sf.order + 1):
                system, vs = _reported(sf, sf.lattice_bound, N)
                assert all(_same_lowest_part(W, system, N) for W in vs)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_planted_maps_and_resonant_fields(self, seed):
        """The search's integrals and the lattice monomials' pullbacks, and
        random series, which are mostly no integrals, at both routes."""
        rng = random.Random(seed)
        for system in _seeded_systems(seed):
            N = system.order
            gens = [g for g in enumerate_lattice(system.spec, N).generators if sum(g) <= N]
            vs = list(search_integrals(system, N))
            vs += pullback_integrals([ScalarSeries.monomial(system.n, N, g) for g in gens], system.normalized, N)
            vs += _candidates(rng, system)
            for W in vs:
                for order in (N - 1, N):
                    _same_lowest_part(W, system, order)

    @pytest.mark.parametrize("fixture", ["ex2_3d.json", "center.json"])
    def test_one_changed_coefficient_shows_at_both_routes(self, fixture):
        """Adding 1 to the coefficient of y^m in a pulled-back integral, or
        in a search integral, m the highest exponent through the order
        outside the lattice class, makes both residuals nonzero from degree
        |m| on, with the same part there."""
        from dulac.cli import parse_system

        sf = parse_system(str(FIXTURES / fixture))
        system, N = sf.system(), sf.order
        m = next(m for m in reversed(list(iter_exponents(sf.n, 1, N))) if not sf.eigen.resonant(m))
        basis = enumerate_lattice(sf.eigen, sf.lattice_bound)
        for vs in (pullback_integrals(monomial_integrals(basis, trunc=N), system.normalized, N),
                   search_integrals(system, N)):
            W = vs[0]
            assert _same_lowest_part(W, system, N)
            changed = W + ScalarSeries.monomial(W.n, W.trunc, m)
            assert changed.coeff(m) == W.coeff(m) + 1
            assert not _same_lowest_part(changed, system, N)
            assert verify_integral(changed, system, N).low_degree() == sum(m)

    def test_order_above_the_normalization(self):
        system = _exact_fixtures()[0]
        W = ScalarSeries.variable(system.n, 0, system.order + 1)
        with pytest.raises(SeriesError, match="cannot verify to"):
            normal_form_residual(W, normalize(system), system.order + 1)


def _integral_sets(sf):
    """Every `search` and `pullback` set `dulac integrals` checks for a
    parsed system file."""
    system, N = sf.system(), sf.order
    sets = [search_integrals(system, N)]
    basis = enumerate_lattice(sf.eigen, sf.lattice_bound)
    sets.append(pullback_integrals(monomial_integrals(basis, trunc=N), normalize(system, N), N))
    return [vs for vs in sets if vs]


def _rank_computations(monkeypatch):
    """The echelons independence_check builds, one per sample point, kept
    in order so their ranks can be read after the check."""
    import dulac.integrals

    made = []

    class Counted(dulac.integrals.Echelon):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(dulac.integrals, "Echelon", Counted)
    return made


class TestPackedIndependence:
    def _check(self, vs, seeds=(0, 1, 5)):
        for seed in seeds:
            assert independence_check(vs, seed=seed) == oracle_independence_check(vs, seed=seed)

    def test_fewer_integrals_than_variables(self):
        rng = random.Random(11)
        for gauss in (False, True):
            for n in (2, 3, 4):
                vs = [random_sparse_series(rng, n, rng.randint(3, 6), 5, gauss) for _ in range(n - 1)]
                self._check([v for v in vs if not v.is_zero()] or [ScalarSeries.variable(n, 0, 3)])

    def test_rank_deficient_square_set(self, monkeypatch):
        rng = random.Random(12)
        made = _rank_computations(monkeypatch)
        for gauss in (False, True):
            # V has degree 3, so V^2 through degree 6 is exactly a function of V
            V = (random_sparse_series(rng, 3, 3, 4, gauss) + ScalarSeries.variable(3, 0, 3)).with_trunc(6)
            W = random_sparse_series(rng, 3, 5, 4, gauss) + ScalarSeries.variable(3, 1, 5)
            vs = [V, W, V.mul(V, 6)]
            made.clear()
            cert = independence_check(vs)
            assert not cert.independent and cert.trials == 8
            # k = n never stops early: every point has rank n - 1 at most
            assert len(made) == 8 and max(e.rank for e in made) == cert.rank_found < 3
            self._check(vs)

    def test_more_integrals_than_variables(self):
        rng = random.Random(13)
        for gauss in (False, True):
            vs = [random_sparse_series(rng, 2, d, 5, gauss) + ScalarSeries.variable(2, d % 2, d) for d in (3, 4, 5)]
            cert = independence_check(vs)
            assert not cert.independent and cert.trials == 8
            self._check(vs)

    @pytest.mark.parametrize("unit", [1, gaussian(0, 1)], ids=["rational", "gaussian"])
    def test_more_integrals_than_variables_stop_at_rank_n(self, monkeypatch, unit):
        # rank 2 exactly off the diagonal y1 = y2, where seed 157 puts its
        # first point: the check stops after the second point
        y1, y2 = ScalarSeries.variable(2, 0, 4), ScalarSeries.variable(2, 1, 4)
        vs = [y1, (y2 - y1).mul(y2 - y1, 4).scale(unit), y1.mul(y1, 4)]
        made = _rank_computations(monkeypatch)
        for seed, ranks in [(157, [1, 2]), (0, [2])]:
            made.clear()
            cert = independence_check(vs, seed=seed)
            assert cert == oracle_independence_check(vs, seed=seed)
            assert (cert.independent, cert.rank_found, cert.witness, cert.trials) == (False, 2, None, 8)
            assert [e.rank for e in made] == ranks

    def test_imaginary_parts_count(self):
        # the real parts of the gradients are dependent, the gradients are not
        V = ScalarSeries(2, 4, {(1, 0): 1, (0, 2): gaussian(0, 1)})
        vs = [V, ScalarSeries.variable(2, 0, 3)]
        assert independence_check(vs).independent
        self._check(vs)

    def test_mixed_truncations_and_seeds(self):
        rng = random.Random(14)
        for _ in range(6):
            n = rng.randint(2, 4)
            vs = [random_sparse_series(rng, n, rng.randint(2, 7), 6, rng.random() < 0.5) for _ in range(rng.randint(1, n))]
            vs = [v for v in vs if not v.is_zero()]
            if vs:
                self._check(vs, seeds=range(4))

    @pytest.mark.parametrize("name", ["ex2_2d.json", "ex2_3d.json"])
    def test_fixture_sets(self, name):
        from dulac.cli import parse_system

        for vs in _integral_sets(parse_system(str(FIXTURES / name))):
            self._check(vs)

    def test_catalogue_sections(self):
        """Each `search` and `pullback` section of the benchmark's
        `integrals` catalogue, at the seed `dulac integrals` uses."""
        from dulac.cli import _system_from_doc

        for op in workloads.catalogue("integrals"):
            for vs in _integral_sets(_system_from_doc(op.system, op.key)):
                self._check(vs, seeds=(0,))


@lru_cache(maxsize=None)
def catalogue_sections():
    """(entry key, section name, spec, integrals) for every non-empty
    section of the `integrals` reports of the benchmark's catalogue, built
    as `dulac integrals` builds them."""
    from dulac.cli import _has_pullback, _system_from_doc

    out = []
    for op in workloads.catalogue("integrals"):
        sf = _system_from_doc(op.system, op.key)
        system, N = sf.system(), sf.order
        basis = enumerate_lattice(sf.eigen, sf.lattice_bound)
        out.append((op.key, "search", sf.eigen, search_integrals(system, N)))
        if _has_pullback(sf.eigen, basis):
            pulled = pullback_integrals(monomial_integrals(basis, trunc=N), normalize(system, N), N)
            out.append((op.key, "pullback", sf.eigen, pulled))
    return [section for section in out if section[3]]


class TestJetMinorCertificate:
    """`helpers.oracle_independence`, the jet-minor certificate that is to
    replace the sampled check, on every section of the `integrals`
    catalogue: what it certifies and what it refuses."""

    # n = 3, k = 2 search sections the sampled check calls independent and
    # whose jets fix no nonzero minor
    UNCONFIRMED = {
        ("integrals/field3-rat-N4/1/integrals", "search"),
        ("integrals/field3-rat-N4/5/integrals", "search"),
        ("integrals/field3-gauss-N4/4/integrals", "search"),
    }

    def test_certifies_every_pullback_section(self):
        pullbacks = [vs for _, name, spec, vs in catalogue_sections() if name == "pullback"]
        assert len(pullbacks) == 104
        for vs in pullbacks:
            assert oracle_independence(vs) is not None

    @pytest.mark.parametrize("gate", [True, False])
    def test_refuses_every_section_past_the_kernel_rank(self, gate):
        over = [(spec, vs) for _, _, spec, vs in catalogue_sections() if len(vs) > spec.kernel_rank]
        assert all(oracle_independence(vs, spec if gate else None) is None for spec, vs in over)
        # the sampled check calls 27 of them independent
        assert sum(independence_check(vs).independent for _, vs in over) == 27

    def test_unconfirmed_sections_within_the_kernel_rank(self):
        refused = {(key, name) for key, name, spec, vs in catalogue_sections()
                   if len(vs) <= spec.kernel_rank and oracle_independence(vs, spec) is None}
        assert refused == self.UNCONFIRMED
        for key, name, spec, vs in catalogue_sections():
            if (key, name) in self.UNCONFIRMED:
                assert (spec.n, len(vs)) == (3, 2) and independence_check(vs).independent

    def test_fixed_degrees(self):
        """A minor's part certifies only at a degree the jets fix: with V =
        y1^2 + y2^3, the minor of y1 and V is 3 y2^2, fixed when y1 is known
        through degree 3, and not when it is known through degree 1 only
        (y1 + y1 y2 adds 3 y2^3 - 2 y1^2 to it); y1 and y1^2 have no minor."""
        y1 = ScalarSeries.variable(2, 0, 3)
        V = ScalarSeries(2, 3, {(2, 0): 1, (0, 3): 1})
        assert oracle_independence([y1, V]) == ((0, 1), 2)
        assert oracle_independence([y1.truncate(1), V]) is None
        assert oracle_independence([y1, y1.mul(y1)]) is None
