"""The online composition engine against the per-degree algorithms it
replaced (kept as oracles in helpers), on seeded random inputs."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from helpers import (
    OraclePowerCache,
    _part_terms,
    compose_part,
    derivative_part,
    mat_vec,
    oracle_compose,
    oracle_compose_scalar,
    oracle_conjugacy_field,
    oracle_conjugacy_map,
    oracle_invert,
    oracle_jacobian,
    oracle_normalize,
    oracle_resonant,
    oracle_split_degree,
    random_sparse_series,
)

from dulac.normalizer import (
    FieldSystem,
    MapSystem,
    _residual,
    _solve,
    _split_degree,
    normalize,
    verify_conjugacy,
)
from dulac.resonance import EigenSpec, iter_exponents
from dulac.scalars import gaussian
from dulac.series import (
    Powers,
    ScalarSeries,
    SeriesError,
    VectorSeries,
    _ZERO,
    _pairs,
    compose,
    invert,
)

I = gaussian(0, 1)

# (eigenvalues, resonant): on a resonant spectrum the system carries a
# resonant monomial, so g and phi are both nonzero and both correction terms run
MAP_SPECTRA = [
    ([F(1, 2), F(2)], True),
    ([2 * I, -I / 2], True),
    ([F(1, 32), F(4), F(2)], True),
    ([F(2), F(1, 2), F(3), F(1, 3)], True),
    ([F(2), F(3)], False),
    ([2 * I, F(3), F(5, 7)], False),
]
FIELD_SPECTRA = [
    ([F(1), F(-1)], True),
    ([I, -I], True),
    ([F(1), F(2), F(-1)], True),
    ([F(1), F(-1), F(2), F(3)], True),
    ([F(1), F(3, 7)], False),
    ([1 + I, F(2), F(-1, 3)], False),
]
ORDERS = {2: (5, 7), 3: (4, 6), 4: (4, 5)}


def random_coeff(rng, gaussian_ok):
    re = F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    if gaussian_ok and rng.random() < 0.5:
        return gaussian(re, F(rng.randint(1, 3), rng.randint(1, 2)))
    return re


def random_nonlinear(rng, n, N, terms, gaussian_ok):
    pool = [(j, m) for m in iter_exponents(n, 2, N) for j in range(n)]
    picks = rng.sample(pool, min(len(pool), terms))
    return VectorSeries.from_terms(n, N, [(j, m, random_coeff(rng, gaussian_ok)) for j, m in picks])


def system_cases(kind):
    spectra = MAP_SPECTRA if kind == "map" else FIELD_SPECTRA
    cases = []
    for k, (values, resonant) in enumerate(spectra):
        n = len(values)
        for N in ORDERS[n]:
            cases.append((kind, k, N, resonant))
    return cases


def build_system(kind, k, N):
    """A seeded random system; on a resonant spectrum it carries one
    resonant monomial, so that g is nonzero."""
    values = (MAP_SPECTRA if kind == "map" else FIELD_SPECTRA)[k][0]
    n = len(values)
    spec = EigenSpec.multiplicative(values) if kind == "map" else EigenSpec.additive(values)
    rng = random.Random(f"engine/{kind}/{k}/{N}")
    gaussian_ok = any(not isinstance(v, F) for v in values)
    f = random_nonlinear(rng, n, N, 8 if n < 4 else 6, gaussian_ok)
    resonant = [(j, m) for m in iter_exponents(n, 2, N) for j in range(n) if oracle_resonant(spec, m, j)]
    if resonant:
        j, m = rng.choice(resonant)
        f = f + VectorSeries.from_terms(n, N, [(j, m, random_coeff(rng, gaussian_ok))])
    return MapSystem(spec, f, N) if kind == "map" else FieldSystem(spec, f, N)


class TestNormalizerAgainstOracle:
    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_same_phi_and_g(self, kind, k, N, resonant):
        system = build_system(kind, k, N)
        result = normalize(system)
        phi, g = oracle_normalize(system, N)
        assert result.phi == phi and result.g == g
        assert result.phi.trunc == N and result.g.trunc == N
        if resonant:
            assert not g.is_zero() and not phi.is_zero()

    @pytest.mark.parametrize("kind,values", [("map", MAP_SPECTRA[0][0]), ("map", MAP_SPECTRA[3][0]),
                                             ("field", FIELD_SPECTRA[1][0])])
    def test_zero_nonlinearity(self, kind, values):
        n = len(values)
        zero = VectorSeries.zero(n, 5)
        if kind == "map":
            result = normalize(MapSystem(EigenSpec.multiplicative(values), zero, 5))
        else:
            result = normalize(FieldSystem(EigenSpec.additive(values), zero, 5))
        assert result.phi.is_zero() and result.g.is_zero()
        assert result.residual_zero_degrees == (2, 3, 4, 5)

    def test_order_below_system_order(self):
        system = build_system("map", 0, 7)
        result = normalize(system, 4)
        phi, g = oracle_normalize(system, 4)
        assert result.order == 4 and result.phi == phi and result.g == g


def part(c, s):
    """The packed degree-s part of a series, keyed with its own base."""
    return c.parts[s] if s < len(c.parts) else _ZERO


def loop_tables(system, result):
    """Tables of the pair (phi, g) grown as the degree loop grows its own:
    one degree at a time, each cache filled by that degree's compositions."""
    N = result.order
    Phi, G = result.normalization(), result.normal_form()
    P, Q = Powers(Phi, N, 1), Powers(G, N, 1)
    f = [c.parts for c in system.nonlinear.truncate(N)]
    for s in range(2, N + 1):
        for comp in f:
            _pairs(comp, P, s, 2)
        if isinstance(system, MapSystem):
            for col in P.parts:
                _pairs(col, Q, s, 2)
        P.extend([part(c, s) for c in Phi])
        Q.extend([part(c, s) for c in G])
    return P, Q


def oracle_conjugacy(system, result):
    if isinstance(system, MapSystem):
        return oracle_conjugacy_map(system, result)
    return oracle_conjugacy_field(system, result)


def perturbed(system, result, which):
    """The pair with one coefficient of phi (on a nonresonant monomial, so
    that the residual moves) or of g, of any degree from 1, added or changed."""
    n, N = system.n, result.order
    spec = result.spec
    rng = random.Random(f"perturb/{spec.values}/{N}/{which}")
    pool = [(j, m) for m in iter_exponents(n, 1, N) for j in range(n)
            if which == "g" or not oracle_resonant(spec, m, j)]
    j, m = rng.choice(pool)
    bump = VectorSeries.from_terms(n, N, [(j, m, random_coeff(rng, True))])
    return replace(result, **{which: getattr(result, which) + bump})


class TestIntegerSplit:
    """`_split_degree` takes each divisor and its inverse from the int
    triples of `EigenSpec.table`; the split it replaced, with `Fraction`
    divisors and `_inverse`, is `helpers.oracle_split_degree`."""

    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_every_degree_of_the_loop(self, kind, k, N, resonant, monkeypatch):
        from dulac import normalizer

        split, seen = normalizer._split_degree, []

        def checked(spec, rhs, P):
            got = split(spec, rhs, P)
            assert got == oracle_split_degree(spec, rhs, P)
            seen.append(any(part[1] or part[2] for part in got[0]))
            return got

        monkeypatch.setattr(normalizer, "_split_degree", checked)
        system = build_system(kind, k, N)
        normalize(system)
        assert len(seen) == N - 1 and any(seen) == resonant

    @pytest.mark.parametrize("values,kind", [
        ([0, F(1, 2), -1], "field"), ([0, 0], "field"), ([I, -I, 2 * I], "field"),
        ([I, -1, -I], "map"), ([1 + I, (1 - I) / 2, I], "map"), ([F(-3, 2), F(2, 3), 1], "map"),
    ])
    def test_every_monomial_of_a_degree(self, values, kind):
        """Rational and Gaussian coefficients on every (m, j) of degrees 2..4,
        over spectra with zero eigenvalues, units and real multipliers."""
        spec = EigenSpec.multiplicative(values) if kind == "map" else EigenSpec.additive(values)
        n, rng = len(values), random.Random(f"split/{values}")
        P = Powers(VectorSeries.identity(n, 4), 4, 1)
        for s in range(2, 5):
            terms = [(j, m, random_coeff(rng, True)) for m in iter_exponents(n, s, s) for j in range(n)]
            rhs = [part(c, s) for c in VectorSeries.from_terms(n, 4, terms)]
            assert _split_degree(spec, rhs, P) == oracle_split_degree(spec, rhs, P)


class TestSharedTableResidual:
    """The conjugacy residual through the degree loop's own tables, and
    through the fresh tables `verify` builds from a claimed pair, against the
    two full compositions it replaced (helpers), exactly."""

    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_solver_pair_is_zero_through_its_tables(self, kind, k, N, resonant):
        system = build_system(kind, k, N)
        result, P, Q = _solve(system, None)
        shared = _residual(system, P, Q)
        assert shared.is_zero() and shared == oracle_conjugacy(system, result)
        assert shared.trunc == N

    @pytest.mark.parametrize("which", ["phi", "g"])
    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_perturbed_pair_matches_term_by_term(self, kind, k, N, resonant, which):
        system = build_system(kind, k, N)
        result, _, _ = _solve(system, None)
        claimed = perturbed(system, result, which)
        want = oracle_conjugacy(system, claimed)
        assert not want.is_zero()
        assert _residual(system, *loop_tables(system, claimed)) == want
        assert verify_conjugacy(system, claimed) == want


def random_inner(rng, n, trunc, gaussian_ok=False, max_terms=6):
    """A random map without constant term, linear part included."""
    comps = []
    for _ in range(n):
        s = random_sparse_series(rng, n, trunc, max_terms, gaussian_ok)
        comps.append(s - ScalarSeries.const(n, trunc, s.constant_term()))
    return VectorSeries(comps)


def random_outer(rng, n, trunc, gaussian_ok=False):
    """A random map whose components carry constant terms."""
    return VectorSeries(
        [random_sparse_series(rng, n, trunc, 6, gaussian_ok) + random_coeff(rng, False) for _ in range(n)]
    )


COMPOSE_CASES = [(n, trunc, gq, seed) for n in (1, 2, 3, 4) for trunc in (3, 6) for gq in (False, True)
                 for seed in range(3)]


class TestComposeAgainstOracle:
    @pytest.mark.parametrize("n,trunc,gq,seed", COMPOSE_CASES)
    def test_compose(self, n, trunc, gq, seed):
        rng = random.Random(f"compose/{n}/{trunc}/{gq}/{seed}")
        outer, inner = random_outer(rng, n, trunc, gq), random_inner(rng, n, trunc, gq)
        assert all(c.constant_term() != 0 for c in outer)
        assert compose(outer, inner) == oracle_compose(outer, inner)
        assert Powers.of(inner, trunc).compose([outer[0]], trunc) == [oracle_compose_scalar(outer[0], inner)]

    @pytest.mark.parametrize("n,trunc,gq,seed", COMPOSE_CASES[::3])
    def test_trunc_below_operand_degrees(self, n, trunc, gq, seed):
        rng = random.Random(f"low/{n}/{trunc}/{gq}/{seed}")
        outer, inner = random_outer(rng, n, trunc + 3, gq), random_inner(rng, n, trunc + 2, gq)
        for t in range(0, trunc + 1):
            got = compose(outer, inner, t)
            assert got == oracle_compose(outer, inner, t) and got.trunc == t
            assert all(sum(m) <= t for c in got for m in c.coeffs)

    def test_trunc_above_inner_rejected(self):
        rng = random.Random("above")
        outer, inner = random_outer(rng, 2, 6), random_inner(rng, 2, 4)
        with pytest.raises(SeriesError):
            compose(outer, inner, 5)
        with pytest.raises(SeriesError):
            Powers.of(inner, 5).compose([outer[0]], 5)

    def test_inner_constant_rejected(self):
        inner = VectorSeries.identity(2, 3) + VectorSeries([ScalarSeries.one(2, 3)] * 2)
        with pytest.raises(SeriesError, match="constant"):
            compose(VectorSeries.identity(2, 3), inner)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
    def test_monomial_powers(self, n, seed):
        rng = random.Random(f"powers/{n}/{seed}")
        trunc = 6 if n < 4 else 4
        inner = random_inner(rng, n, trunc, True)
        exps = list(iter_exponents(n, 1, trunc))
        cache = OraclePowerCache(inner, trunc)
        monomials = [ScalarSeries.monomial(n, trunc, m) for m in exps]
        for m, p in zip(exps, Powers.of(inner, trunc).compose(monomials, trunc)):
            assert p == cache.monomial(m)

    @pytest.mark.parametrize("n,trunc,gq,seed", COMPOSE_CASES[::3])
    def test_table_above_trunc(self, n, trunc, gq, seed):
        """One table of the inner map composes through every degree up to
        its own, whichever degree filled it first (a map's one table)."""
        rng = random.Random(f"table/{n}/{trunc}/{gq}/{seed}")
        top = trunc + 2
        outer, inner = random_outer(rng, n, top, gq), random_inner(rng, n, top, gq)
        table = Powers.of(inner, top)
        for t in (trunc, 1, top, 0, trunc - 1):
            got = table.compose(outer.components, t)
            assert got == list(oracle_compose(outer, inner, t)) and all(c.trunc == t for c in got)
        with pytest.raises(SeriesError, match="not known"):
            table.compose(outer.components, top + 1)


class TestOnlinePowers:
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_parts_need_only_lower_degrees(self, n, seed):
        """Fed one degree at a time, the degree-s parts of the powers with
        |m| >= 2 agree with the fully known inner map."""
        rng = random.Random(f"online/{n}/{seed}")
        trunc = 6
        inner = random_inner(rng, n, trunc, True)
        online = Powers(inner, trunc, 1)
        cache = OraclePowerCache(inner, trunc)
        for s in range(2, trunc + 1):
            for m in iter_exponents(n, 2, s):
                expected = {k: v for k, v in cache.monomial(m).coeffs.items() if sum(k) == s}
                assert _part_terms(online.part(m, s), n, s, trunc) == expected
            online.extend([part(c, s) for c in inner])

    def test_unknown_degree_rejected(self):
        online = Powers(VectorSeries.identity(2, 2), 2, 1)
        with pytest.raises(SeriesError, match="not known"):
            online.part((1, 0), 2)

    def test_compose_part_and_derivative_part(self):
        rng = random.Random("parts")
        n, trunc = 3, 6
        phi = random_inner(rng, n, trunc).strip_low(2)
        g = random_inner(rng, n, trunc, True).strip_low(2)
        inner = VectorSeries.identity(n, trunc) + g
        powers = Powers.of(inner, trunc)
        whole = oracle_compose(phi, inner)
        dphi_g = mat_vec(oracle_jacobian(phi), g, trunc)
        for s in range(2, trunc + 1):
            assert compose_part(phi, powers, s) == [c.homogeneous_part(s).coeffs for c in whole]
            assert derivative_part(phi, g, s) == [c.homogeneous_part(s).coeffs for c in dphi_g]


def random_tangent_identity(rng, n, trunc, gaussian_ok):
    pool = [(j, m) for m in iter_exponents(n, 2, trunc) for j in range(n)]
    picks = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
    h = VectorSeries.from_terms(n, trunc, [(j, m, random_coeff(rng, gaussian_ok)) for j, m in picks])
    return VectorSeries.identity(n, trunc) + h


class TestInvertAgainstOracle:
    @pytest.mark.parametrize("n,trunc,gq,seed", [(n, t, gq, s) for n in (1, 2, 3, 4) for t in (2, 5, 7)
                                                 for gq in (False, True) for s in range(2) if n < 4 or t < 7])
    def test_round_trip(self, n, trunc, gq, seed):
        rng = random.Random(f"invert/{n}/{trunc}/{gq}/{seed}")
        phi = random_tangent_identity(rng, n, trunc, gq)
        psi = invert(phi)
        ident = VectorSeries.identity(n, trunc)
        assert psi == oracle_invert(phi)
        assert compose(phi, psi) == ident and compose(psi, phi) == ident

    def test_trunc_below_map_degree(self):
        rng = random.Random("invert-low")
        phi = random_tangent_identity(rng, 3, 7, True)
        for t in (1, 2, 4):
            assert invert(phi, t) == oracle_invert(phi, t)
