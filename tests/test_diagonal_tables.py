"""Diagonal power tables against the route they replaced (`helpers.old_route`).

A table whose inner map has the linear part c y builds each first part
[P^m]_|m| = c^m y^m from two one-term parts, and `_pairs` takes an outer
part of degree s at degree s as one scaled pair.  Every composition that
reads such a table is compared, exactly, with the same call on the old
route, on seeded identity-linear and c-diagonal inner maps over Q and Q(i)
for n = 1..4, and every part it returns is canonical.  Inner maps whose
linear part is not diagonal, or has a zero coefficient, take the general
path and give the same parts as before.  `Powers.pull`, the solve of W o P
= V on such a table, is compared with the solves it replaced (`TestPull`).
The scalar pairs `_pairs` gives `_products`, one coefficient as three ints
per outer term, sum exactly as the one-term coefficient parts they replaced
(`helpers.part_route`, `TestScalarPairs`)."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from helpers import (
    compose_scalar,
    normalization_of,
    old_route,
    online_invert,
    oracle_compose,
    oracle_compose_scalar,
    oracle_cross,
    oracle_det_back,
    oracle_diagonal_inverse,
    oracle_gradient,
    oracle_pullback_integrals,
    part_pairs,
    part_route,
    random_sparse_series,
)
from test_engine import build_system, perturbed, random_coeff, random_outer, system_cases
from test_packed_engine import check_part, series as packed_series

from dulac.embedding import embedding_field
from dulac.integrals import pullback_integrals, search_integrals, verify_integral
from dulac.normalizer import MapSystem, _residual, _solve, normalize, verify_conjugacy
from dulac.resonance import EigenSpec, iter_exponents
from dulac.scalars import gaussian
from dulac.series import (
    Powers,
    ScalarSeries,
    SeriesError,
    VectorSeries,
    compose,
    det_series,
    invert,
    jacobian,
    _pairs,
    _products,
)

CASES = [(n, linear, gq, seed) for n in (1, 2, 3, 4) for linear in ("identity", "diagonal")
         for gq in (False, True) for seed in range(2)]


def trunc_for(n):
    return 6 if n < 3 else 4


def unit(n, i):
    return [int(t == i) for t in range(n)]


def nonlinear(rng, n, trunc, gq):
    pool = [(j, m) for m in iter_exponents(n, 2, trunc) for j in range(n)]
    picks = rng.sample(pool, min(len(pool), 3 * n + 2))
    return VectorSeries.from_terms(n, trunc, [(j, m, random_coeff(rng, gq)) for j, m in picks])


def diagonal_inner(rng, n, trunc, linear, gq):
    """y + h, or c y + h with every c_i nonzero and some c_i not 1."""
    if linear == "identity":
        c = [1] * n
    else:
        c = [random_coeff(rng, gq) for _ in range(n)]
        c[0] = gaussian(F(1, 2), F(-2, 3)) if gq else F(-3, 2)
    return VectorSeries.diagonal_linear(c, trunc) + nonlinear(rng, n, trunc, gq)


def both_routes(monkeypatch, run):
    """run() on the old route and then on the new one."""
    with monkeypatch.context() as mp:
        old_route(mp)
        want = run()
    return want, run()


def check_series(*series):
    for s in series:
        for part in s.parts:
            check_part(part)


class TestPowers:
    @pytest.mark.parametrize("n,linear,gq,seed", CASES)
    def test_every_part(self, n, linear, gq, seed, monkeypatch):
        rng = random.Random(f"diagonal-parts/{n}/{linear}/{gq}/{seed}")
        trunc = trunc_for(n)
        inner = diagonal_inner(rng, n, trunc, linear, gq)

        def parts():
            table = Powers.of(inner, trunc)
            return table, {(m, s): table.part(m, s) for m in iter_exponents(n, 1, trunc)
                           for s in range(sum(m), trunc + 1)}

        (_, want), (table, got) = both_routes(monkeypatch, parts)
        assert table.diagonal and table.unit == (linear == "identity")
        assert got == want
        for part in got.values():
            check_part(part)

    @pytest.mark.parametrize("n,linear,gq,seed", CASES)
    def test_compose(self, n, linear, gq, seed, monkeypatch):
        rng = random.Random(f"diagonal-compose/{n}/{linear}/{gq}/{seed}")
        trunc = trunc_for(n)
        inner = diagonal_inner(rng, n, trunc, linear, gq)
        outer = random_outer(rng, n, trunc, gq)
        want, got = both_routes(monkeypatch, lambda: (
            Powers.of(inner, trunc).compose(outer.components, trunc),
            compose(outer, inner, trunc - 1),
        ))
        assert got == want
        assert got[1] == oracle_compose(outer, inner, trunc - 1)
        check_series(*got[0], *got[1])

    @pytest.mark.parametrize("n,gq,seed", [(n, gq, seed) for n in (1, 2, 3, 4) for gq in (False, True)
                                           for seed in range(2)])
    def test_invert(self, n, gq, seed, monkeypatch):
        rng = random.Random(f"diagonal-invert/{n}/{gq}/{seed}")
        trunc = trunc_for(n) + 1
        phi = diagonal_inner(rng, n, trunc, "identity", gq)
        want, got = both_routes(monkeypatch, lambda: invert(phi))
        assert got == want == online_invert(phi)
        check_series(*got)


def general_inner(rng, n, trunc, shape, gq):
    """An inner map whose linear part is not c y with every c_i nonzero: an
    off-diagonal coefficient, a zero coefficient, no linear term at all."""
    linear = [(i, unit(n, i), random_coeff(rng, gq)) for i in range(n)]
    if shape == "off-diagonal":
        linear.append((0, unit(n, n - 1), 1))
    elif shape == "zero":
        linear.pop()
    else:
        linear = []
    return VectorSeries.from_terms(n, trunc, linear) + nonlinear(rng, n, trunc, gq)


class TestGeneralPath:
    """Linear parts that are not c y with every c_i nonzero: an off-diagonal
    coefficient, a zero coefficient, no linear term at all."""

    @pytest.mark.parametrize("shape", ["off-diagonal", "zero", "none"])
    @pytest.mark.parametrize("n,gq", [(n, gq) for n in (1, 2, 3, 4) for gq in (False, True)])
    def test_same_parts_as_before(self, shape, n, gq, monkeypatch):
        if shape == "off-diagonal" and n == 1:
            pytest.skip("one variable has no off-diagonal coefficient")
        rng = random.Random(f"general/{shape}/{n}/{gq}")
        trunc = trunc_for(n)
        inner = general_inner(rng, n, trunc, shape, gq)
        outer = random_outer(rng, n, trunc, gq)

        def run():
            table = Powers.of(inner, trunc)
            parts = {(m, s): table.part(m, s) for m in iter_exponents(n, 1, trunc) for s in range(sum(m), trunc + 1)}
            return table.diagonal, parts, compose(outer, inner)

        want, got = both_routes(monkeypatch, run)
        assert not got[0]
        assert got == want
        assert got[2] == oracle_compose(outer, inner)


class TestNormalizer:
    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_solver_and_residual(self, kind, k, N, resonant, monkeypatch):
        system = build_system(kind, k, N)

        def run():
            result, P, Q = _solve(system, None)
            return result.phi, result.g, _residual(system, P, Q), normalize(system)

        want, got = both_routes(monkeypatch, run)
        assert got == want and got[2].is_zero()
        check_series(*got[0], *got[1])

    @pytest.mark.parametrize("which", ["phi", "g", "phi-diagonal", "g-diagonal", "phi-off-diagonal", "g-off-diagonal"])
    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_verify_conjugacy_on_perturbed_pairs(self, kind, k, N, resonant, which, monkeypatch):
        """Perturbed at any degree from 1 (`test_engine.perturbed`), or in
        the linear part: on the diagonal, so that the table of Phi or of G is
        c-diagonal with some c_j != 1 or mu_j, or off it, so that the table
        takes the general path."""
        system = build_system(kind, k, N)
        result = normalize(system)
        n = system.n
        name, _, linear = which.partition("-")
        if linear:
            rng = random.Random(f"linear-bump/{kind}/{k}/{N}/{which}")
            j = rng.randrange(n)
            i = j if linear == "diagonal" else (j + 1) % n
            if i == j and linear == "off-diagonal":
                pytest.skip("one variable has no off-diagonal coefficient")
            bump = VectorSeries.from_terms(n, N, [(j, unit(n, i), F(1, 5))])
            claimed = replace(result, **{name: getattr(result, name) + bump})
            table = Powers.of(claimed.normalization() if name == "phi" else claimed.normal_form(), N)
            assert table.diagonal == (linear == "diagonal") and not table.unit
        else:
            claimed = perturbed(system, result, which)
        want, got = both_routes(monkeypatch, lambda: verify_conjugacy(system, claimed))
        assert got == want and not got.is_zero()
        check_series(*got)


class TestIntegrals:
    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_verify_integral_and_search(self, kind, k, N, resonant, monkeypatch):
        system = build_system(kind, k, N)
        rng = random.Random(f"diagonal-integral/{kind}/{k}/{N}")
        V = random_sparse_series(rng, system.n, N, 8, True)

        def run():
            fresh = replace(system)  # a table of its own
            return verify_integral(V, fresh), verify_integral(V, fresh, N - 1), search_integrals(fresh, N - 1)

        want, got = both_routes(monkeypatch, run)
        assert got == want
        check_series(got[0], got[1], *got[2])


def map_system(rng, n, N, gq):
    """A map with diagonal multipliers, none of them one."""
    mu = ([gaussian(1, 2), F(1, 3), gaussian(F(1, 2), -1), F(2)] if gq else [F(1, 2), F(3), F(-2, 3), F(5)])[:n]
    return MapSystem(EigenSpec.multiplicative(mu), nonlinear(rng, n, N, gq), N)


class TestPull:
    """`Powers.pull` solves W o P = V over a diagonal table.  It is compared,
    exactly, with the solves it replaced (`helpers.online_invert`, the
    pullback through psi = Phi^-1 and the embedding's det(DF) o F^-1 by
    inverting id + B^-1 f), at every order through the table's, with V = 0
    and V with a constant term among the values, and W o P = V is checked
    through the Fraction oracle; every part it returns is canonical."""

    @pytest.mark.parametrize("n,linear,gq,seed", CASES)
    def test_pull(self, n, linear, gq, seed):
        rng = random.Random(f"pull/{n}/{linear}/{gq}/{seed}")
        trunc = trunc_for(n)
        inner = diagonal_inner(rng, n, trunc, linear, gq)
        table = Powers.of(inner, trunc)
        assert table.diagonal and table.unit == (linear == "identity")
        values = [*random_outer(rng, n, trunc, gq), ScalarSeries.zero(n, trunc)]
        assert all(v.low_degree() == 0 for v in values[:-1])
        for order in range(1, trunc + 1):
            got = table.pull(values, order)
            inverse = oracle_diagonal_inverse(inner, order)
            assert got == [compose_scalar(v, inverse, order) for v in values]
            assert [oracle_compose_scalar(w, inner, order) for w in got] == [v.truncate(order) for v in values]
            assert got[-1].is_zero() and all(w.trunc == order for w in got)
            check_series(*got)

    @pytest.mark.parametrize("n,gq,seed", [(n, gq, seed) for n in (1, 2, 3, 4) for gq in (False, True)
                                           for seed in range(2)])
    def test_invert_and_pullback(self, n, gq, seed):
        rng = random.Random(f"pull-invert/{n}/{gq}/{seed}")
        trunc = trunc_for(n) + 1
        phi = diagonal_inner(rng, n, trunc, "identity", gq)
        values = [*random_outer(rng, n, trunc, gq), ScalarSeries.zero(n, trunc)]
        for order in range(1, trunc + 1):
            psi = invert(phi, order)
            assert psi == online_invert(phi, order)
            pulled = pullback_integrals(values, normalization_of(phi.strip_low(2)), order)
            assert pulled == oracle_pullback_integrals(values, phi.strip_low(2), order)
            check_series(*psi, *pulled)

    @pytest.mark.parametrize("n,gq,seed", [(n, gq, seed) for n in (1, 2, 3, 4) for gq in (False, True)
                                           for seed in range(2)])
    def test_det_back_and_embedding_field(self, n, gq, seed):
        """det(DF) o F^-1 pulled through F's own table, alone and as the
        embedding field's factor, on maps whose multipliers are not one."""
        rng = random.Random(f"pull-det/{n}/{gq}/{seed}")
        N = trunc_for(n)
        F_ = map_system(rng, n, N, gq)
        assert F_.powers.diagonal and not F_.powers.unit
        vs = [random_sparse_series(rng, n, N, 6, gq) for _ in range(n - 1)]
        for order in range(1, N):
            [got] = F_.powers.pull([det_series(jacobian(F_.full()), order)], order)
            want = oracle_det_back(F_, order)
            assert got == want
            check_series(got)
            if n > 1:
                field = embedding_field(F_, vs, order).field
                bare = oracle_cross([oracle_gradient(v) for v in vs], order)
                assert field == VectorSeries([want.mul(c, order) for c in bare])
                check_series(*field)

    @pytest.mark.parametrize("shape", ["off-diagonal", "zero", "none"])
    @pytest.mark.parametrize("n,gq", [(n, gq) for n in (1, 2, 3) for gq in (False, True)])
    def test_refuses_a_table_that_is_not_diagonal(self, shape, n, gq):
        if shape == "off-diagonal" and n == 1:
            pytest.skip("one variable has no off-diagonal coefficient")
        rng = random.Random(f"pull-general/{shape}/{n}/{gq}")
        trunc = trunc_for(n)
        table = Powers.of(general_inner(rng, n, trunc, shape, gq), trunc)
        with pytest.raises(SeriesError, match="linear part is c y"):
            table.pull([ScalarSeries.one(n, trunc)], trunc)

    def test_refuses_a_table_not_fully_known(self):
        """A table fed one degree at a time pulls only through the degree
        it knows, and no table pulls past its own degree."""
        V = ScalarSeries(2, 4, {(1, 1): 1, (0, 3): F(1, 2)})
        table = Powers(VectorSeries.identity(2, 4), 4, 1)
        assert table.pull([V], 1) == [V.truncate(1)]
        with pytest.raises(SeriesError, match="not known through degree 2"):
            table.pull([V], 2)
        table.extend([(1, {}, {})] * 2)
        assert table.pull([V], 2) == [V.truncate(2)]
        with pytest.raises(SeriesError, match="not known through degree 5"):
            Powers.of(VectorSeries.identity(2, 4), 4).pull([V.with_trunc(5)], 5)


def scalar_as_part(x):
    """A (scalar, part) pair's scalar as the one-term part it stood for."""
    den, re, im = x
    return (den, {0: re} if re else {}, {0: im} if im else {}) if type(re) is int else x


def fraction_products(pairs):
    """The sum of the products of the pairs, key -> (re, im) Fractions, read
    term by term: the independent oracle of `_products`."""
    acc = {}
    for a, b in pairs:
        (da, ar, ai), (db, br, bi) = scalar_as_part(a), scalar_as_part(b)
        for ka in ar.keys() | ai.keys():
            x, y = F(ar.get(ka, 0), da), F(ai.get(ka, 0), da)
            for kb in br.keys() | bi.keys():
                u, v = F(br.get(kb, 0), db), F(bi.get(kb, 0), db)
                re, im = acc.get(ka + kb, (0, 0))
                acc[ka + kb] = (re + x * u - y * v, im + x * v + y * u)
    return {k: c for k, c in acc.items() if c != (0, 0)}


def part_fractions(part):
    den, re, im = part
    return {k: (F(re.get(k, 0), den), F(im.get(k, 0), den)) for k in re.keys() | im.keys()}


class TestScalarPairs:
    """`_pairs` gives one (scalar, part) pair per outer term, its
    coefficient three ints and no dict, and `Powers.top` pairs its part with
    a scalar.  Each degree's sum equals, exactly, the sum of the pairs they
    replaced (`helpers.part_pairs`), on unit-diagonal (Phi), c-diagonal (F,
    G) and general tables over Q and Q(i), with sign +-1 and low 1..3, and
    the whole solver, residual and integral routes agree; `_products` takes
    any list mixing scalar and part pairs."""

    @pytest.mark.parametrize("linear,n,gq,seed", [
        (linear, n, gq, seed) for linear in ("identity", "diagonal", "off-diagonal") for n in (1, 2, 3, 4)
        for gq in (False, True) for seed in range(2) if n > 1 or linear != "off-diagonal"])
    def test_pairs_sum_as_part_pairs(self, linear, n, gq, seed):
        rng = random.Random(f"scalar-pairs/{linear}/{n}/{gq}/{seed}")
        trunc = trunc_for(n)
        inner = (general_inner(rng, n, trunc, linear, gq) if linear == "off-diagonal"
                 else diagonal_inner(rng, n, trunc, linear, gq))
        table = Powers.of(inner, trunc)
        assert table.diagonal == (linear != "off-diagonal") and table.unit == (linear == "identity")
        outers = list(random_outer(rng, n, trunc, gq))
        if gq:  # a coefficient with a zero real part in every degree
            outers.append(ScalarSeries(n, trunc, {m: gaussian(0, F(rng.choice([-3, 1, 5]), rng.choice([1, 7])))
                                                  for m in iter_exponents(n, 1, trunc) if rng.random() < 0.4}))
        for outer in outers:
            parts = outer._keyed(trunc, table.base)
            for s in range(1, trunc + 1):
                for low in (1, 2, 3):
                    for sign in (1, -1):
                        pairs = _pairs(parts, table, s, low, sign)
                        assert all(type(a[1]) is int and type(a[2]) is int for a, _ in pairs)
                        got, want = _products(pairs), _products(part_pairs(parts, table, s, low, sign))
                        assert got == want
                        check_part(got)

    @pytest.mark.parametrize("gq", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_pair_lists(self, gq, seed):
        """Scalar pairs, zero scalars among them, and Gaussian scalars with a
        zero real part or a zero imaginary part, mixed with part pairs whose
        parts may be zero or one term long."""
        rng = random.Random(f"mixed-pairs/{gq}/{seed}")
        n, trunc = rng.choice([(1, 6), (2, 5), (3, 4)])

        def part():
            p = packed_series(rng, n, trunc, rng.choice([0, 1, 1, 3, 6]), gq).parts
            return rng.choice(p) if p else (1, {}, {})

        def scalar():
            den = rng.choice([1, 2, 7, 45, 232])
            re, im = rng.choice([0, 1, -3, 10**20]), rng.choice([0, 2, -5]) if gq else 0
            if gq and rng.random() < 0.3:
                re = 0
            return den, re, im

        for _ in range(20):
            pairs = [(scalar(), part()) if rng.random() < 0.6 else (part(), part()) for _ in range(rng.randint(0, 7))]
            got = _products(pairs)
            assert got == _products([(scalar_as_part(a), b) for a, b in pairs])
            assert part_fractions(got) == fraction_products(pairs)
            check_part(got)

    @pytest.mark.parametrize("kind,k,N,resonant", system_cases("map") + system_cases("field"))
    def test_solver_residual_and_integrals(self, kind, k, N, resonant, monkeypatch):
        system = build_system(kind, k, N)
        V = random_sparse_series(random.Random(f"scalar-pairs-integral/{kind}/{k}/{N}"), system.n, N, 8, True)

        def run():
            fresh = replace(system)  # a table of its own
            result = normalize(fresh)
            return (result.phi, result.g, verify_conjugacy(fresh, result), verify_integral(V, fresh),
                    result.powers.pull([V], N), search_integrals(fresh, N - 1))

        with monkeypatch.context() as mp:
            part_route(mp)
            assert normalize.__globals__["_pairs"] is part_pairs
            want = run()
        got = run()
        assert got == want and got[2].is_zero()
        check_series(*got[0], *got[1], got[3], *got[4], *got[5])
