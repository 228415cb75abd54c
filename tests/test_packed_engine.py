"""The packed composition engine against the Fraction engine it replaced
(kept in helpers), on seeded Q and Q(i) inputs, n = 1..4.

Coefficients draw their denominators from pairwise coprime values 2^k - 3^l,
so that every sum of products needs a common denominator and every part's
content has to be divided out exactly."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest

from helpers import (
    FractionPowers,
    _part_terms,
    compose_part,
    derivative_pairs,
    derivative_part,
    fraction_compose_part,
    fraction_derivative_part,
    fraction_mul,
    graded,
)

from dulac.resonance import iter_exponents
from dulac.scalars import GaussianRational, gaussian
from dulac.series import (
    Powers,
    ScalarSeries,
    SeriesError,
    VectorSeries,
    _ZERO,
    _gradients,
    _lie_pairs,
    _products,
)

I = gaussian(0, 1)
COPRIME = [2**k - 3**l for k, l in ((3, 1), (4, 2), (5, 2), (7, 4), (8, 5), (9, 5), (11, 6), (29, 18), (38, 23))]


def test_denominators_are_pairwise_coprime():
    assert all(d > 1 for d in COPRIME)
    assert all(gcd(a, b) == 1 for a, b in combinations(COPRIME, 2))


def coeff(rng, gq):
    re = F(rng.randint(-9, 9), rng.choice(COPRIME + [1, 2]))
    if gq and rng.random() < 0.6:
        return gaussian(re, F(rng.choice([-7, -1, 1, 3]), rng.choice(COPRIME + [1])))
    return re


def series(rng, n, trunc, terms, gq, low=0):
    pool = list(iter_exponents(n, low, trunc))
    picks = rng.sample(pool, min(len(pool), terms))
    return ScalarSeries(n, trunc, {m: coeff(rng, gq) for m in picks})


def inner_map(rng, n, trunc, gq, terms=5):
    """A map without constant term whose components all have a linear term."""
    comps = []
    for i in range(n):
        s = series(rng, n, trunc, terms, gq, low=2)
        comps.append(s + ScalarSeries.variable(n, i, trunc).scale(coeff(rng, gq) or 1))
    return VectorSeries(comps)


def check_part(part):
    """The stored form: a positive denominator, no zero numerator, and a
    content of one."""
    den, re, im = part
    assert isinstance(den, int) and den > 0
    assert all(isinstance(v, int) and v != 0 for v in [*re.values(), *im.values()])
    assert gcd(den, *re.values(), *im.values()) == 1


def same_terms(got, want):
    """Equal dicts, with the canonical scalar type of each coefficient."""
    assert got == want
    for m, c in got.items():
        assert type(c) is type(want[m]) and type(c) in (F, GaussianRational)


CASES = [(n, gq, seed) for n in (1, 2, 3, 4) for gq in (False, True) for seed in range(4)]


class TestMul:
    @pytest.mark.parametrize("n,gq,seed", CASES)
    def test_random_operands(self, n, gq, seed):
        rng = random.Random(f"packed-mul/{n}/{gq}/{seed}")
        ta, tb = rng.randint(2, 7 - n), rng.randint(2, 7 - n)
        a = series(rng, n, ta, rng.randint(0, 8), gq)
        b = series(rng, n, tb, rng.randint(1, 8), gq)
        low = min(ta, tb)
        for t in (0, low - 1, low, low + 2, None):
            got, want = a.mul(b, t), fraction_mul(a, b, t)
            assert got.trunc == want.trunc
            same_terms(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("gq", [False, True])
    def test_empty_and_one_term_operands(self, gq):
        rng = random.Random(f"packed-small/{gq}")
        for n in (1, 2, 3, 4):
            zero = ScalarSeries.zero(n, 5)
            one_term = series(rng, n, 5, 1, gq)
            constant = ScalarSeries.const(n, 5, coeff(rng, gq) or 1)
            for a, b in [(zero, one_term), (one_term, zero), (one_term, one_term), (constant, one_term),
                         (one_term, series(rng, n, 5, 6, gq))]:
                for t in (0, 3, 5, 7):
                    same_terms(a.mul(b, t).coeffs, fraction_mul(a, b, t).coeffs)

    def test_cancellation(self):
        n, t = 2, 4
        x = ScalarSeries.variable(n, 0, t).scale(F(1, COPRIME[2]))
        y = ScalarSeries.variable(n, 1, t).scale(F(1, COPRIME[3]))
        # the cross terms cancel, and over Q(i) so does every imaginary part
        assert (x + y).mul(x - y).coeffs == {(2, 0): F(1, COPRIME[2] ** 2), (0, 2): -F(1, COPRIME[3] ** 2)}
        got = (x + y.scale(I)).mul(x - y.scale(I)).coeffs
        assert got == {(2, 0): F(1, COPRIME[2] ** 2), (0, 2): F(1, COPRIME[3] ** 2)}
        assert all(type(c) is F for c in got.values())


class TestPowers:
    @pytest.mark.parametrize("n,gq,seed", CASES)
    def test_online_parts_match_and_are_canonical(self, n, gq, seed):
        rng = random.Random(f"packed-powers/{n}/{gq}/{seed}")
        trunc = 6 if n < 3 else 4
        inner = inner_map(rng, n, trunc, gq)
        packed = Powers(inner, trunc, 1)
        full = [graded(c, trunc) for c in inner]
        oracle = FractionPowers([list(col[:2]) for col in full])
        for s in range(2, trunc + 1):
            for m in iter_exponents(n, 2, s):
                same_terms(_part_terms(packed.part(m, s), n, s, trunc), oracle.part(m, s))
            packed.extend([c.parts[s] if s < len(c.parts) else _ZERO for c in inner])
            oracle.extend([col[s] for col in full])
        for col in [*packed.parts, *packed.cache.values()]:
            for part in col:
                check_part(part)

    def test_parts_that_cancel_are_empty(self):
        # P = (y1 + y2, y1 - y2): P1 P2 = y1^2 - y2^2, with no y1 y2 term
        n, trunc = 2, 3
        inner = VectorSeries([ScalarSeries(n, trunc, {(1, 0): 1, (0, 1): 1}),
                              ScalarSeries(n, trunc, {(1, 0): 1, (0, 1): -1})])
        powers = Powers.of(inner, trunc)
        # keys m1 + 4 m2, base trunc + 1 = 4
        assert powers.part((1, 1), 2) == (1, {2: 1, 8: -1}, {})
        assert powers.part((1, 1), 3) == (1, {}, {})

    def test_degree_beyond_trunc_rejected(self):
        powers = Powers(VectorSeries.identity(2, 2), 2, 1)
        powers.extend([_ZERO, _ZERO])
        with pytest.raises(SeriesError, match="beyond degree 2"):
            powers.extend([_ZERO, _ZERO])
        with pytest.raises(SeriesError, match="exceeds"):
            powers.part((1, 1), 3)


class TestParts:
    @pytest.mark.parametrize("n,gq,seed", CASES)
    def test_compose_part_and_derivative_part(self, n, gq, seed):
        rng = random.Random(f"packed-parts/{n}/{gq}/{seed}")
        trunc = 6 if n < 3 else 4
        inner = inner_map(rng, n, trunc, gq)
        outer = [series(rng, n, trunc, 8, gq) for _ in range(n)]
        g = [series(rng, n, trunc, 5, gq, low=2) for _ in range(n)]
        outer_parts, g_parts = ([graded(c, trunc) for c in v] for v in (outer, g))
        packed, oracle = Powers.of(inner, trunc), FractionPowers.of(inner, trunc)
        for s in range(1, trunc + 1):
            for got, want in zip(compose_part(outer, packed, s), fraction_compose_part(outer_parts, oracle, s)):
                same_terms(got, want)
            for got, want in zip(derivative_part(outer, g, s), fraction_derivative_part(outer_parts, g_parts, s)):
                same_terms(got, want)

    @pytest.mark.parametrize("n,gq,seed", CASES)
    def test_lie_pairs_sum_as_the_derivative_pairs_did(self, n, gq, seed):
        """Each degree's `_gradients`/`_lie_pairs` pairs of DP_j * Q sum to
        what the old `derivative_pairs` of the two tables summed to, with the
        parts below degree low left out and either sign: the degree loop's
        (2, -1), the residual's (1, 1), and with constant terms (0, 1)."""
        rng = random.Random(f"lie-pairs/{n}/{gq}/{seed}")
        trunc = 6 if n < 3 else 4
        P, Q = (Powers([series(rng, n, trunc, 8, gq) for _ in range(n)], trunc, trunc) for _ in range(2))
        for low, sign in ((2, -1), (1, 1), (0, 1)):
            grads = [_gradients(enumerate(col), P.weights, P.base, sign) for col in P.parts]
            for s in range(trunc + 1):
                want = derivative_pairs(P, Q, s, low, sign)
                assert [_products(_lie_pairs(g, Q.parts, s, low)) for g in grads] == [_products(p) for p in want]
