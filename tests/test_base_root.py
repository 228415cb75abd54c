"""The map bound's base from exact perfect-power roots, against the factoring
code it replaced (`oracle_rational_to_base`, `oracle_beta_power` and
`oracle_phases_of_gaussian` in helpers): the same (beta, a, b) or the same
HypothesisError text on seeded spectra, the same beta^(2q), and the same bound
JSON on every map fixture and map spectrum of the `lattice` catalogue.  Then
`resonance` on multipliers far past what trial division could factor: it
exits in bounded time, and in {0, 2, 3, 4} on any generated spectrum, whose
grouping by integer keys is the grouping by value and whose key test of
resonance is the value test."""

import json
import random
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dulac import resonance
from dulac.cli import _bound_json, _system_from_doc, main
from dulac.errors import HypothesisError
from dulac.resonance import (
    _beta_square,
    _phase,
    _rational_to_base,
    _square_of,
    enumerate_lattice,
    iter_exponents,
    small_divisor_bound_map,
)
from dulac.scalars import gaussian, iroot, primitive_root

from test_resonance import catalogue_spectra

from helpers import (
    oracle_beta_power,
    oracle_classes,
    oracle_factor_positive_rational,
    oracle_phases_of_gaussian,
    oracle_rational_to_base,
    oracle_resonant,
)

BASES = [F(2), F(3), F(3, 2), F(4), F(9, 4), F(6), F(10, 3), F(8, 27), F(12), F(2, 5)]
# real of either sign, imaginary, on a diagonal, and off the eight rays
UNITS = [
    F(1), F(-1), gaussian(0, 1), gaussian(0, -1),
    gaussian(1, 1), gaussian(-1, 1), gaussian(-1, -1), gaussian(1, -1),
    gaussian(2, 1), gaussian(3, 4), gaussian(-1, 3),
]
# numerators far past trial division: 10^30 + 57, 2^127 - 1 and 10^39 + 3
# are prime
BIG_PRIMES = [10**30 + 57, 2**127 - 1, 10**39 + 3]


def outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisError as exc:
        return ("error", str(exc))


def seeded_multipliers(rng, n):
    """Powers of one base times units, sometimes with one modulus off the
    base (no common base) or every modulus 1."""
    base = rng.choice(BASES)
    mus = [base ** rng.randint(-3, 3) * rng.choice(UNITS[:8] if rng.random() < 0.8 else UNITS)
           for _ in range(n)]
    shape = rng.random()
    if shape < 0.15:
        mus[rng.randrange(n)] = rng.choice([F(5, 7), F(7), F(11, 2), gaussian(1, 2)])
    elif shape < 0.2:
        mus = [rng.choice(UNITS[:4]) for _ in range(n)]
    return tuple(mus)


def factoring_beta_square(beta, q):
    """The square of beta^q from beta's prime exponents, or None."""
    power = oracle_beta_power(oracle_factor_positive_rational(beta), q)
    return None if power is None else _square_of(power)


class TestAgainstFactoringOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rational_to_base(self, n):
        rng = random.Random(f"base-root-{n}")
        kinds = set()
        for _ in range(400):
            mus = seeded_multipliers(rng, n)
            got = outcome(_rational_to_base, mus)
            assert got == outcome(oracle_rational_to_base, mus), mus
            kinds.add(got[0] if got[0] == "error" else "base")
            if got[0] != "error":
                beta, a, b = got
                assert type(beta) is F and beta > 1
                assert all(type(x) is F for x in a + b)
        assert kinds == {"base", "error"}

    def test_error_texts_and_their_order(self):
        """All moduli 1 is checked first, then a common base, then phases."""
        cases = [
            ((F(1), gaussian(0, 1)), "all eigenvalue moduli equal 1"),
            ((F(2), gaussian(2, 1), F(3)), "not powers of a common base"),
            ((F(5), gaussian(3, 4)), "not a rational turn"),
        ]
        for mus, text in cases:
            with pytest.raises(HypothesisError, match=text):
                _rational_to_base(mus)
            with pytest.raises(HypothesisError, match=text):
                oracle_rational_to_base(mus)

    @pytest.mark.parametrize("base", BASES)
    def test_beta_square(self, base):
        beta = oracle_rational_to_base((base,))[0]
        for q in {F(k, d) for k in range(-12, 13) for d in range(1, 7)}:
            got = _beta_square(beta, q)
            assert got == factoring_beta_square(beta, q), (beta, q)
            assert got is None or type(got) is F

    def test_phase_on_every_ray(self):
        for mu in UNITS + [F(3, 7), gaussian(0, F(-5, 2)), gaussian(F(2, 3), F(-2, 3))]:
            r2 = mu.abs2() if hasattr(mu, "abs2") else mu * mu
            assert outcome(_phase, mu) == outcome(oracle_phases_of_gaussian, mu, r2)


@pytest.mark.parametrize("spec,D", catalogue_spectra("map"))
def test_bound_json_matches_the_factoring_bound(monkeypatch, spec, D):
    basis = enumerate_lattice(spec, D)

    def bound_json():
        try:
            return json.dumps(_bound_json(small_divisor_bound_map(spec, basis), None))
        except HypothesisError as exc:
            return str(exc)

    got = bound_json()
    monkeypatch.setattr(resonance, "_rational_to_base", oracle_rational_to_base)
    monkeypatch.setattr(resonance, "_beta_square", factoring_beta_square)
    assert got == bound_json()


class TestRoots:
    def test_iroot_brackets_the_root(self):
        rng = random.Random("iroot")
        for _ in range(3000):
            k = rng.choice([2, 3, 5, 7, 13, rng.randint(2, 300)])
            x = rng.getrandbits(rng.randint(1, 2000)) + 1
            r = iroot(x, k)
            assert r ** k <= x < (r + 1) ** k
            y = rng.getrandbits(rng.randint(1, 80)) + 1
            assert iroot(y ** k, k) == y

    @pytest.mark.parametrize("root,k", [(F(2), 12), (F(12), 35), (F(10, 3), 6), (F(2, 5), 7),
                                        (F(10**30 + 57), 2), (F(2**127 - 1, 6), 30)])
    def test_primitive_root(self, root, k):
        assert primitive_root(root ** k) == root
        assert primitive_root(1 / root ** k) == 1 / root


def write_system(directory, values, D=10):
    path = Path(directory) / "sys.json"
    path.write_text(json.dumps({
        "kind": "map", "n": len(values), "scalars": "rational",
        "eigen": {"form": "mult-rational", "values": values},
        "terms": [], "degree_D": D, "order_N": 8,
    }))
    return path


def timed_main(args):
    start = time.perf_counter()
    code = main([str(a) for a in args])
    return code, time.perf_counter() - start


class TestHugeMultipliers:
    def test_thirty_digit_prime_exits_0_and_verifies(self, tmp_path):
        p = 10**30 + 57
        path, rep = write_system(tmp_path, [[p, 1], [1, p]]), tmp_path / "rep.json"
        code, seconds = timed_main(["resonance", "--input", path, "--output", rep])
        assert code == 0 and seconds < 1
        doc = json.loads(rep.read_text())
        assert doc["bound"]["certificate"]["base"] == [p, 1]
        assert main(["verify", "--input", str(rep)]) == 0

    def test_json_limit_multiplier_exits_in_time(self, tmp_path, capsys):
        """A 4300-digit numerator (the JSON limit), no perfect power: the base
        search tries every prime exponent, and the bound, with twice as many
        digits, cannot be written out (exit 3).  README: within 10 s."""
        x = 10**4299 + 1234567
        path = write_system(tmp_path, [[x, 1], [1, x]])
        code, seconds = timed_main(["resonance", "--input", path, "--output", tmp_path / "rep"])
        assert code == 3 and seconds < 10
        assert "4300 digits" in capsys.readouterr().err


# -- any spectrum exits in {0, 2, 3, 4} --------------------------------------------

big = st.one_of(st.integers(-10**40, 10**40), st.sampled_from(BIG_PRIMES))
positive = st.one_of(st.integers(1, 10**40), st.sampled_from(BIG_PRIMES))
rationals = st.tuples(big, positive).map(list)
gaussians = st.tuples(big, positive, big, positive).map(list)


@st.composite
def structured(draw, n):
    """Powers of one big base times units: the rank n-1 spectra that reach
    the map bound's base."""
    base = draw(positive)
    units = [[1, 1, 0, 1], [-1, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 1], [2, 1, 1, 1]]
    out = []
    for _ in range(n):
        e = draw(st.integers(-2, 2))
        num, den = (base ** e, 1) if e >= 0 else (1, base ** -e)
        re_n, re_d, im_n, im_d = draw(st.sampled_from(units))
        out.append([re_n * num, re_d * den, im_n * num, im_d * den])
    return out


@st.composite
def spectra(draw):
    n = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["additive", "mult-rational", "mult-base", "structured"]))
    if form == "mult-base":
        eigen = {"form": form, "exponents": draw(st.lists(rationals, min_size=n, max_size=n)),
                 "phases": draw(st.lists(rationals, min_size=n, max_size=n))}
    elif form == "structured":
        eigen = {"form": "mult-rational", "values": draw(structured(n))}
    else:
        eigen = {"form": form, "values": draw(st.lists(st.one_of(rationals, gaussians),
                                                       min_size=n, max_size=n))}
    return {
        "kind": "field" if form == "additive" else "map", "n": n, "scalars": "gaussian",
        "eigen": eigen, "terms": [], "degree_D": draw(st.integers(2, 6)), "order_N": 4,
    }


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spectra())
def test_resonance_exits_0_2_3_or_4(doc):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "sys.json"
        path.write_text(json.dumps(doc))
        code = main(["resonance", "--input", str(path), "--output", str(Path(directory) / "rep")])
    assert code in (0, 2, 3, 4)
    # the grouping by integer keys is the grouping by value, and the key test
    # of resonance is the value test, at D = 8
    if code != 2:
        spec = _system_from_doc(doc, "spectrum").eigen
        assert list(spec.classes(8).values()) == list(oracle_classes(spec, 8).values())
        for m in iter_exponents(spec.n, 0, 8):
            for j in (None, *range(spec.n)):
                assert spec.resonant(m, j) == oracle_resonant(spec, m, j), (m, j)

