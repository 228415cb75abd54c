"""Each spec's table of exponent values and its grouping by value against
the per-exponent scans they replaced: equal values, equal lattices and equal
bound verifications (pair counts, minimum gaps, witnesses and first failures)
on seeded random spectra in all three eigenvalue forms, whatever lookups
filled the table first, and on spectra whose values repeat heavily.  The
grouping by integer keys against the grouping by hashed values it replaced
(`helpers.oracle_classes`), and the enumerated rank against the rank of the
whole lattice."""

import random
from dataclasses import replace
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

from dulac.cli import parse_system
from dulac.errors import HypothesisError
from dulac.linalg import Echelon
from dulac.resonance import (
    EigenSpec,
    SmallDivisorBound,
    SymbolicBound,
    enumerate_lattice,
    iter_exponents,
    small_divisor_bound_field,
    small_divisor_bound_map,
    sqrt_value,
    verify_bound,
    _phase,
    _rational_to_base,
    _square_of,
)
from dulac.scalars import gaussian, sc_abs2

from helpers import (
    oracle_algebraic_rank,
    oracle_classes,
    oracle_divisor,
    oracle_enumerate_lattice,
    oracle_factor_positive_rational,
    oracle_inner,
    oracle_power,
    oracle_resonant,
    oracle_verify_bound,
    oracle_values,
    oracle_verify_certificate,
    sc_pow,
    triple_value,
)

FORMS = ("rational", "gaussian", "additive", "mult-base")
DEGREES = {1: 20, 2: 20, 3: 12, 4: 7}
SEEDS = range(3)


def _mixed_ints(rng, n):
    """Integers in [-3, 3], of both signs when n > 1 and the draw allows."""
    return [rng.choice([-3, -2, -1, 1, 2, 3]) if rng.random() < 0.85 else 0 for _ in range(n)]


def random_spec(form, n, seed):
    """A seeded spectrum: usually a planted rank n-1 relation, sometimes a
    generic one with few or no resonances."""
    rng = random.Random(f"table/{form}/{n}/{seed}")
    planted = seed != 2
    if form == "rational":
        if not planted:
            return EigenSpec.multiplicative([F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)])
        rho = F(rng.choice([2, 3, 5]))
        return EigenSpec.multiplicative(
            [rng.choice([1, -1]) * rho ** k for k in _mixed_ints(rng, n)]
        )
    if form == "gaussian":
        if not planted:
            return EigenSpec.multiplicative(
                [gaussian(F(rng.randint(-2, 2), 2), F(rng.randint(1, 2), 3)) for _ in range(n)]
            )
        # moduli powers of sqrt 2, phases on the 1/8 grid
        return EigenSpec.multiplicative(
            [sc_pow(gaussian(1, 1), k) * sc_pow(gaussian(0, 1), rng.randint(0, 3))
             for k in _mixed_ints(rng, n)]
        )
    if form == "additive":
        if not planted:
            return EigenSpec.additive(
                [gaussian(F(rng.randint(-5, 5), 2), rng.randint(-2, 2)) for _ in range(n)]
            )
        t = rng.choice([F(1), F(1, 3), gaussian(1, 1), gaussian(2, F(-1, 2))])
        return EigenSpec.additive([t * v for v in _mixed_ints(rng, n)])
    grid = rng.choice([2, 4, 8])
    t = F(rng.randint(1, 3), rng.randint(1, 3)) if planted else None
    exps = [t * v if planted else F(rng.randint(-6, 6), rng.randint(1, 4)) for v in _mixed_ints(rng, n)]
    return EigenSpec.multiplicative_base(exps, [F(rng.randint(0, grid - 1), grid) for _ in range(n)])


CASES = [(form, n, seed) for form in FORMS for n in DEGREES for seed in SEEDS]


def _bound_for(spec, basis):
    """The constructed bound, or None when the hypotheses fail."""
    if basis.rank != spec.n - 1 or len(basis.generators) != spec.n - 1:
        return None
    try:
        if spec.kind == "additive":
            return small_divisor_bound_field(spec, basis)
        return small_divisor_bound_map(spec, basis)
    except HypothesisError:
        return None


class TestExponentValues:
    @pytest.mark.parametrize("form,n,seed", CASES)
    def test_each_value_matches_the_per_monomial_api(self, form, n, seed):
        spec = random_spec(form, n, seed)
        high = min(DEGREES[n], 8)
        table = oracle_values(spec)
        for m in iter_exponents(n, 0, high):
            table[m]
        assert list(table) == list(iter_exponents(n, 0, high))
        for m, value in table.items():
            if spec.kind == "mult-rational":
                assert value == oracle_power(spec, m)
            elif spec.kind == "additive":
                assert value == oracle_inner(spec, m)
            else:
                a, b = spec.exponents, spec.phases
                ma = sum((x * e for x, e in zip(a, m)), F(0))
                mb = sum((x * e for x, e in zip(b, m)), F(0)) % 1
                assert value == (ma, mb)
                assert 0 <= value[1] < 1

    @pytest.mark.parametrize("form,n,seed", CASES)
    def test_lazy_values_match_the_table(self, form, n, seed):
        """Looked up highest degree first, so that every chain m' -> m is
        built on demand."""
        exponents = list(iter_exponents(n, 0, min(DEGREES[n], 8)))
        table = oracle_values(random_spec(form, n, seed))
        for m in exponents:
            table[m]
        lazy = oracle_values(random_spec(form, n, seed))
        for m in reversed(exponents):
            assert lazy[m] == table[m]
        assert lazy == table

    def test_degree_zero_and_one(self):
        table = oracle_values(EigenSpec.multiplicative([F(1, 2), 2]))
        for m in iter_exponents(2, 0, 1):
            table[m]
        assert table == {(0, 0): 1, (1, 0): F(1, 2), (0, 1): 2}
        table = oracle_values(EigenSpec.multiplicative_base([1, -2], [F(3, 4), F(1, 2)]))
        assert table[(0, 0)] == (0, 0) and table[(2, 0)] == (2, F(1, 2))
        assert table[(1, 1)] == (-1, F(1, 4))


class TestScansAgainstOracle:
    @pytest.mark.parametrize("form,n,seed", CASES)
    def test_lattice(self, form, n, seed):
        spec = random_spec(form, n, seed)
        for D in (2, 3, DEGREES[n]):
            assert enumerate_lattice(spec, D) == oracle_enumerate_lattice(spec, D)

    @pytest.mark.parametrize("form,n,seed", [c for c in CASES if c[0] != "mult-base"])
    def test_exhaustive_bound(self, form, n, seed):
        spec = random_spec(form, n, seed)
        D = DEGREES[n]
        basis = enumerate_lattice(spec, D)
        bounds = []
        built = _bound_for(spec, basis)
        if built is not None and not isinstance(built.value, SymbolicBound):
            bounds.append(built.value)
        gap = verify_bound(spec, SmallDivisorBound("map", F(0)), D).min_gap
        if gap is not None:
            bounds += [gap, sqrt_value(_square_of(gap) * 4)]  # the exact minimum passes, twice it fails
        else:
            bounds.append(sqrt_value(F(2)))
        outcomes = set()
        for value in bounds:
            bound = SmallDivisorBound(kind="map", value=value)
            got = verify_bound(spec, bound, D)
            assert got == oracle_verify_bound(spec, bound, D)
            outcomes.add(got.passed)
        if gap is not None:
            assert outcomes == {True, False}

    @pytest.mark.parametrize("form,n,seed", [c for c in CASES if c[0] in ("mult-base", "gaussian")])
    def test_certificate(self, form, n, seed):
        spec = random_spec(form, n, seed)
        D = DEGREES[n]
        built = _bound_for(spec, enumerate_lattice(spec, D))
        if built is not None and (spec.kind == "mult-base" or isinstance(built.value, SymbolicBound)):
            cert = built.certificate
            assert verify_bound(spec, built, D) == oracle_verify_certificate(spec, built, D)
        else:
            rng = random.Random(f"table/cert/{form}/{n}/{seed}")
            a = spec.exponents or tuple(F(rng.randint(-4, 4), 2) for _ in range(n))
            b = spec.phases or tuple(F(rng.randint(0, 7), 8) for _ in range(n))
            # the replay scans the classes of the spectrum the certificate
            # describes: here the formal-base spectrum of (a, b)
            spec = EigenSpec.multiplicative_base(a, b)
            cert = {"base_exponents": a, "phases": b, "alpha_exp": F(1, 2),
                    "phase_group_order": 8, "sigma2": "phase-gap"}
        # inflated certificates: a coarser unit gap, a coarser phase gap, and
        # no phase term at all, each compared on its first failing pair
        variants = [
            cert,
            dict(cert, alpha_exp=cert["alpha_exp"] * 2),
            dict(cert, alpha_exp=cert["alpha_exp"] * 3),
            dict(cert, phase_group_order=1),
            dict(cert, phase_group_order=2),
            dict(cert, sigma2=None),
        ]
        symbolic = SymbolicBound(terms=())
        for variant in variants:
            bound = SmallDivisorBound(kind="map", value=symbolic, certificate=variant)
            got = verify_bound(spec, bound, D)
            assert got == oracle_verify_certificate(spec, bound, D)
            assert got.mode == "certificate" and got.witness is None

    def test_cases_reach_both_modes_and_resonances(self):
        """The seeded spectra are not all trivial: some carry real bounds in
        each mode, and some scans find resonances."""
        modes, resonant = set(), 0
        for form, n, seed in CASES:
            spec = random_spec(form, n, seed)
            basis = enumerate_lattice(spec, min(DEGREES[n], 8))
            resonant += bool(basis.exponents)
            built = _bound_for(spec, basis)
            if built is not None:
                modes.add(verify_bound(spec, built, min(DEGREES[n], 8)).mode)
        assert modes == {"exhaustive", "certificate"}
        assert resonant > len(CASES) // 2


def test_verify_bound_failure_is_first_in_graded_order():
    """An inflated field bound fails at the graded-lex first pair reaching the
    minimum gap, as the per-exponent scan reports it."""
    spec = EigenSpec.additive([1, -1])
    bound = small_divisor_bound_field(spec, enumerate_lattice(spec, 10))
    inflated = replace(bound, value=F(2))
    got = verify_bound(spec, inflated, 12)
    assert not got.passed and got == oracle_verify_bound(spec, inflated, 12)
    assert got.failure == got.witness == ((0, 2), 1)  # |-2 - (-1)| = 1


# -- one table per spec, filled in any order ---------------------------------------

ORDER_CASES = [(form, n, seed) for form in FORMS for n in (2, 3, 4) for seed in SEEDS]


def scattered(form, n, seed):
    """A seeded spec whose table already holds sparse lookups in random
    order, some above the scan degree, as a normalizer solve leaves it (a
    formal base has no table: its scans and resonance tests read the keys)."""
    spec = random_spec(form, n, seed)
    rng = random.Random(f"table/scatter/{form}/{n}/{seed}")
    pool = list(iter_exponents(n, 2, DEGREES[n] + 2))
    for m in rng.sample(pool, 40):
        if spec.has_exact_values():
            spec.table[m]
    return spec


def _order_bounds(spec, basis, D):
    """The constructed bound if any; for exact spectra also a zero bound
    (passes, with the exact minimum gap) and twice the minimum gap (fails at
    the witness); for a formal base without a bound, a certificate on the
    spec's own exponents and phases."""
    built = _bound_for(spec, basis)
    bounds = [] if built is None else [built]
    if spec.kind != "mult-base":
        zero = SmallDivisorBound("map", F(0))
        bounds.append(zero)
        gap = verify_bound(spec, zero, D).min_gap
        if gap is not None:
            bounds.append(SmallDivisorBound("map", sqrt_value(_square_of(gap) * 4)))
    elif built is None:
        cert = {"base_exponents": spec.exponents, "phases": spec.phases, "alpha_exp": F(1, 2),
                "phase_group_order": 8, "sigma2": "phase-gap"}
        bounds.append(SmallDivisorBound("map", SymbolicBound(terms=()), cert))
    return bounds


class TestTableOrderIndependence:
    @pytest.mark.parametrize("form,n,seed", ORDER_CASES)
    def test_scans_after_scattered_lookups(self, form, n, seed):
        D = DEGREES[n]
        spec = scattered(form, n, seed)
        basis = enumerate_lattice(spec, D)
        assert basis == enumerate_lattice(random_spec(form, n, seed), D)
        assert basis == oracle_enumerate_lattice(random_spec(form, n, seed), D)
        for bound in _order_bounds(random_spec(form, n, seed), basis, D):
            got = verify_bound(spec, bound, D)
            assert got == verify_bound(random_spec(form, n, seed), bound, D)
            oracle = (
                oracle_verify_certificate if got.mode == "certificate" else oracle_verify_bound
            )
            assert got == oracle(random_spec(form, n, seed), bound, D)

    @pytest.mark.parametrize("form,n,seed", ORDER_CASES)
    def test_resonance_after_scattered_lookups(self, form, n, seed):
        spec = scattered(form, n, seed)
        for m in iter_exponents(n, 0, 6):
            for j in (None, *range(n)):
                assert spec.resonant(m, j) == oracle_resonant(spec, m, j), (m, j)

    def test_spec_compares_and_hashes_by_its_fields(self):
        spec, fresh = scattered("gaussian", 3, 0), random_spec("gaussian", 3, 0)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert "table" not in repr(spec)
        assert spec.table is spec.table and fresh.table is not spec.table


# -- value classes where values repeat heavily ---------------------------------------

I = gaussian(0, 1)
REPEATING = {
    # roots of unity: at most four values
    "units-i": EigenSpec.multiplicative([I, -1, -I]),
    "units-minus": EigenSpec.multiplicative([-1, -1]),
    "units-4": EigenSpec.multiplicative([I, I, -1, -I]),
    # moduli powers of sqrt 2, phases 1/8-turns
    "gauss-8": EigenSpec.multiplicative([gaussian(1, 1), gaussian(1, -1) / 2, I]),
    "gauss-8-2": EigenSpec.multiplicative([gaussian(1, 1), gaussian(1, -1) / 2]),
    "gauss-8-4": EigenSpec.multiplicative([gaussian(1, 1), gaussian(1, -1) / 2, -1, I]),
    # formal base, phases of common denominator L = 8
    "base-8": EigenSpec.multiplicative_base([1, -1, 0], [F(1, 8), F(3, 8), F(1, 2)]),
    "base-8-2": EigenSpec.multiplicative_base([1, -1], [F(1, 8), F(3, 8)]),
    "base-8-4": EigenSpec.multiplicative_base([1, -1, 1, -2], [F(1, 8), F(7, 8), F(1, 4), F(1, 2)]),
    # additive with a zero eigenvalue
    "zero-add": EigenSpec.additive([0, 1, -1]),
    "zero-add-2": EigenSpec.additive([F(1, 2), 0]),
    "zero-only": EigenSpec.additive([0, 0]),
    "zero-add-4": EigenSpec.additive([0, I, -I, 2]),
}


def _base_of(spec):
    """(a, b): a formal base's own exponents and phases, else those of the
    exact multipliers (a = 0 when every modulus is 1)."""
    if spec.kind == "mult-base":
        return spec.exponents, spec.phases
    try:
        return _rational_to_base(spec.values)[1:]
    except HypothesisError:
        return (F(0),) * spec.n, tuple(map(_phase, spec.values))


def _certificates(spec):
    """Certificates on the spec's base: one with the finest unit and phase
    gaps (it passes every pair), then a doubled unit gap, a whole-turn phase
    gap and no phase term (each fails at its first offending pair)."""
    a, b = _base_of(spec)
    unit = F(1, lcm(*(x.denominator for x in a)))
    cert = {"base_exponents": a, "phases": b, "alpha_exp": unit,
            "phase_group_order": lcm(*(x.denominator for x in b)), "sigma2": "phase-gap"}
    variants = [cert, dict(cert, alpha_exp=2 * unit), dict(cert, phase_group_order=1),
                dict(cert, sigma2=None)]
    return [SmallDivisorBound("map", SymbolicBound(terms=()), c) for c in variants]


class TestRepeatedValues:
    @pytest.mark.parametrize("name", REPEATING)
    def test_classes_partition_the_scan(self, name):
        spec = REPEATING[name]
        D = DEGREES[spec.n]
        groups, values = spec.classes(D), oracle_values(spec)
        exponents = list(iter_exponents(spec.n, 2, D))
        assert 2 * len(groups) <= len(exponents)  # the values do repeat
        assert sorted(m for ms in groups.values() for m in ms) == sorted(exponents)
        position = {m: i for i, m in enumerate(exponents)}
        firsts = [position[ms[0]] for ms in groups.values()]
        assert firsts == sorted(firsts)
        for members in groups.values():
            assert [position[m] for m in members] == sorted(position[m] for m in members)
            assert all(values[m] == values[members[0]] for m in members)
        assert len({values[ms[0]] for ms in groups.values()}) == len(groups)
        assert spec.classes(D) is groups

    @pytest.mark.parametrize("name", REPEATING)
    def test_lattice(self, name):
        spec = REPEATING[name]
        for D in (2, 3, DEGREES[spec.n]):
            assert enumerate_lattice(spec, D) == oracle_enumerate_lattice(spec, D)

    @pytest.mark.parametrize("name", [k for k, s in REPEATING.items() if s.kind != "mult-base"])
    def test_exhaustive_zero_and_twice_the_gap(self, name):
        spec = REPEATING[name]
        D = DEGREES[spec.n]
        zero = SmallDivisorBound("map", F(0))
        got = verify_bound(spec, zero, D)
        assert got.passed and got == oracle_verify_bound(spec, zero, D)
        if got.min_gap is None:  # every divisor vanishes
            assert got.checked == 0 and name == "zero-only"
            return
        twice = SmallDivisorBound("map", sqrt_value(_square_of(got.min_gap) * 4))
        failed = verify_bound(spec, twice, D)
        assert failed == oracle_verify_bound(spec, twice, D)
        assert not failed.passed and failed.failure == failed.witness == got.witness

    @pytest.mark.parametrize("name", [k for k, s in REPEATING.items() if s.kind != "additive"])
    def test_certificate_pass_and_failures(self, name):
        spec = REPEATING[name]
        D = DEGREES[spec.n]
        outcomes = []
        for bound in _certificates(spec):
            got = verify_bound(spec, bound, D)
            assert got.mode == "certificate"
            assert got == oracle_verify_certificate(spec, bound, D)
            outcomes.append(got.passed)
        assert outcomes[0] and not all(outcomes)

    @pytest.mark.parametrize(
        "name", ["gauss-8", "gauss-8-2", "gauss-8-4", "base-8", "base-8-2", "zero-add", "zero-add-2"]
    )
    def test_constructed_bound(self, name):
        spec = REPEATING[name]
        D = DEGREES[spec.n]
        bound = _bound_for(spec, enumerate_lattice(spec, D))
        got = verify_bound(spec, bound, D)
        oracle = oracle_verify_certificate if got.mode == "certificate" else oracle_verify_bound
        assert got.passed and got == oracle(spec, bound, D)


# -- integer keys against the grouping by hashed values ------------------------------

KEY_CORNERS = {
    # torsion: roots of unity, 1/8-turn Gaussian phases, phases of order L = 8
    "roots-of-unity": EigenSpec.multiplicative([I, -1, -I, 1]),
    "eighth-turns": EigenSpec.multiplicative([gaussian(1, 1), gaussian(-1, 1) / 2, gaussian(0, F(1, 4))]),
    "phases-8": EigenSpec.multiplicative_base([1, -1, 2], [F(1, 8), F(5, 8), F(3, 4)]),
    # coprime bases: shared factors, perfect powers, 1 and -1, equal
    # multipliers, the split primes 2 + i and 2 - i (1 + 2i is an associate of
    # 2 - i) beside 5 = (2 + i)(2 - i), and the ramified 1 + i beside 2
    "shared-factors": EigenSpec.multiplicative([6, F(10, 3), F(1, 15)]),
    "perfect-powers": EigenSpec.multiplicative([4, F(1, 8), 2, F(16, 81)]),
    "one-and-minus-one": EigenSpec.multiplicative([1, -1, F(-2, 3)]),
    "equal-multipliers": EigenSpec.multiplicative([F(3, 2), F(3, 2), F(2, 3)]),
    "split-primes": EigenSpec.multiplicative([gaussian(2, 1), gaussian(2, -1), 5]),
    "associates": EigenSpec.multiplicative([gaussian(1, 2), gaussian(2, -1) / 5, gaussian(-2, 1)]),
    "ramified": EigenSpec.multiplicative([gaussian(2, 1) / gaussian(1, 1), gaussian(1, 1), F(1, 2)]),
    # an additive spectrum with a zero eigenvalue
    "zero-eigenvalue": EigenSpec.additive([0, gaussian(1, 1), -1, gaussian(0, -1)]),
}

# (spec, D) at the degree where a key slot first needs its full width
# 2 D max|r| + 1: with one less, two different values get one key there
FULL_WIDTH = {
    "additive": (EigenSpec.additive([1, -1, -1]), 2),
    "additive-gaussian": (EigenSpec.additive([gaussian(-2, -1), gaussian(0, 2), gaussian(0, -2)]), 2),
    "mult-base": (EigenSpec.multiplicative_base([-3, 3], [F(1, 2), F(1, 8)]), 3),
    "rational": (EigenSpec.multiplicative([6, F(1, 3), 3]), 2),
    "gaussian": (EigenSpec.multiplicative([gaussian(-1, F(1, 2)), F(1, 2), gaussian(0, -2)]), 3),
}


def _same_classes(spec, D):
    """The key-built classes equal the value grouping as lists: the same
    partition, members in the same order and classes in the same order."""
    return list(spec.classes(D).values()) == list(oracle_classes(spec, D).values())


class TestValueKeys:
    @pytest.mark.parametrize("form,n,seed", [c for c in CASES if c[1] > 1])
    def test_seeded(self, form, n, seed):
        spec = random_spec(form, n, seed)
        for D in (2, 3, DEGREES[n]):
            assert _same_classes(spec, D)

    @pytest.mark.parametrize("name", [*KEY_CORNERS, *REPEATING])
    def test_corners(self, name):
        spec = KEY_CORNERS.get(name) or REPEATING[name]
        for D in (2, 3, DEGREES[spec.n]):
            assert _same_classes(spec, D)

    @pytest.mark.parametrize("name", FULL_WIDTH)
    def test_full_slot_width(self, name):
        spec, D = FULL_WIDTH[name]
        assert _same_classes(spec, D) and _same_classes(spec, D + 1)

    def test_keys(self):
        """The integer coordinates: valuations over 2, 3 and 5; over the split
        primes 2 + i and 1 + 2i of 5, with 2 - i = i^3 (1 + 2i) and 5 =
        i^3 (2 + i)(1 + 2i); -1 is torsion of order 2 over Q."""
        rows, t, T = KEY_CORNERS["shared-factors"].keys
        assert sorted(rows) == sorted([[1, 1, 0], [1, -1, -1], [0, 1, -1]]) and T == 1
        rows, t, T = KEY_CORNERS["split-primes"].keys
        assert sorted(rows) == sorted([[1, 0, 1], [0, 1, 1]]) and (t, T) == ([0, 3, 3], 4)
        rows, t, T = KEY_CORNERS["associates"].keys
        assert len(rows) == 2 and T == 4 and t[0] != t[2]
        assert KEY_CORNERS["one-and-minus-one"].keys[1:] == ([0, 1, 1], 2)
        assert KEY_CORNERS["roots-of-unity"].keys == ([], [1, 2, 3, 0], 4)
        assert KEY_CORNERS["phases-8"].keys == ([[1, -1, 2]], [1, 5, 6], 8)

    def test_zero_key_is_the_resonant_class(self):
        for spec in KEY_CORNERS.values():
            found = spec.classes(DEGREES[spec.n]).get(0, [])
            assert found == [m for m in iter_exponents(spec.n, 2, DEGREES[spec.n])
                             if oracle_resonant(spec, m)]


# -- the enumerated rank against the algebraic rank ----------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestAlgebraicRank:
    @pytest.mark.parametrize("form,n,seed", [c for c in CASES if c[1] > 1])
    def test_enumerated_rank_is_at_most_the_algebraic(self, form, n, seed):
        spec = random_spec(form, n, seed)
        assert enumerate_lattice(spec, DEGREES[n]).rank <= oracle_algebraic_rank(spec)

    @pytest.mark.parametrize("form,n,seed", CASES)
    def test_kernel_rank_is_the_algebraic_rank(self, form, n, seed):
        """`EigenSpec.kernel_rank`, where the lattice rank's echelon stops, is
        the whole lattice's rank, at least the rank enumerated at any D."""
        spec = random_spec(form, n, seed)
        assert spec.kernel_rank == oracle_algebraic_rank(spec)
        for D in (2, 3, DEGREES[n]):
            assert enumerate_lattice(spec, D).rank <= spec.kernel_rank

    @pytest.mark.parametrize("name", [*KEY_CORNERS, *REPEATING])
    def test_corners_kernel_rank_is_the_algebraic_rank(self, name):
        spec = KEY_CORNERS.get(name) or REPEATING[name]
        assert spec.kernel_rank == oracle_algebraic_rank(spec)
        assert enumerate_lattice(spec, DEGREES[spec.n]).rank <= spec.kernel_rank

    @pytest.mark.parametrize("name", KEY_CORNERS)
    def test_corners_rank_is_at_most_the_algebraic(self, name):
        spec = KEY_CORNERS[name]
        assert enumerate_lattice(spec, DEGREES[spec.n]).rank <= oracle_algebraic_rank(spec)

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (2, 3, 4) for seed in SEEDS])
    def test_valuation_rank_is_the_prime_rank(self, n, seed):
        """Over Q the coprime base's valuation rows have the rank of the prime
        valuations of |mu_i| found by trial division."""
        spec = random_spec("rational", n, seed)
        factors = [oracle_factor_positive_rational(abs(F(mu))) for mu in spec.values]
        echelon = Echelon()
        for p in {p for f in factors for p in f}:
            echelon.add({i: f[p] for i, f in enumerate(factors) if p in f})
        assert oracle_algebraic_rank(spec) == n - echelon.rank

    @pytest.mark.parametrize(
        "fixture,rank",
        [("center.json", 1), ("degenerate_field.json", 1), ("ex2_3d_base.json", 2),
         ("ex2_2d.json", 1), ("ex2_3d.json", 2), ("halfdouble.json", 1)],
    )
    def test_fixtures_reach_the_algebraic_rank(self, fixture, rank):
        sf = parse_system(str(FIXTURES / fixture))
        assert enumerate_lattice(sf.eigen, sf.lattice_bound).rank == rank
        assert oracle_algebraic_rank(sf.eigen) == rank


# -- int triples and the integer scan against the Fraction table -------------------

EXACT_CASES = [c for c in CASES if c[0] != "mult-base"]


def _exhaustive_against_oracle(spec, D):
    """verify_bound equals the Fraction scan whole for a zero bound, for the
    exact minimum gap (a tie with the bound: passes), and for a bound just
    above it (fails at the witness)."""
    zero = SmallDivisorBound("map", F(0))
    got = verify_bound(spec, zero, D)
    assert got == oracle_verify_bound(spec, zero, D)
    if got.min_gap is None:
        return
    for value in (got.min_gap, sqrt_value(_square_of(got.min_gap) * F(1001, 1000) ** 2)):
        bound = SmallDivisorBound("map", value)
        checked = verify_bound(spec, bound, D)
        assert checked == oracle_verify_bound(spec, bound, D)
        assert checked.passed == (value == got.min_gap)


class TestIntegerTable:
    @pytest.mark.parametrize("form,n,seed", EXACT_CASES)
    def test_triples_are_the_fraction_values(self, form, n, seed):
        """(x + iy) / d is the oracle's value for every |m| <= D, with d > 0,
        and lookups in reverse order build the same triples."""
        spec, fresh = random_spec(form, n, seed), random_spec(form, n, seed)
        oracle = oracle_values(spec)
        exponents = list(iter_exponents(n, 0, DEGREES[n]))
        for m in exponents:
            assert spec.table[m][2] > 0 and triple_value(spec.table[m]) == oracle[m], m
        for m in reversed(exponents):
            assert fresh.table[m] == spec.table[m]

    @pytest.mark.parametrize("name", [k for k, s in {**KEY_CORNERS, **REPEATING}.items()
                                      if s.kind != "mult-base"])
    def test_corner_triples(self, name):
        spec = KEY_CORNERS.get(name) or REPEATING[name]
        oracle = oracle_values(spec)
        for m in iter_exponents(spec.n, 0, DEGREES[spec.n]):
            assert spec.table[m][2] > 0 and triple_value(spec.table[m]) == oracle[m], m

    def test_formal_base_has_no_table(self):
        with pytest.raises(HypothesisError):
            EigenSpec.multiplicative_base([1, -1], [F(1, 2), 0]).table

    @pytest.mark.parametrize("form,n,seed", EXACT_CASES)
    def test_exhaustive_scan_at_several_degrees(self, form, n, seed):
        spec = random_spec(form, n, seed)
        for D in sorted({2, 3, DEGREES[n] // 2, DEGREES[n]}):
            _exhaustive_against_oracle(spec, D)

    @pytest.mark.parametrize("name", [k for k, s in {**KEY_CORNERS, **REPEATING}.items()
                                      if s.kind != "mult-base"])
    def test_exhaustive_scan_on_corners(self, name):
        spec = KEY_CORNERS.get(name) or REPEATING[name]
        for D in (2, 3, DEGREES[spec.n]):
            _exhaustive_against_oracle(spec, D)

    @pytest.mark.parametrize("values", [[1, -1], [I, 1], [0, F(1, 2), -1]])
    def test_tied_minimum_keeps_the_first_witness(self, values):
        """Several pairs reach the minimum gap: the witness is the first of
        them in graded-lex order, as the Fraction scan finds it."""
        spec = EigenSpec.additive(values)
        D = DEGREES[spec.n]
        got = verify_bound(spec, SmallDivisorBound("map", F(0)), D)
        gaps = [sc_abs2(oracle_divisor(spec, m, j)) for m in iter_exponents(spec.n, 2, D)
                for j in range(spec.n)]
        assert gaps.count(_square_of(got.min_gap)) > 1
        _exhaustive_against_oracle(spec, D)

    @pytest.mark.parametrize("name", ["units-i", "gauss-8", "units-4"])
    def test_tied_minimum_on_multipliers(self, name):
        spec = REPEATING[name]
        D = DEGREES[spec.n]
        got = verify_bound(spec, SmallDivisorBound("map", F(0)), D)
        square = _square_of(got.min_gap)
        gaps = [sc_abs2(oracle_divisor(spec, m, j)) for m in iter_exponents(spec.n, 2, D)
                for j in range(spec.n) if oracle_divisor(spec, m, j) != 0]
        assert gaps.count(square) > 1
        _exhaustive_against_oracle(spec, D)
