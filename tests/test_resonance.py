import ast
import dataclasses
import operator
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from dulac import resonance
from dulac.cli import _system_from_doc, parse_system
from dulac.errors import HypothesisError
from dulac.resonance import (
    BoundTerm,
    EigenSpec,
    LatticeBasis,
    RootValue,
    SmallDivisorBound,
    SymbolicBound,
    enumerate_lattice,
    small_divisor_bound_field,
    small_divisor_bound_map,
    sqrt_value,
    verify_bound,
    _finish_bound,
    _square_of,
)
from dulac.scalars import gaussian

from helpers import (
    oracle_divisor,
    oracle_enumerate_lattice,
    oracle_finish_bound,
    oracle_kappa,
    oracle_pivot_and_deltas,
    oracle_resonant,
    oracle_values,
    triple_value,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

HALF_DOUBLE = EigenSpec.multiplicative([F(1, 2), 2])
SADDLE = EigenSpec.additive([1, -1])


class TestResonanceTests:
    def test_map_first_integral_resonance(self):
        assert HALF_DOUBLE.resonant((1, 1), None)
        assert not HALF_DOUBLE.resonant((2, 1), None)

    def test_map_transformation_resonance(self):
        # component indices are 0-based
        assert HALF_DOUBLE.resonant((2, 1), 0)
        assert not HALF_DOUBLE.resonant((2, 0), 0)

    def test_field_resonance(self):
        assert SADDLE.resonant((1, 1), None)
        assert SADDLE.resonant((2, 1), 0)
        assert EigenSpec.additive([1, 0]).resonant((0, 5), None)

    def test_base_form_resonance(self):
        spec = EigenSpec.multiplicative_base([-5, 2, 1])
        assert spec.resonant((1, 2, 1), None)
        assert spec.resonant((2, 5, 0), None)
        assert not spec.resonant((1, 1, 1), None)

    def test_base_form_with_phases(self):
        # mu = (beta^1 * e^(pi i), beta^-1 * e^(pi i)): product resonant
        spec = EigenSpec.multiplicative_base([1, -1], [F(1, 2), F(1, 2)])
        assert spec.resonant((1, 1), None)
        assert not spec.resonant((2, 1), None)
        assert spec.resonant((2, 2), None)

    def test_divisor_values(self):
        assert oracle_values(HALF_DOUBLE)[(0, 2)] - HALF_DOUBLE.values[0] == F(7, 2)
        assert oracle_values(SADDLE)[(0, 2)] - SADDLE.values[0] == -3
        assert triple_value(HALF_DOUBLE.table[(0, 2)]) - HALF_DOUBLE.values[0] == F(7, 2)
        assert triple_value(SADDLE.table[(0, 2)]) - SADDLE.values[0] == -3
        assert oracle_divisor(HALF_DOUBLE, (0, 2), 0) == F(7, 2)


class TestLattice:
    def test_half_double(self):
        basis = enumerate_lattice(HALF_DOUBLE, 6)
        assert basis.rank == 1
        assert basis.generators == ((1, 1),)
        assert basis.exponents == ((1, 1), (2, 2), (3, 3))

    def test_three_dim_example(self):
        basis = enumerate_lattice(EigenSpec.multiplicative_base([-5, 2, 1]), 7)
        assert basis.rank == 2
        for m in [(1, 2, 1), (1, 1, 3), (1, 0, 5), (2, 5, 0)]:
            assert m in basis.exponents
        assert basis.generators == ((1, 2, 1), (1, 1, 3))
        assert basis.span_deficit == 0

    def test_poincare_domain_is_empty(self):
        basis = enumerate_lattice(EigenSpec.additive([1, 2]), 8)
        assert basis.rank == 0 and basis.generators == ()

    def test_rank_monotone_in_bound(self):
        spec = EigenSpec.multiplicative_base([-5, 2, 1])
        ranks = [enumerate_lattice(spec, D).rank for D in range(2, 9)]
        assert ranks == sorted(ranks)
        assert ranks[-1] == 2

    def test_rank_stabilizes_by_degree_seven(self):
        assert enumerate_lattice(EigenSpec.multiplicative_base([-5, 2, 1]), 7).rank == 2
        assert enumerate_lattice(HALF_DOUBLE, 7).rank == 1

    def test_generators_satisfy_resonance_and_primitivity(self):
        import random
        from math import gcd

        rng = random.Random(2)
        specs = [
            EigenSpec.multiplicative([F(1, 2), 2]),
            EigenSpec.multiplicative([F(1, 4), 2]),
            EigenSpec.multiplicative([8, F(1, 2)]),
            EigenSpec.additive([2, -3]),
            EigenSpec.additive([1, 0]),
            EigenSpec.additive([F(1, 3), F(-1, 3)]),
            EigenSpec.multiplicative([gaussian(0, 1), gaussian(0, 1)]),
        ]
        for spec in specs:
            basis = enumerate_lattice(spec, 9)
            for gen in basis.generators:
                assert oracle_resonant(spec, gen)
                if gen not in basis.non_simple:
                    assert gcd(*gen) == 1

    def test_degenerate_field_gets_degree_one_generator(self):
        basis = enumerate_lattice(EigenSpec.additive([1, 0]), 6)
        assert basis.rank == 1
        assert basis.generators == ((0, 1),)

    def test_torsion_fallback_is_flagged(self):
        spec = EigenSpec.multiplicative([F(-1, 2), 2])
        basis = enumerate_lattice(spec, 8)
        assert basis.rank == 1
        assert basis.generators == ((2, 2),)
        assert basis.non_simple == ((2, 2),)
        assert basis.span_deficit == 0


class TestMapBound:
    def test_half_double_value(self):
        basis = enumerate_lattice(HALF_DOUBLE, 10)
        bound = small_divisor_bound_map(HALF_DOUBLE, basis)
        assert bound.value == F(1, 4)
        cert = bound.certificate
        assert cert["Delta"] == 1
        assert cert["delta"] == (-1, 1)
        assert cert["base"] == 2

    def test_half_double_exhaustive_minimum(self):
        basis = enumerate_lattice(HALF_DOUBLE, 10)
        bound = small_divisor_bound_map(HALF_DOUBLE, basis)
        ver = verify_bound(HALF_DOUBLE, bound, 12)
        assert ver.passed
        assert ver.min_gap == F(1, 4)
        assert ver.witness == ((2, 0), 0)

    def test_unit_moduli_rejected(self):
        spec = EigenSpec.multiplicative([1, -1])
        basis = enumerate_lattice(spec, 6)
        with pytest.raises(HypothesisError):
            small_divisor_bound_map(spec, basis)

    def test_rank_deficit_rejected(self):
        spec = EigenSpec.multiplicative([2, 3])
        basis = enumerate_lattice(spec, 6)
        with pytest.raises(HypothesisError):
            small_divisor_bound_map(spec, basis)

    def test_symbolic_base_bound(self):
        spec = EigenSpec.multiplicative_base([-5, 2, 1])
        basis = enumerate_lattice(spec, 7)
        bound = small_divisor_bound_map(spec, basis)
        assert isinstance(bound.value, SymbolicBound)
        assert bound.value.beta is None
        ver = verify_bound(spec, bound, 8)
        assert ver.passed and ver.mode == "certificate"

    def test_negative_multiplier_phases(self):
        spec = EigenSpec.multiplicative([F(-1, 2), 2])
        basis = enumerate_lattice(spec, 8)
        bound = small_divisor_bound_map(spec, basis)
        assert bound.certificate["phases"] == (F(1, 2), F(0))
        assert bound.certificate["phase_group_order"] == 2
        assert verify_bound(spec, bound, 10).passed

    def test_gaussian_multipliers(self):
        # mu = (2i, 1/(2i)) = (2i, -i/2): moduli (2, 1/2), phases (1/4, 3/4)
        spec = EigenSpec.multiplicative([gaussian(0, 2), gaussian(0, F(-1, 2))])
        basis = enumerate_lattice(spec, 8)
        assert basis.rank == 1
        bound = small_divisor_bound_map(spec, basis)
        assert bound.certificate["phases"] == (F(1, 4), F(3, 4))
        assert verify_bound(spec, bound, 8).passed

    def test_multi_prime_base_extraction_is_tight(self):
        # moduli 2/3 and 3/2 share the base 3/2; the bound 2/9 is attained
        spec = EigenSpec.multiplicative([F(2, 3), F(3, 2)])
        basis = enumerate_lattice(spec, 8)
        bound = small_divisor_bound_map(spec, basis)
        assert bound.certificate["base"] == F(3, 2)
        assert bound.value == F(2, 9)
        ver = verify_bound(spec, bound, 10)
        assert ver.passed and ver.min_gap == F(2, 9)

    def test_gaussian_phase_bound_evaluates_rational(self):
        # mu = (2i, -i/2): phase group of order 4, sigma still rational
        spec = EigenSpec.multiplicative([gaussian(0, 2), gaussian(0, F(-1, 2))])
        basis = enumerate_lattice(spec, 8)
        bound = small_divisor_bound_map(spec, basis)
        assert bound.certificate["phase_group_order"] == 4
        assert bound.value == F(1, 4)
        assert verify_bound(spec, bound, 10).passed

    def test_eighth_turn_phases_stay_symbolic(self):
        # mu = (1+i, (1-i)/2): phases 1/8 and 7/8, gap 2 sin(pi/8) kept symbolic
        spec = EigenSpec.multiplicative([gaussian(1, 1), gaussian(F(1, 2), F(-1, 2))])
        basis = enumerate_lattice(spec, 8)
        assert basis.rank == 1
        bound = small_divisor_bound_map(spec, basis)
        assert isinstance(bound.value, SymbolicBound)
        assert bound.certificate["phase_group_order"] == 8
        ver = verify_bound(spec, bound, 9)
        assert ver.passed and ver.mode == "certificate"

    def test_base_form_bound_with_phases(self):
        # lattice {(3k,3k)}: Delta = 3, phase group of order 3
        spec = EigenSpec.multiplicative_base([1, -1], [F(1, 3), F(1, 3)])
        basis = enumerate_lattice(spec, 8)
        assert basis.generators == ((3, 3),)
        bound = small_divisor_bound_map(spec, basis)
        assert bound.certificate["Delta"] in (3, -3)
        assert bound.certificate["phase_group_order"] == 3
        assert verify_bound(spec, bound, 9).passed

    def test_bound_below_every_gap_randomized(self):
        import random

        rng = random.Random(9)
        for _ in range(12):
            rho = F(rng.choice([2, 3, 5]))
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            sgn = rng.choice([1, -1])
            spec = EigenSpec.multiplicative([sgn * rho ** b, rho ** -a])
            basis = enumerate_lattice(spec, 8)
            if basis.rank != 1 or len(basis.generators) != 1:
                continue
            bound = small_divisor_bound_map(spec, basis)
            assert verify_bound(spec, bound, 9).passed


def assert_certificate_matches_cramer(bound, K, n):
    cert = bound.certificate
    c, Delta, delta = oracle_pivot_and_deltas(K, n)
    assert (cert["pivot"], cert["Delta"], cert["delta"]) == (c, Delta, tuple(delta))
    assert type(cert["Delta"]) is int
    assert cert["alpha_exp"] == cert["base_exponents"][c] / Delta


def catalogue_spectra(kind):
    """(spectrum, degree D) of every fixture and every spectrum of the
    benchmark's `lattice` catalogue of the kind ("map" or "field"), one
    pytest param each."""
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        sf = parse_system(str(path))
        if sf.kind == kind:
            out.append(pytest.param(sf.eigen, sf.lattice_bound, id=path.name))
    for op in workloads.catalogue("lattice"):
        sf = _system_from_doc(op.system, op.key)
        if sf.kind == kind:
            out.append(pytest.param(sf.eigen, sf.lattice_bound, id=op.key))
    return out


def lattice_catalogue_spectra():
    """(spectrum, degree D) of entry 0 of every class of the benchmark's
    `lattice` catalogue: all three forms, at the degrees it runs."""
    out = []
    for klass in workloads.WORKLOADS["lattice"]:
        op = workloads.catalogue_entry("lattice", klass, 0)
        sf = _system_from_doc(op.system, op.key)
        out.append(pytest.param(sf.eigen, sf.lattice_bound, id=op.key))
    return out


class TestLatticeRankFromCandidates:
    """The rank comes from the distinct generator candidates alone; the old
    loop put every resonant exponent into the echelon (helpers)."""

    @pytest.mark.parametrize("spec,D", lattice_catalogue_spectra())
    def test_rank_and_span_deficit_as_before(self, spec, D):
        got, want = enumerate_lattice(spec, D), oracle_enumerate_lattice(spec, D)
        assert (got.rank, got.span_deficit) == (want.rank, want.span_deficit)
        assert got == want


class TestMapBoundKernelRoute:
    """The map bound reads its pivot c, minor Delta and relations delta off
    one elimination; Cramer's rule over dense determinants is the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_rank_deficient_matrices(self, n):
        rng = random.Random(f"cramer-{n}")
        cases = 0
        while cases < 250:
            K = [[rng.choice([0, rng.randint(-4, 4)]) for _ in range(n)] for _ in range(n - 1)]
            try:
                _, _, delta = oracle_pivot_and_deltas(K, n)
            except ValueError:
                continue  # rank below n-1
            # exponents on the kernel line, with phases: a mult-base spectrum
            t = F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
            L = rng.choice([1, 2, 4, 8])
            spec = EigenSpec.multiplicative_base(
                [t * d for d in delta], [F(rng.randrange(L), L) for _ in range(n)]
            )
            basis = LatticeBasis(
                kind="map", n=n, bound=2, exponents=(), rank=n - 1,
                generators=tuple(tuple(row) for row in K),
            )
            assert_certificate_matches_cramer(small_divisor_bound_map(spec, basis), K, n)
            cases += 1

    @pytest.mark.parametrize("spec,D", catalogue_spectra("map"))
    def test_fixtures_and_lattice_catalogue(self, spec, D):
        basis = enumerate_lattice(spec, D)
        if not basis.rank_ok:
            with pytest.raises(HypothesisError, match="rank n-1"):
                small_divisor_bound_map(spec, basis)
            return
        bound = small_divisor_bound_map(spec, basis)
        assert_certificate_matches_cramer(bound, basis.matrix(), spec.n)


class TestFieldBound:
    def test_saddle(self):
        basis = enumerate_lattice(SADDLE, 10)
        bound = small_divisor_bound_field(SADDLE, basis)
        assert bound.value == 1
        ver = verify_bound(SADDLE, bound, 12)
        assert ver.passed and ver.min_gap == 1

    def test_two_to_one_ratio(self):
        spec = EigenSpec.additive([2, -1])
        bound = small_divisor_bound_field(spec, enumerate_lattice(spec, 8))
        assert bound.value == 1
        assert verify_bound(spec, bound, 12).passed

    def test_scale_covariance(self):
        spec = EigenSpec.additive([F(1, 3), F(-1, 3)])
        bound = small_divisor_bound_field(spec, enumerate_lattice(spec, 8))
        assert bound.value == F(1, 3)
        ver = verify_bound(spec, bound, 12)
        assert ver.passed and ver.min_gap == F(1, 3)

    def test_gaussian_eigenvalues_give_root_value(self):
        spec = EigenSpec.additive([gaussian(1, 1), gaussian(-1, -1)])
        basis = enumerate_lattice(spec, 8)
        bound = small_divisor_bound_field(spec, basis)
        assert isinstance(bound.value, RootValue)
        assert bound.value.square == 2
        assert verify_bound(spec, bound, 10).passed

    def test_zero_eigenvalues_rejected(self):
        spec = EigenSpec.additive([0, 0])
        basis = enumerate_lattice(spec, 4)
        with pytest.raises(HypothesisError):
            small_divisor_bound_field(spec, basis)

    def test_inflated_bound_fails_with_witness(self):
        basis = enumerate_lattice(SADDLE, 10)
        bound = small_divisor_bound_field(SADDLE, basis)
        inflated = SmallDivisorBound(kind="field", value=F(2), certificate=bound.certificate)
        ver = verify_bound(SADDLE, inflated, 12)
        assert not ver.passed
        assert ver.failure is not None
        m, j = ver.failure
        assert oracle_divisor(SADDLE, m, j) != 0


class TestExactValues:
    def test_sqrt_value_collapses(self):
        assert sqrt_value(F(9, 4)) == F(3, 2)
        assert isinstance(sqrt_value(F(2)), RootValue)

    def test_root_value_comparisons(self):
        """A root is a record of its square: equal squares, equal (and equally
        hashed) roots; never equal to a rational; no order or arithmetic."""
        r2 = sqrt_value(F(2))
        assert r2 == sqrt_value(F(4, 2)) == RootValue(F(2)) and hash(r2) == hash(RootValue(F(2)))
        assert r2 != sqrt_value(F(3)) and r2 != 2 and r2 != F(2)
        assert r2.square == 2 and str(r2) == "sqrt(2)"
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(r2, 2)
            with pytest.raises(TypeError):
                op(r2, r2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r2.square = F(3)
        for square in (F(0), F(-2)):
            with pytest.raises(ValueError, match="radicand must be positive"):
                RootValue(square)


# -- bound values from their squares, against the value algebra they replaced -------

# bases > 1: perfect powers and primitive ones
SQUARE_BASES = [F(4), F(9, 4), F(27, 8), F(2), F(3, 2), F(10, 3)]
# each exact phase gap, and inexact ones
PHASE_GAPS = [F(1, 2), F(1, 3), F(1, 4), F(1, 6), F(1, 5), F(1, 8)]


def random_terms(rng):
    """One unit-gap term and sometimes a phase-gap term, each with its own
    integer, half-integer or third exponent; the unit gap is drawn the same
    way (its absolute value, 1 for 0)."""

    def exponent():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 2, 3]))

    terms = [BoundTerm(beta_exp=exponent(), kind="unit-gap", param=abs(exponent()) or F(1))]
    if rng.random() < 0.6:
        terms.append(BoundTerm(beta_exp=exponent(), kind="phase-gap", param=rng.choice(PHASE_GAPS)))
    return terms


class TestBoundsFromSquares:
    """`_finish_bound` takes the least term square and builds its root once;
    the oracle multiplies exact values (helpers.oracle_finish_bound)."""

    @pytest.mark.parametrize("beta", SQUARE_BASES + [None], ids=str)
    def test_seeded_terms(self, beta):
        rng = random.Random(f"bound-squares/{beta}")
        kinds = set()
        for _ in range(300):
            terms = random_terms(rng)
            got, want = _finish_bound("map", terms, beta, {}), oracle_finish_bound("map", terms, beta, {})
            assert got == want and type(got.value) is type(want.value), terms
            kinds.add(type(got.value).__name__)
        assert kinds == ({"SymbolicBound"} if beta is None else {"Fraction", "RootValue", "SymbolicBound"})

    def test_every_exact_phase_gap(self):
        for beta in SQUARE_BASES:
            for d, square in [(F(1, 2), 4), (F(1, 3), 3), (F(1, 4), 2), (F(1, 6), 1)]:
                for c in (F(0), F(1), F(-1, 2), F(3, 2)):
                    term = BoundTerm(beta_exp=c, kind="phase-gap", param=d)
                    got = _finish_bound("map", [term], beta, {}).value
                    assert _square_of(got) == beta ** int(2 * c) * square
                    assert got == oracle_finish_bound("map", [term], beta, {}).value

    @pytest.mark.parametrize("spec,D", catalogue_spectra("map"))
    def test_map_spectra(self, monkeypatch, spec, D):
        basis = enumerate_lattice(spec, D)
        if not basis.rank_ok:
            return
        got = small_divisor_bound_map(spec, basis)
        monkeypatch.setattr(resonance, "_finish_bound", oracle_finish_bound)
        assert got == small_divisor_bound_map(spec, basis)

    @pytest.mark.parametrize("spec,D", catalogue_spectra("field"))
    def test_field_spectra(self, spec, D):
        basis = enumerate_lattice(spec, D)
        if not basis.rank_ok or all(v == 0 for v in spec.values):
            return
        got = small_divisor_bound_field(spec, basis)
        want = oracle_kappa(spec, got.certificate)
        assert got.value == want and type(got.value) is type(want)


# -- a root is built once and has no algebra -----------------------------------------

ROOT_ALGEBRA = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__pow__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__",
}


def _qualified_nodes(tree, module):
    """(module.function or module.Class.method, node) for every node of the
    module, with "module" alone for nodes outside every function."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield from ((f"{module}.{top.name}", x) for x in ast.walk(top))
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                name = f"{module}.{top.name}" + (f".{item.name}" if isinstance(item, ast.FunctionDef) else "")
                yield from ((name, x) for x in ast.walk(item))
        else:
            yield from ((module, x) for x in ast.walk(top))


def test_root_values_are_built_only_by_sqrt_value():
    """In src/dulac only `resonance.sqrt_value` calls RootValue, and
    RootValue defines no arithmetic or order of its own: every bound is
    compared on its square."""
    callers = set()
    for path in sorted(Path(resonance.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for where, node in _qualified_nodes(tree, path.stem):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "RootValue":
                callers.add(where)
    assert callers == {"resonance.sqrt_value"}
    cls = next(n for n in ast.parse(Path(resonance.__file__).read_text()).body
               if isinstance(n, ast.ClassDef) and n.name == "RootValue")
    defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    defined |= {t.id for n in cls.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    assert not defined & ROOT_ALGEBRA
    assert all(getattr(RootValue, m, None) in (None, getattr(object, m, None)) for m in ROOT_ALGEBRA)
