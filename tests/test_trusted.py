"""The boundary between the validating public ScalarSeries constructor and
the trusted one the package uses for its own results, and the boundary
between packed parts and scalars."""

import json
from decimal import Decimal
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dulac import series as series_module
from dulac.integrals import pullback_integrals, search_integrals, verify_integral
from dulac.normalizer import FieldSystem, MapSystem, normalize, verify_conjugacy
from dulac.resonance import EigenSpec
from dulac.scalars import GaussianRational, gaussian
from dulac.series import (
    Powers,
    ScalarSeries,
    SeriesError,
    VectorSeries,
    _ZERO,
    compose,
    det_series,
    gradient,
    invert,
    unit_power,
)


class TestPublicConstructor:
    def test_wrong_exponent_length(self):
        with pytest.raises(SeriesError, match="length"):
            ScalarSeries(2, 3, {(1, 0, 0): 1})

    def test_negative_entry(self):
        with pytest.raises(SeriesError, match="negative"):
            ScalarSeries(2, 3, {(2, -1): 1})

    def test_degree_above_trunc(self):
        with pytest.raises(SeriesError, match="exceeds"):
            ScalarSeries(2, 3, {(2, 2): 1})

    def test_int_becomes_fraction_and_zero_is_dropped(self):
        s = ScalarSeries(2, 3, {(1, 0): 3, (0, 1): 0, (1, 1): F(0), (0, 2): F(1, 2)})
        assert s.coeffs == {(1, 0): F(3), (0, 2): F(1, 2)}
        assert type(s.coeffs[(1, 0)]) is F

    @pytest.mark.parametrize("coeff", [0.5, 1.0, "1", None, True, 1j])
    def test_coefficient_of_another_type(self, coeff):
        with pytest.raises(SeriesError, match="coefficient"):
            ScalarSeries(2, 3, {(1, 0): coeff})

    @pytest.mark.parametrize("m", [(True, 0), (0, False), (1.0, 0), ("1", 0)])
    def test_exponent_entry_of_another_type(self, m):
        with pytest.raises(SeriesError, match="non-integer"):
            ScalarSeries(2, 3, {m: 1})

    @pytest.mark.parametrize("c", [0.5, 2.0, True, False, Decimal("0.5"), Decimal(2)])
    def test_scale_refuses_a_scalar_of_another_type(self, c):
        with pytest.raises(SeriesError, match="scalar"):
            ScalarSeries.variable(2, 0, 3).scale(c)
        with pytest.raises(SeriesError, match="scalar"):
            VectorSeries.identity(2, 3).scale(c)
        with pytest.raises(SeriesError, match="scalar"):
            VectorSeries.diagonal_linear([c, 2], 3)

    def test_scale_takes_exact_scalars(self):
        y = ScalarSeries.variable(2, 0, 3)
        assert y.scale(2).coeffs == {(1, 0): F(2)} and type(y.scale(2).coeffs[(1, 0)]) is F
        assert y.scale(F(1, 2)).mul(ScalarSeries.one(2, 3)) == ScalarSeries(2, 3, {(1, 0): F(1, 2)})
        assert y.scale(gaussian(0, 1)).coeffs == {(1, 0): gaussian(0, 1)}
        assert VectorSeries.diagonal_linear([F(1, 2), 2], 3) == VectorSeries([y.scale(F(1, 2)), ScalarSeries.variable(2, 1, 3).scale(2)])

    @pytest.mark.parametrize("c", [0.1, 2.0, True, False, Decimal("0.5"), Decimal(2)])
    def test_eigenvalues_and_exponents_refuse_a_scalar_of_another_type(self, c):
        with pytest.raises(ValueError, match="eigenvalue"):
            EigenSpec.additive([c, 1])
        with pytest.raises(ValueError, match="eigenvalue"):
            EigenSpec.multiplicative([2, c])
        with pytest.raises(ValueError, match="exponent or phase"):
            EigenSpec.multiplicative_base([c, 1])
        with pytest.raises(ValueError, match="exponent or phase"):
            EigenSpec.multiplicative_base([1, -1], [0, c])
        with pytest.raises(SeriesError, match="exponent"):
            unit_power(ScalarSeries.variable(2, 0, 3), c)

    def test_eigenvalues_and_exponents_take_exact_scalars(self):
        assert EigenSpec.additive([F(1, 2), 1, gaussian(0, 1)]).values == (F(1, 2), F(1), gaussian(0, 1))
        assert EigenSpec.multiplicative_base([F(-1, 2), 1], [F(3, 2), 0]).phases == (F(1, 2), F(0))
        y = ScalarSeries.variable(1, 0, 3)
        assert unit_power(y, F(1, 2)).mul(unit_power(y, F(1, 2))) == y + 1
        assert unit_power(y, 2) == (y + 1).mul(y + 1)

    def test_trusted_constructor_owns_its_parts(self):
        parts = [_ZERO, (1, {1: 1}, {}), (3, {2: 1, 8: -2}, {5: 1}), _ZERO]
        s = ScalarSeries._make(2, 3, parts)
        assert s.parts is parts and len(parts) == 3  # the trailing zero part dropped
        assert s.coeffs == {(1, 0): F(1), (2, 0): F(1, 3), (0, 2): F(-2, 3), (1, 1): gaussian(0, F(1, 3))}


# -- every result the package builds keeps the invariants ----------------------------

DIM = 2
TRUNC = 4

scalars = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(
        gaussian,
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    ),
)


def series(min_degree=0):
    exponents = st.sampled_from(
        [(a, d - a) for d in range(min_degree, TRUNC + 1) for a in range(d + 1)]
    )
    return st.builds(
        lambda terms: ScalarSeries(DIM, TRUNC, terms), st.dictionaries(exponents, scalars, max_size=6)
    )


def assert_valid(s: ScalarSeries):
    """Canonical parts: one per degree through trunc, the last nonzero, each
    with a positive denominator, no zero numerator and content one, keyed
    with base trunc + 1 by exponents of its own degree."""
    base = s.trunc + 1
    assert len(s.parts) <= base
    assert not s.parts or s.parts[-1][1] or s.parts[-1][2]
    for d, (den, re, im) in enumerate(s.parts):
        assert type(den) is int and den > 0
        assert all(type(v) is int and v != 0 for v in [*re.values(), *im.values()])
        assert gcd(den, *re.values(), *im.values()) == 1
        for k in [*re, *im]:
            m = [k // base**i % base for i in range(s.n - 1)] + [k // base ** (s.n - 1)]
            assert k >= 0 and sum(m) == d
    for m, c in s.coeffs.items():
        assert len(m) == s.n and sum(m) <= s.trunc
        assert type(c) in (F, GaussianRational) and c != 0


def maps(min_degree):
    return st.lists(series(min_degree), min_size=DIM, max_size=DIM).map(VectorSeries)


SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(series(), series(), scalars, st.integers(0, TRUNC))
def test_arithmetic_results_are_valid(a, b, c, trunc):
    for result in (a.mul(b), a.mul(b, trunc), a + b, a - b, a - a, -a, a.scale(c), a.scale(0),
                   a.truncate(trunc), a.with_trunc(trunc), a.homogeneous_part(trunc), *gradient(a),
                   det_series([[a, b], [b, a]], trunc)):
        assert_valid(result)


@SETTINGS
@given(maps(0), maps(1), st.integers(0, TRUNC))
def test_compose_results_are_valid(outer, inner, trunc):
    for result in (compose(outer, inner), compose(outer, inner, trunc)):
        assert all(assert_valid(c) is None for c in result)
    assert_valid(Powers.of(inner, trunc).compose([outer[0]], trunc)[0])


@SETTINGS
@given(maps(2), st.integers(1, TRUNC))
def test_invert_results_are_valid(h, trunc):
    psi = invert(VectorSeries.identity(DIM, TRUNC) + h, trunc)
    assert psi.trunc == trunc
    for c in psi:
        assert_valid(c)


# -- scalars are built only where a series is read ------------------------------------


class _Refused(type):
    """A stand-in for a scalar type: instances of the real type still pass
    isinstance, but building one fails."""

    def __instancecheck__(cls, obj):
        return isinstance(obj, cls.real)

    def __call__(cls, *args, **kwargs):
        raise AssertionError(f"{cls.real.__name__} built in dulac.series")


def _ex2_3d():
    from dulac.cli import parse_system

    return parse_system(str(Path(__file__).resolve().parent.parent / "fixtures" / "ex2_3d.json")).system()


def _gaussian_field():
    """A resonant field over Q(i): lambda = (i, -i), so y1 y2 is an integral
    of the linear part and the normal form has resonant terms."""
    i = gaussian(0, 1)
    terms = [(0, (2, 0), gaussian(1, 2)), (0, (2, 1), F(1, 3)), (1, (1, 1), gaussian(F(-1, 2), 1)),
             (1, (1, 2), i), (0, (0, 3), F(2, 5))]
    return FieldSystem(EigenSpec.additive([i, -i]), VectorSeries.from_terms(2, 6, terms), 6)


@pytest.mark.parametrize("build", [_ex2_3d, _gaussian_field])
def test_scalars_are_built_only_at_the_boundary(build, monkeypatch):
    """Normalization, its verification, the integral search, the pullback and
    the integral residuals run on packed parts: `Fraction` and
    `GaussianRational` are never built in `series` on the way."""
    system = build()
    monkeypatch.setattr(series_module, "Fraction", _Refused("Fraction", (), {"real": F}))
    monkeypatch.setattr(series_module, "GaussianRational", _Refused("GaussianRational", (), {"real": GaussianRational}))
    result = normalize(system)
    assert verify_conjugacy(system, result).is_zero()
    found = search_integrals(system, system.order)
    pulled = pullback_integrals(found, result)
    assert found and all(verify_integral(v, system).is_zero() for v in found)
    assert len([verify_integral(v, system) for v in pulled]) == len(found)
    with pytest.raises(AssertionError, match="built in dulac.series"):
        result.phi.components[0].terms()


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _refused(name):
    def read(*args, **kwargs):
        raise AssertionError(f"{name} read between the report files")

    return read


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_reports_are_read_and_written_without_scalars(fixture, tmp_path, monkeypatch):
    """From `json.load` to the written report, series coefficients stay
    packed ints: normalize, classify, integrals and embed, each followed by
    `verify` of its report, build no `Fraction` or `GaussianRational` in
    `series`, read no series through `terms`, `coeffs` or `coeff`, and parse
    only the eigenvalues as scalars."""
    from dulac import cli

    eigen = json.loads((FIXTURES / fixture).read_text())["eigen"]
    parsed, scalar_from_json = [], cli.scalar_from_json
    monkeypatch.setattr(cli, "scalar_from_json", lambda data: parsed.append(data) or scalar_from_json(data))
    monkeypatch.setattr(series_module, "Fraction", _Refused("Fraction", (), {"real": F}))
    monkeypatch.setattr(series_module, "GaussianRational", _Refused("GaussianRational", (), {"real": GaussianRational}))
    monkeypatch.setattr(ScalarSeries, "terms", _refused("ScalarSeries.terms"))
    monkeypatch.setattr(ScalarSeries, "coeff", _refused("ScalarSeries.coeff"))
    monkeypatch.setattr(ScalarSeries, "coeffs", property(_refused("ScalarSeries.coeffs")))
    verified = 0
    for sub in ("normalize", "classify", "integrals", "embed"):
        rep = tmp_path / f"{sub}.json"
        code = cli.main([sub, "--input", str(FIXTURES / fixture), "--output", str(rep)])
        assert code in (0, 3)
        if code == 0:
            assert cli.main(["verify", "--input", str(rep), "--output", str(tmp_path / "verify.json")]) == 0
            verified += 1
    assert verified >= 1
    # each of the 4 runs and each verify parses the system's eigenvalues once
    assert parsed == eigen.get("values", []) * (4 + verified)
    with pytest.raises(AssertionError, match="read between the report files"):
        ScalarSeries.variable(2, 0, 3).terms()
