"""The boundary between the validating public ScalarSeries constructor and
the trusted one the package uses for its own results."""

from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dulac.scalars import GaussianRational, gaussian
from dulac.series import ScalarSeries, SeriesError, VectorSeries, compose, compose_scalar, invert


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
        assert VectorSeries.diagonal_linear([F(1, 2), 2], 3).linear_matrix() == [[F(1, 2), 0], [0, 2]]

    def test_trusted_constructor_keeps_its_dict(self):
        coeffs = {(1, 0): F(1)}
        assert ScalarSeries._make(2, 3, coeffs).coeffs is coeffs


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
    for m, c in s.coeffs.items():
        assert len(m) == s.n and all(isinstance(e, int) and e >= 0 for e in m)
        assert sum(m) <= s.trunc
        assert isinstance(c, (F, GaussianRational)) and c != 0


def maps(min_degree):
    return st.lists(series(min_degree), min_size=DIM, max_size=DIM).map(VectorSeries)


SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(series(), series(), scalars, st.integers(0, TRUNC))
def test_arithmetic_results_are_valid(a, b, c, trunc):
    for result in (a.mul(b), a.mul(b, trunc), a + b, a - b, a - a, -a, a.scale(c), a.scale(0),
                   a.truncate(trunc), a.with_trunc(trunc), a.homogeneous_part(trunc), a.diff(0)):
        assert_valid(result)


@SETTINGS
@given(maps(0), maps(1), st.integers(0, TRUNC))
def test_compose_results_are_valid(outer, inner, trunc):
    for result in (compose(outer, inner), compose(outer, inner, trunc)):
        assert all(assert_valid(c) is None for c in result)
    assert_valid(compose_scalar(outer[0], inner, trunc))


@SETTINGS
@given(maps(2), st.integers(1, TRUNC))
def test_invert_results_are_valid(h, trunc):
    psi = invert(VectorSeries.identity(DIM, TRUNC) + h, trunc)
    assert psi.trunc == trunc
    for c in psi:
        assert_valid(c)
