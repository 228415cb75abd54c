"""Every public series operation against the Fraction-dict arithmetic it
replaced (helpers), over Q and Q(i), on seeded Hypothesis inputs.  The
operands of one operation carry different truncation degrees, so their
packed keys have different bases and every result goes through re-keying."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dict_add,
    dict_compose,
    dict_det,
    dict_diff,
    dict_invert,
    dict_mat_vec,
    dict_mul,
    dict_scale,
    dict_truncate,
    dict_unit_power,
    mat_vec,
    oracle_gradient,
    oracle_jacobian,
    scalar_inner,
)

from dulac.resonance import iter_exponents
from dulac.scalars import gaussian
from dulac.series import (
    ScalarSeries,
    SeriesError,
    VectorSeries,
    compose,
    det_series,
    gradient,
    invert,
    jacobian,
    lie_derivative,
    unit_power,
)

TOP = 5
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
scalars = st.one_of(rationals, st.builds(gaussian, rationals, rationals))
nonzero = scalars.filter(lambda c: c != 0)


@st.composite
def dicts(draw, n, trunc, low=0, gaussian_ok=True, max_size=6):
    """An exponent -> scalar dict of degrees low..trunc, zeros dropped."""
    exponents = list(iter_exponents(n, low, trunc))
    if not exponents:
        return {}
    coeffs = scalars if gaussian_ok else rationals
    d = draw(st.dictionaries(st.sampled_from(exponents), coeffs, max_size=max_size))
    return {m: c for m, c in d.items() if c != 0}


@st.composite
def operands(draw, k=2, low=0):
    """n, then k (trunc, dict) operands, each with its own truncation
    degree."""
    n = draw(st.integers(1, 3))
    truncs = draw(st.lists(st.integers(0, TOP), min_size=k, max_size=k))
    gaussian_ok = draw(st.booleans())
    return n, [(t, draw(dicts(n, t, low, gaussian_ok))) for t in truncs]


def same(series, trunc, want):
    """The series is `want` through `trunc`, scalar types included."""
    got = series.coeffs
    assert series.trunc == trunc and got == want
    assert all(type(got[m]) is type(want[m]) for m in got)


@SETTINGS
@given(operands(), nonzero, st.integers(0, TOP + 2))
def test_ring_operations(ops, c, t):
    n, [(ta, da), (tb, db)] = ops
    a, b = ScalarSeries(n, ta, da), ScalarSeries(n, tb, db)
    low = min(ta, tb)
    same(a + b, low, dict_add(da, db, low))
    same(a - b, low, dict_add(da, db, low, -1))
    same(-a, ta, dict_scale(da, -1))
    same(a.scale(c), ta, dict_scale(da, c))
    same(a.mul(b), low, dict_mul(da, db, low))
    same(a.mul(b, t), t, dict_mul(da, db, t))
    for i, g in enumerate(gradient(a)):
        same(g, max(ta - 1, 0), dict_diff(da, i))


@SETTINGS
@given(operands(k=1), st.integers(0, TOP + 2))
def test_structure(ops, t):
    n, [(ta, da)] = ops
    a = ScalarSeries(n, ta, da)
    same(a.with_trunc(t), t, dict_truncate(da, t))
    if t <= ta:
        same(a.truncate(t), t, dict_truncate(da, t))
    same(a.homogeneous_part(t), ta, {m: c for m, c in da.items() if sum(m) == t})
    for comp in VectorSeries([a] * n).strip_low(t):
        same(comp, ta, {m: c for m, c in da.items() if sum(m) >= t})
    # equality and hashing are blind to the truncation degree
    top = max((sum(m) for m in da), default=0)
    for u in range(top, TOP + 3):
        assert a.with_trunc(u) == a and hash(a.with_trunc(u)) == hash(a)
    assert a == ScalarSeries(n, TOP + 2, da)


@st.composite
def maps(draw, low, tangent=False):
    """n, an outer map and an inner map without constant term (or a
    tangent-to-identity map), of different truncation degrees."""
    n = draw(st.integers(1, 3))
    gaussian_ok = draw(st.booleans())
    to, ti = draw(st.integers(1, TOP)), draw(st.integers(1, TOP))
    outer = [draw(dicts(n, to, 0, gaussian_ok, 4)) for _ in range(n)]
    inner = [draw(dicts(n, ti, low, gaussian_ok, 4)) for _ in range(n)]
    if tangent:
        inner = [dict_add(h, {tuple(int(k == i) for k in range(n)): F(1)}, ti) for i, h in enumerate(inner)]
    return n, (to, outer), (ti, inner)


def vector(n, trunc, comps):
    return VectorSeries([ScalarSeries(n, trunc, d) for d in comps])


@SETTINGS
@given(maps(low=1), st.integers(0, TOP))
def test_compose(case, t):
    n, (to, outer), (ti, inner) = case
    low = min(to, ti)
    got = compose(vector(n, to, outer), vector(n, ti, inner))
    for comp, want in zip(got, outer):
        same(comp, low, dict_compose(want, inner, low))
    if t <= ti:
        got = compose(vector(n, to, outer), vector(n, ti, inner), t)
        for comp, want in zip(got, outer):
            same(comp, t, dict_compose(want, inner, t))


@SETTINGS
@given(maps(low=2, tangent=True), st.integers(1, TOP))
def test_invert(case, t):
    n, _, (tp, phi) = case
    psi = invert(vector(n, tp, phi))
    for comp, want in zip(psi, dict_invert(phi, tp)):
        same(comp, tp, want)
    if t <= tp:
        for comp, want in zip(invert(vector(n, tp, phi), t), dict_invert(phi, t)):
            same(comp, t, want)


@st.composite
def matrices(draw, square_of_n=False):
    """n and a k x k matrix of (trunc, dict) entries of mixed truncation
    degrees, k = n when square_of_n."""
    n = draw(st.integers(1, 3))
    k = n if square_of_n else draw(st.integers(1, 3))
    gaussian_ok = draw(st.booleans())
    M = []
    for _ in range(k):
        truncs = draw(st.lists(st.integers(0, TOP), min_size=k, max_size=k))
        M.append([(t, draw(dicts(n, t, 0, gaussian_ok, 3))) for t in truncs])
    return n, M


@SETTINGS
@given(matrices())
def test_det_series(case):
    n, M = case
    low = min(t for row in M for t, _ in row)
    got = det_series([[ScalarSeries(n, t, d) for t, d in row] for row in M])
    same(got, low, dict_det([[d for _, d in row] for row in M], n, low))


@SETTINGS
@given(matrices(square_of_n=True), st.data())
def test_mat_vec(case, data):
    n, M = case
    X = [data.draw(dicts(n, TOP, 0, True, 3)) for _ in range(n)]
    tx = data.draw(st.integers(0, TOP))
    low = min([tx] + [t for row in M for t, _ in row])
    got = mat_vec([[ScalarSeries(n, t, d) for t, d in row] for row in M], vector(n, TOP, X).truncate(tx))
    for comp, want in zip(got, dict_mat_vec([[d for _, d in row] for row in M], X, low)):
        same(comp, low, want)


@st.composite
def fields(draw):
    """n = 1..4, a series V and a vector W of n series, both through one
    truncation degree, and a field X, constant terms allowed, through
    another, all over Q or all over Q(i)."""
    n = draw(st.integers(1, 4))
    gaussian_ok = draw(st.booleans())
    tv, tx = draw(st.integers(0, TOP)), draw(st.integers(0, TOP))
    V = draw(dicts(n, tv, 0, gaussian_ok, 4))
    W = [draw(dicts(n, tv, 0, gaussian_ok, 3)) for _ in range(n)]
    X = [draw(dicts(n, tx, 0, gaussian_ok, 3)) for _ in range(n)]
    return n, tv, V, W, tx, X


@SETTINGS
@given(fields(), st.integers(0, TOP))
def test_lie_derivative(case, t):
    """<grad V, X> and DW * X against the dict oracle and the Jacobian and
    gradient products they replace, at the default truncation and at an
    explicit one (a constant term of X, as in the intertwining residual
    below the system order, included)."""
    n, tv, V, W, tx, X = case
    Vs, Ws, Xs = ScalarSeries(n, tv, V), vector(n, tv, W), vector(n, tx, X)
    for trunc, top in ((None, min(max(tv - 1, 0), tx)), (t, t)):
        want = dict_mat_vec([[dict_diff(v, i) for i in range(n)] for v in [V] + W], X, top)
        got = lie_derivative(Vs, Xs, trunc)
        same(got, top, want[0])
        oracle = scalar_inner(oracle_gradient(Vs), Xs, trunc)
        assert got == oracle and got.trunc == oracle.trunc
        got = lie_derivative(Ws, Xs, trunc)
        for comp, w in zip(got, want[1:]):
            same(comp, top, w)
        assert got == mat_vec(oracle_jacobian(Ws), Xs, trunc) and got.trunc == top
    for row, w in zip(jacobian(Ws), W):
        for i, entry in enumerate(row):
            same(entry, max(tv - 1, 0), dict_diff(w, i))


def test_lie_derivative_refuses_a_dimension_mismatch():
    X = VectorSeries.identity(3, 4)
    with pytest.raises(SeriesError, match="dimension mismatch"):
        lie_derivative(ScalarSeries.variable(2, 0, 4), X)
    with pytest.raises(SeriesError, match="dimension mismatch"):
        lie_derivative(VectorSeries.identity(2, 4), X)


@SETTINGS
@given(operands(k=1, low=1), st.sampled_from([2, -1, 3, F(1, 2), F(-1, 3), F(5, 2), 0]), st.integers(0, TOP))
def test_unit_power(ops, r, t):
    n, [(tu, du)] = ops
    u = ScalarSeries(n, tu, du)
    same(unit_power(u, r), tu, dict_unit_power(du, r, n, tu))
    if t <= tu:
        same(unit_power(u, r, t), t, dict_unit_power(dict_truncate(du, t), r, n, t))
