"""Shared fixture builders: integrable systems constructed from series-core
primitives only, so solver outputs can be checked against exact expectations."""

import json
from bisect import bisect_right
from fractions import Fraction as F
from math import gcd, lcm

from dulac.linalg import primitive_integer_kernel
from dulac.normalizer import MapSystem
from dulac.resonance import EigenSpec, enumerate_lattice, iter_exponents
from dulac.scalars import GaussianRational, gaussian
from dulac.series import ScalarSeries, SeriesError, VectorSeries, compose, invert, unit_power


# -- helpers that left `src` with no caller there ----------------------------------
#
# Scalar division and powers, the composition of one scalar series, and, as
# they were before `series._minors` and `series.gradient` read `_gradients`:
# the derivative of one series in one variable, and determinants and cross
# products each expanded from scratch.


def sc_div(a, b):
    if isinstance(a, int):
        a = F(a)
    return a / b


def sc_pow(z, k):
    if isinstance(z, GaussianRational):
        return z**k
    return F(z) ** k


def compose_scalar(outer, inner, trunc=None):
    """Exact truncation of outer(inner(y)); inner must have no constant term."""
    from dulac.series import Powers

    if trunc is None:
        trunc = min(outer.trunc, inner.trunc)
    return Powers.of(inner, trunc).compose([outer], trunc)[0]


def oracle_diff(V, i):
    """dV/dy_i through degree trunc - 1, differentiated part by part."""
    from dulac.series import _diff, _reduced, _rekeyed

    base = V.trunc + 1
    w = base**i
    parts = [_reduced(den, _diff(re, w, base, 1), _diff(im, w, base, 1)) for den, re, im in V.parts[1:]]
    trunc = max(V.trunc - 1, 0)
    return ScalarSeries._make(V.n, trunc, _rekeyed(parts, V.n, base, trunc, trunc + 1))


def oracle_gradient(V):
    return VectorSeries([oracle_diff(V, j) for j in range(V.n)])


def oracle_jacobian(Fv):
    """Matrix of partial derivatives, entry (i, j) = dF_i/dy_j."""
    return [[oracle_diff(comp, j) for j in range(Fv.n)] for comp in Fv.components]


def oracle_det_series(M, trunc=None):
    """Exact truncated determinant via minor expansion memoized on column
    sets, expanded along the last used row."""
    from itertools import combinations

    from dulac.series import _dot

    k = len(M)
    if any(len(row) != k for row in M):
        raise SeriesError("determinant of a non-square matrix")
    n = M[0][0].n
    if trunc is None:
        trunc = min(min(e.trunc for e in row) for row in M)
    # minors[cols] = det of rows 0..len(cols)-1 restricted to cols
    minors = {(): ScalarSeries.one(n, trunc)}
    for size in range(1, k + 1):
        nxt = {}
        row = M[size - 1]
        for cols in combinations(range(k), size):
            entries, subs = [], []
            for pos, j in enumerate(cols):
                entry = row[j]
                if entry.is_zero():
                    continue
                # expansion along the last used row: sign (-1)^(row+pos)
                entries.append(entry if (size - 1 + pos) % 2 == 0 else -entry)
                subs.append(minors[cols[:pos] + cols[pos + 1 :]])
            nxt[cols] = _dot(entries, subs, n, trunc)
        minors = nxt
    return minors[tuple(range(k))]


def oracle_cross(vs, trunc=None):
    """Generalized cross product of n-1 vectors in dimension n, its entry j
    (-1)^j times the determinant of the v_i without column j, each
    determinant expanded on its own."""
    vs = list(vs)
    if not vs:
        raise SeriesError("cross product needs at least one vector")
    n = vs[0].n
    if len(vs) != n - 1:
        raise SeriesError(f"cross product in dimension {n} needs {n-1} vectors")
    if any(v.n != n for v in vs):
        raise SeriesError("cross product dimension mismatch")
    if trunc is None:
        trunc = min(v.trunc for v in vs)
    comps = []
    for j in range(n):
        minor = [[v.components[c] for c in range(n) if c != j] for v in vs]
        d = oracle_det_series(minor, trunc)
        comps.append(d if j % 2 == 0 else -d)
    return VectorSeries(comps)


# -- derivatives along a field, as they were before `series.lie_derivative` ----------
#
# A Jacobian matrix (or a gradient) of series times a vector of series, each
# entry a separate series and each row summed by `series._dot`, and the packed
# pairs of DP_j * Q read straight off two power tables.


def mat_vec(M, X, trunc=None):
    """The matrix of series M times the vector X, through trunc (default:
    the lowest truncation of M and X)."""
    from dulac.series import _dot

    if trunc is None:
        trunc = min(min(min(e.trunc for e in row) for row in M), X.trunc)
    return VectorSeries([_dot(row, X.components, X.n, trunc) for row in M])


def scalar_inner(a, b, trunc=None):
    """The exact truncated inner product <a, b> = sum a_i * b_i."""
    from dulac.series import _dot

    if a.n != b.n:
        raise SeriesError("inner product dimension mismatch")
    if trunc is None:
        trunc = min(a.trunc, b.trunc)
    return _dot(a.components, b.components, a.n, trunc)


def derivative_pairs(P, Q, s, low, sign=1):
    """For each component j, the packed pairs whose products sum to sign
    times the degree-s part of DP_j(y) Q(y), over the parts the two power
    tables hold and leaving out the parts of P and of Q below degree low."""
    from dulac.series import _diff

    w, base = P.weights, P.base
    out = []
    for comp in P.parts:
        pairs = []
        for k in range(low, min(s + 2 - low, len(comp))):
            den, re, im = comp[k]
            for i, col in enumerate(Q.parts):
                if (re or im) and s - k + 1 < len(col):
                    pairs.append(((den, _diff(re, w[i], base, sign), _diff(im, w[i], base, sign)), col[s - k + 1]))
        out.append(pairs)
    return out


# -- per-monomial value oracles ------------------------------------------------------
#
# Exponent values, homological divisors and resonance computed from scratch for
# each exponent, independently of the lazily filled `EigenSpec.table`, and the
# `Fraction` table that `EigenSpec.table` replaced by int triples.


def oracle_power(spec, m):
    """mu^m as a product of powers (mult-rational)."""
    out = F(1)
    for mu, e in zip(spec.values, m):
        if e:
            out = out * sc_pow(mu, e)
    return out


def oracle_inner(spec, m):
    """<m, lambda> as a sum of products (additive)."""
    out = F(0)
    for lam, e in zip(spec.values, m):
        if e:
            out = out + lam * e
    return out


def oracle_divisor(spec, m, j):
    """The homological divisor mu^m - mu_j (maps) or <m, lambda> - lambda_j
    (fields) of an exact spec."""
    value = oracle_inner(spec, m) if spec.kind == "additive" else oracle_power(spec, m)
    return value - spec.values[j]


def oracle_resonant(spec, m, j=None):
    """y^m e_j is resonant (mu^m = mu_j, <m, lambda> = lambda_j, or a.m = a_j
    with b.m = b_j mod 1); with j None, y^m is a first-integral monomial."""
    if spec.kind == "mult-base":
        a, b = spec.exponents, spec.phases
        da = sum(x * e for x, e in zip(a, m)) - (0 if j is None else a[j])
        db = (sum(x * e for x, e in zip(b, m)) - (0 if j is None else b[j])) % 1
        return da == 0 and db == 0
    if spec.kind == "additive":
        return oracle_inner(spec, m) == (0 if j is None else spec.values[j])
    return oracle_power(spec, m) == (1 if j is None else spec.values[j])


class OracleValues(dict):
    """The value of each exponent m as the `Fraction` table kept it before the
    table moved to int triples: mu^m for mult-rational, <m, lambda> for
    additive, and the pair (a.m, b.m mod 1) for mult-base, each computed on
    its first lookup as one product or sum from the value of m - e_i (i the
    last index with m_i > 0)."""

    def __init__(self, spec):
        zero = (0,) * spec.n
        if spec.kind == "mult-base":
            a, b = spec.exponents, spec.phases
            super().__init__({zero: (F(0), F(0))})
            self.step = lambda v, i: (v[0] + a[i], (v[1] + b[i]) % 1)
        elif spec.kind == "mult-rational":
            vals = spec.values
            super().__init__({zero: F(1)})
            self.step = lambda v, i: v * vals[i]
        else:
            vals = spec.values
            super().__init__({zero: F(0)})
            self.step = lambda v, i: v + vals[i]

    def __missing__(self, m):
        i = len(m) - 1
        while not m[i]:
            i -= 1
        value = self[m] = self.step(self[m[:i] + (m[i] - 1,) + m[i + 1 :]], i)
        return value


def oracle_values(spec):
    """A fresh `Fraction`/Gaussian table of the spec's exponent values."""
    return OracleValues(spec)


def triple_value(triple):
    """The value (x + iy) / d of an int triple of `EigenSpec.table`."""
    x, y, d = triple
    return gaussian(F(x, d), F(y, d))


def normal_form_from_units(mu_vals, p_list, N):
    """G_j = mu_j y_j (1 + p_j), assembled exactly."""
    n = len(mu_vals)
    comps = []
    for j in range(n):
        unit = ScalarSeries.one(n, N) + p_list[j]
        comps.append(unit.mul(ScalarSeries.variable(n, j, N), N).scale(mu_vals[j]))
    return VectorSeries(comps)


def conjugate_map(mu_vals, G, phi, N):
    """F = Phi o G o Phi^(-1) with Phi = id + phi, as a MapSystem."""
    n = len(mu_vals)
    Phi = VectorSeries.identity(n, N) + phi
    Fmap = compose(Phi, compose(G, invert(Phi, N), N), N)
    linear = VectorSeries.diagonal_linear(mu_vals, N)
    nonlinear = (Fmap - linear).strip_low(2)
    return MapSystem(EigenSpec.multiplicative(mu_vals), nonlinear, N)


def two_dim_fixture(N=8):
    """The half/double map with p_2 = y1 y2 and p_1 = (1+y1 y2)^(-1) - 1,
    conjugated by Phi = (y1 + y2^2, y2)."""
    n = 2
    mu_vals = [F(1, 2), F(2)]
    u = ScalarSeries.monomial(n, N, (1, 1))
    p1 = unit_power(u, -1, N) - ScalarSeries.one(n, N)
    G = normal_form_from_units(mu_vals, [p1, u], N)
    phi = VectorSeries([ScalarSeries(n, N, {(0, 2): 1}), ScalarSeries.zero(n, N)])
    system = conjugate_map(mu_vals, G, phi, N)
    g = (G - VectorSeries.diagonal_linear(mu_vals, N)).strip_low(2)
    return system, phi, g


def three_dim_fixture(N=8, phi_terms=None):
    """Rank-2 three-dimensional fixture with rational stand-in multipliers
    (1/32, 4, 2) and psi = y1 y2^2 y3; exponents (-5/2, 1, 1/2)."""
    n = 3
    mu_vals = [F(1, 32), F(4), F(2)]
    psi = ScalarSeries.monomial(n, N, (1, 2, 1))
    ps = [
        unit_power(psi, F(-5, 2), N) - ScalarSeries.one(n, N),
        psi,
        unit_power(psi, F(1, 2), N) - ScalarSeries.one(n, N),
    ]
    G = normal_form_from_units(mu_vals, ps, N)
    if phi_terms is None:
        phi_terms = {0: {(0, 1, 1): F(1)}, 2: {(2, 0, 0): F(1, 3)}}
    comps = [ScalarSeries(n, N, phi_terms.get(j, {})) for j in range(n)]
    phi = VectorSeries(comps)
    system = conjugate_map(mu_vals, G, phi, N)
    g = (G - VectorSeries.diagonal_linear(mu_vals, N)).strip_low(2)
    return system, phi, g, ps


def random_integrable_case(rng, n, N=6):
    """A random planted case: rank n-1 multipliers, a normal form in the
    product shape built from resonant monomials, and a sparse nonresonant
    transformation.  Returns (system, phi, g_expected)."""
    while True:
        rho = F(rng.choice([2, 3, 5]))
        if n == 2:
            exps = [rng.randint(1, 3), -rng.randint(1, 3)]
        else:
            exps = [-rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)]
        rng.shuffle(exps)
        mu_vals = [rho**e for e in exps]
        mu = EigenSpec.multiplicative(mu_vals)
        basis = enumerate_lattice(mu, max(N, 6))
        if basis.rank == n - 1 and len(basis.generators) == n - 1:
            break
    v, _ = primitive_integer_kernel(basis.matrix(), n)
    scale = rng.choice([F(1), F(1, 2), F(-1, 2), F(2)])
    lat_mons = [m for m in basis.exponents if sum(m) <= N - 1]
    w_terms = {}
    if lat_mons:
        for m in rng.sample(lat_mons, min(len(lat_mons), rng.randint(1, 2))):
            w_terms[m] = F(rng.randint(-3, 3), rng.randint(1, 2))
    w = ScalarSeries(n, N, w_terms)
    one = ScalarSeries.one(n, N)
    ps = [unit_power(w, v[j] * scale, N) - one for j in range(n)]
    G = normal_form_from_units(mu_vals, ps, N)
    pool = [
        (j, m)
        for m in iter_exponents(n, 2, N)
        for j in range(n)
        if not oracle_resonant(mu, m, j)
    ]
    phi_triples = []
    for (j, m) in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
        phi_triples.append((j, m, F(rng.randint(-2, 2), rng.randint(1, 2))))
    phi = VectorSeries.from_terms(n, N, phi_triples)
    system = conjugate_map(mu_vals, G, phi, N)
    g = (G - VectorSeries.diagonal_linear(mu_vals, N)).strip_low(2)
    return system, phi, g


def random_sparse_series(rng, n, trunc, max_terms=5, gaussian=False):
    from dulac.scalars import gaussian as mk_gaussian

    terms = {}
    pool = list(iter_exponents(n, 0, trunc))
    for m in rng.sample(pool, min(len(pool), rng.randint(0, max_terms))):
        re = F(rng.randint(-4, 4), rng.randint(1, 3))
        if gaussian and rng.random() < 0.5:
            terms[m] = mk_gaussian(re, F(rng.randint(-3, 3), rng.randint(1, 2)))
        else:
            terms[m] = re
    return ScalarSeries(n, trunc, terms)


def random_tangent_identity(rng, n, trunc, max_terms=4):
    triples = []
    pool = [(j, m) for m in iter_exponents(n, 2, trunc) for j in range(n)]
    for (j, m) in rng.sample(pool, min(len(pool), rng.randint(1, max_terms))):
        triples.append((j, m, F(rng.randint(-3, 3), rng.randint(1, 2))))
    return VectorSeries.identity(n, trunc) + VectorSeries.from_terms(n, trunc, triples)


# -- dense elimination oracle ---------------------------------------------------------


def dense_rref(rows):
    """Reduced row echelon form by dense Gauss-Jordan over Fraction /
    GaussianRational entries: (rref rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [sc_div(x, piv) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense_kernel(rows, ncols):
    """Right-kernel basis read off the RREF: one dense vector per free column."""
    reduced, pivots = dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


# -- Fraction echelon oracle -----------------------------------------------------------
#
# The sparse echelon as it was before it ran on integer columns: each column a
# dict of Fraction / GaussianRational entries by row, reduced by dividing by
# the pivot entry, its combination accumulated in scalars.


def _oracle_axpy(target, f, source):
    """target += f * source, dropping the entries that cancel."""
    for k, x in source.items():
        s = target.get(k, 0) + f * x
        if s == 0:
            target.pop(k, None)
        else:
            target[k] = s


class OracleEchelon:
    """Sparse column-incremental echelon form over Q or Q(i), in scalars."""

    def __init__(self):
        # lowest row -> (reduced column, its combination of inserted columns)
        self.pivots = {}
        self.columns = 0

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def det(self):
        rows = list(self.pivots)
        inversions = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1 :])
        out = F(-1 if inversions % 2 else 1)
        for row, (v, _) in self.pivots.items():
            out *= v[row]
        return out

    def add(self, column):
        """None when the column is independent of the earlier ones, else the
        kernel vector it closes, with 1 at its own index."""
        v = {r: x for r, x in column.items() if x != 0}
        comb = {self.columns: F(1)}
        self.columns += 1
        while v:
            low = min(v)
            pivot = self.pivots.get(low)
            if pivot is None:
                self.pivots[low] = (v, comb)
                return None
            pv, pcomb = pivot
            f = -sc_div(v[low], pv[low])
            _oracle_axpy(v, f, pv)
            _oracle_axpy(comb, f, pcomb)
        return comb


def oracle_kernel_basis(columns):
    """Right-kernel basis of the matrix with these scalar columns (dicts by
    row): one vector per dependent column, in column order."""
    echelon = OracleEchelon()
    return [k for k in map(echelon.add, columns) if k is not None]


def oracle_rank(rows):
    """Rank of a dense scalar matrix; its rows enter as columns of the transpose."""
    return len(rows) - len(oracle_kernel_basis(dict(enumerate(row)) for row in rows))


def packed_column(column):
    """(den, re, im): a column of Fraction / GaussianRational entries as int
    numerators over one positive denominator, the input of `linalg.Echelon`."""
    from dulac.scalars import sc_im, sc_re

    den = lcm(1, *(F(part(x)).denominator for x in column.values() for part in (sc_re, sc_im)))
    re = {r: int(sc_re(x) * den) for r, x in column.items() if sc_re(x)}
    im = {r: int(sc_im(x) * den) for r, x in column.items() if sc_im(x)}
    return den, re, im


# -- composition and normalization oracles ------------------------------------------
#
# The per-degree algorithms the online engine replaced, kept as independent
# oracles: truncated powers of each inner component multiplied out per
# monomial, inversion by one full composition per degree, and a normalizer
# that rebuilds every composition from scratch at each degree.


class OraclePowerCache:
    """Lazy cache of truncated powers of each component of an inner map."""

    def __init__(self, inner, trunc):
        self.trunc = trunc
        self.pows = [[ScalarSeries.one(inner.n, trunc), comp.truncate(trunc)] for comp in inner.components]

    def get(self, i, k):
        col = self.pows[i]
        while len(col) <= k:
            col.append(col[-1].mul(col[1], self.trunc))
        return col[k]

    def monomial(self, m):
        result = None
        for i, e in enumerate(m):
            if e:
                p = self.get(i, e)
                result = p if result is None else result.mul(p, self.trunc)
        return result


def oracle_compose_scalar(outer, inner, trunc=None):
    if trunc is None:
        trunc = min(outer.trunc, inner.trunc)
    assert all(c.constant_term() == 0 for c in inner)
    cache = OraclePowerCache(inner, trunc)
    out = ScalarSeries.const(outer.n, trunc, outer.constant_term())
    for m, c in outer.terms():
        if 0 < sum(m) <= trunc:
            out = out + cache.monomial(m).scale(c)
    return out


def oracle_compose(outer, inner, trunc=None):
    if trunc is None:
        trunc = min(outer.trunc, inner.trunc)
    return VectorSeries([oracle_compose_scalar(c, inner, trunc) for c in outer.components])


def oracle_invert(phi, trunc=None):
    """Inverse of a tangent-to-identity map: after k passes of
    psi = id - h o psi the result is exact through degree k + 1."""
    if trunc is None:
        trunc = phi.trunc
    ident = VectorSeries.identity(phi.n, trunc)
    h = (phi.truncate(trunc) - ident).strip_low(2)
    psi = ident
    for _ in range(max(trunc - 1, 0)):
        psi = ident - oracle_compose(h, psi, trunc)
    return psi


# -- the composition route before diagonal tables ----------------------------------
#
# Before `Powers` noted a diagonal linear part, each first part [P^m]_|m| was
# one `_products` call, and each term of an outer part of degree s was its own
# pair at degree s.  `old_route` puts this route back in every module that
# sums pairs, so the same calls can be compared on both routes.


def oracle_pairs(outer, powers, s, low=1, sign=1):
    """`series._pairs` before diagonal tables: one (coefficient, [P^m]_s)
    pair per term of every outer part of degree low..s."""
    part = powers.part
    out = []
    for den, re, im in outer[low : s + 1]:
        if im:
            out += [((den, {0: sign * re[k]} if k in re else {}, {0: sign * im[k]} if k in im else {}), part(k, s))
                    for k in re.keys() | im.keys()]
        else:
            out += [((den, {0: sign * v}, {}), part(k, s)) for k, v in re.items()]
    return out


def oracle_part(self, k, s):
    """`Powers.part` before diagonal tables: every part, the first included,
    one `_products` call over the pairs of m = m' + e_i."""
    from dulac.series import _ZERO, _products

    if type(k) is not int:
        k = sum(map(lambda e, w: e * w, k, self.weights))
    col = self.cache.get(k)
    if col is None:
        d = self.degrees[k] = sum(self.exponent(k))
        col = self.cache[k] = [_ZERO] * d
    if len(col) > s:
        return col[s]
    i = bisect_right(self.weights, k) - 1
    prev = k - self.weights[i]
    if not prev:
        raise SeriesError(f"inner map not known through degree {s}")
    if s >= self.base:
        raise SeriesError(f"degree {s} exceeds the powers' degree {self.base - 1}")
    self.part(prev, s - 1)
    low, low_col, Pi = self.degrees[prev], self.cache[prev], self.parts[i]
    while len(col) <= s:
        t = len(col)
        col.append(_products([(low_col[j], Pi[t - j]) for j in range(low, t)]))
    return col[s]


def old_route(monkeypatch):
    """Sum every composition on the route before diagonal tables, in every
    module that sums pairs (undone with the monkeypatch)."""
    from dulac import integrals, normalizer, series

    monkeypatch.setattr(series.Powers, "part", oracle_part)
    for module in (series, normalizer, integrals):
        monkeypatch.setattr(module, "_pairs", oracle_pairs)


# -- the pairs before scalar coefficients -----------------------------------------
#
# Before `_products` took a scalar, `_pairs` wrapped each coefficient of an
# outer part in a one-term part (den, {0: c}, {}) with two dicts, and
# `Powers.top` paired its part with the part of the constant sign, or of one.
# `part_route` puts these pairs back in every module that sums them.


def part_top(powers, part, s, sign=1):
    """`Powers.top` before scalar pairs: the (part, part) pair whose product
    is sign times the degree-s part of o_s o P, the second part a constant."""
    from dulac.series import _termwise

    if powers.unit:
        return part, (1, {0: sign}, {})
    den, re, im = part
    firsts = [(k, powers.part(k, s)) for k in (re.keys() | im.keys() if im else re)]
    return _termwise(den, [(k, sign * re.get(k, 0), sign * im.get(k, 0), x.get(k, 0), y.get(k, 0), d)
                           for k, (d, x, y) in firsts]), (1, {0: 1}, {})


def part_pairs(outer, powers, s, low=1, sign=1):
    """`series._pairs` before scalar pairs: over a diagonal table the
    degree-s part of outer is one `part_top` pair, and every other term a
    one-term coefficient part paired with [P^m]_s (`oracle_pairs`)."""
    out = []
    if powers.diagonal and low <= s < len(outer):
        if outer[s][1] or outer[s][2]:
            out.append(part_top(powers, outer[s], s, sign))
        outer = outer[:s]
    return out + oracle_pairs(outer, powers, s, low, sign)


def part_route(monkeypatch):
    """Sum every composition with the pairs before scalar coefficients, in
    every module that sums pairs (undone with the monkeypatch)."""
    from dulac import integrals, normalizer, series

    for module in (series, normalizer, integrals):
        monkeypatch.setattr(module, "_pairs", part_pairs)


# -- the solves of W o P = V before `Powers.pull` ---------------------------------
#
# `series.invert` ran its own online loop over a growing table of psi, the
# integrals composed through a table of psi, and the embedding got
# det(DF) o F^-1 by inverting id + B^-1 f, composing with B^-1 and composing
# det(DF) through a third table.


def online_invert(phi, trunc=None):
    """`series.invert` before `Powers.pull`: with phi = id + h, psi = id - h
    o psi in one online pass; h starts at degree two, so the degree-s part
    of h o psi needs psi only below degree s, and each degree of psi is
    settled once while its powers grow with it."""
    from dulac.series import Powers, _pairs, _products

    if trunc is None:
        trunc = phi.trunc
    n = phi.n
    h, ident = phi.truncate(trunc), VectorSeries.identity(n, trunc)
    if any(c.low_degree() == 0 for c in h):
        raise SeriesError("map to invert has a constant term")
    if any(c.parts[1:2] != e.parts[1:] for c, e in zip(h, ident)):
        raise SeriesError("linear part is not the identity; factor it out first")
    powers = Powers(ident, trunc, 1)
    for s in range(2, trunc + 1):
        powers.extend([_products(_pairs(c.parts, powers, s, 2, -1)) for c in h])
    return VectorSeries([ScalarSeries._make(n, trunc, col[:]) for col in powers.parts])


def oracle_diagonal_inverse(P, trunc):
    """P^-1 through trunc for P = c y + h with every c_i nonzero: (id + c^-1
    h)^-1 o c^-1 y, the inverse by `online_invert`."""
    c_inv = [sc_div(1, P[i].coeff(tuple(int(j == i) for j in range(P.n)))) for i in range(P.n)]
    unit = VectorSeries.identity(P.n, trunc) + VectorSeries(
        [comp.truncate(trunc).scale(c_inv[i]) for i, comp in enumerate(P.strip_low(2))])
    return compose(online_invert(unit, trunc), VectorSeries.diagonal_linear(c_inv, trunc), trunc)


def oracle_det_back(F, order):
    """det(DF) o F^-1 for a map system F on the embedding's route before
    `Powers.pull`: F^-1 = (id + B^-1 f)^-1 o B^-1, and det(DF) composed
    through a table of its own, the determinant expanded by
    `oracle_det_series` from the `oracle_jacobian`."""
    det = oracle_det_series(oracle_jacobian(F.full()), order)
    return compose_scalar(det, oracle_diagonal_inverse(F.full(), order), order)


def oracle_pullback_integrals(integrals, phi, order=None):
    """The pullback through the inverse psi of x = y + phi(y): `online_invert`
    builds psi, and each integral composes through one table of psi."""
    from dulac.series import Powers

    vs = tuple(integrals)
    if order is None:
        order = min([phi.trunc] + [v.trunc for v in vs])
    psi = online_invert(VectorSeries.identity(phi.n, order) + phi.truncate(order), order)
    return tuple(Powers.of(psi, order).compose([v.truncate(order) for v in vs], order))


def normalization_of(phi, spec=None):
    """A NormalizationResult holding phi (g zero) through phi's degree, to
    pull integrals back through x = y + phi(y); the pullback reads neither
    its spec (default: one of phi's dimension) nor its g."""
    from dulac.normalizer import NormalizationResult

    spec = spec or EigenSpec.multiplicative([2] * phi.n)
    return NormalizationResult(spec=spec, phi=phi, g=VectorSeries.zero(phi.n, phi.trunc), order=phi.trunc)


def _oracle_split(spec, rhs_s, phi_terms, g_terms):
    for j, comp in enumerate(rhs_s.components):
        for m, c in comp.terms():
            if oracle_resonant(spec, m, j):
                g_terms.append((j, m, c))
            else:
                phi_terms.append((j, m, sc_div(c, oracle_divisor(spec, m, j))))


def _oracle_inverse(div):
    """(d, x, y) in ints with 1/div = (x + i y) / d and d > 0."""
    from dulac.scalars import GaussianRational

    if type(div) is GaussianRational:
        a, b = div.re, div.im
        d = lcm(a.denominator, b.denominator)
        x, y = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        return x * x + y * y, d * x, -d * y
    p, q = div.numerator, div.denominator
    return (p, q, 0) if p > 0 else (-p, -q, 0)


def oracle_split_degree(spec, rhs, P):
    """`normalizer._split_degree` as it was: each divisor a `Fraction` or
    Gaussian difference read off the `Fraction` table (`oracle_values`),
    inverted by `_oracle_inverse`."""
    from dulac.series import _reduced

    values = oracle_values(spec)
    g_s, phi_s = [], []
    for (den, re, im), target in zip(rhs, spec.values):
        g_re, g_im, quotients = {}, {}, []
        for k in re.keys() | im.keys() if im else re:
            a, b = re.get(k, 0), im.get(k, 0)
            div = values[P.exponent(k)] - target
            if div == 0:
                if a:
                    g_re[k] = a
                if b:
                    g_im[k] = b
            else:
                quotients.append((k, a, b, *_oracle_inverse(div)))
        g_s.append(_reduced(den, g_re, g_im))
        common = lcm(*(q[3] for q in quotients))
        phi_re, phi_im = {}, {}
        for k, a, b, d, x, y in quotients:
            f = common // d
            if v := (a * x - b * y) * f:
                phi_re[k] = v
            if v := (a * y + b * x) * f:
                phi_im[k] = v
        phi_s.append(_reduced(den * common, phi_re, phi_im))
    return g_s, phi_s


def oracle_normalize(system, N):
    """(phi, g) of the distinguished normalization, every degree's right-hand
    side rebuilt by full compositions: f o (id + phi) + phi o B - phi o (B + g)
    for maps, f o (id + phi) - Dphi . g for fields."""
    is_map = isinstance(system, MapSystem)
    spec = system.spec
    n = system.n
    phi_terms, g_terms = [], []
    for s in range(2, N + 1):
        ident = VectorSeries.identity(n, s)
        phi_v = VectorSeries.from_terms(n, s, [t for t in phi_terms if sum(t[1]) <= s])
        g_v = VectorSeries.from_terms(n, s, [t for t in g_terms if sum(t[1]) <= s])
        rhs = oracle_compose(system.nonlinear.truncate(s), ident + phi_v, s)
        if is_map:
            lin = VectorSeries.diagonal_linear(spec.values, s)
            rhs = rhs + oracle_compose(phi_v, lin, s) - oracle_compose(phi_v, lin + g_v, s)
        else:
            rhs = rhs - mat_vec(oracle_jacobian(phi_v), g_v, s)
        _oracle_split(spec, rhs.homogeneous_part(s), phi_terms, g_terms)
    return VectorSeries.from_terms(n, N, phi_terms), VectorSeries.from_terms(n, N, g_terms)


def oracle_conjugacy_map(F, result):
    """The map's conjugacy residual F o Phi - Phi o G as `verify_conjugacy`
    computed it before the residual read packed tables: two full compositions
    through fresh tables and a Fraction subtraction."""
    N = result.order
    Phi, G = result.normalization(), result.normal_form()
    return compose(F.full(N), Phi, N) - compose(Phi, G, N)


def oracle_conjugacy_field(X, result):
    """The field's conjugacy residual DPhi * Y - (A + f) o Phi, as before."""
    N = result.order
    Phi, Y = result.normalization(), result.normal_form()
    return mat_vec(oracle_jacobian(Phi), Y, N) - compose(X.full(N), Phi, N)


# -- resonance scan oracles ----------------------------------------------------------
#
# The degree-D scans as they were before the graded table of exponent values:
# every exponent's value is rebuilt from scratch by the per-monomial oracles
# above (oracle_resonant, oracle_divisor, sums over the exponent).


def oracle_classes(spec, D):
    """`EigenSpec.classes` as it was: the exponents with 2 <= |m| <= D grouped
    by their value from the `Fraction` table (a Fraction, GaussianRational
    or (a.m, b.m mod 1) pair, hashed per exponent), values in order of first
    arrival, each class in graded-lex order."""
    groups, values = {}, oracle_values(spec)
    for m in iter_exponents(spec.n, 2, D):
        groups.setdefault(values[m], []).append(m)
    return groups


def _oracle_generator_candidate(spec, m):
    """m/d for the largest divisor d of the entry gcd keeping m/d resonant."""
    g = gcd(*m)
    for d in range(g, 0, -1):
        reduced = tuple(e // d for e in m)
        if g % d == 0 and (d == 1 or oracle_resonant(spec, reduced)):
            return reduced


def oracle_enumerate_lattice(spec, bound):
    """`enumerate_lattice` as it was: every resonant exponent goes into the
    rank's echelon, not only the distinct generator candidates."""
    from dulac.resonance import LatticeBasis, _is_simple

    found, candidates, seen = [], [], set()
    full = OracleEchelon()
    for m in iter_exponents(spec.n, 2, bound):
        if not oracle_resonant(spec, m):
            continue
        found.append(m)
        full.add(dict(enumerate(m)))
        cand = _oracle_generator_candidate(spec, m)
        if cand not in seen:
            seen.add(cand)
            candidates.append(cand)
    gens = []
    gen_rank = OracleEchelon()
    for simple_pass in (True, False):
        for cand in candidates:
            if _is_simple(cand) != simple_pass:
                continue
            if gen_rank.rank == full.rank:
                break
            if gen_rank.add(dict(enumerate(cand))) is None:
                gens.append(cand)
    return LatticeBasis(
        kind="field" if spec.kind == "additive" else "map",
        n=spec.n,
        bound=bound,
        exponents=tuple(found),
        rank=full.rank,
        generators=tuple(gens),
        span_deficit=full.rank - gen_rank.rank,
        non_simple=tuple(g for g in gens if not _is_simple(g)),
    )


def oracle_verify_bound(spec, bound, D):
    """Exhaustive mode in `Fraction`s, as the scan was before it ran on int
    triples: one oracle_divisor call per pair (m, j), compared by sc_abs2."""
    from dulac.resonance import BoundVerification, _square_of, sqrt_value
    from dulac.scalars import sc_abs2

    min_sq, witness, checked = None, None, 0
    for m in iter_exponents(spec.n, 2, D):
        for j in range(spec.n):
            div = oracle_divisor(spec, m, j)
            if div == 0:
                continue
            checked += 1
            g2 = sc_abs2(div)
            if min_sq is None or g2 < min_sq:
                min_sq, witness = g2, (m, j)
    if min_sq is None:
        return BoundVerification(passed=True, checked=0, mode="exhaustive")
    passed = min_sq >= _square_of(bound.value)
    return BoundVerification(
        passed=passed, checked=checked, mode="exhaustive", min_gap=sqrt_value(min_sq),
        witness=witness, failure=None if passed else witness,
    )


def oracle_verify_certificate(spec, bound, D):
    """Certificate mode: a.m and b.m summed afresh for every exponent."""
    from dulac.resonance import BoundVerification

    cert = bound.certificate
    a, b = cert["base_exponents"], cert["phases"]
    e_alpha, L = cert["alpha_exp"], cert["phase_group_order"]
    checked = 0
    for m in iter_exponents(spec.n, 2, D):
        ma = sum(x * e for x, e in zip(a, m))
        mb = sum(x * e for x, e in zip(b, m)) % 1
        for j in range(spec.n):
            da, db = ma - a[j], (mb - b[j]) % 1
            if da == 0 and db == 0:
                continue
            checked += 1
            if da != 0:
                s = da / e_alpha
                ok = s.denominator == 1 and s != 0
            else:
                ok = cert["sigma2"] is not None and min(db, 1 - db) >= F(1, L)
            if not ok:
                return BoundVerification(
                    passed=False, checked=checked, mode="certificate", failure=(m, j)
                )
    return BoundVerification(passed=True, checked=checked, mode="certificate")


def oracle_algebraic_rank(spec):
    """The rank of the whole resonant lattice {m in Z^n : value(m) = value(0)},
    for every degree and every sign of m: n minus the rank, from one
    Echelon, of the integer matrix of <m, lambda> (its real and imaginary
    rows), of a.m, or of the valuations of mu^m over the coprime base of
    `EigenSpec.keys`, each row scaled to integers.  The phase condition
    b.m = 0 mod 1 and the unit condition on mu^m only cut a sublattice of
    finite index (b.m = 0 mod 1 holds on L Z^n, L the phases' common
    denominator, and a unit's exponent is taken mod 4), so they leave the
    rank alone.  The enumerated lattice, of exponents m >= 0 up to a
    degree, can only have a smaller rank."""
    from dulac.scalars import sc_im, sc_re

    if spec.kind == "additive":
        rows = [[sc_re(v) for v in spec.values], [sc_im(v) for v in spec.values]]
    elif spec.kind == "mult-base":
        rows = [list(spec.exponents)]
    else:
        rows = spec.keys[0]
    echelon = OracleEchelon()
    for row in rows:
        den = lcm(*(F(x).denominator for x in row))
        echelon.add({i: int(x * den) for i, x in enumerate(row) if x})
    return spec.n - echelon.rank


# -- factoring oracles of the map bound's base ---------------------------------------
#
# The map bound once wrote the moduli as powers of one base by trial-division
# factoring of every squared modulus, evaluated beta^q from beta's prime
# exponents, and read phases off a table of mu^2 / |mu|^2.


def oracle_factor_positive_rational(q):
    """Prime -> exponent map of a positive rational (trial division)."""
    if q <= 0:
        raise ValueError("factorization needs a positive rational")
    out = {}

    def absorb(n, sign):
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + sign
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + sign

    absorb(q.numerator, 1)
    absorb(q.denominator, -1)
    return {p: e for p, e in out.items() if e != 0}


def oracle_beta_power(beta_factors, q):
    """beta^q from beta's prime exponents, when it is a rational or the
    root of one."""
    from dulac.resonance import sqrt_value

    for scale, root in ((1, False), (2, True)):
        ts = [F(e) * q * scale for e in beta_factors.values()]
        if all(t.denominator == 1 for t in ts):
            val = F(1)
            for p, t in zip(beta_factors, ts):
                val *= F(p) ** int(t)
            return sqrt_value(val) if root else val
    return None


# -- bound values as they were built before bounds ran on their squares -------------
#
# Each term of a bound was once evaluated as an exact value: beta^q as a
# rational or a root, times its gap factor through `RootValue`'s own product,
# and the least value picked by its square.  The field's kappa divided a root
# by an integer the same way.


def oracle_root_mul(x, y):
    """x * y for exact values, as `RootValue.__mul__` computed it: a root
    times a root or a nonnegative rational is the root of the product of
    the squares; two rationals multiply as they are."""
    from dulac.resonance import RootValue, _square_of, sqrt_value

    if not (isinstance(x, RootValue) or isinstance(y, RootValue)):
        return x * y
    if any(not isinstance(v, RootValue) and v < 0 for v in (x, y)):
        raise ValueError("negative factor on a positive root")
    return sqrt_value(_square_of(x) * _square_of(y))


def oracle_root_div(x, k):
    """x / k for an exact value x and a rational k, as
    `RootValue.__truediv__` computed it."""
    from dulac.resonance import RootValue, sqrt_value

    return sqrt_value(x.square / F(k) ** 2) if isinstance(x, RootValue) else x / k


def oracle_exact_beta_power(beta, q):
    """beta^q exactly, when it is a rational or the root of one: for a base
    that is no perfect power, exactly when q resp. 2q is an integer."""
    from dulac.resonance import sqrt_value

    if q.denominator == 1:
        return beta ** q.numerator
    return sqrt_value(beta ** q.numerator) if q.denominator == 2 else None


def oracle_eval_term(term, beta):
    """The term's exact value, or None when it has none (a formal base, or
    a power, unit gap or phase gap that is not a rational or its root)."""
    from dulac.resonance import sqrt_value

    if beta is None:
        return None
    pre = oracle_exact_beta_power(beta, term.beta_exp)
    if pre is None:
        return None
    if term.kind == "unit-gap":
        inner = oracle_exact_beta_power(beta, -term.param)
        return oracle_root_mul(pre, 1 - inner) if isinstance(inner, F) else None
    gamma = {F(1, 2): F(2), F(1, 3): sqrt_value(F(3)), F(1, 4): sqrt_value(F(2)), F(1, 6): F(1)}.get(term.param)
    return None if gamma is None else oracle_root_mul(pre, gamma)


def oracle_finish_bound(kind, terms, beta, certificate):
    """The least term value, when every term has one; else the symbolic
    minimum."""
    from dulac.resonance import SmallDivisorBound, SymbolicBound, _square_of

    values = [oracle_eval_term(t, beta) for t in terms]
    if all(v is not None for v in values):
        return SmallDivisorBound(kind=kind, value=min(values, key=_square_of), certificate=certificate)
    return SmallDivisorBound(kind=kind, value=SymbolicBound(terms=tuple(terms), beta=beta), certificate=certificate)


def oracle_kappa(spec, certificate):
    """The field bound |lambda_c| / (product of the ratio denominators)."""
    from dulac.resonance import sqrt_value
    from dulac.scalars import sc_abs2

    pivot = spec.values[certificate["pivot"]]
    return oracle_root_div(sqrt_value(sc_abs2(pivot)), certificate["denominator_product"])


# signs of (cos 2*pi*b, sin 2*pi*b) for the eighth-of-a-turn phases
_EIGHTH_SIGNS = {
    F(0): (1, 0), F(1, 8): (1, 1), F(1, 4): (0, 1), F(3, 8): (-1, 1),
    F(1, 2): (-1, 0), F(5, 8): (-1, -1), F(3, 4): (0, -1), F(7, 8): (1, -1),
}


def oracle_phases_of_gaussian(mu, r2):
    """The phase b in [0,1) of mu, from d = mu^2 / |mu|^2 = e^(4 pi i b) and
    the quadrant of mu."""
    from dulac.errors import HypothesisError
    from dulac.scalars import sc_im, sc_re

    d = (mu * mu) / r2
    table = {
        (1, 0): (F(0), F(1, 2)),
        (-1, 0): (F(1, 4), F(3, 4)),
        (0, 1): (F(1, 8), F(5, 8)),
        (0, -1): (F(3, 8), F(7, 8)),
    }
    key = (sc_re(d), sc_im(d))
    if key not in table:
        raise HypothesisError(
            "eigenvalue phase is not a rational turn representable over the "
            "Gaussian rationals; supply the mult-base form instead"
        )
    signs = tuple((x > 0) - (x < 0) for x in (sc_re(mu), sc_im(mu)))
    return next(b for b in table[key] if _EIGHTH_SIGNS[b] == signs)


def oracle_rational_to_base(mus):
    """(beta, a, b) from the prime valuations of the squared moduli: beta is
    the product of primes to the primitive valuation vector of the first
    modulus != 1, each other vector a multiple c_i of it, a_i = c_i / 2."""
    from dulac.errors import HypothesisError
    from dulac.scalars import sc_abs2

    r2 = [sc_abs2(mu) for mu in mus]
    if all(x == 1 for x in r2):
        raise HypothesisError("all eigenvalue moduli equal 1")
    valuations = [oracle_factor_positive_rational(x) if x != 1 else {} for x in r2]
    primes = sorted({p for v in valuations for p in v})
    vecs = [[v.get(p, 0) for p in primes] for v in valuations]
    pivot = next(v for v in vecs if any(v))
    g = gcd(*pivot)
    w = [x // g for x in pivot]
    coeffs = []
    for v in vecs:
        j = next(i for i, x in enumerate(w) if x != 0)
        c = F(v[j], w[j])
        if any(F(x) != c * y for x, y in zip(v, w)):
            raise HypothesisError(
                "eigenvalue moduli are not powers of a common base; the "
                "resonant rank hypothesis fails for this spectrum"
            )
        coeffs.append(c)
    beta = F(1)
    for p, e in zip(primes, w):
        beta *= F(p) ** e
    if beta < 1:
        beta, coeffs = 1 / beta, [-c for c in coeffs]
    a = tuple(c / 2 for c in coeffs)
    b = tuple(oracle_phases_of_gaussian(mu, ri) for mu, ri in zip(mus, r2))
    return beta, a, b


# -- elimination and product oracles ------------------------------------------------
#
# The routines one elimination and one product loop replaced: the dense
# integer determinant, the map bound's pivot and modulus relations by
# Cramer's rule over it, and ScalarSeries.mul's own double loop.


def oracle_int_det(matrix):
    """Determinant of an integer matrix by dense Gaussian elimination over
    Fractions."""
    k = len(matrix)
    if k == 0:
        return 1
    m = [[F(x) for x in row] for row in matrix]
    det = F(1)
    for c in range(k):
        pr = next((i for i in range(c, k) if m[i][c] != 0), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, k):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    assert det.denominator == 1
    return int(det)


def oracle_pivot_and_deltas(K, n):
    """(c, Delta, delta) of a rank n-1 integer matrix by Cramer's rule: c is
    the last column whose removal leaves a nonsingular minor Delta, and
    delta_j (delta_c = Delta) solves the relations a_j Delta = delta_j a_c."""
    for c in range(n - 1, -1, -1):
        M = [[row[j] for j in range(n) if j != c] for row in K]
        Delta = oracle_int_det(M)
        if Delta == 0:
            continue
        others = [j for j in range(n) if j != c]
        delta = [0] * n
        delta[c] = Delta
        rhs = [-row[c] for row in K]
        for pos, j in enumerate(others):
            Mj = [row[:] for row in M]
            for i in range(len(Mj)):
                Mj[i][pos] = rhs[i]
            delta[j] = oracle_int_det(Mj)
        return c, Delta, delta
    raise ValueError("no nonsingular minor: rank below n-1")


def oracle_mul(a, b, trunc=None):
    """Truncated product by the double loop over both operands' terms."""
    if trunc is None:
        trunc = min(a.trunc, b.trunc)
    return ScalarSeries(a.n, trunc, dict_mul(a.coeffs, b.coeffs, trunc))


# -- the Fraction-dict series arithmetic ----------------------------------------------
#
# ScalarSeries as it was before it stored packed homogeneous parts: an
# exponent -> scalar dict without zeros, every operation a loop over its
# terms in scalar arithmetic.  The oracle of every public series operation;
# each takes the output truncation degree explicitly.


def _dict_nonzero(d):
    return {m: c for m, c in d.items() if c != 0}


def dict_truncate(a, trunc):
    return {m: c for m, c in a.items() if sum(m) <= trunc}


def dict_add(a, b, trunc, sign=1):
    """a + sign * b through degree trunc."""
    out = dict_truncate(a, trunc)
    for m, c in dict_truncate(b, trunc).items():
        out[m] = out[m] + sign * c if m in out else sign * c
    return _dict_nonzero(out)


def dict_scale(a, c):
    return _dict_nonzero({m: c * v for m, v in a.items()})


def dict_mul(a, b, trunc):
    from operator import add

    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            if sum(m) <= trunc:
                out[m] = out[m] + ca * cb if m in out else ca * cb
    return _dict_nonzero(out)


def dict_diff(a, i):
    return {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in a.items() if m[i]}


def dict_compose(outer, inner, trunc):
    """outer(inner(y)) through degree trunc; inner is a list of dicts
    without constant terms, and every power of it is multiplied out."""
    out = {}
    for m, c in dict_truncate(outer, trunc).items():
        term = {(0,) * len(inner): c}
        for i, e in enumerate(m):
            for _ in range(e):
                term = dict_mul(term, inner[i], trunc)
        out = dict_add(out, term, trunc)
    return out


def dict_invert(phi, trunc):
    """The inverse of the tangent-to-identity map phi (a list of dicts):
    after k passes of psi = id - h o psi it is exact through degree k + 1."""
    n = len(phi)
    ident = [{tuple(int(k == i) for k in range(n)): F(1)} for i in range(n)]
    h = [{m: c for m, c in dict_add(p, e, trunc, -1).items() if sum(m) >= 2} for p, e in zip(phi, ident)]
    psi = ident
    for _ in range(max(trunc - 1, 0)):
        psi = [dict_add(e, dict_compose(hj, psi, trunc), trunc, -1) for e, hj in zip(ident, h)]
    return psi


def dict_det(M, n, trunc):
    """The determinant of a square matrix of dicts, by Laplace expansion
    along the first row."""
    if not M:
        return {(0,) * n: F(1)}
    out = {}
    for j, entry in enumerate(M[0]):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        out = dict_add(out, dict_mul(entry, dict_det(minor, n, trunc), trunc), trunc, (-1) ** j)
    return out


def dict_mat_vec(M, X, trunc):
    out = []
    for row in M:
        acc = {}
        for e, x in zip(row, X):
            acc = dict_add(acc, dict_mul(e, x, trunc), trunc)
        out.append(acc)
    return out


def dict_unit_power(u, r, n, trunc):
    """(1 + u)^r through degree trunc, as the binomial series sum_k
    binom(r, k) u^k; u has no constant term."""
    out = term = {(0,) * n: F(1)}
    k = 0
    while True:
        k += 1
        term = dict_scale(dict_mul(term, u, trunc), F(r - (k - 1), k))
        if not term:
            return out
        out = dict_add(out, term, trunc)


# -- the Fraction composition engine --------------------------------------------------
#
# The engine as it was before packed monomials and integer numerators: every
# homogeneous part an exponent-tuple -> Fraction / GaussianRational dict,
# every product and sum a scalar operation.  Same interfaces as the packed
# engine, except that parts go in and out unpacked.


def _nonzero(acc):
    return {m: c for m, c in acc.items() if c != 0}


def _axpy(acc, c, part):
    """acc += c * part, zeros left in place."""
    unit = c == 1
    for m, v in part.items():
        x = v if unit else c * v
        y = acc.get(m)
        acc[m] = x if y is None else y + x


def _mul_into(acc, a, b):
    """acc += a * b, zeros left in place."""
    from operator import add

    for mb, cb in b.items():
        for ma, ca in a.items():
            m = tuple(map(add, ma, mb))
            y = acc.get(m)
            acc[m] = ca * cb if y is None else y + ca * cb


class FractionPowers:
    """series.Powers over Fraction dicts: parts[i][d] is the degree-d part
    of P_i, and part(m, s) is [P^m]_s."""

    def __init__(self, parts):
        n = len(parts)
        self.parts = parts
        self.cache = {tuple(int(k == i) for k in range(n)): parts[i] for i in range(n)}

    @classmethod
    def of(cls, inner, trunc):
        return cls([graded(c.truncate(trunc), trunc) for c in inner.components])

    def extend(self, new):
        for col, part in zip(self.parts, new):
            col.append(part)

    def part(self, m, s):
        col = self.cache.setdefault(m, [{}] * sum(m))
        if len(col) > s:
            return col[s]
        i = max(k for k, e in enumerate(m) if e)
        prev = m[:i] + (m[i] - 1,) + m[i + 1 :]
        low = sum(prev)
        assert low > 0, "inner map not known through degree s"
        while len(col) <= s:
            acc = {}
            for k in range(low, len(col)):
                _mul_into(acc, self.part(prev, k), self.parts[i][len(col) - k])
            col.append(_nonzero(acc))
        return col[s]


def fraction_compose_part(outer, powers, s):
    out = []
    for comp in outer:
        acc = {}
        for d in range(1, min(s + 1, len(comp))):
            for m, c in comp[d].items():
                _axpy(acc, c, powers.part(m, s))
        out.append(_nonzero(acc))
    return out


def fraction_derivative_part(phi, g, s):
    out = []
    for comp in phi:
        acc = {}
        for k in range(1, min(s + 1, len(comp))):
            for m, c in comp[k].items():
                for i, e in enumerate(m):
                    if e and s - k + 1 < len(g[i]):
                        _mul_into(acc, {m[:i] + (e - 1,) + m[i + 1 :]: c * e}, g[i][s - k + 1])
        out.append(_nonzero(acc))
    return out


# -- the packed engine per degree ------------------------------------------------------
#
# The degree loop and the conjugacy residual sum the engine's packed pairs
# themselves; these two read one degree out through the same pairs, for tests.


def _part_terms(part, n, s, trunc):
    """The exponent -> scalar terms of a packed degree-s part keyed with base
    trunc + 1, read through the public series."""
    from dulac.series import _ZERO

    return ScalarSeries._make(n, trunc, [_ZERO] * s + [part]).coeffs


def compose_part(outer, powers, s):
    """The degree-s part of each outer series composed with the inner map of
    `powers`.  Constant terms of the outer series are ignored, and the inner
    map must be known through degree s wherever the outer series has linear
    terms, through degree s - 1 otherwise."""
    from dulac.series import _pairs, _products

    trunc = powers.base - 1
    return [_part_terms(_products(_pairs(o._keyed(s, powers.base), powers, s)), o.n, s, trunc) for o in outer]


def derivative_part(phi, g, s):
    """The degree-s part of Dphi(y) g(y), for maps phi and g given as
    sequences of series; phi and g without linear terms need only their parts
    below degree s."""
    from dulac.series import Powers, _gradients, _lie_pairs, _products

    P, Q = (Powers(v, s, s) for v in (phi, g))
    return [_part_terms(_products(_lie_pairs(_gradients(enumerate(col), P.weights, P.base), Q.parts, s, 1)), P.n, s, s)
            for col in P.parts]


def graded(s, trunc):
    """The homogeneous parts of s through degree trunc, as exponent ->
    scalar dicts: out[d] holds the degree-d terms."""
    out = [{} for _ in range(trunc + 1)]
    for m, c in s.coeffs.items():
        if sum(m) <= trunc:
            out[sum(m)][m] = c
    return out


def fraction_mul(a, b, trunc=None):
    """ScalarSeries.mul over pairs of Fraction homogeneous parts."""
    if trunc is None:
        trunc = min(a.trunc, b.trunc)
    pa, pb = graded(a, trunc), graded(b, trunc)
    out = {}
    for d, part in enumerate(pa):
        if part:
            for other in pb[: trunc + 1 - d]:
                _mul_into(out, part, other)
    return ScalarSeries(a.n, trunc, _nonzero(out))


# -- integrals through Fraction series ------------------------------------------------
#
# The integral searches, the map residual and the independence check as they
# were before they read packed parts: each column a composition of one
# monomial, unpacked and subtracted as series, its rows in graded-lex order,
# and the gradients evaluated term by term in Fractions.


def oracle_eval(s, point):
    """Exact evaluation of a series at a point (the truncation as given)."""
    assert len(point) == s.n
    total = F(0)
    for m, c in s.coeffs.items():
        v = c
        for p, e in zip(point, m):
            if e:
                v = v * sc_pow(p, e)
        total = total + v
    return total


def oracle_verify_integral_map(V, Fm, order=None):
    """V o F - V through the order, as a series composition and difference."""
    if order is None:
        order = min(V.trunc, Fm.order)
    return oracle_compose_scalar(V.truncate(order), Fm.full(order), order) - V.truncate(order)


def oracle_verify_integral_field(V, X, order=None):
    """<grad V, X> through the order, as a gradient and a series inner product."""
    if order is None:
        order = min(V.trunc, X.order)
    return scalar_inner(oracle_gradient(V), X.full(order), order)


def _oracle_echelon_kernel_series(columns, monomials, n, degree):
    from dulac.series import grlex_key

    rows = sorted({r for col in columns.values() for r in col}, key=grlex_key)
    row_index = {r: i for i, r in enumerate(rows)}
    kernel = oracle_kernel_basis(
        {row_index[r]: v for r, v in columns[m].items()} for m in monomials
    )
    series = [
        ScalarSeries(n, degree, {monomials[c]: v for c, v in vec.items()})
        for vec in kernel
    ]
    series.sort(key=lambda s: s.terms()[0][0] if not s.is_zero() else ())
    return tuple(series)


def oracle_search_integrals_map(Fm, degree):
    """search_integrals on a map, with each column V o F - V of V = y^m composed
    and subtracted as series."""
    n = Fm.n
    if not Fm.spec.has_exact_values():
        assert Fm.nonlinear.is_zero()
        return tuple(
            ScalarSeries.monomial(n, degree, m)
            for m in iter_exponents(n, 1, degree)
            if Fm.spec.resonant(m)
        )
    monomials = list(iter_exponents(n, 1, degree))
    outers = [ScalarSeries.monomial(n, Fm.order, m) for m in monomials]
    powers = Fm.powers.compose(outers, Fm.order)
    columns = {m: dict((p - o).coeffs) for m, o, p in zip(monomials, outers, powers)}
    return _oracle_echelon_kernel_series(columns, monomials, n, degree)


def oracle_search_integrals_field(X, degree):
    """search_integrals on a field, with each column <grad y^m, X> summed term by
    term in Fractions."""
    n = X.n
    through = X.order
    Xf = X.full(through)
    monomials = list(iter_exponents(n, 1, degree))
    columns = {}
    for m in monomials:
        acc = {}
        for i, e in enumerate(m):
            if e == 0:
                continue
            shifted = m[:i] + (e - 1,) + m[i + 1 :]
            base = sum(shifted)
            for mm, c in Xf.components[i].coeffs.items():
                if base + sum(mm) > through:
                    continue
                out = tuple(a + b for a, b in zip(shifted, mm))
                v = acc.get(out, F(0)) + c * e
                if v == 0:
                    acc.pop(out, None)
                else:
                    acc[out] = v
        columns[m] = acc
    return _oracle_echelon_kernel_series(columns, monomials, n, degree)


def oracle_search_integrals(system, degree):
    """search_integrals as it was before it moved to normal-form coordinates:
    one column per monomial y^m with 1 <= |m| <= degree, in graded-lex
    order, read from F's power table (y^m o F - y^m, y^m subtracted on its
    own row) or summed by lie_derivative's pairs over X's table (<grad y^m,
    X>), through the certified order; the kernel in the integer Echelon,
    each vector 1 on its highest monomial."""
    from operator import mul

    from dulac.errors import HypothesisError
    from dulac.linalg import kernel_basis
    from dulac.series import _gradients, _lie_pairs, _products

    n, N = system.n, system.order
    if degree > N:
        raise HypothesisError(f"system data certified to degree {N}; cannot search to {degree}")
    if not system.spec.has_exact_values():
        if not system.nonlinear.is_zero():
            raise HypothesisError("formal-base search supports linear maps only")
        return tuple(
            ScalarSeries.monomial(n, degree, m) for m in iter_exponents(n, 1, degree) if system.spec.resonant(m)
        )
    is_map = isinstance(system, MapSystem)
    P = system.powers
    shift = P.base**n
    monomials = list(iter_exponents(n, 1, degree))
    columns = []
    for m in monomials:
        k, d = sum(map(mul, m, P.weights)), sum(m)
        if is_map:
            parts = [P.part(k, s) for s in range(d, N + 1)]
        else:
            grads = _gradients([(d, (1, {k: 1}, {}))], P.weights, P.base)
            parts = [_products(_lie_pairs(grads, P.parts, s)) for s in range(d, N + 1)]
        den = lcm(*(part[0] for part in parts))
        re, im = (
            {s * shift + key: den // part[0] * x for s, part in enumerate(parts, d) for key, x in part[i].items()}
            for i in (1, 2)
        )
        if is_map:
            re[d * shift + k] = re.get(d * shift + k, 0) - den
        columns.append((den, re, im))
    return tuple(
        ScalarSeries(n, degree, {monomials[c]: v for c, v in vec.items()})
        for vec in sorted(kernel_basis(columns), key=lambda vec: monomials[min(vec)])
    )


def oracle_independence_check(integrals, trials=8, seed=0):
    """independence_check with the gradients evaluated in Fractions at each
    sample point."""
    import random

    from dulac.integrals import IndependenceCertificate

    vs = tuple(integrals)
    n, k = vs[0].n, len(vs)
    grads = [oracle_gradient(v) for v in vs]
    rng = random.Random(seed)
    best = 0
    for t in range(trials):
        point = tuple(F(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(n))
        r = oracle_rank([[oracle_eval(comp, point) for comp in g.components] for g in grads])
        best = max(best, r)
        if r == k:
            return IndependenceCertificate(True, k, point, t + 1)
    return IndependenceCertificate(False, best, None, trials)


def oracle_independence(integrals, spec=None):
    """The jet-minor certificate of functional independence: (columns,
    degree) of the first k x k minor of the Jacobian of the k integrals (in
    lexicographic order of its columns) with a nonzero part that the jets
    fix, at that part's degree, or None when no minor has one.

    V_i known through degree N_i with lowest degree nu_i makes row i of the
    Jacobian known below degree N_i, and each product in a minor takes one
    entry from every row, so a term that an unknown entry of row i reaches
    has degree at least N_i + sum_(j != i) (nu_j - 1): every part of a minor
    through degree min_i (N_i - 1 + sum_(j != i) (nu_j - 1)) is fixed.  A
    nonzero fixed part certifies that any series with these jets are
    independent.  With `spec`, k above `spec.kernel_rank` is refused first
    (the gate); the minors refuse those k without it.  The rows are the
    `oracle_gradient`s of the integrals, and each minor is one
    `oracle_det_series`."""
    from itertools import combinations

    vs = tuple(integrals)
    k, n = len(vs), vs[0].n
    if any(v.is_zero() for v in vs) or k > n or (spec is not None and k > spec.kernel_rank):
        return None
    lows = [v.low_degree() for v in vs]
    top = min(v.trunc - 1 + sum(lows) - low - (k - 1) for v, low in zip(vs, lows))
    rows = [[g.with_trunc(top) for g in oracle_gradient(v)] for v in vs]
    for cols in combinations(range(n), k):
        minor = oracle_det_series([[row[j] for j in cols] for row in rows], top)
        if not minor.is_zero():
            return cols, minor.low_degree()
    return None


# -- report edits ----------------------------------------------------------------------


def leaf_edits(doc, path=()):
    """(path, edited copy) for each leaf of a JSON document, edited by one
    rule: an int + 1, a bool flipped, a string extended, None -> 0.  An edit
    that leaves the JSON text unchanged is skipped."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            for sub, edited in leaf_edits(value, path + (key,)):
                copy = json.loads(json.dumps(doc))
                copy[key] = edited
                yield sub, copy
        return
    if isinstance(doc, bool):
        edited = not doc
    elif isinstance(doc, int):
        edited = doc + 1
    elif isinstance(doc, str):
        edited = doc + "x"
    elif doc is None:
        edited = 0
    else:
        return
    if json.dumps(edited) != json.dumps(doc):
        yield path, edited


def element_deletions(doc, path=()):
    """(path, index) for each element of each list of a JSON document, the
    lists inside elements included: deleting doc[path][index] edits it."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        if isinstance(doc, list):
            yield from ((path, i) for i in range(len(doc)))
        for key, value in items:
            yield from element_deletions(value, path + (key,))


# -- the report boundary through scalars ------------------------------------------------
#
# The parse and write paths that `cli` replaced by reading and writing packed
# parts directly: each JSON coefficient became a `Fraction` or a Gaussian
# rational, and the validating `ScalarSeries` constructor split it back into
# parts; the writer read `terms()` and wrote each scalar with `scalar_to_json`.


def oracle_term(term, where, n, scalars_tag, component=True):
    """(0-based component or None, exponent, scalar) of one term object."""
    from dulac.cli import SystemFileError, _field
    from dulac.scalars import is_int, scalar_from_json

    if not isinstance(term, dict):
        raise SystemFileError(f"{where}: each term is an object")
    j = None
    if component:
        j = _field(term, "component", int, where)
        if not 1 <= j <= n:
            raise SystemFileError(f"{where}: component {j} out of range 1..{n}")
        j -= 1
    expo = _field(term, "exponent", list, where)
    if len(expo) != n or not all(is_int(e) and e >= 0 for e in expo):
        raise SystemFileError(f"{where}: exponent must be {n} nonnegative integers")
    data = _field(term, "coeff", list, where)
    try:
        coeff = scalar_from_json(data)
    except ValueError as exc:
        raise SystemFileError(f"{where}: {exc}") from exc
    if scalars_tag == "rational" and len(data) == 4:
        raise SystemFileError(f"{where}: gaussian coefficient in a file declaring scalars=rational")
    return j, tuple(expo), coeff


def oracle_read_terms(terms, where, n, trunc, scalars_tag="gaussian", vector=True, low=0):
    """The series of a JSON term list through `oracle_term` and
    `VectorSeries.from_terms`, repeated exponents summed: one per component,
    or one without components."""
    from dulac.cli import SystemFileError

    if not isinstance(terms, list):
        raise SystemFileError(f"{where}: terms must be a list")
    triples = []
    for i, t in enumerate(terms):
        j, m, c = oracle_term(t, f"{where}[{i}]", n, scalars_tag, vector)
        if sum(m) < low:
            raise SystemFileError(
                f"{where}[{i}]: exponent degree {sum(m)} < {low}; constant and linear "
                "terms belong to the eigen data"
            )
        triples.append((j or 0, m, c))
    top = max([trunc] + [sum(m) for _, m, _ in triples])
    return list(VectorSeries.from_terms(n, top, triples))[: n if vector else 1]


def oracle_scalar_series_json(s):
    from dulac.scalars import scalar_to_json

    return [{"coeff": scalar_to_json(c), "exponent": list(m)} for m, c in s.terms()]


def oracle_vector_series_json(v):
    from dulac.scalars import scalar_to_json

    return [{"coeff": scalar_to_json(c), "component": j + 1, "exponent": list(m)}
            for j, comp in enumerate(v.components) for m, c in comp.terms()]


def checked_read_terms(terms, where, n, trunc, scalars_tag="gaussian", vector=True, low=0, claimed=None,
                       as_read=False):
    """`cli._read_terms` before its fast path: every term through
    `_checked_term`, which names the first thing wrong with it, and with
    as_read no list taken as read, so that `verify` rebuilds and compares
    every one."""
    from dulac.cli import SystemFileError, _checked_term, _fail, _shown

    if not isinstance(terms, list):
        raise SystemFileError(f"{where}: terms must be a list")
    read = [[] for _ in range(n if vector else 1)]
    for i, t in enumerate(terms):
        j, m, c = _checked_term(t, f"{where}[{i}]", n, scalars_tag, vector)
        d = sum(m)
        if d < low:
            raise SystemFileError(
                f"{where}[{i}]: exponent degree {d} < {low}; constant and linear "
                "terms belong to the eigen data"
            )
        if d > trunc:
            if claimed:
                _fail(f"{claimed} of degree {_shown(d)}, above the verified order {trunc}")
            raise SystemFileError(f"{where}[{i}]: exponent degree {_shown(d)} is above order_N = {trunc}")
        read[j - 1].append((d, m, c))
    series = [ScalarSeries._from_ints(n, trunc, comp) for comp in read]
    return (series, None) if as_read else series


def rebuilding_reader(read):
    """`read`, a `cli._read_terms`, that takes no claimed term list as read:
    `verify` then rebuilds every list from the series read and compares it
    with the claim, as it did before `_read_terms` decided written form."""

    def reader(*args, as_read=False, **kwargs):
        series = read(*args, **kwargs)
        return (series, None) if as_read else series

    return reader


def oracle_in_written_form(terms, n, trunc, vector=True):
    """Whether a valid term list is the list dulac writes for the series it
    holds, decided by rebuilding that list and comparing the two as JSON
    (`cli._same`: types kept, key order aside)."""
    from dulac.cli import _read_terms, _same, _scalar_series_json, _vector_series_json

    series = _read_terms(terms, "terms", n, trunc, vector=vector)
    return _same(terms, _vector_series_json(VectorSeries(series)) if vector else _scalar_series_json(series[0]))


def oracle_json_text(value, pad=""):
    """`cli._json_text` before term-list templates: each series term object
    written in one formatted step of its own."""
    from dulac.cli import _ESCAPE, _TERM_KEYS

    t = type(value)
    if t is int:
        return int.__repr__(value)
    if t is str:
        return _ESCAPE(value)
    inner = pad + "  "
    if t is dict and value.keys() in _TERM_KEYS:
        c, m, j = value["coeff"], value["exponent"], value.get("component", 0)
        if type(c) is type(m) is list and c and m and type(j) is int and all(type(x) is int for x in c + m):
            sep = ",\n" + inner + "  "
            comp = f'"component": {int.__repr__(j)},\n{inner}' if "component" in value else ""
            return (f'{{\n{inner}"coeff": [\n{inner}  {sep.join(map(int.__repr__, c))}\n{inner}],\n{inner}{comp}'
                    f'"exponent": [\n{inner}  {sep.join(map(int.__repr__, m))}\n{inner}]\n{pad}}}')
    if isinstance(value, (list, tuple)) and value:
        items = [oracle_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict) and value:
        items = [_ESCAPE(k) + ": " + oracle_json_text(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value)


def oracle_claimed_resonance(spec, phi, g):
    """`verify`'s resonance check of a claimed pair before class key sets:
    every monomial tested by `EigenSpec.resonant`, phi before g, components
    in order, graded-lex within a component; the message of the first that
    is on the wrong side, or None."""
    for name, series, resonant in (("phi", phi, False), ("g", g, True)):
        for j, comp in enumerate(series.components):
            for m in comp.exponents():
                if spec.resonant(m, j) != resonant:
                    kind = "nonresonant" if resonant else "resonant"
                    return f"{name} carries {kind} monomial {m} in component {j + 1}"
    return None
