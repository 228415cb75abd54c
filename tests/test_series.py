import ast
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from dulac import series
from dulac.scalars import gaussian
from dulac.series import (
    Powers,
    ScalarSeries,
    SeriesError,
    VectorSeries,
    _minors,
    compose,
    cross,
    det_series,
    gradient,
    invert,
    jacobian,
    unit_power,
)

from helpers import (
    mat_vec,
    oracle_compose_scalar,
    oracle_cross,
    oracle_det_series,
    oracle_eval,
    oracle_gradient,
    oracle_jacobian,
    oracle_mul,
    random_sparse_series,
    scalar_inner,
)
from test_diagonal_tables import check_series


def S(n, trunc, terms):
    return ScalarSeries(n, trunc, terms)


class TestMul:
    def test_difference_of_squares(self):
        one = ScalarSeries.one(2, 4)
        xy = ScalarSeries.monomial(2, 4, (1, 1))
        assert (one + xy).mul(one - xy, 4) == one - ScalarSeries.monomial(2, 4, (2, 2))

    def test_identity_element(self):
        a = S(2, 5, {(1, 0): F(2, 3), (2, 2): -1})
        assert a.mul(ScalarSeries.one(2, 5)) == a

    def test_square_truncated(self):
        s = ScalarSeries.one(2, 2) + ScalarSeries.variable(2, 0, 2) + ScalarSeries.variable(2, 1, 2)
        expected = S(2, 2, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert s.mul(s, 2) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(SeriesError):
            ScalarSeries.one(2, 3).mul(ScalarSeries.one(3, 3))

    def test_truncation_drops_high_degrees(self):
        a = S(1, 3, {(2,): 1})
        assert a.mul(a, 3).is_zero()

    def test_gaussian_coefficients(self):
        i = gaussian(0, 1)
        a = S(1, 2, {(1,): i})
        assert a.mul(a, 2) == S(1, 2, {(2,): -1})

    @staticmethod
    def operand(rng, n, field):
        trunc = rng.randint(0, 6)
        kind = rng.choice(["random", "random", "empty", "constant"])
        if kind == "empty":
            return ScalarSeries.zero(n, trunc)
        if kind == "constant":
            return ScalarSeries.const(n, trunc, F(rng.randint(1, 5), rng.randint(1, 3)))
        return random_sparse_series(rng, n, trunc, max_terms=8, gaussian=field == "Q(i)")

    @pytest.mark.parametrize("field", ["Q", "Q(i)"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_double_loop_oracle(self, field, n):
        rng = random.Random(f"mul-{field}-{n}")
        for _ in range(40):
            a, b = self.operand(rng, n, field), self.operand(rng, n, field)
            low, high = sorted((a.trunc, b.trunc))
            # below, at and above the operands' truncations, and the default
            for trunc in (max(low - 1, 0), low, high, high + 2, None):
                got, want = a.mul(b, trunc), oracle_mul(a, b, trunc)
                assert got == want and got.trunc == want.trunc
                assert all(type(c) is type(want.coeffs[m]) for m, c in got.coeffs.items())


class TestConstants:
    """A scalar operand of + and - is the constant series of that scalar,
    Gaussian rationals included, on either side."""

    @pytest.mark.parametrize("c", [3, F(1, 2), gaussian(1, 2), gaussian(0, -1)])
    def test_scalar_is_its_constant_series(self, c):
        x = ScalarSeries.variable(2, 0, 3)
        const = ScalarSeries.const(2, 3, c)
        assert x + c == c + x == x + const
        assert x - c == x - const
        assert c - x == const - x

    def test_worked_example(self):
        outer = VectorSeries([S(2, 4, {(1, 0): 1, (0, 2): 1}), S(2, 4, {(0, 1): 1})])
        inner = VectorSeries([S(2, 4, {(1, 0): 2}), S(2, 4, {(0, 1): 1, (2, 0): 1})])
        got = compose(outer, inner, 4)
        assert got.components[0] == S(2, 4, {(1, 0): 2, (0, 2): 1, (2, 1): 2, (4, 0): 1})
        assert got.components[1] == S(2, 4, {(0, 1): 1, (2, 0): 1})

    def test_identity_both_sides(self):
        ident = VectorSeries.identity(2, 5)
        G = VectorSeries([S(2, 5, {(1, 0): 3, (2, 1): F(1, 2)}), S(2, 5, {(0, 1): 1, (0, 3): -2})])
        assert compose(G, ident) == G
        assert compose(ident, G) == G

    def test_constant_term_rejected(self):
        bad = VectorSeries([ScalarSeries.one(2, 3), ScalarSeries.zero(2, 3)])
        with pytest.raises(SeriesError):
            compose(VectorSeries.identity(2, 3), bad)

    def test_associative_up_to_truncation(self):
        import random

        from helpers import random_tangent_identity

        rng = random.Random(7)
        for _ in range(10):
            n = rng.choice([2, 3])
            Fv = random_tangent_identity(rng, n, 5)
            G = random_tangent_identity(rng, n, 5)
            H = random_tangent_identity(rng, n, 5)
            assert compose(compose(Fv, G, 5), H, 5) == compose(Fv, compose(G, H, 5), 5)

    def test_scalar_composition(self):
        V = S(2, 4, {(1, 1): 1})
        inner = VectorSeries([S(2, 4, {(1, 0): 1, (0, 2): 1}), S(2, 4, {(0, 1): 1})])
        want = S(2, 4, {(1, 1): 1, (0, 3): 1})
        assert Powers.of(inner, 4).compose([V], 4) == [want] == [oracle_compose_scalar(V, inner, 4)]


class TestInvert:
    def test_shift_inverse(self):
        phi = VectorSeries([S(2, 4, {(1, 0): 1, (0, 2): 1}), S(2, 4, {(0, 1): 1})])
        psi = invert(phi)
        assert psi.components[0] == S(2, 4, {(1, 0): 1, (0, 2): -1})
        assert compose(phi, psi) == VectorSeries.identity(2, 4)
        assert compose(psi, phi) == VectorSeries.identity(2, 4)

    def test_identity(self):
        ident = VectorSeries.identity(3, 4)
        assert invert(ident) == ident

    def test_back_substitution_example(self):
        phi = VectorSeries([S(2, 3, {(1, 0): 1, (1, 1): 1}), S(2, 3, {(0, 1): 1})])
        psi = invert(phi, 3)
        assert psi.components[0] == S(2, 3, {(1, 0): 1, (1, 1): -1, (1, 2): 1})

    def test_two_sided_on_random_inputs(self):
        import random

        from helpers import random_tangent_identity

        rng = random.Random(3)
        for _ in range(15):
            n = rng.choice([2, 3])
            phi = random_tangent_identity(rng, n, 6)
            psi = invert(phi, 6)
            ident = VectorSeries.identity(n, 6)
            assert compose(phi, psi, 6) == ident
            assert compose(psi, phi, 6) == ident

    def test_rejects_general_linear_part(self):
        bad = VectorSeries([S(2, 3, {(1, 0): 2}), S(2, 3, {(0, 1): 1})])
        with pytest.raises(SeriesError):
            invert(bad)


class TestJacobianDet:
    def test_worked_jacobian(self):
        Fv = VectorSeries([S(2, 4, {(1, 1): 1}), S(2, 4, {(0, 2): 1})])
        J = jacobian(Fv)
        assert J[0][0] == S(2, 3, {(0, 1): 1})
        assert J[0][1] == S(2, 3, {(1, 0): 1})
        assert J[1][0].is_zero()
        assert J[1][1] == S(2, 3, {(0, 1): 2})
        assert det_series(J) == S(2, 3, {(0, 2): 2})

    def test_jacobian_of_identity(self):
        J = jacobian(VectorSeries.identity(3, 4))
        for i in range(3):
            for j in range(3):
                assert J[i][j] == (ScalarSeries.one(3, 3) if i == j else ScalarSeries.zero(3, 3))

    def test_jacobian_of_linear_map(self):
        B = VectorSeries.diagonal_linear([F(1, 2), 3], 4)
        J = jacobian(B)
        assert J[0][0] == ScalarSeries.const(2, 3, F(1, 2))
        assert J[1][1] == ScalarSeries.const(2, 3, 3)

    def test_det_diagonal(self):
        u = ScalarSeries.variable(1, 0, 2)
        M = [
            [ScalarSeries.one(1, 2) + u, ScalarSeries.zero(1, 2)],
            [ScalarSeries.zero(1, 2), ScalarSeries.one(1, 2) - u],
        ]
        assert det_series(M, 2) == S(1, 2, {(0,): 1, (2,): -1})

    @pytest.mark.parametrize("trunc", [None, 3])
    def test_det_of_an_empty_matrix_is_refused(self, trunc):
        """A 0 x 0 matrix names no series dimension, so it has no
        determinant series: a SeriesError, not a ValueError from min()."""
        with pytest.raises(SeriesError, match="empty matrix"):
            det_series([], trunc)

    def test_det_matches_permutation_expansion(self):
        import itertools
        import random

        from helpers import random_sparse_series

        rng = random.Random(11)
        for _ in range(8):
            k = rng.choice([2, 3, 4])
            M = [[random_sparse_series(rng, 2, 3, max_terms=2) for _ in range(k)] for _ in range(k)]
            expected = ScalarSeries.zero(2, 3)
            for perm in itertools.permutations(range(k)):
                sign = 1
                for i in range(k):
                    for j in range(i + 1, k):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = ScalarSeries.one(2, 3)
                for i in range(k):
                    term = term.mul(M[i][perm[i]], 3)
                expected = expected + (term if sign > 0 else -term)
            assert det_series(M, 3) == expected


class TestCross:
    def test_standard_basis(self):
        e1 = VectorSeries([ScalarSeries.one(3, 2), ScalarSeries.zero(3, 2), ScalarSeries.zero(3, 2)])
        e2 = VectorSeries([ScalarSeries.zero(3, 2), ScalarSeries.one(3, 2), ScalarSeries.zero(3, 2)])
        c = cross([e1, e2])
        assert c.components[0].is_zero() and c.components[1].is_zero()
        assert c.components[2] == ScalarSeries.one(3, 2)

    def test_planar_gradient(self):
        g = gradient(ScalarSeries.monomial(2, 4, (1, 1)))
        c = cross([g])
        assert c.components[0] == S(2, 3, {(1, 0): 1})
        assert c.components[1] == S(2, 3, {(0, 1): -1})

    def test_orthogonality_exact(self):
        import random

        from helpers import random_sparse_series

        rng = random.Random(5)
        for _ in range(10):
            n = rng.choice([2, 3, 4])
            vs = [
                VectorSeries([random_sparse_series(rng, n, 4, max_terms=3) for _ in range(n)])
                for _ in range(n - 1)
            ]
            c = cross(vs, 4)
            for v in vs:
                assert scalar_inner(c, v, 4).is_zero()

    def test_wrong_count(self):
        g = gradient(ScalarSeries.monomial(3, 3, (1, 1, 1)))
        with pytest.raises(SeriesError):
            cross([g])


def entry(rng, n, gq):
    """A random series of a random truncation degree, zero a quarter of the time."""
    if rng.random() < 0.25:
        return ScalarSeries.zero(n, rng.randint(2, 4))
    return random_sparse_series(rng, n, rng.randint(2, 5 - n // 3), 4, gq)


MINOR_CASES = [(n, gq, seed) for n in (1, 2, 3, 4) for gq in (False, True) for seed in range(3)]


class TestOneTableOfMinors:
    """`_minors`, and the `det_series`, `cross`, `gradient` and `jacobian`
    built on it and on `_gradients`, against the expansions and the
    one-variable derivative they replaced (helpers), exactly and with
    canonical parts, on seeded matrices over Q and Q(i) with zero entries,
    a zero row (seed 1), and an explicit truncation below the entries'."""

    @staticmethod
    def matrix(rng, n, k, m, gq, seed):
        M = [[entry(rng, n, gq) for _ in range(m)] for _ in range(k)]
        if seed == 1:
            M[rng.randrange(k)] = [ScalarSeries.zero(n, 3)] * m
        return M

    @pytest.mark.parametrize("n,gq,seed", MINOR_CASES)
    def test_minors_and_det_series(self, n, gq, seed):
        rng = random.Random(f"minors/{n}/{gq}/{seed}")
        for m in range(1, 5):
            for k in range(1, m + 1):
                M = self.matrix(rng, n, k, m, gq, seed)
                low = min(e.trunc for row in M for e in row)
                for t in {low, max(low - 2, 0)}:
                    minors = _minors(M, n, t)
                    assert set(minors) == set(combinations(range(m), k))
                    for cols, got in minors.items():
                        want = oracle_det_series([[row[j] for j in cols] for row in M], t)
                        assert got == want and got.trunc == t
                        check_series(got)
                if k == m:
                    for t in (None, max(low - 2, 0)):
                        got, want = det_series(M, t), oracle_det_series(M, t)
                        assert got == want and got.trunc == want.trunc
                        check_series(got)

    @pytest.mark.parametrize("n,gq,seed", MINOR_CASES)
    def test_cross(self, n, gq, seed):
        rng = random.Random(f"cross/{n}/{gq}/{seed}")
        if n == 1:
            with pytest.raises(SeriesError):
                cross([])
            return
        for _ in range(3):
            vs = [VectorSeries(row) for row in self.matrix(rng, n, n - 1, n, gq, seed)]
            low = min(v.trunc for v in vs)
            for t in (None, max(low - 2, 0)):
                got, want = cross(vs, t), oracle_cross(vs, t)
                assert got == want and got.trunc == want.trunc
                check_series(*got)

    @pytest.mark.parametrize("n,gq,seed", MINOR_CASES)
    def test_gradient_and_jacobian(self, n, gq, seed):
        rng = random.Random(f"gradient/{n}/{gq}/{seed}")
        for trunc in range(0, 5):
            V = random_sparse_series(rng, n, trunc, 6, gq)
            got, want = gradient(V), oracle_gradient(V)
            assert got == want and [g.trunc for g in got] == [w.trunc for w in want] == [max(trunc - 1, 0)] * n
            check_series(*got)
            Fv = VectorSeries([random_sparse_series(rng, n, trunc, 4, gq) for _ in range(n)])
            J, want = jacobian(Fv), oracle_jacobian(Fv)
            assert J == want and [e.trunc for row in J for e in row] == [e.trunc for row in want for e in row]
            check_series(*(e for row in J for e in row))

    @pytest.mark.parametrize("n,want,parent", [(3, 6, 9), (4, 14, 28)])
    def test_cross_runs_one_expansion(self, n, want, parent, monkeypatch):
        """n - 1 rows of n generic entries: 2^n - 2 `_dot`s, one per minor
        of every size, against n (2^(n-1) - 1) for n determinants each
        expanded on its own."""
        rng = random.Random(f"count/{n}")
        vs = [VectorSeries([random_sparse_series(rng, n, 3, 3) + ScalarSeries.one(n, 3) for _ in range(n)])
              for _ in range(n - 1)]
        calls = []
        dot = series._dot
        monkeypatch.setattr(series, "_dot", lambda *a: calls.append(1) or dot(*a))
        got = cross(vs)
        assert len(calls) == want
        calls.clear()
        assert oracle_cross(vs) == got
        assert len(calls) == parent


class TestUnitPower:
    def test_square_root(self):
        t = ScalarSeries.variable(1, 0, 3)
        h = unit_power(t, F(1, 2), 2)
        assert h == S(1, 2, {(0,): 1, (1,): F(1, 2), (2,): F(-1, 8)})
        assert h.mul(h, 2) == S(1, 2, {(0,): 1, (1,): 1})

    def test_zero_exponent(self):
        t = ScalarSeries.variable(1, 0, 3)
        assert unit_power(t, 0, 3) == ScalarSeries.one(1, 3)

    def test_geometric_series(self):
        t = ScalarSeries.variable(1, 0, 3)
        inv = unit_power(t, -1, 3)
        assert inv == S(1, 3, {(0,): 1, (1,): -1, (2,): 1, (3,): -1})
        assert inv.mul(ScalarSeries.one(1, 3) + t, 3) == ScalarSeries.one(1, 3)

    def test_integer_power_matches_mul(self):
        u = S(2, 6, {(1, 0): F(1, 2), (1, 1): -2})
        base = ScalarSeries.one(2, 6) + u
        assert unit_power(u, 3, 6) == base.mul(base, 6).mul(base, 6)

    def test_exponent_addition(self):
        import random

        from helpers import random_sparse_series

        rng = random.Random(13)
        for _ in range(10):
            u = random_sparse_series(rng, 2, 5, max_terms=3)
            u = u - ScalarSeries.const(2, 5, u.constant_term())
            r1 = F(rng.randint(-4, 4), rng.randint(1, 3))
            r2 = F(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = unit_power(u, r1 + r2, 5)
            rhs = unit_power(u, r1, 5).mul(unit_power(u, r2, 5), 5)
            assert lhs == rhs

    def test_constant_term_rejected(self):
        with pytest.raises(SeriesError):
            unit_power(ScalarSeries.one(1, 3), F(1, 2), 3)


class TestStructure:
    def test_no_explicit_zeros(self):
        s = S(2, 3, {(1, 0): 1}) - S(2, 3, {(1, 0): 1})
        assert s.coeffs == {}
        assert s.is_zero()

    def test_equality_is_structural(self):
        assert S(2, 3, {(1, 0): 1}) == S(2, 5, {(1, 0): 1})
        assert hash(S(2, 3, {(1, 0): 1})) == hash(S(2, 5, {(1, 0): 1}))

    def test_degree_cap_enforced(self):
        with pytest.raises(SeriesError):
            S(2, 2, {(2, 1): 1})

    def test_truncate_never_extends(self):
        s = S(2, 3, {(1, 0): 1})
        with pytest.raises(SeriesError):
            s.truncate(5)
        assert s.with_trunc(5).trunc == 5

    def test_mat_vec(self):
        M = [[ScalarSeries.one(2, 3), ScalarSeries.zero(2, 3)],
             [S(2, 3, {(1, 0): 1}), ScalarSeries.one(2, 3)]]
        X = VectorSeries([S(2, 3, {(0, 1): 1}), S(2, 3, {(1, 0): 2})])
        got = mat_vec(M, X, 3)
        assert got.components[0] == S(2, 3, {(0, 1): 1})
        assert got.components[1] == S(2, 3, {(1, 1): 1, (1, 0): 2})

    def test_eval_exact(self):
        s = S(2, 4, {(1, 1): F(1, 3), (0, 2): -1})
        assert oracle_eval(s, (F(3), F(2))) == F(1, 3) * 6 - 4


class TestSums:
    """`+` and `from_terms` store a coefficient whose exponent is new as it
    is; the sums still match a term-by-term Fraction(0)-seeded total."""

    def test_add_matches_termwise_sum(self):
        rng = random.Random("sums")
        for _ in range(300):
            n, gauss = rng.randint(1, 3), rng.random() < 0.5
            a = random_sparse_series(rng, n, rng.randint(1, 5), 8, gauss)
            b = random_sparse_series(rng, n, rng.randint(1, 5), 8, gauss)
            trunc = min(a.trunc, b.trunc)
            want = {}
            for m, c in list(a.coeffs.items()) + list(b.coeffs.items()):
                if sum(m) <= trunc:
                    want[m] = want.get(m, F(0)) + c
            got = a + b
            assert got.trunc == trunc
            assert got.coeffs == {m: c for m, c in want.items() if c != 0}
            assert all(type(c) is type(want[m]) for m, c in got.coeffs.items())
            assert (a - a).is_zero()

    def test_from_terms_sums_repeated_terms(self):
        v = VectorSeries.from_terms(2, 3, [
            (0, (2, 0), F(1, 2)), (0, (2, 0), F(-1, 2)), (1, (1, 1), 3),
            (1, (1, 1), gaussian(0, 1)), (1, (0, 2), F(2)),
        ])
        assert v[0].is_zero()
        assert v[1].coeffs == {(1, 1): gaussian(3, 1), (0, 2): F(2)}


def test_every_public_function_of_series_and_scalars_has_a_caller():
    """A module-level public function of `series` or `scalars` is named (an
    AST name or attribute) somewhere in `src/dulac` outside its own
    definition and outside the re-exports of `__init__`, or is imported by a
    benchmark script in `bench/`, which is only read."""
    root = Path(__file__).resolve().parent.parent
    src, bench = root / "src" / "dulac", root / "bench"
    imported = {a.name for path in bench.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dulac"
                for a in node.names}
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py") if path.name != "__init__.py"}
    for module in ("series", "scalars"):
        public = {node.name for node in trees[module].body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        named = set()
        for stem, tree in trees.items():
            for node in tree.body:
                own = stem == module and isinstance(node, ast.FunctionDef) and node.name in public
                named |= {x.id if isinstance(x, ast.Name) else x.attr for x in ast.walk(node)
                          if isinstance(x, (ast.Name, ast.Attribute))} - ({node.name} if own else set())
        missing = public - named - imported
        assert not missing, f"{module}: {sorted(missing)}"


def test_series_imports_only_errors_and_scalars():
    """`series` sits under every other module of the package: anywhere in
    it, the only modules of `dulac` it imports are `errors` and `scalars`
    (so a diagonal table's scaling comes from the table, never from
    `resonance`)."""
    imported = set()
    for node in ast.walk(ast.parse(Path(series.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, or from . import y
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "dulac":
            imported |= {node.module.partition(".")[2]} if "." in node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.partition(".")[2] or a.name for a in node.names if a.name.split(".")[0] == "dulac"}
    assert imported == {"errors", "scalars"}
