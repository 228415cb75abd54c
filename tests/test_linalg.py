"""The integer sparse echelon against the dense RREF oracle and the Fraction
echelon it replaced, on seeded random matrices over Q and Q(i), and on the
lattice matrices the package builds."""

import ast
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import dulac.linalg
from dulac.linalg import Echelon, kernel_basis, primitive_integer_kernel
from dulac.resonance import (
    EigenSpec,
    _generator_candidate,
    _is_simple,
    enumerate_lattice,
)
from dulac.scalars import gaussian

from helpers import (
    OracleEchelon,
    dense_kernel,
    dense_rref,
    oracle_int_det,
    oracle_kernel_basis,
    oracle_rank,
    packed_column,
)


def columns_of(rows, ncols):
    return [{r: row[c] for r, row in enumerate(rows) if row[c] != 0} for c in range(ncols)]


def dense(vec, ncols):
    return [vec.get(c, F(0)) for c in range(ncols)]


def random_scalar(rng, field):
    re = F(rng.randint(-5, 5), rng.randint(1, 4))
    if field == "Q(i)" and rng.random() < 0.5:
        return gaussian(re, F(rng.randint(-3, 3), rng.randint(1, 3)))
    return re


def random_matrix(rng, shape, field):
    """Rows x cols matrix of one of the shapes the oracle tests cover."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 9)
    if shape == "dense":
        rows = [[random_scalar(rng, field) for _ in range(ncols)] for _ in range(nrows)]
    elif shape == "sparse":
        rows = [
            [random_scalar(rng, field) if rng.random() < 0.25 else F(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    elif shape == "low-rank":
        k = rng.randint(1, 3)
        a = [[random_scalar(rng, field) for _ in range(k)] for _ in range(nrows)]
        b = [[random_scalar(rng, field) for _ in range(ncols)] for _ in range(k)]
        rows = [
            [sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(ncols)]
            for i in range(nrows)
        ]
    else:  # zero and repeated columns mixed into a random matrix
        base = [[random_scalar(rng, field) for _ in range(ncols)] for _ in range(nrows)]
        picks = [rng.choice(["zero", "repeat", "own"]) for _ in range(ncols)]
        rows = []
        for row in base:
            out = []
            for j, pick in enumerate(picks):
                if pick == "zero" or (pick == "repeat" and j == 0):
                    out.append(F(0))
                elif pick == "repeat":
                    out.append(out[rng.randrange(j)])
                else:
                    out.append(row[j])
            rows.append(out)
    return rows, ncols


CASES = [
    (field, shape, seed)
    for field in ("Q", "Q(i)")
    for shape in ("dense", "sparse", "low-rank", "zero-or-repeated")
    for seed in range(25)
]


@pytest.mark.parametrize("field,shape,seed", CASES)
def test_echelon_matches_dense_rref(field, shape, seed):
    rng = random.Random(f"{field}-{shape}-{seed}")
    rows, ncols = random_matrix(rng, shape, field)
    _, oracle_pivots = dense_rref(rows)
    columns = [packed_column(col) for col in columns_of(rows, ncols)]

    echelon = Echelon()
    pivots = [c for c, (den, re, im) in enumerate(columns) if echelon.add(re, im, den) is None]
    assert pivots == oracle_pivots
    assert echelon.rank == oracle_rank(rows) == len(oracle_pivots)

    kernel = [dense(v, ncols) for v in kernel_basis(columns)]
    assert kernel == dense_kernel(rows, ncols)

    # the row numbering sets the cost only: permuted rows, same kernel
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    shuffled = [(den, *({perm[r]: x for r, x in d.items()} for d in (re, im))) for den, re, im in columns]
    assert [dense(v, ncols) for v in kernel_basis(shuffled)] == kernel

    # the rows inserted as columns: their span's reduced echelon form, each
    # vector keyed by its pivot, the lowest index
    spans = Echelon()
    for row in rows:
        den, re, im = packed_column({c: x for c, x in enumerate(row) if x != 0})
        spans.add(re, im, den)
    reduced, pivots = dense_rref(rows)
    want = {p: {c: x for c, x in enumerate(row) if x != 0} for p, row in zip(pivots, reduced)}
    assert spans.reduced(spans.pivots) == want


def test_empty_matrices():
    assert kernel_basis([]) == []
    assert [dense(v, 3) for v in kernel_basis([(1, {}, {})] * 3)] == dense_kernel([], 3)
    assert Echelon().rank == 0


def test_kernel_vector_annihilates_columns():
    rng = random.Random("annihilate")
    for _ in range(20):
        rows, ncols = random_matrix(rng, "low-rank", "Q(i)")
        for v in kernel_basis(packed_column(col) for col in columns_of(rows, ncols)):
            for row in rows:
                assert sum((row[c] * x for c, x in v.items()), F(0)) == 0


def test_input_column_is_not_mutated():
    re, im = {0: 1, 1: 0, 2: 3}, {1: 2, 2: 0}
    echelon = Echelon()
    echelon.add({0: 2, 2: 1}, {0: 1})
    echelon.add(re, im, 5)
    assert (re, im) == ({0: 1, 1: 0, 2: 3}, {1: 2, 2: 0})


# -- the integer echelon against the Fraction echelon it replaced -------------------


def random_sparse_columns(rng, field):
    """Sparse scalar columns on a few rows, with empty columns and columns
    that repeat, scale or add earlier ones mixed in."""
    nrows = rng.randint(1, 8)
    columns = []
    for _ in range(rng.randint(1, 10)):
        pick = rng.random()
        if pick < 0.15:
            col = {}
        elif pick < 0.45 and columns:
            a, b = rng.choice(columns), rng.choice(columns)
            s, t = random_scalar(rng, field), random_scalar(rng, field)
            col = {r: s * a.get(r, 0) + t * b.get(r, 0) for r in a.keys() | b.keys()}
        else:
            col = {r: random_scalar(rng, field) for r in range(nrows) if rng.random() < 0.4}
        columns.append({r: x for r, x in col.items() if x != 0})
    return columns


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
@pytest.mark.parametrize("seed", range(40))
def test_integer_echelon_matches_fraction_oracle(field, seed):
    rng = random.Random(f"oracle-{field}-{seed}")
    columns = random_sparse_columns(rng, field)
    echelon, oracle = Echelon(), OracleEchelon()
    for col in columns:
        den, re, im = packed_column(col)
        comb = echelon.add(re, im, den)
        expected = oracle.add(col)
        assert (comb is None) == (expected is None)
        if comb is not None:
            assert echelon.kernel_vector(comb) == expected
        assert echelon.rank == oracle.rank
        assert echelon.det == oracle.det
    assert kernel_basis(map(packed_column, columns)) == oracle_kernel_basis(columns)


def random_corank_one(rng, n, nrows):
    """An integer matrix of rank n - 1 with nrows >= n - 1 rows: n - 1
    random rows made independent, then integer combinations of them."""
    while True:
        basis = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n - 1)]
        if oracle_rank([[F(x) for x in row] for row in basis]) == n - 1:
            break
    for _ in range(nrows - n + 1):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        basis.append([sum(a * row[j] for a, row in zip(coeffs, basis)) for j in range(n)])
    return basis


@pytest.mark.parametrize("seed", range(60))
def test_primitive_integer_kernel_matches_oracles(seed):
    rng = random.Random(f"corank-{seed}")
    n = rng.randint(2, 6)
    rows = random_corank_one(rng, n, rng.randint(n - 1, n + 2))
    v, Delta = primitive_integer_kernel(rows, n)
    assert v == primitive_from_oracle(rows, n)
    oracle = OracleEchelon()
    for col in columns_of(rows, n):
        oracle.add(col)
    assert Delta == oracle.det
    if len(rows) == n - 1:
        c = max(j for j in range(n) if v[j])
        assert Delta == oracle_int_det([[x for j, x in enumerate(row) if j != c] for row in rows])


def echelon_det(rows):
    """det of a square matrix from one elimination: 0 on a dependent column,
    else the determinant the pivots give."""
    echelon = Echelon()
    if any(echelon.add(col) is not None for col in columns_of(rows, len(rows))):
        return 0
    return echelon.det


def random_square(rng, k, shape):
    rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
    if shape == "zero-column":
        j = rng.randrange(k)
        for row in rows:
            row[j] = 0
    elif shape == "repeated-column" and k > 1:
        i, j = rng.sample(range(k), 2)
        for row in rows:
            row[j] = row[i]
    elif shape == "sparse":
        rows = [[x if rng.random() < 0.3 else 0 for x in row] for row in rows]
    return rows


@pytest.mark.parametrize("shape", ["dense", "sparse", "zero-column", "repeated-column"])
def test_echelon_det_matches_dense_determinant(shape):
    rng = random.Random(f"det-{shape}")
    for _ in range(250):
        k = rng.randint(1, 6)
        rows = random_square(rng, k, shape)
        det = oracle_int_det(rows)
        assert echelon_det(rows) == det
        # permuted columns: the sign of the permutation, and the same rows
        perm = list(range(k))
        rng.shuffle(perm)
        sign = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        assert echelon_det([[row[j] for j in perm] for row in rows]) == sign * det


def test_echelon_det_of_no_columns_is_one():
    assert Echelon().det == 1


# spectra whose resonant lattice has rank n-1 at degree 8
LATTICE_SPECS = [
    EigenSpec.multiplicative([F(1, 2), 2]),
    EigenSpec.multiplicative([F(1, 4), 2]),
    EigenSpec.multiplicative([8, F(1, 2)]),
    EigenSpec.multiplicative([F(1, 32), 4, 2]),
    EigenSpec.multiplicative([F(1, 8), 2, 4]),
    EigenSpec.multiplicative([F(-1, 2), 2]),
    EigenSpec.multiplicative([gaussian(0, 2), gaussian(0, F(-1, 2))]),
    EigenSpec.multiplicative([F(1, 4), 2, 2, 1]),
    EigenSpec.additive([2, -3]),
    EigenSpec.additive([F(1, 3), F(-1, 3)]),
    EigenSpec.additive([1, 2, -3]),
    EigenSpec.additive([1, 1, -1, -1]),
    EigenSpec.multiplicative_base([-5, 2, 1]),
    EigenSpec.multiplicative_base([1, -1], [F(1, 2), F(1, 2)]),
]


def primitive_from_oracle(rows, ncols):
    (v,) = dense_kernel([[F(x) for x in r] for r in rows], ncols)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    return ints if next(x for x in ints if x) > 0 else [-x for x in ints]


@pytest.mark.parametrize("spec", LATTICE_SPECS, ids=repr)
def test_primitive_integer_kernel_on_lattice_matrices(spec):
    K = enumerate_lattice(spec, 8).matrix()
    v, _ = primitive_integer_kernel(K, spec.n)
    assert v == primitive_from_oracle(K, spec.n)
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in K)


def test_primitive_integer_kernel_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="kernel dimension is 2"):
        primitive_integer_kernel([[1, 2, 3]], 3)


def greedy_generators_by_oracle(spec, basis):
    """enumerate_lattice's generator choice, with ranks from the dense RREF."""

    def dense_rank(vectors):
        return len(dense_rref([[F(x) for x in v] for v in vectors])[1])

    candidates = []
    for m in basis.exponents:
        cand = _generator_candidate(spec, m)
        if cand not in candidates:
            candidates.append(cand)
    full = dense_rank(basis.exponents)
    gens = []
    for simple_pass in (True, False):
        for cand in candidates:
            if _is_simple(cand) != simple_pass or dense_rank(gens) == full:
                continue
            if dense_rank(gens + [cand]) > dense_rank(gens):
                gens.append(cand)
    return full, tuple(gens)


@pytest.mark.parametrize(
    "spec", LATTICE_SPECS + [EigenSpec.multiplicative([F(1, 6), 2, 3])], ids=repr
)
def test_incremental_insertion_keeps_greedy_generators(spec):
    basis = enumerate_lattice(spec, 8)
    full, gens = greedy_generators_by_oracle(spec, basis)
    assert basis.rank == full
    assert basis.generators == gens
    assert basis.span_deficit == full - len(gens)


# -- the reduction stays in integers -------------------------------------------------

SCALARS = {"Fraction", "GaussianRational", "sc_div"}


def test_scalars_are_built_only_at_the_output():
    """In linalg.py the scalar types are named only by `_quotient`, which
    only the outputs `Echelon.det`, `Echelon.kernel_vector` and
    `Echelon.reduced` call; outside the
    functions only the imports name them.  `sc_div`, the scalar division the
    elimination once ran on, is now the test helper `helpers.sc_div`, and
    linalg.py names it nowhere."""
    tree = ast.parse(Path(dulac.linalg.__file__).read_text())
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions.update({f"{node.name}.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)})
        elif isinstance(node, ast.FunctionDef):
            functions[node.name] = node
    names = {q: {x.id for x in ast.walk(f) if isinstance(x, ast.Name)} for q, f in functions.items()}
    assert {q for q, ids in names.items() if ids & SCALARS} == {"_quotient"}
    assert {q for q, ids in names.items() if "_quotient" in ids} == {"Echelon.det", "Echelon.kernel_vector", "Echelon.reduced"}
    rest = [n for n in tree.body if not isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.Import, ast.ImportFrom))]
    assert not {x.id for n in rest for x in ast.walk(n) if isinstance(x, ast.Name)} & SCALARS
