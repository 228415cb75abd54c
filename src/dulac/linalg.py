"""Exact linear algebra over Q and Q(i), fraction-free.

Every elimination in the package goes through `Echelon`, a sparse echelon
form built one column at a time.  A column is laid out like a packed part of
`series`: real and imaginary int numerators by integer row, over one
positive denominator.  It is reduced against the pivots, each keyed by its
lowest row, by cross-multiplication, v <- p v - c pv with p and c the
Gaussian-integer entries on that row, carrying its integer combination of
the inserted columns; both are divided by their common content after each
step, so the numbers stay integers of moderate size (fraction-free in the
sense of Bareiss, 1968).  A column that reduces to zero closes a kernel
vector, 1 at its own index and -a_p at the earlier pivot columns.  It
depends on the column order alone, so it is the kernel basis read off the
reduced row echelon form; the row numbering only sets the cost.  The
reduced echelon form of the inserted columns themselves, each vector 1 on
its lowest row and 0 on the other pivot rows, is read off the pivots by the
same cross-multiplication.  Scalars are built at the output only, by
`_quotient`: the kernel vectors, the reduced vectors and the determinant of
the pivot columns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .scalars import GaussianRational, Scalar

# an integer column (or combination): real and imaginary numerators by index
Column = tuple[dict[int, int], dict[int, int]]


def _quotient(a: tuple[int, int], b: tuple[int, int], d: int) -> Scalar:
    """The scalar a / (b d) for Gaussian integers a, b = (re, im), b != 0,
    and an int d > 0."""
    (ar, ai), (br, bi) = a, b
    den = (br * br + bi * bi) * d
    re, im = ar * br + ai * bi, ai * br - ar * bi
    return GaussianRational(Fraction(re, den), Fraction(im, den)) if im else Fraction(re, den)


def _entry(v: Column, k: int) -> tuple[int, int]:
    return v[0].get(k, 0), v[1].get(k, 0)


def _axpy(target: dict[int, int], f: int, source: dict[int, int]) -> None:
    """target += f * source, dropping the entries that cancel."""
    if f:
        for k, x in source.items():
            if s := target.get(k, 0) + f * x:
                target[k] = s
            else:
                del target[k]


def _combine(a: tuple[int, int], x: Column, b: tuple[int, int], y: Column) -> Column:
    """a x + b y for Gaussian integers a, b and integer columns x, y."""
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for (fr, fi), (xr, xi) in ((a, x), (b, y)):
        for target, f, source in ((re, fr, xr), (re, -fi, xi), (im, fr, xi), (im, fi, xr)):
            _axpy(target, f, source)
    return re, im


class Echelon:
    """Sparse column-incremental echelon form over Q or Q(i), in integers."""

    def __init__(self):
        # lowest row -> (reduced column, its combination, its column index)
        self.pivots: dict[int, tuple[Column, Column, int]] = {}
        self.dens: list[int] = []  # each inserted column's denominator

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def det(self) -> Scalar:
        """Determinant of the pivot columns, in insertion order, on the pivot
        rows: each pivot entry over its combination's own coefficient and
        denominator, times the sign of the permutation of the rows."""
        rows = list(self.pivots)
        out: Scalar = -1 if sum(a > b for i, a in enumerate(rows) for b in rows[i + 1 :]) % 2 else 1
        for row, (v, comb, c) in self.pivots.items():
            out *= _quotient(_entry(v, row), _entry(comb, c), self.dens[c])
        return out

    def add(self, re: Mapping[int, int], im: Mapping[int, int] = {}, den: int = 1) -> Optional[Column]:
        """Insert the next column, numerators (re, im) over den.  None when
        it is independent of the earlier columns (it becomes a pivot), else
        the integer combination of the inserted numerators it closes."""
        c = len(self.dens)
        self.dens.append(den)
        v: Column = ({r: x for r, x in re.items() if x}, {r: x for r, x in im.items() if x})
        comb: Column = ({c: 1}, {})
        while v[0] or v[1]:
            low = min(chain(*v))
            pivot = self.pivots.get(low)
            if pivot is None:
                self.pivots[low] = (v, comb, c)
                return None
            pv, pcomb, _ = pivot
            p, (fr, fi) = _entry(pv, low), _entry(v, low)
            v, comb = _combine(p, v, (-fr, -fi), pv), _combine(p, comb, (-fr, -fi), pcomb)
            g = gcd(*chain(*(d.values() for d in v + comb)))
            if g > 1:
                v, comb = (tuple({k: x // g for k, x in d.items()} for d in pair) for pair in (v, comb))
        return comb

    def reduced(self, rows: Iterable[int]) -> dict[int, dict[int, Scalar]]:
        """For each of these pivot rows, the vector of the span of the
        inserted columns that is 1 on it and 0 on every other pivot row, as
        row -> entry: the reduced echelon form, each vector's pivot its
        lowest row.  Each is its pivot column with the entries on the later
        pivot rows cleared in order, by the same cross-multiplication as
        `add`."""
        later = sorted(self.pivots)
        out = {}
        for low in rows:
            v = self.pivots[low][0]
            for row in later:
                if row > low and (f := _entry(v, row)) != (0, 0):
                    pv = self.pivots[row][0]
                    v = _combine(_entry(pv, row), v, (-f[0], -f[1]), pv)
                    if (g := gcd(*chain(*(d.values() for d in v)))) > 1:
                        v = tuple({k: x // g for k, x in d.items()} for d in v)
            p = _entry(v, low)
            out[low] = {k: _quotient(_entry(v, k), p, 1) for k in dict.fromkeys(chain(*v))}
        return out

    def kernel_vector(self, comb: Column) -> dict[int, Scalar]:
        """The kernel vector of a combination `add` returned: column index ->
        entry, 1 at the column that closed it (its largest index)."""
        c, d = max(chain(*comb)), self.dens
        a = _entry(comb, c)
        return {j: _quotient(tuple(x * d[j] for x in _entry(comb, j)), a, d[c]) for j in dict.fromkeys(chain(*comb))}


def kernel_basis(columns: Iterable[tuple[int, Mapping[int, int], Mapping[int, int]]]) -> list[dict[int, Scalar]]:
    """Basis of the right kernel of the matrix with these columns (den, re,
    im): one vector (column index -> entry) per dependent column, in order."""
    echelon = Echelon()
    closed = (echelon.add(re, im, den) for den, re, im in columns)
    return [echelon.kernel_vector(comb) for comb in closed if comb is not None]


def primitive_integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """The one-dimensional kernel of an integer matrix of rank ncols-1, from
    one elimination: (v, Delta).  v is the primitive integer kernel vector
    with positive first nonzero entry, read off the integer combination.  Its
    last nonzero index c is the one column that depends on the earlier ones,
    and Delta is the determinant of the other columns on the pivot rows (with
    ncols-1 rows, of the matrix without column c)."""
    echelon = Echelon()
    columns = ({r: row[c] for r, row in enumerate(rows)} for c in range(ncols))
    closed = [comb for comb in map(echelon.add, columns) if comb is not None]
    if len(closed) != 1:
        raise ValueError(f"kernel dimension is {len(closed)}, expected 1")
    v = [closed[0][0].get(c, 0) for c in range(ncols)]
    g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
    return [x // g for x in v], int(echelon.det)
