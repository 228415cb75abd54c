"""Exact linear algebra over Fraction / GaussianRational entries.

Every elimination in the package goes through `Echelon`, a sparse echelon
form built one column at a time.  A column (a dict of its nonzero entries by
integer row) is reduced against the pivots, each keyed by its lowest row,
carrying its combination of the earlier columns.  A column that reduces to
zero closes the kernel vector ``e_c - sum_p a_p e_p`` over the earlier pivot
columns.  That vector depends on the column order alone, so it is exactly
the kernel basis read off the reduced row echelon form; the row numbering
only sets the cost.  `kernel_basis`, `rank` and `primitive_integer_kernel`
are front ends to `Echelon`; `int_det` is a separate determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .scalars import Scalar, sc_div

Column = dict[int, Scalar]


def _axpy(target: Column, f: Scalar, source: Column) -> None:
    """target += f * source, dropping the entries that cancel."""
    for k, x in source.items():
        y = target.get(k)
        if y is None:
            target[k] = f * x
        else:
            s = y + f * x
            if s == 0:
                del target[k]
            else:
                target[k] = s


class Echelon:
    """Sparse column-incremental echelon form over Q or Q(i)."""

    def __init__(self):
        # lowest row -> (reduced column, its combination of inserted columns)
        self.pivots: dict[int, tuple[Column, Column]] = {}
        self.columns = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, column: Mapping[int, Scalar]) -> Optional[Column]:
        """Insert the next column.  Returns None when it is independent of
        the earlier columns (it becomes a pivot), else the kernel vector it
        closes: column index -> entry, with 1 at its own index."""
        v = {r: x for r, x in column.items() if x != 0}
        comb: Column = {self.columns: Fraction(1)}
        self.columns += 1
        while v:
            low = min(v)
            pivot = self.pivots.get(low)
            if pivot is None:
                self.pivots[low] = (v, comb)
                return None
            pv, pcomb = pivot
            f = -sc_div(v[low], pv[low])
            _axpy(v, f, pv)
            _axpy(comb, f, pcomb)
        return comb


def kernel_basis(columns: Iterable[Mapping[int, Scalar]]) -> list[Column]:
    """Basis of the right kernel of the matrix with these sparse columns: one
    vector (column index -> entry) per dependent column, in column order."""
    echelon = Echelon()
    return [k for k in map(echelon.add, columns) if k is not None]


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a dense matrix; its rows enter as columns of the transpose."""
    return len(rows) - len(kernel_basis(dict(enumerate(row)) for row in rows))


def primitive_integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """The one-dimensional kernel of an integer matrix of rank ncols-1,
    returned as a primitive integer vector with positive first nonzero entry."""
    basis = kernel_basis(
        {r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(ncols)
    )
    if len(basis) != 1:
        raise ValueError(f"kernel dimension is {len(basis)}, expected 1")
    v = [Fraction(basis[0].get(c, 0)) for c in range(ncols)]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
    return [x // g for x in ints]


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix, exact (fraction-free Gauss via Fractions)."""
    k = len(matrix)
    if k == 0:
        return 1
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
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
