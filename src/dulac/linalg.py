"""Exact linear algebra over Fraction / GaussianRational entries.

Every elimination in the package goes through `Echelon`, a sparse echelon
form built one column at a time.  A column (a dict of its nonzero entries by
integer row) is reduced against the pivots, each keyed by its lowest row,
carrying its combination of the earlier columns.  A column that reduces to
zero closes the kernel vector ``e_c - sum_p a_p e_p`` over the earlier pivot
columns.  That vector depends on the column order alone, so it is exactly
the kernel basis read off the reduced row echelon form; the row numbering
only sets the cost.  The pivots also give determinants: the reduced pivot
columns are the original ones times a unit triangular matrix, and each
vanishes above its own row.  `kernel_basis`, `rank` and
`primitive_integer_kernel` are front ends to `Echelon`.
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

    @property
    def det(self) -> Scalar:
        """Determinant of the pivot columns, in insertion order, on the rows
        that hold a pivot: the product of the pivot entries, times the sign
        of the permutation taking each pivot column to its row."""
        rows = list(self.pivots)
        inversions = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1 :])
        out: Scalar = Fraction(-1 if inversions % 2 else 1)
        for row, (v, _) in self.pivots.items():
            out *= v[row]
        return out

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


def primitive_integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """The one-dimensional kernel of an integer matrix of rank ncols-1, from
    one elimination: (v, Delta).  v is the primitive integer kernel vector
    with positive first nonzero entry.  Its last nonzero index c is the one
    column that depends on the earlier ones, and Delta is the determinant of
    the other columns on the pivot rows: with ncols-1 rows, the determinant
    of the matrix without column c."""
    echelon = Echelon()
    columns = ({r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(ncols))
    basis = [k for k in map(echelon.add, columns) if k is not None]
    if len(basis) != 1:
        raise ValueError(f"kernel dimension is {len(basis)}, expected 1")
    v = [Fraction(basis[0].get(c, 0)) for c in range(ncols)]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
    return [x // g for x in ints], int(echelon.det)
