"""Mixed-Echelon-Hermite transformation.

``batch_mehnf`` builds the normal form of a whole inequality matrix D in
one pass of column steps on a single pair (h, v) = (D, I), keeping h = D v
up to row order: ``linalg.column_reduce`` reduces the rational columns,
each pivot step clearing its whole row, coupling block included; the pivot
rows move on top (a row permutation commutes with column steps); and
``linalg.hermite_normal_form`` reduces the window of the remaining rows and
the integer columns in place, never adding into a rational column, so v
stays a mixed column transformation matrix.
"""

from __future__ import annotations

from .linalg import (
    Matrix,
    TransformMatrix,
    column_reduce,
    hermite_normal_form,
    is_mehnf,
)


def rpiv(k: int, h: Matrix, n1: int) -> int:
    """Largest 1-based rational column with a non-zero entry in rows 1..k.

    Returns 0 when all rational columns are zero there.
    """
    for j in range(min(n1, h.n), 0, -1):
        if any(h.rows[i][j - 1] for i in range(min(k, h.m))):
            return j
    return 0


def batch_mehnf(d: Matrix, n1: int) -> tuple[Matrix, TransformMatrix, tuple[int, ...]]:
    """Construct the MEHNF of d after a suitable row permutation.

    Returns (h, v, row_perm) with h = P d V where P reorders the rows so
    that the rows spanning the rational block's row space come first
    (row_perm[i] is the input row at output position i), h satisfies
    is_mehnf, and v is a mixed column transformation matrix.
    """
    h, v, pivot_rows = column_reduce(d, n1)
    r = len(pivot_rows)
    chosen = set(pivot_rows)
    row_perm = tuple(pivot_rows + [i for i in range(d.m) if i not in chosen])
    h.rows = [h.rows[i] for i in row_perm]
    hermite_normal_form(h, v, r, n1)
    if __debug__:
        assert is_mehnf(h, n1, r), "batch construction lost the MEHNF shape"
    return h, TransformMatrix(v, n1, d.n - n1), row_perm
