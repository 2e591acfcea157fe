"""Mixed-Echelon-Hermite transformation.

``batch_mehnf`` builds the normal form of a whole inequality matrix D in
one pass of column steps on a single pair (h, v) = (D, I), keeping h = D v
up to row order: ``linalg.column_reduce`` reduces the rational columns,
each pivot step clearing its whole row, coupling block included; the pivot
rows move on top (a row permutation commutes with column steps); and
``linalg.hermite_normal_form`` reduces the window of the remaining rows and
the integer columns in place, never adding into a rational column, so v
stays a mixed column transformation matrix.  Each of the two calls steps
on the pair as integer rows, one denominator per row, and hands back
Fractions (see ``linalg``).  Further rows can ride along the same column
steps; they come out multiplied by v, with no product.
Both transformed routes of ``solver.solve`` use this: the whole system
rides (A V) on the bounded one, the unbounded part (U V) on the other.
"""

from __future__ import annotations

from .linalg import (
    Matrix,
    TransformMatrix,
    column_reduce,
    hermite_normal_form,
)


def batch_mehnf(d: Matrix, n1: int,
                ride: Matrix | None = None) -> tuple[Matrix, TransformMatrix, tuple[int, ...]]:
    """Construct the MEHNF of d after a suitable row permutation.

    Returns (h, v, row_perm) with h = P d V where P reorders the rows so
    that the rows spanning the rational block's row space come first
    (row_perm[i] is the input row at output position i), h satisfies
    is_mehnf, and v is a mixed column transformation matrix.

    With ``ride``, a matrix as wide as d, its rows ride along every column
    step without ever becoming pivot rows: h then continues below the
    normal form with ride V, in ride's row order.
    """
    m = d.m
    if ride is not None:
        d = Matrix(d.rows + ride.rows)
    h, v, pivot_rows = column_reduce(d, n1, m)
    r = len(pivot_rows)
    chosen = set(pivot_rows)
    row_perm = tuple(pivot_rows + [i for i in range(m) if i not in chosen])
    h.rows[:m] = [h.rows[i] for i in row_perm]
    hermite_normal_form(h, v, r, n1, m)
    return h, TransformMatrix(v, n1, d.n - n1), row_perm
