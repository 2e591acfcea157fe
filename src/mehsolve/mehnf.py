"""Mixed-Echelon-Hermite transformation.

``batch_mehnf`` builds the normal form of a whole inequality matrix: it
column-reduces the rational block (``linalg.column_reduce``), finds the
row order that puts the rank-determining rows on top, clears the coupling
block, and brings the residual integer block into Hermite normal form
(``linalg.hermite_normal_form``).  Both reductions are loops over the
column steps in ``linalg``.
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
    m, n = d.m, d.n
    n2 = n - n1
    if m == 0:
        return Matrix.zeros(0, n), TransformMatrix(Matrix.identity(n), n1, n2), ()
    left = Matrix([row[:n1] for row in d.rows])
    _, v11, pivot_rows = column_reduce(left)
    r = len(pivot_rows)
    chosen = set(pivot_rows)
    row_perm = tuple(pivot_rows + [i for i in range(m) if i not in chosen])
    dp = Matrix([d.rows[i] for i in row_perm])

    v2 = Matrix.identity(n)
    for i in range(n1):
        for j in range(n1):
            v2.rows[i][j] = v11.rows[i][j]
    h2 = dp * v2

    # Clear the coupling block: integer columns minus rational columns
    # times the top-right block of the permuted input.
    v3 = Matrix.identity(n)
    for k in range(r):
        for j in range(n2):
            v3.rows[k][n1 + j] = -dp.rows[k][n1 + j]
    h3 = h2 * v3

    residual = Matrix([h3.rows[i][n1:] for i in range(r, m)]) if m > r and n2 > 0 \
        else Matrix.zeros(m - r, n2)
    _, v22 = hermite_normal_form(residual)
    v4 = Matrix.identity(n)
    for i in range(n2):
        for j in range(n2):
            v4.rows[n1 + i][n1 + j] = v22.rows[i][j]

    v = v2 * v3 * v4
    h = h3 * v4
    if __debug__:
        assert is_mehnf(h, n1, r), "batch construction lost the MEHNF shape"
        assert h == dp * v, "batch construction H != P D V"
    return h, TransformMatrix(v, n1, n2), row_perm
