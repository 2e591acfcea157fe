"""Mixed-Echelon-Hermite transformation, batch and incremental.

``batch_mehnf`` rebuilds the normal form from scratch: it column-reduces
the rational block, finds the row order that puts the rank-determining
rows on top, clears the coupling block, and brings the residual integer
block into Hermite normal form.

``MehState`` maintains the same normal form one inequality at a time.  An
extension transforms the incoming row by the current matrix V and then
either fills the next rational gap (the rational pivot step
``linalg.reduce_rat``: swap, scale, full elimination), fills the next
integer gap (the Euclidean step ``linalg.reduce_left_int`` then
``linalg.reduce_right_int``), or is appended unchanged.  These are the
same column steps that ``linalg.column_reduce`` and
``linalg.hermite_normal_form`` loop over.  All column operations act only
on columns that are zero in every previously inserted row, so earlier
inequalities survive verbatim and backtracking is a plain row removal
that leaves V untouched.

Coefficient blow-up in V is bounded by a bit-size valve: when any entry
exceeds the configured limit, the state is rebuilt via ``batch_mehnf``
from the surviving rows.  Rows inserted before a rebuild lose their
cheap-removal property, so backtracking over them rebuilds as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    Matrix,
    TransformMatrix,
    column_reduce,
    frac,
    hermite_normal_form,
    is_mctm,
    is_mehnf,
    reduce_left_int,
    reduce_rat,
    reduce_right_int,
)
from .model import DimensionMismatchError

_ZERO = Fraction(0)


def rpiv(k: int, h: Matrix, n1: int) -> int:
    """Largest 1-based rational column with a non-zero entry in rows 1..k.

    Returns 0 when all rational columns are zero there.
    """
    for j in range(min(n1, h.n), 0, -1):
        if any(h.rows[i][j - 1] for i in range(min(k, h.m))):
            return j
    return 0


def ipiv(k: int, h: Matrix, n1: int) -> int:
    """Largest 1-based integer column with a non-zero entry in rows 1..k.

    Returns n1 when all integer columns are zero there.
    """
    for j in range(h.n, n1, -1):
        if any(h.rows[i][j - 1] for i in range(min(k, h.m))):
            return j
    return n1


@dataclass(frozen=True)
class ExtensionRecord:
    kind: str        # "rat", "int" or "append"
    position: int    # row index the inequality landed on
    columns: tuple[int, ...]  # pivot columns the step touched


class MehState:
    """Incrementally maintained MEHNF of a growing inequality stack."""

    def __init__(self, n1: int, n2: int, bit_limit: int = 4096, validate: bool = False):
        self.n1 = n1
        self.n2 = n2
        self.h = Matrix.zeros(0, n1 + n2)
        self.u: list[Fraction] = []
        self.v = Matrix.identity(n1 + n2)
        self.inserted: list[tuple[tuple[Fraction, ...], Fraction]] = []
        self.row_order: list[int] = []
        self.history: list[ExtensionRecord] = []
        self.bit_limit = bit_limit
        self.validate = validate
        self._rebuilt_at = 0

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def rank_rational(self) -> int:
        return rpiv(self.h.m, self.h, self.n1)

    @property
    def rank_integer(self) -> int:
        return ipiv(self.h.m, self.h, self.n1) - self.n1

    def transform(self) -> TransformMatrix:
        return TransformMatrix(self.v.copy(), self.n1, self.n2)

    # -- extension ---------------------------------------------------------

    def extend(self, a: Sequence, b) -> "MehState":
        """Add the inequality a . x <= b and restore the normal form."""
        a = tuple(frac(x) for x in a)
        b = frac(b)
        if len(a) != self.n:
            raise DimensionMismatchError("row width does not match the state")
        hrow = [
            sum((a[k] * self.v.rows[k][j] for k in range(self.n) if a[k]), _ZERO)
            for j in range(self.n)
        ]
        r = self.rank_rational
        q = self.rank_integer
        hvec = Matrix([hrow])
        j_rat = rpiv(1, hvec, self.n1)
        if j_rat > r:
            record = self._extend_rat(hrow, b, j_rat)
        else:
            j_int = ipiv(1, hvec, self.n1)
            if j_int > self.n1 + q:
                record = self._extend_int(hrow, b)
            else:
                pos = self.h.m
                self.h.insert_row(pos, hrow)
                self.u.insert(pos, b)
                self.row_order.insert(pos, len(self.inserted))
                record = ExtensionRecord("append", pos, ())
        self.inserted.append((a, b))
        self.history.append(record)
        if self._oversized():
            self._rebuild()
        if self.validate:
            self.check_invariants()
        return self

    def _extend_rat(self, hrow, b, j_rat: int) -> ExtensionRecord:
        r = self.rank_rational
        pos = r
        self.h.insert_row(pos, hrow)
        self.u.insert(pos, b)
        self.row_order.insert(pos, len(self.inserted))
        # The new identity row pivots in column r (0-based).
        reduce_rat(self.h, self.v, pos, r, j_rat - 1)
        return ExtensionRecord("rat", pos, (r,))

    def _extend_int(self, hrow, b) -> ExtensionRecord:
        r = self.rank_rational
        q = self.rank_integer
        p_col = self.n1 + q
        # The new pivot row must sit below every current pivot row.
        pos = r
        for col in range(self.n1, self.n1 + q):
            for i in range(self.h.m):
                if self.h.rows[i][col]:
                    pos = max(pos, i + 1)
                    break
        self.h.insert_row(pos, hrow)
        self.u.insert(pos, b)
        self.row_order.insert(pos, len(self.inserted))
        reduce_left_int(self.h, self.v, pos, p_col, self.n1)
        reduce_right_int(self.h, self.v, pos, p_col, self.n1)
        return ExtensionRecord("int", pos, (p_col,))

    # -- backtracking --------------------------------------------------------

    def backtrack(self) -> "MehState":
        """Remove the most recently inserted inequality.

        Rows added since the last rebuild can be removed in place without
        touching V; older rows were reordered by the rebuild, so removing
        one triggers another rebuild from the surviving stack.
        """
        if not self.history:
            raise IndexError("backtrack on an empty extension history")
        idx = len(self.inserted) - 1
        self.history.pop()
        self.inserted.pop()
        if idx >= self._rebuilt_at:
            pos = self.row_order.index(idx)
            self.h.remove_row(pos)
            self.u.pop(pos)
            self.row_order.pop(pos)
        else:
            self._rebuild()
        if self.validate:
            self.check_invariants()
        return self

    # -- maintenance -----------------------------------------------------------

    def _oversized(self) -> bool:
        limit = self.bit_limit
        for row in self.v.rows:
            for x in row:
                if x.numerator.bit_length() > limit or x.denominator.bit_length() > limit:
                    return True
        return False

    def _rebuild(self) -> None:
        d = Matrix([list(a) for a, _ in self.inserted]) if self.inserted \
            else Matrix.zeros(0, self.n)
        h, v, perm = batch_mehnf(d, self.n1)
        self.h = h
        self.v = v.matrix
        self.row_order = list(perm)
        self.u = [self.inserted[i][1] for i in perm]
        self._rebuilt_at = len(self.inserted)

    def check_invariants(self) -> None:
        """Assert the quiescent-state invariants (used by tests)."""
        assert is_mehnf(self.h, self.n1, self.rank_rational), "H lost the MEHNF shape"
        assert is_mctm(self.v, self.n1, self.n2), "V lost the MCTM shape"
        stacked = Matrix([list(self.inserted[i][0]) for i in self.row_order]) \
            if self.row_order else Matrix.zeros(0, self.n)
        assert stacked * self.v == self.h, "H != C V replay check failed"
        assert [self.inserted[i][1] for i in self.row_order] == self.u, \
            "bounds out of sync with rows"


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
