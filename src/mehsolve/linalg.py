"""Exact rational matrices and the normal forms behind the solver.

Everything in this package computes over arbitrary-precision rationals
(``fractions.Fraction``), which are always stored in canonical reduced form
with a positive denominator, so equality is structural and no rounding can
occur anywhere.

The module provides dense matrices with the column operations needed by the
transformation pipeline, plus:

* ``piv`` and the shape predicates ``is_lower_triangular_with_gaps``,
  ``is_hermite_normal_form``, ``is_mehnf`` and ``is_mctm``,
* the two column steps every normal form here is built from, each of which
  acts on one pivot row of h and mirrors every column operation on v:
  ``reduce_rat`` (swap, scale to 1, eliminate the rest of the row) and the
  Euclidean step ``reduce_left_int`` (gcd reduction right of the pivot)
  followed by ``reduce_right_int`` (reduction into ``[0, pivot)``),
* ``column_reduce`` (invertible rational column reduction, a loop over
  ``reduce_rat``) and ``hermite_normal_form`` (unimodular integer column
  reduction, a loop over the Euclidean step, also valid for rational input
  matrices), each on a column window: ``column_reduce`` pivots only in the
  first ``cols`` columns, and ``hermite_normal_form`` can reduce an (h, u)
  pair in place from (row0, col0) on; ``mehnf.batch_mehnf`` runs both on
  one pair,
* exact inversion, which is ``column_reduce`` again: every row of an
  invertible matrix pivots in order and becomes the next unit row, so
  h = I and v is the inverse,
* rank and determinant, by their own Gaussian elimination (the generator
  uses rank; the shape predicates and the tests use the determinant).

Column indices in the public pivot helpers are 1-based to match the usual
statement of the definitions; matrix entries themselves are addressed
0-based like any Python sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular."""


class GapPreconditionError(ValueError):
    """A column step was called on a row with nothing to reduce."""


def frac(value) -> Fraction:
    """Coerce ints, strings like ``p/q`` and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed in exact arithmetic")
    return Fraction(value)


class Matrix:
    """Dense matrix of Fractions with value semantics.

    Mutating column operations (swaps, scalings, additions) are provided
    for the normal-form algorithms; everything else treats matrices as
    immutable values.
    """

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        self.rows = [list(row) for row in rows]
        # Rows of Fractions, what most callers pass, are kept as copied.
        for row in self.rows:
            for x in row:
                if type(x) is not Fraction:
                    row[:] = map(frac, row)
                    break
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        mat = cls.__new__(cls)
        mat.rows = [[_ZERO] * n for _ in range(m)]
        mat.m, mat.n = m, n
        return mat

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        mat = cls.zeros(n, n)
        for i in range(n):
            mat.rows[i][i] = _ONE
        return mat

    def copy(self) -> "Matrix":
        mat = Matrix.__new__(Matrix)
        mat.rows = [row[:] for row in self.rows]
        mat.m, mat.n = self.m, self.n
        return mat

    def col(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.m}x{self.n}: {body})"

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.m:
            raise ValueError(f"dimension mismatch {self.m}x{self.n} * {other.m}x{other.n}")
        out = Matrix.zeros(self.m, other.n)
        ocols = list(zip(*other.rows)) if other.rows else []
        for i, row in enumerate(self.rows):
            orow = out.rows[i]
            for j in range(other.n):
                acc = _ZERO
                col = ocols[j]
                for k, a in enumerate(row):
                    if a:
                        acc += a * col[k]
                orow[j] = acc
        return out

    def mul_vec(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.n:
            raise ValueError("dimension mismatch in matrix-vector product")
        return [sum((a * x for a, x in zip(row, v) if a), _ZERO) for row in self.rows]

    # -- column operations (in place) ---------------------------------

    def col_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.rows:
            row[i], row[j] = row[j], row[i]

    def col_scale(self, j: int, factor: Fraction) -> None:
        for row in self.rows:
            if row[j]:
                row[j] *= factor

    def col_addmul(self, dst: int, src: int, factor: Fraction) -> None:
        """column dst += factor * column src."""
        if not factor:
            return
        for row in self.rows:
            if row[src]:
                row[dst] += factor * row[src]

    def col_negate(self, j: int) -> None:
        for row in self.rows:
            if row[j]:
                row[j] = -row[j]

    # -- derived quantities --------------------------------------------

    def rank(self) -> int:
        work = [row[:] for row in self.rows]
        r = 0
        for j in range(self.n):
            for i in range(r, self.m):
                if work[i][j]:
                    break
            else:
                continue
            work[r], work[i] = work[i], work[r]
            pivot = work[r][j]
            for k in range(r + 1, self.m):
                f = work[k][j]
                if f:
                    g = f / pivot
                    work[k] = [a - g * b for a, b in zip(work[k], work[r])]
            r += 1
            if r == self.m:
                break
        return r

    def det(self) -> Fraction:
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        work = [row[:] for row in self.rows]
        sign = 1
        det = _ONE
        for j in range(self.n):
            for i in range(j, self.n):
                if work[i][j]:
                    break
            else:
                return _ZERO
            if i != j:
                work[i], work[j] = work[j], work[i]
                sign = -sign
            pivot = work[j][j]
            det *= pivot
            for k in range(j + 1, self.n):
                f = work[k][j]
                if f:
                    g = f / pivot
                    work[k] = [a - g * b for a, b in zip(work[k], work[j])]
        return det if sign > 0 else -det

    def invert(self) -> "Matrix":
        """Exact inverse, by ``column_reduce``.

        Every row of an invertible matrix pivots in order and becomes the
        next unit row, so h = I and v is the inverse.  Raises
        SingularMatrixError when no inverse exists.
        """
        if self.m != self.n:
            raise SingularMatrixError("only square matrices can be inverted")
        _, v, pivot_rows = column_reduce(self)
        if len(pivot_rows) < self.n:
            raise SingularMatrixError("matrix is singular")
        return v


def piv(a: Matrix, j: int) -> int:
    """Pivot row index of column j, both 1-based.

    Returns the smallest row index i with a non-zero entry in column j,
    or m + j when the column is entirely zero.  The m + j convention keeps
    pivot indices of zero columns strictly increasing, which makes the
    triangularity predicates below uniform.
    """
    if not 1 <= j <= a.n:
        raise IndexError(f"column {j} out of range 1..{a.n}")
    jj = j - 1
    for i, row in enumerate(a.rows):
        if row[jj]:
            return i + 1
    return a.m + j


def is_lower_triangular_with_gaps(a: Matrix) -> bool:
    """True iff non-zero columns have strictly increasing pivot rows.

    Zero columns ("gaps") may appear anywhere.
    """
    pivots = [piv(a, j) for j in range(1, a.n + 1)]
    for j, p in enumerate(pivots):
        if p > a.m:
            continue
        if any(pivots[k] <= p for k in range(j + 1, a.n) if pivots[k] <= a.m):
            return False
    return True


def is_hermite_normal_form(h: Matrix) -> bool:
    """True iff h is lower triangular without gaps and reduced.

    Without gaps: pivot indices strictly increase across all columns (zero
    columns only at the right edge).  Reduced: in every pivot row the pivot
    is positive and each entry left of it lies in [0, pivot).
    """
    pivots = [piv(h, j) for j in range(1, h.n + 1)]
    if any(pivots[j] >= pivots[j + 1] for j in range(h.n - 1)):
        return False
    for j, p in enumerate(pivots):
        if p > h.m:
            continue
        pivot = h.rows[p - 1][j]
        if pivot <= 0:
            return False
        if any(not (0 <= h.rows[p - 1][k] < pivot) for k in range(j)):
            return False
    return True


def is_mehnf(h: Matrix, n1: int, r: int) -> bool:
    """Check the mixed echelon/Hermite block shape.

    The first r rows must be unit rows (an r x r identity followed by
    zeros), the rational columns beyond r must be zero everywhere below,
    and the integer block of the remaining rows must be in Hermite normal
    form.  Entries of the first r columns below row r are unconstrained.
    """
    if not (0 <= r <= n1 <= h.n and r <= h.m):
        return False
    for i in range(r):
        row = h.rows[i]
        if any(row[j] != (_ONE if j == i else _ZERO) for j in range(h.n)):
            return False
    for i in range(r, h.m):
        if any(h.rows[i][j] for j in range(r, n1)):
            return False
    integer_block = Matrix([h.rows[i][n1:] for i in range(r, h.m)]) \
        if h.m > r and h.n > n1 else Matrix.zeros(max(h.m - r, 0), h.n - n1)
    return is_hermite_normal_form(integer_block)


def is_mctm(v: Matrix, n1: int, n2: int) -> bool:
    """Check the mixed column transformation block shape.

    Requires a square matrix whose lower-left n2 x n1 block is zero, whose
    lower-right n2 x n2 block is integer with determinant +-1, and which is
    invertible overall (equivalently, the upper-left block is invertible).
    """
    if not _has_mctm_blocks(v, n1, n2):
        return False
    if n2:
        dz = Matrix([row[n1:] for row in v.rows[n1:]]).det()
        if dz not in (1, -1):
            return False
    if n1:
        if Matrix([row[:n1] for row in v.rows[:n1]]).det() == 0:
            return False
    return True


def _has_mctm_blocks(v: Matrix, n1: int, n2: int) -> bool:
    """The determinant-free part of is_mctm: square, lower-left block zero,
    lower-right block integer."""
    n = n1 + n2
    if v.m != n or v.n != n:
        return False
    for i in range(n1, n):
        if any(v.rows[i][j] for j in range(n1)):
            return False
        if any(v.rows[i][j].denominator != 1 for j in range(n1, n)):
            return False
    return True


def reduce_rat(h: Matrix, v: Matrix, p_row: int, p_col: int, j: int) -> None:
    """Rational pivot step on row p_row.

    Swaps column j into position p_col, scales it so the pivot becomes 1
    and clears every other entry of the row by adding multiples of the
    pivot column.  Requires a non-zero entry at (p_row, j).
    """
    h.col_swap(p_col, j)
    v.col_swap(p_col, j)
    row = h.rows[p_row]
    pivot = row[p_col]
    if pivot != 1:
        inv = 1 / pivot
        h.col_scale(p_col, inv)
        v.col_scale(p_col, inv)
    for k in range(h.n):
        if k != p_col and row[k]:
            f = -row[k]
            h.col_addmul(k, p_col, f)
            v.col_addmul(k, p_col, f)


def abstract_to_int(h: Matrix, v: Matrix, p_row: int, p_col: int):
    """Sign-normalize columns right of the pivot and scale to integers.

    Negates every column i >= p_col whose entry in the pivot row is
    negative (in both h and v), computes the lcm c of the denominators of
    the pivot row's entries from p_col on, and returns (c, s) where s maps
    column index to the positive integer image entry * c.
    """
    row = h.rows[p_row]
    for j in range(p_col, h.n):
        if row[j] < 0:
            h.col_negate(j)
            v.col_negate(j)
    c = math.lcm(*(x.denominator for x in row[p_col:]))
    s = {j: int(row[j] * c) for j in range(p_col, h.n) if row[j] > 0}
    return c, s


def reduce_left_int(h: Matrix, v: Matrix, p_row: int, p_col: int) -> None:
    """Euclidean column reduction of the pivot row right of p_col.

    Runs gcd elimination over the scaled entries until a single non-zero
    entry remains, then swaps that gcd column into position p_col.  Only
    columns >= p_col are touched.
    """
    _, s = abstract_to_int(h, v, p_row, p_col)
    if not s:
        raise GapPreconditionError("no non-zero entries right of the pivot position")
    while len(s) > 1:
        i0 = min(s, key=lambda j: (s[j], j))
        base = s[i0]
        for j in sorted(s):
            if j == i0:
                continue
            q = s[j] // base
            if q:
                h.col_addmul(j, i0, Fraction(-q))
                v.col_addmul(j, i0, Fraction(-q))
            s[j] -= q * base
            if not s[j]:
                del s[j]
    gcd_col = next(iter(s))
    h.col_swap(p_col, gcd_col)
    v.col_swap(p_col, gcd_col)


def reduce_right_int(h: Matrix, v: Matrix, p_row: int, p_col: int, first: int = 0) -> None:
    """Reduce the pivot row's entries in columns first..p_col-1 into [0, pivot).

    Subtracts floor(entry / pivot) times the pivot column from each of
    those columns; columns left of ``first`` are not touched.
    """
    row = h.rows[p_row]
    pivot = row[p_col]
    if pivot <= 0:
        raise GapPreconditionError("pivot must be positive before right reduction")
    for j in range(first, p_col):
        q = row[j] // pivot
        if q:
            h.col_addmul(j, p_col, Fraction(-q))
            v.col_addmul(j, p_col, Fraction(-q))


def column_reduce(m: Matrix, cols: int | None = None,
                  rows: int | None = None) -> tuple[Matrix, Matrix, list[int]]:
    """Greedy top-to-bottom rational column reduction.

    Returns (h, v, pivot_rows) with h = m * v and v invertible.  Pivots are
    searched only in the first ``rows`` rows and the first ``cols`` columns
    (all by default); later rows only ride along the column steps.  Each
    searched row that is independent of the rows above it in those columns
    becomes a pivot row: it is listed in pivot_rows and turned into the
    next unit row e_1, e_2, ... over the whole width, since ``reduce_rat``
    clears every other entry of the row; in every other searched row the
    searched columns are zero from len(pivot_rows) on.
    """
    cols = m.n if cols is None else cols
    h = m.copy()
    v = Matrix.identity(m.n)
    pivot_rows: list[int] = []
    r = 0
    for i in range(h.m if rows is None else rows):
        if r == cols:
            break
        row = h.rows[i]
        for j in range(r, cols):
            if row[j]:
                break
        else:
            continue
        reduce_rat(h, v, i, r, j)
        pivot_rows.append(i)
        r += 1
    return h, v, pivot_rows


def hermite_normal_form(h: Matrix, u: Matrix | None = None, row0: int = 0,
                        col0: int = 0, rows: int | None = None) -> tuple[Matrix, Matrix]:
    """Bring h into Hermite normal form by unimodular column operations.

    Works for rational input matrices as well: the Euclidean reduction runs
    on the entries scaled by a common denominator, so only integer column
    combinations, swaps and sign flips are ever applied.  Given only h,
    reduces a copy and returns (h', u) with h' = h * u, u integer with
    determinant +-1, and is_hermite_normal_form(h') true.

    Given the pair (h, u), reduces it in place and returns it: the window of
    rows row0..rows-1 (to the last row by default) and columns >= col0 of h
    is brought into Hermite normal form, every step acts on columns >= col0
    only and is mirrored on u; rows past the window ride along.
    """
    if u is None:
        h, u = h.copy(), Matrix.identity(h.n)
    c = col0
    for i in range(row0, h.m if rows is None else rows):
        if c == h.n:
            break
        if not any(h.rows[i][c:]):
            continue
        reduce_left_int(h, u, i, c)
        reduce_right_int(h, u, i, c, col0)
        c += 1
    return h, u


@dataclass(frozen=True)
class TransformMatrix:
    """A mixed column transformation matrix with its block split sizes."""

    matrix: Matrix
    n1: int
    n2: int

    def __post_init__(self):
        # is_mctm's determinants are left to the tests: V is built only from
        # invertible column steps, and every answer is re-verified.
        if not _has_mctm_blocks(self.matrix, self.n1, self.n2):
            raise ValueError("matrix violates the mixed column transformation shape")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def inverse(self) -> "TransformMatrix":
        """Exact inverse; the inverse of an MCTM is again an MCTM."""
        return TransformMatrix(self.matrix.invert(), self.n1, self.n2)

    def apply(self, y: Sequence[Fraction]) -> list[Fraction]:
        return self.matrix.mul_vec(y)


# -- fixture text format -------------------------------------------------


def format_matrix(m: Matrix) -> str:
    """Serialize: first line ``m n``, then one line of rationals per row."""
    lines = [f"{m.m} {m.n}"]
    for row in m.rows:
        lines.append(" ".join(_format_rat(x) for x in row))
    return "\n".join(lines) + "\n"


def _format_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
