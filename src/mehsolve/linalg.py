"""Exact rational matrices and the normal forms behind the solver.

Matrices hold arbitrary-precision rationals (``fractions.Fraction``),
always in canonical reduced form with a positive denominator, so equality
is structural and no rounding can occur anywhere.

The module provides dense matrices, plus:

* ``piv`` and the shape predicates ``is_lower_triangular_with_gaps``,
  ``is_hermite_normal_form``, ``is_mehnf`` and ``is_mctm``,
* the two column reductions every normal form here is built from, each on
  a column window: ``column_reduce`` (invertible rational column
  reduction, pivoting only in the first ``cols`` columns) and
  ``hermite_normal_form`` (unimodular integer column reduction, also valid
  for rational input matrices, which can reduce an (h, u) pair in place
  from (row0, col0) on); ``mehnf.batch_mehnf`` runs both on one pair,
* exact inversion, which is ``column_reduce`` again: every row of an
  invertible matrix pivots in order and becomes the next unit row, so
  h = I and v is the inverse,
* rank and determinant, by their own Gaussian elimination (the generator
  uses rank; the shape predicates and the tests use the determinant).

The two reductions take and return Fraction matrices, but step on h
stacked over v as integer rows with one positive denominator each
(``int_row``), fraction-free as in Bareiss (Math. Comp. 1968): the
Euclidean step (``_euclid``) only swaps, negates and adds integer
multiples of columns, so no denominator changes, and the rational pivot
(``_pivot``) cross-multiplies and divides each row it touches by its gcd.
Their results are exactly those of the same steps on Fractions.

Column indices in the public pivot helpers are 1-based to match the usual
statement of the definitions; matrix entries themselves are addressed
0-based like any Python sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular."""


def frac(value) -> Fraction:
    """Coerce ints, strings like ``p/q`` and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed in exact arithmetic")
    return Fraction(value)


class Matrix:
    """Dense matrix of Fractions with value semantics."""

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


def int_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row as (ints, den): integers over the lcm of its denominators.

    row[k] == ints[k] / den, and gcd(den, *ints) == 1, since the entry with
    the most factors of any prime in den has a numerator prime to it.
    """
    den = math.lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


def int_form(ints: Sequence[int], den: int) -> tuple[Optional[tuple[int, ...]], int, int]:
    """(form, p, q) with ints / den == (p / q) * form, where the form is the
    row's primitive integer normal with a positive first non-zero entry, so
    rows share a form exactly when their normals are parallel.  For
    ``int_row``'s output p / q is in lowest terms.  A zero row: (None, 0, 1)."""
    g = math.gcd(*ints)
    if not g:
        return None, 0, 1
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple([c // g for c in ints]), g, den


def _int_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    pairs = [int_row(row) for row in rows]
    return [ints for ints, _ in pairs], [den for _, den in pairs]


class _Fractions(dict):
    """num -> Fraction(num, den), each value built on its first lookup."""

    __slots__ = ("den",)

    def __init__(self, den: int) -> None:
        self.den = den

    def __missing__(self, num: int) -> Fraction:
        x = self[num] = Fraction(num, self.den)
        return x


def _store(nums: list[list[int]], dens: list[int], m: int, h: Matrix, v: Matrix) -> None:
    """Write the first m integer rows into h and the others into v, as Fractions."""
    cache: dict[int, _Fractions] = {}
    rows = []
    for ints, den in zip(nums, dens):
        memo = cache.get(den)
        if memo is None:
            memo = cache[den] = _Fractions(den)
        rows.append([memo[p] for p in ints])
    h.rows, h.m = rows[:m], m
    v.rows, v.m = rows[m:], len(rows) - m


def _swap(nums: list[list[int]], i: int, j: int) -> None:
    if i != j:
        for row in nums:
            row[i], row[j] = row[j], row[i]


def _addmul(nums: list[list[int]], src: int, ops: list[tuple[int, int]]) -> None:
    """Column j -= q * column src for every (j, q) in ops, j != src."""
    if ops:
        for row in nums:
            x = row[src]
            if x:
                for j, q in ops:
                    row[j] -= q * x


def _pivot(nums: list[list[int]], dens: list[int], p: int, pc: int) -> None:
    """Rational pivot step at (p, pc), on every row.

    Divides column pc by the entry a = R_p[pc] / d_p and subtracts
    R_p[k] / d_p times the new column pc from every other column k, so row
    p becomes a unit row.  Each row i with R_i[pc] != 0 becomes, over the
    denominator a * d_i, R_i[k] := a * R_i[k] - R_p[k] * R_i[pc] and
    R_i[pc] := d_p * R_i[pc] (signs chosen so the denominator stays
    positive), then is divided by its gcd with that denominator.
    """
    b = nums[p]
    a, dp = b[pc], dens[p]
    if a < 0:
        a, dp, b = -a, -dp, [-x for x in b]
    for i, row in enumerate(nums):
        c = row[pc]
        if c:
            new = [a * x - y * c for x, y in zip(row, b)]
            new[pc] = dp * c
            d = a * dens[i]
            g = math.gcd(d, *new)
            if g != 1:
                new = [x // g for x in new]
                d //= g
            nums[i] = new
            dens[i] = d


def _euclid(nums: list[list[int]], i: int, c: int, first: int) -> None:
    """Euclidean step on row i, which has a non-zero entry in a column >= c.

    Negates the columns >= c whose entry in row i is negative, reduces the
    row's entries right of c to their gcd by integer column steps (the
    smallest entry, first one on ties, is subtracted from the others),
    swaps that column into c and reduces the row's entries in columns
    first..c-1 into [0, pivot).  Row denominators never change, and the
    quotients on a row's integers are those on its rational entries.
    """
    row = nums[i]
    neg = [j for j in range(c, len(row)) if row[j] < 0]
    if neg:
        for r in nums:
            for j in neg:
                r[j] = -r[j]
    live = [j for j in range(c, len(row)) if row[j]]
    while len(live) > 1:
        i0 = min(live, key=row.__getitem__)
        base = row[i0]
        _addmul(nums, i0, [(j, row[j] // base) for j in live if j != i0 and row[j] >= base])
        live = [j for j in live if row[j]]
    _swap(nums, c, live[0])
    pivot = row[c]
    _addmul(nums, c, [(j, row[j] // pivot) for j in range(first, c)
                      if not 0 <= row[j] < pivot])


def column_reduce(m: Matrix, cols: int | None = None,
                  rows: int | None = None) -> tuple[Matrix, Matrix, list[int]]:
    """Greedy top-to-bottom rational column reduction.

    Returns (h, v, pivot_rows) with h = m * v and v invertible.  Pivots are
    searched only in the first ``rows`` rows and the first ``cols`` columns
    (all by default); later rows only ride along the column steps.  Each
    searched row that is independent of the rows above it in those columns
    becomes a pivot row: its first non-zero searched column is swapped into
    place and the rational pivot step turns it into the next unit row e_1,
    e_2, ... over the whole width; in every other searched row the searched
    columns are zero from len(pivot_rows) on.
    """
    cols = m.n if cols is None else cols
    nums, dens = _int_rows(m.rows + Matrix.identity(m.n).rows)
    pivot_rows: list[int] = []
    r = 0
    for i in range(m.m if rows is None else rows):
        if r == cols:
            break
        row = nums[i]
        for j in range(r, cols):
            if row[j]:
                break
        else:
            continue
        _swap(nums, r, j)
        _pivot(nums, dens, i, r)
        pivot_rows.append(i)
        r += 1
    h, v = Matrix.zeros(0, m.n), Matrix.zeros(0, m.n)
    _store(nums, dens, m.m, h, v)
    return h, v, pivot_rows


def hermite_normal_form(h: Matrix, u: Matrix | None = None, row0: int = 0,
                        col0: int = 0, rows: int | None = None) -> tuple[Matrix, Matrix]:
    """Bring h into Hermite normal form by unimodular column operations.

    Works for rational input matrices as well: the Euclidean steps run on
    each row's integers over its denominator, so only integer column
    combinations, swaps and sign flips are ever applied.  Given only h,
    reduces a copy and returns (h', u) with h' = h * u, u integer with
    determinant +-1, and is_hermite_normal_form(h') true.

    Given the pair (h, u), reduces it in place and returns it: the window of
    rows row0..rows-1 (to the last row by default) and columns >= col0 of h
    is brought into Hermite normal form, every step acts on columns >= col0
    only and is mirrored on u; rows past the window ride along.
    """
    m = h.m
    if u is None:
        nums, dens = _int_rows(h.rows + Matrix.identity(h.n).rows)
        h, u = Matrix.zeros(0, h.n), Matrix.zeros(0, h.n)
    else:
        nums, dens = _int_rows(h.rows + u.rows)
    c = col0
    for i in range(row0, m if rows is None else rows):
        if c == h.n:
            break
        if any(nums[i][c:]):
            _euclid(nums, i, c, col0)
            c += 1
    _store(nums, dens, m, h, u)
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
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"
