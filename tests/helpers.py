"""Shared builders and hypothesis strategies for the test suite."""

from fractions import Fraction
import math
import random

from hypothesis import strategies as st

from mehsolve.linalg import Matrix
from mehsolve.mehnf import batch_mehnf
from mehsolve.model import ConstraintSystem, VarInfo, VarKind


def mk_system(rows, bounds, kinds, names=None):
    """Build a system from plain lists; kinds is a string like 'qzz'."""
    kindmap = {"q": VarKind.RATIONAL, "z": VarKind.INTEGER}
    kinds = [kindmap[k] for k in kinds.lower()]
    if names is None:
        names = [f"x{i}" for i in range(len(kinds))]
    variables = [VarInfo(n, k) for n, k in zip(names, kinds)]
    return ConstraintSystem(Matrix(rows), bounds, variables)


def transform_split(sys, sp):
    """The MEHNF of a split's bounded part, its unbounded part riding along.

    Returns (h, v, perm, residual): h holds the normal form of the bounded
    part and residual is the system U V y <= b_U that ``mixed_extension``
    takes, made of the riding rows.
    """
    h, v, perm = batch_mehnf(sp.bounded.matrix, sys.n1, sp.unbounded.matrix)
    top = sp.bounded.m
    moved = Matrix(h.rows[top:]) if sp.unbounded.m else Matrix.zeros(0, sys.n)
    residual = ConstraintSystem(moved, sp.unbounded.bounds, sys.variables)
    return Matrix(h.rows[:top]), v, perm, residual


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)

small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_m=5, max_n=5, entries=small_fractions, min_m=1, min_n=1):
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return Matrix(rows)


@st.composite
def mctms(draw, max_n1=3, max_n2=3, ops=6):
    """A random mixed column transformation matrix built from legal ops."""
    n1 = draw(st.integers(min_value=0, max_value=max_n1))
    n2 = draw(st.integers(min_value=0, max_value=max_n2))
    if n1 + n2 == 0:
        n1 = 1
    v = Matrix.identity(n1 + n2)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    apply_random_mctm_ops(v, n1, n2, rng, draw(st.integers(min_value=0, max_value=ops)))
    return v, n1, n2


def apply_random_mctm_ops(v, n1, n2, rng, count):
    n = n1 + n2
    for _ in range(count):
        op = rng.randrange(5)
        if op == 0:
            col_negate(v, rng.randrange(n))
        elif op == 1 and n1 >= 2:
            i, j = rng.sample(range(n1), 2)
            col_swap(v, i, j)
        elif op == 1 and n2 >= 2:
            i, j = rng.sample(range(n1, n), 2)
            col_swap(v, i, j)
        elif op == 2 and n1 >= 1:
            f = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            col_scale(v, rng.randrange(n1), f)
        elif op == 3 and n1 >= 1 and n >= 2:
            src = rng.randrange(n1)
            dst = rng.choice([j for j in range(n) if j != src])
            col_addmul(v, dst, src, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        elif op == 4 and n2 >= 2:
            src = rng.randrange(n1, n)
            dst = rng.choice([j for j in range(n1, n) if j != src])
            col_addmul(v, dst, src, Fraction(rng.randint(-3, 3)))


@st.composite
def systems(draw, max_m=5, max_n=4):
    """A random small mixed constraint system without zero rows."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    n1 = draw(st.integers(min_value=0, max_value=n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    rows = []
    for _ in range(m):
        row = draw(
            st.lists(small_ints, min_size=n, max_size=n).filter(lambda r: any(r))
        )
        rows.append(row)
    bounds = draw(st.lists(small_ints, min_size=m, max_size=m))
    kinds = "q" * n1 + "z" * (n - n1)
    return mk_system(rows, bounds, kinds)


def nested_sum(depth: int) -> str:
    """SMT-LIB text asserting ``(+ (+ ... x)) <= 0``, depth levels deep."""
    return ("(declare-fun x () Int)(assert (<= " + "(+ " * depth + "x"
            + ")" * depth + " 0))")


def rpiv(k: int, h: Matrix, n1: int) -> int:
    """Largest 1-based rational column with a non-zero entry in rows 1..k.

    Returns 0 when all rational columns are zero there.
    """
    for j in range(min(n1, h.n), 0, -1):
        if any(h.rows[i][j - 1] for i in range(min(k, h.m))):
            return j
    return 0


def parse_matrix(text: str) -> Matrix:
    toks = text.split()
    if len(toks) < 2:
        raise ValueError("matrix text must start with 'm n'")
    m, n = int(toks[0]), int(toks[1])
    entries = toks[2:]
    if len(entries) != m * n:
        raise ValueError(f"expected {m * n} entries, found {len(entries)}")
    it = iter(entries)
    return Matrix([[Fraction(next(it)) for _ in range(n)] for _ in range(m)])


# -- reference column kernels ------------------------------------------
#
# The Fraction column steps that linalg.column_reduce and
# linalg.hermite_normal_form replaced by their integer-row kernels.  Each
# step acts on one pivot row of h and mirrors every column operation on v;
# the kernels must return exactly what these loops return.


def col_swap(m: Matrix, i: int, j: int) -> None:
    if i != j:
        for row in m.rows:
            row[i], row[j] = row[j], row[i]


def col_scale(m: Matrix, j: int, factor: Fraction) -> None:
    for row in m.rows:
        if row[j]:
            row[j] *= factor


def col_addmul(m: Matrix, dst: int, src: int, factor: Fraction) -> None:
    """column dst += factor * column src."""
    if factor:
        for row in m.rows:
            if row[src]:
                row[dst] += factor * row[src]


def col_negate(m: Matrix, j: int) -> None:
    for row in m.rows:
        if row[j]:
            row[j] = -row[j]


def reduce_rat(h: Matrix, v: Matrix, p_row: int, p_col: int, j: int) -> None:
    """Rational pivot step on row p_row.

    Swaps column j into position p_col, scales it so the pivot becomes 1
    and clears every other entry of the row by adding multiples of the
    pivot column.  Requires a non-zero entry at (p_row, j).
    """
    col_swap(h, p_col, j)
    col_swap(v, p_col, j)
    row = h.rows[p_row]
    pivot = row[p_col]
    if pivot != 1:
        inv = 1 / pivot
        col_scale(h, p_col, inv)
        col_scale(v, p_col, inv)
    for k in range(h.n):
        if k != p_col and row[k]:
            f = -row[k]
            col_addmul(h, k, p_col, f)
            col_addmul(v, k, p_col, f)


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
            col_negate(h, j)
            col_negate(v, j)
    c = math.lcm(*(x.denominator for x in row[p_col:]))
    s = {j: int(row[j] * c) for j in range(p_col, h.n) if row[j] > 0}
    return c, s


def reduce_left_int(h: Matrix, v: Matrix, p_row: int, p_col: int) -> None:
    """Euclidean column reduction of the pivot row right of p_col.

    Runs gcd elimination over the scaled entries until a single non-zero
    entry remains, then swaps that gcd column into position p_col.  Only
    columns >= p_col are touched.  Raises ValueError on a zero tail.
    """
    _, s = abstract_to_int(h, v, p_row, p_col)
    if not s:
        raise ValueError("no non-zero entries right of the pivot position")
    while len(s) > 1:
        i0 = min(s, key=lambda j: (s[j], j))
        base = s[i0]
        for j in sorted(s):
            if j == i0:
                continue
            q = s[j] // base
            if q:
                col_addmul(h, j, i0, Fraction(-q))
                col_addmul(v, j, i0, Fraction(-q))
            s[j] -= q * base
            if not s[j]:
                del s[j]
    gcd_col = next(iter(s))
    col_swap(h, p_col, gcd_col)
    col_swap(v, p_col, gcd_col)


def reduce_right_int(h: Matrix, v: Matrix, p_row: int, p_col: int, first: int = 0) -> None:
    """Reduce the pivot row's entries in columns first..p_col-1 into [0, pivot).

    Subtracts floor(entry / pivot) times the pivot column from each of
    those columns; columns left of ``first`` are not touched.  Raises
    ValueError on a pivot that is not positive.
    """
    row = h.rows[p_row]
    pivot = row[p_col]
    if pivot <= 0:
        raise ValueError("pivot must be positive before right reduction")
    for j in range(first, p_col):
        q = row[j] // pivot
        if q:
            col_addmul(h, j, p_col, Fraction(-q))
            col_addmul(v, j, p_col, Fraction(-q))


def same_results(got, want) -> bool:
    """Kernel results equal entry for entry, matrix shapes included."""
    return len(got) == len(want) and all(
        (g.m, g.n, g.rows) == (w.m, w.n, w.rows) if isinstance(w, Matrix) else g == w
        for g, w in zip(got, want))


def ref_column_reduce(m: Matrix, cols=None, rows=None):
    """linalg.column_reduce as a loop over reduce_rat."""
    cols = m.n if cols is None else cols
    h, v = m.copy(), Matrix.identity(m.n)
    pivot_rows = []
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


def ref_hermite_normal_form(h: Matrix, u=None, row0=0, col0=0, rows=None):
    """linalg.hermite_normal_form as a loop over the Euclidean step."""
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
