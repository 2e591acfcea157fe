"""Shared builders and hypothesis strategies for the test suite."""

from fractions import Fraction
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
            v.col_negate(rng.randrange(n))
        elif op == 1 and n1 >= 2:
            i, j = rng.sample(range(n1), 2)
            v.col_swap(i, j)
        elif op == 1 and n2 >= 2:
            i, j = rng.sample(range(n1, n), 2)
            v.col_swap(i, j)
        elif op == 2 and n1 >= 1:
            f = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            v.col_scale(rng.randrange(n1), f)
        elif op == 3 and n1 >= 1 and n >= 2:
            src = rng.randrange(n1)
            dst = rng.choice([j for j in range(n) if j != src])
            v.col_addmul(dst, src, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        elif op == 4 and n2 >= 2:
            src = rng.randrange(n1, n)
            dst = rng.choice([j for j in range(n1, n) if j != src])
            v.col_addmul(dst, src, Fraction(rng.randint(-3, 3)))


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
