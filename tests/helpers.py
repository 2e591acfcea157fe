"""Shared builders and hypothesis strategies for the test suite."""

from fractions import Fraction
import math
import random

from typing import Optional, Sequence

from hypothesis import strategies as st

from mehsolve.linalg import Matrix
from mehsolve.mehnf import batch_mehnf
from mehsolve.model import ConstraintSystem, FarkasCertificate, VarInfo, VarKind
from mehsolve.simplex import (
    Atom, BoundSource, EmptyStackError, SimplexInternalError, _eliminate, _reduce)
from mehsolve.solver import RefutationLeaf, _valid_cut


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

    Returns ``batch_mehnf``'s (h, v, perm): the first ``sp.bounded.m`` rows
    of h are the normal form of the bounded part, which
    ``transformed_system`` takes, and the rows below them are U V, which
    ``mixed_extension`` reads with ``sp.unbounded.bounds``.
    """
    return batch_mehnf(sp.bounded.matrix, sys.n1, sp.unbounded.matrix)


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


# -- reference simplex ---------------------------------------------------
#
# The simplex whose bounds, assignment, ratio test and slack values were
# Fractions, replaced by simplex.SimplexInstance's integer pairs.  It
# shares the integer tableau rows (``_reduce``, ``_eliminate``) with the
# engine; on the same calls both must make the same pivots and return the
# same conflicts, assignments and optimization results.

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RefSimplexInstance:
    """``simplex.SimplexInstance`` with ``Fraction`` bounds and assignment.

    Same calls, same tableau rows (``_tab``, ``_den``) and the same Bland's
    rule; ``_lo``/``_up`` hold ``(value, source)`` and ``_beta`` holds one
    ``Fraction`` per variable.  ``_rows`` maps each added row to ``(var, c,
    source)``: row ``coeffs . x <= b`` is ``c * x_var <= b``, where
    ``coeffs = c * form`` for the row's primitive integer normal ``form``
    (positive first entry, ``_ref_form``) and ``x_var`` is that form's one
    variable: its column for a unit form, else the slack ``x_var = form .
    x`` (``var`` is None for a zero row).
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._lo: list[Optional[tuple[Fraction, BoundSource]]] = [None] * nvars
        self._up: list[Optional[tuple[Fraction, BoundSource]]] = [None] * nvars
        self._beta: list[Fraction] = [_ZERO] * nvars
        self._tab: dict[int, dict[int, int]] = {}
        self._den: dict[int, int] = {}
        self._trail: list[tuple] = []
        self._rows: list[tuple[Optional[int], Fraction, BoundSource]] = []
        self._form_vars: dict[tuple[int, ...], int] = {}
        self._dead: Optional[BoundSource] = None
        self.pivots = 0

    # -- rows and the bound stack ------------------------------------------

    def add_row(self, coeffs: Sequence[Fraction], b: Fraction,
                kind: str = "row", index: int = 0) -> None:
        """Add the inequality coeffs . x <= b for good."""
        if self._trail:
            raise ValueError("rows must be added before any bound is pushed")
        form, c = _ref_form(coeffs)
        var = self._form_vars.get(form)
        if form is not None and var is None:
            support = [(j, a) for j, a in enumerate(form) if a]
            var = support[0][0] if len(support) == 1 else self._alloc_slack(support)
            self._form_vars[form] = var
        row = (var, c, BoundSource(kind, index, abs(c)))
        self._rows.append(row)
        self._bound_row(row, b)

    def set_row_bounds(self, bounds: Sequence[Fraction]) -> None:
        """Give the k-th added row the bound bounds[k], in place of its own.

        The rows, the basis and the assignment stay; every bound is
        rebuilt from the rows, so a bound may loosen.  Only allowed while
        the bound stack is empty.
        """
        if self._trail:
            raise ValueError("row bounds can only be replaced on an empty bound stack")
        if len(bounds) != len(self._rows):
            raise ValueError("one bound per added row is needed")
        self._lo = [None] * len(self._lo)
        self._up = [None] * len(self._up)
        self._dead = None
        for row, b in zip(self._rows, bounds):
            self._bound_row(row, b)

    def push_bound(self, var: int, side: str, value: Fraction,
                   kind: str, index: int) -> None:
        """Push var <= value (side "up") or var >= value (side "lo")."""
        old = self._tighten(var, side, value, BoundSource(kind, index))
        self._trail.append((var, side, old))

    def pop_bound(self) -> None:
        """Pop the last pushed bound, restoring the one it replaced."""
        if not self._trail:
            raise EmptyStackError("pop on an empty bound stack")
        var, side, old = self._trail.pop()
        (self._up if side == "up" else self._lo)[var] = old

    # -- internals -------------------------------------------------------

    def _bound_row(self, row, b: Fraction) -> None:
        """Bound row (var, c, src), c * x_var = coeffs . x, by b."""
        var, c, src = row
        if var is None:
            if b < 0:
                self._dead = src
        else:
            self._tighten(var, "up" if c > 0 else "lo", b / c, src)

    def _tighten(self, var, side, value, src):
        """Keep the tighter of value and var's bound on side; return the old bound."""
        store = self._up if side == "up" else self._lo
        old = store[var]
        if old is None or (value < old[0] if side == "up" else value > old[0]):
            store[var] = (value, src)
        return old

    def _alloc_slack(self, support: list[tuple[int, int]]) -> int:
        s = len(self._beta)
        self._lo.append(None)
        self._up.append(None)
        den, expr = self._combine(support)
        if not expr:
            raise SimplexInternalError("slack for a non-zero row reduced to nothing")
        beta = self._beta
        beta.append(sum((a * beta[j] for j, a in support if beta[j]), _ZERO))
        self._tab[s] = expr
        self._den[s] = den
        return s

    def _combine(self, terms) -> tuple[int, dict[int, int]]:
        """(den, row) of sum(a * x_j for j, a in terms) over the non-basics."""
        den = 1
        expr: dict[int, int] = {}
        for j, a in terms:
            if not a:
                continue
            num, q = a.numerator, a.denominator
            row = self._tab.get(j)
            if row is None:
                row = {j: 1}
            else:
                q *= self._den[j]
            if den % q:
                scale = q // math.gcd(den, q)
                for k in expr:
                    expr[k] *= scale
                den *= scale
            num *= den // q
            for k, c in row.items():
                acc = expr.get(k, 0) + num * c
                if acc:
                    expr[k] = acc
                elif k in expr:
                    del expr[k]
        return _reduce(den, expr), expr

    def _update(self, var: int, value: Fraction) -> None:
        """Move non-basic var to value and every basic variable with it."""
        delta = value - self._beta[var]
        if not delta:
            return
        self._beta[var] = value
        for bv, row in self._tab.items():
            c = row.get(var)
            if c:
                self._beta[bv] += _scaled(delta, c, self._den[bv])

    def _pivot(self, bv: int, j: int) -> None:
        row = self._tab.pop(bv)
        den = self._den.pop(bv)
        p = row.pop(j)
        # x_j = (den * x_bv - sum(row[k] * x_k)) / p.  The new row has the
        # old row's entries up to sign, so its gcd stays 1.
        if p > 0:
            new = {bv: den}
            for k, v in row.items():
                new[k] = -v
        else:
            p = -p
            new = {bv: -den}
            new.update(row)
        for other, orow in self._tab.items():
            f = orow.pop(j, None)
            if f:
                self._den[other] = _eliminate(orow, self._den[other], f, new, p)
        self._tab[j] = new
        self._den[j] = p
        self.pivots += 1

    def _pivot_and_update(self, bv: int, j: int, target: Fraction) -> None:
        """Move x_j until basic bv reaches target, then swap the two."""
        theta = _scaled(target - self._beta[bv], self._den[bv], self._tab[bv][j])
        self._update(j, self._beta[j] + theta)
        self._pivot(bv, j)

    def _can_move(self, j: int, sign: int) -> bool:
        """Whether x_j can increase (sign > 0) or decrease (sign < 0)."""
        if sign > 0:
            up = self._up[j]
            return up is None or self._beta[j] < up[0]
        lo = self._lo[j]
        return lo is None or self._beta[j] > lo[0]

    def _entering(self, row: dict[int, int], sign: int) -> Optional[int]:
        """Bland's choice: the least x_j of row that can move row by sign."""
        for j in sorted(row):
            if self._can_move(j, sign if row[j] > 0 else -sign):
                return j
        return None

    def _explain(self, row: dict[int, int], den: int, sign: int) -> list[Atom]:
        """The bounds that stop every x_j of row / den from moving it by sign."""
        return [((self._up if c * sign > 0 else self._lo)[j][1], Fraction(abs(c), den))
                for j, c in row.items()]

    # -- feasibility -----------------------------------------------------

    def check(self) -> Optional[list[Atom]]:
        """Repair the assignment; None when feasible, else conflict atoms.

        The conflict is a list of (source, multiplier) pairs whose
        inequality combination is constant and violated.  Bland's rule
        (smallest variable index everywhere) guarantees termination.
        """
        if self._dead is not None:
            return [(self._dead, _ONE)]
        for var in range(len(self._beta)):
            lo, up = self._lo[var], self._up[var]
            if lo is not None and up is not None and lo[0] > up[0]:
                return [(lo[1], _ONE), (up[1], _ONE)]
        # Clamp non-basic variables back into their bounds; pushed bounds
        # may have left them outside.
        for var in range(len(self._beta)):
            if var in self._tab:
                continue
            lo, up = self._lo[var], self._up[var]
            if lo is not None and self._beta[var] < lo[0]:
                self._update(var, lo[0])
            elif up is not None and self._beta[var] > up[0]:
                self._update(var, up[0])
        while True:
            # The least violated basic variable, and the sign it must move by.
            for bv in sorted(self._tab):
                lo, up = self._lo[bv], self._up[bv]
                if lo is not None and self._beta[bv] < lo[0]:
                    sign, bound = 1, lo
                    break
                if up is not None and self._beta[bv] > up[0]:
                    sign, bound = -1, up
                    break
            else:
                return None
            row = self._tab[bv]
            enter = self._entering(row, sign)
            if enter is None:
                return [(bound[1], _ONE), *self._explain(row, self._den[bv], sign)]
            self._pivot_and_update(bv, enter, bound[0])

    def assignment(self) -> list[Fraction]:
        return self._beta[: self.nvars]

    # -- optimization ------------------------------------------------------

    def optimize_max(self, h: dict[int, Fraction]):
        """Maximize sum(h[j] * x_j) over the rows and the stacked bounds.

        Returns ("infeasible", atoms), ("unbounded", ray_over_all_vars) or
        ("optimal", value, dual_atoms).  Must be re-run after stack changes.
        The reduced-cost row is built once, in the tableau's integer form,
        and updated by the same elimination as the rows at every pivot.
        """
        conflict = self.check()
        if conflict is not None:
            return ("infeasible", conflict)
        dden, d = self._combine(h.items())
        while True:
            j = self._entering(d, 1)
            if j is None:
                value = sum((hp * self._beta[p] for p, hp in h.items()), _ZERO)
                return ("optimal", value, self._explain(d, dden, 1))
            sgn = 1 if d[j] > 0 else -1
            own = (self._up if sgn > 0 else self._lo)[j]
            best_t = best_bv = best_target = None
            for bv in sorted(self._tab):
                c = self._tab[bv].get(j)
                if not c:
                    continue
                eff = c * sgn
                bound = (self._up if eff > 0 else self._lo)[bv]
                if bound is None:
                    continue
                t = _scaled(bound[0] - self._beta[bv], self._den[bv], eff)
                if best_t is None or t < best_t:
                    best_t, best_bv, best_target = t, bv, bound[0]
            if own is None and best_t is None:
                ray = {j: Fraction(sgn)}
                for bv, row in self._tab.items():
                    c = row.get(j)
                    if c:
                        ray[bv] = Fraction(c * sgn, self._den[bv])
                return ("unbounded", ray)
            if best_t is None or (own is not None and (own[0] - self._beta[j]) * sgn <= best_t):
                self._update(j, own[0])
            else:
                self._pivot_and_update(best_bv, j, best_target)
                dden = _eliminate(d, dden, d.pop(j), self._tab[j], self._den[j])


def _ref_form(coeffs: Sequence[Fraction]) -> tuple[Optional[tuple[int, ...]], Fraction]:
    """(form, c) with coeffs == c * form, form the primitive integer normal
    with a positive first non-zero entry; (None, 1) for a zero row."""
    lead = next((a for a in coeffs if a), None)
    if lead is None:
        return None, _ONE
    den = math.lcm(*(Fraction(a).denominator for a in coeffs))
    ints = [int(a * den) for a in coeffs]
    g = math.gcd(*ints) if lead > 0 else -math.gcd(*ints)
    return tuple(v // g for v in ints), Fraction(g, den)


def _scaled(x: Fraction, num: int, den: int) -> Fraction:
    """x * num / den for integers num and den != 0."""
    return Fraction(x.numerator * num, x.denominator * den)


def ref_instance_for(sys):
    """``simplex.instance_for`` on the reference simplex."""
    inst = RefSimplexInstance(sys.n)
    for i in range(sys.m):
        inst.add_row(sys.matrix.rows[i], sys.bounds[i], "row", i)
    return inst


# -- reference refutation checker -------------------------------------------


def ref_check_certificate(sys, cert) -> bool:
    """``model.check_certificate`` as a sum over every row of the system."""
    y = cert.multiplier_vector(sys.m)
    if any(v < 0 for v in y):
        return False
    combo = [Fraction(0)] * sys.n
    rhs = Fraction(0)
    for mult, row, b in zip(y, sys.matrix.rows, sys.bounds):
        if mult:
            rhs += mult * b
            for j, a in enumerate(row):
                if a:
                    combo[j] += mult * a
    return not any(combo) and rhs < 0


def ref_check_refutation(sys, refutation) -> bool:
    """``solver.check_refutation`` that copies the system for each leaf.

    Each leaf is checked as a Farkas certificate over a new system: all
    rows of sys, then the active sides of the cuts on the leaf's path.
    A cut's value must be an integer; this check is its own, so that it
    does not rest on ``_valid_cut`` alone.
    """
    if isinstance(refutation, RefutationLeaf):
        return not refutation.cut_mults and _ref_check_leaf(sys, refutation, [])
    work = [("visit", refutation)]
    path: list[tuple] = []
    while work:
        action, payload = work.pop()
        if action == "leave":
            path.pop()
        elif action == "switch":
            path[-1] = (payload, "high")
        else:
            node = payload
            if isinstance(node, RefutationLeaf):
                if not _ref_check_leaf(sys, node, path):
                    return False
                continue
            if not _valid_cut(sys, node.cut) or Fraction(node.cut.value).denominator != 1:
                return False
            path.append((node.cut, "low"))
            work.append(("leave", None))
            work.append(("visit", node.high))
            work.append(("switch", node.cut))
            work.append(("visit", node.low))
    return True


def _ref_check_leaf(sys, leaf, path) -> bool:
    if any(d not in range(len(path)) for d in leaf.cut_mults):
        return False
    rows = [list(r) for r in sys.matrix.rows]
    bounds = list(sys.bounds)
    for cut, side in path:
        if side == "low":
            rows.append(list(cut.coeffs))
            bounds.append(Fraction(cut.value))
        else:
            rows.append([-c for c in cut.coeffs])
            bounds.append(Fraction(-(cut.value + 1)))
    extended = ConstraintSystem(Matrix(rows), bounds, sys.variables, sys.user_perm)
    y = [Fraction(0)] * extended.m
    for i, mult in leaf.row_mults.items():
        if not 0 <= i < sys.m:
            return False
        y[i] += mult
    for d, mult in leaf.cut_mults.items():
        y[sys.m + d] += mult
    return ref_check_certificate(extended, FarkasCertificate(y))
