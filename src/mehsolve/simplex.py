"""Exact rational simplex over a fixed system, with a bound stack and certificates.

The engine follows the bounds-separated design common to SMT theory
solvers: every row, added once, either tightens a native bound on a
variable (single-variable rows) or introduces a slack variable whose
defining equation joins the tableau and whose upper bound carries the
row's constant.  The rows stay; only bounds (branch-and-bound's branch
bounds) are pushed and popped.  The instance remembers which variable
carries each row, so the constants of all rows can also be replaced at
once, keeping the basis (``classify`` moves from A x <= b to its
recession cone that way).  Feasibility repair pivots with Bland's rule,
so every call terminates; all arithmetic is exact.

The tableau is fraction-free (integer-preserving elimination): each row is
a dict of integer coefficients over one positive integer denominator,
reduced to gcd 1 after every pivot, and ``optimize_max`` keeps its
reduced-cost row in the same form through its pivots.  Bounds and the
assignment are ``Fraction``s, and every value handed out (assignments,
conflict and dual multipliers, rays) is a ``Fraction`` equal to the
rational tableau entry, so Bland's rule sees the same values as on a
rational tableau.  The certificate checks in ``model`` stay on
``Fraction`` and do not use the tableau's arithmetic.

Conflicts and optimal duals are reported as lists of ``(BoundSource,
multiplier)`` atoms.  For plain constraint systems the module-level
wrappers ``check_feasible`` and ``optimize_each`` (with ``optimize``, its
one-objective case) assemble those atoms into Farkas certificates over
the system's rows and re-verify them with the independent checker before
returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import ConstraintSystem, FarkasCertificate, check_certificate

_ZERO = Fraction(0)
_ONE = Fraction(1)


class EmptyStackError(IndexError):
    pass


class SimplexInternalError(AssertionError):
    """A result failed its own re-verification; indicates an engine bug."""


@dataclass(frozen=True)
class BoundSource:
    """Where a bound (an atom usable in conflicts) came from.

    ``kind`` is "row" for added inequalities and "branch" for bounds a
    branch-and-bound driver pushes.  ``scale`` is the positive factor by
    which the originating inequality exceeds the stored unit atom, so a
    multiplier mu on the atom contributes mu / scale to the source row.
    """

    kind: str
    index: int
    scale: Fraction = _ONE


Atom = tuple[BoundSource, Fraction]


@dataclass
class Feasible:
    point: list[Fraction]


@dataclass
class Infeasible:
    certificate: FarkasCertificate


@dataclass
class Optimal:
    """Optimum with an attaining point and dual multipliers.

    For sense "max" the dual y satisfies y >= 0, y^T A = h and
    y^T b = value; for "min" it satisfies y^T A = -h and y^T b = -value.
    Either way it witnesses that the objective cannot pass the optimum.
    """

    value: Fraction
    point: list[Fraction]
    dual: list[Fraction]


@dataclass
class UnboundedDirection:
    """An improving recession direction, normalized to integers with gcd 1."""

    ray: list[Fraction]


OptOutcome = Optimal | UnboundedDirection | Infeasible


class SimplexInstance:
    """Tableau over a fixed system of rows with a stack of bounds on top.

    Rows are added once with ``add_row``, before any bound is pushed, and
    stay.  Bounds are pushed with ``push_bound`` and popped in LIFO order
    with ``pop_bound``, each pop restoring the bound the push replaced;
    feasibility and optimization answers always reflect the rows and the
    bounds on the stack.

    ``_rows`` maps each added row to the variable that carries it: row
    ``coeffs . x <= b`` is ``c * x_var <= b``, where ``x_var`` is the row's
    one variable with its coefficient c, or a slack ``x_var = coeffs . x``
    with c = 1 (``var`` is None for a zero row).  With that map,
    ``set_row_bounds`` replaces the bound of every row at once, on an empty
    stack; it is the only operation that can loosen a bound.

    The tableau is fraction-free: basic variable ``bv`` is defined by
    ``_den[bv] * x_bv = sum(c * x_k for k, c in _tab[bv].items())`` over
    non-basic ``x_k``, with integer ``c``, no stored zero, a positive
    integer ``_den[bv]`` and ``gcd(_den[bv], *_tab[bv].values()) == 1``.
    Pivots update rows by integer cross-multiplication.  Bounds, the
    assignment and every value handed out stay ``Fraction``s, equal to the
    rational tableau entries ``c / _den[bv]``.
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
        self._dead: Optional[BoundSource] = None
        self.pivots = 0

    # -- rows and the bound stack ------------------------------------------

    def add_row(self, coeffs: Sequence[Fraction], b: Fraction,
                kind: str = "row", index: int = 0) -> None:
        """Add the inequality coeffs . x <= b for good."""
        if self._trail:
            raise ValueError("rows must be added before any bound is pushed")
        support = [(j, c) for j, c in enumerate(coeffs) if c]
        if not support:
            var, c = None, _ONE
        elif len(support) == 1:
            var, c = support[0]
        else:
            var, c = self._alloc_slack(support), _ONE
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
        """Bound row (var, c, src), c * x_var = coeffs . x, by b.

        A slack's c is ``_ONE`` itself, so its bound needs no division.
        """
        var, c, src = row
        if var is None:
            if b < 0:
                self._dead = src
        else:
            self._tighten(var, "up" if c > 0 else "lo", b if c is _ONE else b / c, src)

    def _tighten(self, var, side, value, src):
        """Keep the tighter of value and var's bound on side; return the old bound."""
        store = self._up if side == "up" else self._lo
        old = store[var]
        if old is None or (value < old[0] if side == "up" else value > old[0]):
            store[var] = (value, src)
        return old

    def _alloc_slack(self, support: list[tuple[int, Fraction]]) -> int:
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


def _scaled(x: Fraction, num: int, den: int) -> Fraction:
    """x * num / den for integers num and den != 0."""
    return Fraction(x.numerator * num, x.denominator * den)


def _reduce(den: int, row: dict[int, int]) -> int:
    """Divide den and row in place by their gcd; return the new den."""
    g = math.gcd(den, *row.values())
    if g != 1:
        for k in row:
            row[k] //= g
        den //= g
    return den


def _eliminate(row: dict[int, int], den: int, f: int, new: dict[int, int], p: int) -> int:
    """Eliminate x_j from den * x = row + f * x_j, where p * x_j = new.

    ``row`` no longer holds x_j and is updated in place by integer
    cross-multiplication: row * (p / g) + new * (f / g) over den * p / g,
    with g = gcd(f, p), then reduced to gcd 1.  Returns the new den.
    """
    g = math.gcd(f, p)
    if g != 1:
        f //= g
        p //= g
    if p != 1:
        for k in row:
            row[k] *= p
        den *= p
    for k, v in new.items():
        acc = row.get(k, 0) + f * v
        if acc:
            row[k] = acc
        elif k in row:
            del row[k]
    return _reduce(den, row)


# -- system-level wrappers ------------------------------------------------


def instance_for(sys: ConstraintSystem) -> SimplexInstance:
    inst = SimplexInstance(sys.n)
    for i in range(sys.m):
        inst.add_row(sys.matrix.rows[i], sys.bounds[i], "row", i)
    return inst


def atoms_to_certificate(atoms: list[Atom], m: int) -> FarkasCertificate:
    """Assemble row-sourced conflict atoms into a certificate over m rows."""
    y = [_ZERO] * m
    for src, mult in atoms:
        if src.kind != "row":
            raise SimplexInternalError(f"unexpected atom source {src.kind!r}")
        y[src.index] += mult / src.scale
    return FarkasCertificate(y)


def check_feasible(sys: ConstraintSystem) -> Feasible | Infeasible:
    """Exact rational feasibility of all rows of the system."""
    inst = instance_for(sys)
    conflict = inst.check()
    if conflict is None:
        return Feasible(inst.assignment())
    return _certified(sys, conflict)


def _certified(sys: ConstraintSystem, atoms: list[Atom]) -> Infeasible:
    """The certificate of conflict atoms over sys, checked independently."""
    cert = atoms_to_certificate(atoms, sys.m)
    if not check_certificate(sys, cert):
        raise SimplexInternalError("simplex produced an invalid Farkas certificate")
    return Infeasible(cert)


def optimize(sys: ConstraintSystem, h: Sequence[Fraction], sense: str) -> OptOutcome:
    """Optimize h . x over the system; sense is "min" or "max"."""
    return optimize_each(sys, [h], sense)[0]


def optimize_each(sys: ConstraintSystem, objectives: Sequence, sense: str) -> list[OptOutcome]:
    """Optimize each objective in turn over one tableau of the system.

    Every LP after the first re-optimizes from the basis the one before it
    left; each outcome is re-verified against sys as ``optimize``'s is.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    goals = []
    for h in objectives:
        hvec = [Fraction(x) for x in h]
        if len(hvec) != sys.n:
            raise ValueError("objective length does not match variable count")
        if not any(hvec):
            raise ValueError("objective must be non-zero")
        goals.append(hvec if sense == "max" else [-x for x in hvec])
    inst = instance_for(sys)
    return [_optimize_on(sys, inst, goal, sense) for goal in goals]


def _optimize_on(sys: ConstraintSystem, inst: SimplexInstance, goal, sense) -> OptOutcome:
    res = inst.optimize_max({j: c for j, c in enumerate(goal) if c})
    if res[0] == "infeasible":
        return _certified(sys, res[1])
    if res[0] == "unbounded":
        ray = [_ZERO] * sys.n
        for j, v in res[1].items():
            if j < sys.n:
                ray[j] = v
        return UnboundedDirection(_normalize_ray(ray))
    _, maxvalue, atoms = res
    value = maxvalue if sense == "max" else -maxvalue
    dual = atoms_to_certificate(atoms, sys.m).multiplier_vector(sys.m)
    point = inst.assignment()
    _verify_dual(sys, goal, maxvalue, dual)
    return Optimal(value, point, dual)


def _verify_dual(sys: ConstraintSystem, goal, maxvalue, dual) -> None:
    combo = [_ZERO] * sys.n
    rhs = _ZERO
    for mult, row, b in zip(dual, sys.matrix.rows, sys.bounds):
        if mult < 0:
            raise SimplexInternalError("negative dual multiplier")
        if mult:
            rhs += mult * b
            for j, a in enumerate(row):
                if a:
                    combo[j] += mult * a
    if combo != goal or rhs != maxvalue:
        raise SimplexInternalError("optimal dual failed re-verification")


def _normalize_ray(ray: list[Fraction]) -> list[Fraction]:
    scale = math.lcm(*(x.denominator for x in ray))
    ints = [int(x * scale) for x in ray]
    g = math.gcd(*(abs(v) for v in ints))
    if g == 0:
        raise SimplexInternalError("zero ray")
    return [Fraction(v, g) for v in ints]
