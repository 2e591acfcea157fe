"""Exact rational simplex over a fixed system, with a bound stack and certificates.

The engine follows the bounds-separated design of SMT theory solvers
(Dutertre and de Moura, CAV 2006) with one variable per linear form (a
system's ``forms``, see ``linalg.int_form``): its column for a unit form,
else a slack whose defining equation ``form . x`` joins the tableau.
Every row, added once, bounds its form's variable, so the two rows of an
equality bound one slack.  The rows stay; only bounds (branch-and-bound's
branch bounds) are pushed and popped.  The instance remembers which variable carries
each row, so the constants of all rows can also be replaced at once,
keeping the basis (``classify`` moves from A x <= b to its recession cone
that way).  Feasibility repair pivots with Bland's rule, so every call
terminates; all arithmetic is exact.

The tableau is fraction-free (integer-preserving elimination): each row is
a dict of integer coefficients over one positive integer denominator,
reduced to gcd 1 after every pivot, and ``optimize_max`` keeps its
reduced-cost row that way through its pivots.  Bounds and the
assignment are integer pairs (num, den) in lowest terms, compared by
cross-multiplication, and the ratio test compares its steps the same way,
so feasibility repair and optimization make no ``Fraction``.  Every value
handed out (assignments, conflict and dual multipliers, optimum values,
rays) is a ``Fraction`` equal to the rational value, so Bland's rule sees
the same values as on a rational tableau.  The certificate checks in
``model`` stay on ``Fraction`` and do not use the tableau's arithmetic.

Conflicts and optimal duals are reported as lists of ``(BoundSource,
multiplier)`` atoms (``atom_multipliers`` splits them into rows and pushed
bounds).  For plain constraint systems the module-level wrappers
``check_feasible`` and ``optimize_each`` (with ``optimize``, its
one-objective converter) assemble them into Farkas certificates over the
system's rows and re-verify them with the independent checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import int_form, int_row
from .model import ConstraintSystem, FarkasCertificate, check_certificate, farkas_sum

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

    ``_rows`` maps each added row to the variable that carries it and its
    scale: row ``(p / q) * (form . x) <= b`` bounds the form's variable
    ``x_var`` (``_form_vars``) by ``b * q / p``, from above when ``p > 0``
    (``var`` is None for a zero row).  With that map, ``set_row_bounds``
    replaces the bound of every row at once, on an empty stack; it is the
    only operation that can loosen a bound.

    The tableau is fraction-free: basic variable ``bv`` is defined by
    ``_den[bv] * x_bv = sum(c * x_k for k, c in _tab[bv].items())`` over
    non-basic ``x_k``, with integer ``c``, no stored zero, a positive
    integer ``_den[bv]`` and ``gcd(_den[bv], *_tab[bv].values()) == 1``.
    Pivots update rows by integer cross-multiplication.  Every stored value
    is an integer pair too: ``_beta[k] == (num, den)`` is the value
    ``num / den`` of ``x_k``, and a bound is ``(num, den, source)``, each
    with ``den > 0`` and ``gcd(num, den) == 1``.  Pairs are compared by
    cross-multiplication.  ``Fraction``s are made only for what leaves the
    instance: assignments, conflict and dual multipliers, optimum values
    and rays.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._lo: list[Optional[tuple[int, int, BoundSource]]] = [None] * nvars
        self._up: list[Optional[tuple[int, int, BoundSource]]] = [None] * nvars
        self._beta: list[tuple[int, int]] = [(0, 1)] * nvars
        self._tab: dict[int, dict[int, int]] = {}
        self._den: dict[int, int] = {}
        self._trail: list[tuple] = []
        self._rows: list[tuple[Optional[int], int, int, BoundSource]] = []
        self._form_vars: dict[tuple[int, ...], int] = {}
        self._dead: Optional[BoundSource] = None
        self.pivots = 0

    # -- rows and the bound stack ------------------------------------------

    def add_row(self, coeffs: Sequence[Fraction], b: Fraction,
                kind: str = "row", index: int = 0) -> None:
        """Add the inequality coeffs . x <= b for good."""
        self._add_form_row(*int_form(*int_row(coeffs)), b, kind, index)

    def _add_form_row(self, form: Optional[tuple[int, ...]], p: int, q: int,
                      b: Fraction, kind: str, index: int) -> None:
        """Add (p / q) * (form . x) <= b, as ``linalg.int_form`` splits a row."""
        if self._trail:
            raise ValueError("rows must be added before any bound is pushed")
        if form is None:
            row = (None, 1, 1, BoundSource(kind, index))
        else:
            var = self._form_vars.get(form)
            if var is None:
                support = [(j, c) for j, c in enumerate(form) if c]
                var = support[0][0] if len(support) == 1 else self._alloc_slack(support)
                self._form_vars[form] = var
            row = (var, p, q, BoundSource(kind, index, _ONE if abs(p) == q else Fraction(abs(p), q)))
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
        old = self._tighten(var, side, value.numerator, value.denominator,
                            BoundSource(kind, index))
        self._trail.append((var, side, old))

    def pop_bound(self) -> None:
        """Pop the last pushed bound, restoring the one it replaced."""
        if not self._trail:
            raise EmptyStackError("pop on an empty bound stack")
        var, side, old = self._trail.pop()
        (self._up if side == "up" else self._lo)[var] = old

    # -- internals -------------------------------------------------------

    def _bound_row(self, row, b: Fraction) -> None:
        """Bound x_var of row (var, p, q, src) by b * q / p."""
        var, p, q, src = row
        num, den = b.numerator, b.denominator
        if var is None:
            if num < 0:
                self._dead = src
            return
        if p != 1 or q != 1:
            num, den = _pair(num * q, den * p)
        self._tighten(var, "up" if p > 0 else "lo", num, den, src)

    def _tighten(self, var, side, num, den, src):
        """Keep the tighter of num / den and var's bound on side; return the old bound."""
        store = self._up if side == "up" else self._lo
        old = store[var]
        if old is None or (num * old[1] < old[0] * den if side == "up"
                           else num * old[1] > old[0] * den):
            store[var] = (num, den, src)
        return old

    def _alloc_slack(self, support: list[tuple[int, int]]) -> int:
        s = len(self._beta)
        self._lo.append(None)
        self._up.append(None)
        den, expr = self._combine(support, 1)
        if not expr:
            raise SimplexInternalError("slack for a non-zero row reduced to nothing")
        self._beta.append(self._value(expr, den))
        self._tab[s] = expr
        self._den[s] = den
        return s

    def _combine(self, terms, den0: int) -> tuple[int, dict[int, int]]:
        """(den, row) of sum(c * x_j for j, c in terms) / den0 over the non-basics."""
        den = den0
        expr: dict[int, int] = {}
        for j, num in terms:
            if not num:
                continue
            q = den0
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

    def _value(self, row: dict[int, int], den: int) -> tuple[int, int]:
        """sum(c * x_k for k, c in row) / den at the assignment, as a pair."""
        beta = self._beta
        num, q = 0, 1
        for k, c in row.items():
            n, d = beta[k]
            if not n:
                continue
            if d == q:
                num += c * n
            else:
                g = math.gcd(q, d)
                num = num * (d // g) + c * n * (q // g)
                q = q // g * d
        return _pair(num, q * den)

    def _update(self, var: int, num: int, den: int) -> None:
        """Move non-basic var to num / den and every basic variable with it."""
        n, d = self._beta[var]
        dn = num * d - n * den
        if not dn:
            return
        self._beta[var] = (num, den)
        self._shift(var, *_pair(dn, den * d))

    def _shift(self, var: int, dn: int, dd: int) -> None:
        """Move every basic variable with non-basic var's move by dn / dd."""
        beta, dens = self._beta, self._den
        for bv, row in self._tab.items():
            c = row.get(var)
            if c:
                n, d = beta[bv]
                beta[bv] = _sum(n, d, dn * c, dd * dens[bv])

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

    def _pivot_and_update(self, bv: int, j: int, num: int, den: int) -> None:
        """Move x_j until basic bv reaches num / den, then swap the two."""
        n, d = self._beta[bv]
        theta = _pair((num * d - n * den) * self._den[bv], den * d * self._tab[bv][j])
        if theta[0]:
            n, d = self._beta[j]
            self._beta[j] = _sum(n, d, *theta)
            self._shift(j, *theta)
        self._pivot(bv, j)

    def _can_move(self, j: int, sign: int) -> bool:
        """Whether x_j can increase (sign > 0) or decrease (sign < 0)."""
        n, d = self._beta[j]
        if sign > 0:
            up = self._up[j]
            return up is None or n * up[1] < up[0] * d
        lo = self._lo[j]
        return lo is None or n * lo[1] > lo[0] * d

    def _entering(self, row: dict[int, int], sign: int) -> Optional[int]:
        """Bland's choice: the least x_j of row that can move row by sign."""
        for j in sorted(row):
            if self._can_move(j, sign if row[j] > 0 else -sign):
                return j
        return None

    def _explain(self, row: dict[int, int], den: int, sign: int) -> list[Atom]:
        """The bounds that stop every x_j of row / den from moving it by sign."""
        return [((self._up if c * sign > 0 else self._lo)[j][2], Fraction(abs(c), den))
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
        beta, lows, ups = self._beta, self._lo, self._up
        for lo, up in zip(lows, ups):
            if lo is not None and up is not None and lo[0] * up[1] > up[0] * lo[1]:
                return [(lo[2], _ONE), (up[2], _ONE)]
        # Clamp non-basic variables back into their bounds; pushed bounds
        # may have left them outside.
        for var, (n, d) in enumerate(beta):
            if var in self._tab:
                continue
            lo, up = lows[var], ups[var]
            if lo is not None and n * lo[1] < lo[0] * d:
                self._update(var, lo[0], lo[1])
            elif up is not None and n * up[1] > up[0] * d:
                self._update(var, up[0], up[1])
        while True:
            # The least violated basic variable, and the sign it must move by.
            for bv in sorted(self._tab):
                n, d = beta[bv]
                lo, up = lows[bv], ups[bv]
                if lo is not None and n * lo[1] < lo[0] * d:
                    sign, bound = 1, lo
                    break
                if up is not None and n * up[1] > up[0] * d:
                    sign, bound = -1, up
                    break
            else:
                return None
            row = self._tab[bv]
            enter = self._entering(row, sign)
            if enter is None:
                return [(bound[2], _ONE), *self._explain(row, self._den[bv], sign)]
            self._pivot_and_update(bv, enter, bound[0], bound[1])

    def assignment(self) -> list[Fraction]:
        return [Fraction(n, d) for n, d in self._beta[: self.nvars]]

    # -- optimization ------------------------------------------------------

    def optimize_max(self, h: dict[int, Fraction]):
        """Maximize sum(h[j] * x_j) over the rows and the stacked bounds.

        Returns ("infeasible", atoms), ("unbounded", ray_over_all_vars) or
        ("optimal", value, dual_atoms).  Must be re-run after stack changes.
        """
        ints, den = int_row(list(h.values()))
        return self._maximize(dict(zip(h, ints)), den)

    def _maximize(self, obj: dict[int, int], oden: int):
        """``optimize_max`` of the objective (obj . x) / oden.

        The reduced-cost row is built once, in the tableau's integer form,
        and updated by the same elimination as the rows at every pivot.
        The ratio test compares each step ``tn / td`` (``td > 0``) by
        cross-multiplication, unreduced.
        """
        conflict = self.check()
        if conflict is not None:
            return ("infeasible", conflict)
        beta, lows, ups = self._beta, self._lo, self._up
        dden, d = self._combine(obj.items(), oden)
        while True:
            j = self._entering(d, 1)
            if j is None:
                return ("optimal", Fraction(*self._value(obj, oden)), self._explain(d, dden, 1))
            sgn = 1 if d[j] > 0 else -1
            own = (ups if sgn > 0 else lows)[j]
            best_bv = best_bound = best_tn = best_td = None
            for bv in sorted(self._tab):
                c = self._tab[bv].get(j)
                if not c:
                    continue
                eff = c * sgn
                bound = (ups if eff > 0 else lows)[bv]
                if bound is None:
                    continue
                n, q = beta[bv]
                tn = (bound[0] * q - n * bound[1]) * self._den[bv]
                td = bound[1] * q * eff
                if td < 0:
                    tn, td = -tn, -td
                if best_bv is None or tn * best_td < best_tn * td:
                    best_bv, best_bound, best_tn, best_td = bv, bound, tn, td
            if own is None and best_bv is None:
                ray = {j: Fraction(sgn)}
                for bv, row in self._tab.items():
                    c = row.get(j)
                    if c:
                        ray[bv] = Fraction(c * sgn, self._den[bv])
                return ("unbounded", ray)
            if own is not None:
                n, q = beta[j]
                # (own - x_j) * sgn <= best step: the bound of x_j comes first.
                if best_bv is None or ((own[0] * q - n * own[1]) * sgn * best_td
                                       <= best_tn * own[1] * q):
                    self._update(j, own[0], own[1])
                    continue
            self._pivot_and_update(best_bv, j, best_bound[0], best_bound[1])
            dden = _eliminate(d, dden, d.pop(j), self._tab[j], self._den[j])


def _pair(num: int, den: int) -> tuple[int, int]:
    """num / den as a pair with a positive denominator and gcd 1; den != 0."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    if g != 1:
        return num // g, den // g
    return num, den


def _sum(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1 / d1 + n2 / d2 as a reduced pair, for d1, d2 > 0."""
    if d1 == d2:
        if d1 == 1:
            return n1 + n2, 1
        return _pair(n1 + n2, d1)
    return _pair(n1 * d2 + n2 * d1, d1 * d2)


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
    for i, ((form, p, q), b) in enumerate(zip(sys.forms, sys.bounds)):
        inst._add_form_row(form, p, q, b, "row", i)
    return inst


def atom_multipliers(atoms: list[Atom]) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Multipliers of the atoms' rows (each divided by its scale) and pushed
    bounds, keyed by source index in the order the atoms come."""
    rows: dict[int, Fraction] = {}
    pushed: dict[int, Fraction] = {}
    for src, mult in atoms:
        if src.kind == "row":
            rows[src.index] = rows.get(src.index, _ZERO) + mult / src.scale
        else:
            pushed[src.index] = pushed.get(src.index, _ZERO) + mult
    return rows, pushed


def atoms_to_certificate(atoms: list[Atom], m: int) -> FarkasCertificate:
    """Assemble row-sourced conflict atoms into a certificate over m rows."""
    rows, pushed = atom_multipliers(atoms)
    if pushed or not all(0 <= i < m for i in rows):
        raise SimplexInternalError("conflict atom is not on a row of the system")
    return FarkasCertificate([rows.get(i, _ZERO) for i in range(m)])


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
    hvec = [Fraction(x) for x in h]
    if len(hvec) != sys.n:
        raise ValueError("objective length does not match variable count")
    if not any(hvec):
        raise ValueError("objective must be non-zero")
    return optimize_each(sys, [int_row(hvec)], sense)[0]


def optimize_each(sys: ConstraintSystem, goals: Sequence[tuple[list[int], int]],
                  sense: str) -> list[OptOutcome]:
    """Optimize each objective in turn over one tableau of the system.

    Each goal is a non-zero objective as ``linalg.int_row`` gives it,
    (ints, den); ``split`` hands over the rows of sys as ``sys.int_rows``
    holds them.  Every LP after the first re-optimizes from the basis the
    one before it left; each outcome is re-verified against sys.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    inst = instance_for(sys)
    return [_optimize_on(sys, inst, ints if sense == "max" else [-c for c in ints], den, sense)
            for ints, den in goals]


def _optimize_on(sys: ConstraintSystem, inst: SimplexInstance, ints, den, sense) -> OptOutcome:
    """Maximize (ints . x) / den on inst; the outcome is re-verified against sys."""
    res = inst._maximize({j: c for j, c in enumerate(ints) if c}, den)
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
    goal = ints if den == 1 else [Fraction(c, den) for c in ints]
    _verify_dual(sys, goal, maxvalue, dual)
    return Optimal(value, point, dual)


def _verify_dual(sys: ConstraintSystem, goal, maxvalue, dual) -> None:
    total = farkas_sum(zip(dual, sys.matrix.rows, sys.bounds), sys.n)
    if total is None or total[0] != goal or total[1] != maxvalue:
        raise SimplexInternalError("optimal dual failed re-verification")


def _normalize_ray(ray: list[Fraction]) -> list[Fraction]:
    scale = math.lcm(*(x.denominator for x in ray))
    ints = [int(x * scale) for x in ray]
    g = math.gcd(*(abs(v) for v in ints))
    if g == 0:
        raise SimplexInternalError("zero ray")
    return [Fraction(v, g) for v in ints]
