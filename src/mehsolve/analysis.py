"""Boundedness classification and the split into bounded/unbounded parts.

A direction h is bounded in a feasible system A x <= b exactly when
h . r = 0 for every r of the recession cone A x <= 0.  The bounded rows
are thus the implicit equalities of the cone, and the bounded variables
those whose unit vector lies in the span of these rows (Schrijver, *Theory
of Linear and Integer Programming*, 1986, section 8.2; Bromberger and
Weidenbach, "New techniques for linear arithmetic: cubes and equalities",
FMSD 2017).  Splitting moves the bounded rows into a double-bounded part,
computing an explicit lower bound for each row of that part together with
the dual multipliers that derive it (needed later to convert certificates
that lean on the implied lower bounds).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Matrix, column_reduce
from .model import ConstraintSystem, VarInfo, VarKind
from .simplex import (
    Infeasible, Optimal, UnboundedDirection, check_feasible, optimize, optimize_each)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InfeasibleSystemError(ValueError):
    """Raised when a boundedness query is made about an infeasible system."""

    def __init__(self, certificate):
        super().__init__("boundedness is undefined for an infeasible system")
        self.certificate = certificate


class Verdict(enum.Enum):
    BOUNDED = "bounded"
    ABSOLUTELY_UNBOUNDED = "absolutely-unbounded"
    PARTIALLY_UNBOUNDED = "partially-unbounded"


@dataclass(frozen=True)
class Classification:
    """The verdict with the bounded rows and variables.

    ``equalities`` lists, for a BOUNDED system only, one row of each
    explicit equality: a row whose exact opposite, bound included, is a
    later row (the parser writes ``=`` as such a pair).
    """

    verdict: Verdict
    bounded_rows: frozenset[int]
    bounded_vars: frozenset[int]
    equalities: tuple[int, ...] = ()


@dataclass
class SplitSystem:
    """Partition of a system into an unbounded part and a double-bounded part.

    ``lower[i]`` is the optimal value of minimizing row i of the bounded
    part over that part alone, and ``lower_duals[i]`` the non-negative
    multipliers over the bounded part's rows deriving
    -d_i . x <= -lower[i].  ``bounded_origin``/``unbounded_origin`` map the
    parts' rows back to rows of the original system.
    """

    unbounded: ConstraintSystem
    bounded: ConstraintSystem
    lower: list[Fraction]
    lower_duals: list[list[Fraction]]
    bounded_origin: tuple[int, ...]
    unbounded_origin: tuple[int, ...]


def _recession_cone(sys: ConstraintSystem) -> ConstraintSystem:
    return ConstraintSystem(sys.matrix, [Fraction(0)] * sys.m, sys.variables, sys.user_perm)


def _direction_bounded_in_cone(cone: ConstraintSystem, h: Sequence[Fraction]) -> bool:
    for sense in ("max", "min"):
        res = optimize(cone, h, sense)
        if isinstance(res, UnboundedDirection):
            return False
        if not (isinstance(res, Optimal) and res.value == 0):
            raise AssertionError(
                "recession cone probe is neither unbounded nor zero; simplex bug")
    return True


def is_direction_bounded(sys: ConstraintSystem, h: Sequence[Fraction]) -> bool:
    """Whether both h . x and -h . x are bounded over the system.

    The system must be rationally feasible; otherwise boundedness is
    vacuous and InfeasibleSystemError is raised.
    """
    if not any(h):
        raise ValueError("the zero vector is not a direction")
    feas = check_feasible(sys)
    if isinstance(feas, Infeasible):
        raise InfeasibleSystemError(feas.certificate)
    return _direction_bounded_in_cone(_recession_cone(sys), h)


def classify(sys: ConstraintSystem) -> Classification:
    """Determine which rows and variables are bounded, and the verdict.

    A system in which a single-variable row bounds every variable from
    above and another one from below is boxed: its recession cone is {0},
    so every row and every variable is bounded, and no LP beyond the
    feasibility check is needed.  Otherwise one LP finds the implicit
    equalities of the cone A x <= 0: maximize sum t_i subject to
    a_i . x + t_i <= 0 and 0 <= t_i <= 1.  At every optimum t_i is 0 on
    them and 1 on every other row (a relative interior point of the cone,
    scaled up, is strict on all others at once).  A variable is bounded
    exactly when its coordinate vanishes on the null space of those rows,
    which one ``column_reduce`` yields.  The LP probe
    ``is_direction_bounded`` decides one direction at a time instead.  A
    BOUNDED verdict also reports the explicit equalities, which ``solve``
    sends through the MEHNF.
    """
    feas = check_feasible(sys)
    if isinstance(feas, Infeasible):
        raise InfeasibleSystemError(feas.certificate)
    if sys.n and _is_boxed(sys):
        bounded_rows, bounded_vars = range(sys.m), frozenset(range(sys.n))
    else:
        bounded_rows = _implicit_equalities(sys) if sys.m else []
        _, v, pivot_rows = column_reduce(sys.subset(bounded_rows).matrix)
        bounded_vars = frozenset(
            j for j in range(sys.n) if not any(v.rows[j][len(pivot_rows):]))
    if len(bounded_vars) == sys.n and sys.n > 0:
        return Classification(Verdict.BOUNDED, frozenset(bounded_rows), bounded_vars,
                              _equality_rows(sys))
    verdict = Verdict.PARTIALLY_UNBOUNDED if bounded_rows else Verdict.ABSOLUTELY_UNBOUNDED
    return Classification(verdict, frozenset(bounded_rows), bounded_vars)


def _is_boxed(sys: ConstraintSystem) -> bool:
    """Whether single-variable rows bound every variable from both sides."""
    above, below = set(), set()
    for row in sys.matrix.rows:
        support = [j for j, a in enumerate(row) if a]
        if len(support) == 1:
            j = support[0]
            (above if row[j] > 0 else below).add(j)
    return len(above) == len(below) == sys.n


def _equality_rows(sys: ConstraintSystem) -> tuple[int, ...]:
    """Each row i that some later row k pairs with: a_k = -a_i, b_k = -b_i.

    A row takes part in at most one pair.
    """
    # Keyed by the bound's integer terms: hashing a Fraction is slower.
    keys = [(b.numerator, b.denominator) for b in sys.bounds]
    by_bound: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        by_bound.setdefault(key, []).append(i)
    rows = sys.matrix.rows
    paired: set[int] = set()
    out = []
    for i, (p, q) in enumerate(keys):
        if i in paired:
            continue
        for k in by_bound.get((-p, q), ()):
            if k > i and k not in paired and all(x == -y for x, y in zip(rows[k], rows[i])):
                paired.add(k)
                out.append(i)
                break
    return tuple(out)


def _implicit_equalities(sys: ConstraintSystem) -> list[int]:
    """The rows i with t_i = 0 at an optimum of the cone LP (see classify)."""
    m, n = sys.m, sys.n
    rows, bounds = [], []
    for i, a in enumerate(sys.matrix.rows):
        t = [_ZERO] * m
        t[i] = _ONE
        rows += [list(a) + t, [_ZERO] * n + [-c for c in t], [_ZERO] * n + t]
        bounds += [_ZERO, _ZERO, _ONE]
    names = [f"x{j}" for j in range(n)] + [f"t{i}" for i in range(m)]
    lp = ConstraintSystem(Matrix(rows), bounds, [VarInfo(v, VarKind.RATIONAL) for v in names])
    res = optimize(lp, [_ZERO] * n + [_ONE] * m, "max")
    if not isinstance(res, Optimal):
        raise AssertionError("recession cone LP is not optimal; simplex bug")
    t = res.point[n:]
    if any(ti not in (_ZERO, _ONE) for ti in t) or res.value != sum(t):
        raise AssertionError("recession cone LP optimum is not 0/1 in t; simplex bug")
    return [i for i, ti in enumerate(t) if not ti]


def split(sys: ConstraintSystem, cls: Classification) -> SplitSystem:
    """Partition sys according to cls and bound the bounded part from below.

    The lower bound of each bounded row is the optimum of minimizing that
    row over the bounded part alone; self-containment guarantees the LP is
    never unbounded.  The m_2 LPs share one tableau, each re-optimizing
    from the basis the one before it left.  The minimizing dual
    multipliers are recorded.
    """
    bounded_idx = sorted(cls.bounded_rows)
    unbounded_idx = [i for i in range(sys.m) if i not in cls.bounded_rows]
    bounded = sys.subset(bounded_idx)
    unbounded = sys.subset(unbounded_idx)
    results = optimize_each(bounded, bounded.matrix.rows, "min")
    if not all(isinstance(res, Optimal) for res in results):
        raise AssertionError(
            "bounded part is not self-contained; upstream classification bug")
    return SplitSystem(
        unbounded, bounded, [res.value for res in results], [res.dual for res in results],
        tuple(bounded_idx), tuple(unbounded_idx),
    )
