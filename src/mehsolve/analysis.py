"""Boundedness classification and the split into bounded/unbounded parts.

A direction h is bounded in a feasible system A x <= b exactly when both
LP probes over the recession cone A x <= 0 (maximize and minimize h . x)
come back with optimum zero.  Classifying a system probes every row and
every variable this way; splitting moves the bounded rows into a
double-bounded part, computing an explicit lower bound for each row of
that part together with the dual multipliers that derive it (needed later
to convert certificates that lean on the implied lower bounds).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import ConstraintSystem
from .simplex import Infeasible, Optimal, UnboundedDirection, check_feasible, optimize


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
    verdict: Verdict
    bounded_rows: frozenset[int]
    bounded_vars: frozenset[int]


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

    Row probes run against the full recession cone.  Variable probes run
    against the cone of the bounded part only, which is equivalent because
    the bounded part of a system is self-contained, and keeps the LPs
    small.
    """
    feas = check_feasible(sys)
    if isinstance(feas, Infeasible):
        raise InfeasibleSystemError(feas.certificate)
    cone = _recession_cone(sys)
    bounded_rows = frozenset(
        i for i in range(sys.m)
        if _direction_bounded_in_cone(cone, sys.matrix.rows[i])
    )
    if bounded_rows:
        part = sys.subset(sorted(bounded_rows))
        part_cone = _recession_cone(part)
        bounded_vars = frozenset(
            j for j in range(sys.n)
            if _direction_bounded_in_cone(part_cone, _unit(sys.n, j))
        )
    else:
        bounded_vars = frozenset()
    if len(bounded_vars) == sys.n and sys.n > 0:
        verdict = Verdict.BOUNDED
    elif not bounded_rows:
        verdict = Verdict.ABSOLUTELY_UNBOUNDED
    else:
        verdict = Verdict.PARTIALLY_UNBOUNDED
    return Classification(verdict, bounded_rows, bounded_vars)


def _unit(n: int, j: int) -> list[Fraction]:
    e = [Fraction(0)] * n
    e[j] = Fraction(1)
    return e


def split(sys: ConstraintSystem, cls: Classification) -> SplitSystem:
    """Partition sys according to cls and bound the bounded part from below.

    The lower bound of each bounded row is the optimum of minimizing that
    row over the bounded part alone; self-containment guarantees the LP is
    never unbounded.  The minimizing dual multipliers are recorded.
    """
    bounded_idx = sorted(cls.bounded_rows)
    unbounded_idx = [i for i in range(sys.m) if i not in cls.bounded_rows]
    bounded = sys.subset(bounded_idx)
    unbounded = sys.subset(unbounded_idx)
    lower: list[Fraction] = []
    duals: list[list[Fraction]] = []
    for i in range(bounded.m):
        res = optimize(bounded, bounded.matrix.rows[i], "min")
        if not isinstance(res, Optimal):
            raise AssertionError(
                "bounded part is not self-contained; upstream classification bug")
        lower.append(res.value)
        duals.append(res.dual)
    return SplitSystem(
        unbounded, bounded, lower, duals,
        tuple(bounded_idx), tuple(unbounded_idx),
    )
