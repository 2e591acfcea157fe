"""Boundedness classification and the split into bounded/unbounded parts.

A direction h is bounded in a feasible system A x <= b exactly when
h . r = 0 for every r of the recession cone A x <= 0.  The bounded rows
are thus the implicit equalities of the cone, and the bounded variables
those whose unit vector lies in the span of these rows (Schrijver, *Theory
of Linear and Integer Programming*, 1986, section 8.2).  ``classify``
finds the equalities on the tableau that decided feasibility: it bounds
the rows not yet known to be equalities by a_i . x <= -1, and each
conflict's Farkas multipliers name new equalities until a point is strict
on all other rows (the equality detection of Bromberger and Weidenbach,
"New techniques for linear arithmetic: cubes and equalities", FMSD 2017,
on the bound-separated simplex of Dutertre and de Moura, CAV 2006).
Splitting moves the bounded rows into a double-bounded part,
computing an explicit lower bound for each row of that part together with
the dual multipliers that derive it (needed later to convert certificates
that lean on the implied lower bounds).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import simplex
from .linalg import column_reduce, int_row
from .model import ConstraintSystem, is_farkas
from .simplex import (
    Infeasible, Optimal, SimplexInstance, SimplexInternalError, UnboundedDirection,
    _certified, atoms_to_certificate, check_feasible, optimize, optimize_each)


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
    later row of the same form (``ConstraintSystem.forms``) with the
    opposite scale (the parser writes ``=`` as such a pair).
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
    cone = ConstraintSystem(sys.matrix, [0] * sys.m, sys.variables, sys.user_perm)
    for sense in ("max", "min"):
        res = optimize(cone, h, sense)
        if isinstance(res, UnboundedDirection):
            return False
        if not (isinstance(res, Optimal) and res.value == 0):
            raise SimplexInternalError(
                "recession cone probe is neither unbounded nor zero; simplex bug")
    return True


def classify(sys: ConstraintSystem) -> Classification:
    """Determine which rows and variables are bounded, and the verdict.

    One tableau of sys serves the whole classification.  Its first check
    decides rational feasibility.  A system in which every column's unit
    form has rows of both signs is boxed: its recession cone is {0}, so
    every row and every variable is bounded, and nothing more is checked.
    Otherwise the same tableau, from the basis the feasibility check left,
    finds the implicit equalities of the cone A x <= 0 (see
    ``_cone_equalities``).  A variable is bounded exactly when its
    coordinate vanishes on the null space of those rows, which one
    ``column_reduce`` yields.  The LP probe ``is_direction_bounded``
    decides one direction at a time instead.  A BOUNDED verdict also
    reports the explicit equalities, which ``solve`` sends through the
    MEHNF.  The box test and the equalities read ``sys.forms``.
    """
    # Through the module attribute, so that wrappers of it see this tableau.
    inst = simplex.instance_for(sys)
    conflict = inst.check()
    if conflict is not None:
        raise InfeasibleSystemError(_certified(sys, conflict).certificate)
    if sys.n and _is_boxed(sys):
        bounded_rows, bounded_vars = range(sys.m), frozenset(range(sys.n))
    else:
        bounded_rows = _cone_equalities(sys, inst)
        _, v, pivot_rows = column_reduce(sys.subset(bounded_rows).matrix)
        bounded_vars = frozenset(
            j for j in range(sys.n) if not any(v.rows[j][len(pivot_rows):]))
    if len(bounded_vars) == sys.n and sys.n > 0:
        return Classification(Verdict.BOUNDED, frozenset(bounded_rows), bounded_vars,
                              _equality_rows(sys))
    verdict = Verdict.PARTIALLY_UNBOUNDED if bounded_rows else Verdict.ABSOLUTELY_UNBOUNDED
    return Classification(verdict, frozenset(bounded_rows), bounded_vars)


def _form_signs(sys: ConstraintSystem) -> dict:
    """For each form of sys, 1 | 2 over its rows: 1 for p > 0, 2 for p < 0."""
    signs: dict = {}
    for form, p, _ in sys.forms:
        signs[form] = signs.get(form, 0) | (1 if p > 0 else 2)
    return signs


def _is_boxed(sys: ConstraintSystem) -> bool:
    """Whether every column's unit form has rows of both signs."""
    signs = _form_signs(sys)
    return all(signs.get(tuple([int(k == j) for k in range(sys.n)])) == 3
               for j in range(sys.n))


def _equality_rows(sys: ConstraintSystem) -> tuple[int, ...]:
    """Each row i that a later row k pairs with: a_k = -a_i, b_k = -b_i,
    that is the same form with p_k = -p_i and q_k = q_i.  Each row k pairs
    with the first earlier row left open, so a row is in at most one pair."""
    # Keyed by the bound's integer terms: hashing a Fraction is slower.
    open_rows: dict[tuple, list[int]] = {}
    out = []
    for k, ((form, p, q), b) in enumerate(zip(sys.forms, sys.bounds)):
        partners = open_rows.get((form, -p, q, -b.numerator, b.denominator))
        if partners:
            out.append(partners.pop(0))
        else:
            open_rows.setdefault((form, p, q, b.numerator, b.denominator), []).append(k)
    return tuple(sorted(out))


def _cone_equalities(sys: ConstraintSystem, inst: SimplexInstance) -> list[int]:
    """The implicit equalities of the cone A x <= 0, on sys's tableau inst.

    Rows known to be equalities are bounded by a_i . x <= 0, all others by
    a_i . x <= -1.  A conflict's multipliers y >= 0 have y A = 0, so every
    row they touch is an equality of the cone: it joins the known ones and
    the tableau is checked again from its current basis.  A feasible point
    is strict on every row not known, so none of them is an equality.  The
    known rows start as the zero rows and the rows of each form that has
    rows of both signs.  Both outcomes are checked against sys, in every
    build mode.
    """
    known = _opposite_normals(sys)
    while True:
        cone = [0 if i in known else -1 for i in range(sys.m)]
        inst.set_row_bounds(cone)
        conflict = inst.check()
        if conflict is None:
            break
        cert = atoms_to_certificate(conflict, sys.m)
        # y b < 0 for these bounds: y >= 0, y A = 0, and some new row in y.
        if not is_farkas(zip(cert.y, sys.matrix.rows, cone), sys.n):
            raise SimplexInternalError("recession cone conflict is not a certificate; simplex bug")
        known.update(i for i, y in enumerate(cert.y) if y)
    # Row i at the point is (ints . point) / (den * scale).
    point, scale = int_row(inst.assignment())
    if any(sum(map(operator.mul, ints, point)) > b * den * scale
           for (ints, den), b in zip(sys.int_rows, cone)):
        raise SimplexInternalError("recession cone point violates a row; simplex bug")
    return sorted(known)


def _opposite_normals(sys: ConstraintSystem) -> set[int]:
    """The zero rows and the rows of each form that has rows of both signs."""
    signs = _form_signs(sys)
    return {i for i, (form, _, _) in enumerate(sys.forms) if form is None or signs[form] == 3}


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
    results = optimize_each(bounded, bounded.int_rows, "min")
    if not all(isinstance(res, Optimal) for res in results):
        raise SimplexInternalError(
            "bounded part is not self-contained; upstream classification bug")
    return SplitSystem(
        unbounded, bounded, [res.value for res in results], [res.dual for res in results],
        tuple(bounded_idx), tuple(unbounded_idx),
    )
