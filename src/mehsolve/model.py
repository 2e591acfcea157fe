"""Constraint systems, models, Farkas certificates and their verifiers.

The verifiers ``check_model`` and ``check_certificate`` share no code with
the simplex engine or the transformation pipeline; they are the trust
anchor every solver result is checked against before it is returned.
One kernel, ``farkas_sum``, sums every Farkas combination y (A | b) over
the ``(y, a, b)`` terms its caller names; a refutation leaf names only
the rows and cuts its multipliers touch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .linalg import Matrix, frac, int_form, int_row


_ZERO = Fraction(0)
# The number types the checks accept: a float would make their sums inexact.
EXACT = (int, Fraction)


class DimensionMismatchError(ValueError):
    pass


class VarKind(enum.Enum):
    RATIONAL = "Real"
    INTEGER = "Int"


@dataclass(frozen=True)
class VarInfo:
    name: str
    kind: VarKind


class ConstraintSystem:
    """A conjunction of non-strict inequalities A x <= b over typed variables.

    Variables are kept in internal column order: all rational variables
    first (``n1`` of them), integer variables after them.  ``user_perm[k]``
    is the internal column of the k-th variable in user declaration order,
    so output can be presented the way the input was written.  A system
    carries no row provenance: code that derives one system from another
    keeps the row indices it needs to map results back (see ``normalize``
    and ``split``).  A system's matrix is not changed after construction,
    so what is derived from it (``int_rows``, ``forms``) is computed once.
    """

    def __init__(
        self,
        matrix: Matrix,
        bounds: Sequence,
        variables: Sequence[VarInfo],
        user_perm: Optional[Sequence[int]] = None,
    ) -> None:
        self.matrix = matrix
        self.bounds = [b if type(b) is Fraction else frac(b) for b in bounds]
        self.variables = list(variables)
        if matrix.n != len(self.variables):
            raise DimensionMismatchError("column count does not match variable count")
        if matrix.m != len(self.bounds):
            raise DimensionMismatchError("row count does not match bound count")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        seen_integer = False
        n1 = 0
        for v in self.variables:
            if v.kind is VarKind.INTEGER:
                seen_integer = True
            elif seen_integer:
                raise ValueError("variables must be ordered rationals first, then integers")
            else:
                n1 += 1
        self.n1 = n1
        self.user_perm = tuple(user_perm) if user_perm is not None else tuple(range(matrix.n))
        if sorted(self.user_perm) != list(range(matrix.n)):
            raise ValueError("user_perm must be a permutation of the columns")

    @property
    def m(self) -> int:
        return self.matrix.m

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def n2(self) -> int:
        return self.n - self.n1

    def integer_columns(self) -> range:
        return range(self.n1, self.n)

    @cached_property
    def int_rows(self) -> list[tuple[list[int], int]]:
        """Each row as ``linalg.int_row`` gives it: integers over one denominator."""
        return [int_row(row) for row in self.matrix.rows]

    @cached_property
    def forms(self) -> list[tuple[Optional[tuple[int, ...]], int, int]]:
        """Each row as ``linalg.int_form`` gives it: (form, p, q), row = (p / q) * form.
        The simplex gives each form one variable; ``classify`` reads it too."""
        return [int_form(ints, den) for ints, den in self.int_rows]

    def subset(self, rows: Sequence[int]) -> "ConstraintSystem":
        """System of the given rows, in the given order, over the same variables.

        Built without the constructor's checks, which self has passed: the
        rows are copied as they are, and the variables, their order and
        ``user_perm`` are self's.  The integer rows and the forms come
        along when self has computed them.
        """
        sub = ConstraintSystem.__new__(ConstraintSystem)
        sub.matrix = Matrix.__new__(Matrix)
        sub.matrix.rows = [self.matrix.rows[i][:] for i in rows]
        sub.matrix.m, sub.matrix.n = len(rows), self.n
        sub.bounds = [self.bounds[i] for i in rows]
        sub.variables, sub.n1, sub.user_perm = self.variables, self.n1, self.user_perm
        for name in ("int_rows", "forms"):
            if name in self.__dict__:
                setattr(sub, name, [self.__dict__[name][i] for i in rows])
        return sub

    def __repr__(self) -> str:
        return f"ConstraintSystem({self.m} rows, {self.n1}+{self.n2} vars)"


@dataclass
class Model:
    """An assignment to all variables, in internal column order."""

    values: list[Fraction]


@dataclass
class FarkasCertificate:
    """Non-negative multipliers combining rows into a constant contradiction.

    ``y[k]`` multiplies row ``k`` of the system the certificate refers to.
    """

    y: list[Fraction]

    def multiplier_vector(self, m: int) -> list[Fraction]:
        """The multipliers as a fresh list, checked against m rows."""
        if len(self.y) != m:
            raise DimensionMismatchError(
                f"certificate has {len(self.y)} multipliers for {m} rows")
        return list(self.y)


@dataclass
class SolveStats:
    """What one solve did.  ``nodes`` and ``lp_pivots`` count the
    branch-and-bound search alone, not the LPs of classify and split;
    ``transform_seconds`` times ``batch_mehnf``, riding rows included."""

    nodes: int = 0
    lp_pivots: int = 0
    classification: Optional[str] = None
    transform_seconds: float = 0.0
    total_seconds: float = 0.0
    budget_reason: Optional[str] = None


@dataclass
class Sat:
    model: Model
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass
class Unsat:
    # Either a plain Farkas certificate for the original system or, when
    # integer reasoning was required, a branch refutation tree whose leaves
    # carry Farkas certificates (see mehsolve.solver.BranchRefutation).
    certificate: object
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass
class Budget:
    stats: SolveStats = field(default_factory=SolveStats)


SolveResult = Sat | Unsat | Budget


@dataclass
class TriviallyUnsat:
    certificate: FarkasCertificate


def normalize(sys: ConstraintSystem) -> tuple[ConstraintSystem, list[int]] | TriviallyUnsat:
    """Drop constant rows, detecting trivially unsatisfiable ones.

    A row 0 <= b_i with b_i >= 0 is a tautology and is removed.  A row
    0 <= b_i with b_i < 0 yields TriviallyUnsat with the unit certificate
    on that row.  Otherwise returns ``(system, kept)``, where ``kept[i]``
    is the index in sys of the system's row i; when no row is dropped the
    system is sys itself.
    """
    keep = []
    for i in range(sys.m):
        if any(sys.matrix.rows[i]):
            keep.append(i)
        elif sys.bounds[i] < 0:
            y = [Fraction(0)] * sys.m
            y[i] = Fraction(1)
            return TriviallyUnsat(FarkasCertificate(y))
    if len(keep) == sys.m:
        return sys, keep
    return sys.subset(keep), keep


def check_model(sys: ConstraintSystem, model: Model) -> bool:
    """Exact check: A s <= b componentwise and integer columns integral."""
    if len(model.values) != sys.n:
        raise DimensionMismatchError(
            f"model has {len(model.values)} values for {sys.n} variables")
    if not all(isinstance(v, EXACT) for v in model.values):
        return False
    for j in sys.integer_columns():
        if model.values[j].denominator != 1:
            return False
    lhs = sys.matrix.mul_vec(model.values)
    return all(v <= b for v, b in zip(lhs, sys.bounds))


def farkas_sum(terms: Iterable[tuple], n: int) -> Optional[tuple[list[Fraction], Fraction]]:
    """(sum of y a, sum of y b) over the (y, a, b) terms, each a of length n;
    None when some multiplier y is negative or not ``EXACT``."""
    combo = [_ZERO] * n
    rhs = _ZERO
    for mult, row, b in terms:
        if not isinstance(mult, EXACT) or mult < 0:
            return None
        if mult:
            rhs += mult * b
            for j, a in enumerate(row):
                if a:
                    combo[j] += mult * a
    return combo, rhs


def is_farkas(terms: Iterable[tuple], n: int) -> bool:
    """Whether the (y, a, b) terms have y >= 0, sum y a = 0 and sum y b < 0."""
    total = farkas_sum(terms, n)
    return total is not None and not any(total[0]) and total[1] < 0


def check_certificate(sys: ConstraintSystem, cert: FarkasCertificate) -> bool:
    """Exact check: y >= 0, y^T A = 0 and y^T b < 0."""
    y = cert.multiplier_vector(sys.m)
    return is_farkas(zip(y, sys.matrix.rows, sys.bounds), sys.n)


def format_model(sys: ConstraintSystem, model: Model) -> str:
    """One line per variable, ``name = value``, in declaration order."""
    lines = []
    for col in sys.user_perm:
        var = sys.variables[col]
        val = model.values[col]
        lines.append(f"{var.name} = {val}")
    return "\n".join(lines) + "\n"


def format_certificate(sys: ConstraintSystem, cert: FarkasCertificate) -> str:
    """One line ``row_index multiplier`` per row with a non-zero multiplier."""
    y = cert.multiplier_vector(sys.m)
    lines = []
    for i, mult in enumerate(y):
        if mult:
            lines.append(f"{i} {mult}")
    return "\n".join(lines) + "\n"
