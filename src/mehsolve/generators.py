"""Benchmark generators: slacking, type flipping, random unbounded systems.

All generators are pure functions of their inputs and a seed; the
pseudo-random source is Python's Mersenne Twister (``random.Random``),
whose sequence for a fixed seed is stable across platforms, so generated
corpora are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix
from .model import ConstraintSystem, Model, Sat, VarInfo, VarKind, check_model
from .solver import SolveOptions, solve
from .analysis import Verdict

_ZERO = Fraction(0)


class GenerationError(RuntimeError):
    """Random generation could not produce a verified instance."""


@dataclass(frozen=True)
class GenParams:
    """Parameters for ``gen_random_unbounded``; the seed is mandatory."""

    seed: int
    n_vars: int = 4
    n_bounded: int = 2
    n_unbounded: int = 1
    coeff_bound: int = 9

    def __post_init__(self):
        if self.n_vars < 2:
            raise ValueError("need at least two variables")
        if not 0 < self.n_bounded < self.n_vars:
            raise ValueError(
                "the bounded direction count must be positive and below the "
                "variable count (zero would make every instance absolutely unbounded)")
        if self.n_unbounded < 0 or self.coeff_bound < 1:
            raise ValueError("invalid row count or coefficient bound")


def gen_slack(sys: ConstraintSystem) -> ConstraintSystem:
    """Replace every variable x by x_pos - x_neg with x_pos, x_neg >= 0.

    Each column doubles with opposite signs and two non-negativity rows
    are appended per original variable; variable types are inherited.
    """
    variables = []
    for var in sys.variables:
        variables.append(VarInfo(f"{var.name}_pos", var.kind))
        variables.append(VarInfo(f"{var.name}_neg", var.kind))
    n2 = 2 * sys.n
    rows = []
    bounds = []
    for i in range(sys.m):
        row = []
        for c in sys.matrix.rows[i]:
            row.extend((c, -c))
        rows.append(row)
        bounds.append(sys.bounds[i])
    for j in range(n2):
        row = [_ZERO] * n2
        row[j] = Fraction(-1)
        rows.append(row)
        bounds.append(_ZERO)
    return ConstraintSystem(Matrix(rows), bounds, variables)


def slack_model(sys: ConstraintSystem, model: Model) -> Model:
    """Lift a model of sys to its slacked counterpart (for tests)."""
    values = []
    for v in model.values:
        values.extend((max(v, _ZERO), max(-v, _ZERO)))
    return Model(values)


def gen_flip(sys: ConstraintSystem, p: Fraction, seed: int) -> ConstraintSystem:
    """Independently retype each integer variable rational with probability p.

    Columns are reordered to keep the rationals-first layout; the original
    declaration order survives through the user permutation.
    """
    if not 0 <= p <= 1:
        raise ValueError("flip probability must lie in [0, 1]")
    rng = random.Random(seed)
    threshold = float(p)
    new_kinds = []
    for var in sys.variables:
        if var.kind is VarKind.INTEGER and rng.random() < threshold:
            new_kinds.append(VarKind.RATIONAL)
        else:
            new_kinds.append(var.kind)
    order = [j for j in range(sys.n) if new_kinds[j] is VarKind.RATIONAL] + \
            [j for j in range(sys.n) if new_kinds[j] is VarKind.INTEGER]
    pos = {old: new for new, old in enumerate(order)}
    variables = [VarInfo(sys.variables[j].name, new_kinds[j]) for j in order]
    rows = [[row[j] for j in order] for row in sys.matrix.rows]
    user_perm = [pos[sys.user_perm[k]] for k in range(sys.n)]
    matrix = Matrix(rows) if rows else Matrix.zeros(0, sys.n)
    return ConstraintSystem(matrix, list(sys.bounds), variables, user_perm)


def gen_random_unbounded(params: GenParams) -> ConstraintSystem:
    """A random, verified partially-unbounded satisfiable integer system.

    Construction: pick an integer anchor point, emit two-sided bounds on
    n_bounded random integer directions around it (the bounded block), and
    add n_unbounded one-sided rows whose normals lie outside the span of
    the bounded directions.  Every candidate is checked to classify as
    partially unbounded and to solve satisfiable before it is returned.
    """
    rng = random.Random(params.seed)
    for _ in range(100):
        sys = _random_candidate(rng, params)
        if sys is None:
            continue
        res = solve(sys, SolveOptions(time_budget=30.0))
        if (isinstance(res, Sat)
                and res.stats.classification == Verdict.PARTIALLY_UNBOUNDED.value):
            return sys
    raise GenerationError("exhausted 100 attempts without a verified instance")


def _random_candidate(rng: random.Random, params: GenParams):
    n = params.n_vars
    cb = params.coeff_bound
    anchor = [rng.randint(-cb, cb) for _ in range(n)]

    def random_direction():
        for _ in range(50):
            d = [rng.randint(-3, 3) for _ in range(n)]
            if any(d):
                return d
        return None

    directions = []
    for _ in range(params.n_bounded):
        d = random_direction()
        if d is None:
            return None
        directions.append(d)
    if not any(any(d) for d in directions):
        return None

    rows = []
    bounds = []
    for d in directions:
        g = sum(a * b for a, b in zip(d, anchor))
        rows.append([Fraction(c) for c in d])
        bounds.append(Fraction(g + rng.randint(0, 3)))
        rows.append([Fraction(-c) for c in d])
        bounds.append(Fraction(-(g - rng.randint(0, 3))))

    span = Matrix([[Fraction(c) for c in d] for d in directions])
    base_rank = span.rank()
    for _ in range(params.n_unbounded):
        for _ in range(50):
            g = random_direction()
            if g is None:
                return None
            extended = Matrix(span.rows + [[Fraction(c) for c in g]])
            if extended.rank() > base_rank:
                break
        else:
            return None
        val = sum(a * b for a, b in zip(g, anchor))
        rows.append([Fraction(c) for c in g])
        bounds.append(Fraction(val + rng.randint(1, 5)))

    variables = [VarInfo(f"x{j}", VarKind.INTEGER) for j in range(n)]
    sys = ConstraintSystem(Matrix(rows), bounds, variables)
    if not check_model(sys, Model([Fraction(a) for a in anchor])):
        return None
    return sys
