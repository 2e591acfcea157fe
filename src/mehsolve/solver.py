"""Branch-and-bound pipeline over the boundedness-driven transformations.

``solve`` normalizes, classifies (which first checks rational
feasibility), and then dispatches: bounded systems without explicit
equalities go to branch-and-bound, absolutely unbounded systems to the
unit cube test, and the rest through one Mixed-Echelon-Hermite route,
which searches in y = V^-1 x and maps results back (``mixed_extension``
for models, x = V y; ``convert_certificate`` for refutations, via V^-1).
A bounded system transforms its equality rows, with the whole system
riding along the column steps as A V; a partially unbounded one the
double-bounded part of its split, with the unbounded part riding as U V.

Unsatisfiability of a mixed system that is rationally feasible cannot be
witnessed by a single Farkas certificate; branch-and-bound therefore
returns a *branch refutation*: a binary tree of integer-valid cuts whose
leaves carry Farkas certificates over the system plus the cuts on the
path.  ``check_refutation`` verifies such trees independently, in one
walk: each leaf's certificate is summed by ``model.farkas_sum`` over the
rows and path cuts its multipliers name, so the check is linear in the
tree, and no system is rebuilt for a leaf.

Only ``solve`` checks witnesses.  Its ``_finalize`` is the one trust
boundary: every Sat result is checked with ``check_model`` and every Unsat
result with ``check_certificate``/``check_refutation``, once, against the
input system, in all build modes; a witness that fails raises
``InternalSoundnessError``.  The phases below it (``branch_and_bound``,
``unit_cube_test``, ``mixed_extension`` and ``convert_certificate``) hand
back unchecked witnesses.  Certificates and refutations move from one
system to another through ``_pull_back``, which needs only how each
source row is combined from target rows.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import InfeasibleSystemError, Verdict, classify, split
from .linalg import Matrix, TransformMatrix, is_lower_triangular_with_gaps, piv
from .mehnf import batch_mehnf
from .model import (
    EXACT,
    Budget,
    ConstraintSystem,
    FarkasCertificate,
    Model,
    Sat,
    SolveResult,
    SolveStats,
    TriviallyUnsat,
    Unsat,
    VarInfo,
    VarKind,
    check_certificate,
    check_model,
    is_farkas,
    normalize,
)
from .simplex import Infeasible, atom_multipliers, check_feasible, instance_for

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)
# Branch-and-bound depth at which a dive is given up as divergent; it bounds
# the work stack when branch_limit is far larger.
DEPTH_LIMIT = 10**5


class InternalSoundnessError(RuntimeError):
    """A result failed the final re-verification; indicates a solver bug."""


class StructureViolationError(ValueError):
    pass


@dataclass
class SolveOptions:
    transforms_enabled: bool = True
    branch_limit: int = 10**6
    time_budget: float = 60.0

    def __post_init__(self):
        # Written as not (x > 0) so that NaN is rejected too.
        if not (self.branch_limit > 0 and self.time_budget > 0):
            raise ValueError("limits must be positive")


@dataclass
class VarBounds:
    """Optional per-column rational bounds, keyed by internal column."""

    lower: dict[int, Fraction] = field(default_factory=dict)
    upper: dict[int, Fraction] = field(default_factory=dict)

    def box_size(self) -> Optional[int]:
        """Number of integer grid points of the box, None when infinite."""
        size = 1
        for j in set(self.lower) | set(self.upper):
            if j not in self.lower or j not in self.upper:
                return None
            width = math.floor(self.upper[j]) - math.ceil(self.lower[j]) + 1
            size *= max(width, 0)
        return size


# -- branch refutations ----------------------------------------------------


@dataclass(frozen=True)
class Cut:
    """An integer-valid split: coeffs . x <= value or coeffs . x >= value+1.

    The coefficient vector must vanish on rational columns and be integral
    on integer columns, so its value is an integer at every mixed point.
    """

    coeffs: tuple[Fraction, ...]
    value: int


@dataclass
class RefutationLeaf:
    """Farkas multipliers over the system's rows and the cuts on the path."""

    row_mults: dict[int, Fraction]
    cut_mults: dict[int, Fraction]  # path depth -> multiplier on the active side


@dataclass
class RefutationNode:
    cut: Cut
    low: "RefutationNode | RefutationLeaf"
    high: "RefutationNode | RefutationLeaf"


BranchRefutation = RefutationNode


def _valid_cut(sys: ConstraintSystem, cut: Cut) -> bool:
    """Whether coeffs are zero on rational columns, integers on integer
    ones and not all zero, and the value is an integer (all exact)."""
    coeffs, value = cut.coeffs, cut.value
    if len(coeffs) != sys.n or not all(isinstance(x, EXACT) for x in (*coeffs, value)):
        return False
    return (value.denominator == 1 and any(coeffs) and not any(coeffs[:sys.n1])
            and all(c.denominator == 1 for c in coeffs[sys.n1:]))


def check_refutation(sys: ConstraintSystem, refutation) -> bool:
    """Verify a branch refutation tree against the system.

    Each inner node must carry an integer-valid cut and each leaf a Farkas
    certificate of the system extended by the active sides of the cuts on
    its path.  A valid tree proves the system has no mixed solution.  One
    walk keeps the active cut sides of its path, and a leaf is summed over
    the rows and path cuts it names only.  A node object met twice (shared
    or on a cycle) rejects the tree, so the walk always ends.
    """
    path: list[tuple[list[Fraction], Fraction]] = []
    work = [(refutation, 0, None)]   # (node, depth, active side of its parent's cut)
    seen: set[int] = set()
    while work:
        node, depth, side = work.pop()
        if id(node) in seen:
            return False
        seen.add(id(node))
        del path[depth:]
        if side is not None:
            path.append(side)
        if isinstance(node, RefutationLeaf):
            if not _check_leaf(sys, node, path):
                return False
            continue
        cut = node.cut
        if not _valid_cut(sys, cut):
            return False
        low = (cut.coeffs, Fraction(cut.value))
        high = ([-c for c in cut.coeffs], Fraction(-(cut.value + 1)))
        work.append((node.high, len(path), high))
        work.append((node.low, len(path), low))
    return True


def _check_leaf(sys: ConstraintSystem, leaf: RefutationLeaf,
                path: list[tuple]) -> bool:
    """Whether the leaf's multipliers refute the rows and path cuts they name."""
    if any(d not in range(len(path)) for d in leaf.cut_mults):
        return False
    if any(not 0 <= i < sys.m for i in leaf.row_mults):
        return False
    rows, bounds = sys.matrix.rows, sys.bounds
    terms = [(y, rows[i], bounds[i]) for i, y in leaf.row_mults.items()]
    terms += [(y, *path[d]) for d, y in leaf.cut_mults.items()]
    return is_farkas(terms, sys.n)


def _map_tree(root, leaf_fn, cut_fn):
    """Rebuild a refutation tree bottom-up without recursion."""
    if isinstance(root, RefutationLeaf):
        return leaf_fn(root)
    done: list = []
    work = [(root, False)]
    while work:
        node, expanded = work.pop()
        if isinstance(node, RefutationLeaf):
            done.append(leaf_fn(node))
        elif not expanded:
            work.append((node, True))
            work.append((node.high, False))
            work.append((node.low, False))
        else:
            high = done.pop()
            low = done.pop()
            done.append(RefutationNode(cut_fn(node.cut), low, high))
    return done[0]


# -- bound propagation -------------------------------------------------------


def propagate_bounds(h: Matrix, lower: Sequence, upper: Sequence) -> VarBounds:
    """Finite bounds for every non-gap column of a double-bounded system.

    Requires h lower triangular with gaps.  Pivot rows are processed in
    pivot order; in each one the pivot variable is isolated and bounded by
    interval arithmetic over the already-bounded earlier columns.  Gap
    columns receive no bounds.

    This is the termination lemma for the transformed system, not a
    pipeline phase: ``solve`` never passes the box on, because the rows of
    the double-bounded MEHNF system already imply it, so branch-and-bound
    stays inside it.  The tests check that it is finite on every non-gap
    column.
    """
    if not is_lower_triangular_with_gaps(h):
        raise StructureViolationError("matrix is not lower triangular with gaps")
    if len(lower) != h.m or len(upper) != h.m:
        raise StructureViolationError("bound vectors do not match the row count")
    lower = [Fraction(x) for x in lower]
    upper = [Fraction(x) for x in upper]
    out = VarBounds()
    columns = sorted(
        (j for j in range(1, h.n + 1) if piv(h, j) <= h.m),
        key=lambda j: piv(h, j),
    )
    for j1 in columns:
        j = j1 - 1
        p = piv(h, j1) - 1
        row = h.rows[p]
        lo_sum = hi_sum = _ZERO
        for k, c in enumerate(row):
            if k == j or not c:
                continue
            if c > 0:
                lo_sum += c * out.lower[k]
                hi_sum += c * out.upper[k]
            else:
                lo_sum += c * out.upper[k]
                hi_sum += c * out.lower[k]
        cj = row[j]
        if cj > 0:
            out.lower[j] = (lower[p] - hi_sum) / cj
            out.upper[j] = (upper[p] - lo_sum) / cj
        else:
            out.lower[j] = (upper[p] - lo_sum) / cj
            out.upper[j] = (lower[p] - hi_sum) / cj
    return out


# -- branch and bound ---------------------------------------------------------


def _pick_branch_var(sys: ConstraintSystem, beta) -> Optional[int]:
    """The most fractional integer column of beta, or None if all are integral."""
    best = None
    best_score = None
    for j in sys.integer_columns():
        if beta[j].denominator == 1:
            continue
        f = beta[j] - math.floor(beta[j])
        score = min(f, 1 - f)
        if best_score is None or score > best_score:
            best, best_score = j, score
    return best


def branch_and_bound(
    sys: ConstraintSystem,
    options: Optional[SolveOptions] = None,
    stats: Optional[SolveStats] = None,
    deadline: Optional[float] = None,
) -> SolveResult:
    """Depth-first branch-and-bound over the rows of sys.

    Returns Sat with a mixed model, Unsat with a plain Farkas certificate
    (when the root LP is already infeasible) or a branch refutation over
    sys, or Budget when a limit from ``options`` or ``DEPTH_LIMIT`` was
    hit.  The witness is returned unchecked.  Terminates on every input
    only when sys is bounded; ``solve`` ensures that.
    """
    opts = options or SolveOptions()
    stats = stats if stats is not None else SolveStats()
    if deadline is None:
        deadline = time.monotonic() + opts.time_budget
    inst = instance_for(sys)
    work = [("explore", None)]
    results: list = []
    path: list[tuple[int, int]] = []
    try:
        while work:
            action, payload = work.pop()
            if action == "push":
                inst.push_bound(*payload)
                continue
            if action == "pop":
                inst.pop_bound()
                continue
            if action == "combine":
                high = results.pop()
                low = results.pop()
                var, f = path.pop()
                coeffs = [_ZERO] * sys.n
                coeffs[var] = _ONE
                results.append(RefutationNode(Cut(tuple(coeffs), f), low, high))
                continue
            # explore
            stats.nodes += 1
            if stats.nodes > opts.branch_limit:
                stats.budget_reason = "branch-limit"
                return Budget(stats)
            if len(path) > DEPTH_LIMIT:
                stats.budget_reason = "depth-limit"
                return Budget(stats)
            if time.monotonic() > deadline:
                stats.budget_reason = "time-budget"
                return Budget(stats)
            conflict = inst.check()
            if conflict is not None:
                results.append(RefutationLeaf(*atom_multipliers(conflict)))
                continue
            beta = inst.assignment()
            var = _pick_branch_var(sys, beta)
            if var is None:
                return Sat(Model(list(beta)), stats)
            f = math.floor(beta[var])
            d = len(path)
            path.append((var, f))
            work.append(("combine", None))
            work.append(("pop", None))
            work.append(("explore", None))
            work.append(("push", (var, "lo", Fraction(f + 1), "branch", d)))
            work.append(("pop", None))
            work.append(("explore", None))
            work.append(("push", (var, "up", Fraction(f), "branch", d)))
    finally:
        stats.lp_pivots += inst.pivots
    if len(results) != 1:
        raise InternalSoundnessError("branch tree bookkeeping failed")
    refutation = results[0]
    if isinstance(refutation, RefutationLeaf):
        refutation = _farkas(refutation, sys.m)
    return Unsat(refutation, stats)


# -- unit cube test -----------------------------------------------------------


def unit_cube_test(sys: ConstraintSystem) -> Optional[Model]:
    """Mixed solution via the half-open unit cube, or None.

    Tightens every bound by half the 1-norm of the row's integer-column
    coefficients, solves the widened rational system, and rounds the
    integer coordinates of the center to the nearest integer (ties toward
    minus infinity).  Rounding moves each row by at most the amount its
    bound was tightened by, so the model satisfies sys and is returned
    unchecked.  Systems in which every direction is unbounded always
    succeed.
    """
    widened_bounds = []
    for i in range(sys.m):
        slack = sum(
            (abs(sys.matrix.rows[i][j]) for j in sys.integer_columns()), _ZERO)
        widened_bounds.append(sys.bounds[i] - slack * _HALF)
    widened = ConstraintSystem(sys.matrix, widened_bounds, sys.variables, sys.user_perm)
    res = check_feasible(widened)
    if isinstance(res, Infeasible):
        return None
    values = list(res.point)
    for j in sys.integer_columns():
        values[j] = Fraction(math.ceil(values[j] - _HALF))
    return Model(values)


# -- mixed extension -----------------------------------------------------------


def mixed_extension(v: TransformMatrix, h: Matrix, t: Model, ride_bounds: Sequence = ()) -> Model:
    """Extend a model of the transformed bounded part to the full system.

    h is read in place as ``batch_mehnf`` made it: the normal form on top,
    then one riding row of U V per bound in ``ride_bounds``.  Columns with
    non-zero entries in the normal form are fixed by t; the residual
    system U V y <= ride_bounds is restricted to the remaining (gap)
    columns, rational before ``v.n1``, and solved with the unit cube test,
    which cannot fail there because every direction of it is unbounded.
    Returns V t' in original coordinates: V t on the bounded route, which
    has no riding rows.  The model is returned unchecked.
    """
    tprime = list(t.values)
    top = h.m - len(ride_bounds)
    fixed = free = []
    if ride_bounds:
        fixed = [j for j in range(v.n) if any(h.rows[i][j] for i in range(top))]
        free = [j for j in range(v.n) if j not in set(fixed)]
    if free:
        rows = []
        bounds = []
        for row_uv, b in zip(h.rows[top:], ride_bounds):
            rhs = b - sum((row_uv[j] * t.values[j] for j in fixed), _ZERO)
            row = [row_uv[j] for j in free]
            if any(row):
                rows.append(row)
                bounds.append(rhs)
            elif rhs < 0:
                raise InternalSoundnessError(
                    "residual system contradicts persistence of unboundedness")
        variables = [VarInfo(f"u{j}", VarKind.RATIONAL if j < v.n1 else VarKind.INTEGER)
                     for j in free]
        residual = ConstraintSystem(
            Matrix(rows) if rows else Matrix.zeros(0, len(free)),
            bounds, variables)
        sub = unit_cube_test(residual)
        if sub is None:
            raise InternalSoundnessError("residual unit cube test failed")
        for pos, j in enumerate(free):
            tprime[j] = sub.values[pos]
    return Model(v.apply(tprime))


# -- certificate conversion -----------------------------------------------------


def _farkas(leaf: RefutationLeaf, m: int) -> FarkasCertificate:
    """The Farkas certificate over m rows of a refutation that is one leaf."""
    return FarkasCertificate([leaf.row_mults.get(i, _ZERO) for i in range(m)])


def _pull_back(cert, row_map: Sequence[dict[int, Fraction]], m: int,
               cut_fn=lambda cut: cut):
    """Map a certificate or refutation of a source system onto a target.

    Row i of the source is implied by the sum of w times row k of the
    target over ``row_map[i].items()``, with every w > 0, so a multiplier
    on row i becomes multipliers on those target rows.  ``cut_fn``
    rewrites each cut into the target's variables.  m is the target's row
    count; a Farkas certificate comes back as one.
    """
    if isinstance(cert, FarkasCertificate):
        cert = RefutationLeaf(dict(enumerate(cert.multiplier_vector(len(row_map)))), {})

    def leaf_fn(leaf: RefutationLeaf) -> RefutationLeaf:
        out: dict[int, Fraction] = {}
        for i, mult in leaf.row_mults.items():
            if mult:
                for k, w in row_map[i].items():
                    out[k] = out.get(k, _ZERO) + mult * w
        return RefutationLeaf(out, dict(leaf.cut_mults))

    mapped = _map_tree(cert, leaf_fn, cut_fn)
    return _farkas(mapped, m) if isinstance(mapped, RefutationLeaf) else mapped


def _cut_map(v: TransformMatrix):
    """The map of a branch cut on y_j into x = V y: row j of V^-1.

    V^-1 is a mixed column transformation matrix, so that row vanishes on
    the rational columns and is integral on the integer ones.
    """
    vinv = v.inverse().matrix.rows

    def convert_cut(cut: Cut) -> Cut:
        support = [j for j, c in enumerate(cut.coeffs) if c]
        if len(support) != 1 or cut.coeffs[support[0]] != 1:
            raise InternalSoundnessError("branch cut is not a unit vector")
        return Cut(tuple(vinv[support[0]]), cut.value)

    return convert_cut


def convert_certificate(
    row_map: Sequence[dict[int, Fraction]],
    v: TransformMatrix,
    certificate,
    target: ConstraintSystem,
):
    """Map a refutation of a transformed system back to target.

    Row i of the transformed system is implied by the target rows in
    ``row_map[i]`` (see ``_pull_back``), and branch cuts on transformed
    variables become cuts on the original variables through the inverse
    transformation.  The result is returned unchecked.
    """
    return _pull_back(certificate, row_map, target.m, _cut_map(v))


# -- the full pipeline -------------------------------------------------------


def solve(sys: ConstraintSystem, options: Optional[SolveOptions] = None) -> SolveResult:
    """Decide mixed satisfiability of the system.

    Pipeline: normalize, rational feasibility, classification, then either
    branch-and-bound (bounded without explicit equalities), the unit cube
    test (absolutely unbounded), or the Mixed-Echelon-Hermite route:
    ``batch_mehnf`` of the equality rows (bounded) or of the split's
    double-bounded part (partially unbounded), with the remaining rows
    riding along, then branch-and-bound and model/certificate conversion.
    ``stats.transform_seconds`` times that ``batch_mehnf`` call, riding
    rows included.  With transforms disabled, branch-and-bound runs on the
    raw system under the option limits and may return Budget.  Every Sat
    or Unsat result is checked once, against sys, before it is returned.
    """
    opts = options or SolveOptions()
    stats = SolveStats()
    started = time.monotonic()
    deadline = started + opts.time_budget
    try:
        norm = normalize(sys)
        if isinstance(norm, TriviallyUnsat):
            return _finalize(sys, range(sys.m), Unsat(norm.certificate, stats))
        norm, kept = norm
        return _finalize(sys, kept, _solve_inner(norm, opts, stats, deadline))
    finally:
        stats.total_seconds = time.monotonic() - started


def _solve_inner(norm, opts, stats, deadline) -> SolveResult:
    """The unchecked result on a normalized system; witnesses are over norm."""
    if not opts.transforms_enabled:
        # The root node decides rational feasibility.
        return branch_and_bound(norm, opts, stats, deadline)

    try:
        cls = classify(norm)
    except InfeasibleSystemError as exc:
        return Unsat(exc.certificate, stats)
    stats.classification = cls.verdict.value

    if cls.verdict is Verdict.ABSOLUTELY_UNBOUNDED:
        model = unit_cube_test(norm)
        if model is None:
            raise InternalSoundnessError(
                "unit cube test failed on an absolutely unbounded system")
        return Sat(model, stats)

    if cls.verdict is Verdict.BOUNDED:
        if not cls.equalities:
            return branch_and_bound(norm, opts, stats, deadline)
        # Search in y = V^-1 x, V from the MEHNF of the equality rows; the
        # whole system rides along the column steps and comes out as A V.
        sp = None
        top, ride = Matrix([norm.matrix.rows[i] for i in cls.equalities]), norm.matrix
    else:
        # Partially unbounded: transform the double-bounded part; the
        # unbounded part rides along and comes out as U V.
        sp = split(norm, cls)
        top, ride = sp.bounded.matrix, sp.unbounded.matrix
    t0 = time.monotonic()
    h, v, row_perm = batch_mehnf(top, norm.n1, ride)
    stats.transform_seconds = time.monotonic() - t0
    if sp is None:
        tsys = ConstraintSystem(Matrix(h.rows[top.m:]), norm.bounds,
                                _y_variables(norm.n1, norm.n))
        ride_bounds = ()
    else:
        upper = [sp.bounded.bounds[i] for i in row_perm]
        lower = [sp.lower[i] for i in row_perm]
        tsys = transformed_system(norm, h.rows[:top.m], lower, upper)
        ride_bounds = sp.unbounded.bounds

    res = branch_and_bound(tsys, opts, stats, deadline)
    if isinstance(res, Sat):
        return Sat(mixed_extension(v, h, res.model, ride_bounds), stats)
    if isinstance(res, Unsat):
        row_map = _row_map(norm.m, sp, row_perm)
        return Unsat(convert_certificate(row_map, v, res.certificate, norm), stats)
    return res


def _row_map(m: int, sp, row_perm) -> list[dict[int, Fraction]]:
    """The rows of norm (m rows) that imply each branch-and-bound row.

    Without a split, row i is norm's row i times V.  After a split, upper
    rows map straight onto the original rows; implied lower-bound rows
    expand through the split's dual multipliers.
    """
    if sp is None:
        return [{i: 1} for i in range(m)]
    origin = sp.bounded_origin
    return [{origin[i]: 1} for i in row_perm] + [
        {origin[k]: w for k, w in enumerate(sp.lower_duals[i]) if w} for i in row_perm]


def transformed_system(norm: ConstraintSystem, top: list, lower, upper) -> ConstraintSystem:
    """The rows top, bounded by upper, and their negations, bounded by -lower."""
    # Most entries of top are zero, and negating a Fraction costs more than
    # testing it.
    rows = top + [[-c if c else c for c in r] for r in top]
    bounds = list(upper) + [-b for b in lower]
    return ConstraintSystem(Matrix(rows), bounds, _y_variables(norm.n1, norm.n))


@functools.lru_cache(maxsize=64)
def _y_variables(n1: int, n: int) -> tuple[VarInfo, ...]:
    """The variables y = V^-1 x of a transformed system, typed like x.

    x has n1 rational columns, then integer ones.  Cached by that shape:
    building the frozen VarInfos anew cost a solve of a 5-variable system
    about as much as its normalize phase.
    """
    return tuple(VarInfo(f"y{j}", VarKind.RATIONAL if j < n1 else VarKind.INTEGER)
                 for j in range(n))


def _finalize(original, kept, res) -> SolveResult:
    """res, after checking its witness once, against the input.

    A model is over the input's variables.  A certificate or refutation is
    over the normalized system, whose row i is input row kept[i]; when
    normalize dropped rows it is pulled back onto the input first.  Raises
    InternalSoundnessError when the check fails.
    """
    if isinstance(res, Sat):
        ok = check_model(original, res.model)
    elif isinstance(res, Unsat):
        if len(kept) != original.m:
            res = Unsat(_pull_back(res.certificate, [{k: 1} for k in kept], original.m),
                        res.stats)
        if isinstance(res.certificate, FarkasCertificate):
            ok = check_certificate(original, res.certificate)
        else:
            ok = check_refutation(original, res.certificate)
    else:
        return res
    if not ok:
        raise InternalSoundnessError("final witness failed verification")
    return res
