"""Branch-and-bound pipeline over the boundedness-driven transformations.

``solve`` normalizes, classifies (which first checks rational
feasibility), and then dispatches: bounded systems go straight to
branch-and-bound, absolutely unbounded systems to the unit cube test, and
partially unbounded systems through the split / Mixed-Echelon-Hermite
route, whose results are mapped back to the original system
(``mixed_extension`` for models, ``convert_certificate`` for refutations).

Unsatisfiability of a mixed system that is rationally feasible cannot be
witnessed by a single Farkas certificate; branch-and-bound therefore
returns a *branch refutation*: a binary tree of integer-valid cuts whose
leaves carry Farkas certificates over the system plus the cuts on the
path.  ``check_refutation`` verifies such trees independently.  Every Sat
result is checked with ``check_model`` and every Unsat result with
``check_certificate``/``check_refutation`` against the original system
before it is returned, in all build modes, and only once: a witness that
a phase has verified against the normalized system is not checked again
when that system is the input itself.  Certificates and refutations
move from one system to another through ``_pull_back``, which needs only
how each source row is combined from target rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import InfeasibleSystemError, SplitSystem, Verdict, classify, split
from .linalg import Matrix, TransformMatrix, is_lower_triangular_with_gaps, piv
from .mehnf import batch_mehnf
from .model import (
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
    check_certificate,
    check_model,
    normalize,
)
from .simplex import Infeasible, check_feasible, instance_for

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class InternalSoundnessError(RuntimeError):
    """A result failed the final re-verification; indicates a solver bug."""


class StructureViolationError(ValueError):
    pass


@dataclass
class SolveOptions:
    transforms_enabled: bool = True
    branch_limit: int = 10**6
    depth_limit: int = 10**5
    time_budget: float = 60.0

    def __post_init__(self):
        # Written as not (x > 0) so that NaN is rejected too.
        if not (self.branch_limit > 0 and self.depth_limit > 0 and self.time_budget > 0):
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
    if len(cut.coeffs) != sys.n or not any(cut.coeffs):
        return False
    if any(cut.coeffs[j] for j in range(sys.n1)):
        return False
    return all(cut.coeffs[j].denominator == 1 for j in range(sys.n1, sys.n))


def check_refutation(sys: ConstraintSystem, refutation) -> bool:
    """Verify a branch refutation tree against the system.

    Each inner node must carry an integer-valid cut and each leaf a Farkas
    certificate of the system extended by the active sides of the cuts on
    its path.  A valid tree proves the system has no mixed solution.
    """
    if isinstance(refutation, RefutationLeaf):
        return not refutation.cut_mults and _check_leaf(sys, refutation, [])
    work = [("visit", refutation)]
    path: list[tuple[Cut, str]] = []
    while work:
        action, payload = work.pop()
        if action == "leave":
            path.pop()
        elif action == "switch":
            path[-1] = (payload, "high")
        else:
            node = payload
            if isinstance(node, RefutationLeaf):
                if not _check_leaf(sys, node, path):
                    return False
                continue
            if not _valid_cut(sys, node.cut):
                return False
            path.append((node.cut, "low"))
            work.append(("leave", None))
            work.append(("visit", node.high))
            work.append(("switch", node.cut))
            work.append(("visit", node.low))
    return True


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


def _check_leaf(sys: ConstraintSystem, leaf: RefutationLeaf,
                path: list[tuple]) -> bool:
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
    y = [_ZERO] * extended.m
    for i, mult in leaf.row_mults.items():
        if not 0 <= i < sys.m:
            return False
        y[i] += mult
    for d, mult in leaf.cut_mults.items():
        y[sys.m + d] += mult
    return check_certificate(extended, FarkasCertificate(y))


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
    sys, or Budget when a limit from ``options`` was hit.  Terminates on
    every input only when sys is bounded; ``solve`` ensures that.
    """
    opts = options or SolveOptions()
    stats = stats if stats is not None else SolveStats()
    if deadline is None:
        deadline = time.monotonic() + opts.time_budget
    inst = instance_for(sys)
    work = [("explore", None)]
    results: list = []
    path: list[tuple[int, int]] = []
    while work:
        action, payload = work.pop()
        if action == "push-lo":
            j, f, d = payload
            inst.push_bound(j, "up", Fraction(f), "branch", d)
            continue
        if action == "push-hi":
            j, f, d = payload
            inst.push_bound(j, "lo", Fraction(f + 1), "branch", d)
            continue
        if action == "pop":
            inst.pop_row()
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
            stats.lp_pivots += inst.pivots
            return Budget(stats)
        if len(path) > opts.depth_limit:
            stats.budget_reason = "depth-limit"
            stats.lp_pivots += inst.pivots
            return Budget(stats)
        if time.monotonic() > deadline:
            stats.budget_reason = "time-budget"
            stats.lp_pivots += inst.pivots
            return Budget(stats)
        conflict = inst.check()
        if conflict is not None:
            row_mults: dict[int, Fraction] = {}
            cut_mults: dict[int, Fraction] = {}
            for src, mult in conflict:
                if src.kind == "row":
                    row_mults[src.index] = row_mults.get(src.index, _ZERO) + mult / src.scale
                else:
                    cut_mults[src.index] = cut_mults.get(src.index, _ZERO) + mult
            results.append(RefutationLeaf(row_mults, cut_mults))
            continue
        beta = inst.assignment()
        var = _pick_branch_var(sys, beta)
        if var is None:
            stats.lp_pivots += inst.pivots
            model = Model(list(beta))
            if not check_model(sys, model):
                raise InternalSoundnessError("branch-and-bound model failed verification")
            return Sat(model, stats)
        f = math.floor(beta[var])
        d = len(path)
        path.append((var, f))
        work.append(("combine", None))
        work.append(("pop", None))
        work.append(("explore", None))
        work.append(("push-hi", (var, f, d)))
        work.append(("pop", None))
        work.append(("explore", None))
        work.append(("push-lo", (var, f, d)))

    stats.lp_pivots += inst.pivots
    assert len(results) == 1, "branch tree bookkeeping failed"
    refutation = results[0]
    if isinstance(refutation, RefutationLeaf):
        refutation = _farkas(refutation, sys.m)
    return Unsat(_verified(sys, refutation, "branch-and-bound"), stats)


# -- unit cube test -----------------------------------------------------------


def unit_cube_test(sys: ConstraintSystem) -> Optional[Model]:
    """Mixed solution via the half-open unit cube, or None.

    Tightens every bound by half the 1-norm of the row's integer-column
    coefficients, solves the widened rational system, and rounds the
    integer coordinates of the center to the nearest integer (ties toward
    minus infinity).  A successful round always verifies; systems in which
    every direction is unbounded always succeed.
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
    model = Model(values)
    if not check_model(sys, model):
        return None
    return model


# -- mixed extension -----------------------------------------------------------


def mixed_extension(
    sp: SplitSystem,
    v: TransformMatrix,
    h: Matrix,
    t: Model,
) -> Model:
    """Extend a model of the transformed bounded part to the full system.

    Columns with non-zero entries in h are fixed by t; the unbounded part
    is rewritten over the remaining (gap) columns and solved with the unit
    cube test, which cannot fail there because every direction of the
    residual system is unbounded.  Returns V t' in original coordinates.
    """
    n = v.n
    fixed = [j for j in range(n) if any(row[j] for row in h.rows)]
    free = [j for j in range(n) if j not in set(fixed)]
    unb = sp.unbounded
    tprime = list(t.values)
    if unb.m and free:
        av = unb.matrix * v.matrix
        rows = []
        bounds = []
        for i in range(unb.m):
            rhs = unb.bounds[i] - sum(
                (av.rows[i][j] * t.values[j] for j in fixed), _ZERO)
            row = [av.rows[i][j] for j in free]
            if any(row):
                rows.append(row)
                bounds.append(rhs)
            elif rhs < 0:
                raise InternalSoundnessError(
                    "residual system contradicts persistence of unboundedness")
        variables = [
            VarInfo(f"u{j}", sp.bounded.variables[j].kind) for j in free]
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


def _verified(sys: ConstraintSystem, cert, what: str):
    """cert, after checking it against sys; raises if the check fails."""
    if isinstance(cert, FarkasCertificate):
        ok, kind = check_certificate(sys, cert), "certificate"
    else:
        ok, kind = check_refutation(sys, cert), "refutation"
    if not ok:
        raise InternalSoundnessError(f"{what} {kind} failed verification")
    return cert


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


def convert_certificate(
    sp: SplitSystem,
    row_perm: Sequence[int],
    v: TransformMatrix,
    certificate,
    target: ConstraintSystem,
):
    """Map a refutation of the transformed double-bounded system back.

    Multipliers on upper rows map straight onto the original rows; ones on
    implied lower-bound rows are expanded through the dual multipliers
    recorded when the split computed the explicit lower bounds; branch cuts
    on transformed variables become cuts on the original variables through
    the inverse transformation.  The result is re-verified against the
    target system.
    """
    origin = sp.bounded_origin
    upper = [{origin[i]: 1} for i in row_perm]
    lower = [{origin[k]: w for k, w in enumerate(sp.lower_duals[i]) if w}
             for i in row_perm]
    vinv = v.inverse()

    def convert_cut(cut: Cut) -> Cut:
        j = next(i for i, c in enumerate(cut.coeffs) if c)
        assert cut.coeffs[j] == 1 and sum(1 for c in cut.coeffs if c) == 1
        return Cut(tuple(vinv.matrix.rows[j]), cut.value)

    converted = _pull_back(certificate, upper + lower, target.m, convert_cut)
    return _verified(target, converted, "converted")


# -- the full pipeline -------------------------------------------------------


def solve(sys: ConstraintSystem, options: Optional[SolveOptions] = None) -> SolveResult:
    """Decide mixed satisfiability of the system.

    Pipeline: normalize, rational feasibility, classification, then either
    direct branch-and-bound (bounded), the unit cube test (absolutely
    unbounded), or split + Mixed-Echelon-Hermite + branch-and-bound with
    model/certificate conversion (partially unbounded).  With transforms
    disabled, branch-and-bound runs on the raw system under the option
    limits and may return Budget.
    """
    opts = options or SolveOptions()
    stats = SolveStats()
    started = time.monotonic()
    deadline = started + opts.time_budget
    try:
        return _solve_inner(sys, opts, stats, deadline)
    finally:
        stats.total_seconds = time.monotonic() - started


def _solve_inner(sys, opts, stats, deadline) -> SolveResult:
    norm = normalize(sys)
    if isinstance(norm, TriviallyUnsat):
        return _finalize(sys, None, Unsat(norm.certificate, stats))
    norm, kept = norm

    if not opts.transforms_enabled:
        # The root node decides rational feasibility.
        res = branch_and_bound(norm, opts, stats, deadline)
        return _finalize(sys, kept, res)

    try:
        cls = classify(norm)
    except InfeasibleSystemError as exc:
        return _finalize(sys, kept, Unsat(exc.certificate, stats))
    stats.classification = cls.verdict.value

    if cls.verdict is Verdict.BOUNDED:
        res = branch_and_bound(norm, opts, stats, deadline)
        return _finalize(sys, kept, res)

    if cls.verdict is Verdict.ABSOLUTELY_UNBOUNDED:
        model = unit_cube_test(norm)
        if model is None:
            raise InternalSoundnessError(
                "unit cube test failed on an absolutely unbounded system")
        return _finalize(sys, kept, Sat(model, stats))

    # Partially unbounded: reduce to the double-bounded part and transform.
    sp = split(norm, cls)
    t0 = time.monotonic()
    h, v, row_perm = batch_mehnf(sp.bounded.matrix, norm.n1)
    stats.transform_seconds = time.monotonic() - t0
    upper = [sp.bounded.bounds[i] for i in row_perm]
    lower = [sp.lower[i] for i in row_perm]

    tsys = transformed_system(norm, h, lower, upper)
    res = branch_and_bound(tsys, opts, stats, deadline)
    if isinstance(res, Budget):
        return res
    if isinstance(res, Sat):
        # The extended model has been checked nowhere yet.
        model = mixed_extension(sp, v, h, res.model)
        return _finalize(sys, None, Sat(model, stats))
    cert = convert_certificate(sp, row_perm, v, res.certificate, norm)
    return _finalize(sys, kept, Unsat(cert, stats))


def transformed_system(norm: ConstraintSystem, h: Matrix, lower, upper) -> ConstraintSystem:
    rows = [list(r) for r in h.rows]
    bounds = list(upper)
    for i, r in enumerate(h.rows):
        rows.append([-c for c in r])
        bounds.append(-lower[i])
    variables = [VarInfo(f"y{j}", var.kind) for j, var in enumerate(norm.variables)]
    return ConstraintSystem(Matrix(rows), bounds, variables)


def _finalize(original, kept, res) -> SolveResult:
    """res, after verifying its witness against the input if still needed.

    kept is None when the witness is over the input and unchecked.
    Otherwise it was verified against the normalized system, whose row i
    is input row kept[i]; when no row was dropped, that system is the
    input itself and the witness is not checked again.
    """
    if isinstance(res, Budget) or (kept is not None and len(kept) == original.m):
        return res
    if isinstance(res, Sat):
        if not check_model(original, res.model):
            raise InternalSoundnessError("final model failed verification")
        return res
    certificate = res.certificate
    if kept is not None:
        certificate = _pull_back(certificate, [{k: 1} for k in kept], original.m)
    return Unsat(_verified(original, certificate, "final"), res.stats)
