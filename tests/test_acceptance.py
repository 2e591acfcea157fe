"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.  All expected values are exact; the only tolerances are the
wall-clock envelopes stated in the criteria themselves.
"""

import random
import time
from fractions import Fraction

from mehsolve.analysis import Verdict, classify, split
from mehsolve.bruteforce import brute_force_solve
from mehsolve.generators import gen_slack
from mehsolve.linalg import Matrix, is_mctm, is_mehnf
from mehsolve.mehnf import batch_mehnf
from mehsolve.model import (
    Budget,
    ConstraintSystem,
    FarkasCertificate,
    Sat,
    Unsat,
    VarInfo,
    VarKind,
    check_certificate,
    check_model,
)
from mehsolve.solver import (
    SolveOptions,
    branch_and_bound,
    check_refutation,
    mixed_extension,
    solve,
    transformed_system,
    unit_cube_test,
)

import corpus
from helpers import rpiv, transform_split

_SUITE_STARTED = time.monotonic()

# Criterion 4 ledger: every Sat/Unsat observed across the suite, and how
# many of them passed the independent checkers.
_SOUNDNESS = {"sat": 0, "sat_ok": 0, "unsat": 0, "unsat_ok": 0}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def checked_solve(sys: ConstraintSystem, options: SolveOptions | None = None):
    """Solve and tally external verification of the result (criterion 4)."""
    res = solve(sys, options)
    if isinstance(res, Sat):
        _SOUNDNESS["sat"] += 1
        _SOUNDNESS["sat_ok"] += bool(check_model(sys, res.model))
    elif isinstance(res, Unsat):
        _SOUNDNESS["unsat"] += 1
        if isinstance(res.certificate, FarkasCertificate):
            ok = check_certificate(sys, res.certificate)
        else:
            ok = check_refutation(sys, res.certificate)
        _SOUNDNESS["unsat_ok"] += bool(ok)
    return res


def _band(kinds="zz"):
    variables = [VarInfo("x1", VarKind.INTEGER if k == "z" else VarKind.RATIONAL)
                 for k in kinds]
    variables = [VarInfo(f"x{i+1}", v.kind) for i, v in enumerate(variables)]
    return ConstraintSystem(Matrix([[3, -3], [-3, 3]]), [2, -1], variables)


def test_criterion_01_divergence_and_termination():
    sys = _band()
    t0 = time.monotonic()
    off = checked_solve(sys, SolveOptions(transforms_enabled=False, branch_limit=1000))
    off_time = time.monotonic() - t0
    t0 = time.monotonic()
    on = checked_solve(sys)
    on_time = time.monotonic() - t0
    ok = (
        isinstance(off, Budget)
        and off_time < 5.0
        and isinstance(on, Unsat)
        and on_time < 0.1
        and check_refutation(sys, on.certificate)
    )
    _report(1, ok,
            f"no-transform Budget in {off_time:.3f}s, "
            f"default Unsat in {on_time:.4f}s with verified certificate")


def test_criterion_02_total_termination():
    rng = random.Random(20240201)
    instances = []
    for _ in range(100):
        instances.append(corpus.bounded_instance(rng))
    for _ in range(50):
        instances.append(corpus.bounded_instance(rng, max_n=10))
    for _ in range(70):
        instances.append(corpus.absolutely_unbounded_instance(rng))
    for _ in range(60):
        instances.append(corpus.absolutely_unbounded_instance(rng, max_n=20))
    for _ in range(80):
        instances.append(corpus.partially_unbounded_instance(rng))
    for _ in range(40):
        instances.append(corpus.partially_unbounded_instance(rng, max_n=9))
    for _ in range(50):
        instances.append(corpus.partially_unbounded_instance(rng, mixed=True))
    for _ in range(50):
        instances.append(gen_slack(corpus.band_unsat_instance(rng)))
    assert len(instances) == 500
    assert all(sys.n <= 20 for sys in instances)

    budgets = 0
    worst = 0.0
    seen = set()
    for sys in instances:
        t0 = time.monotonic()
        res = checked_solve(sys)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        if isinstance(res, Budget):
            budgets += 1
        if res.stats.classification:
            seen.add(res.stats.classification)
    ok = budgets == 0 and worst < 10.0 and seen >= {
        "bounded", "absolutely-unbounded", "partially-unbounded"}
    _report(2, ok,
            f"500 instances, {budgets} budget verdicts, slowest {worst:.3f}s, "
            f"classifications seen: {sorted(seen)}")


def test_criterion_03_oracle_equivalence():
    rng = random.Random(20240203)
    mismatches = 0
    compared = 0
    for _ in range(200):
        sys, box = corpus.boxed_instance_with_box(rng)
        assert (box.box_size() or 0) <= 100_000
        res = checked_solve(sys)
        oracle_sat, _ = brute_force_solve(sys, box)
        compared += 1
        if isinstance(res, Sat) != oracle_sat:
            mismatches += 1
    _report(3, mismatches == 0,
            f"{compared} instances compared against grid enumeration, "
            f"{mismatches} mismatches")


def test_criterion_05_mehnf_structure():
    rng = random.Random(20240205)
    failures = 0
    for _ in range(200):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        n1 = rng.randint(0, n)
        d = Matrix([[Fraction(rng.randint(-9, 9)) for _ in range(n)]
                    for _ in range(m)])
        h, v, perm = batch_mehnf(d, n1)
        dp = Matrix([d.rows[i] for i in perm])
        r = rpiv(h.m, h, n1)
        if not (is_mehnf(h, n1, r) and is_mctm(v.matrix, n1, n - n1)
                and h == dp * v.matrix):
            failures += 1
    _report(5, failures == 0, f"200 random matrices, {failures} structure failures")


def test_criterion_07_reduction_equisatisfiability():
    rng = random.Random(20240207)
    failures = 0
    for _ in range(100):
        sys = corpus.partially_unbounded_instance(rng, mixed=rng.random() < 0.4)
        cls = classify(sys)
        assert cls.verdict is Verdict.PARTIALLY_UNBOUNDED
        sp = split(sys, cls)
        h, v, perm = transform_split(sys, sp)
        lower = [sp.lower[i] for i in perm]
        upper = [sp.bounded.bounds[i] for i in perm]
        tsys = transformed_system(sys, h.rows[:sp.bounded.m], lower, upper)
        res = branch_and_bound(tsys)
        if not isinstance(res, Sat):
            failures += 1
            continue
        full = mixed_extension(v, h, res.model, sp.unbounded.bounds)
        if not check_model(sys, full):
            failures += 1
    _report(7, failures == 0,
            f"100 partially unbounded instances extended to full models, "
            f"{failures} verification failures")


def test_criterion_08_slacking():
    rng = random.Random(20240208)
    failures = 0
    for _ in range(50):
        base = corpus.band_unsat_instance(rng)
        base_res = checked_solve(base)
        slacked = gen_slack(base)
        cls = classify(slacked)
        res = checked_solve(slacked)
        if not (isinstance(base_res, Unsat)
                and cls.verdict is Verdict.PARTIALLY_UNBOUNDED
                and isinstance(res, Unsat)):
            failures += 1
    _report(8, failures == 0,
            f"50 unsat integer instances slacked: all partially unbounded "
            f"and unsat, {failures} failures")


def test_criterion_09_cube_test_on_absolutely_unbounded():
    rng = random.Random(20240209)
    failures = 0
    for _ in range(100):
        sys = corpus.absolutely_unbounded_instance(rng)
        assert classify(sys).verdict is Verdict.ABSOLUTELY_UNBOUNDED
        model = unit_cube_test(sys)
        if model is None or not check_model(sys, model):
            failures += 1
    _report(9, failures == 0,
            f"100 absolutely unbounded instances solved by the cube test, "
            f"{failures} failures")


def test_criterion_04_certificate_and_model_soundness():
    # Tallied across every solve in criteria 1-3 and 6-9.
    sat, sat_ok = _SOUNDNESS["sat"], _SOUNDNESS["sat_ok"]
    unsat, unsat_ok = _SOUNDNESS["unsat"], _SOUNDNESS["unsat_ok"]
    ok = sat > 0 and unsat > 0 and sat == sat_ok and unsat == unsat_ok
    _report(4, ok,
            f"{sat_ok}/{sat} models and {unsat_ok}/{unsat} certificates "
            f"verified against the original systems")


def test_criterion_10_runtime_envelope():
    elapsed = time.monotonic() - _SUITE_STARTED
    _report(10, elapsed < 600.0, f"acceptance suite finished in {elapsed:.1f}s")
