"""Soundness does not depend on ``assert``: solving under ``python -O``.

Every Sat or Unsat result is re-checked by ``check_model``,
``check_certificate`` or ``check_refutation`` in every build mode.  One
test solves a fixed corpus in a ``python -O`` subprocess, where every
``assert`` and ``__debug__`` block is stripped, re-verifies each result
there, and requires the same verdicts as the assert-enabled run.  Another
scans the package source: it holds no ``assert`` statement and raises no
bare ``AssertionError``.
"""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from mehsolve.model import FarkasCertificate, Sat, Unsat, check_certificate, check_model
from mehsolve.solver import check_refutation, solve

import corpus
from helpers import mk_system

TESTS = Path(__file__).resolve().parent


def fixed_corpus():
    rng = random.Random(20240401)
    systems = [
        mk_system([[3], [-3]], [2, -1], "z"),          # bounded, refuted by branching
        mk_system([[3, -3], [-3, 3]], [2, -1], "qq"),  # partially unbounded, rational sat
    ]
    for k in range(4):
        systems.append(corpus.bounded_instance(rng))
        systems.append(corpus.absolutely_unbounded_instance(rng))
        systems.append(corpus.partially_unbounded_instance(rng, mixed=k % 2 == 0))
        systems.append(corpus.band_unsat_instance(rng))
    return systems


def verified_verdicts() -> list[list]:
    """[classification, verdict] per corpus instance; every result re-checked."""
    out = []
    for system in fixed_corpus():
        res = solve(system)
        if isinstance(res, Sat):
            ok = check_model(system, res.model)
        elif isinstance(res, Unsat):
            cert = res.certificate
            ok = (check_certificate(system, cert) if isinstance(cert, FarkasCertificate)
                  else check_refutation(system, cert))
        else:
            ok = False
        if not ok:
            raise RuntimeError(f"{type(res).__name__} result for {system!r} failed verification")
        out.append([res.stats.classification, type(res).__name__.lower()])
    return out


def test_verdicts_hold_without_asserts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (f"import json, {Path(__file__).stem} as t; "
            "print(json.dumps({'debug': __debug__, 'verdicts': t.verified_verdicts()}))")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout.splitlines()[-1])
    assert optimized["debug"] is False

    expected = verified_verdicts()
    assert optimized["verdicts"] == expected
    assert {c for c, _ in expected} == {
        "bounded", "absolutely-unbounded", "partially-unbounded"}
    assert {v for _, v in expected} == {"sat", "unsat"}


def _raises_assertion_error(node) -> bool:
    """``raise AssertionError`` or ``raise AssertionError(...)``."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statement_in_the_package():
    # An engine bug raises one of the package's own errors (such as
    # simplex.SimplexInternalError), never a bare AssertionError.
    src = TESTS.parent / "src" / "mehsolve"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert not found
