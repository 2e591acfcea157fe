"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
import workloads
from mehsolve import smtlib, solver
from mehsolve.bruteforce import brute_force_solve
from mehsolve.solver import SolveOptions, VarBounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_workloads(seed):
    return [
        workloads.suite_mix(seed, count=2),
        workloads.scale_unbounded(seed, sizes=(8,)),
        workloads.bounded_planted(seed, blocks=3),
    ]


def test_same_seed_gives_identical_smtlib():
    def texts(seed):
        return {w.name: [i.text for i in w.instances()] for w in small_workloads(seed)}

    first = texts(5)
    assert texts(5) == first
    # scale_unbounded is a fixed ladder; the other two follow the seed.
    other = texts(6)
    assert other["suite_mix"] != first["suite_mix"]
    assert other["bounded_planted"] != first["bounded_planted"]


def test_bounded_planted_construction_answers_hold():
    workload = workloads.bounded_planted(11, blocks=3)
    u = workloads.BOUNDED_BOX
    expected = [inst.expected for inst in workload.instances()]
    assert expected == ["sat", "sat", "sat", "unsat"] * 3
    for inst in workload.instances():
        system = smtlib.parse(inst.text)
        box = VarBounds({j: Fraction(0) for j in range(system.n)},
                        {j: Fraction(u) for j in range(system.n)})
        feasible, _ = brute_force_solve(system, box)
        assert feasible == (inst.expected == "sat"), inst.name


def test_tracing_wrappers_are_removed_after_the_traced_pass():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.TARGETS]
    workload = workloads.bounded_planted(2, blocks=1)
    tracer = tracing.Tracer()
    traced = run.traced_pass(workload.instances(), SolveOptions(), run.Checker(), tracer)
    assert [outcome for _, outcome, _, _ in traced] == ["sat", "sat", "sat", "unsat"]
    assert tracer.instances == 4 and "solver.branch_and_bound" in tracer.names
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    spans = len(tracer.names)
    solver.solve(smtlib.parse(workload.instances()[0].text))
    assert len(tracer.names) == spans

    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("leave the block early")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    proc = _run(ROOT, "--workload", "bounded_planted", "--seed", "1",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split(" = ")[0] for line in lines if " = " in line and not line.startswith("#")}
    assert printed == set(declared)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "suite_mix", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
