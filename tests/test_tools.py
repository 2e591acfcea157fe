import importlib.util
import subprocess
import sys as _pysys
from fractions import Fraction
from pathlib import Path

import pytest

import mehsolve.analysis as analysis
import mehsolve.mehnf as mehnf
import mehsolve.simplex as simplex
import mehsolve.solver as solver
from mehsolve.analysis import Verdict, classify
from mehsolve.bench import bench_directory, format_report
from mehsolve.bruteforce import BoxTooLargeError, brute_force_solve
from mehsolve.cli import main
from mehsolve.generators import GenParams, gen_random_unbounded
from mehsolve.model import Budget, FarkasCertificate, Sat, check_model
from mehsolve.simplex import SimplexInstance
from mehsolve.smtlib import parse
from mehsolve.solver import Cut, RefutationLeaf, RefutationNode, SolveOptions, VarBounds, solve

from helpers import (
    mk_system, nested_sum, ref_column_reduce, ref_hermite_normal_form, ref_instance_for,
    same_results)

BAND = "(set-logic QF_LIA)(declare-fun x () Int)(declare-fun y () Int)" \
       "(assert (<= 1 (- (* 3 x) (* 3 y))))(assert (<= (- (* 3 x) (* 3 y)) 2))" \
       "(check-sat)"


def box(*pairs):
    return VarBounds(
        lower={j: Fraction(lo) for j, (lo, _) in enumerate(pairs) if lo is not None},
        upper={j: Fraction(hi) for j, (_, hi) in enumerate(pairs) if hi is not None},
    )


class TestBruteForce:
    def test_small_interval(self):
        sys = mk_system([[1], [-1]], [3, -2], "z")
        sat, model = brute_force_solve(sys, box((0, 3)))
        assert sat and model.values[0] in (2, 3)

    def test_band_is_unsat_on_its_box(self):
        # x - y ranges over [-3, 3] on this box; none hits the open band.
        sys = mk_system([[3, -3], [-3, 3]], [2, -1], "zz")
        sat, _ = brute_force_solve(sys, box((0, 3), (0, 3)))
        assert not sat

    def test_pure_rational_single_lp(self):
        sys = mk_system([[1]], [Fraction(1, 2)], "q")
        sat, model = brute_force_solve(sys, VarBounds())
        assert sat and check_model(sys, model)

    def test_mixed(self):
        sys = mk_system([[1, 1], [-1, 0]], [Fraction(3, 2), 0], "qz")
        sat, model = brute_force_solve(sys, box((None, None), (-2, 2)))
        assert sat and check_model(sys, model)

    def test_box_too_large(self):
        sys = mk_system([[1]], [1], "z")
        with pytest.raises(BoxTooLargeError):
            brute_force_solve(sys, box((0, 10**6)))

    def test_missing_bound(self):
        sys = mk_system([[1]], [1], "z")
        with pytest.raises(BoxTooLargeError):
            brute_force_solve(sys, VarBounds())

    def test_empty_box_is_unsat(self):
        sys = mk_system([[1]], [10], "z")
        sat, _ = brute_force_solve(sys, box((2, 1)))
        assert not sat


class TestBench:
    def test_directory_table(self, tmp_path):
        (tmp_path / "band.smt2").write_text(BAND)
        (tmp_path / "sat.smt2").write_text(
            "(declare-fun x () Int)(assert (<= x 4))(assert (>= x 4))")
        (tmp_path / "broken.smt2").write_text("(assert (<= x 1)")
        rows = bench_directory(tmp_path, SolveOptions(time_budget=10.0))
        verdicts = {r.name: r.verdict for r in rows}
        assert verdicts == {"band.smt2": "unsat", "sat.smt2": "sat",
                            "broken.smt2": "error"}
        report = format_report(rows)
        assert "solved: 2/3" in report

    def test_empty_directory(self, tmp_path):
        rows = bench_directory(tmp_path, SolveOptions())
        assert rows == []
        assert "solved: 0/0" in format_report(rows)

    def test_parallel_matches_serial(self, tmp_path):
        for i in range(3):
            (tmp_path / f"p{i}.smt2").write_text(
                f"(declare-fun x () Int)(assert (<= x {i}))(assert (>= x 0))")
        serial = bench_directory(tmp_path, SolveOptions())
        parallel = bench_directory(tmp_path, SolveOptions(), jobs=2)
        assert [r.verdict for r in serial] == [r.verdict for r in parallel]


class TestCli:
    def test_solve_unsat_exit_code(self, tmp_path, capsys):
        f = tmp_path / "band.smt2"
        f.write_text(BAND)
        code = main(["solve", "--cert", "--stats", str(f)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("unsat")
        assert "classification: partially-unbounded" in out

    def test_solve_sat_model(self, tmp_path, capsys):
        f = tmp_path / "sat.smt2"
        f.write_text("(declare-fun a () Int)(assert (= a 3))")
        code = main(["solve", "--model", str(f)])
        out = capsys.readouterr().out
        assert code == 0
        assert "a = 3" in out

    def test_solve_stats_time_the_bounded_transform(self, tmp_path, capsys):
        # A boxed gcd-infeasible equality takes the bounded route through
        # the MEHNF: one branch, and the transform time is reported.
        f = tmp_path / "gcd.smt2"
        f.write_text("(declare-fun x () Int)(declare-fun y () Int)"
                     "(assert (= (- (* 3 x) (* 3 y)) 1))"
                     "(assert (<= 0 x 4))(assert (<= 0 y 4))")
        assert main(["solve", "--stats", str(f)]) == 1
        stats = dict(line[2:].split(": ") for line in capsys.readouterr().out.splitlines()
                     if line.startswith("; "))
        assert stats["classification"] == "bounded" and stats["nodes"] == "3"
        assert float(stats["transform-seconds"]) > 0

    def test_solve_budget_exit_code(self, tmp_path, capsys):
        f = tmp_path / "band.smt2"
        f.write_text(BAND)
        code = main(["solve", "--no-transform", "--branch-limit", "100", str(f)])
        assert code == 2
        assert capsys.readouterr().out.startswith("budget")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.smt2"
        f.write_text("(assert (<= x 1))")
        assert main(["solve", str(f)]) == 3

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/zzz.smt2"]) == 3

    def test_classify(self, tmp_path, capsys):
        f = tmp_path / "band.smt2"
        f.write_text(BAND)
        assert main(["classify", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "partially-unbounded"
        assert "bounded-rows: 0 1" in out

    def test_classify_drops_constant_rows(self, tmp_path, capsys):
        f = tmp_path / "const.smt2"
        f.write_text(BAND.replace("(assert", "(assert (<= 0 (- x x)))(assert", 1))
        assert main(["classify", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "partially-unbounded"
        assert "bounded-rows: 1 2" in out

    def test_classify_trivially_infeasible(self, tmp_path, capsys):
        f = tmp_path / "const.smt2"
        f.write_text("(declare-fun x () Int)(assert (<= 1 (- x x)))")
        assert main(["classify", str(f)]) == 0
        assert capsys.readouterr().out == "infeasible\n"

    def test_deep_nesting_exit_code(self, tmp_path, capsys):
        f = tmp_path / "deep.smt2"
        f.write_text(nested_sum(5000))
        assert main(["solve", str(f)]) == 3
        assert "nested too deeply" in capsys.readouterr().err

    def test_transform_prints_matrices(self, tmp_path, capsys):
        f = tmp_path / "band.smt2"
        f.write_text(BAND)
        assert main(["transform", str(f)]) == 0
        out = capsys.readouterr().out
        assert "H" in out and "V" in out and "row-permutation" in out

    def test_gen_slack_round_trip(self, tmp_path, capsys):
        f = tmp_path / "in.smt2"
        f.write_text("(declare-fun x () Int)(assert (<= x 1))")
        out_file = tmp_path / "out.smt2"
        assert main(["gen", "slack", str(f), "-o", str(out_file)]) == 0
        slacked = parse(out_file.read_text())
        assert slacked.n == 2
        assert slacked.m == 3

    def test_gen_random_writes_count(self, tmp_path):
        outdir = tmp_path / "suite"
        assert main(["gen", "random", "--seed", "5", "--count", "2",
                     "--vars", "3", "--bounded", "1", "-o", str(outdir)]) == 0
        files = sorted(outdir.glob("*.smt2"))
        assert len(files) == 2
        for path in files:
            assert isinstance(solve(parse(path.read_text())), Sat)

    def test_bench_command(self, tmp_path, capsys):
        (tmp_path / "one.smt2").write_text(
            "(declare-fun x () Int)(assert (<= x 1))(assert (>= x 0))")
        assert main(["bench", str(tmp_path)]) == 0
        assert "one.smt2,sat" in capsys.readouterr().out

    def test_console_script_entry(self, tmp_path):
        f = tmp_path / "sat.smt2"
        f.write_text("(declare-fun a () Int)(assert (= a 3))")
        proc = subprocess.run(
            [_pysys.executable, "-m", "mehsolve.cli", "solve", str(f)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "sat"


def test_cli_rejects_bad_probability(tmp_path):
    f = tmp_path / "in.smt2"
    f.write_text("(declare-fun x () Int)(assert (<= x 1))")
    assert main(["gen", "flip", str(f), "--seed", "1",
                 "--probability", "nonsense"]) == 3


def test_cli_rejects_negative_timeout(tmp_path):
    f = tmp_path / "in.smt2"
    f.write_text("(declare-fun x () Int)(assert (<= x 1))")
    assert main(["solve", "--timeout", "-1", str(f)]) == 3


def test_cli_rejects_nan_timeout(tmp_path, monkeypatch):
    f = tmp_path / "in.smt2"
    f.write_text("(declare-fun x () Int)(assert (<= x 1))")
    assert main(["solve", "--timeout", "nan", str(f)]) == 3
    monkeypatch.setenv("MEH_SOLVE_TIMEOUT", "nan")
    assert main(["solve", str(f)]) == 3


def test_cli_rejects_unparsable_timeout_env(tmp_path, monkeypatch):
    f = tmp_path / "in.smt2"
    f.write_text("(declare-fun x () Int)(assert (<= x 1))")
    monkeypatch.setenv("MEH_SOLVE_TIMEOUT", "abc")
    assert main(["solve", str(f)]) == 3
    assert main(["bench", str(tmp_path)]) == 3


def _perfbench_module(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    _pysys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_make_suites_checks_each_base_instance(tmp_path, monkeypatch):
    # An explicit check, not an assert: under python -O a base instance
    # that is not unsat still stops the generation.
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_suites.py"
    spec = importlib.util.spec_from_file_location("_make_suites", path)
    make_suites = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_suites)
    monkeypatch.setattr(make_suites, "solve", lambda sys_: Budget())
    monkeypatch.setattr(_pysys, "argv", ["make_suites.py", "--out", str(tmp_path),
                                         "--count", "1"])
    with pytest.raises(RuntimeError, match="base instance must be unsat"):
        make_suites.main()


def test_benchmark_bindings_exist():
    # perfbench/tracing.py wraps these module and class attributes; a
    # renamed or removed one would otherwise surface only when the
    # benchmark runs.
    tracing = _perfbench_module("tracing")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("sys, verdict", [
    (gen_random_unbounded(GenParams(seed=1, n_vars=8, n_bounded=4, n_unbounded=4)),
     Verdict.PARTIALLY_UNBOUNDED),
    (mk_system([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [4, 0, 4, 0, 5], "zz"),
     Verdict.BOUNDED),
])
def test_classify_builds_one_tableau(monkeypatch, sys, verdict):
    # Wrapped as the pivot counts of tests/test_simplex.py and
    # scripts/identity_dump.py wrap it: feasibility and the cone's
    # equalities share the one tableau they see.
    built = []
    real = simplex.instance_for
    monkeypatch.setattr(simplex, "instance_for", lambda s: built.append(real(s)) or built[-1])
    assert classify(sys).verdict is verdict
    assert len(built) == 1


def test_identity_dump_prints_one_line_per_instance():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [_pysys.executable, str(root / "scripts" / "identity_dump.py"),
         "--workload", "bounded_planted", "--seeds", "3", "--digest"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert len(lines) == 256
    for workload, seed, name, verdict, classification, nodes, pivots, digest in lines:
        assert (workload, seed, classification) == ("bounded_planted", "3", "bounded")
        assert name.rsplit("_", 1)[1] == verdict and int(nodes) >= 1 and len(digest) == 64
        assert int(pivots) >= 0


def test_identity_dump_prints_deep_refutations_as_repr_does():
    # The dataclass repr recurses once per tree level; the dump's printer
    # gives the same text with a stack, also past the recursion limit.
    path = Path(__file__).resolve().parent.parent / "scripts" / "identity_dump.py"
    spec = importlib.util.spec_from_file_location("_identity_dump", path)
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    res = solve(parse(BAND.replace("(check-sat)", "(assert (<= 0 x))(assert (<= x 5))"
                                   "(assert (<= 0 y))(assert (<= y 5))(check-sat)")))
    assert isinstance(res.certificate, RefutationNode)
    sat = solve(mk_system([[1, 1]], [3], "qz"))

    def chain(depth):
        node = RefutationLeaf({0: Fraction(1, 3)}, {})
        for d in range(depth):
            node = RefutationNode(Cut((Fraction(1), Fraction(-1)), d), node,
                                  RefutationLeaf({1: Fraction(1)}, {d: Fraction(2)}))
        return node

    for witness in (res.certificate, sat.model, FarkasCertificate([Fraction(1), 0]), chain(40)):
        assert dump.witness_text(witness) == repr(witness)
    deep = chain(2000)
    with pytest.raises(RecursionError):
        repr(deep)
    text = dump.witness_text(deep)
    assert text.count("RefutationNode(") == 2000 and text.count("RefutationLeaf(") == 2001
    assert text.count("(") == text.count(")")


def test_kernels_match_the_reference_on_benchmark_traffic(monkeypatch):
    # Every column_reduce and hermite_normal_form call the pipeline makes,
    # through the bindings perfbench/tracing.py wraps, returns exactly what
    # the Fraction column steps of tests/helpers.py return, on the seed-1
    # scale_unbounded ladder and on slices of the other two workloads.
    workloads = _perfbench_module("workloads")
    calls, mismatches, transforms = [], [], []

    def checked(real, reference):
        def wrapper(h, *args):
            before = [h.copy(), *(a.copy() if hasattr(a, "rows") else a for a in args)]
            got = real(h, *args)
            want = reference(*before)
            calls.append(real.__name__)
            if not same_results(got, want):
                mismatches.append((real.__name__, before))
            return got
        return wrapper

    monkeypatch.setattr(mehnf, "column_reduce",
                        checked(mehnf.column_reduce, ref_column_reduce))
    monkeypatch.setattr(analysis, "column_reduce",
                        checked(analysis.column_reduce, ref_column_reduce))
    monkeypatch.setattr(mehnf, "hermite_normal_form",
                        checked(mehnf.hermite_normal_form, ref_hermite_normal_form))
    real_batch = solver.batch_mehnf
    monkeypatch.setattr(solver, "batch_mehnf",
                        lambda *a: transforms.append(real_batch(*a)) or transforms[-1])
    ladder = workloads.scale_unbounded(1).instances()
    texts = [inst.text for inst in ladder]
    texts += [inst.text for inst in workloads.bounded_planted(1, blocks=16).instances()]
    texts += [inst.text for inst in workloads.suite_mix(1, count=16).instances()]
    calls.clear()   # make_suites.py solves while it generates
    bits = []
    for i, text in enumerate(texts):
        transforms.clear()
        solve(parse(text))
        if i < len(ladder):
            bits.append(max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                            for _, v, _ in transforms for row in v.matrix.rows for x in row))
    assert not mismatches
    assert {"column_reduce", "hermite_normal_form"} <= set(calls) and len(calls) > 300
    # V's growth on the ladder is that of the same steps on Fractions.
    assert ladder[-1].name == "unbounded_n16" and bits[-1] == 36


def test_simplex_matches_the_reference_on_benchmark_traffic(monkeypatch):
    # Every tableau the pipeline builds, through the instance_for bindings
    # perfbench/tracing.py wraps, on the seed-1 scale_unbounded ladder and
    # a bounded_planted slice: the reference simplex of tests/helpers.py,
    # built on the same system and given the same calls, makes the same
    # pivots and returns the same conflicts, assignments and optima.
    workloads = _perfbench_module("workloads")
    built = []
    real_for = simplex.instance_for

    def instance_for(sys_):
        inst = real_for(sys_)
        inst.calls = []
        built.append((sys_, inst, [Fraction(*pair) for pair in inst._beta]))
        return inst

    monkeypatch.setattr(simplex, "instance_for", instance_for)
    monkeypatch.setattr(solver, "instance_for", instance_for)
    nested = []   # the calls in progress; only outermost ones are recorded
    for name in ("check", "push_bound", "pop_bound", "set_row_bounds", "_maximize"):
        def recorded(self, *args, real=getattr(SimplexInstance, name), name=name):
            nested.append(name)
            try:
                result = real(self, *args)
            finally:
                nested.pop()
            if not nested:
                tableau = (self.pivots, {bv: dict(row) for bv, row in self._tab.items()},
                           dict(self._den))
                self.calls.append((name, args, result, tableau,
                                   [Fraction(*pair) for pair in self._beta]))
            return result
        monkeypatch.setattr(SimplexInstance, name, recorded)
    texts = [inst.text for inst in workloads.scale_unbounded(1).instances()]
    texts += [inst.text for inst in workloads.bounded_planted(1, blocks=16).instances()]
    for text in texts:
        solve(parse(text))
    replayed = set()
    for sys_, inst, beta in built:
        ref = ref_instance_for(sys_)
        assert ref._beta == beta
        for name, args, result, tableau, beta in inst.calls:
            replayed.add(name)
            if name == "_maximize":
                obj, den = args
                name, args = "optimize_max", ({j: Fraction(c, den) for j, c in obj.items()},)
            assert getattr(ref, name)(*args) == result
            assert ((ref.pivots, ref._tab, ref._den), ref._beta) == (tableau, beta)
    assert replayed == {"check", "push_bound", "pop_bound", "set_row_bounds", "_maximize"}
    assert len(built) > 100 and sum(inst.pivots for _, inst, _ in built) > 500
