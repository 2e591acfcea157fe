"""Command line interface: solve, classify, transform, gen, bench.

Exit codes for ``solve``: 0 sat, 1 unsat, 2 budget, 3 parse or usage
error.  The default per-solve time budget comes from MEH_SOLVE_TIMEOUT
(seconds) when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys as _sys
from fractions import Fraction
from pathlib import Path

from .analysis import InfeasibleSystemError, classify
from .bench import bench_directory, format_report
from .generators import GenParams, gen_flip, gen_random_unbounded, gen_slack
from .linalg import format_matrix
from .mehnf import batch_mehnf
from .model import (
    FarkasCertificate,
    Sat,
    TriviallyUnsat,
    Unsat,
    format_certificate,
    format_model,
    normalize,
)
from .smtlib import ParseError, emit, parse_file
from .solver import RefutationLeaf, SolveOptions, solve


EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_BUDGET = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _default_timeout() -> float:
    raw = os.environ.get("MEH_SOLVE_TIMEOUT")
    if not raw:
        return 60.0
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"MEH_SOLVE_TIMEOUT={raw!r} is not a number") from None


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="meh-solve",
                  description="decision procedure for linear mixed constraints")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide satisfiability of a problem file")
    p.add_argument("file")
    p.add_argument("--no-transform", action="store_true",
                   help="run branch-and-bound on the raw system")
    p.add_argument("--model", action="store_true", help="print a model when sat")
    p.add_argument("--cert", action="store_true", help="print a certificate when unsat")
    p.add_argument("--stats", action="store_true", help="print solver statistics")
    p.add_argument("--branch-limit", type=int, default=10**6)
    p.add_argument("--timeout", type=float, default=None, help="seconds")

    p = sub.add_parser("classify", help="report the boundedness classification")
    p.add_argument("file")

    p = sub.add_parser("transform", help="print H, V and the row permutation")
    p.add_argument("file")

    g = sub.add_parser("gen", help="generate benchmark files")
    gsub = g.add_subparsers(dest="generator", required=True)

    p = gsub.add_parser("slack", help="replace variables by non-negative differences")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = gsub.add_parser("flip", help="randomly retype integer variables rational")
    p.add_argument("file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--probability", default="1/5",
                   help="flip probability as a rational, default 1/5")
    p.add_argument("-o", "--output", default=None)

    p = gsub.add_parser("random", help="random partially unbounded instances")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vars", type=int, default=4)
    p.add_argument("--bounded", type=int, default=2)
    p.add_argument("--unbounded", type=int, default=1)
    p.add_argument("--coeff-bound", type=int, default=9)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("-o", "--output", default=None,
                   help="file, or directory when --count > 1")

    p = sub.add_parser("bench", help="run every .smt2 file in a directory")
    p.add_argument("directory")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timeout", type=float, default=None, help="seconds per instance")
    p.add_argument("--no-transform", action="store_true")
    return top


def format_refutation(sys, refutation) -> str:
    """Readable rendering of a branch refutation tree."""
    lines = []
    work = [(refutation, 0, "")]
    while work:
        node, depth, label = work.pop()
        pad = "  " * depth
        if isinstance(node, RefutationLeaf):
            mults = [f"row {i} * {m}" for i, m in sorted(node.row_mults.items()) if m]
            mults += [f"cut {d} * {m}" for d, m in sorted(node.cut_mults.items()) if m]
            lines.append(f"{pad}{label}leaf: {' + '.join(mults) if mults else 'empty'}")
        else:
            term = " + ".join(
                f"{c}*{sys.variables[j].name}"
                for j, c in enumerate(node.cut.coeffs) if c)
            lines.append(f"{pad}{label}split {term} at {node.cut.value}")
            work.append((node.high, depth + 1, f">= {node.cut.value + 1}: "))
            work.append((node.low, depth + 1, f"<= {node.cut.value}: "))
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    system = parse_file(args.file)
    timeout = args.timeout if args.timeout is not None else _default_timeout()
    options = SolveOptions(
        transforms_enabled=not args.no_transform,
        branch_limit=args.branch_limit,
        time_budget=timeout,
    )
    result = solve(system, options)
    if isinstance(result, Sat):
        print("sat")
        if args.model:
            _sys.stdout.write(format_model(system, result.model))
        code = EXIT_SAT
    elif isinstance(result, Unsat):
        print("unsat")
        if args.cert:
            if isinstance(result.certificate, FarkasCertificate):
                _sys.stdout.write(format_certificate(system, result.certificate))
            else:
                _sys.stdout.write(format_refutation(system, result.certificate))
        code = EXIT_UNSAT
    else:
        print("budget")
        code = EXIT_BUDGET
    if args.stats:
        s = result.stats
        print(f"; nodes: {s.nodes}")
        print(f"; lp-pivots: {s.lp_pivots}")
        print(f"; classification: {s.classification or 'skipped'}")
        print(f"; transform-seconds: {s.transform_seconds:.6f}")
        print(f"; total-seconds: {s.total_seconds:.6f}")
        if s.budget_reason:
            print(f"; budget-reason: {s.budget_reason}")
    return code


def _cmd_classify(args) -> int:
    norm = normalize(parse_file(args.file))
    if isinstance(norm, TriviallyUnsat):
        print("infeasible")
        return 0
    system, kept = norm
    try:
        cls = classify(system)
    except InfeasibleSystemError:
        print("infeasible")
        return 0
    print(cls.verdict.value)
    print("bounded-rows:", " ".join(
        str(kept[i]) for i in sorted(cls.bounded_rows)))
    print("bounded-vars:",
          " ".join(system.variables[j].name for j in sorted(cls.bounded_vars)))
    return 0


def _cmd_transform(args) -> int:
    system = parse_file(args.file)
    h, v, perm = batch_mehnf(system.matrix, system.n1)
    print("H")
    _sys.stdout.write(format_matrix(h))
    print("V")
    _sys.stdout.write(format_matrix(v.matrix))
    print("row-permutation")
    print(" ".join(str(i) for i in perm))
    return 0


def _write_output(text: str, output) -> None:
    if output is None:
        _sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_gen(args) -> int:
    if args.generator == "slack":
        out = gen_slack(parse_file(args.file))
        _write_output(emit(out), args.output)
        return 0
    if args.generator == "flip":
        out = gen_flip(parse_file(args.file), Fraction(args.probability), args.seed)
        _write_output(emit(out), args.output)
        return 0
    params = GenParams(
        seed=args.seed,
        n_vars=args.vars,
        n_bounded=args.bounded,
        n_unbounded=args.unbounded,
        coeff_bound=args.coeff_bound,
    )
    if args.count == 1:
        _write_output(emit(gen_random_unbounded(params)), args.output)
        return 0
    if args.output is None:
        raise ParseError("--count > 1 requires --output DIRECTORY")
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        inst = gen_random_unbounded(dataclasses.replace(params, seed=params.seed + i))
        (outdir / f"random_{params.seed + i}.smt2").write_text(
            emit(inst), encoding="utf-8")
    return 0


def _cmd_bench(args) -> int:
    timeout = args.timeout if args.timeout is not None else _default_timeout()
    options = SolveOptions(
        transforms_enabled=not args.no_transform,
        time_budget=timeout,
    )
    rows = bench_directory(args.directory, options, jobs=args.jobs)
    _sys.stdout.write(format_report(rows))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
