#!/usr/bin/env python3
"""mehsolve benchmark: verified verdicts per second, end to end and per layer.

    python3 perfbench/run.py --workload suite_mix --seed 1 --seconds 20 --trace 0

Generates the workload from the seed as SMT-LIB text (timed as set-up),
then drives the public API in one process with one client in a closed
loop: ``smtlib.parse``, ``solver.solve``, next instance.  Reported times
are normalized to a reference loop timed around each span (see
``normalized``); the raw times are printed too.  Outside the
timed span every verdict is checked against the answer known from
construction, and every model, certificate or refutation is re-checked on
a fresh parse of the instance with ``check_model``, ``check_certificate``
or ``check_refutation``.  A wrong verdict fails the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` solves every
block twice, untraced and then with per-layer timing wrappers installed,
for half of ``--seconds`` of untraced solving, and prints the per-layer
metrics, the tracing overhead and the share of traced time no layer
accounts for.  The last line of output is one JSON object: correct,
attempted, failed and metrics.

Exit status: 0 on success, 1 on a wrong verdict, a non-deterministic
generator or an under-covered trace, 2 when the program under test cannot
be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# A checkout without the program's sources must end with an error status,
# not a traceback, so a failed import is remembered and reported by main().
try:
    import workloads  # first: puts the checkout's src/ on the path
    import tracing
    import mehsolve
    from mehsolve import smtlib, solver
    from mehsolve.model import Budget, FarkasCertificate, Sat, check_certificate, check_model
    from mehsolve.solver import RefutationLeaf, RefutationNode, SolveOptions, check_refutation
except ImportError as exc:
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None

# Set-up runs at least three times; a set-up shorter than a few tenths of
# a second repeats until SETUP_MIN_SECONDS, so its median is steady too.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
TIME_BUDGET_S = 30.0
# On a shared 2-core Xeon VM the same code runs up to 1.8x slower for 10
# to 20 s at a time, as other tenants come and go, so raw times of
# identical runs spread by 30%.  Every timed span is therefore
# divided by the time of a fixed reference loop measured around it (see
# ``normalized``) and multiplied by REFERENCE_S: a reported time is what
# the span takes on a machine, or in a moment, where the loop takes
# REFERENCE_S.
REFERENCE_S = 0.001
# The traced run fails above this share of unattributed time: the
# per-layer table could then not explain a change.
UNATTRIBUTED_LIMIT = 0.05


@dataclass
class Record:
    name: str
    seconds: float      # normalized by the reference loop
    raw_seconds: float
    outcome: str        # "sat", "unsat" or "undecided"


def reference_seconds() -> float:
    """Best of three timings of a fixed loop of Fraction arithmetic (~1 ms).

    The loop does what the solver's inner loops do, Fraction products and
    sums kept in a dict, without calling the program under test, so its
    time follows the machine's speed and nothing else.
    """
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        acc: dict[int, Fraction] = {}
        total = Fraction(0)
        for i in range(1, 130):
            f = Fraction(i % 13 + 1, i % 7 + 2)
            total += f * f
            acc[i % 17] = acc.get(i % 17, Fraction(0)) + f
        best = min(best, perf_counter() - started)
    return best


def normalized(raw_times, refs):
    """Normalize each raw time by the reference timings around it.

    ``refs[i]`` is timed just before ``raw_times[i]`` and ``refs[i + 1]``
    just after.  The median of the six timings around a span is used, so
    that one timing disturbed by a short burst of load does not skew it.
    """
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - 2):i + 4])
            for i, t in enumerate(raw_times)]


class Checker:
    """Checks each result outside the timed span against a fresh parse."""

    def __init__(self):
        self.references = {}
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def __call__(self, inst, result) -> str:
        if isinstance(result, Exception):
            self.errors.append(f"{inst.name}: " + "".join(traceback.format_exception(result)))
            return "undecided"
        if isinstance(result, Budget):
            return "undecided"
        ref = self.references.get(inst.name)
        if ref is None:
            ref = self.references[inst.name] = smtlib.parse(inst.text)
        if isinstance(result, Sat):
            verdict, ok = "sat", check_model(ref, result.model)
        else:
            verdict = "unsat"
            cert = result.certificate
            if isinstance(cert, FarkasCertificate):
                ok = check_certificate(ref, cert)
            else:
                ok = check_refutation(ref, cert)
        if inst.expected is not None and verdict != inst.expected:
            self.wrong.append(f"{inst.name}: {verdict}, construction says {inst.expected}")
        elif not ok:
            self.wrong.append(f"{inst.name}: {verdict} witness fails its check")
        return verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if IMPORT_ERROR is not None:
        print(f"error: cannot load the program under test: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(mehsolve.__file__).resolve().parent != ROOT / "src" / "mehsolve":
        print(f"error: mehsolve loaded from {mehsolve.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.GENERATORS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.GENERATORS)}")

    print_header(args)
    build = workloads.GENERATORS[args.workload]
    setup_raw = []
    refs = [reference_seconds()]
    workload = None
    while len(setup_raw) < SETUP_REPEATS or (
            sum(setup_raw) < SETUP_MIN_SECONDS and len(setup_raw) < SETUP_MAX_REPEATS):
        started = perf_counter()
        built = build(args.seed)
        setup_raw.append(perf_counter() - started)
        refs.append(reference_seconds())
        if workload is not None and built != workload:
            print("error: the same seed generated different SMT-LIB", file=sys.stderr)
            return 1
        workload = built
    setup_s = statistics.median(normalized(setup_raw, refs))
    print(f"# instances: {len(workload.instances())} in {len(workload.blocks)} blocks; "
          f"{len(setup_raw)} set-up runs, raw median {statistics.median(setup_raw):.3f} s")

    options = SolveOptions(time_budget=TIME_BUDGET_S)
    checker = Checker()
    tracer = tracing.Tracer() if args.trace else None
    gc.collect()
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    records, traced = closed_loop(workload, untraced_seconds, options, checker, tracer)

    if tracer is None:
        metrics = end_to_end(records, setup_s, workload.tail_percentile)
        print_solved_profile(records)
        outcomes = [r.outcome for r in records]
        correct = not checker.wrong
    else:
        metrics = per_layer(tracer, traced, records)
        write_spans(tracer, args)
        outcomes = [outcome for _, outcome, _, _ in traced]
        unattributed = metrics["trace.unattributed_frac"][0]
        coverage_ok = unattributed <= UNATTRIBUTED_LIMIT
        if not coverage_ok:
            print(f"error: {unattributed:.1%} of traced time is unattributed "
                  f"(limit {UNATTRIBUTED_LIMIT:.0%})", file=sys.stderr)
        correct = not checker.wrong and coverage_ok

    for line in checker.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    for line in checker.errors[:5]:
        print(f"undecided by exception: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": outcomes.count("undecided"),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def closed_loop(workload, seconds, options, checker, tracer=None):
    """Solve block after block, cycling, until ``seconds`` of solving are done.

    The reference loop is timed before the first solve and after each one.

    With a tracer, each block is solved a second time with the wrappers
    installed right after its untraced solves, so that the traced and the
    untraced times of a block are taken under the same machine load.
    Returns the untraced records and the traced results.
    """
    records = []
    traced = []
    refs = [reference_seconds()]
    measured = 0.0
    while measured < seconds:
        for block in workload.blocks:
            for inst in block:
                started = perf_counter()
                result = _solve(inst, options)
                elapsed = perf_counter() - started
                refs.append(reference_seconds())
                measured += elapsed
                records.append(Record(inst.name, 0.0, elapsed, checker(inst, result)))
            if tracer is not None:
                traced.extend(traced_pass(block, options, checker, tracer))
            if measured >= seconds:
                break
    for rec, seconds in zip(records, normalized([r.raw_seconds for r in records], refs)):
        rec.seconds = seconds
    return records, traced


def _solve(inst, options):
    try:
        return solver.solve(smtlib.parse(inst.text), options)
    except Exception as exc:  # counted as undecided, reported by the checker
        return exc


def traced_pass(instances, options, checker, tracer):
    """Solve the instances with the tracing wrappers installed.

    Returns (name, outcome, branch-and-bound nodes, refutation leaves) per
    instance.
    """
    out = []
    with tracer.installed():
        for inst in instances:
            tracer.begin()
            result = _solve(inst, options)
            tracer.end()
            nodes = getattr(getattr(result, "stats", None), "nodes", 0)
            leaves = _leaves(getattr(result, "certificate", None))
            out.append((inst.name, checker(inst, result), nodes, leaves))
    return out


def _leaves(cert) -> int:
    if not isinstance(cert, RefutationNode):
        return 0
    count = 0
    work = [cert]
    while work:
        node = work.pop()
        if isinstance(node, RefutationLeaf):
            count += 1
        else:
            work.append(node.low)
            work.append(node.high)
    return count


def end_to_end(records, setup_s, tail_percentile):
    decided = sum(r.outcome != "undecided" for r in records)

    def timings(seconds):
        ms = sorted(t * 1000 for t in seconds)
        tail = statistics.quantiles(ms, n=100, method="inclusive")[tail_percentile - 1]
        return decided / sum(seconds), statistics.median(ms), tail, sum(t > tail for t in ms)

    throughput, p50, tail, beyond = timings([r.seconds for r in records])
    raw = timings([r.raw_seconds for r in records])
    print(f"# solves: {len(records)} in {sum(r.raw_seconds for r in records):.3f} s "
          f"of solving; tail at p{tail_percentile} with {beyond} samples beyond it")
    print(f"# raw times: throughput_ips {raw[0]:.6g} 1/s, solve_ms.p50 {raw[1]:.6g} ms, "
          f"solve_ms.tail {raw[2]:.6g} ms")
    return {
        "throughput_ips": (throughput, "1/s"),
        "solve_ms.p50": (p50, "ms"),
        "solve_ms.tail": (tail, "ms"),
        "decided_frac": (decided / len(records), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, records):
    """Layer metrics of the traced solves; times normalized like the run's."""
    untraced = sum(r.raw_seconds for r in records)
    scale = sum(r.seconds for r in records) / untraced
    metrics = {name: (value * scale if unit == "s/inst" else value, unit)
               for name, (value, unit) in tracer.layer_metrics().items()}
    per = 1 / max(len(traced), 1)
    metrics["solver.branch_and_bound.nodes"] = (sum(t[2] for t in traced) * per, "1/inst")
    metrics["solver.refutation.leaves"] = (sum(t[3] for t in traced) * per, "1/inst")
    wall = tracer.wall_seconds()
    metrics["trace.overhead_frac"] = (wall / untraced - 1, "frac")
    print(f"# traced {tracer.instances} instances: {wall:.3f} s traced, "
          f"{untraced:.3f} s untraced, {len(tracer.names)} spans")
    return dict(sorted(metrics.items()))


def write_spans(tracer, args) -> None:
    """Write every span as one JSON line to perfbench/.work/."""
    out_dir = Path(__file__).resolve().parent / ".work"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, root in tracer.spans():
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "instance": root}) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")


def print_solved_profile(records) -> None:
    """The cumulative solved profile: time to solve k instances, each k."""
    times = sorted(r.seconds for r in records if r.outcome != "undecided")
    print("# solved profile (k: cumulative seconds)")
    total = 0.0
    row = []
    for k, t in enumerate(times, 1):
        total += t
        row.append(f"{k}:{total:.4f}")
        if len(row) == 10:
            print("#   " + " ".join(row))
            row = []
    if row:
        print("#   " + " ".join(row))


def print_header(args) -> None:
    print(f"# mehsolve benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# python {platform.python_version()} ({platform.python_implementation()}), "
          f"nproc {os.cpu_count()}, cpu {_cpu_model()}")
    print(f"# commit {_git_commit()}, per-instance time_budget {TIME_BUDGET_S:g} s")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
