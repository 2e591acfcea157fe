#!/usr/bin/env python3
"""Print one line per benchmark instance: verdict, classification, work, witness.

    python3 scripts/identity_dump.py --seeds 1 2 3 > after.txt
    python3 scripts/identity_dump.py --workload suite_mix --seeds 1 --digest

Generates each workload of ``perfbench/workloads.py`` at the given seeds,
solves every instance with this checkout's sources and prints
``workload seed name verdict classification nodes pivots witness``, where
``pivots`` is the summed ``SimplexInstance.pivots`` of every tableau the
solve built and the witness is the ``repr`` of the model, certificate or
refutation (with ``--digest``, the SHA-256 of that ``repr``).  Refutation
trees are printed without recursion, with exactly ``repr``'s text, so
that trees deeper than the recursion limit print too.  Tableaux are
collected by wrapping the ``instance_for`` bindings the pipeline calls, as
``perfbench/tracing.py`` does.  Copy the script into another checkout and
diff the two outputs: identical output means identical verdicts, witnesses
and pivot counts.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (puts the checkout's src/ on the path)
from mehsolve import simplex, smtlib, solver  # noqa: E402
from mehsolve.model import Budget, Sat  # noqa: E402
from mehsolve.solver import RefutationNode  # noqa: E402


def collect_tableaux() -> list:
    """Wrap every ``instance_for`` binding; return the list it appends to."""
    tableaux = []
    build = simplex.instance_for

    def collecting(sys_):
        inst = build(sys_)
        tableaux.append(inst)
        return inst

    simplex.instance_for = solver.instance_for = collecting
    return tableaux


def witness_text(witness) -> str:
    """``repr(witness)``, built with a stack instead of recursion into subtrees."""
    parts = []
    work = [witness]
    while work:
        item = work.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, RefutationNode):
            work += [")", item.high, ", high=", item.low,
                     f"{type(item).__qualname__}(cut={item.cut!r}, low="]
        else:
            parts.append(repr(item))
    return "".join(parts)


def dump_line(workload: str, seed: int, inst, digest: bool, tableaux: list) -> str:
    tableaux.clear()
    res = solver.solve(smtlib.parse(inst.text))
    pivots = sum(t.pivots for t in tableaux)
    if isinstance(res, Budget):
        verdict, witness = "budget", repr(res.stats.budget_reason)
    elif isinstance(res, Sat):
        verdict, witness = "sat", witness_text(res.model)
    else:
        verdict, witness = "unsat", witness_text(res.certificate)
    if digest:
        witness = hashlib.sha256(witness.encode()).hexdigest()
    return (f"{workload} {seed} {inst.name} {verdict} {res.stats.classification} "
            f"{res.stats.nodes} {pivots} {witness}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=tuple(workloads.GENERATORS),
                    help="workload to dump (repeatable; default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--digest", action="store_true",
                    help="print the SHA-256 of each witness repr instead of the repr")
    args = ap.parse_args()
    tableaux = collect_tableaux()
    for name in args.workload or workloads.GENERATORS:
        for seed in args.seeds:
            for inst in workloads.GENERATORS[name](seed).instances():
                print(dump_line(name, seed, inst, args.digest, tableaux), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
