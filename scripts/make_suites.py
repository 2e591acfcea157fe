#!/usr/bin/env python3
"""Generate the four benchmark families into a directory tree.

    python3 scripts/make_suites.py --out benchmarks --seed 1 --count 25

Families:
    random_unbd      random partially unbounded satisfiable integer systems
    slacked          integer-infeasible band systems after slacking
    flipped_random   random_unbd with ~20% of the variables retyped rational
    flipped_slacked  slacked with ~20% of the variables retyped rational

Every file is reproducible from the seed; rerunning with the same
arguments rewrites byte-identical suites.
"""

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mehsolve.generators import GenParams, gen_flip, gen_random_unbounded, gen_slack
from mehsolve.linalg import Matrix
from mehsolve.model import ConstraintSystem, Sat, Unsat, VarInfo, VarKind
from mehsolve.smtlib import emit
from mehsolve.solver import solve


def band_unsat_instance(rng: random.Random, max_n=6) -> ConstraintSystem:
    """Rationally feasible but integer infeasible: an off-lattice band."""
    n = rng.randint(2, max_n)
    i, j = rng.sample(range(n), 2)
    k = rng.randint(2, 7)
    t = rng.randint(-4, 4)
    row = [Fraction(0)] * n
    row[i] = Fraction(k)
    row[j] = Fraction(-k)
    rows = [row, [-c for c in row]]
    bounds = [Fraction(k * (t + 1) - 1), Fraction(-(k * t + 1))]
    for other in range(n):
        if other not in (i, j) and rng.random() < 0.7:
            unit = [Fraction(0)] * n
            unit[other] = Fraction(1)
            lo = rng.randint(-4, 0)
            rows.append(unit)
            bounds.append(Fraction(lo + rng.randint(0, 5)))
            rows.append([-c for c in unit])
            bounds.append(Fraction(-lo))
    variables = [VarInfo(f"x{v}", VarKind.INTEGER) for v in range(n)]
    return ConstraintSystem(Matrix(rows), bounds, variables)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="benchmarks")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=25, help="instances per family")
    ap.add_argument("--max-vars", type=int, default=6)
    args = ap.parse_args()

    out = Path(args.out)
    rng = random.Random(args.seed)
    families = {name: [] for name in
                ("random_unbd", "slacked", "flipped_random", "flipped_slacked")}

    for i in range(args.count):
        n = rng.randint(2, args.max_vars)
        params = GenParams(
            seed=rng.randrange(2**31),
            n_vars=n,
            n_bounded=rng.randint(1, n - 1),
            n_unbounded=rng.randint(0, 2),
            coeff_bound=6,
        )
        inst = gen_random_unbounded(params)
        families["random_unbd"].append(inst)
        families["flipped_random"].append(
            gen_flip(inst, Fraction(1, 5), rng.randrange(2**31)))

        base = band_unsat_instance(rng, args.max_vars)
        if not isinstance(solve(base), Unsat):
            raise RuntimeError("base instance must be unsat")
        slacked = gen_slack(base)
        families["slacked"].append(slacked)
        families["flipped_slacked"].append(
            gen_flip(slacked, Fraction(1, 5), rng.randrange(2**31)))

    for family, instances in families.items():
        directory = out / family
        directory.mkdir(parents=True, exist_ok=True)
        for i, inst in enumerate(instances):
            (directory / f"{family}_{i:03d}.smt2").write_text(
                emit(inst), encoding="utf-8")
        print(f"{family}: {len(instances)} instances -> {directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
