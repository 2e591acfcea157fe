"""The benchmark's workloads, generated from a seed and emitted as SMT-LIB.

A workload is a list of blocks; a block is a short list of instances that
is run as a unit, so that a run always ends on a balanced mix (one
instance of each suite family, three Sat and one Unsat bounded instance,
or the whole size ladder).  Every instance carries the verdict known from
its construction, or None when the construction does not fix one.

Generation goes through the repository's own generators and scripts, so
the benchmark cannot drift from them:

* ``suite_mix`` runs ``scripts/make_suites.py`` into a scratch directory
  inside the checkout and reads the four families back;
* ``scale_unbounded`` calls ``gen_random_unbounded``;
* ``bounded_planted`` is the benchmark's own generator (below).
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / ".work"
# Measure the checkout's own sources, never an installed copy.
if sys.path[0] != str(ROOT / "src"):
    sys.path.insert(0, str(ROOT / "src"))

from mehsolve.generators import GenParams, gen_random_unbounded  # noqa: E402
from mehsolve.linalg import Matrix  # noqa: E402
from mehsolve.model import ConstraintSystem, VarInfo, VarKind  # noqa: E402
from mehsolve.smtlib import emit  # noqa: E402

# suite_mix: instances per family.  Per-family sets of 25 moved their
# median twofold between identical runs, so all four families are pooled
# into one list large enough for a steady median and tail.
SUITE_COUNT = 100
# random_unbd has a planted anchor point and flipping a variable to
# rational only relaxes a system, so both are sat; slacking keeps the
# integer-infeasible band unsat; flipped_slacked has no known answer.
SUITE_ANSWERS = {"random_unbd": "sat", "slacked": "unsat",
                 "flipped_random": "sat", "flipped_slacked": None}

# scale_unbounded: the size ladder, one instance per size from a fixed
# generator seed.  A single large solve varies by +-20% between generator
# seeds and generating one costs seconds (the generator classifies and
# solves), so a seeded ladder cannot be both steady and affordable; the
# fixed ladder keeps the size axis comparable between runs.  An odd number
# of sizes puts the median on one size (12) and p70 on another (14)
# however many passes a run makes.  n = 20 is left out: its 3 to 4 s solve
# and 5 to 10 s generation left a run three passes, too few for a steady
# median.
SCALE_SIZES = (8, 10, 12, 14, 16)
SCALE_GENERATOR_SEED = 1

# bounded_planted: n integer variables boxed in [0, U], a dense equality
# band and one extra inequality row; every fourth instance is unsat by a
# gcd argument (band coefficients all multiples of G, right-hand side not).
BOUNDED_VARS = 5
BOUNDED_BOX = 4
BOUNDED_GCD = 3
BOUNDED_BLOCKS = 64


@dataclass(frozen=True)
class Instance:
    name: str
    text: str                 # SMT-LIB
    expected: str | None      # "sat", "unsat" or None when unknown


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: tuple[tuple[Instance, ...], ...]
    # The tail is reported at a fixed percentile per workload that leaves
    # at least ten samples beyond it in a run of the committed length.  A
    # percentile that followed the sample count would change meaning
    # whenever a faster program fits more solves into a run.
    tail_percentile: int

    def instances(self) -> list[Instance]:
        return [inst for block in self.blocks for inst in block]


def _load_make_suites():
    path = ROOT / "scripts" / "make_suites.py"
    spec = importlib.util.spec_from_file_location("make_suites", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def suite_mix(seed: int, count: int = SUITE_COUNT) -> Workload:
    """The four make_suites.py families, interleaved one of each per block."""
    make_suites = _load_make_suites()
    WORK_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="suites-", dir=WORK_DIR))
    argv = sys.argv
    try:
        sys.argv = ["make_suites.py", "--out", str(out), "--seed", str(seed),
                    "--count", str(count)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = make_suites.main()
        if status != 0:
            raise RuntimeError(f"make_suites.py exited with {status}")
        families = {
            family: sorted((out / family).glob("*.smt2"))
            for family in SUITE_ANSWERS
        }
        blocks = []
        for i in range(count):
            blocks.append(tuple(
                Instance(files[i].stem, files[i].read_text(encoding="utf-8"),
                         SUITE_ANSWERS[family])
                for family, files in families.items()))
    finally:
        sys.argv = argv
        shutil.rmtree(out, ignore_errors=True)
    return Workload("suite_mix", tuple(blocks), 95)


def scale_unbounded(seed: int, sizes=SCALE_SIZES) -> Workload:
    """gen_random_unbounded with n_bounded = n_unbounded = n/2 per size.

    The ladder does not depend on ``seed`` (see SCALE_GENERATOR_SEED).
    """
    del seed
    block = []
    for n in sizes:
        system = gen_random_unbounded(GenParams(
            seed=SCALE_GENERATOR_SEED, n_vars=n,
            n_bounded=n // 2, n_unbounded=n // 2))
        block.append(Instance(f"unbounded_n{n}", emit(system), "sat"))
    return Workload("scale_unbounded", (tuple(block),), 70)


def bounded_planted(seed: int, blocks: int = BOUNDED_BLOCKS) -> Workload:
    """Boxed integer systems: three planted Sat instances, then one gcd Unsat."""
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        block = []
        for k in range(4):
            unsat = k == 3
            system = _bounded_instance(rng, unsat)
            name = f"bounded_{4 * b + k:03d}_{'unsat' if unsat else 'sat'}"
            block.append(Instance(name, emit(system), "unsat" if unsat else "sat"))
        out.append(tuple(block))
    return Workload("bounded_planted", tuple(out), 85)


def _bounded_instance(rng: random.Random, unsat: bool) -> ConstraintSystem:
    n, u, g = BOUNDED_VARS, BOUNDED_BOX, BOUNDED_GCD
    if unsat:
        # Band coefficients +-g with balanced signs, right-hand side off the
        # lattice g*Z.  The anchor is the box centre, so the rational point
        # anchor + r/a_k e_k is inside the box and the system stays
        # rationally feasible; the branch-and-bound tree then has to cover
        # the band's whole slice, which is about equally large every time.
        anchor = [u // 2] * n
        band = [g] * n
        for j in rng.sample(range(n), n // 2):
            band[j] = -g
        r = rng.randint(1, g - 1)
        rhs = _dot(band, anchor) + r
        k = rng.randrange(n)
        point = [Fraction(v) for v in anchor]
        point[k] += Fraction(r, band[k])
    else:
        anchor = [rng.randint(0, u) for _ in range(n)]
        band = [rng.choice((-1, 1)) * rng.randint(1, 2 * g) for _ in range(n)]
        rhs = _dot(band, anchor)
        point = [Fraction(v) for v in anchor]
    extra = [0] * n
    while not any(extra):
        extra = [rng.randint(-3, 3) for _ in range(n)]
    # Half a box of slack: the extra row trims a corner of the box, never
    # half of the band's slice, so the Unsat trees stay of similar size.
    extra_rhs = _dot(extra, point) + sum(abs(c) for c in extra) * u // 2
    extra_bound = extra_rhs.numerator // extra_rhs.denominator + rng.randint(1, 3)

    rows = [band, [-c for c in band], extra]
    bounds = [rhs, -rhs, extra_bound]
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        rows.append(unit)
        bounds.append(u)
        rows.append([-c for c in unit])
        bounds.append(0)
    return ConstraintSystem(
        Matrix([[Fraction(c) for c in row] for row in rows]),
        [Fraction(b) for b in bounds],
        [VarInfo(f"x{j}", VarKind.INTEGER) for j in range(n)])


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


GENERATORS = {
    "suite_mix": suite_mix,
    "scale_unbounded": scale_unbounded,
    "bounded_planted": bounded_planted,
}
