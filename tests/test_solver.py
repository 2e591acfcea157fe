import math
import os
import random
import subprocess
import sys as _pysys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mehsolve.solver as solver
from mehsolve.analysis import InfeasibleSystemError, Verdict, classify, split
from mehsolve.bruteforce import brute_force_solve
from mehsolve.linalg import Matrix
from mehsolve.mehnf import batch_mehnf
from mehsolve.model import (
    Budget,
    ConstraintSystem,
    FarkasCertificate,
    Model,
    Sat,
    Unsat,
    check_certificate,
    check_model,
)
from mehsolve.simplex import check_feasible
from mehsolve.solver import (
    Cut,
    RefutationLeaf,
    RefutationNode,
    SolveOptions,
    StructureViolationError,
    VarBounds,
    branch_and_bound,
    check_refutation,
    mixed_extension,
    propagate_bounds,
    solve,
    transformed_system,
    unit_cube_test,
)

import corpus
from helpers import mk_system, ref_check_refutation, systems, transform_split


def band(kinds="zz", extra_rows=(), extra_bounds=()):
    rows = [[3, -3], [-3, 3]] + list(extra_rows)
    bounds = [2, -1] + list(extra_bounds)
    return mk_system(rows, bounds, kinds)


def boxed_equality(row, rhs, dropped=False):
    """row . x = rhs, written as a pair of rows, in the box [0, 4]^2.

    With dropped, a constant row 0 <= 1 comes first, which normalize drops.
    """
    rows = [row, [-a for a in row], [1, 0], [-1, 0], [0, 1], [0, -1]]
    bounds = [rhs, -rhs, 4, 0, 4, 0]
    if dropped:
        rows, bounds = [[0, 0]] + rows, [1] + bounds
    return mk_system(rows, bounds, "zz")


def _emptied(cert):
    """cert with every multiplier dropped: a witness that proves nothing."""
    if isinstance(cert, FarkasCertificate):
        return FarkasCertificate([Fraction(0)] * len(cert.y))
    return solver._map_tree(cert, lambda leaf: RefutationLeaf({}, {}), lambda cut: cut)


def assert_witness_holds(sys, res):
    if isinstance(res, Sat):
        assert check_model(sys, res.model)
    elif isinstance(res.certificate, FarkasCertificate):
        assert check_certificate(sys, res.certificate)
    else:
        assert check_refutation(sys, res.certificate)


class TestPropagateBounds:
    def test_single_pivot(self):
        out = propagate_bounds(Matrix([[3, 0]]), [1], [2])
        assert out.lower == {0: Fraction(1, 3)}
        assert out.upper == {0: Fraction(2, 3)}

    def test_two_step(self):
        out = propagate_bounds(Matrix([[1, 0], [1, 1]]), [0, 0], [1, 1])
        assert (out.lower[0], out.upper[0]) == (0, 1)
        assert (out.lower[1], out.upper[1]) == (-1, 1)

    def test_gap_column_absent(self):
        out = propagate_bounds(Matrix([[3, 0]]), [1], [2])
        assert 1 not in out.lower and 1 not in out.upper

    def test_requires_triangular_shape(self):
        with pytest.raises(StructureViolationError):
            propagate_bounds(Matrix([[0, 1], [1, 0]]), [0, 0], [1, 1])

    def test_negative_pivot(self):
        out = propagate_bounds(Matrix([[-2, 0]]), [-4], [6])
        assert (out.lower[0], out.upper[0]) == (-3, 2)

    def test_boxes_every_non_gap_column_of_the_mehnf(self):
        # The termination argument of the partially unbounded route: the
        # double-bounded MEHNF rows bound every column that occurs in them.
        rng = random.Random(20240311)
        for k in range(30):
            sys = corpus.partially_unbounded_instance(rng, mixed=k % 3 == 0)
            cls = classify(sys)
            assert cls.verdict is Verdict.PARTIALLY_UNBOUNDED
            sp = split(sys, cls)
            h, _, perm = batch_mehnf(sp.bounded.matrix, sys.n1)
            box = propagate_bounds(h, [sp.lower[i] for i in perm],
                                   [sp.bounded.bounds[i] for i in perm])
            for j in range(h.n):
                if any(row[j] for row in h.rows):
                    assert j in box.lower and j in box.upper
                    assert box.lower[j] <= box.upper[j]


class TestUnitCubeTest:
    def test_halfplane(self):
        model = unit_cube_test(mk_system([[1, 1]], [0], "zz"))
        assert model is not None
        assert check_model(mk_system([[1, 1]], [0], "zz"), model)

    def test_no_integer_vars_is_plain_lp(self):
        sys = mk_system([[1]], [Fraction(1, 2)], "q")
        model = unit_cube_test(sys)
        assert model is not None and check_model(sys, model)

    def test_tie_rounds_toward_minus_infinity(self):
        sys = mk_system([[1], [-1]], [1, 0], "z")
        model = unit_cube_test(sys)
        assert model is not None
        assert model.values == [0]

    def test_fails_when_widened_is_empty(self):
        sys = mk_system([[2], [-2]], [1, 0], "z")
        assert unit_cube_test(sys) is None

    @given(systems(max_m=5, max_n=3))
    @settings(max_examples=60)
    def test_rounded_model_satisfies_the_system(self, sys):
        # unit_cube_test returns its model unchecked: rounding moves each
        # row by at most what its bound was tightened by.
        model = unit_cube_test(sys)
        assume(model is not None)
        assert check_model(sys, model)


class TestBranchAndBound:
    def test_unit_interval(self):
        res = branch_and_bound(mk_system([[1], [-1]], [1, 0], "z"))
        assert isinstance(res, Sat)
        assert res.model.values[0] in (0, 1)

    def test_one_branch_pair_refutation(self):
        sys = mk_system([[3], [-3]], [2, -1], "z")
        res = branch_and_bound(sys)
        assert isinstance(res, Unsat)
        tree = res.certificate
        assert isinstance(tree, RefutationNode)
        assert tree.cut.value == 0
        assert isinstance(tree.low, RefutationLeaf)
        assert isinstance(tree.high, RefutationLeaf)
        assert check_refutation(sys, tree)

    def test_budget_on_divergent_input(self):
        res = branch_and_bound(band("zz"), options=SolveOptions(
            transforms_enabled=False, branch_limit=50))
        assert isinstance(res, Budget)
        assert res.stats.budget_reason == "branch-limit"

    def test_depth_limit_stops_a_divergent_dive(self, monkeypatch):
        monkeypatch.setattr(solver, "DEPTH_LIMIT", 5)
        res = solve(band("zz"), SolveOptions(transforms_enabled=False))
        assert isinstance(res, Budget)
        assert res.stats.budget_reason == "depth-limit"
        assert res.stats.nodes == 7  # a pure dive: node 7 lies 6 branches deep

    def test_extra_bounds_are_constraints(self):
        # x <= 10 with the box 1/2 <= x <= 3/4 written as rows: no integer.
        sys = mk_system([[1], [1], [-1]], [10, Fraction(3, 4), Fraction(-1, 2)], "z")
        res = branch_and_bound(sys)
        assert isinstance(res, Unsat)
        assert check_refutation(sys, res.certificate)
        good = branch_and_bound(mk_system([[1], [-1]], [10, 0], "z"))
        assert isinstance(good, Sat)
        assert 0 <= good.model.values[0] <= 10


class TestCheckRefutation:
    def test_rejects_cut_on_rational_column(self):
        sys = mk_system([[1, 1]], [0], "qz")
        bad = RefutationNode(
            Cut((Fraction(1), Fraction(0)), 0),
            RefutationLeaf({}, {}),
            RefutationLeaf({}, {}),
        )
        assert not check_refutation(sys, bad)

    def test_rejects_fractional_cut(self):
        sys = mk_system([[1, 1]], [0], "zz")
        bad = RefutationNode(
            Cut((Fraction(1, 2), Fraction(0)), 0),
            RefutationLeaf({}, {}),
            RefutationLeaf({}, {}),
        )
        assert not check_refutation(sys, bad)

    def test_rejects_wrong_leaf(self):
        sys = mk_system([[3], [-3]], [2, -1], "z")
        bad = RefutationNode(
            Cut((Fraction(1),), 0),
            RefutationLeaf({0: Fraction(1)}, {}),
            RefutationLeaf({1: Fraction(1)}, {}),
        )
        assert not check_refutation(sys, bad)

    def test_accepts_band_refutation(self):
        sys = mk_system([[3], [-3]], [2, -1], "z")
        good = RefutationNode(
            Cut((Fraction(1),), 0),
            # 3y >= 1 with y <= 0: (1/3) * (-3y <= -1) + 1 * (y <= 0).
            RefutationLeaf({1: Fraction(1, 3)}, {0: Fraction(1)}),
            # 3y <= 2 with y >= 1: (1/3) * (3y <= 2) + 1 * (-y <= -1).
            RefutationLeaf({0: Fraction(1, 3)}, {0: Fraction(1)}),
        )
        assert check_refutation(sys, good)

    def test_rejects_fractional_cut_value(self):
        # x = 1 with x integer is satisfiable.  Splitting at x <= 1/2 or
        # x >= 3/2 skips x = 1, and both leaves hold; only the value's
        # integrality rules the tree out.
        sys = mk_system([[1], [-1]], [1, -1], "z")
        assert isinstance(solve(sys), Sat)
        bogus = RefutationNode(Cut((Fraction(1),), Fraction(1, 2)),
                               RefutationLeaf({1: Fraction(1)}, {0: Fraction(1)}),
                               RefutationLeaf({0: Fraction(1)}, {0: Fraction(1)}))
        assert not check_refutation(sys, bogus)
        assert not ref_check_refutation(sys, bogus)

    @pytest.mark.parametrize("field, value", [
        ("value", 0.0), ("coeffs", (1.0,)), ("row_mults", {1: 1 / 3}), ("cut_mults", {0: 1.0})])
    def test_rejects_inexact_numbers(self, field, value):
        # The band refutation above with one number made a float.
        sys = mk_system([[3], [-3]], [2, -1], "z")
        cut = {"coeffs": (1,), "value": 0}
        low = {"row_mults": {1: Fraction(1, 3)}, "cut_mults": {0: 1}}
        assert check_refutation(sys, RefutationNode(
            Cut(**cut), RefutationLeaf(**low), RefutationLeaf({0: Fraction(1, 3)}, {0: 1})))
        (cut if field in cut else low)[field] = value
        assert not check_refutation(sys, RefutationNode(
            Cut(**cut), RefutationLeaf(**low), RefutationLeaf({0: Fraction(1, 3)}, {0: 1})))

    def test_rejects_shared_nodes(self):
        # 16 levels, each node's one child both low and high: 2**16 paths
        # through 17 objects.  Walked path by path, its check took over a
        # second; it is rejected at the first object met twice.
        sys = mk_system([[1], [-1]], [0, -1], "z")
        node = RefutationLeaf({0: Fraction(1), 1: Fraction(1)}, {})
        for _ in range(16):
            node = RefutationNode(Cut((Fraction(1),), 0), node, node)
        started = time.monotonic()
        assert not check_refutation(sys, node)
        assert time.monotonic() - started < 0.5

    def test_rejects_a_cycle(self):
        # A node that is its own child: the check must end.  In a
        # subprocess, so that a check that does not end fails the test.
        code = ("from fractions import Fraction\n"
                "from mehsolve.model import ConstraintSystem, VarInfo, VarKind\n"
                "from mehsolve.linalg import Matrix\n"
                "from mehsolve.solver import Cut, RefutationLeaf, RefutationNode, check_refutation\n"
                "sys = ConstraintSystem(Matrix([[1], [-1]]), [0, -1], [VarInfo('x', VarKind.INTEGER)])\n"
                "leaf = RefutationLeaf({0: Fraction(1), 1: Fraction(1)}, {})\n"
                "node = RefutationNode(Cut((Fraction(1),), 0), leaf, leaf)\n"
                "node.low = node\n"
                "print(check_refutation(sys, node))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([_pysys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


def boxed_band(k, lo, hi, n):
    """lo <= k x - k y <= hi inside the box [0, n]^2."""
    return mk_system([[k, -k], [-k, k], [1, 0], [-1, 0], [0, 1], [0, -1]],
                     [hi, -lo, n, 0, n, 0], "zz")


def mixed_boxed_band(k, lo, hi, n):
    """lo <= q + k x - k y <= hi with rational q in [0, 1/2] and x, y in [0, n]."""
    return mk_system([[1, k, -k], [-1, -k, k], [1, 0, 0], [-1, 0, 0],
                      [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                     [hi, -lo, Fraction(1, 2), 0, n, 0, n, 0], "qzz")


def _walk(tree):
    """(node, depth) for every node of a refutation tree, without recursion."""
    out, work = [], [(tree, 0)]
    while work:
        node, depth = work.pop()
        out.append((node, depth))
        if isinstance(node, RefutationNode):
            work += [(node.high, depth + 1), (node.low, depth + 1)]
    return out


def _copy(tree):
    return solver._map_tree(
        tree, lambda leaf: RefutationLeaf(dict(leaf.row_mults), dict(leaf.cut_mults)),
        lambda cut: cut)


def _refuted_instances():
    """(system, refutation tree) pairs from branch-and-bound and solve."""
    out = []
    for k, lo, hi, n in [(3, 1, 2, 4), (4, 1, 3, 6), (5, 2, 4, 3), (3, 1, 2, 9),
                         (2, 1, 1, 5), (6, 7, 11, 4), (7, 1, 6, 2), (4, 5, 7, 7)]:
        for build in (boxed_band, mixed_boxed_band):
            sys = build(k, lo, hi, n)
            res = branch_and_bound(sys)
            assert isinstance(res, Unsat) and isinstance(res.certificate, RefutationNode)
            out.append((sys, res.certificate))
    rng = random.Random(20240722)
    while len(out) < 40:
        sys = corpus.band_unsat_instance(rng, max_n=4)
        res = solve(sys)
        if isinstance(res, Unsat) and isinstance(res.certificate, RefutationNode):
            out.append((sys, res.certificate))
    return out


def _opposite_rows(sys):
    """Rows i, k with a_i = -a_k and b_i + b_k >= 0: y A keeps its value when
    both multipliers move by the same amount."""
    for i, row in enumerate(sys.matrix.rows):
        for k in range(i + 1, sys.m):
            if (sys.matrix.rows[k] == [-a for a in row]
                    and sys.bounds[i] + sys.bounds[k] >= 0):
                return i, k
    raise ValueError("no pair of opposite rows")


def _corruptions(sys, tree, rng):
    """Copies of a valid tree, each with one planted fault.

    Each fault leaves the rest of the tree as it was, and where it can, it
    keeps y A = 0 and y b < 0, so only the check made for that fault can
    catch it.
    """
    nodes = _walk(tree)
    leaves = [(leaf, d) for leaf, d in nodes if isinstance(leaf, RefutationLeaf)]
    inner = [(node, d) for node, d in nodes if isinstance(node, RefutationNode)]

    def pick(kind, index):
        """A fresh copy of the tree and its index-th node of the given kind."""
        copy = _copy(tree)
        return copy, [x for x, _ in _walk(copy) if isinstance(x, kind)][index]

    out = []
    # Row i written as its negative alias i - m, or an extra row m.
    i = rng.choice([j for j, (leaf, _) in enumerate(leaves) if leaf.row_mults])
    bad, leaf = pick(RefutationLeaf, i)
    key = rng.choice(list(leaf.row_mults))
    leaf.row_mults[key - sys.m] = leaf.row_mults.pop(key)
    out.append(("row index out of range", bad))
    bad, leaf = pick(RefutationLeaf, i)
    leaf.row_mults[sys.m] = Fraction(1)
    out.append(("row index out of range", bad))

    # Both rows of an opposite pair lowered by t: one multiplier turns
    # negative, y A stays 0 and y b does not grow.
    r, k = _opposite_rows(sys)
    bad, leaf = pick(RefutationLeaf, rng.randrange(len(leaves)))
    t = max(leaf.row_mults.get(r, 0), leaf.row_mults.get(k, 0)) + 1
    for q in (r, k):
        leaf.row_mults[q] = leaf.row_mults.get(q, Fraction(0)) - t
    out.append(("negative multiplier", bad))

    # The same pair raised until y b = 0.
    j = rng.randrange(len(leaves))
    bad, leaf = pick(RefutationLeaf, j)
    width = sys.bounds[r] + sys.bounds[k]
    if width > 0:
        yb = sum(y * sys.bounds[q] for q, y in leaves[j][0].row_mults.items())
        yb += sum(y * _side(tree, leaves[j][0], d) for d, y in leaves[j][0].cut_mults.items())
        for q in (r, k):
            leaf.row_mults[q] = leaf.row_mults.get(q, Fraction(0)) - yb / width
        out.append(("y b = 0", bad))

    # A cut multiplier on the leaf's own depth, or on depth d written as
    # its negative alias d - depth.
    i = rng.randrange(len(leaves))
    bad, leaf = pick(RefutationLeaf, i)
    depth = leaves[i][1]
    if leaf.cut_mults and rng.random() < 0.5:
        key = rng.choice(list(leaf.cut_mults))
        leaf.cut_mults[key - depth] = leaf.cut_mults.pop(key)
    else:
        leaf.cut_mults[depth] = Fraction(1)
    out.append(("cut multiplier off the path", bad))

    # Swapping is a fault when a leaf below the low side uses that side.
    swappable = [j for j, (node, d) in enumerate(inner)
                 if any(x.cut_mults.get(d) for x, _ in _walk(node.low)
                        if isinstance(x, RefutationLeaf))]
    if swappable:
        bad, node = pick(RefutationNode, rng.choice(swappable))
        node.low, node.high = node.high, node.low
        out.append(("swapped subtrees", bad))

    nonzero = [(j, q) for j, (leaf, _) in enumerate(leaves)
               for q, y in leaf.row_mults.items() if y and any(sys.matrix.rows[q])]
    j, q = rng.choice(nonzero)
    bad, leaf = pick(RefutationLeaf, j)
    leaf.row_mults[q] *= 2
    out.append(("y A != 0", bad))

    # A new root cut that no leaf uses, with a non-zero rational
    # coefficient or a fractional integer one, over two copies of the tree.
    coeffs = [Fraction(0)] * sys.n
    if sys.n1 and rng.random() < 0.5:
        coeffs[rng.randrange(sys.n1)] = Fraction(1)
    else:
        coeffs[rng.randrange(sys.n1, sys.n)] = Fraction(1, 2)
    deeper = [solver._map_tree(
        tree, lambda leaf: RefutationLeaf(
            dict(leaf.row_mults), {d + 1: y for d, y in leaf.cut_mults.items()}),
        lambda cut: cut) for _ in range(2)]
    out.append(("rational-column or fractional cut",
                RefutationNode(Cut(tuple(coeffs), 0), *deeper)))
    return out


def _side(tree, target, depth):
    """The bound of the active side of the cut at depth on target's path."""
    work = [(tree, [])]
    while work:
        node, path = work.pop()
        if node is target:
            return path[depth]
        if isinstance(node, RefutationNode):
            work.append((node.low, path + [Fraction(node.cut.value)]))
            work.append((node.high, path + [Fraction(-(node.cut.value + 1))]))
    raise ValueError("leaf not in tree")


def _perturbed(tree, rng):
    """A copy with one multiplier replaced at random: valid or not."""
    copy = _copy(tree)
    leaf = rng.choice([x for x, _ in _walk(copy) if isinstance(x, RefutationLeaf)])
    mults = rng.choice([leaf.row_mults, leaf.cut_mults])
    key = rng.choice(list(mults) or [0])
    mults[key] = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
    return copy


class TestCheckRefutationAgainstReference:
    """``check_refutation`` decides as the per-leaf system copy it replaced."""

    def test_real_and_corrupted_trees(self):
        rng = random.Random(20240723)
        instances = _refuted_instances()
        assert any(sys.n1 for sys, _ in instances)
        assert max(d for _, tree in instances for _, d in _walk(tree)) >= 3
        planted = set()
        for sys, tree in instances:
            assert check_refutation(sys, tree) and ref_check_refutation(sys, tree)
            for fault, bad in _corruptions(sys, tree, rng):
                planted.add(fault)
                assert not ref_check_refutation(sys, bad), fault
                assert not check_refutation(sys, bad), fault
            for _ in range(4):
                other = _perturbed(tree, rng)
                assert check_refutation(sys, other) == ref_check_refutation(sys, other)
        assert len(planted) == 7

    def test_single_leaf(self):
        sys = mk_system([[1], [-1]], [0, -1], "z")
        good = RefutationLeaf({0: Fraction(1), 1: Fraction(1)}, {})
        for leaf in (good, RefutationLeaf(dict(good.row_mults), {0: Fraction(1)})):
            assert check_refutation(sys, leaf) == ref_check_refutation(sys, leaf)
        assert check_refutation(sys, good)

    def test_deep_boxed_band(self):
        # The depth-first tree of the band at N = 1,000 has 4,001 nodes and
        # a path 2,000 cuts deep.  Its check reads each leaf's support only,
        # so it stays linear in the tree, and it walks the tree with a
        # stack: it passes under a recursion limit far below the depth.
        sys = boxed_band(3, 1, 2, 1000)
        started = time.monotonic()
        res = solve(sys)
        elapsed = time.monotonic() - started
        assert isinstance(res, Unsat) and res.stats.nodes == 4001
        assert elapsed < 2.0
        assert max(d for _, d in _walk(res.certificate)) == 2000
        frame, frames = _pysys._getframe(), 0
        while frame is not None:
            frame, frames = frame.f_back, frames + 1
        limit = _pysys.getrecursionlimit()
        _pysys.setrecursionlimit(frames + 50)
        try:
            assert check_refutation(sys, res.certificate)
        finally:
            _pysys.setrecursionlimit(limit)


def _same_polyhedron(sys, rng):
    """sys with its rows scaled by positive integers, with one row repeated,
    and with its rows shuffled: the same solutions, other row lists."""
    rows, bounds = sys.matrix.rows, sys.bounds
    scales = [rng.randint(1, 5) for _ in rows]
    twice = rng.randrange(sys.m)
    order = rng.sample(range(sys.m), sys.m)
    for picked, mults in (
            (range(sys.m), scales),
            ([*range(sys.m), twice], [1] * (sys.m + 1)),
            (order, [1] * sys.m)):
        yield ConstraintSystem(Matrix([[k * a for a in rows[i]] for i, k in zip(picked, mults)]),
                               [k * bounds[i] for i, k in zip(picked, mults)],
                               sys.variables, sys.user_perm)


def test_verdict_and_classification_ignore_how_rows_are_written():
    # Scaled, repeated and reordered rows change the form table's scales,
    # its rows per form and its order, never the polyhedron: the verdict
    # and the classification stay.
    rng = random.Random(20261021)
    families = [corpus.bounded_instance, corpus.absolutely_unbounded_instance,
                corpus.partially_unbounded_instance, corpus.band_unsat_instance]
    seen = set()
    for _ in range(8):
        for family in families:
            sys = family(rng)
            res = solve(sys)
            want = (type(res), res.stats.classification)
            seen.add(want)
            for variant in _same_polyhedron(sys, rng):
                res = solve(variant)
                assert_witness_holds(variant, res)
                assert (type(res), res.stats.classification) == want
    assert {cls for _, cls in seen} >= {"bounded", "absolutely-unbounded",
                                        "partially-unbounded"}
    assert {verdict for verdict, _ in seen} == {Sat, Unsat}


class TestMixedExtension:
    def test_band_with_free_row_rational(self):
        sys = band("qq", [[1, 1]], [10])
        cls = classify(sys)
        sp = split(sys, cls)
        h, v, perm = transform_split(sys, sp)
        upper = [sp.bounded.bounds[i] for i in perm]
        lower = [sp.lower[i] for i in perm]
        tsys = transformed_system(sys, h.rows[:sp.bounded.m], lower, upper)
        res = branch_and_bound(tsys)
        assert isinstance(res, Sat)
        full_model = mixed_extension(v, h, res.model, sp.unbounded.bounds)
        assert check_model(sys, full_model)

    def test_empty_unbounded_part_passes_through(self):
        sys = band("qq")
        cls = classify(sys)
        sp = split(sys, cls)
        h, v, perm = transform_split(sys, sp)
        t = Model([Fraction(1, 2), Fraction(0)])
        if check_model(transformed_system(sys, h.rows[:sp.bounded.m],
                                          [sp.lower[i] for i in perm],
                                          [sp.bounded.bounds[i] for i in perm]), t):
            out = mixed_extension(v, h, t, sp.unbounded.bounds)
            assert out.values == v.apply(t.values)

    def test_integer_gap_columns(self):
        sys = band("zz", [[1, 1]], [10])
        res = solve(sys)
        assert isinstance(res, Unsat)
        rat = band("qq", [[1, 1]], [10])
        res2 = solve(rat)
        assert isinstance(res2, Sat)
        assert check_model(rat, res2.model)


class TestSolve:
    def test_band_integer_unsat(self):
        res = solve(band("zz"))
        assert isinstance(res, Unsat)
        assert res.stats.classification == "partially-unbounded"
        assert check_refutation(band("zz"), res.certificate)

    def test_band_rational_sat(self):
        res = solve(band("qq"))
        assert isinstance(res, Sat)
        assert check_model(band("qq"), res.model)

    def test_halfplane_integer_sat_via_cube(self):
        res = solve(mk_system([[1, 1]], [0], "zz"))
        assert isinstance(res, Sat)
        assert res.stats.classification == "absolutely-unbounded"

    @pytest.mark.parametrize("limit", ["branch_limit", "time_budget"])
    def test_nan_limit_rejected(self, limit):
        # A NaN deadline never expires: time.monotonic() > nan is False.
        with pytest.raises(ValueError):
            SolveOptions(**{limit: math.nan})

    def test_band_without_transforms_budgets(self):
        res = solve(band("zz"), SolveOptions(transforms_enabled=False, branch_limit=1000))
        assert isinstance(res, Budget)

    def test_bounded_box(self):
        sys = mk_system([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                        [1, 0, 1, 0, 1], "zz")
        res = solve(sys)
        assert isinstance(res, Sat)
        assert res.stats.classification == "bounded"

    def test_trivially_unsat(self):
        sys = mk_system([[0, 0], [1, 1]], [-2, 4], "zz")
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert isinstance(res.certificate, FarkasCertificate)
        assert check_certificate(sys, res.certificate)

    def test_rationally_infeasible(self):
        sys = mk_system([[1], [-1]], [0, -1], "z")
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert isinstance(res.certificate, FarkasCertificate)
        assert check_certificate(sys, res.certificate)

    @pytest.mark.parametrize("transforms", [True, False])
    def test_rational_infeasibility_is_checked_once(self, transforms):
        # x + y <= 1, x >= 1, y >= 1: classification (transforms on) or the
        # root node of branch-and-bound (off) finds the LP infeasibility and
        # returns check_feasible's certificate.
        sys = mk_system([[1, 1], [-1, 0], [0, -1]], [1, -1, -1], "qz")
        res = solve(sys, SolveOptions(transforms_enabled=transforms))
        assert isinstance(res, Unsat)
        assert res.certificate == check_feasible(sys).certificate
        assert res.stats.classification is None
        assert res.stats.nodes == (0 if transforms else 1)

    @pytest.mark.parametrize("rows, bounds", [
        ([[0, 0], [3, -3], [0, 0], [-3, 3]], [1, 2, 0, -1]),   # refutation
        ([[0, 0], [1, 1], [0, 0], [-1, 0], [0, -1]], [1, 1, 0, -1, -1]),  # Farkas
    ])
    def test_unsat_witness_maps_past_dropped_rows(self, rows, bounds):
        # normalize drops the constant rows 0 and 2; the witness found on
        # the remaining rows must name rows of the input.
        sys = mk_system(rows, bounds, "zz")
        res = solve(sys)
        assert isinstance(res, Unsat)
        if isinstance(res.certificate, FarkasCertificate):
            assert check_certificate(sys, res.certificate)
            assert res.certificate.y[0] == res.certificate.y[2] == 0
        else:
            assert check_refutation(sys, res.certificate)

    @staticmethod
    def _count_refutation_checks(monkeypatch) -> list:
        checked = []

        def counting(system, refutation):
            checked.append(system)
            return check_refutation(system, refutation)

        monkeypatch.setattr(solver, "check_refutation", counting)
        return checked

    def test_bounded_unsat_is_checked_once(self, monkeypatch):
        # 1 <= 3x <= 2: branch-and-bound returns its refutation unchecked,
        # and solve checks it once, against the input.
        checked = self._count_refutation_checks(monkeypatch)
        sys = mk_system([[3], [-3]], [2, -1], "z")
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert res.stats.classification == "bounded"
        assert len(checked) == 1 and checked[0] is sys
        assert check_refutation(sys, res.certificate)

    def test_bounded_unsat_past_dropped_row_is_checked_once_on_the_input(self, monkeypatch):
        # With a constant row dropped, the refutation of the normalized
        # system is pulled back and checked once, against the input.
        checked = self._count_refutation_checks(monkeypatch)
        sys = mk_system([[0], [3], [-3]], [1, 2, -1], "z")
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert len(checked) == 1 and checked[0] is sys
        assert check_refutation(sys, res.certificate)

    @pytest.mark.parametrize("sys, classification", [
        (mk_system([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], "zz"), "bounded"),
        (mk_system([[1, 1]], [0], "zz"), "absolutely-unbounded"),
        (band("qz", [[1, 1]], [10]), "partially-unbounded"),
    ])
    def test_sat_model_is_checked_once_on_the_input(self, monkeypatch, sys, classification):
        # Branch-and-bound, the unit cube test and the mixed extension
        # return their models unchecked; solve checks each once, against
        # the input.
        checked = []

        def counting(system, model):
            checked.append(system)
            return check_model(system, model)

        monkeypatch.setattr(solver, "check_model", counting)
        res = solve(sys)
        assert isinstance(res, Sat)
        assert res.stats.classification == classification
        assert sum(1 for system in checked if system is sys) == 1
        assert check_model(sys, res.model)

    @pytest.mark.parametrize("dropped", [False, True])
    def test_bounded_equality_unsat_is_checked_once_on_the_input(self, monkeypatch, dropped):
        # 3x - 3y = 1: one branch on the transformed variable refutes it.
        # The refutation over A V is converted onto the normalized system,
        # pulled back past a dropped row, and checked once, against the
        # input.
        checked = self._count_refutation_checks(monkeypatch)
        sys = boxed_equality([3, -3], 1, dropped)
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert res.stats.classification == "bounded" and res.stats.nodes == 3
        assert len(checked) == 1 and checked[0] is sys
        assert check_refutation(sys, res.certificate)

    @pytest.mark.parametrize("dropped", [False, True])
    def test_bounded_equality_sat_is_checked_once_on_the_input(self, monkeypatch, dropped):
        # x + 2y = 3: branch-and-bound's model over A V is not checked;
        # the model V y is checked once, against the input.
        checked = []

        def counting(system, model):
            checked.append(system)
            return check_model(system, model)

        monkeypatch.setattr(solver, "check_model", counting)
        sys = boxed_equality([1, 2], 3, dropped)
        res = solve(sys)
        assert isinstance(res, Sat)
        assert res.stats.classification == "bounded"
        assert len(checked) == 1 and checked[0] is sys
        assert check_model(sys, res.model)

    @staticmethod
    def _corrupt(monkeypatch, name, corrupt) -> list:
        """Make solver.<name> return corrupt(its result); list its calls."""
        calls = []
        phase = getattr(solver, name)

        def corrupted(*args, **kwargs):
            calls.append(args)
            return corrupt(phase(*args, **kwargs))

        monkeypatch.setattr(solver, name, corrupted)
        return calls

    def test_bad_branch_and_bound_model_is_caught(self, monkeypatch):
        # Bounded, no equalities: branch-and-bound's model is the answer.
        sys = mk_system([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], "zz")
        cls = classify(sys)
        assert cls.verdict is Verdict.BOUNDED and not cls.equalities
        calls = self._corrupt(monkeypatch, "branch_and_bound", lambda res: Sat(
            Model([x + 2 for x in res.model.values]), res.stats))
        with pytest.raises(solver.InternalSoundnessError):
            solve(sys)
        assert len(calls) == 1

    @pytest.mark.parametrize("sys", [boxed_equality([3, -3], 1), band("zz", [[1, 1]], [10])],
                             ids=["bounded-equality", "partially-unbounded"])
    def test_bad_branch_and_bound_refutation_is_caught(self, monkeypatch, sys):
        # On both transformed routes the refutation over the transformed
        # system is converted, never checked, before it reaches solve.
        calls = self._corrupt(monkeypatch, "branch_and_bound", lambda res: Unsat(
            _emptied(res.certificate), res.stats))
        with pytest.raises(solver.InternalSoundnessError):
            solve(sys)
        assert len(calls) == 1

    def test_bad_unit_cube_model_is_caught(self, monkeypatch):
        # Absolutely unbounded: a rounded coordinate is left off the grid.
        sys = mk_system([[1, 1]], [0], "zz")
        calls = self._corrupt(monkeypatch, "unit_cube_test", lambda model: Model(
            [model.values[0] + Fraction(1, 2)] + model.values[1:]))
        with pytest.raises(solver.InternalSoundnessError):
            solve(sys)
        assert len(calls) == 1

    @pytest.mark.parametrize("sys", [boxed_equality([3, -3], 1), band("zz", [[1, 1]], [10])],
                             ids=["bounded-equality", "partially-unbounded"])
    def test_bad_converted_certificate_is_caught(self, monkeypatch, sys):
        calls = self._corrupt(monkeypatch, "convert_certificate", _emptied)
        with pytest.raises(solver.InternalSoundnessError):
            solve(sys)
        assert len(calls) == 1

    @pytest.mark.parametrize("sys, expected", [
        (band("qq", [[1, 1]], [10]), Sat),            # unbounded part rides along
        (mk_system([[1, -1], [-1, 1]], [0, 0], "zz"), Sat),  # empty unbounded part
        (mk_system([[2, -2], [-2, 2]], [1, -1], "zz"), Unsat),  # refuted by a cut
        (boxed_equality([3, -3], 1), Unsat),          # bounded with an equality
    ])
    def test_no_dense_matrix_product(self, monkeypatch, sys, expected):
        # The transformed rows come out of the column steps of batch_mehnf;
        # no phase multiplies two matrices.
        def refuse(*args):
            raise AssertionError("dense matrix product in the pipeline")

        monkeypatch.setattr(Matrix, "__mul__", refuse)
        res = solve(sys)
        monkeypatch.undo()
        assert isinstance(res, expected)
        if expected is Sat:
            assert check_model(sys, res.model)
        else:
            assert check_refutation(sys, res.certificate)

    def test_wrong_extended_model_is_caught(self, monkeypatch):
        monkeypatch.setattr(solver, "mixed_extension",
                            lambda v, h, t, ride_bounds=(): Model([Fraction(0), Fraction(0)]))
        with pytest.raises(solver.InternalSoundnessError):
            solve(band("qz", [[1, 1]], [10]))

    def test_mixed_band_unsat_with_conversion(self):
        # Integer band plus a free row: the refutation must survive the
        # mapping back through the transformation and the implied lower
        # bound expansion.
        sys = band("zz", [[1, 1]], [10])
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert check_refutation(sys, res.certificate)

    @given(systems(max_m=5, max_n=3))
    @settings(max_examples=60)
    def test_random_small_systems(self, sys):
        res = solve(sys)
        assert not isinstance(res, Budget)
        assert_witness_holds(sys, res)

    @given(systems(max_m=4, max_n=3))
    @settings(max_examples=40)
    def test_transform_agreement(self, sys):
        off = solve(sys, SolveOptions(transforms_enabled=False,
                                      branch_limit=2000, time_budget=5.0))
        if isinstance(off, Budget):
            return
        on = solve(sys)
        assert type(on) is type(off)


@st.composite
def boxed_equality_systems(draw):
    """A box over 1 to 4 mixed variables, 0 to 2 random rows and 1 or 2
    equality pairs, rows shuffled; returns (system, box).

    Rows are planted around an integer point of the box; the equalities'
    right-hand sides are moved off it by 0 or by a fraction, so that both
    Sat and Unsat (often by a gcd argument) come up.
    """
    n = draw(st.integers(1, 4))
    n1 = draw(st.integers(0, min(2, n - 1)))
    lo = [draw(st.integers(-2, 1)) for _ in range(n)]
    hi = [a + draw(st.integers(0, 3)) for a in lo]
    point = [draw(st.integers(a, b)) for a, b in zip(lo, hi)]
    coeffs = st.lists(st.integers(-4, 4), min_size=n, max_size=n).filter(any)
    rows, bounds = [], []
    for j in range(n):
        unit = [int(k == j) for k in range(n)]
        rows += [unit, [-a for a in unit]]
        bounds += [hi[j], -lo[j]]
    for _ in range(draw(st.integers(0, 2))):
        a = draw(coeffs)
        rows.append(a)
        bounds.append(sum(c * x for c, x in zip(a, point)) + draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(1, 2))):
        a = draw(coeffs)
        rhs = sum(c * x for c, x in zip(a, point)) + draw(st.sampled_from(
            [Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]))
        rows += [a, [-c for c in a]]
        bounds += [rhs, -rhs]
    order = draw(st.permutations(range(len(rows))))
    sys = mk_system([rows[i] for i in order], [bounds[i] for i in order],
                    "q" * n1 + "z" * (n - n1))
    box = VarBounds({j: Fraction(lo[j]) for j in range(n1, n)},
                    {j: Fraction(hi[j]) for j in range(n1, n)})
    return sys, box


class TestBoundedEqualities:
    """Bounded systems with explicit equalities are searched in y = V^-1 x."""

    @given(boxed_equality_systems())
    @settings(max_examples=80)
    def test_matches_grid_enumeration(self, case):
        sys, box = case
        res = solve(sys)
        oracle_sat, _ = brute_force_solve(sys, box)
        assert isinstance(res, Sat) == oracle_sat
        assert_witness_holds(sys, res)
        if res.stats.classification is not None:
            assert res.stats.classification == "bounded"
            assert res.stats.transform_seconds > 0

    def test_boxed_systems_without_equalities_search_as_before(self):
        # No equality pair: the same branch-and-bound run on the same rows.
        rng = random.Random(20261018)
        compared = 0
        for _ in range(100):
            sys = corpus.bounded_instance(rng)
            try:
                if classify(sys).equalities:
                    continue
            except InfeasibleSystemError:
                continue
            res, plain = solve(sys), branch_and_bound(sys)
            assert type(res) is type(plain)
            assert res.stats.nodes == plain.stats.nodes
            assert res.stats.transform_seconds == 0
            if isinstance(res, Sat):
                assert res.model == plain.model
            else:
                assert res.certificate == plain.certificate
            compared += 1
        assert compared >= 40

    def test_gcd_equality_is_refuted_by_one_branch(self):
        # The Unsat quarter of the bounded benchmark in miniature: the
        # equality's coefficients are multiples of 3, its right-hand side
        # is not.  Plain branch-and-bound needs a large tree here.
        rows = [[3, -3, 3], [-3, 3, -3]]
        bounds = [4, -4]
        for j in range(3):
            unit = [int(k == j) for k in range(3)]
            rows += [unit, [-a for a in unit]]
            bounds += [4, 0]
        sys = mk_system(rows, bounds, "zzz")
        res = solve(sys)
        assert isinstance(res, Unsat) and res.stats.nodes == 3
        assert check_refutation(sys, res.certificate)
        assert branch_and_bound(sys).stats.nodes > 3


class TestIdentityTransformConversion:
    def test_unsat_with_identity_v(self):
        # The bounded part [[2,0],[-2,0]] is already in normal form, so the
        # transformation matrix is the identity and certificate conversion
        # reduces to reindexing (plus lower-bound expansion).
        sys = mk_system([[2, 0], [-2, 0], [1, 1]], [1, -1, 5], "zz")
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert res.stats.classification == "partially-unbounded"
        assert check_refutation(sys, res.certificate)
        tree = res.certificate
        assert isinstance(tree, RefutationNode)
        assert tree.cut.coeffs == (1, 0)
        assert tree.cut.value == 0


class TestDifferentialAgainstEnumeration:
    @given(systems(max_m=5, max_n=3))
    @settings(max_examples=40)
    def test_solve_matches_grid_enumeration(self, sys):
        from mehsolve.bruteforce import BoxTooLargeError, brute_force_solve
        from mehsolve.simplex import Optimal, optimize

        box = VarBounds()
        for j in sys.integer_columns():
            e = [Fraction(0)] * sys.n
            e[j] = Fraction(1)
            lo = optimize(sys, e, "min")
            hi = optimize(sys, e, "max")
            if not (isinstance(lo, Optimal) and isinstance(hi, Optimal)):
                return
            box.lower[j] = lo.value
            box.upper[j] = hi.value
        try:
            oracle_sat, _ = brute_force_solve(sys, box, limit=20000)
        except BoxTooLargeError:
            return
        res = solve(sys)
        assert isinstance(res, Sat) == oracle_sat
