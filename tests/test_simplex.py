import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mehsolve.simplex as simplex
from mehsolve.analysis import classify, split
from mehsolve.generators import GenParams, gen_random_unbounded
from mehsolve.linalg import Matrix, int_row
from mehsolve.model import FarkasCertificate, check_certificate
from mehsolve.smtlib import parse
from mehsolve.solver import SolveStats, Unsat, branch_and_bound
from mehsolve.simplex import (
    EmptyStackError,
    Feasible,
    Infeasible,
    Optimal,
    SimplexInstance,
    UnboundedDirection,
    check_feasible,
    optimize,
    optimize_each,
)

from helpers import RefSimplexInstance, mk_system, systems


class TestCheckFeasible:
    def test_interval(self):
        sys = mk_system([[1], [-1]], [1, 0], "q")
        res = check_feasible(sys)
        assert isinstance(res, Feasible)
        assert 0 <= res.point[0] <= 1

    def test_empty_interval(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        res = check_feasible(sys)
        assert isinstance(res, Infeasible)
        assert check_certificate(sys, res.certificate)

    def test_band(self):
        sys = mk_system([[3, -3], [-3, 3]], [2, -1], "qq")
        res = check_feasible(sys)
        assert isinstance(res, Feasible)
        x1, x2 = res.point
        assert 1 <= 3 * x1 - 3 * x2 <= 2

    @given(systems())
    def test_soundness(self, sys):
        res = check_feasible(sys)
        if isinstance(res, Feasible):
            lhs = sys.matrix.mul_vec(res.point)
            assert all(v <= b for v, b in zip(lhs, sys.bounds))
        else:
            assert check_certificate(sys, res.certificate)

    @given(systems())
    def test_repair_visits_no_basis_twice(self, sys):
        # Bland's rule never returns to a basis, so one check() makes at
        # most as many pivots as there are bases; moving the entering
        # variable the wrong way breaks that and loops.
        inst = _PivotCapped(sys.n)
        for i in range(sys.m):
            inst.add_row(sys.matrix.rows[i], sys.bounds[i], "row", i)
        inst.cap = math.comb(len(inst._beta), len(inst._tab))
        conflict = inst.check()
        assert (conflict is None) == isinstance(check_feasible(sys), Feasible)


class _PivotCapped(SimplexInstance):
    """Fails on more pivots than bases, or on a pivot that breaks the tableau."""

    cap = 0

    def _pivot(self, bv, j):
        assert self.pivots < self.cap, "more pivots than bases"
        assert_tableau_invariants(self)
        super()._pivot(bv, j)
        assert_tableau_invariants(self)


class TestOptimize:
    def test_interval_max(self):
        sys = mk_system([[1], [-1]], [1, 0], "q")
        res = optimize(sys, [1], "max")
        assert isinstance(res, Optimal)
        assert res.value == 1
        assert res.point == [1]

    def test_halfline_unbounded(self):
        sys = mk_system([[-1]], [0], "q")
        res = optimize(sys, [1], "max")
        assert isinstance(res, UnboundedDirection)
        assert res.ray == [1]

    def test_cone_probe(self):
        sys = mk_system([[3, -3], [-3, 3]], [0, 0], "qq")
        res = optimize(sys, [3, -3], "max")
        assert isinstance(res, Optimal)
        assert res.value == 0
        res = optimize(sys, [3, -3], "min")
        assert isinstance(res, Optimal)
        assert res.value == 0

    def test_infeasible(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        res = optimize(sys, [1], "max")
        assert isinstance(res, Infeasible)
        assert check_certificate(sys, res.certificate)

    def test_rejects_zero_objective(self):
        sys = mk_system([[1]], [1], "q")
        with pytest.raises(ValueError):
            optimize(sys, [0], "max")

    @given(systems(max_m=4, max_n=3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    def test_min_equals_negated_max(self, sys, h):
        h = [Fraction(v) for v in h[: sys.n]]
        if not any(h):
            return
        lo = optimize(sys, h, "min")
        hi = optimize(sys, [-v for v in h], "max")
        assert type(lo) is type(hi)
        if isinstance(lo, Optimal):
            assert lo.value == -hi.value

    @given(systems(max_m=6, max_n=3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    def test_duality_spot_check(self, sys, h):
        # Compare against brute-force vertex enumeration.
        h = [Fraction(v) for v in h[: sys.n]]
        if not any(h):
            return
        res = optimize(sys, h, "max")
        if not isinstance(res, Optimal):
            return
        for vertex in _vertices(sys):
            obj = sum(a * b for a, b in zip(h, vertex))
            assert obj <= res.value

    @given(systems(max_m=4, max_n=3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    @example(mk_system([[1, 0]], [0], "zz"), [0, 1, 0])
    def test_cone_optimum_is_zero(self, sys, h):
        # Optimal at 0, or a ray of the cone along which h grows.
        h = [Fraction(v) for v in h[: sys.n]]
        if not any(h):
            return
        cone = mk_system(sys.matrix.rows, [0] * sys.m,
                         "q" * sys.n1 + "z" * sys.n2)
        res = optimize(cone, h, "max")
        assert isinstance(res, (Optimal, UnboundedDirection))
        if isinstance(res, Optimal):
            assert res.value == 0
        else:
            assert all(v <= 0 for v in cone.matrix.mul_vec(res.ray))
            assert sum(a * r for a, r in zip(h, res.ray)) > 0


class TestOptimizeEach:
    @given(systems(max_m=5, max_n=3),
           st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any),
                    min_size=1, max_size=4),
           st.sampled_from(["min", "max"]))
    def test_matches_separate_optimizations(self, sys, objectives, sense):
        # Re-optimizing from the previous basis reaches the same outcome
        # and optimum as a fresh tableau per objective.
        objectives = [h[: sys.n] for h in objectives if any(h[: sys.n])]
        shared = optimize_each(sys, [int_row(h) for h in objectives], sense)
        assert len(shared) == len(objectives)
        for h, res in zip(objectives, shared):
            alone = optimize(sys, h, sense)
            assert type(res) is type(alone)
            if isinstance(res, Optimal):
                assert res.value == alone.value
                assert sum(a * x for a, x in zip(h, res.point)) == res.value

    def test_one_tableau(self, monkeypatch):
        built = []
        real = simplex.instance_for
        monkeypatch.setattr(simplex, "instance_for", lambda s: built.append(s) or real(s))
        sys = mk_system([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], "qq")
        res = optimize_each(sys, sys.int_rows, "min")
        assert [r.value for r in res] == [0, -1, 0, -1]
        assert len(built) == 1


def _vertices(sys):
    """All basic feasible points: intersections of n tight rows."""
    for subset in itertools.combinations(range(sys.m), sys.n):
        a = Matrix([sys.matrix.rows[i] for i in subset])
        if a.det() == 0:
            continue
        point = a.invert().mul_vec([sys.bounds[i] for i in subset])
        lhs = sys.matrix.mul_vec(point)
        if all(v <= b for v, b in zip(lhs, sys.bounds)):
            yield point


class TestPushPop:
    def test_push_conflict_then_pop(self):
        inst = SimplexInstance(1)
        inst.add_row([Fraction(1)], Fraction(1), "row", 0)
        assert inst.check() is None
        inst.push_bound(0, "lo", Fraction(2), "branch", 1)
        conflict = inst.check()
        assert conflict is not None
        srcs = sorted((src.kind, src.index, mult) for src, mult in conflict)
        assert srcs == [("branch", 1, 1), ("row", 0, 1)]
        inst.pop_bound()
        assert inst.check() is None

    def test_pop_restores_the_replaced_bound(self):
        inst = SimplexInstance(2)
        inst.add_row([Fraction(1), Fraction(1)], Fraction(4), "row", 0)
        inst.push_bound(0, "lo", Fraction(3), "branch", 0)
        inst.push_bound(1, "lo", Fraction(1), "branch", 1)
        assert inst.check() is None
        inst.push_bound(1, "lo", Fraction(0), "branch", 2)  # looser: no change
        inst.push_bound(0, "lo", Fraction(4), "branch", 3)
        assert inst.check() is not None
        inst.pop_bound()
        inst.pop_bound()
        assert inst.check() is None
        inst.push_bound(0, "lo", Fraction(4), "branch", 2)
        assert inst.check() is not None  # x1 >= 1 is back

    def test_pop_empty_raises(self):
        inst = SimplexInstance(1)
        with pytest.raises(EmptyStackError):
            inst.pop_bound()
        inst.add_row([Fraction(1)], Fraction(1), "row", 0)
        with pytest.raises(EmptyStackError):
            inst.pop_bound()

    def test_rows_come_before_bounds(self):
        inst = SimplexInstance(1)
        inst.push_bound(0, "up", Fraction(1), "branch", 0)
        with pytest.raises(ValueError):
            inst.add_row([Fraction(1)], Fraction(0), "row", 0)

    def test_tautologies(self):
        inst = SimplexInstance(2)
        for i in range(5):
            inst.add_row([Fraction(0), Fraction(0)], Fraction(i), "row", i)
            assert inst.check() is None

    def test_zero_row_contradiction(self):
        inst = SimplexInstance(1)
        inst.add_row([Fraction(0)], Fraction(-1), "row", 7)
        conflict = inst.check()
        assert conflict is not None and conflict[0][0].index == 7

    @given(systems(max_m=5, max_n=3), st.permutations(range(5)))
    def test_push_order_is_irrelevant(self, sys, perm):
        order = [i for i in perm if i < sys.m]
        batch = check_feasible(sys)
        inst = SimplexInstance(sys.n)
        for i in order:
            inst.add_row(sys.matrix.rows[i], sys.bounds[i], "row", i)
        incremental = inst.check()
        assert (incremental is None) == isinstance(batch, Feasible)

    @given(systems(max_m=4, max_n=3),
           st.lists(st.tuples(st.sampled_from(["push", "pop", "check"]),
                              st.integers(0, 2), st.sampled_from(["lo", "up"]),
                              st.integers(-4, 4)),
                    max_size=12))
    def test_interleaved_push_pop(self, sys, ops):
        # After each check the verdict is the one of the system plus the
        # stacked bounds written as rows, and a conflict is a certificate
        # over those rows: branch atom k stands for the k-th stacked bound.
        inst = simplex.instance_for(sys)
        stack = []
        for op, var, side, value in ops + [("check", 0, "up", 0)]:
            if op == "push":
                var %= sys.n
                inst.push_bound(var, side, Fraction(value), "branch", len(stack))
                stack.append((var, side, Fraction(value)))
            elif op == "pop":
                if stack:
                    inst.pop_bound()
                    stack.pop()
            else:
                rows, bounds = list(sys.matrix.rows), list(sys.bounds)
                for var, side, value in stack:
                    sign = 1 if side == "up" else -1
                    rows.append([sign if j == var else 0 for j in range(sys.n)])
                    bounds.append(sign * value)
                full = mk_system(rows, bounds, "q" * sys.n)
                conflict = inst.check()
                assert (conflict is None) == isinstance(check_feasible(full), Feasible)
                if conflict is None:
                    lhs = full.matrix.mul_vec(inst.assignment())
                    assert all(v <= b for v, b in zip(lhs, full.bounds))
                else:
                    y = [Fraction(0)] * full.m
                    for src, mult in conflict:
                        y[src.index if src.kind == "row" else sys.m + src.index] += mult / src.scale
                    assert check_certificate(full, FarkasCertificate(y))


class TestSetRowBounds:
    @given(systems(max_m=5, max_n=3), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    def test_answers_as_a_fresh_tableau(self, sys, new_bounds):
        # From the basis the first check left, the replaced bounds, looser
        # or tighter, decide exactly as a tableau built with them does.
        inst = simplex.instance_for(sys)
        inst.check()
        moved = mk_system(sys.matrix.rows, new_bounds[: sys.m], "q" * sys.n)
        inst.set_row_bounds(moved.bounds)
        conflict = inst.check()
        assert_tableau_invariants(inst)
        assert (conflict is None) == isinstance(check_feasible(moved), Feasible)
        if conflict is None:
            lhs = moved.matrix.mul_vec(inst.assignment())
            assert all(v <= b for v, b in zip(lhs, moved.bounds))
        else:
            assert check_certificate(moved, simplex.atoms_to_certificate(conflict, sys.m))

    def test_loosens_a_bound(self):
        inst = SimplexInstance(1)
        inst.add_row([Fraction(2)], Fraction(-2), "row", 0)
        inst.add_row([Fraction(-1)], Fraction(0), "row", 1)
        inst.add_row([Fraction(0)], Fraction(-1), "row", 2)
        assert inst.check() is not None
        inst.set_row_bounds([Fraction(4), Fraction(-1), Fraction(0)])
        assert inst.check() is None
        assert inst.assignment() == [1]

    def test_needs_an_empty_stack_and_one_bound_per_row(self):
        inst = SimplexInstance(1)
        inst.add_row([Fraction(1)], Fraction(1), "row", 0)
        with pytest.raises(ValueError):
            inst.set_row_bounds([])
        inst.push_bound(0, "lo", Fraction(0), "branch", 0)
        with pytest.raises(ValueError):
            inst.set_row_bounds([Fraction(2)])


def assert_pair(pair):
    """An integer pair (num, den) with den > 0 and gcd 1."""
    num, den = pair
    assert type(num) is int and type(den) is int
    assert den > 0 and math.gcd(num, den) == 1


def assert_tableau_invariants(inst):
    """Every row: integers over a positive denominator, gcd 1, no zero, holds
    at the assignment; every value and bound: a reduced integer pair."""
    for pair in inst._beta:
        assert_pair(pair)
    for bound in inst._lo + inst._up:
        if bound is not None:
            assert_pair(bound[:2])
    beta = [Fraction(*pair) for pair in inst._beta]
    assert inst._tab.keys() == inst._den.keys()
    for bv, row in inst._tab.items():
        den = inst._den[bv]
        assert type(den) is int and den > 0
        assert all(type(c) is int and c for c in row.values())
        assert math.gcd(den, *row.values()) == 1
        assert not inst._tab.keys() & row.keys()
        assert beta[bv] * den == sum(c * beta[k] for k, c in row.items())


def _outcome(inst, op, args):
    """What inst.op(*args) returns, or the type of the error it raises."""
    try:
        return getattr(inst, op)(*args)
    except (ValueError, EmptyStackError) as exc:
        return type(exc)


# Mostly small integers, so that ratio-test ties and degenerate steps are common.
_values = st.one_of(st.integers(-2, 2).map(Fraction),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


class TestOneVariablePerForm:
    def test_equalities_share_a_slack(self):
        # Each = atom is two rows with opposite normals, and 2x + 2y = 4
        # repeats the form of x + y = 1 scaled: three forms, three slacks,
        # each bounded from both sides; the unit rows bound x itself.  The
        # slack x + y is held at 1 and at 2, so the check finds a conflict.
        sys = parse("(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
                    "(assert (= (+ x y) 1))(assert (= (- y z) 2))(assert (= (+ x (* 2 z)) 3))"
                    "(assert (= (+ (* 2 x) (* 2 y)) 4))(assert (<= 0 x 5))")
        assert sys.m == 10
        built = simplex.instance_for(sys), SimplexInstance(sys.n)
        for row, b in zip(sys.matrix.rows, sys.bounds):
            built[1].add_row(row, b)
        for inst in built:
            assert len(inst._beta) == sys.n + 3
            assert {var for var, *_ in inst._rows} == {0, 3, 4, 5}
            assert all(inst._lo[s] and inst._up[s] for s in (3, 4, 5))
            assert isinstance(inst.check(), list)

    def test_scale_maps_an_atom_back_to_its_row(self):
        # -6x - 4y <= -4 bounds the slack 3x + 2y from below by 2 at scale
        # 2; 3/2 x + y <= 1/2 bounds it from above by 1 at scale 1/2.  The
        # conflict's multipliers come back over the rows.
        sys = mk_system([[-6, -4], [Fraction(3, 2), 1]], [-4, Fraction(1, 2)], "qq")
        res = check_feasible(sys)
        assert isinstance(res, Infeasible)
        assert res.certificate.y == [Fraction(1, 2), Fraction(2)]
        assert check_certificate(sys, res.certificate)


class TestReferenceSimplex:
    """The integer-pair simplex against the Fraction one of tests/helpers.py."""

    @given(systems(max_m=6, max_n=3),
           st.lists(st.one_of(
               st.tuples(st.just("add_row"), st.tuples(
                   st.lists(_values, min_size=3, max_size=3), _values,
                   st.just("row"), st.integers(0, 9))),
               st.tuples(st.just("push_bound"), st.tuples(
                   st.integers(0, 2), st.sampled_from(["lo", "up"]), _values,
                   st.just("branch"), st.integers(0, 9))),
               st.tuples(st.just("pop_bound"), st.just(())),
               st.tuples(st.just("check"), st.just(())),
               st.tuples(st.just("optimize_max"), st.tuples(
                   st.dictionaries(st.integers(0, 2), _values, min_size=1))),
               st.tuples(st.just("set_row_bounds"), st.tuples(
                   st.lists(_values, min_size=0, max_size=10)))),
               max_size=24))
    # A tie between two rows in the ratio test.
    @example(mk_system([[-1, -2], [-1, -1]], [1, 1], "qq"),
             [("optimize_max", ({0: Fraction(-2), 1: Fraction(-2)},))])
    # A tie between the entering variable's own bound and a row.
    @example(mk_system([[-1, 1], [-1, 0]], [2, 2], "qq"),
             [("optimize_max", ({0: Fraction(-1)},))])
    def test_interleaved_calls(self, sys, ops):
        # After sys's rows, the same calls make the same pivots and return
        # the same conflict atoms, assignments and optimization results.
        # Out-of-order calls (a row after a push, a pop on an empty stack,
        # a bound list of the wrong length) fail the same way.
        n = sys.n
        new, ref = SimplexInstance(n), RefSimplexInstance(n)
        rows = [("add_row", (row, b, "row", i))
                for i, (row, b) in enumerate(zip(sys.matrix.rows, sys.bounds))]
        for op, args in rows + ops:
            if op == "add_row":
                args = (args[0][:n], *args[1:])
            elif op == "push_bound":
                args = (args[0] % n, *args[1:])
            elif op == "optimize_max":
                args = ({j % n: c for j, c in args[0].items()},)
            elif op == "set_row_bounds" and len(args[0]) >= len(ref._rows):
                args = (args[0][:len(ref._rows)],)
            assert _outcome(new, op, args) == _outcome(ref, op, args)
            assert (new.pivots, new._tab, new._den) == (ref.pivots, ref._tab, ref._den)
            assert [Fraction(*pair) for pair in new._beta] == ref._beta
            assert new.assignment() == ref.assignment()
            assert_tableau_invariants(new)


class TestTableauInvariants:
    @given(systems(max_m=6, max_n=4),
           st.lists(st.tuples(st.sampled_from(["bound", "pop", "check", "optimize"]),
                              st.lists(st.integers(-3, 3), min_size=4, max_size=4)),
                    max_size=16))
    def test_rows_stay_reduced_and_hold(self, sys, ops):
        # Every row of sys is added first, so the tableau has slack rows
        # for the interleaved bounds, pops, checks and optimizations to
        # pivot on.
        inst = simplex.instance_for(sys)
        pushed = 0
        for op, vec in [("check", None)] + ops:
            if op == "bound":
                inst.push_bound(abs(vec[0]) % sys.n, "up" if vec[1] >= 0 else "lo",
                                Fraction(vec[2], 1 + abs(vec[3])), "branch", 0)
                pushed += 1
            elif op == "pop":
                if pushed:
                    inst.pop_bound()
                    pushed -= 1
            elif op == "check":
                inst.check()
            else:
                h = {j: Fraction(c) for j, c in enumerate(vec[: sys.n]) if c}
                if h:
                    inst.optimize_max(h)
            assert_tableau_invariants(inst)


def _lp_pivots_of_classify_and_split(monkeypatch, n):
    sys = gen_random_unbounded(GenParams(seed=1, n_vars=n, n_bounded=n // 2,
                                         n_unbounded=n // 2))
    built = []
    real = simplex.instance_for
    monkeypatch.setattr(simplex, "instance_for", lambda s: built.append(real(s)) or built[-1])
    split(sys, classify(sys))
    return sum(t.pivots for t in built)


def _unsat_box():
    """Five integers in [0, 4] on a band 3(x0 - x1 + x2 - x3 + x4) = 7."""
    band = [3, -3, 3, -3, 3]
    rows, bounds = [band, [-c for c in band], [1, 2, 0, -1, 3]], [7, -7, 12]
    for j in range(5):
        unit = [0] * 5
        unit[j] = 1
        rows += [unit, [-c for c in unit]]
        bounds += [4, 0]
    return mk_system(rows, bounds, "zzzzz")


class TestGoldenPivots:
    """Pivot counts recorded on the rational tableau the integer one replaced.

    Bland's rule picks every entering and leaving variable by sign and by
    exact ratio comparisons; any change in the values it sees, or in the
    order it sees them, changes these totals.  The classify-and-split
    counts were recorded again when classify moved its cone check onto the
    feasibility tableau, and all three when the rows of one linear form
    came to share one tableau variable: the rows of an equality bound one
    slack, where each had its own before, so there is less to pivot on.
    """

    @pytest.mark.parametrize("n, pivots", [(8, 12), (12, 17)])
    def test_classify_and_split(self, monkeypatch, n, pivots):
        assert _lp_pivots_of_classify_and_split(monkeypatch, n) == pivots

    def test_branch_and_bound_on_an_unsat_box(self):
        stats = SolveStats()
        assert isinstance(branch_and_bound(_unsat_box(), stats=stats), Unsat)
        assert (stats.nodes, stats.lp_pivots) == (1035, 617)
