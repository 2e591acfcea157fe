import json
import os
import subprocess
import sys as _pysys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mehsolve.analysis as analysis
import mehsolve.simplex as simplex
from mehsolve.analysis import (
    InfeasibleSystemError,
    Verdict,
    classify,
    is_direction_bounded,
    split,
)
from mehsolve.generators import GenParams, gen_random_unbounded
from mehsolve.linalg import Matrix
from mehsolve.model import ConstraintSystem, VarInfo, VarKind
from mehsolve.simplex import Feasible, Infeasible, Optimal, SimplexInstance, check_feasible

from helpers import mk_system, systems

TESTS = Path(__file__).resolve().parent

BAND = [[3, -3], [-3, 3]]  # 1 <= 3x1 - 3x2 <= 2 when paired with bounds [2, -1]


def band_system(extra_rows=(), extra_bounds=()):
    rows = BAND + list(extra_rows)
    bounds = [2, -1] + list(extra_bounds)
    return mk_system(rows, bounds, "qq")


class TestIsDirectionBounded:
    def test_band_normal_is_bounded(self):
        assert is_direction_bounded(band_system(), [3, -3])

    def test_band_axis_is_unbounded(self):
        assert not is_direction_bounded(band_system(), [1, 0])

    def test_only_normal_directions_bounded(self):
        # Two parallel half-planes with normal (-1, 1) plus one open row:
        # exactly the normal and its negation are bounded.
        sys = mk_system([[-1, 1], [1, -1], [1, 1]], [2, 1, 10], "qq")
        assert is_direction_bounded(sys, [-1, 1])
        assert is_direction_bounded(sys, [1, -1])
        assert not is_direction_bounded(sys, [1, 1])
        assert not is_direction_bounded(sys, [1, 0])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            is_direction_bounded(band_system(), [0, 0])

    def test_infeasible_system_rejected(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        with pytest.raises(InfeasibleSystemError):
            is_direction_bounded(sys, [1])

    @pytest.mark.parametrize("probe", [
        Infeasible(None),
        Optimal(Fraction(1), [Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]),
    ])
    def test_unexpected_probe_result_raises(self, monkeypatch, probe):
        # An explicit raise, not an assert: under python -O the check stays.
        monkeypatch.setattr(analysis, "optimize", lambda *args: probe)
        with pytest.raises(AssertionError, match="simplex bug"):
            is_direction_bounded(band_system(), [3, -3])


@st.composite
def feasible_systems(draw):
    """Up to 6 rows over up to 4 mixed variables, feasible by a planted point.

    In half of them some row is paired with its opposite, so that the
    recession cone has implicit equalities.  In a third of them the random
    rows come with a box: rows +-e_j for every variable j.
    """
    n = draw(st.integers(1, 4))
    n1 = draw(st.integers(0, n))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        rows.append([-a for a in draw(st.sampled_from(rows))])
    if draw(st.integers(0, 2)) == 0:
        rows += [[s * int(k == j) for k in range(n)] for j in range(n) for s in (1, -1)]
    point = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    bounds = [sum(a * x for a, x in zip(r, point)) + draw(st.integers(0, 3)) for r in rows]
    variables = [VarInfo(f"x{j}", VarKind.RATIONAL if j < n1 else VarKind.INTEGER)
                 for j in range(n)]
    return ConstraintSystem(Matrix(rows) if rows else Matrix.zeros(0, n), bounds, variables)


NO_ROWS = ConstraintSystem(Matrix.zeros(0, 2), [], [VarInfo("x", VarKind.RATIONAL),
                                                    VarInfo("y", VarKind.INTEGER)])
UNIT_BOX = mk_system([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], "qz")
# x + y and x - y are each pinned by a pair of rows: x and y are bounded,
# although no row is a unit vector; z is not.
PINNED_SUM_AND_DIFFERENCE = mk_system(
    [[1, 1, 0], [-1, -1, 0], [1, -1, 0], [-1, 1, 0], [1, 2, 1]], [2, -1, 1, 0, 9], "zzz")
SCALE_N8 = gen_random_unbounded(GenParams(seed=1, n_vars=8, n_bounded=4, n_unbounded=4))
# A box on both variables plus two random rows; row 2 is an equality with
# row 4.
BOXED_WITH_ROWS = mk_system(
    [[1, 0], [-1, 0], [2, -1], [0, 1], [-2, 1], [0, -1], [1, 1]],
    [3, 1, 1, 4, -1, 0, 5], "qz")
# The same rows without the box's lower side on x0: x0 >= -1 is still
# implied by 2 x0 - x1 = 1 and x1 >= 0, but no single row says so.
BOX_MISSING_ONE_SIDE = mk_system(
    [[1, 0], [2, -1], [0, 1], [-2, 1], [0, -1], [1, 1]],
    [3, 1, 4, -1, 0, 5], "qz")


# No two normals are opposite: only a conflict of the cone check shows
# that all three rows are equalities.
CYCLE = mk_system([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], [0, 0, 0], "qqq")
# All three rows are equalities; the conflict runs through 2 x <= -1, a
# bound that stands for its row at scale 2.
SCALED_SINGLES = mk_system([[2, 0], [-1, -1], [0, 1]], [2, 1, 3], "qz")


def _cone_checks(monkeypatch):
    """Record each replacement of the row bounds, that is each cone check."""
    calls = []
    real = SimplexInstance.set_row_bounds
    monkeypatch.setattr(SimplexInstance, "set_row_bounds",
                        lambda inst, bounds: calls.append(list(bounds)) or real(inst, bounds))
    return calls


class _CorruptCone(SimplexInstance):
    """A tableau whose checks on the cone report what ``corrupt`` makes of them."""

    corrupt = None
    on_cone = False

    def set_row_bounds(self, bounds):
        self.on_cone = True
        super().set_row_bounds(bounds)

    def check(self):
        if self.on_cone:
            return self.corrupt(super().check)
        return super().check()


class _FixedPoint(SimplexInstance):
    """A tableau whose checks all pass and whose assignment is ``point``."""

    point = None

    def check(self):
        return None

    def assignment(self):
        return self.point


# No two normals are opposite, so the cone bounds both rows by -1: the
# point must have x/2 + y/3 <= -1 and -y/5 <= -1.
SCALED_CONE = mk_system([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-1, 5)]], [0, 0], "qq")


def cone_point_outcomes():
    """What _cone_equalities makes of SCALED_CONE at a point on its cone
    face, and at points 1/14 and 1/5 past one row."""
    out = []
    for point in ([Fraction(-16, 3), Fraction(5)], [Fraction(-16, 3) + Fraction(1, 7), Fraction(5)],
                  [Fraction(-6), Fraction(4)]):
        inst = _FixedPoint(SCALED_CONE.n)
        for row, b in zip(SCALED_CONE.matrix.rows, SCALED_CONE.bounds):
            inst.add_row(row, b)
        inst.point = point
        try:
            out.append(analysis._cone_equalities(SCALED_CONE, inst))
        except AssertionError as exc:
            out.append(str(exc))
    return out


def test_cone_point_off_a_row_raises():
    # An explicit raise, not an assert: the point check holds under
    # python -O too.  The rows have denominators 2, 3 and 5, so the check
    # runs on integer rows over a common denominator, and a point that
    # misses a row by 1/14 is caught.
    want = [[], "recession cone point violates a row; simplex bug",
            "recession cone point violates a row; simplex bug"]
    assert cone_point_outcomes() == want
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import json, test_analysis as t; "
            "print(json.dumps([__debug__, t.cone_point_outcomes()]))")
    proc = subprocess.run([_pysys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, want]


class TestClassify:
    @given(feasible_systems())
    @example(NO_ROWS)
    @example(UNIT_BOX)
    @example(PINNED_SUM_AND_DIFFERENCE)
    @example(SCALE_N8)
    @example(BOXED_WITH_ROWS)
    @example(BOX_MISSING_ONE_SIDE)
    @example(mk_system([[0, 1, 0], [1, 0, 0], [0, -1, 0], [1, 1, 1], [-1, 0, 0],
                        [0, 0, 2], [0, 0, -3]], [2, 2, 0, 3, 1, 4, 0], "zzz"))
    def test_matches_direction_probes(self, sys):
        # The oracle probes every row and every unit vector with two LPs.
        cls = classify(sys)
        units = [[Fraction(int(k == j)) for k in range(sys.n)] for j in range(sys.n)]
        assert cls.bounded_rows == frozenset(
            i for i, a in enumerate(sys.matrix.rows) if is_direction_bounded(sys, a))
        assert cls.bounded_vars == frozenset(
            j for j, e in enumerate(units) if is_direction_bounded(sys, e))

    def test_boxed_system_makes_no_cone_lp(self, monkeypatch):
        checks = _cone_checks(monkeypatch)
        cls = classify(BOXED_WITH_ROWS)
        assert checks == []
        assert cls.verdict is Verdict.BOUNDED
        assert cls.bounded_rows == frozenset(range(7))
        assert cls.bounded_vars == frozenset({0, 1})
        assert cls.equalities == (2,)

    def test_missing_box_side_makes_the_cone_lp(self, monkeypatch):
        checks = _cone_checks(monkeypatch)
        cls = classify(BOX_MISSING_ONE_SIDE)
        # Rows 1 and 3, and rows 2 and 4, have opposite normals; one
        # conflict each finds rows 0 and 5.
        assert checks == [[-1, 0, 0, 0, 0, -1], [0, 0, 0, 0, 0, -1], [0] * 6]
        assert cls.verdict is Verdict.BOUNDED
        assert cls.bounded_rows == frozenset(range(6))
        assert cls.equalities == (1,)

    def test_cycle_is_found_by_a_conflict(self, monkeypatch):
        assert analysis._opposite_normals(CYCLE) == set()
        checks = _cone_checks(monkeypatch)
        cls = classify(CYCLE)
        assert checks == [[-1, -1, -1], [0, 0, 0]]
        assert cls.verdict is Verdict.PARTIALLY_UNBOUNDED
        assert cls.bounded_rows == frozenset(range(3))
        assert cls.bounded_vars == frozenset()

    def test_conflict_through_scaled_single_variable_rows(self):
        cls = classify(SCALED_SINGLES)
        assert cls.verdict is Verdict.BOUNDED
        assert cls.bounded_rows == frozenset(range(3))
        assert cls.bounded_vars == frozenset({0, 1})
        assert cls.equalities == ()

    def test_empty_system(self):
        cls = classify(NO_ROWS)
        assert cls.verdict is Verdict.ABSOLUTELY_UNBOUNDED
        assert cls.bounded_rows == cls.bounded_vars == frozenset()

    def test_zero_row_is_an_equality(self):
        cls = classify(mk_system([[0, 0], [1, 1]], [1, 5], "qz"))
        assert cls.verdict is Verdict.PARTIALLY_UNBOUNDED
        assert cls.bounded_rows == frozenset({0})
        assert cls.bounded_vars == frozenset()
        with pytest.raises(InfeasibleSystemError) as exc:
            classify(mk_system([[0, 0], [1, 1]], [-1, 5], "qz"))
        assert exc.value.certificate.y == [1, 0]

    def test_equalities_are_exact_opposite_pairs(self):
        # Row 3 is row 0 scaled, not its opposite; row 4 repeats row 0's
        # hyperplane and has no partner left; rows 1 and 5 pair.
        sys = mk_system([[1, 1], [1, -1], [-1, -1], [-2, -2], [1, 1], [-1, 1],
                         [1, 0], [-1, 0], [0, 1], [0, -1]],
                        [2, 0, -2, -4, 2, 0, 5, 0, 5, 0], "zz")
        assert classify(sys).equalities == (0, 1)
        assert classify(band_system([[1, 1]], [10])).equalities == ()

    def test_pinned_sum_and_difference(self):
        cls = classify(PINNED_SUM_AND_DIFFERENCE)
        assert cls.verdict is Verdict.PARTIALLY_UNBOUNDED
        assert cls.bounded_rows == frozenset(range(4))
        assert cls.bounded_vars == frozenset({0, 1})

    @pytest.mark.parametrize("result", [
        # y A != 0: one multiplier doubled.
        ("conflict", lambda check: [(src, 2 * y if k == 0 else y)
                                    for k, (src, y) in enumerate(check())]),
        # A negative multiplier.
        ("conflict", lambda check: [(src, -y if k == 0 else y)
                                    for k, (src, y) in enumerate(check())]),
        # y = 0 touches no new row.
        ("conflict", lambda check: []),
        # Feasible without repair: the point is not strict on every row.
        ("point", lambda check: None),
    ])
    def test_unexpected_cone_lp_result_raises(self, monkeypatch, result):
        # Explicit raises, not asserts: under python -O the checks stay.
        _, corrupt = result
        monkeypatch.setattr(simplex, "SimplexInstance",
                            type("Corrupt", (_CorruptCone,), {"corrupt": staticmethod(corrupt)}))
        with pytest.raises(AssertionError, match="simplex bug"):
            classify(CYCLE)

    def test_unit_box(self):
        sys = mk_system([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], "qq")
        cls = classify(sys)
        assert cls.verdict is Verdict.BOUNDED
        assert cls.bounded_rows == frozenset(range(4))
        assert cls.bounded_vars == frozenset(range(2))

    def test_halfplane(self):
        cls = classify(mk_system([[1, 1]], [0], "qq"))
        assert cls.verdict is Verdict.ABSOLUTELY_UNBOUNDED
        assert cls.bounded_rows == frozenset()

    def test_band_plus_free_row(self):
        cls = classify(band_system([[1, 1]], [10]))
        assert cls.verdict is Verdict.PARTIALLY_UNBOUNDED
        assert cls.bounded_rows == frozenset({0, 1})

    @given(systems(max_m=4, max_n=3), st.permutations(range(4)))
    def test_invariant_under_row_permutation(self, sys, perm):
        if not isinstance(check_feasible(sys), Feasible):
            return
        order = [i for i in perm if i < sys.m]
        permuted = sys.subset(order)
        a, b = classify(sys), classify(permuted)
        assert a.verdict == b.verdict
        assert a.bounded_vars == b.bounded_vars
        assert {order[i] for i in b.bounded_rows} == a.bounded_rows

    @given(systems(max_m=4, max_n=3), st.integers(1, 7))
    def test_invariant_under_positive_scaling(self, sys, num):
        if not isinstance(check_feasible(sys), Feasible):
            return
        factor = Fraction(num, 3)
        scaled = mk_system(
            [[factor * a for a in sys.matrix.rows[0]]] + sys.matrix.rows[1:],
            [factor * sys.bounds[0]] + sys.bounds[1:],
            "q" * sys.n1 + "z" * sys.n2,
        )
        a, b = classify(sys), classify(scaled)
        assert a.verdict == b.verdict
        assert a.bounded_rows == b.bounded_rows
        assert a.bounded_vars == b.bounded_vars

    @given(systems(max_m=4, max_n=3), st.lists(st.integers(-4, 4), min_size=3, max_size=3),
           st.integers(-5, 5))
    def test_monotone_under_added_rows(self, sys, row, bound):
        row = row[: sys.n]
        if not any(row):
            return
        extended = mk_system(
            sys.matrix.rows + [row],
            sys.bounds + [bound],
            "q" * sys.n1 + "z" * sys.n2,
        )
        if not isinstance(check_feasible(extended), Feasible):
            return
        before = classify(sys)
        after = classify(extended)
        assert before.bounded_rows <= after.bounded_rows


class TestSplit:
    def test_band_plus_free_row(self):
        sys = band_system([[1, 1]], [10])
        cls = classify(sys)
        out = split(sys, cls)
        assert out.bounded_origin == (0, 1)
        assert out.unbounded_origin == (2,)
        assert out.bounded.matrix.rows == [[3, -3], [-3, 3]]
        assert out.lower == [1, -2]
        assert out.unbounded.matrix.rows == [[1, 1]]

    def test_single_free_row_goes_to_unbounded_part(self):
        sys = mk_system([[1, 0], [-1, 0], [1, 1]], [1, 0, 5], "qq")
        cls = classify(sys)
        out = split(sys, cls)
        assert out.unbounded_origin == (2,)
        assert out.bounded_origin == (0, 1)

    @given(systems(max_m=5, max_n=3))
    def test_lower_bounds_and_duals(self, sys):
        if not isinstance(check_feasible(sys), Feasible):
            return
        cls = classify(sys)
        if cls.verdict is not Verdict.PARTIALLY_UNBOUNDED:
            return
        out = split(sys, cls)
        assert set(out.bounded_origin) | set(out.unbounded_origin) == set(range(sys.m))
        for i in range(out.bounded.m):
            d = out.bounded.matrix.rows[i]
            dual = out.lower_duals[i]
            assert all(mult >= 0 for mult in dual)
            combo = [Fraction(0)] * sys.n
            rhs = Fraction(0)
            for mult, row, u in zip(dual, out.bounded.matrix.rows, out.bounded.bounds):
                for j, a in enumerate(row):
                    combo[j] += mult * a
                rhs += mult * u
            assert combo == [-a for a in d]
            assert rhs == -out.lower[i]
