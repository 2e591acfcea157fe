import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import mehsolve.solver as solver
from mehsolve.analysis import Verdict, classify, split
from mehsolve.linalg import Matrix
from mehsolve.mehnf import batch_mehnf
from mehsolve.model import (
    Budget,
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
    unit_cube_test,
)

import corpus
from helpers import mk_system, systems


def band(kinds="zz", extra_rows=(), extra_bounds=()):
    rows = [[3, -3], [-3, 3]] + list(extra_rows)
    bounds = [2, -1] + list(extra_bounds)
    return mk_system(rows, bounds, kinds)


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


class TestMixedExtension:
    def test_band_with_free_row_rational(self):
        sys = band("qq", [[1, 1]], [10])
        cls = classify(sys)
        sp = split(sys, cls)
        h, v, perm = batch_mehnf(sp.bounded.matrix, sys.n1)
        upper = [sp.bounded.bounds[i] for i in perm]
        lower = [sp.lower[i] for i in perm]
        tsys = _tsystem(sys, h, lower, upper)
        res = branch_and_bound(tsys)
        assert isinstance(res, Sat)
        full_model = mixed_extension(sp, v, h, res.model)
        assert check_model(sys, full_model)

    def test_empty_unbounded_part_passes_through(self):
        sys = band("qq")
        cls = classify(sys)
        sp = split(sys, cls)
        h, v, perm = batch_mehnf(sp.bounded.matrix, sys.n1)
        t = Model([Fraction(1, 2), Fraction(0)])
        if check_model(_tsystem(sys, h, [sp.lower[i] for i in perm],
                                [sp.bounded.bounds[i] for i in perm]), t):
            out = mixed_extension(sp, v, h, t)
            assert out.values == v.apply(t.values)

    def test_integer_gap_columns(self):
        sys = band("zz", [[1, 1]], [10])
        res = solve(sys)
        assert isinstance(res, Unsat)
        rat = band("qq", [[1, 1]], [10])
        res2 = solve(rat)
        assert isinstance(res2, Sat)
        assert check_model(rat, res2.model)


def _tsystem(sys, h, lower, upper):
    from mehsolve.solver import transformed_system

    return transformed_system(sys, h, lower, upper)


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

    @pytest.mark.parametrize("limit", ["branch_limit", "depth_limit", "time_budget"])
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
        # 1 <= 3x <= 2 drops no row, so the normalized system is the input:
        # branch-and-bound's check of its refutation is the check against
        # the input, and it is not repeated.
        checked = self._count_refutation_checks(monkeypatch)
        sys = mk_system([[3], [-3]], [2, -1], "z")
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert res.stats.classification == "bounded"
        assert len(checked) == 1 and checked[0] is sys
        assert check_refutation(sys, res.certificate)

    def test_bounded_unsat_past_dropped_row_is_checked_again(self, monkeypatch):
        # With a constant row dropped, the refutation of the normalized
        # system is pulled back and checked once more, against the input.
        checked = self._count_refutation_checks(monkeypatch)
        sys = mk_system([[0], [3], [-3]], [1, 2, -1], "z")
        res = solve(sys)
        assert isinstance(res, Unsat)
        assert len(checked) == 2
        assert checked[0] is not sys and checked[1] is sys
        assert check_refutation(sys, res.certificate)

    @pytest.mark.parametrize("sys, classification", [
        (mk_system([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], "zz"), "bounded"),
        (mk_system([[1, 1]], [0], "zz"), "absolutely-unbounded"),
        (band("qz", [[1, 1]], [10]), "partially-unbounded"),
    ])
    def test_sat_model_is_checked_once_on_the_input(self, monkeypatch, sys, classification):
        # No row is dropped, so the normalized system is the input: a model
        # that branch-and-bound or the unit cube test has checked against
        # it is not checked again, and the extended model of the partially
        # unbounded route is checked exactly once.
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

    def test_wrong_extended_model_is_caught(self, monkeypatch):
        monkeypatch.setattr(solver, "mixed_extension",
                            lambda sp, v, h, t: Model([Fraction(0), Fraction(0)]))
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
        if isinstance(res, Sat):
            assert check_model(sys, res.model)
        elif isinstance(res.certificate, FarkasCertificate):
            assert check_certificate(sys, res.certificate)
        else:
            assert check_refutation(sys, res.certificate)

    @given(systems(max_m=4, max_n=3))
    @settings(max_examples=40)
    def test_transform_agreement(self, sys):
        off = solve(sys, SolveOptions(transforms_enabled=False,
                                      branch_limit=2000, time_budget=5.0))
        if isinstance(off, Budget):
            return
        on = solve(sys)
        assert type(on) is type(off)


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
