from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mehsolve.linalg import Matrix, TransformMatrix
from mehsolve.model import (
    ConstraintSystem,
    DimensionMismatchError,
    FarkasCertificate,
    Model,
    TriviallyUnsat,
    VarInfo,
    VarKind,
    check_certificate,
    check_model,
    format_certificate,
    format_model,
    normalize,
)
from mehsolve.simplex import Feasible, check_feasible

from helpers import mctms, mk_system, systems


def sec3_system(kinds="zz"):
    # 1 <= 3 x1 - 3 x2 <= 2 stored as two <= rows.
    return mk_system([[3, -3], [-3, 3]], [2, -1], kinds)


class TestConstraintSystem:
    def test_rejects_interleaved_types(self):
        with pytest.raises(ValueError):
            ConstraintSystem(
                Matrix([[1, 1]]),
                [1],
                [VarInfo("a", VarKind.INTEGER), VarInfo("b", VarKind.RATIONAL)],
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            mk_system([[1, 1]], [1], "qq", names=["a", "a"])

    def test_counts(self):
        sys = mk_system([[1, 2, 3]], [1], "qzz")
        assert (sys.m, sys.n, sys.n1, sys.n2) == (1, 3, 1, 2)

    @given(systems(), st.lists(st.integers(0, 4), max_size=6), st.booleans())
    def test_subset_is_the_system_of_its_rows(self, sys, picks, converted):
        # subset skips the constructor's checks, which its rows have passed,
        # and hands on the integer rows and forms when they are already
        # computed.
        rows = [i % sys.m for i in picks]
        if converted:
            sys.forms
        sub = sys.subset(rows)
        fresh = ConstraintSystem(Matrix([sys.matrix.rows[i] for i in rows]) if rows
                                 else Matrix.zeros(0, sys.n),
                                 [sys.bounds[i] for i in rows], sys.variables, sys.user_perm)
        assert (sub.matrix, sub.bounds, sub.variables, sub.n1, sub.user_perm) == \
            (fresh.matrix, fresh.bounds, fresh.variables, fresh.n1, fresh.user_perm)
        assert (sub.m, sub.n) == (fresh.m, fresh.n)
        assert ("int_rows" in vars(sub)) == ("forms" in vars(sub)) == converted
        assert sub.int_rows == fresh.int_rows
        assert sub.forms == fresh.forms
        before = [row[:] for row in sys.matrix.rows]
        for row in sub.matrix.rows:
            row[:] = [Fraction(7)] * sys.n
        assert sys.matrix.rows == before


class TestNormalize:
    def test_keeps_plain_system(self):
        sys = mk_system([[1]], [1], "q")
        out, kept = normalize(sys)
        assert out is sys
        assert kept == [0]

    def test_constant_contradiction(self):
        sys = mk_system([[0]], [-1], "q")
        out = normalize(sys)
        assert isinstance(out, TriviallyUnsat)
        assert out.certificate.y == [1]
        assert check_certificate(sys, out.certificate)

    def test_drops_tautology(self):
        sys = mk_system([[0], [1]], [5, 1], "q")
        out, kept = normalize(sys)
        assert out.m == 1
        assert out.matrix.rows == [[1]]
        assert kept == [1]

    @given(systems(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_never_changes_solutions(self, sys, vals):
        out = normalize(sys)
        if isinstance(out, TriviallyUnsat):
            assert check_certificate(sys, out.certificate)
            return
        out, kept = out
        assert [sys.matrix.rows[k] for k in kept] == out.matrix.rows
        model = Model([Fraction(v) for v in vals[: sys.n]])
        assert check_model(sys, model) == check_model(out, model)


class TestCheckModel:
    def test_integer_point(self):
        sys = mk_system([[1], [-1]], [1, 0], "z")
        assert check_model(sys, Model([Fraction(0)]))

    def test_fractional_integer_rejected(self):
        sys = mk_system([[1], [-1]], [1, 0], "z")
        assert not check_model(sys, Model([Fraction(1, 2)]))

    def test_violated_row(self):
        assert not check_model(sec3_system(), Model([Fraction(1), Fraction(0)]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_model(sec3_system(), Model([Fraction(0)]))

    def test_inexact_value_rejected(self):
        # Only ints and Fractions: a float would make the row sums inexact.
        sys = mk_system([[1, 0], [0, 1]], [1, 1], "qz")
        assert check_model(sys, Model([Fraction(1, 2), 1]))
        assert not check_model(sys, Model([0.5, Fraction(1)]))
        assert not check_model(sys, Model([Fraction(1, 2), 1.0]))


class TestCheckCertificate:
    def test_valid_pair(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        assert check_certificate(sys, FarkasCertificate([Fraction(1), Fraction(1)]))

    def test_unbalanced_combination(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        assert not check_certificate(sys, FarkasCertificate([Fraction(1), Fraction(0)]))

    def test_negative_multiplier_rejected(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        assert not check_certificate(sys, FarkasCertificate([Fraction(-1), Fraction(-1)]))

    def test_inexact_multiplier_rejected(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        assert check_certificate(sys, FarkasCertificate([1, Fraction(1)]))
        assert not check_certificate(sys, FarkasCertificate([1.0, Fraction(1)]))

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=2))
    def test_feasible_system_has_no_certificate(self, y):
        # The two-row band system is rationally feasible, so no multiplier
        # vector can certify unsatisfiability.
        sys = sec3_system()
        assert isinstance(check_feasible(sys), Feasible)
        cert = FarkasCertificate([Fraction(v) for v in y])
        assert not check_certificate(sys, cert)


def transformed(sys, tm):
    """The system (A V) y <= b over fresh variables of the same types."""
    fresh = [VarInfo(f"y{j}", var.kind) for j, var in enumerate(sys.variables)]
    return ConstraintSystem(sys.matrix * tm.matrix, sys.bounds, fresh)


class TestColumnTransform:
    def test_identity(self):
        sys = sec3_system()
        v = TransformMatrix(Matrix.identity(2), 0, 2)
        assert transformed(sys, v).matrix == sys.matrix

    def test_band_transform(self):
        sys = sec3_system()
        v = TransformMatrix(Matrix([[1, 1], [0, 1]]), 0, 2)
        assert transformed(sys, v).matrix == Matrix([[3, 0], [-3, 0]])

    def test_apply_example(self):
        v = TransformMatrix(Matrix([[1, 1], [0, 1]]), 0, 2)
        assert v.apply([Fraction(0), Fraction(1)]) == [1, 1]

    @given(systems(max_n=4), mctms(max_n1=2, max_n2=2),
           st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    def test_transform_commutes_with_checking(self, sys, vnn, tvals):
        v, n1, n2 = vnn
        if n1 != sys.n1 or n2 != sys.n2:
            return
        tm = TransformMatrix(v, n1, n2)
        tsys = transformed(sys, tm)
        t = [Fraction(x) for x in tvals[: sys.n]]
        # Solution conversion x = V t commutes with the predicate.
        assert check_model(sys, Model(tm.apply(t))) == check_model(tsys, Model(t))
        # Certificates transfer verbatim in both directions.
        y = FarkasCertificate([Fraction(abs(x)) for x in tvals[: sys.m]]
                              + [Fraction(0)] * max(0, sys.m - len(tvals)))
        assert check_certificate(sys, y) == check_certificate(tsys, y)

    @given(mctms(), st.lists(st.integers(-6, 6), min_size=6, max_size=6))
    def test_mixed_round_trip(self, vnn, tvals):
        v, n1, n2 = vnn
        tm = TransformMatrix(v, n1, n2)
        t = ([Fraction(x, 3) for x in tvals[:n1]]
             + [Fraction(x) for x in tvals[n1:n1 + n2]])
        s = tm.apply(t)
        # Integer coordinates stay integral through the transform.
        assert all(s[j].denominator == 1 for j in range(n1, n1 + n2))
        assert tm.inverse().apply(s) == t


class TestFormatting:
    def test_model_lines_follow_declaration_order(self):
        sys = ConstraintSystem(
            Matrix([[1, 1]]),
            [1],
            [VarInfo("b", VarKind.RATIONAL), VarInfo("a", VarKind.INTEGER)],
            user_perm=[1, 0],
        )
        text = format_model(sys, Model([Fraction(1, 2), Fraction(3)]))
        assert text.splitlines() == ["a = 3", "b = 1/2"]

    def test_certificate_lines(self):
        sys = mk_system([[1], [-1]], [0, -1], "q")
        text = format_certificate(sys, FarkasCertificate([Fraction(1, 3), Fraction(0)]))
        assert text.splitlines() == ["0 1/3"]
