from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mehsolve.linalg import (
    Matrix,
    SingularMatrixError,
    TransformMatrix,
    column_reduce,
    format_matrix,
    hermite_normal_form,
    is_hermite_normal_form,
    is_lower_triangular_with_gaps,
    is_mctm,
    is_mehnf,
    piv,
)

from helpers import matrices, mctms, parse_matrix, small_fractions


class TestPiv:
    def test_identity_column(self):
        assert piv(Matrix.identity(3), 2) == 2

    def test_zero_matrix_returns_m_plus_j(self):
        assert piv(Matrix.zeros(2, 2), 1) == 3

    def test_first_nonzero_in_second_row(self):
        assert piv(Matrix([[0, 1], [5, 0]]), 1) == 2

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            piv(Matrix.identity(2), 3)


def _ltg_naive(a):
    # Direct restatement of the definition, used as an oracle.
    pivots = [piv(a, j) for j in range(1, a.n + 1)]
    for j in range(a.n):
        if pivots[j] > a.m:
            continue
        for k in range(j + 1, a.n):
            if pivots[k] <= a.m and not pivots[j] < pivots[k]:
                return False
    return True


class TestLowerTriangularWithGaps:
    def test_identity(self):
        assert is_lower_triangular_with_gaps(Matrix.identity(3))

    def test_middle_gap_allowed(self):
        assert is_lower_triangular_with_gaps(Matrix([[1, 0, 0], [2, 0, 3]]))

    def test_swapped_pivots_rejected(self):
        assert not is_lower_triangular_with_gaps(Matrix([[0, 1], [1, 0]]))

    @given(matrices(entries=st.sampled_from([Fraction(0), Fraction(1), Fraction(2)])))
    def test_matches_naive_definition(self, a):
        assert is_lower_triangular_with_gaps(a) == _ltg_naive(a)


class TestReducedEchelonColumnForm:
    """column_reduce brings a matrix into reduced echelon column form."""

    def test_identity(self):
        h, v, pivot_rows = column_reduce(Matrix.identity(2))
        assert h == Matrix.identity(2)
        assert v == Matrix.identity(2)
        assert pivot_rows == [0, 1]

    def test_single_row(self):
        m = Matrix([[2, 4]])
        h, v, pivot_rows = column_reduce(m)
        assert h == Matrix([[1, 0]])
        assert v == Matrix([[Fraction(1, 2), -2], [0, 1]])
        assert pivot_rows == [0]

    def test_zero_matrix(self):
        m = Matrix.zeros(2, 2)
        h, v, pivot_rows = column_reduce(m)
        assert h == m
        assert v == Matrix.identity(2)
        assert pivot_rows == []

    @given(matrices())
    def test_properties(self, m):
        h, v, pivot_rows = column_reduce(m)
        r = len(pivot_rows)
        assert h == m * v
        assert v.det() != 0
        assert r == m.rank() == h.rank()
        # Pivot rows become e_1 .. e_r; every other row is zero right of r.
        for k, i in enumerate(pivot_rows):
            assert h.rows[i] == Matrix.identity(h.n).rows[k]
        for i, row in enumerate(h.rows):
            if i not in pivot_rows:
                assert all(x == 0 for x in row[r:])


class TestHermiteNormalForm:
    def test_single_row(self):
        m = Matrix([[3, -3]])
        h, u = hermite_normal_form(m)
        assert h == Matrix([[3, 0]])
        assert h == m * u
        assert u.det() in (1, -1)

    def test_identity(self):
        h, u = hermite_normal_form(Matrix.identity(2))
        assert h == Matrix.identity(2)
        assert u == Matrix.identity(2)

    def test_upper_triangular_input(self):
        m = Matrix([[4, 2], [0, 1]])
        h, u = hermite_normal_form(m)
        assert h == m * u
        assert is_hermite_normal_form(h)
        assert u.det() in (1, -1)
        assert all(x.denominator == 1 for row in u.rows for x in row)

    @given(matrices())
    def test_properties(self, m):
        h, u = hermite_normal_form(m)
        assert h == m * u
        assert u.det() in (1, -1)
        assert all(x.denominator == 1 for row in u.rows for x in row)
        assert is_hermite_normal_form(h)
        assert is_lower_triangular_with_gaps(h)


class TestIsMehnf:
    def test_identity_full_rational(self):
        assert is_mehnf(Matrix.identity(3), 3, 3)

    def test_mixed_block(self):
        assert is_mehnf(Matrix([[1, 0], [2, 3]]), 1, 1)

    def test_top_left_not_identity(self):
        assert not is_mehnf(Matrix([[0, 1], [1, 0]]), 2, 1)

    def test_unreduced_integer_block(self):
        # Pivot row entry left of the pivot must be in [0, pivot).
        assert is_mehnf(Matrix([[2, 0], [1, 3]]), 0, 0)
        assert not is_mehnf(Matrix([[2, 0], [5, 3]]), 0, 0)


class TestIsMctm:
    def test_identity(self):
        assert is_mctm(Matrix.identity(2), 1, 1)

    def test_rational_coupling_allowed(self):
        assert is_mctm(Matrix([[1, Fraction(1, 2)], [0, 1]]), 1, 1)

    def test_nonzero_lower_left_rejected(self):
        assert not is_mctm(Matrix([[1, 0], [1, 1]]), 1, 1)

    def test_non_unimodular_integer_block_rejected(self):
        assert not is_mctm(Matrix([[1, 0], [0, 2]]), 1, 1)

    @given(mctms())
    def test_generated_transforms_pass(self, vnn):
        v, n1, n2 = vnn
        assert is_mctm(v, n1, n2)


class TestInvert:
    def test_identity(self):
        assert Matrix.identity(3).invert() == Matrix.identity(3)

    def test_shear(self):
        assert Matrix([[1, 1], [0, 1]]).invert() == Matrix([[1, -1], [0, 1]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            Matrix([[1, 1], [2, 2]]).invert()

    @given(mctms())
    def test_mctm_inverse_is_mctm(self, vnn):
        v, n1, n2 = vnn
        inv = v.invert()
        assert v * inv == Matrix.identity(n1 + n2)
        assert is_mctm(inv, n1, n2)

    @given(mctms())
    def test_double_inverse(self, vnn):
        v, _, _ = vnn
        assert v.invert().invert() == v


class TestTransformMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransformMatrix(Matrix([[1, 0], [1, 1]]), 1, 1)

    def test_inverse_round_trip(self):
        t = TransformMatrix(Matrix([[1, Fraction(1, 2)], [0, 1]]), 1, 1)
        assert t.inverse().inverse().matrix == t.matrix


@given(small_fractions, small_fractions)
def test_exact_arithmetic(a, b):
    assert (a + b) - b == a


@given(matrices())
def test_matrix_text_round_trip(m):
    assert parse_matrix(format_matrix(m)) == m
