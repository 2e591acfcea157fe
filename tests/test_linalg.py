from fractions import Fraction
import math
import random

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
    int_form,
    int_row,
    is_hermite_normal_form,
    is_lower_triangular_with_gaps,
    is_mctm,
    is_mehnf,
    piv,
)

from helpers import (
    matrices,
    mctms,
    parse_matrix,
    ref_column_reduce,
    ref_hermite_normal_form,
    same_results,
    small_fractions,
)


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


def _kernel_input(rng):
    """A random rational matrix for the kernel comparisons below.

    About one row in eight and, with probability 1/2, one column are
    zero; other entries are zero, small with mixed signs over the
    denominators 1, 2, 3, 4 and 7, or numerators and denominators up to
    2**80, so one row carries several distinct denominators.
    """
    m, n = rng.randint(0, 6), rng.randint(1, 6)
    zero_col = rng.randrange(2 * n)
    rows = []
    for _ in range(m):
        row = [Fraction(0)] * n
        if rng.random() >= 0.125:
            for j in range(n):
                k = rng.random()
                if j == zero_col or k < 0.3:
                    continue
                if k < 0.4:
                    row[j] = Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 2**80))
                else:
                    row[j] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7)))
        rows.append(row)
    return Matrix(rows) if rows else Matrix.zeros(0, n)


class TestKernelsMatchReference:
    """The integer-row kernels return exactly what the Fraction steps return."""

    SEEDS = range(6)

    def test_inputs_cover_the_hard_cases(self):
        seen = set()
        for seed in self.SEEDS:
            rng = random.Random(seed)
            for _ in range(40):
                m = _kernel_input(rng)
                for row in m.rows:
                    seen.add("zero row" if not any(row) else "row")
                    if len({x.denominator for x in row if x}) > 2:
                        seen.add("denominators")
                    if any(x < 0 for x in row):
                        seen.add("negative")
                    if any(abs(x.numerator) > 2**64 for x in row):
                        seen.add("huge")
                if m.m and any(not any(col) for col in zip(*m.rows)):
                    seen.add("zero column")
        assert seen == {"zero row", "row", "denominators", "negative", "huge",
                        "zero column"}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_column_reduce(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            m = _kernel_input(rng)
            assert same_results(column_reduce(m), ref_column_reduce(m))
            cols, rows = rng.randint(0, m.n), rng.randint(0, m.m)
            assert same_results(column_reduce(m, cols, rows), ref_column_reduce(m, cols, rows))
            assert same_results(column_reduce(m, rows=rows), ref_column_reduce(m, rows=rows))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hermite_normal_form_copy(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            m = _kernel_input(rng)
            before = m.copy()
            assert same_results(hermite_normal_form(m), ref_hermite_normal_form(m))
            assert m == before

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hermite_normal_form_in_place(self, seed):
        # As batch_mehnf calls it: the rational columns (n1 of them) first,
        # the searched rows on top, riding rows below them.
        rng = random.Random(seed)
        for _ in range(40):
            d = _kernel_input(rng)
            top, n1 = rng.randint(0, d.m), rng.randint(0, d.n)
            h, v, pivot_rows = column_reduce(d, n1, top)
            want = ref_hermite_normal_form(h.copy(), v.copy(), len(pivot_rows), n1, top)
            got = hermite_normal_form(h, v, len(pivot_rows), n1, top)
            assert got[0] is h and got[1] is v
            assert same_results(got, want)


def test_int_row():
    assert int_row([Fraction(1, 2), Fraction(-2, 3), Fraction(0)]) == ([3, -4, 0], 6)
    assert int_row([Fraction(4), Fraction(-6)]) == ([4, -6], 1)
    assert int_row([]) == ([], 1)


@given(st.lists(small_fractions, min_size=1, max_size=4), small_fractions)
def test_int_form(row, r):
    # row = (p / q) * form, with form primitive and its first non-zero
    # entry positive, so a non-zero multiple r * row has the same form.
    form, p, q = int_form(*int_row(row))
    if not any(row):
        assert (form, p, q) == (None, 0, 1)
        return
    assert [Fraction(p, q) * c for c in form] == row
    assert next(c for c in form if c) > 0 and math.gcd(*form) == 1
    assert q > 0 and math.gcd(p, q) == 1
    if r:
        assert int_form(*int_row([r * a for a in row]))[0] == form


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
