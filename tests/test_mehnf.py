from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mehsolve.linalg import (
    GapPreconditionError,
    Matrix,
    abstract_to_int,
    is_mctm,
    is_mehnf,
    reduce_left_int,
    reduce_right_int,
)
from mehsolve.mehnf import batch_mehnf, rpiv

from helpers import small_fractions, small_ints


class TestPivHelpers:
    def test_rpiv_identity(self):
        assert rpiv(3, Matrix.identity(3), 3) == 3

    def test_rpiv_zero(self):
        assert rpiv(2, Matrix.zeros(2, 3), 3) == 0

    def test_rpiv_scans_rational_block_only(self):
        assert rpiv(1, Matrix([[1, 0, 5]]), 2) == 1


class TestAbstractToInt:
    def test_negation_and_scaling(self):
        h = Matrix([[Fraction(3, 2), -1]])
        v = Matrix.identity(2)
        c, s = abstract_to_int(h, v, 0, 0)
        assert c == 2
        assert s == {0: 3, 1: 2}
        assert h.rows[0] == [Fraction(3, 2), 1]

    def test_zero_tail_gives_empty_set(self):
        h = Matrix([[1, 0, 0]])
        v = Matrix.identity(3)
        _, s = abstract_to_int(h, v, 0, 1)
        assert s == {}

    def test_already_positive_integer_row(self):
        h = Matrix([[2, 5]])
        v = Matrix.identity(2)
        c, s = abstract_to_int(h, v, 0, 0)
        assert c == 1
        assert s == {0: 2, 1: 5}


class TestReduceLeftInt:
    def test_equal_entries_single_subtraction(self):
        h = Matrix([[3, 3]])
        v = Matrix.identity(2)
        reduce_left_int(h, v, 0, 0)
        assert h.rows[0] == [3, 0]

    def test_gcd(self):
        h = Matrix([[4, 6]])
        v = Matrix.identity(2)
        reduce_left_int(h, v, 0, 0)
        assert h.rows[0] == [2, 0]
        assert v.det() in (1, -1)

    def test_singleton_swap_only(self):
        h = Matrix([[0, 7]])
        v = Matrix.identity(2)
        reduce_left_int(h, v, 0, 0)
        assert h.rows[0] == [7, 0]

    def test_empty_set_rejected(self):
        h = Matrix([[0, 0]])
        with pytest.raises(GapPreconditionError):
            reduce_left_int(h, Matrix.identity(2), 0, 0)


class TestReduceRightInt:
    def test_reduces_left_entry(self):
        h = Matrix([[5, 3]])
        v = Matrix.identity(2)
        reduce_right_int(h, v, 0, 1)
        assert h.rows[0] == [2, 3]

    def test_in_range_unchanged(self):
        h = Matrix([[2, 3]])
        v = Matrix.identity(2)
        reduce_right_int(h, v, 0, 1)
        assert h.rows[0] == [2, 3]

    def test_negative_entry_floor_semantics(self):
        h = Matrix([[-1, 3]])
        v = Matrix.identity(2)
        reduce_right_int(h, v, 0, 1)
        assert h.rows[0] == [2, 3]

    def test_nonpositive_pivot_rejected(self):
        with pytest.raises(GapPreconditionError):
            reduce_right_int(Matrix([[1, -3]]), Matrix.identity(2), 0, 1)


class TestBatchMehnf:
    def test_band_row(self):
        h, v, perm = batch_mehnf(Matrix([[3, -3]]), 0)
        assert h == Matrix([[3, 0]])
        assert is_mctm(v.matrix, 0, 2)
        assert perm == (0,)

    def test_identity_rational(self):
        h, v, perm = batch_mehnf(Matrix.identity(2), 2)
        assert h == Matrix.identity(2)
        assert v.matrix == Matrix.identity(2)

    def test_mixed_example(self):
        d = Matrix([[2, 0], [1, 1]])
        h, v, perm = batch_mehnf(d, 1)
        dp = Matrix([d.rows[i] for i in perm])
        assert h == dp * v.matrix
        assert is_mehnf(h, 1, 1)
        assert is_mctm(v.matrix, 1, 1)

    def test_row_swap_needed(self):
        # First row is rationally dependent (zero rational part), so the
        # permutation must lift the second row to the top.
        d = Matrix([[0, 5], [2, 1]])
        h, v, perm = batch_mehnf(d, 1)
        assert perm == (1, 0)
        assert is_mehnf(h, 1, 1)

    def test_empty(self):
        h, v, perm = batch_mehnf(Matrix.zeros(0, 3), 2)
        assert h.m == 0 and perm == ()

    @given(
        st.integers(1, 5), st.integers(0, 5), st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=80)
    def test_random_structure(self, m, n1, n2, data):
        n = n1 + n2
        if n == 0:
            return
        rows = data.draw(st.lists(
            st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m))
        d = Matrix(rows)
        h, v, perm = batch_mehnf(d, n1)
        assert sorted(perm) == list(range(m))
        dp = Matrix([d.rows[i] for i in perm])
        assert h == dp * v.matrix
        r = rpiv(h.m, h, n1)
        assert is_mehnf(h, n1, r)
        assert is_mctm(v.matrix, n1, n2)

    @given(
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
        small_fractions, st.data(),
    )
    @settings(max_examples=80)
    def test_random_rational_structure(self, m, n1, n2, factor, data):
        # The last row's rational part is a non-zero multiple of the first
        # row's, so it is no pivot row and stays non-zero in the rational
        # columns of h: a right reduction that strayed into rational
        # columns would add integer columns there and break the MCTM shape.
        n = n1 + n2
        rows = data.draw(st.lists(
            st.lists(small_fractions, min_size=n, max_size=n), min_size=m, max_size=m))
        assume(factor and any(rows[0][:n1]))
        tail = data.draw(st.lists(small_fractions, min_size=n2, max_size=n2))
        rows.append([factor * x for x in rows[0][:n1]] + tail)
        d = Matrix(rows)
        h, v, perm = batch_mehnf(d, n1)
        dp = Matrix([d.rows[i] for i in perm])
        assert h == dp * v.matrix
        r = rpiv(h.m, h, n1)
        assert is_mehnf(h, n1, r)
        assert is_mctm(v.matrix, n1, n2)
        assert any(any(row[:n1]) for row in h.rows[r:])

    # (rows, n1, row_perm, h, v): exact outputs, pinned so that a rewrite
    # of the column kernels cannot change them unnoticed.
    GOLDEN = [
        ([["1/2", 3, "-2/3"], [2, "1/3", 4], [-1, "5/2", 7]], 1,
         (0, 1, 2),
         [[1, 0, 0], [4, "5/3", 0], [-2, "119/6", "221/3"]],
         [[2, "-10/3", "-44/3"], [0, 1, 4], [0, 2, 7]]),
        ([[0, 0, "4/3", -3], ["3/2", -1, 6, "1/2"], [1, "1/2", -2, 5], [2, 0, "5/3", 1]], 2,
         (1, 2, 0, 3),
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "1/3", 0], ["4/7", "8/7", "83/21", "107/7"]],
         [["2/7", "4/7", "29/7", "120/7"], ["-4/7", "6/7", "-44/7", "-212/7"],
          [0, 0, -2, -9], [0, 0, -1, -4]]),
        ([["1/3", "2/3", 1, -1, 2], [1, 2, "3/4", 0, 3], [2, 4, 0, 5, "-7/2"]], 2,
         (0, 1, 2),
         [[1, 0, 0, 0, 0], [3, 0, "3/4", 0, 0], [6, 0, "1/2", "9/2", 0]],
         [[3, -2, -3, 3, -9], [0, 1, 0, 0, 0], [0, 0, 1, 0, 4],
          [0, 0, 2, -1, 5], [0, 0, 1, -1, 2]]),
    ]

    @pytest.mark.parametrize("rows, n1, perm, h, v", GOLDEN)
    def test_golden_output(self, rows, n1, perm, h, v):
        got_h, got_v, got_perm = batch_mehnf(Matrix(rows), n1)
        assert got_perm == perm
        assert got_h == Matrix(h)
        assert got_v.matrix == Matrix(v)
