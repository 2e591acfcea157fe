from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from mehsolve.mehnf import MehState, batch_mehnf, ipiv, rpiv

from helpers import small_ints


class TestPivHelpers:
    def test_rpiv_identity(self):
        assert rpiv(3, Matrix.identity(3), 3) == 3

    def test_rpiv_zero(self):
        assert rpiv(2, Matrix.zeros(2, 3), 3) == 0

    def test_rpiv_scans_rational_block_only(self):
        assert rpiv(1, Matrix([[1, 0, 5]]), 2) == 1

    def test_ipiv_zero_integer_block(self):
        assert ipiv(1, Matrix([[1, 0, 0]]), 1) == 1

    def test_ipiv_identity_all_integer(self):
        assert ipiv(2, Matrix.identity(2), 0) == 2

    def test_ipiv_picks_largest(self):
        assert ipiv(1, Matrix([[0, 3, 0]]), 1) == 2


class TestAbstractToInt:
    def test_negation_and_scaling(self):
        h = Matrix([[Fraction(3, 2), -1]])
        v = Matrix.identity(2)
        c, s = abstract_to_int(h, v, 0, 0, 0)
        assert c == 2
        assert s == {0: 3, 1: 2}
        assert h.rows[0] == [Fraction(3, 2), 1]

    def test_zero_tail_gives_empty_set(self):
        h = Matrix([[1, 0, 0]])
        v = Matrix.identity(3)
        _, s = abstract_to_int(h, v, 0, 1, 0)
        assert s == {}

    def test_already_positive_integer_row(self):
        h = Matrix([[2, 5]])
        v = Matrix.identity(2)
        c, s = abstract_to_int(h, v, 0, 0, 0)
        assert c == 1
        assert s == {0: 2, 1: 5}


class TestReduceLeftInt:
    def test_equal_entries_single_subtraction(self):
        h = Matrix([[3, 3]])
        v = Matrix.identity(2)
        reduce_left_int(h, v, 0, 0, 0)
        assert h.rows[0] == [3, 0]

    def test_gcd(self):
        h = Matrix([[4, 6]])
        v = Matrix.identity(2)
        reduce_left_int(h, v, 0, 0, 0)
        assert h.rows[0] == [2, 0]
        assert v.det() in (1, -1)

    def test_singleton_swap_only(self):
        h = Matrix([[0, 7]])
        v = Matrix.identity(2)
        reduce_left_int(h, v, 0, 0, 0)
        assert h.rows[0] == [7, 0]

    def test_empty_set_rejected(self):
        h = Matrix([[0, 0]])
        with pytest.raises(GapPreconditionError):
            reduce_left_int(h, Matrix.identity(2), 0, 0, 0)


class TestReduceRightInt:
    def test_reduces_left_entry(self):
        h = Matrix([[5, 3]])
        v = Matrix.identity(2)
        reduce_right_int(h, v, 0, 1, 0)
        assert h.rows[0] == [2, 3]

    def test_in_range_unchanged(self):
        h = Matrix([[2, 3]])
        v = Matrix.identity(2)
        reduce_right_int(h, v, 0, 1, 0)
        assert h.rows[0] == [2, 3]

    def test_negative_entry_floor_semantics(self):
        h = Matrix([[-1, 3]])
        v = Matrix.identity(2)
        reduce_right_int(h, v, 0, 1, 0)
        assert h.rows[0] == [2, 3]

    def test_nonpositive_pivot_rejected(self):
        with pytest.raises(GapPreconditionError):
            reduce_right_int(Matrix([[1, -3]]), Matrix.identity(2), 0, 1, 0)


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


def band_state():
    state = MehState(0, 2, validate=True)
    state.extend([3, -3], 2)
    return state


class TestExtend:
    def test_first_band_row_dispatches_int(self):
        state = band_state()
        assert state.history[-1].kind == "int"
        assert state.h == Matrix([[3, 0]])
        assert state.u == [2]

    def test_second_band_row_appends(self):
        state = band_state()
        state.extend([-3, 3], -1)
        assert state.history[-1].kind == "append"
        assert state.h == Matrix([[3, 0], [-3, 0]])
        assert state.u == [2, -1]

    def test_duplicate_row_appends(self):
        state = band_state()
        state.extend([3, -3], 2)
        assert state.history[-1].kind == "append"
        assert state.h.m == 2

    def test_rational_gap_scales(self):
        state = MehState(2, 0, validate=True)
        state.extend([2, 0], 4)
        assert state.history[-1].kind == "rat"
        assert state.h == Matrix([[1, 0]])
        assert state.v.rows[0][0] == Fraction(1, 2)

    def test_second_rational_pivot_builds_identity(self):
        state = MehState(2, 0, validate=True)
        state.extend([2, 0], 4)
        state.extend([1, 3], 6)
        assert state.h == Matrix.identity(2)

    def test_mixed_rational_then_integer(self):
        state = MehState(1, 2, validate=True)
        state.extend([2, 1, 1], 3)    # fills the rational gap
        state.extend([0, 2, 4], 5)    # no rational gap left in h? depends on V
        state.extend([4, 2, 2], 7)    # scaled duplicate of the first row
        assert state.h.m == 3

    def test_gcd_pivot(self):
        state = MehState(0, 2, validate=True)
        state.extend([4, 6], 1)
        assert state.h == Matrix([[2, 0]])


class TestBacktrack:
    def test_extend_backtrack_restores_h(self):
        state = band_state()
        before = state.h.copy()
        state.extend([-3, 3], -1)
        state.backtrack()
        assert state.h == before
        assert state.u == [2]

    def test_full_unwind(self):
        state = band_state()
        state.extend([-3, 3], -1)
        state.backtrack()
        state.backtrack()
        assert state.h.m == 0
        assert is_mctm(state.v, 0, 2)

    def test_empty_raises(self):
        with pytest.raises(IndexError):
            MehState(1, 1).backtrack()


@st.composite
def op_sequences(draw):
    n1 = draw(st.integers(0, 2))
    n2 = draw(st.integers(0, 3))
    if n1 + n2 == 0:
        n1 = 1
    n = n1 + n2
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("extend"),
                      st.lists(small_ints, min_size=n, max_size=n),
                      small_ints),
            st.just(("backtrack",)),
        ),
        min_size=1, max_size=12,
    ))
    return n1, n2, ops


class TestStackDiscipline:
    @given(op_sequences(), st.sampled_from([4096, 1]))
    @settings(max_examples=80)
    def test_invariants_hold_at_every_step(self, seq, bit_limit):
        # bit_limit=1 forces a rebuild after nearly every step, covering
        # the rebuild-on-backtrack path as well.
        n1, n2, ops = seq
        state = MehState(n1, n2, bit_limit=bit_limit, validate=True)
        depth = 0
        for op in ops:
            if op[0] == "extend":
                before = list(zip((tuple(r) for r in state.h.rows), state.u))
                cols_before = _nonzero_cols(state.h)
                state.extend(op[1], op[2])
                after = list(zip((tuple(r) for r in state.h.rows), state.u))
                for item in before:
                    assert item in after
                assert _nonzero_cols(state.h) - cols_before <= 1
                depth += 1
            elif depth:
                state.backtrack()
                depth -= 1


def _nonzero_cols(h):
    return sum(1 for j in range(h.n) if any(row[j] for row in h.rows))

