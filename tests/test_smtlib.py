from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mehsolve.model import ConstraintSystem, VarKind
from mehsolve.smtlib import ParseError, Tok, UnsupportedConstructError, _tokenize, emit, parse

from helpers import nested_sum, systems

BAND_TEXT = """
(set-logic QF_LIA)
(declare-fun x1 () Int)
(declare-fun x2 () Int)
(assert (<= 1 (- (* 3 x1) (* 3 x2))))
(assert (<= (- (* 3 x1) (* 3 x2)) 2))
(check-sat)
"""


class TestParse:
    def test_interval(self):
        sys = parse("(declare-fun x () Int)(assert (<= x 1))(assert (>= x 0))")
        assert sys.m == 2
        assert sys.matrix.rows == [[1], [-1]]
        assert sys.bounds == [1, 0]
        assert sys.variables[0].kind is VarKind.INTEGER

    def test_equality_expands(self):
        sys = parse(
            "(declare-fun x () Int)(declare-fun y () Int)"
            "(assert (= (+ x y) 3))")
        assert sys.m == 2
        assert sys.matrix.rows == [[1, 1], [-1, -1]]
        assert sys.bounds == [3, -3]

    def test_strict_integer_tightening(self):
        sys = parse(
            "(declare-fun x1 () Int)(declare-fun x2 () Int)"
            "(assert (< (- (* 3 x1) (* 3 x2)) 3))")
        assert sys.matrix.rows == [[3, -3]]
        assert sys.bounds == [2]

    def test_strict_scales_fractional_coefficients(self):
        sys = parse("(declare-fun x () Int)(assert (< (* (/ 1 2) x) 1))")
        assert sys.matrix.rows == [[Fraction(1)]]
        assert sys.bounds == [1]

    def test_strict_over_rationals_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("(declare-fun x () Real)(assert (< x 1))")

    def test_greater_than(self):
        sys = parse("(declare-fun x () Int)(assert (> x 0))")
        assert sys.matrix.rows == [[-1]]
        assert sys.bounds == [-1]

    def test_mixed_types_reordered(self):
        sys = parse(
            "(declare-fun a () Int)(declare-fun b () Real)"
            "(assert (<= (+ a b) 1))")
        assert [v.name for v in sys.variables] == ["b", "a"]
        assert sys.user_perm == (1, 0)
        assert sys.matrix.rows == [[1, 1]]

    def test_chained_comparison(self):
        sys = parse("(declare-fun x () Int)(assert (<= 0 x 5))")
        assert sys.m == 2

    def test_division_and_decimals(self):
        sys = parse("(declare-fun x () Real)(assert (<= (/ x 2) 1.5))")
        assert sys.matrix.rows == [[Fraction(1, 2)]]
        assert sys.bounds == [Fraction(3, 2)]

    def test_nested_and(self):
        sys = parse(
            "(declare-fun x () Int)"
            "(assert (and (<= x 1) (and (>= x 0) true)))")
        assert sys.m == 2

    def test_band(self):
        sys = parse(BAND_TEXT)
        assert sys.m == 2
        assert sys.n2 == 2

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("(declare-fun x () Int)\n(assert (<= y 1))")
        assert err.value.line == 2

    def test_nonlinear_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("(declare-fun x () Int)(assert (<= (* x x) 1))")

    def test_unknown_logic_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("(set-logic QF_BV)")

    def test_let_rejected_by_name(self):
        with pytest.raises(UnsupportedConstructError) as err:
            parse("(declare-fun x () Int)(assert (let ((y x)) (<= y 1)))")
        assert "let" in str(err.value)

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError):
            parse("(declare-fun x () Int)(declare-const x Int)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(assert (<= x 1)")

    @pytest.mark.parametrize("token", ["1e999999", "1_000", "+5", "-3", "1/2", "1/0"])
    def test_only_smtlib_numerals_are_constants(self, token):
        with pytest.raises(ParseError, match="undeclared variable"):
            parse(f"(declare-fun x () Int)(assert (<= x {token}))")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(nested_sum(5000))


PREAMBLE = "(set-logic QF_LIRA)(declare-fun x () Int)(declare-const r Real)"
CONSTANTS = ["x", "r", "z", "0", "3", "2.5", "1e999999", "1_000", "+5", "-3",
             "1/2", "1/0"]
KEYWORDS = ["assert", "and", "<=", ">=", "=", "<", ">", "+", "-", "*", "/",
            "true", "let", "declare-fun", "declare-const", "Int", "Real",
            "set-logic", "QF_LIA", "check-sat", "()", "(", ")", ";"]


def _sexprs(atoms, heads=None):
    def node(inner):
        args = st.lists(inner, max_size=4)
        if heads is not None:
            args = st.tuples(st.sampled_from(heads), args).map(lambda t: [t[0], *t[1]])
        return args.map(lambda xs: "(" + " ".join(xs) + ")")
    return st.recursive(st.sampled_from(atoms), node, max_leaves=20)


# Free-form s-expressions, plus assertions over well-formed operator heads
# so that most generated text reaches the term and atom parsers.
commands = st.one_of(
    _sexprs(CONSTANTS + KEYWORDS),
    _sexprs(CONSTANTS, ["<=", ">=", "=", "<", ">", "and", "+", "-", "*", "/"])
    .map(lambda t: f"(assert {t})"),
)


@given(st.booleans(), st.lists(commands, max_size=4))
@example(True, ["(assert (<= x 1e999999))"])
@example(False, [nested_sum(5000)])
@example(True, ["(assert (<= (-) x))"])
@settings(max_examples=300, deadline=None)
def test_fuzz_parse_yields_system_or_parse_error(preamble, body):
    text = (PREAMBLE if preamble else "") + "\n".join(body)
    try:
        result = parse(text)
    except ParseError:
        return
    assert isinstance(result, ConstraintSystem)


def _reference_tokenize(text):
    """The character-at-a-time tokenizer that the regex one replaced."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(Tok(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i += 1
                col += 1
            toks.append(Tok(text[start:i], line, start_col))
    return toks


SEPARATORS = [" ", "\n", "\t", "\r\n", "\x0c", "\u00a0", "\u2028", "\x1c", ";c\n", ";"]


class TestTokenize:
    @pytest.mark.parametrize("text", [
        "", "\n\n", "\tx", "(a\r\nb)", "a\x0cb", "a\u00a0b\n c", "x ; comment at eof",
        "(assert x) ; note", "a;b", "a(b", "(x)y;z\n(w", ";\n;x\ny", "\u2028(x\u3000y)",
    ])
    def test_examples_match_reference(self, text):
        assert _tokenize(text) == _reference_tokenize(text)

    @given(st.lists(st.one_of(commands, st.sampled_from(SEPARATORS)), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_matches_reference(self, parts):
        text = "".join(parts)
        assert _tokenize(text) == _reference_tokenize(text)

    def test_every_code_point_splits_as_str_split(self):
        # str.split() splits on exactly the characters str.isspace() holds
        # for, as the reference loop does; interleaving "x" makes every
        # code point a separator or a word character of its own.
        text = "x".join(chr(c) for c in range(0x110000) if chr(c) not in "();")
        assert [t.text for t in _tokenize(text)] == text.split()


class TestEmit:
    def test_round_trip_band(self):
        sys = parse(BAND_TEXT)
        again = parse(emit(sys))
        assert again.matrix == sys.matrix
        assert again.bounds == sys.bounds
        assert again.variables == sys.variables
        assert again.user_perm == sys.user_perm

    def test_round_trip_preserves_declaration_order(self):
        text = ("(declare-fun a () Int)(declare-fun b () Real)"
                "(assert (<= (- a b) (/ 1 3)))")
        sys = parse(text)
        again = parse(emit(sys))
        assert again.user_perm == sys.user_perm
        assert again.matrix == sys.matrix

    @given(systems(max_m=4, max_n=3))
    @settings(max_examples=50)
    def test_round_trip_generated_systems(self, sys):
        again = parse(emit(sys))
        assert again.matrix == sys.matrix
        assert again.bounds == sys.bounds
        assert [v.kind for v in again.variables] == [v.kind for v in sys.variables]
