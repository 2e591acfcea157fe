import math
import re
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mehsolve.linalg import Matrix
from mehsolve.model import ConstraintSystem, VarInfo, VarKind
from mehsolve.smtlib import (
    ParseError,
    Tok,
    UnsupportedConstructError,
    _negate,
    _Parser,
    _pos,
    _read_sexprs,
    emit,
    parse,
)

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

    # Longer digit strings than sys.get_int_max_str_digits() (4300 by
    # default) make int() raise a bare ValueError; parse reports the token.
    def test_overlong_integer_is_a_parse_error(self):
        with pytest.raises(ParseError, match="numeral too long") as err:
            parse("(declare-fun x () Int)\n(assert (<= x " + "9" * 5000 + "))")
        assert (err.value.line, err.value.col) == (2, 15)

    def test_overlong_decimal_is_a_parse_error(self):
        with pytest.raises(ParseError, match="numeral too long") as err:
            parse("(declare-fun x () Real)\n(assert (<= x 0." + "5" * 5000 + "))")
        assert (err.value.line, err.value.col) == (2, 15)

    def test_decimal_digit_runs_are_limited_apart(self):
        # 6,001 characters, but each digit run is under the limit.
        decimal = "7" * 3000 + "." + "3" * 3000
        sys = parse(f"(declare-fun x () Real)(assert (<= x {decimal}))")
        assert sys.bounds == [Fraction(decimal)]

    def test_cancelled_coefficient_keeps_a_product_nonlinear(self):
        with pytest.raises(UnsupportedConstructError, match="non-linear"):
            parse("(declare-fun x () Int)(declare-fun y () Int)"
                  "(assert (<= (* (- y y) x) 1))")

    def test_decimals_and_divisions_share_one_denominator(self):
        sys = parse("(declare-fun x () Real)(declare-fun y () Int)"
                    "(assert (<= (+ (/ x 3) (* 0.25 y) 0.5) (/ 1 (- 6))))")
        assert sys.matrix.rows == [[Fraction(1, 3), Fraction(1, 4)]]
        assert sys.bounds == [Fraction(-2, 3)]


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
@example(True, ["(assert (<= x " + "9" * 5000 + "))"])
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


def _reference_read_sexprs(toks):
    """The reader that nested the reference tokens in a second loop."""
    out = []
    stack = [out]
    for tok in toks:
        if tok.text == "(":
            node = []
            stack[-1].append(node)
            stack.append(node)
        elif tok.text == ")":
            stack.pop()
            if not stack:
                raise ParseError("unbalanced ')'", tok.line, tok.col)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ParseError("unbalanced '('", toks[-1].line if toks else 0, 0)
    return out


def _read_or_error(read, text):
    """The nested Tok structure, or the ParseError's message and position."""
    try:
        return read(text)
    except ParseError as err:
        return str(err), err.line, err.col


def _reference_read(text):
    return _reference_read_sexprs(_reference_tokenize(text))


SEPARATORS = [" ", "\n", "\t", "\r\n", "\x0c", "\u00a0", "\u2028", "\x1c", ";c\n", ";"]


class TestTokenize:
    @pytest.mark.parametrize("text", [
        "", "\n\n", "\tx", "(a\r\nb)", "a\x0cb", "a\u00a0b\n c", "x ; comment at eof",
        "(assert x) ; note", "a;b", "a(b", "(x)y;z\n(w", ";\n;x\ny", "\u2028(x\u3000y)",
        ")", "(a))\n", "((a)\n;x\n\n", "(a ; b)\n)",
    ])
    def test_examples_match_reference(self, text):
        assert _read_or_error(_read_sexprs, text) == _read_or_error(_reference_read, text)

    @given(st.lists(st.one_of(commands, st.sampled_from(SEPARATORS)), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_matches_reference(self, parts):
        text = "".join(parts)
        assert _read_or_error(_read_sexprs, text) == _read_or_error(_reference_read, text)

    def test_every_code_point_splits_as_str_split(self):
        # str.split() splits on exactly the characters str.isspace() holds
        # for, as the reference loop does; interleaving "x" makes every
        # code point a separator or a word character of its own.  Without
        # parentheses the reader returns the leaves as one flat list.
        text = "x".join(chr(c) for c in range(0x110000) if chr(c) not in "();")
        assert [t.text for t in _read_sexprs(text)] == text.split()


# -- the Fraction term layer that integer terms replaced ------------------


@dataclass
class _RefLinTerm:
    coeffs: dict[str, Fraction]
    const: Fraction

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + v
        return _RefLinTerm(coeffs, self.const + other.const)

    def __neg__(self):
        return _RefLinTerm({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f: Fraction):
        return _RefLinTerm({k: f * v for k, v in self.coeffs.items()}, f * self.const)


_REFERENCE_NUMERAL = re.compile(r"[0-9]+(\.[0-9]+)?")


def _reference_numeral(text):
    return Fraction(text) if _REFERENCE_NUMERAL.fullmatch(text) else None


class _ReferenceParser(_Parser):
    """The parser's commands over the Fraction term layer it used before."""

    def _atom(self, rel, a, b, expr):
        line = _pos(expr)[0]
        diff = a - b  # rel 0
        coeffs, const = diff.coeffs, -diff.const
        if rel == "<=":
            self._add_row(coeffs, const)
        elif rel == ">=":
            self._add_row(_negate(coeffs), -const)
        elif rel == "=":
            self._add_row(coeffs, const)
            self._add_row(_negate(coeffs), -const)
        else:
            sense = 1 if rel == "<" else -1
            self._add_row(*self._tighten(coeffs, const, sense, line))

    def _tighten(self, coeffs, const, sense, line):
        for name in coeffs:
            if coeffs[name] and self.decls[name] is not VarKind.INTEGER:
                raise UnsupportedConstructError(
                    "strict comparison over rational variables "
                    "(delta-rationals are not implemented)", line, 0)
        if sense < 0:
            coeffs, const = _negate(coeffs), -const
        scale = math.lcm(*(c.denominator for c in coeffs.values())) if coeffs else 1
        scaled = {k: c * scale for k, c in coeffs.items()}
        bound = Fraction(math.ceil(const * scale) - 1)
        return scaled, bound

    def _add_row(self, coeffs, const):
        self.rows.append((coeffs, Fraction(const)))

    def _term(self, node):
        if isinstance(node, Tok):
            num = _reference_numeral(node.text)
            if num is not None:
                return _RefLinTerm({}, num)
            if node.text in self.decls:
                return _RefLinTerm({node.text: Fraction(1)}, Fraction(0))
            raise ParseError(f"undeclared variable {node.text}", node.line, node.col)
        line, col = _pos(node)
        if not node or isinstance(node[0], list):
            raise ParseError("malformed term", line, col)
        head = node[0].text
        args = [self._term(t) for t in node[1:]]
        if head == "+":
            out = _RefLinTerm({}, Fraction(0))
            for t in args:
                out = out + t
            return out
        if head == "-":
            if not args:
                raise ParseError("- takes at least one argument", line, col)
            if len(args) == 1:
                return -args[0]
            out = args[0]
            for t in args[1:]:
                out = out - t
            return out
        if head == "*":
            out = _RefLinTerm({}, Fraction(1))
            for t in args:
                if not t.coeffs:
                    out = out.scale(t.const)
                elif out.coeffs:
                    raise UnsupportedConstructError("non-linear product", line, col)
                else:
                    out = t.scale(out.const)
            return out
        if head == "/":
            if len(args) != 2:
                raise ParseError("/ takes two arguments", line, col)
            num, den = args
            if den.coeffs or den.const == 0:
                raise UnsupportedConstructError("division by a non-constant", line, col)
            return num.scale(1 / den.const)
        raise UnsupportedConstructError(f"term operator {head}", line, col)

    def system(self):
        rationals = [n for n in self.order if self.decls[n] is VarKind.RATIONAL]
        integers = [n for n in self.order if self.decls[n] is VarKind.INTEGER]
        internal = rationals + integers
        col_of = {n: j for j, n in enumerate(internal)}
        variables = [VarInfo(n, self.decls[n]) for n in internal]
        user_perm = [col_of[n] for n in self.order]
        rows = []
        bounds = []
        for coeffs, const in self.rows:
            row = [Fraction(0)] * len(internal)
            for name, c in coeffs.items():
                row[col_of[name]] = c
            rows.append(row)
            bounds.append(const)
        matrix = Matrix(rows) if rows else Matrix.zeros(0, len(internal))
        return ConstraintSystem(matrix, bounds, variables, user_perm)


def _reference_parse(text):
    """parse() as it was: two-loop reader, Fraction terms."""
    parser = _ReferenceParser()
    for node in _reference_read(text):
        try:
            parser.feed(node)
        except RecursionError:
            raise ParseError("expression nested too deeply", *_pos(node)) from None
    return parser.system()


def _parse_outcome(parse_fn, text):
    """The parsed system's parts, or the ParseError's class, message and position."""
    try:
        sys = parse_fn(text)
    except ParseError as err:
        return type(err), str(err), err.line, err.col
    return sys.matrix, sys.bounds, sys.variables, sys.user_perm


TERM_PREAMBLE = ("(set-logic QF_LIRA)(declare-fun x () Int)(declare-fun y () Int)"
                 "(declare-const r Real)")
CONSTANT_TERMS = ["0", "3", "007", "2.5", "0.25", "10.000", "0.0", "(- 4)",
                  "(/ 1 3)", "(- 0.75)", "(/ 2.5 (- 6))", "(+ 1 0.5)", "(* 2 (/ 1 4))"]
NONZERO_CONSTANTS = [c for c in CONSTANT_TERMS if c not in ("0", "0.0")]


def _linear_terms(variables):
    """Well-formed linear terms over variables, nested + - * / included.

    ``(- y y)``-style leaves cancel to a zero coefficient that stays in the
    term, also under ``*`` and ``/``.
    """
    cancelling = [f"(- {v} {v})" for v in variables]
    leaves = st.sampled_from(variables + cancelling + CONSTANT_TERMS)

    def node(inner):
        constant = st.sampled_from(CONSTANT_TERMS)
        return st.one_of(
            st.lists(inner, max_size=3).map(lambda xs: "(+ " + " ".join(xs) + ")"),
            st.lists(inner, min_size=1, max_size=3).map(lambda xs: "(- " + " ".join(xs) + ")"),
            st.tuples(constant, inner).map(lambda t: f"(* {t[0]} {t[1]})"),
            st.tuples(inner, constant).map(lambda t: f"(* {t[0]} {t[1]})"),
            st.tuples(inner, st.sampled_from(NONZERO_CONSTANTS))
            .map(lambda t: f"(/ {t[0]} {t[1]})"),
        )
    return st.recursive(leaves, node, max_leaves=10)


def _atoms(relations, terms):
    return st.tuples(st.sampled_from(relations), st.lists(terms, min_size=2, max_size=3)) \
        .map(lambda t: f"({t[0]} {' '.join(t[1])})")


# Chained and strict comparisons over Int, and every comparison over mixed terms.
well_formed_atoms = st.one_of(
    _atoms(["<", ">", "<=", ">=", "="], _linear_terms(["x", "y"])),
    _atoms(["<=", ">=", "=", "<", ">"], _linear_terms(["x", "y", "r"])),
)


class TestReferenceTermLayer:
    """parse() against the Fraction term layer and two-loop reader it replaced."""

    @given(st.booleans(), st.lists(commands, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_commands_match_reference(self, preamble, body):
        text = (PREAMBLE if preamble else "") + "\n".join(body)
        assert _parse_outcome(parse, text) == _parse_outcome(_reference_parse, text)

    @given(st.lists(well_formed_atoms, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_well_formed_atoms_match_reference(self, atoms):
        text = TERM_PREAMBLE + "\n".join(f"(assert {a})" for a in atoms)
        assert _parse_outcome(parse, text) == _parse_outcome(_reference_parse, text)

    @pytest.mark.parametrize("atom", [
        "(< (* 3 (- y y)) 1)", "(< (/ (- y y) 2.5) x)", "(> (* 0 x) (- 1))",
        "(< (/ x 2) (/ y 3) 0.5)", "(<= 0 x 5 y)", "(= (* 0.5 r) (/ x (- 4)))",
        "(< r 1)", "(< (- r r) 1)", "(>= (+) (-  x) 1.25)",
    ])
    def test_examples_match_reference(self, atom):
        text = f"{TERM_PREAMBLE}(assert {atom})"
        assert _parse_outcome(parse, text) == _parse_outcome(_reference_parse, text)


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
