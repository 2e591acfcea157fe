"""SMT-LIB subset frontend: parsing and emission of constraint systems.

Supported surface: ``set-logic`` QF_LIA / QF_LRA / QF_LIRA, 0-ary
``declare-fun`` / ``declare-const`` with Int or Real sorts, and ``assert``
of linear atoms (``<=``, ``>=``, ``=``, chainable, possibly under a
top-level ``and``).  Terms are sums, differences, rational-constant
multiples and divisions of variables; constants are SMT-LIB numerals and
decimals (``3``, ``2.5``).  Equalities expand into two opposed
inequalities.  Strict comparisons are accepted only over all-integer
atoms, where scaling to integer coefficients makes a one-unit tightening
exact; strict atoms over rational variables are rejected as unsupported.

Text is tokenized and nested into s-expressions in one pass.  Terms and
rows are exact integers over one positive integer denominator each, the
way the simplex tableau keeps its rows; ``Fraction`` entries are made only
when ``system()`` assembles the matrix and bounds.

The parser records declaration order so models are printed the way the
input was written.  Rows appear in the order of the atoms they come from,
so row indices in certificates refer to the input in reading order.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .linalg import Matrix
from .model import ConstraintSystem, VarInfo, VarKind

LOGICS = ("QF_LIA", "QF_LRA", "QF_LIRA")


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class UnsupportedConstructError(ParseError):
    pass


class Tok(NamedTuple):
    text: str
    line: int
    col: int


# Leading whitespace, then a parenthesis, the start of a comment or a
# maximal run of characters that are neither whitespace nor "();".  For str
# patterns ``\s`` is exactly the characters for which ``str.isspace`` holds.
_TOKEN = re.compile(r"(\s*)([()]|;|[^\s();]+)")


def _read_sexprs(text: str) -> list:
    """The top-level s-expressions of text: nested lists with Tok leaves.

    Tokenizes and nests in one loop.  Tokens carry 1-based line and
    column; only a line feed starts a line, and ``;`` comments out the rest
    of its line.
    """
    out = []
    stack = [out]
    top = out
    last = 0
    for line, chars in enumerate(text.split("\n"), 1):
        col = 1
        for space, tok in _TOKEN.findall(chars):
            if tok == ";":
                break
            col += len(space)
            last = line
            if tok == "(":
                node = []
                top.append(node)
                stack.append(node)
                top = node
            elif tok == ")":
                stack.pop()
                if not stack:
                    raise ParseError("unbalanced ')'", line, col)
                top = stack[-1]
            else:
                top.append(Tok(tok, line, col))
            col += len(tok)
    if len(stack) != 1:
        raise ParseError("unbalanced '('", last, 0)
    return out


def _pos(node) -> tuple[int, int]:
    while isinstance(node, list):
        if not node:
            return 0, 0
        node = node[0]
    return node.line, node.col


class _LinTerm:
    """The term (sum of coeffs[v] * v, plus const) / den, in integers.

    ``den`` is positive.  A variable keeps its key once mentioned, even
    when its coefficient cancels to zero.  Every term that ``_Parser._term``
    returns is new and owned by its caller, so the operations below update
    it in place.
    """

    __slots__ = ("coeffs", "const", "den")

    def __init__(self, coeffs: dict[str, int], const: int, den: int = 1):
        self.coeffs = coeffs
        self.const = const
        self.den = den

    def add(self, other: "_LinTerm", sign: int = 1) -> None:
        """self += sign * other, over the lcm of the two denominators."""
        if other.den != self.den:
            den = math.lcm(self.den, other.den)
            up = den // self.den
            self.scale(up, up)
            sign *= den // other.den
        coeffs = self.coeffs
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + sign * v
        self.const += sign * other.const

    def scale(self, p: int, q: int) -> None:
        """self *= p / q, for q > 0."""
        if p != 1:
            coeffs = self.coeffs
            for k in coeffs:
                coeffs[k] *= p
            self.const *= p
        self.den *= q


_NUMERAL = re.compile(r"([0-9]+)(?:\.([0-9]+))?")


def _numeral(tok: Tok) -> Optional[_LinTerm]:
    """An SMT-LIB numeral or decimal; any other token is not a constant.

    ``int`` refuses digit strings longer than the interpreter's limit
    (``sys.get_int_max_str_digits``); such a numeral is a ParseError.  The
    two digit runs of a decimal are converted apart, as ``Fraction`` does,
    so a decimal is too long only when one of them is.
    """
    match = _NUMERAL.fullmatch(tok.text)
    if match is None:
        return None
    whole, decimals = match.groups()
    try:
        if decimals is None:
            return _LinTerm({}, int(whole))
        scale = 10 ** len(decimals)
        return _LinTerm({}, int(whole) * scale + int(decimals), scale)
    except ValueError:
        raise ParseError("numeral too long", tok.line, tok.col) from None


class _Parser:
    def __init__(self):
        self.logic: Optional[str] = None
        self.decls: dict[str, VarKind] = {}
        self.order: list[str] = []
        # (coeffs, const, den): the row sum(coeffs[v] * v) / den <= const / den.
        self.rows: list[tuple[dict[str, int], int, int]] = []

    # -- commands -------------------------------------------------------

    def feed(self, node) -> None:
        if not isinstance(node, list) or not node or isinstance(node[0], list):
            raise ParseError("expected a command", *_pos(node))
        head = node[0].text
        if head == "set-logic":
            if len(node) != 2 or isinstance(node[1], list):
                raise ParseError("malformed set-logic", *_pos(node))
            logic = node[1].text
            if logic not in LOGICS:
                raise UnsupportedConstructError(f"logic {logic}", *_pos(node))
            self.logic = logic
        elif head in ("declare-fun", "declare-const"):
            self._declare(node, head)
        elif head == "assert":
            if len(node) != 2:
                raise ParseError("assert takes one argument", *_pos(node))
            self._assert(node[1])
        elif head in ("check-sat", "exit", "get-model", "set-info", "set-option"):
            pass
        else:
            raise UnsupportedConstructError(f"command {head}", *_pos(node))

    def _declare(self, node, head) -> None:
        if head == "declare-fun":
            if len(node) != 4 or isinstance(node[1], list) or node[2] != []:
                raise UnsupportedConstructError(
                    "declare-fun with arguments", *_pos(node))
            name, sort = node[1].text, node[3]
        else:
            if len(node) != 3 or isinstance(node[1], list):
                raise ParseError("malformed declare-const", *_pos(node))
            name, sort = node[1].text, node[2]
        if isinstance(sort, list) or sort.text not in ("Int", "Real"):
            raise UnsupportedConstructError(
                f"sort {sort.text if not isinstance(sort, list) else '(...)'}",
                *_pos(node))
        if name in self.decls:
            raise ParseError(f"variable {name} declared twice", *_pos(node))
        self.decls[name] = VarKind.INTEGER if sort.text == "Int" else VarKind.RATIONAL
        self.order.append(name)

    # -- assertions --------------------------------------------------------

    def _assert(self, expr) -> None:
        if isinstance(expr, Tok):
            if expr.text == "true":
                return
            raise UnsupportedConstructError(
                f"assertion {expr.text}", expr.line, expr.col)
        if not expr or isinstance(expr[0], list):
            raise ParseError("malformed assertion", *_pos(expr))
        head = expr[0].text
        if head == "and":
            for sub in expr[1:]:
                self._assert(sub)
            return
        if head in ("<=", ">=", "=", "<", ">"):
            terms = [self._term(t) for t in expr[1:]]
            if len(terms) < 2:
                raise ParseError(f"{head} needs two arguments", *_pos(expr))
            for a, b in zip(terms, terms[1:]):
                self._atom(head, a, b, expr)
            return
        raise UnsupportedConstructError(f"operator {head}", *_pos(expr))

    def _atom(self, rel: str, a: _LinTerm, b: _LinTerm, expr) -> None:
        # A chain shares its middle terms between atoms: a and b stay intact.
        diff = _LinTerm(dict(a.coeffs), a.const, a.den)
        diff.add(b, -1)  # diff rel 0
        coeffs, const, den = diff.coeffs, -diff.const, diff.den
        rows = self.rows
        if rel == "<=":
            rows.append((coeffs, const, den))
        elif rel == ">=":
            rows.append((_negate(coeffs), -const, den))
        elif rel == "=":
            rows.append((coeffs, const, den))
            rows.append((_negate(coeffs), -const, den))
        else:
            sense = 1 if rel == "<" else -1
            rows.append(self._tighten(coeffs, const, den, sense, expr))

    def _tighten(self, coeffs, const, den, sense, expr):
        """Rewrite a strict atom over integers into a non-strict one.

        With g = gcd(den, *coeffs), sum(coeffs / g * v) < const / g has
        coprime integer coefficients, so over integers it is the same as
        sum(coeffs / g * v) <= ceil(const / g) - 1.
        """
        for name, c in coeffs.items():
            if c and self.decls[name] is not VarKind.INTEGER:
                raise UnsupportedConstructError(
                    "strict comparison over rational variables "
                    "(delta-rationals are not implemented)", _pos(expr)[0], 0)
        if sense < 0:
            coeffs, const = _negate(coeffs), -const
        g = math.gcd(den, *coeffs.values())
        return {k: c // g for k, c in coeffs.items()}, -(-const // g) - 1, 1

    # -- terms ---------------------------------------------------------------

    def _term(self, node) -> _LinTerm:
        if isinstance(node, Tok):
            num = _numeral(node)
            if num is not None:
                return num
            if node.text in self.decls:
                return _LinTerm({node.text: 1}, 0)
            raise ParseError(f"undeclared variable {node.text}", node.line, node.col)
        if not node or isinstance(node[0], list):
            raise ParseError("malformed term", *_pos(node))
        head = node[0].text
        args = [self._term(t) for t in node[1:]]
        if head == "+":
            out = _LinTerm({}, 0)
            for t in args:
                out.add(t)
            return out
        if head == "-":
            if not args:
                raise ParseError("- takes at least one argument", *_pos(node))
            out = args[0]
            if len(args) == 1:
                out.scale(-1, 1)
            for t in args[1:]:
                out.add(t, -1)
            return out
        if head == "*":
            out = _LinTerm({}, 1)
            for t in args:
                if not t.coeffs:
                    out.scale(t.const, t.den)
                elif out.coeffs:
                    raise UnsupportedConstructError("non-linear product", *_pos(node))
                else:
                    t.scale(out.const, out.den)
                    out = t
            return out
        if head == "/":
            if len(args) != 2:
                raise ParseError("/ takes two arguments", *_pos(node))
            num, den = args
            if den.coeffs or den.const == 0:
                raise UnsupportedConstructError(
                    "division by a non-constant", *_pos(node))
            # num / (p / q) = num * q / p, with the sign of p moved onto q.
            p = den.const
            num.scale(den.den if p > 0 else -den.den, abs(p))
            return num
        raise UnsupportedConstructError(f"term operator {head}", *_pos(node))

    # -- assembly ----------------------------------------------------------------

    def system(self) -> ConstraintSystem:
        rationals = [n for n in self.order if self.decls[n] is VarKind.RATIONAL]
        integers = [n for n in self.order if self.decls[n] is VarKind.INTEGER]
        internal = rationals + integers
        col_of = {n: j for j, n in enumerate(internal)}
        variables = [VarInfo(n, self.decls[n]) for n in internal]
        user_perm = [col_of[n] for n in self.order]
        # The only Fractions of a parse: one per distinct (value, den).
        cache: dict[tuple[int, int], Fraction] = {}

        def rat(c: int, den: int) -> Fraction:
            x = cache.get((c, den))
            if x is None:
                x = cache[c, den] = Fraction(c, den)
            return x

        matrix = Matrix.zeros(len(self.rows), len(internal))
        bounds = []
        for row, (coeffs, const, den) in zip(matrix.rows, self.rows):
            for name, c in coeffs.items():
                if c:
                    row[col_of[name]] = rat(c, den)
            bounds.append(rat(const, den))
        return ConstraintSystem(matrix, bounds, variables, user_perm)


def _negate(coeffs):
    return {k: -v for k, v in coeffs.items()}


def parse(text: str) -> ConstraintSystem:
    """Parse an SMT-LIB subset problem into a constraint system."""
    parser = _Parser()
    for node in _read_sexprs(text):
        try:
            parser.feed(node)
        except RecursionError:
            raise ParseError("expression nested too deeply", *_pos(node)) from None
    return parser.system()


def parse_file(path) -> ConstraintSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# -- emission ------------------------------------------------------------------


def _emit_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator) if x.numerator >= 0 else f"(- {-x.numerator})"
    text = f"(/ {abs(x.numerator)} {x.denominator})"
    return text if x.numerator >= 0 else f"(- {text})"


def _emit_term(sys: ConstraintSystem, row) -> str:
    parts = []
    for col in sys.user_perm:
        c = row[col]
        if not c:
            continue
        name = sys.variables[col].name
        parts.append(name if c == 1 else f"(* {_emit_rat(c)} {name})")
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return f"(+ {' '.join(parts)})"


def emit(sys: ConstraintSystem) -> str:
    """Serialize a system to SMT-LIB text; parse(emit(s)) reproduces s."""
    kinds = {v.kind for v in sys.variables}
    if kinds <= {VarKind.INTEGER}:
        logic = "QF_LIA"
    elif kinds <= {VarKind.RATIONAL}:
        logic = "QF_LRA"
    else:
        logic = "QF_LIRA"
    lines = [f"(set-logic {logic})"]
    for col in sys.user_perm:
        var = sys.variables[col]
        sort = "Int" if var.kind is VarKind.INTEGER else "Real"
        lines.append(f"(declare-fun {var.name} () {sort})")
    for i in range(sys.m):
        term = _emit_term(sys, sys.matrix.rows[i])
        lines.append(f"(assert (<= {term} {_emit_rat(sys.bounds[i])}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
