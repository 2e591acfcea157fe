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

The parser records declaration order so models are printed the way the
input was written.  Rows appear in the order of the atoms they come from,
so row indices in certificates refer to the input in reading order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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


def _tokenize(text: str) -> list[Tok]:
    """Tokens with 1-based line and column; only a line feed starts a line."""
    toks = []
    for line, chars in enumerate(text.split("\n"), 1):
        col = 1
        for space, tok in _TOKEN.findall(chars):
            if tok == ";":
                break
            col += len(space)
            toks.append(Tok(tok, line, col))
            col += len(tok)
    return toks


def _read_sexprs(toks: list[Tok]):
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


def _pos(node) -> tuple[int, int]:
    while isinstance(node, list):
        if not node:
            return 0, 0
        node = node[0]
    return node.line, node.col


@dataclass
class _LinTerm:
    coeffs: dict[str, Fraction]
    const: Fraction

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + v
        return _LinTerm(coeffs, self.const + other.const)

    def __neg__(self):
        return _LinTerm({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f: Fraction):
        return _LinTerm({k: f * v for k, v in self.coeffs.items()}, f * self.const)


_NUMERAL = re.compile(r"[0-9]+(\.[0-9]+)?")


def _numeral(text: str) -> Optional[Fraction]:
    """An SMT-LIB numeral or decimal; any other token is not a constant."""
    return Fraction(text) if _NUMERAL.fullmatch(text) else None


class _Parser:
    def __init__(self):
        self.logic: Optional[str] = None
        self.decls: dict[str, VarKind] = {}
        self.order: list[str] = []
        self.rows: list[tuple[dict[str, Fraction], Fraction]] = []

    # -- commands -------------------------------------------------------

    def feed(self, node) -> None:
        line, col = _pos(node)
        if not isinstance(node, list) or not node or isinstance(node[0], list):
            raise ParseError("expected a command", line, col)
        head = node[0].text
        if head == "set-logic":
            if len(node) != 2 or isinstance(node[1], list):
                raise ParseError("malformed set-logic", line, col)
            logic = node[1].text
            if logic not in LOGICS:
                raise UnsupportedConstructError(f"logic {logic}", line, col)
            self.logic = logic
        elif head in ("declare-fun", "declare-const"):
            self._declare(node, head)
        elif head == "assert":
            if len(node) != 2:
                raise ParseError("assert takes one argument", line, col)
            self._assert(node[1])
        elif head in ("check-sat", "exit", "get-model", "set-info", "set-option"):
            pass
        else:
            raise UnsupportedConstructError(f"command {head}", line, col)

    def _declare(self, node, head) -> None:
        line, col = _pos(node)
        if head == "declare-fun":
            if len(node) != 4 or isinstance(node[1], list) or node[2] != []:
                raise UnsupportedConstructError(
                    "declare-fun with arguments", line, col)
            name, sort = node[1].text, node[3]
        else:
            if len(node) != 3 or isinstance(node[1], list):
                raise ParseError("malformed declare-const", line, col)
            name, sort = node[1].text, node[2]
        if isinstance(sort, list) or sort.text not in ("Int", "Real"):
            raise UnsupportedConstructError(
                f"sort {sort.text if not isinstance(sort, list) else '(...)'}",
                line, col)
        if name in self.decls:
            raise ParseError(f"variable {name} declared twice", line, col)
        self.decls[name] = VarKind.INTEGER if sort.text == "Int" else VarKind.RATIONAL
        self.order.append(name)

    # -- assertions --------------------------------------------------------

    def _assert(self, expr) -> None:
        line, col = _pos(expr)
        if isinstance(expr, Tok):
            if expr.text == "true":
                return
            raise UnsupportedConstructError(f"assertion {expr.text}", line, col)
        if not expr or isinstance(expr[0], list):
            raise ParseError("malformed assertion", line, col)
        head = expr[0].text
        if head == "and":
            for sub in expr[1:]:
                self._assert(sub)
            return
        if head in ("<=", ">=", "=", "<", ">"):
            terms = [self._term(t) for t in expr[1:]]
            if len(terms) < 2:
                raise ParseError(f"{head} needs two arguments", line, col)
            for a, b in zip(terms, terms[1:]):
                self._atom(head, a, b, line)
            return
        raise UnsupportedConstructError(f"operator {head}", line, col)

    def _atom(self, rel: str, a: _LinTerm, b: _LinTerm, line: int) -> None:
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
        """Rewrite a strict atom over integers into a non-strict one."""
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

    def _add_row(self, coeffs, const) -> None:
        self.rows.append((coeffs, Fraction(const)))

    # -- terms ---------------------------------------------------------------

    def _term(self, node) -> _LinTerm:
        if isinstance(node, Tok):
            num = _numeral(node.text)
            if num is not None:
                return _LinTerm({}, num)
            if node.text in self.decls:
                return _LinTerm({node.text: Fraction(1)}, Fraction(0))
            raise ParseError(f"undeclared variable {node.text}", node.line, node.col)
        line, col = _pos(node)
        if not node or isinstance(node[0], list):
            raise ParseError("malformed term", line, col)
        head = node[0].text
        args = [self._term(t) for t in node[1:]]
        if head == "+":
            out = _LinTerm({}, Fraction(0))
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
            out = _LinTerm({}, Fraction(1))
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

    # -- assembly ----------------------------------------------------------------

    def system(self) -> ConstraintSystem:
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


def _negate(coeffs):
    return {k: -v for k, v in coeffs.items()}


def parse(text: str) -> ConstraintSystem:
    """Parse an SMT-LIB subset problem into a constraint system."""
    parser = _Parser()
    for node in _read_sexprs(_tokenize(text)):
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
