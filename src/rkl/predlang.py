"""A tiny total expression language for decidable arithmetic matrices.

Grammar (EBNF, whitespace insignificant):

    expr   = or ;
    or     = and { "or" and } ;
    and    = unary { "and" unary } ;
    unary  = "not" unary | rel ;
    rel    = sum [ ( "=" | "!=" | "<" | "<=" | ">" | ">=" ) sum ] ;
    sum    = prod { ( "+" | "-" ) prod } ;
    prod   = prim { ( "*" | "mod" ) prim } ;
    prim   = number | "x" | "m" | "n" | "y" | "z" | "len"
           | "bit" "(" sum ")" | "(" expr ")" ;

The unicode spellings ≠ ≤ ≥ are accepted for != <= >=.  Logical operators
take boolean operands and comparisons take arithmetic operands; violations
are rejected at parse time, so a parsed expression never mixes kinds.

Evaluation is total on a fully bound environment: subtraction truncates at
zero, "a mod 0" is zero, and bit(i) reads 0 at any index past the end of the
bound string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from rkl.core import BitString

VARIABLES = ("x", "m", "n", "y", "z", "len")
_KEYWORDS = set(VARIABLES) | {"bit", "and", "or", "not", "mod"}
_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
_UNICODE_OPS = {"≠": "!=", "≤": "<=", "≥": ">="}


class ParseError(ValueError):
    """Rejected input, with the byte offset and the tokens expected there."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = "") -> None:
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        what = f", found {found}" if found else ""
        super().__init__(
            f"at offset {offset}: expected {' or '.join(self.expected)}{what}"
        )


class UnboundVariable(ValueError):
    """Evaluation hit a variable (or the bound string) with no binding."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unbound: {name}")


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bit:
    index: "PredExpr"


@dataclass(frozen=True)
class Arith:
    op: str
    left: "PredExpr"
    right: "PredExpr"


@dataclass(frozen=True)
class Cmp:
    op: str
    left: "PredExpr"
    right: "PredExpr"


@dataclass(frozen=True)
class Not:
    operand: "PredExpr"


@dataclass(frozen=True)
class Logic:
    op: str
    left: "PredExpr"
    right: "PredExpr"


PredExpr = Union[Num, Var, Bit, Arith, Cmp, Not, Logic]

_BOOL_NODES = (Cmp, Not, Logic)


def kind_of(expr: PredExpr) -> str:
    """'bool' for logical and comparison nodes, 'nat' otherwise."""
    return "bool" if isinstance(expr, _BOOL_NODES) else "nat"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(type, value, offset) triples; type is one of num, name, sym, end."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif text[i : i + 2] in ("<=", ">=", "!="):
            tokens.append(("sym", text[i : i + 2], i))
            i += 2
        elif ch in _UNICODE_OPS:
            tokens.append(("sym", _UNICODE_OPS[ch], i))
            i += 1
        elif ch in "=<>+-*()":
            tokens.append(("sym", ch, i))
            i += 1
        else:
            raise ParseError(i, ("a token",), repr(ch))
    tokens.append(("end", "", len(text)))
    return tokens


_PRIM_EXPECTED = ("a number", "a variable", "'bit('", "'('")


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_name(self, word: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "name" and value == word

    def expect_sym(self, sym: str) -> None:
        kind, value, offset = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(offset, (f"'{sym}'",), value or "end of input")
        self.advance()

    def require_bool(self, node: PredExpr, offset: int) -> None:
        if kind_of(node) != "bool":
            raise ParseError(offset, ("a comparison",), "an arithmetic value")

    def require_nat(self, node: PredExpr, offset: int) -> None:
        if kind_of(node) != "nat":
            raise ParseError(offset, ("an arithmetic value",), "a comparison")

    def parse_expr(self) -> tuple[PredExpr, int]:
        node, offset = self.parse_and()
        while self.at_name("or"):
            self.require_bool(node, offset)
            self.advance()
            rhs, roff = self.parse_and()
            self.require_bool(rhs, roff)
            node = Logic("or", node, rhs)
        return node, offset

    def parse_and(self) -> tuple[PredExpr, int]:
        node, offset = self.parse_unary()
        while self.at_name("and"):
            self.require_bool(node, offset)
            self.advance()
            rhs, roff = self.parse_unary()
            self.require_bool(rhs, roff)
            node = Logic("and", node, rhs)
        return node, offset

    def parse_unary(self) -> tuple[PredExpr, int]:
        if self.at_name("not"):
            _, _, offset = self.advance()
            operand, ooff = self.parse_unary()
            self.require_bool(operand, ooff)
            return Not(operand), offset
        return self.parse_rel()

    def parse_rel(self) -> tuple[PredExpr, int]:
        left, offset = self.parse_sum()
        kind, value, _ = self.peek()
        if kind == "sym" and value in _CMP_OPS:
            self.require_nat(left, offset)
            self.advance()
            right, roff = self.parse_sum()
            self.require_nat(right, roff)
            return Cmp(value, left, right), offset
        return left, offset

    def parse_sum(self) -> tuple[PredExpr, int]:
        left, offset = self.parse_prod()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in ("+", "-"):
                self.require_nat(left, offset)
                self.advance()
                right, roff = self.parse_prod()
                self.require_nat(right, roff)
                left = Arith(value, left, right)
            else:
                return left, offset

    def parse_prod(self) -> tuple[PredExpr, int]:
        left, offset = self.parse_prim()
        while True:
            kind, value, _ = self.peek()
            if (kind == "sym" and value == "*") or (kind == "name" and value == "mod"):
                self.require_nat(left, offset)
                self.advance()
                right, roff = self.parse_prim()
                self.require_nat(right, roff)
                left = Arith(value, left, right)
            else:
                return left, offset

    def parse_prim(self) -> tuple[PredExpr, int]:
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(int(value)), offset
        if kind == "name":
            if value in VARIABLES:
                self.advance()
                return Var(value), offset
            if value == "bit":
                self.advance()
                self.expect_sym("(")
                index, ioff = self.parse_sum()
                self.require_nat(index, ioff)
                self.expect_sym(")")
                return Bit(index), offset
            raise ParseError(offset, _PRIM_EXPECTED, f"'{value}'")
        if kind == "sym" and value == "(":
            self.advance()
            node, _ = self.parse_expr()
            self.expect_sym(")")
            return node, offset
        raise ParseError(offset, _PRIM_EXPECTED, value or "end of input")


def parse(text: str) -> PredExpr:
    """Parse a predicate or arithmetic expression; reject with byte offsets."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, ("end of input",), value)
    return node


def evaluate(
    expr: PredExpr,
    env: Mapping[str, int] | None = None,
    tau: BitString | None = None,
) -> int | bool:
    """Evaluate with variables from env and bit/len reading tau.

    Total for fully bound input: no arithmetic below zero, mod 0 is 0, and
    out-of-range bit reads give 0.
    """
    bindings = env or {}
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name == "len":
            if tau is None:
                raise UnboundVariable("len")
            return len(tau)
        try:
            return int(bindings[expr.name])
        except KeyError:
            raise UnboundVariable(expr.name) from None
    if isinstance(expr, Bit):
        if tau is None:
            raise UnboundVariable("bit")
        i = evaluate(expr.index, bindings, tau)
        return tau[i] if i < len(tau) else 0
    if isinstance(expr, Arith):
        a = evaluate(expr.left, bindings, tau)
        b = evaluate(expr.right, bindings, tau)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b if a > b else 0
        if expr.op == "*":
            return a * b
        return a % b if b else 0
    if isinstance(expr, Cmp):
        a = evaluate(expr.left, bindings, tau)
        b = evaluate(expr.right, bindings, tau)
        return {
            "=": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[expr.op]
    if isinstance(expr, Not):
        return not evaluate(expr.operand, bindings, tau)
    if isinstance(expr, Logic):
        a = bool(evaluate(expr.left, bindings, tau))
        b = bool(evaluate(expr.right, bindings, tau))
        return (a and b) if expr.op == "and" else (a or b)
    raise TypeError(f"not a predicate node: {expr!r}")


_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_NOT = 3
_LEVEL_CMP = 4
_LEVEL_SUM = 5
_LEVEL_PROD = 6
_LEVEL_ATOM = 7


def _level(expr: PredExpr) -> int:
    if isinstance(expr, Logic):
        return _LEVEL_OR if expr.op == "or" else _LEVEL_AND
    if isinstance(expr, Not):
        return _LEVEL_NOT
    if isinstance(expr, Cmp):
        return _LEVEL_CMP
    if isinstance(expr, Arith):
        return _LEVEL_SUM if expr.op in ("+", "-") else _LEVEL_PROD
    return _LEVEL_ATOM


def render(expr: PredExpr) -> str:
    """Canonical text with minimal parentheses; parse(render(e)) == e."""
    return _render(expr, 0)


def _render(expr: PredExpr, floor: int) -> str:
    level = _level(expr)
    if isinstance(expr, Num):
        text = str(expr.value)
    elif isinstance(expr, Var):
        text = expr.name
    elif isinstance(expr, Bit):
        text = f"bit({_render(expr.index, 0)})"
    elif isinstance(expr, (Arith, Cmp)):
        lf = _LEVEL_SUM if isinstance(expr, Cmp) else level
        rf = _LEVEL_SUM if isinstance(expr, Cmp) else level + 1
        text = f"{_render(expr.left, lf)} {expr.op} {_render(expr.right, rf)}"
    elif isinstance(expr, Not):
        text = f"not {_render(expr.operand, _LEVEL_NOT)}"
    else:
        text = f"{_render(expr.left, level)} {expr.op} {_render(expr.right, level + 1)}"
    return f"({text})" if level < floor else text
