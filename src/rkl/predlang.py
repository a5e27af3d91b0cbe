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

The unicode spellings ≠ ≤ ≥ are accepted for != <= >=.  The operator table
_OPERATORS is the one place that declares each operator's precedence and
operand kind; the tokenizer, the parser and render all read it.  Logical
operators take boolean operands and comparisons arithmetic ones; violations
are rejected at parse time, so a parsed expression never mixes kinds.

Evaluation is total on a fully bound environment: subtraction truncates at
zero, "a mod 0" is zero, and bit(i) reads 0 at any index past the end of the
bound string.  compile turns a parsed expression into nested closures once,
for callers that evaluate it many times; parse refuses nesting deeper than
MAX_DEPTH, which bounds every recursion over an expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Union

from rkl.core import MAX_DIGITS, BitString

VARIABLES = ("x", "m", "n", "y", "z", "len")
_UNICODE_OPS = {"≠": "!=", "≤": "<=", "≥": ">="}


class ParseError(ValueError):
    """Rejected input, with the character offset and the tokens expected there."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = "") -> None:
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        what = f", found {found}" if found else ""
        super().__init__(
            f"at offset {offset}: expected {' or '.join(self.expected)}{what}"
        )


class UnboundVariable(ValueError):
    """A variable (or the bound string) with no binding.

    parse finds it at a character offset when told which names the caller binds;
    otherwise evaluation finds it, and offset is None.
    """

    def __init__(self, name: str, offset: int | None = None) -> None:
        self.name = name
        self.offset = offset
        where = f"at offset {offset}: " if offset is not None else ""
        super().__init__(f"{where}unbound: {name}")


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


_KIND_NAMES = {"bool": "a comparison", "nat": "an arithmetic value"}

# The one declaration of the operators: spelling -> (precedence level, node,
# operand kind).  A higher level binds tighter.  Binary levels associate to
# the left, except that comparisons do not chain; "not" is the one prefix
# operator, and numbers, variables, bit(...) and parentheses sit at _ATOM.
_OPERATORS: dict[str, tuple[int, type, str]] = {
    "or": (1, Logic, "bool"),
    "and": (2, Logic, "bool"),
    "not": (3, Not, "bool"),
    **dict.fromkeys(("=", "!=", "<", "<=", ">", ">="), (4, Cmp, "nat")),
    **dict.fromkeys(("+", "-"), (5, Arith, "nat")),
    **dict.fromkeys(("*", "mod"), (6, Arith, "nat")),
}
_ATOM = 7
_NOT = _OPERATORS["not"][0]
_SUM = _OPERATORS["+"][0]
# Symbol tokens, longest first so that "<=" is not read as "<" then "=".
_SYMBOLS = sorted([op for op in _OPERATORS if not op.isalpha()] + ["(", ")"], key=len)[::-1]


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
        elif ch in _UNICODE_OPS:
            tokens.append(("sym", _UNICODE_OPS[ch], i))
            i += 1
        else:
            sym = next((s for s in _SYMBOLS if text.startswith(s, i)), None)
            if sym is None:
                raise ParseError(i, ("a token",), repr(ch))
            tokens.append(("sym", sym, i))
            i += len(sym)
    tokens.append(("end", "", len(text)))
    return tokens


_PRIM_EXPECTED = ("a number", "a variable", "'bit('", "'('")
_DIGITS_EXPECTED = (f"a number of at most {MAX_DIGITS} digits",)

# Nesting depth of an expression: a number or variable is 1, and each binary
# operator, "not", "bit(...)" and pair of parentheses adds one level above
# its deepest operand.  parse rejects anything deeper, so the parser,
# compile and render never recurse more than a few hundred frames.
MAX_DEPTH = 64
_DEPTH_EXPECTED = (f"at most {MAX_DEPTH} levels of nesting",)


class _Parser:
    """Recursive descent; each parse_* returns (node, offset, depth)."""

    def __init__(
        self, tokens: list[tuple[str, str, int]], names: Collection[str] | None
    ) -> None:
        self.tokens = tokens
        self.names = names
        self.i = 0
        self.open = 0  # enclosing "(", "bit(" and "not" tokens

    def require_bound(self, name: str, offset: int) -> None:
        if self.names is not None and name not in self.names:
            raise UnboundVariable(name, offset)

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

    def require(self, kind: str, node: PredExpr, offset: int) -> None:
        if kind_of(node) != kind:
            raise ParseError(offset, (_KIND_NAMES[kind],), _KIND_NAMES[kind_of(node)])

    def nest(self, depth: int, offset: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(offset, _DEPTH_EXPECTED, "deeper nesting")
        return depth

    def nested(self, offset: int, level: int) -> tuple[PredExpr, int, int]:
        """Parse an expression of the given level one level below the "(",
        "bit(" or "not" at offset.  Levels are counted on the way down too,
        so deep nesting is refused early."""
        self.open += 1
        self.nest(self.open + 1, offset)
        node, noff, depth = self.parse_expr(level)
        self.open -= 1
        return node, noff, self.nest(depth + 1, offset)

    def parse_expr(self, level: int = 1) -> tuple[PredExpr, int, int]:
        """An expression of the given precedence level or tighter."""
        if level == _ATOM:
            return self.parse_prim()
        if level == _NOT:
            if not self.at_name("not"):
                return self.parse_expr(level + 1)
            _, _, offset = self.advance()
            operand, ooff, depth = self.nested(offset, _NOT)
            self.require("bool", operand, ooff)
            return Not(operand), offset, depth
        node, offset, depth = self.parse_expr(level + 1)
        while True:
            _, value, op_off = self.peek()
            op_level, node_type, kind = _OPERATORS.get(value, (None, None, None))
            if op_level != level:
                return node, offset, depth
            self.require(kind, node, offset)
            self.advance()
            rhs, roff, rdepth = self.parse_expr(level + 1)
            self.require(kind, rhs, roff)
            node = node_type(value, node, rhs)
            depth = self.nest(max(depth, rdepth) + 1, op_off)
            if node_type is Cmp:  # comparisons do not chain
                return node, offset, depth

    def parse_prim(self) -> tuple[PredExpr, int, int]:
        kind, value, offset = self.peek()
        if kind == "num":
            if len(value) > MAX_DIGITS:
                raise ParseError(offset, _DIGITS_EXPECTED, f"{len(value)} digits")
            self.advance()
            return Num(int(value)), offset, 1
        if kind == "name":
            if value in VARIABLES:
                self.require_bound(value, offset)
                self.advance()
                return Var(value), offset, 1
            if value == "bit":
                self.require_bound(value, offset)
                self.advance()
                self.expect_sym("(")
                index, ioff, depth = self.nested(offset, _SUM)
                self.require("nat", index, ioff)
                self.expect_sym(")")
                return Bit(index), offset, depth
            raise ParseError(offset, _PRIM_EXPECTED, f"'{value}'")
        if kind == "sym" and value == "(":
            self.advance()
            node, _, depth = self.nested(offset, 1)
            self.expect_sym(")")
            return node, offset, depth
        raise ParseError(offset, _PRIM_EXPECTED, value or "end of input")


def parse(text: str, names: Collection[str] | None = None) -> PredExpr:
    """Parse a predicate or arithmetic expression; reject with character offsets.

    Nesting deeper than MAX_DEPTH and numbers longer than MAX_DIGITS digits
    are rejected too.  With names, the text is a matrix whose caller binds
    just those names ("bit" standing for bit(...)): any other variable raises
    UnboundVariable at its offset, and an arithmetic top level, ParseError.
    """
    parser = _Parser(_tokenize(text), names)
    node, start, _ = parser.parse_expr()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, ("end of input",), value)
    if names is not None:
        parser.require("bool", node, start)
    return node


Compiled = Callable[[Mapping[str, int], BitString | None], int | bool]


def compile(expr: PredExpr) -> Compiled:
    """Turn an expression once into a function of (env, tau).

    The function gives what evaluate(expr, env, tau) gives, and raises the
    same UnboundVariable: operands are computed left to right, and "and" and
    "or" compute both of theirs.  Operators are picked here, not per call.
    """
    if isinstance(expr, Num):
        value = expr.value
        return lambda env, tau: value
    if isinstance(expr, Var):
        return _length if expr.name == "len" else _variable(expr.name)
    if isinstance(expr, Bit):
        return _bit(compile(expr.index))
    if isinstance(expr, Not):
        operand = compile(expr.operand)
        return lambda env, tau: not operand(env, tau)
    if isinstance(expr, (Arith, Cmp, Logic)):
        return _BINARY[expr.op](compile(expr.left), compile(expr.right))
    raise TypeError(f"not a predicate node: {expr!r}")


def _variable(name: str) -> Compiled:
    def read(env: Mapping[str, int], tau: BitString | None) -> int:
        try:
            return env[name]
        except KeyError:
            raise UnboundVariable(name) from None

    return read


def _length(env: Mapping[str, int], tau: BitString | None) -> int:
    if tau is None:
        raise UnboundVariable("len")
    return len(tau.bits)


def _bit(index: Compiled) -> Compiled:
    def read(env: Mapping[str, int], tau: BitString | None) -> int:
        if tau is None:
            raise UnboundVariable("bit")
        return 1 if tau.bits.startswith("1", index(env, tau)) else 0  # 0 past the end

    return read


def _mod(f: Compiled, g: Compiled) -> Compiled:
    def run(env: Mapping[str, int], tau: BitString | None) -> int:
        a, b = f(env, tau), g(env, tau)
        return a % b if b else 0

    return run


# One closure factory per operator.  Subtraction truncates at zero, and the
# logical operators take the bools that comparisons and "not" give.
_BINARY: dict[str, Callable[[Compiled, Compiled], Compiled]] = {
    "+": lambda f, g: lambda env, tau: f(env, tau) + g(env, tau),
    "-": lambda f, g: lambda env, tau: max(f(env, tau) - g(env, tau), 0),
    "*": lambda f, g: lambda env, tau: f(env, tau) * g(env, tau),
    "mod": _mod,
    "=": lambda f, g: lambda env, tau: f(env, tau) == g(env, tau),
    "!=": lambda f, g: lambda env, tau: f(env, tau) != g(env, tau),
    "<": lambda f, g: lambda env, tau: f(env, tau) < g(env, tau),
    "<=": lambda f, g: lambda env, tau: f(env, tau) <= g(env, tau),
    ">": lambda f, g: lambda env, tau: f(env, tau) > g(env, tau),
    ">=": lambda f, g: lambda env, tau: f(env, tau) >= g(env, tau),
    "and": lambda f, g: lambda env, tau: f(env, tau) & g(env, tau),
    "or": lambda f, g: lambda env, tau: f(env, tau) | g(env, tau),
}


def evaluate(
    expr: PredExpr,
    env: Mapping[str, int] | None = None,
    tau: BitString | None = None,
) -> int | bool:
    """Evaluate with variables from env and bit/len reading tau.

    Total for fully bound input: no arithmetic below zero, mod 0 is 0, and
    out-of-range bit reads give 0.  Compile once to evaluate many times.
    """
    return compile(expr)(env or {}, tau)


def _level(expr: PredExpr) -> int:
    if isinstance(expr, Not):
        return _NOT
    if isinstance(expr, (Arith, Cmp, Logic)):
        return _OPERATORS[expr.op][0]
    return _ATOM


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
    elif isinstance(expr, Not):
        text = f"not {_render(expr.operand, level)}"
    else:
        # Left-associative, so only the right operand needs the tighter
        # level; comparisons do not chain, so they need it on both sides.
        lf = level + 1 if isinstance(expr, Cmp) else level
        text = f"{_render(expr.left, lf)} {expr.op} {_render(expr.right, level + 1)}"
    return f"({text})" if level < floor else text
