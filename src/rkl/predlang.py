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
operand kind; the tokenizer, the parser and render all read it.  parse is
one recursive-descent function over _OPERATORS, whose nested expr parses
each level of the table and returns (node, offset, depth).  Logical
operators take boolean operands and comparisons arithmetic ones;
violations are rejected at parse time, so a parsed expression never mixes
kinds.

Evaluation is total on a fully bound environment: subtraction truncates at
zero, "a mod 0" is zero, and bit(i) reads 0 at any index past the end of the
bound string.  compile lowers a parsed expression once into Python source
run with no builtins: a lambda, or for a least-witness scan a function that
computes each witness-free part once and then loops over the candidates.
That source holds only fixed templates that wrap each operator in
parentheses, names from the bound set, _N and _hK temporaries and int
literals, never the matrix text.  Its "and" and "or" may short-circuit, and
a hoisted part may be computed where a short-circuit would have skipped it;
neither is observable: every operator is total, and compile refuses unbound
names first.  parse refuses nesting deeper than MAX_DEPTH, which bounds
every recursion over an expression.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Collection, Mapping, Sequence

from rkl.core import MAX_DIGITS, Refusal

VARIABLES = ("x", "m", "n", "y", "z", "len")
_UNICODE_OPS = {"≠": "!=", "≤": "<=", "≥": ">="}


class ParseError(Refusal):
    """Rejected input, with the character offset and the tokens expected there."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = "") -> None:
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        what = f", found {found}" if found else ""
        super().__init__(
            f"at offset {offset}: expected {' or '.join(self.expected)}{what}"
        )


class UnboundVariable(Refusal):
    """A variable (or the bound string) with no binding.

    parse finds it at a character offset when told which names the caller binds;
    otherwise compile finds it, and offset is None.
    """

    def __init__(self, name: str, offset: int | None = None) -> None:
        self.name = name
        self.offset = offset
        where = f"at offset {offset}: " if offset is not None else ""
        super().__init__(f"{where}unbound: {name}")


# The parsed nodes: op is a key of _OPERATORS; index, left, right, operand are nodes.
Num = namedtuple("Num", "value")
Var = namedtuple("Var", "name")
Bit = namedtuple("Bit", "index")
Arith = namedtuple("Arith", "op left right")
Cmp = namedtuple("Cmp", "op left right")
Not = namedtuple("Not", "operand")
Logic = namedtuple("Logic", "op left right")

PredExpr = Num | Var | Bit | Arith | Cmp | Not | Logic

_BOOL_NODES = (Cmp, Not, Logic)


def kind_of(expr: PredExpr) -> str:
    """'bool' for logical and comparison nodes, 'nat' otherwise."""
    return "bool" if isinstance(expr, _BOOL_NODES) else "nat"


_KIND_NAMES = {"bool": "a comparison", "nat": "an arithmetic value"}

# The one declaration of the operators: spelling -> (precedence level, node,
# operand kind, Python spelling).  A higher level binds tighter.  Binary
# levels associate to the left, except that comparisons do not chain; "not"
# is the one prefix operator, and numbers, variables, bit(...) and
# parentheses sit at _ATOM.  compile guards "-" and "mod" to keep them total.
_OPERATORS: dict[str, tuple[int, type, str, str]] = {
    "or": (1, Logic, "bool", "or"),
    "and": (2, Logic, "bool", "and"),
    "not": (3, Not, "bool", "not"),
    "=": (4, Cmp, "nat", "=="), "!=": (4, Cmp, "nat", "!="),
    "<": (4, Cmp, "nat", "<"), "<=": (4, Cmp, "nat", "<="),
    ">": (4, Cmp, "nat", ">"), ">=": (4, Cmp, "nat", ">="),
    "+": (5, Arith, "nat", "+"), "-": (5, Arith, "nat", "-"),
    "*": (6, Arith, "nat", "*"), "mod": (6, Arith, "nat", "%"),
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
        ch, j = text[i], i + 1  # j: the end of the token at i
        if "0" <= ch <= "9":
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", text[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
        elif ch in _UNICODE_OPS:
            tokens.append(("sym", _UNICODE_OPS[ch], i))
        elif not ch.isspace():
            sym = next((s for s in _SYMBOLS if text.startswith(s, i)), None)
            if sym is None:
                raise ParseError(i, ("a token",), repr(ch))
            tokens.append(("sym", sym, i))
            j = i + len(sym)
        i = j
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


def _require(kind: str, node: PredExpr, offset: int) -> None:
    if kind_of(node) != kind:
        raise ParseError(offset, (_KIND_NAMES[kind],), _KIND_NAMES[kind_of(node)])


def _nest(depth: int, offset: int) -> int:
    if depth > MAX_DEPTH:
        raise ParseError(offset, _DEPTH_EXPECTED, "deeper nesting")
    return depth


def parse(text: str, names: Collection[str] | None = None) -> PredExpr:
    """Parse a predicate or arithmetic expression; reject with character offsets.

    Nesting deeper than MAX_DEPTH and numbers longer than MAX_DIGITS digits
    are rejected too.  With names, the text is a matrix whose caller binds
    just those names ("bit" standing for bit(...)): any other variable raises
    UnboundVariable at its offset, and an arithmetic top level, ParseError.
    """
    tokens = _tokenize(text)
    i = 0  # the next token
    opened = 0  # enclosing "(", "bit(" and "not" tokens

    def expect(sym: str) -> None:
        nonlocal i
        _, value, offset = tokens[i]
        if value != sym:
            raise ParseError(offset, (f"'{sym}'",), value or "end of input")
        i += 1

    def nested(offset: int, level: int) -> tuple[PredExpr, int, int]:
        """Parse an expression of the given level one level below the "(",
        "bit(" or "not" at offset.  Levels are counted on the way down too,
        so deep nesting is refused early."""
        nonlocal opened
        opened += 1
        _nest(opened + 1, offset)
        node, noff, depth = expr(level)
        opened -= 1
        return node, noff, _nest(depth + 1, offset)

    def expr(level: int) -> tuple[PredExpr, int, int]:
        """An expression of the given precedence level or tighter, as
        (node, offset, depth)."""
        nonlocal i
        if level == _ATOM:
            kind, value, offset = tokens[i]
            i += 1
            if kind == "num":
                if len(value) > MAX_DIGITS:
                    raise ParseError(offset, _DIGITS_EXPECTED, f"{len(value)} digits")
                return Num(int(value)), offset, 1
            if value in VARIABLES or value == "bit":
                if names is not None and value not in names:
                    raise UnboundVariable(value, offset)
                if value != "bit":
                    return Var(value), offset, 1
                expect("(")
                index, ioff, depth = nested(offset, _SUM)
                _require("nat", index, ioff)
                expect(")")
                return Bit(index), offset, depth
            if value == "(":
                node, _, depth = nested(offset, 1)
                expect(")")
                return node, offset, depth
            found = f"'{value}'" if kind == "name" else value or "end of input"
            raise ParseError(offset, _PRIM_EXPECTED, found)
        if level == _NOT:
            _, value, offset = tokens[i]
            if value != "not":
                return expr(level + 1)
            i += 1
            operand, ooff, depth = nested(offset, _NOT)
            _require("bool", operand, ooff)
            return Not(operand), offset, depth
        node, offset, depth = expr(level + 1)
        while True:
            _, value, op_off = tokens[i]
            op_level, node_type, kind, _ = _OPERATORS.get(value, (None,) * 4)
            if op_level != level:
                return node, offset, depth
            _require(kind, node, offset)
            i += 1
            rhs, roff, rdepth = expr(level + 1)
            _require(kind, rhs, roff)
            node = node_type(value, node, rhs)
            depth = _nest(max(depth, rdepth) + 1, op_off)
            if node_type is Cmp:  # comparisons do not chain
                return node, offset, depth

    node, start, _ = expr(1)
    kind, value, offset = tokens[i]
    if kind != "end":
        raise ParseError(offset, ("end of input",), value)
    if names is not None:
        _require("bool", node, start)
    return node


def compile(
    expr: PredExpr, params: Sequence[str], witness: str | None = None
) -> Callable[..., object]:
    """Lower an expression once into a function of the names in params.

    "bits" binds the string bit(...) reads, and "len" its length.  Without
    witness the function returns the expression's value; with witness it
    takes one more argument, an iterable of candidates, and returns the
    first at which the expression holds, or None: it computes each part
    that reads no witness once, even where "and" or "or" would skip it,
    then loops.  A name that params and witness leave unbound raises
    UnboundVariable before compiling: the first in text order, "bit"
    standing for a missing "bits".  A number that is not an int raises
    ValueError.
    """
    bound = {*params} if witness is None else {*params, witness}
    temps = itertools.count()
    hoisted: list[str] = []  # lines "_hK = source" that run before the scan

    def hoist(source: str, reads: bool) -> str:
        """A compound source that reads no witness as a temporary; else source."""
        if reads or source[0] != "(":
            return source
        hoisted.append(f" _h{len(hoisted)} = {source}\n")
        return f"_h{len(hoisted) - 1}"

    def lower(e: PredExpr) -> tuple[str, bool]:
        """e's source, in parentheses unless a number or name, and whether it
        reads the witness; beside an operand that does, the others are hoisted."""
        if isinstance(e, Num):
            return format(e.value, "d"), False
        if isinstance(e, Var):
            if e.name not in bound:
                raise UnboundVariable(e.name)
            return e.name, e.name == witness
        if isinstance(e, Bit) and "bits" not in bound:
            raise UnboundVariable("bit")
        # The operands: every node is a tuple, and no other field is.
        lowered = [lower(part) for part in e if isinstance(part, tuple)]
        reads = any(r for _, r in lowered)
        parts = [hoist(*part) if reads else part[0] for part in lowered]
        if isinstance(e, Bit):  # reads 0 past the end
            return f"(1 if bits.startswith('1', {parts[0]}) else 0)", reads
        if isinstance(e, Not):
            return f"(not {parts[0]})", reads
        op, (left, right) = _OPERATORS[e.op][3], parts
        if e.op == "-":
            a, b = f"_{next(temps)}", f"_{next(temps)}"
            return f"({a} - {b} if ({a} := {left}) > ({b} := {right}) else 0)", reads
        if e.op == "mod":
            b = f"_{next(temps)}"
            return f"({left} % {b} if ({b} := {right}) else 0)", reads
        return f"({left} {op} {right})", reads

    if witness is None:
        return eval(f"lambda {', '.join(params)}: {lower(expr)[0]}", {"__builtins__": {}})
    body, scan = hoist(*lower(expr)), {}
    head = f"def scan({', '.join((*params, 'candidates'))}):\n{''.join(hoisted)}"
    loop = f" for {witness} in candidates:\n  if {body}:\n   return {witness}\n"
    exec(head + loop, {"__builtins__": {}}, scan)
    return scan["scan"]


def evaluate(
    expr: PredExpr, env: Mapping[str, int] | None = None, tau: str | None = None
) -> int | bool:
    """Evaluate with variables from env and bit/len reading tau.

    Total for fully bound input: no arithmetic below zero, mod 0 is 0, and
    out-of-range bit reads give 0.  The first name in text order with no
    binding raises UnboundVariable.  Compile once to evaluate many times.
    """
    bindings = {k: v for k, v in (env or {}).items() if k in VARIABLES and k != "len"}
    if tau is not None:
        bindings.update(bits=tau, len=len(tau))
    return compile(expr, list(bindings))(*bindings.values())


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
