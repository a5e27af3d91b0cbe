"""Line-oriented file formats and their canonical renderings.

All formats share the same skeleton: '#' starts a comment, blank lines are
ignored, and the empty string is written as '-'.  Rendering is canonical so
equal values always serialize to identical bytes: strings sort by (length,
lex), coloring pairs by (y, x), and naturals ascending.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import islice
from operator import lt

from rkl.core import (
    MAX_DIGITS,
    FinTree,
    FinTree as validate_tree,  # not called here; bench/tracing.py wraps it as formats.validate_tree
    NatSet,
    NotPrefixClosed,
    PairColoring,
    Refusal,
    StringFamily,
    _closed_levels,
    _parent,
    _sorted_levels,
)
from rkl.diagonal import StagedEnum


class FormatError(Refusal):
    """Unparseable or inconsistent file content."""

    def __init__(self, line: int | None, message: str) -> None:
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


def _data_lines(text: str, count: int = 0, shape: str = "") -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each nonblank line, all lines checked first: a
    line ends at a line feed, less one carriage return at its very end, and
    its data, before '#', is printable ASCII split at tabs and spaces.  Given
    a count, a line of any other number of fields is refused as 'expected <shape>'."""
    # A text of printable ASCII, tabs and line feeds needs no check line by line.
    if not (text.isascii() and text.replace("\t", "").replace("\n", "").isprintable()):
        for lineno, raw in enumerate(text.split("\n"), start=1):
            data = raw.removesuffix("\r").partition("#")[0]
            if not (data.isascii() and data.replace("\t", " ").isprintable()):
                bad = next(c for c in data if not (c.isascii() and c.isprintable()) and c != "\t")
                kind = "control" if bad.isascii() else "non-ASCII"
                raise FormatError(lineno, f"{kind} character {bad!r}")
    rows = [raw.removesuffix("\r").partition("#")[0].split() for raw in text.split("\n")]
    for lineno, fields in enumerate(rows, start=1):
        if fields:
            if count and len(fields) != count:
                raise FormatError(lineno, f"expected {shape}")
            yield lineno, fields


def _parse_bits(token: str, lineno: int) -> str:
    """The bit text of a token, with '-' standing for the empty string."""
    if token == "-":
        return ""
    if token.strip("01"):
        raise FormatError(lineno, f"not a binary string: {token!r}")
    return token


def _parse_nat(token: str, lineno: int | None, minimum: int = 0) -> int:
    if not (token.isascii() and token.isdigit()):
        raise FormatError(lineno, f"not a natural number: {token!r}")
    if len(token) > MAX_DIGITS:
        raise FormatError(lineno, f"number longer than {MAX_DIGITS} digits")
    value = int(token)
    if value < minimum:
        raise FormatError(lineno, f"value {value} below minimum {minimum}")
    return value


def _bare_texts(text: str) -> list[str] | None:
    """The members of a file that holds one bit string per line and nothing
    else ('-' allowed on line 1), split in one pass; None for any other text."""
    texts = text.removesuffix("\n").split("\n")
    if not all(texts):
        return None
    if texts[0] == "-":
        texts[0] = ""
    # One pass over every byte: is anything left once 0s and 1s are deleted?
    if "".join(texts).encode("ascii", "replace").translate(None, b"01"):
        return None
    return texts


def _string_lines(text: str) -> dict[str, None]:
    """The bit texts listed one per line, as a table of members in file order."""
    texts = _bare_texts(text)
    if texts is not None:
        members = dict.fromkeys(texts)
        if len(members) == len(texts):
            return members
    # Not bare, or a repeat: read line by line, refusing the first bad line.
    members = {}
    for lineno, (token,) in _data_lines(text, 1, "one string per line"):
        s = _parse_bits(token, lineno)
        if s in members:
            raise FormatError(lineno, f"duplicate string {s or 'ε'!r}")
        members[s] = None
    return members


def _canonical_tree(text: str) -> tuple[list[str], ...] | None:
    """The levels of a text exactly as render_tree writes a tree, else None.

    Level l's k lines are found by length, then proved by its block of text,
    which must hold k line feeds, one every l+1 characters.  Each level must
    ascend and have its parents in a set of the level above; the deepest
    level is never hashed.
    """
    if not (text.startswith("-\n") and text.endswith("\n")) or (
            text.encode("ascii", "replace").translate(None, b"01\n") != b"-"):
        return None
    lines = text[2:-1].split("\n") if len(text) > 2 else []
    levels, above, i, start = [[""]], {""}, 0, 2
    while i < len(lines):
        l = len(levels)
        j = bisect_right(lines, l, i, key=len)  # a guess where the text is not sorted
        level, block = lines[i:j], text[start : start + (j - i) * (l + 1)]
        if not (level and block.count("\n") == len(level) == block[l :: l + 1].count("\n")):
            return None
        if not (all(map(lt, level, islice(level, 1, None))) and above.issuperset(map(_parent, level))):
            return None
        levels.append(level)
        i, start = j, start + len(block)
        above = set(level) if i < len(lines) else above
    return tuple(levels)


def parse_tree(text: str) -> FinTree:
    """Read a .tree file, whose strings must already be prefix-closed."""
    try:
        return FinTree._from_levels(_canonical_tree(text) or _closed_levels(_string_lines(text)))
    except NotPrefixClosed as exc:
        lineno = next(n for n, [s] in _data_lines(text) if s == exc.offending)
        raise FormatError(lineno, str(exc)) from exc


def parse_sigma(text: str) -> StringFamily:
    return StringFamily._from_levels(_sorted_levels(_string_lines(text)))


def _coloring_layout(n: int) -> tuple[str, list[tuple[slice, int, int, int]]]:
    """The pair lines of the n-coloring text with every color 0, and where
    its colors sit.

    The lines of a row whose x has one digit width have one length, so their
    colors are evenly spaced: each run holds their slice of the pair lines,
    their y and their span x0:x1 of row y, in (y, x) order."""
    xs = [str(x) for x in range(n)]
    lines, runs, start = [], [], 0
    for y in range(1, n + 1):
        tail = f" {y} 0\n"
        lines += tail.join(xs[:y]), tail
        x, size = 0, len(tail) + 1  # a line's size grows by one with each digit of x
        while x < y:
            end = min(10 * x or 10, y)  # the next power of ten
            stop = start + size * (end - x)
            runs.append((slice(start + size - 2, stop, size), y, x, end))
            start, x, size = stop, end, size + 1
    return "".join(lines), runs


def _canonical_coloring(text: str) -> PairColoring | None:
    """The coloring of a text exactly as render_coloring writes it, else None.

    The header must spell n as str(n) does.  The pair lines, with every 1
    before a line feed read as 0, must be the all-0 lines; each row's colors
    are then read from its runs.
    """
    head, newline, body = text.partition("\n")
    digits = head[2:]
    if not (head[:2] == "n " and newline and digits.isascii() and digits.isdigit()):
        return None
    if len(digits) > MAX_DIGITS:
        return None  # the general parser reports it on line 1
    n = int(digits)
    # Every pair line takes at least 6 bytes, so a short text (a bare header
    # with a huge n) is turned away before the O(n²) layout is built.
    if len(text) < 3 * n * (n + 1) or digits != str(n):
        return None
    zero, runs = _coloring_layout(n)
    if body.replace("1\n", "0\n") != zero:
        return None
    rows = [""] * (n + 1)
    for run, y, _, _ in runs:
        rows[y] += body[run]
    return PairColoring(n, rows[1:])


def parse_coloring(text: str) -> PairColoring:
    canonical = _canonical_coloring(text)
    if canonical is not None:
        return canonical
    lines = _data_lines(text)
    lineno, parts = next(lines, (None, None))
    if parts is None:
        raise FormatError(None, "missing 'n <N>' header")
    if len(parts) != 2 or parts[0] != "n":
        raise FormatError(lineno, "header must read 'n <N>'")
    n = _parse_nat(parts[1], lineno)
    values: dict[tuple[int, int], str] = {}
    for lineno, parts in lines:
        if len(parts) != 3:
            raise FormatError(lineno, "expected 'x y c'")
        x, y, c = (_parse_nat(p, lineno) for p in parts)
        if not 0 <= x < y <= n:
            raise FormatError(lineno, f"pair ({x},{y}) outside 0 <= x < y <= {n}")
        if c not in (0, 1):
            raise FormatError(lineno, f"color must be 0 or 1, got {c}")
        if (x, y) in values:
            raise FormatError(lineno, f"pair ({x},{y}) given twice")
        values[(x, y)] = "01"[c]
    for y in range(1, n + 1):
        for x in range(y):
            if (x, y) not in values:
                raise FormatError(None, f"pair ({x},{y}) missing")
    return PairColoring(
        n, tuple("".join([values[(x, y)] for x in range(y)]) for y in range(1, n + 1))
    )


def parse_enum(text: str) -> StagedEnum:
    events: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, (e, s, x) in _data_lines(text, 3, "'e s x'"):
        e, s, x = _parse_nat(e, lineno), _parse_nat(s, lineno, minimum=1), _parse_nat(x, lineno)
        if (e, x) in seen:
            raise FormatError(lineno, f"element {x} enumerated twice for index {e}")
        seen.add((e, x))
        events.append((e, s, x))
    return StagedEnum(events)


def parse_natset(text: str) -> NatSet:
    values: list[int] = []
    for lineno, (token,) in _data_lines(text, 1, "one natural per line"):
        value = _parse_nat(token, lineno)
        if values and value <= values[-1]:
            raise FormatError(lineno, "elements must be strictly increasing")
        values.append(value)
    return NatSet(tuple(values))


def parse_stages(text: str) -> dict[int, str]:
    """Read a .stages file of 's string' lines as {stage: string} in file order.

    A repeated stage, or a string longer than its stage, is refused on its
    line; a stage missing below the largest is left to ce_tree_to_sigma.
    """
    stages: dict[int, str] = {}
    for lineno, (stage, token) in _data_lines(text, 2, "'s string'"):
        s = _parse_nat(stage, lineno, minimum=1)
        bits = _parse_bits(token, lineno)
        if s in stages:
            raise FormatError(lineno, f"stage {s} is listed twice")
        if len(bits) > s:
            raise FormatError(lineno, f"stage {s} holds '{bits}', longer than {s}")
        stages[s] = bits
    if not stages:
        raise FormatError(None, "no stages listed")
    return stages


def render_tree(strings: FinTree | StringFamily) -> str:
    """One member per line in (length, lex) order, '-' for the empty string."""
    return "".join([("\n".join(level) or "-") + "\n" for level in strings.text_levels if level])


# A family is stored by levels like a tree, so it renders the same way.
render_sigma = render_tree


def render_coloring(f: PairColoring) -> str:
    zero, runs = _coloring_layout(f.n)
    text = bytearray(zero, "ascii")
    rows = [b"", *map(str.encode, f.rows)]  # rows[y] holds row y's colors
    for run, y, x0, x1 in runs:
        text[run] = rows[y][x0:x1]
    return f"n {f.n}\n" + text.decode()


def render_natset(h: NatSet) -> str:
    return "".join(f"{v}\n" for v in h)
