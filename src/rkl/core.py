"""Domain types and homogeneity semantics.

A string is a finite word over {0,1}, held everywhere as its "01" text; the
empty text is the root.  Trees are finite prefix-closed string sets with the
root always present.  A set of naturals h is homogeneous for a string sigma
with color c when sigma shows c at every position of h that it covers;
positions past the end of sigma impose nothing.  All canonical choices below
prefer color 0 over 1 and lexicographically least strings, with 0 < 1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, groupby
from operator import itemgetter

# The most digits a decimal literal in any input may have.  It is CPython's
# default limit on int(str), fixed here so that every parser refuses a
# longer literal with its own located message before int() can.
MAX_DIGITS = 4300


class Refusal(ValueError):
    """Input the program refuses; the CLI prints it and exits 2.

    Every exception the package raises itself is one; a subclass also
    carries where the input went wrong (a line, an offset or a member).
    """


class NotPrefixClosed(Refusal):
    """A member's prefix is missing from a would-be tree."""

    def __init__(self, offending: str, missing: str) -> None:
        self.offending = offending
        self.missing = missing
        super().__init__(
            f"'{offending}' is a member but its prefix '{missing}' is not"
        )


def _sorted_levels(texts: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """Distinct texts split by length, each level sorted, up to the longest
    (one empty level 0 when there are none); texts given in (length, lex)
    order sort in linear time."""
    by_length = sorted(texts, key=len)  # stable: sorted levels stay sorted
    levels: list[tuple[str, ...]] = [()] * (len(by_length[-1]) + 1 if by_length else 1)
    for l, level in groupby(by_length, len):
        levels[l] = tuple(sorted(level))
    return tuple(levels)


# The text of a string's parent: all but its last symbol ('' for the root).
_parent = itemgetter(slice(None, -1))


def _closed_levels(members: dict[str, None]) -> tuple[tuple[str, ...], ...]:
    """The levels of a member table's texts plus the root, which is added to
    the table; reject a set that is not closed."""
    members[""] = None  # the table keeps the given order for _sorted_levels
    # The parent check suffices for closure; on failure report the
    # (length, lex)-least orphan and its shortest missing prefix.
    if not all(map(members.__contains__, map(_parent, members))):
        orphans = (s for s in members if s[:-1] not in members)
        sigma = min(orphans, key=lambda s: (len(s), s))
        missing = next(sigma[:i] for i in range(len(sigma)) if sigma[:i] not in members)
        raise NotPrefixClosed(sigma, missing)
    return _sorted_levels(members)


def _bits(s: object) -> str:
    """s itself when it is a "01" text; anything else is refused."""
    if not isinstance(s, str) or s.strip("01"):
        raise Refusal(f"not a binary string: {s!r}")
    return s


def _color(c: object) -> int:
    """c itself when it is a color, 0 or 1; anything else is refused."""
    if c not in (0, 1):
        raise Refusal(f"a color is 0 or 1, not {c}")
    return c


class _LevelStore:
    """A finite set of binary strings stored by levels.

    text_levels[l] holds the members of length l, lexicographically sorted,
    for every l from 0 to the longest member, so iterating the levels in turn
    gives (length, lex) order.  Producers that already hold sorted levels go
    through the unchecked _from_levels.  Stores of different types are never
    equal.
    """

    __slots__ = ("text_levels",)
    _missing: str  # sigma_text's refusal past the longest, given y

    @classmethod
    def _from_levels(cls, levels: Iterable[Iterable[str]]):
        """Trusted: levels must be the sorted levels 0..longest of the members."""
        store = object.__new__(cls)
        store.text_levels = tuple(tuple(level) for level in levels)
        return store

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.text_levels == self.text_levels

    def __hash__(self) -> int:
        return hash((type(self), self.text_levels))

    def level(self, l: int) -> tuple[str, ...]:
        """Members of length l, lexicographically sorted."""
        if not 0 <= l < len(self.text_levels):
            return ()
        return self.text_levels[l]

    def sigma_text(self, y: int) -> str:
        """The lex-least shortest member of length >= y, cut to length y.  For
        a tree it is the least of level y.  When no member is that long it
        is refused with the store's own message."""
        levels = self.text_levels
        for l in range(y, len(levels)):
            if levels[l]:
                return levels[l][0][:y]
        raise Refusal(self._missing.format(y))

    def __len__(self) -> int:
        return sum(map(len, self.text_levels))

    def __iter__(self) -> Iterator[str]:
        """Members in (length, lex) order."""
        return chain.from_iterable(self.text_levels)


class FinTree(_LevelStore):
    """A finite prefix-closed set of binary strings; the root is a member.

    No level from 0 to the horizon is empty.  FinTree(members) checks the
    texts and closure; producers that are closed by construction skip both.
    """

    __slots__ = ()
    _missing = "no tree member of length {}"

    def __init__(self, members: Iterable[str] = ()) -> None:
        self.text_levels = _closed_levels(dict.fromkeys(map(_bits, members)))

    @property
    def horizon(self) -> int:
        """Length of the longest member."""
        return len(self.text_levels) - 1


class PairColoring:
    """A total 2-coloring of the pairs {(x, y) : 0 <= x < y <= n}.

    rows[y-1] is the "01" text of the y colors of column y: its character x
    is the color of the pair (x, y).  All rows are checked in one pass over
    their types, their lengths and their joined text.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[str]) -> None:
        rows = tuple(rows)
        if n < 0:
            raise Refusal("n must be a natural number")
        if len(rows) != n:
            raise Refusal(f"expected {n} rows, got {len(rows)}")
        # The loop runs only to name the first bad row.
        if not ({*map(type, rows)} <= {str} and list(map(len, rows)) == list(range(1, n + 1))
                and not "".join(rows).encode("ascii", "replace").translate(None, b"01")):
            for y, row in enumerate(rows, start=1):
                if not isinstance(row, str):
                    raise Refusal(f"row for y={y} must be a '01' text")
                if len(row) != y:
                    raise Refusal(f"row for y={y} must have {y} entries")
                if row.strip("01"):
                    raise Refusal(f"row for y={y} holds a non-color value")
        self.n = n
        self.rows = rows

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash((type(self), self.rows))

    def value(self, x: int, y: int) -> int:
        if not 0 <= x < y <= self.n:
            raise Refusal(f"pair ({x},{y}) outside 0 <= x < y <= {self.n}")
        return int(self.rows[y - 1][x])


class StringFamily(_LevelStore):
    """A finite set of binary strings, stored by levels like a tree.

    The family is graded when it holds exactly one string of each length
    1..n and nothing else; gradedness is read off the levels, so no
    inconsistent state exists.
    """

    __slots__ = ()
    _missing = "no family member of length at least {}"

    def __init__(self, members: Iterable[str] = ()) -> None:
        self.text_levels = _sorted_levels(set(map(_bits, members)))

    @property
    def n(self) -> int:
        """Length of the longest member (0 for the empty family)."""
        return len(self.text_levels) - 1

    @property
    def graded(self) -> bool:
        levels = self.text_levels
        return not levels[0] and all(len(level) == 1 for level in levels[1:])


class NatSet:
    """A finite set of naturals, stored strictly increasing."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int] = ()) -> None:
        elements = tuple(elements)
        if any(type(v) is not int or v < 0 for v in elements):
            raise Refusal("elements must be naturals")
        if any(a >= b for a, b in zip(elements, elements[1:])):
            raise Refusal("elements must be strictly increasing")
        self.elements = elements

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.elements == self.elements

    def __hash__(self) -> int:
        return hash((type(self), self.elements))

    @classmethod
    def of(cls, values: Iterable[int]) -> "NatSet":
        values = tuple(values)
        if any(type(v) is not int for v in values):  # before the sort can fail
            raise Refusal("elements must be naturals")
        return cls(sorted(set(values)))

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.elements) + "}"


HomWitness = namedtuple("HomWitness", "color witness")
HomWitness.__doc__ = """A color and a long member that shows it at every position of h."""


def downward_closure(family: StringFamily | Iterable[str]) -> FinTree:
    """The tree of all prefixes of the family's members."""
    if not isinstance(family, StringFamily):
        family = StringFamily(family)
    # Longest first: each level is its own members plus the parents of the
    # closed level above it.  Both runs are sorted, so the sort merges them.
    closed: list[list[str]] = []
    level: list[str] = []
    for own in reversed(family.text_levels[1:]):
        level = sorted(dict.fromkeys(chain(own, map(_parent, level))))
        closed.append(level)
    closed.append([""])
    return FinTree._from_levels(closed[::-1])


def is_homog_string(h: NatSet, sigma: str, c: int) -> bool:
    """Whether sigma shows color c at every position of h it covers."""
    n, symbol = len(_bits(sigma)), "1" if _color(c) else "0"
    for x in h:  # ascending, so the first x past the end ends the scan
        if x >= n:
            break
        if sigma[x] != symbol:
            return False
    return True


def is_homog_path(h: NatSet, t: FinTree | StringFamily) -> HomWitness | None:
    """A single long witness: a member at the tree's horizon monochromatic on h.
    A family is read as its closure: its longest level, or the root if empty.

    Prefers color 0 over 1, then the lexicographically least witness.
    """
    level = t.text_levels[-1] or ("",)
    if is_homog_string(h, level[0], 0):  # the first member witnesses: skip the join
        return HomWitness(color=0, witness=level[0])
    k, w, block = len(level), len(level[0]), "".join(level)
    ones = zeros = (1 << k) - 1  # the members showing only 1s, only 0s, on h
    for x in h:  # column x is block[x::w], member 0 on the top bit
        if x >= w:
            break
        column = int(block[x::w], 2)
        ones &= column
        zeros &= ~column
    for c, keep in enumerate((zeros, ones)):
        if keep:  # the level is sorted, so its top bit is the least match
            return HomWitness(color=c, witness=level[k - keep.bit_length()])
    return None
