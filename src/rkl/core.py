"""Domain types and homogeneity semantics.

Strings are finite words over {0,1}; trees are finite prefix-closed string
sets with the root always present.  A set of naturals h is homogeneous for a
string sigma with color c when sigma shows c at every position of h that it
covers; positions past the end of sigma impose nothing.  All canonical
choices below prefer color 0 over 1 and lexicographically least strings,
with 0 < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering
from itertools import chain
from typing import Collection, Iterable, Iterator

# The most digits a decimal literal in any input may have.  It is CPython's
# default limit on int(str), fixed here so that every parser refuses a
# longer literal with its own located message before int() can.
MAX_DIGITS = 4300


class NotPrefixClosed(ValueError):
    """A member's prefix is missing from a would-be tree."""

    def __init__(self, offending: "BitString", missing: "BitString") -> None:
        self.offending = offending
        self.missing = missing
        super().__init__(
            f"'{offending}' is a member but its prefix '{missing}' is not"
        )


@total_ordering
class BitString:
    """A finite {0,1}-word; doubles as a tree node or the prefix of a path.

    Comparison is plain lexicographic on the symbols with 0 < 1, so a proper
    prefix sorts before each of its extensions.  Hashing, equality and order
    are those of the underlying text.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: str = "") -> None:
        if bits.strip("01"):
            raise ValueError(f"not a binary string: {bits!r}")
        _set_bits(self, bits)

    @classmethod
    def of(cls, values: Iterable[int]) -> "BitString":
        return _trusted("".join("1" if v else "0" for v in values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BitString is immutable")

    def __repr__(self) -> str:
        return f"BitString({self.bits!r})"

    def __reduce__(self) -> tuple[type, tuple[str]]:
        return (BitString, (self.bits,))

    def __hash__(self) -> int:
        return hash(self.bits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is BitString:
            return self.bits == other.bits
        return NotImplemented

    def __lt__(self, other: "BitString") -> bool:
        if other.__class__ is BitString:
            return self.bits < other.bits
        return NotImplemented

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, x: int) -> int:
        if not 0 <= x < len(self.bits):
            raise IndexError(f"position {x} out of range for length {len(self.bits)}")
        return int(self.bits[x])

    def __iter__(self) -> Iterator[int]:
        return (int(b) for b in self.bits)

    def __str__(self) -> str:
        return self.bits or "ε"

    def is_prefix_of(self, other: "BitString") -> bool:
        return other.bits.startswith(self.bits)

    def prefix(self, t: int) -> "BitString":
        """The initial segment of length t (all of self if t is larger)."""
        return _trusted(self.bits[: max(0, t)])

    def prefixes(self) -> Iterator["BitString"]:
        """Every initial segment, shortest first, root and self included."""
        return (_trusted(self.bits[:i]) for i in range(len(self.bits) + 1))

    def extended(self, bit: int) -> "BitString":
        return _trusted(self.bits + ("1" if bit else "0"))

    def padded(self, length: int, bit: int = 0) -> "BitString":
        """Self, extended with `bit` up to the requested length."""
        if length <= len(self.bits):
            return self
        return _trusted(self.bits + ("1" if bit else "0") * (length - len(self.bits)))


_set_bits = BitString.bits.__set__


def _trusted(bits: str) -> BitString:
    """A BitString from text already known to be binary; skips the check."""
    s = object.__new__(BitString)
    _set_bits(s, bits)
    return s


def lenlex(s: BitString) -> tuple[int, str]:
    """Sort key ordering strings by length first, then lexicographically."""
    return (len(s.bits), s.bits)


def _sorted_levels(texts: Collection[str]) -> tuple[tuple[str, ...], ...]:
    """Distinct texts split by length, each level sorted, up to the longest
    (one empty level 0 when there are none); texts given in (length, lex)
    order sort in linear time."""
    levels: list[list[str]] = [[] for _ in range(max(map(len, texts), default=0) + 1)]
    for s in texts:
        levels[len(s)].append(s)
    for level in levels:
        level.sort()
    return tuple(map(tuple, levels))


def _closed_levels(texts: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """The levels of some texts plus the root; reject a set that is not closed."""
    members = dict.fromkeys(texts)  # keeps the given order for _sorted_levels
    members[""] = None
    # The parent check suffices for closure; on failure report the
    # lenlex-least orphan and its shortest missing prefix.
    orphans = [s for s in members if s and s[:-1] not in members]
    if orphans:
        sigma = min(orphans, key=lambda s: (len(s), s))
        missing = next(sigma[:i] for i in range(len(sigma)) if sigma[:i] not in members)
        raise NotPrefixClosed(_trusted(sigma), _trusted(missing))
    return _sorted_levels(members)


def _all_binary(texts: list[str]) -> bool:
    """Whether every text holds only 0s and 1s; one pass over their bytes."""
    return not "".join(texts).encode("ascii", "replace").translate(None, b"01")


def _texts(strings: Iterable[BitString | str]) -> list[str]:
    """The bit texts of BitStrings and of plain texts, which must be binary."""
    texts = [s.bits if isinstance(s, BitString) else s for s in strings]
    if not _all_binary(texts):
        bad = next(s for s in texts if s.strip("01"))
        raise ValueError(f"not a binary string: {bad!r}")
    return texts


@dataclass(frozen=True, init=False)
class _LevelStore:
    """A finite set of binary strings stored by levels.

    text_levels[l] holds the bit texts of the members of length l,
    lexicographically sorted, for every l from 0 to the longest member, so
    iterating the levels in turn gives (length, lex) order.  Producers that
    already hold sorted levels go through the unchecked _from_levels.
    """

    text_levels: tuple[tuple[str, ...], ...]

    @classmethod
    def _from_levels(cls, levels: Iterable[Iterable[str]]):
        """Trusted: levels must be the sorted levels 0..longest of the members."""
        store = object.__new__(cls)
        object.__setattr__(store, "text_levels", tuple(tuple(level) for level in levels))
        return store

    @cached_property
    def members(self) -> frozenset[BitString]:
        return frozenset(self)

    def level(self, l: int) -> tuple[BitString, ...]:
        """Members of length l, lexicographically sorted."""
        if not 0 <= l < len(self.text_levels):
            return ()
        return tuple(map(_trusted, self.text_levels[l]))

    def sigma_text(self, y: int) -> str | None:
        """The lex-least shortest member of length >= y, cut to length y; None
        when no member is that long.  For a tree it is the least of level y."""
        levels = self.text_levels
        for l in range(y, len(levels)):
            if levels[l]:
                return levels[l][0][:y]
        return None

    def __contains__(self, s: BitString) -> bool:
        return s in self.members

    def __len__(self) -> int:
        return sum(map(len, self.text_levels))

    def __iter__(self) -> Iterator[BitString]:
        """Members in (length, lex) order."""
        return map(_trusted, chain.from_iterable(self.text_levels))


@dataclass(frozen=True, init=False)
class FinTree(_LevelStore):
    """A finite prefix-closed set of binary strings; the root is a member.

    No level from 0 to the horizon is empty.  FinTree(members) checks
    closure; producers that are closed by construction skip the check.
    """

    def __init__(self, members: Iterable[BitString] = frozenset()) -> None:
        levels = _closed_levels([s.bits for s in members])
        object.__setattr__(self, "text_levels", levels)

    @property
    def horizon(self) -> int:
        """Length of the longest member."""
        return len(self.text_levels) - 1


@dataclass(frozen=True)
class PairColoring:
    """A total 2-coloring of the pairs {(x, y) : 0 <= x < y <= n}.

    rows[y-1][x] holds the color of the pair (x, y).
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be a natural number")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for y, row in enumerate(self.rows, start=1):
            if len(row) != y:
                raise ValueError(f"row for y={y} must have {y} entries")
            if row.count(0) + row.count(1) != y:
                raise ValueError(f"row for y={y} holds a non-color value")

    @classmethod
    def from_function(cls, n: int, fn) -> "PairColoring":
        return cls(
            n, tuple(tuple(int(fn(x, y)) for x in range(y)) for y in range(1, n + 1))
        )

    def value(self, x: int, y: int) -> int:
        if not 0 <= x < y <= self.n:
            raise ValueError(f"pair ({x},{y}) outside 0 <= x < y <= {self.n}")
        return self.rows[y - 1][x]

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """All (x, y, color) triples, ordered by (y, x)."""
        for y in range(1, self.n + 1):
            for x in range(y):
                yield x, y, self.rows[y - 1][x]


@dataclass(frozen=True, init=False)
class StringFamily(_LevelStore):
    """A finite set of binary strings, stored by levels like a tree.

    The family is graded when it holds exactly one string of each length
    1..n and nothing else; gradedness is read off the levels, so no
    inconsistent state exists.
    """

    def __init__(self, members: Iterable[BitString] = frozenset()) -> None:
        levels = _sorted_levels({s.bits for s in members})
        object.__setattr__(self, "text_levels", levels)

    @classmethod
    def of(cls, strings: Iterable[BitString | str]) -> "StringFamily":
        return cls._from_levels(_sorted_levels(set(_texts(strings))))

    @property
    def n(self) -> int:
        """Length of the longest member (0 for the empty family)."""
        return len(self.text_levels) - 1

    @property
    def graded(self) -> bool:
        levels = self.text_levels
        return not levels[0] and all(len(level) == 1 for level in levels[1:])


@dataclass(frozen=True)
class NatSet:
    """A finite set of naturals, stored strictly increasing."""

    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(int(v) for v in self.elements))
        if any(v < 0 for v in self.elements):
            raise ValueError("elements must be naturals")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def of(cls, values: Iterable[int]) -> "NatSet":
        return cls(tuple(sorted({int(v) for v in values})))

    @cached_property
    def _lookup(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._lookup

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.elements) + "}"


@dataclass(frozen=True)
class HomWitness:
    """A color and a long member that shows it at every position of h."""

    color: int
    witness: BitString


def validate_tree(strings: Iterable[BitString | str]) -> FinTree:
    """Wrap a string set as a tree, adding the root; reject unclosed sets."""
    return FinTree._from_levels(_closed_levels(_texts(strings)))


def downward_closure(family: StringFamily | Iterable[BitString | str]) -> FinTree:
    """The tree of all prefixes of the family's members."""
    if isinstance(family, StringFamily):
        texts: Iterable[str] = chain.from_iterable(family.text_levels)
    else:
        texts = _texts(family)
    closed = {""}
    for bits in texts:
        # Every prefix of a text already in the set is in it too.
        while bits not in closed:
            closed.add(bits)
            bits = bits[:-1]
    return FinTree._from_levels(_sorted_levels(closed))


def _homog_text(h: NatSet, bits: str, symbol: str) -> bool:
    n = len(bits)
    for x in h:  # ascending, so the first x past the end ends the scan
        if x >= n:
            break
        if bits[x] != symbol:
            return False
    return True


def is_homog_string(h: NatSet, sigma: BitString, c: int) -> bool:
    """Whether sigma shows color c at every position of h it covers."""
    return _homog_text(h, sigma.bits, "1" if c else "0")


def is_homog_path(h: NatSet, t: FinTree, horizon: int) -> HomWitness | None:
    """A single long witness: a member of length >= horizon monochromatic on h.

    Prefers color 0 over 1, then the lexicographically least witness.  The
    requested horizon must not exceed the tree's own.
    """
    if horizon > t.horizon:
        raise ValueError(f"horizon {horizon} exceeds tree horizon {t.horizon}")
    for c, symbol in enumerate("01"):
        # Levels are sorted, so each level's first match is its least.
        firsts = [
            next((s for s in level if _homog_text(h, s, symbol)), None)
            for level in t.text_levels[max(horizon, 0):]
        ]
        wits = [s for s in firsts if s is not None]
        if wits:
            return HomWitness(color=c, witness=_trusted(min(wits)))
    return None
