"""Brute-force searches and verifiers used to cross-check the constructions.

Everything here recomputes from first principles: the search enumerates
monochromatic sets with branch and bound, and the verifier re-derives each
witness string from the source object rather than trusting the coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from rkl.core import (
    BitString,
    FinTree,
    NatSet,
    PairColoring,
    StringFamily,
    is_homog_string,
    lenlex,
)
from rkl.reductions import LevelEmpty, NoLongString


class NotHomogeneousForColoring(ValueError):
    """The given set is not monochromatic for the coloring in the given color."""

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y
        super().__init__(f"pair ({x},{y}) breaks homogeneity")


@dataclass(frozen=True)
class StabilityEvidence:
    """What one column of a coloring shows about its own convergence.

    last_change is the greatest y where the column moved (x+1 when it never
    did); the column counts as stabilized only when that happens strictly
    before the horizon.
    """

    stabilized: bool
    last_change: int
    final_color: int


@dataclass(frozen=True)
class ReductionVerdict:
    """Per-threshold confirmation that a coloring matches its source object."""

    kind: str  # "tree" | "family"
    color: int
    checked: tuple[int, ...]
    counterexamples: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _adjacency(f: PairColoring) -> tuple[list[int], list[int]]:
    size = f.n + 1
    adj = ([0] * size, [0] * size)
    for x, y, c in f.pairs():
        adj[c][x] |= 1 << y
        adj[c][y] |= 1 << x
    return adj


def _max_clique(adj: list[int], cand: int) -> int:
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(size + 1, cand & adj[v])

    expand(0, cand)
    return best


def _lex_least_clique(adj: list[int], universe: int, need: int) -> tuple[int, ...]:
    """Lexicographically least clique of the given size; one must exist."""
    chosen: list[int] = []
    cand = universe
    while need:
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            rest = cand & adj[v] & -(1 << (v + 1))
            if _max_clique(adj, rest) >= need - 1:
                chosen.append(v)
                cand = rest
                need -= 1
                break
        else:
            raise AssertionError("no clique of the promised size")
    return tuple(chosen)


def ramsey_search(f: PairColoring, min_size: int) -> tuple[int, NatSet] | None:
    """A largest monochromatic subset of {0..n}, if one reaches min_size.

    Canonical choice: among all monochromatic sets of maximum cardinality,
    the lexicographically least as a sorted sequence, preferring color 0 on
    a tie.  Matches exhaustive subset enumeration.
    """
    if min_size < 2:
        raise ValueError("min_size must be at least 2")
    adj = _adjacency(f)
    universe = (1 << (f.n + 1)) - 1
    sizes = (_max_clique(adj[0], universe), _max_clique(adj[1], universe))
    best = max(sizes)
    if best < min_size:
        return None
    found = [
        (_lex_least_clique(adj[c], universe, best), c)
        for c in (0, 1)
        if sizes[c] == best
    ]
    h, c = min(found)
    return c, NatSet(h)


def longest_path(t: FinTree) -> BitString:
    """The lexicographically least member of maximum length."""
    return BitString(t.text_levels[-1][0])


def check_stable(f: PairColoring, x: int) -> StabilityEvidence:
    """Scan column x for its last visible change."""
    if not 0 <= x < f.n:
        raise ValueError(f"x must satisfy 0 <= x < {f.n}")
    last = x + 1
    for y in range(x + 2, f.n + 1):
        if f.value(x, y) != f.value(x, y - 1):
            last = y
    return StabilityEvidence(
        stabilized=last < f.n, last_change=last, final_color=f.value(x, f.n)
    )


def _tree_sigma(t: FinTree, y: int) -> BitString:
    if y > t.horizon:
        raise LevelEmpty(y)
    return BitString(t.text_levels[y][0])


def _family_sigma(family: StringFamily, y: int) -> BitString:
    candidates = [s for s in family.members if len(s) >= y]
    if not candidates:
        raise NoLongString(y)
    return min(candidates, key=lenlex).prefix(y)


def verify_reduction(
    source: FinTree | StringFamily, f: PairColoring, h: NatSet, c: int
) -> ReductionVerdict:
    """Confirm the homogeneity content of a reduction against its source.

    Requires h monochromatic for f in color c over pairs within the horizon.
    For each y in h the witness string is re-derived from the source alone
    and must show color c at every smaller element of h; offending y values
    are returned as counterexamples.
    """
    inside = [v for v in h if v <= f.n]
    for x, y in combinations(inside, 2):
        if f.value(x, y) != c:
            raise NotHomogeneousForColoring(x, y)
    if isinstance(source, FinTree):
        kind, sigma_at = "tree", lambda y: _tree_sigma(source, y)
    elif isinstance(source, StringFamily):
        kind, sigma_at = "family", lambda y: _family_sigma(source, y)
    else:
        raise TypeError("source must be a FinTree or a StringFamily")
    checked: list[int] = []
    bad: list[int] = []
    for y in inside:
        if y < 1:
            continue
        checked.append(y)
        if not is_homog_string(h, sigma_at(y), c):
            bad.append(y)
    return ReductionVerdict(
        kind=kind, color=c, checked=tuple(checked), counterexamples=tuple(bad)
    )
