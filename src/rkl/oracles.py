"""Brute-force searches and verifiers used to cross-check the constructions.

Everything here recomputes from first principles: the search enumerates
monochromatic sets with branch and bound, and the verifier re-derives each
witness string from the source object rather than trusting the coloring.

The search treats each color as a graph and looks for a largest clique.  It
bounds each branch by a greedy colouring of its candidates (Tomita and
Seki's bound): a clique holds at most one vertex of each colour class.  The
bound only decides what need not be searched, so the canonical answer is
unchanged: the largest size, the lexicographically least set of that size,
and color 0 on a tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from rkl.core import BitString, FinTree, NatSet, PairColoring, StringFamily, is_homog_string
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


def _max_clique(adj: list[int], cand: int, floor: int = 0) -> int:
    """Size of a largest clique within cand, or floor when none is larger.

    Branch and bound with a greedy colouring bound: each node splits its
    candidates into colour classes of pairwise non-adjacent vertices, lowest
    vertex first, and branches on them in reverse colour order.  A vertex of
    colour k extends the current clique by at most k more vertices, so the
    node stops once size + k <= best; vertices that could never pass that
    test are coloured but not kept.
    """
    best = floor
    avoid = [~a for a in adj]  # the vertices not adjacent to v, v included
    # Open nodes wait on a stack as [size, candidates, vertices, colours],
    # so the depth of the search is not limited by Python's recursion.
    stack: list[list] = []
    size = 0
    while True:
        if size > best:
            best = size
        vertices: list[int] = []
        colours: list[int] = []
        skip = best - size
        colour = 0
        uncoloured = cand
        while uncoloured:
            colour += 1
            keep = colour > skip
            free = uncoloured
            while free:
                low = free & -free
                v = low.bit_length() - 1
                uncoloured ^= low
                free = (free ^ low) & avoid[v]
                if keep:
                    vertices.append(v)
                    colours.append(colour)
        stack.append([size, cand, vertices, colours])
        # Branch on the last kept vertex of the deepest node that may still
        # beat best; a node whose last vertex cannot is finished.
        while stack:
            node = stack[-1]
            size, cand, vertices, colours = node
            if vertices and size + colours[-1] > best:
                v = vertices.pop()
                colours.pop()
                node[1] = cand ^ (1 << v)
                size, cand = size + 1, cand & adj[v]
                break
            stack.pop()
        else:
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
            # Only whether rest holds a clique of need - 1 matters, so the
            # search starts from need - 2 and prunes every smaller branch.
            if need == 1 or _max_clique(adj, rest, need - 2) >= need - 1:
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
    s0 = _max_clique(adj[0], universe)
    # Exact whenever color 1 ties or beats color 0, which is all that matters.
    s1 = _max_clique(adj[1], universe, s0 - 1)
    sizes = (s0, s1)
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
    rows = f.rows  # rows[y - 1][x] is the color of (x, y)
    last = x + 1
    for y in range(x + 2, f.n + 1):
        if rows[y - 1][x] != rows[y - 2][x]:
            last = y
    return StabilityEvidence(
        stabilized=last < f.n, last_change=last, final_color=rows[-1][x]
    )


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
        missing: type[LevelEmpty | NoLongString] = LevelEmpty
    elif isinstance(source, StringFamily):
        missing = NoLongString
    else:
        raise TypeError("source must be a FinTree or a StringFamily")
    checked: list[int] = []
    bad: list[int] = []
    for y in inside:
        if y < 1:
            continue
        checked.append(y)
        sigma = source.sigma_text(y)
        if sigma is None:
            raise missing(y)
        if not is_homog_string(h, BitString(sigma), c):
            bad.append(y)
    return ReductionVerdict(checked=tuple(checked), counterexamples=tuple(bad))
