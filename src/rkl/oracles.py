"""Brute-force searches and verifiers used to cross-check the constructions.

Everything here recomputes from first principles: the search enumerates
monochromatic sets with branch and bound, and the verifier re-derives each
witness string from the source object rather than trusting the coloring.

The search treats each color as a graph, renumbered once by degree, highest
first (the initial order of Tomita and Seki's MCQ), and looks for a largest
clique, bounding each branch by a greedy colouring of its candidates: a
clique holds at most one vertex of each colour class.  The clique found is
the witness the lexicographically least step starts from, so that step asks
only whether a candidate below the witness's next vertex starts a clique of
the remaining size, and each such query has a ceiling: it returns at the
first clique of the size asked.  None of this changes the canonical answer:
the largest size, then the lexicographically least set, then color 0.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from rkl.core import FinTree, NatSet, PairColoring, Refusal, StringFamily, is_homog_string


class StabilityEvidence(NamedTuple):
    """What one column of a coloring shows about its own convergence.

    last_change is the greatest y where the column moved (x+1 when it never
    did); the column counts as stabilized only when that happens strictly
    before the horizon.
    """

    stabilized: bool
    last_change: int
    final_color: int


class ReductionVerdict(NamedTuple):
    """Per-threshold confirmation that a coloring matches its source object.

    broken is the first pair of h within the horizon that the coloring does
    not give the color checked; when it is set nothing else was checked.
    """

    checked: tuple[int, ...]
    counterexamples: tuple[int, ...]
    broken: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.broken is None and not self.counterexamples


def _adjacency(f: PairColoring) -> tuple[list[int], list[int]]:
    """Each color's graph on {0..n} as neighbour masks: row y read as binary
    gives y's color-1 neighbours below it; color 0 is the complement."""
    size = f.n + 1
    ones = [0] * size
    for y, row in enumerate(f.rows, start=1):
        below = int(row[::-1], 2)
        ones[y] |= below
        bit = 1 << y
        while below:
            low = below & -below
            ones[low.bit_length() - 1] |= bit
            below ^= low
    full = (1 << size) - 1
    return [full ^ m ^ (1 << v) for v, m in enumerate(ones)], ones


def _by_degree(adj: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(adjacency, order, pos): the graph renumbered by degree, highest
    first and ties by label; new vertex i is old order[i], old v is new pos[v]."""
    size = len(adj)
    order = sorted(range(size), key=lambda v: adj[v].bit_count(), reverse=True)
    pos = sorted(range(size), key=order.__getitem__)
    # Binary text runs from the highest bit down: pick each new bit's old one.
    pick = itemgetter(*[size - 1 - v for v in reversed(order)])
    return [int("".join(pick(format(adj[v], f"0{size}b"))), 2) for v in order], order, pos


def _max_clique(
    adj: list[int], cand: int, floor: int = 0, ceiling: int = -1
) -> tuple[int, list[int] | None]:
    """(size, vertices) of a largest clique within cand, or (floor, None)
    when none is larger.  With a ceiling above floor the search returns at
    the first clique of that size, so the size is min(ceiling, true size).

    Branch and bound with a greedy colouring bound: each node splits its
    candidates into colour classes of pairwise non-adjacent vertices, lowest
    vertex first, and branches on them in reverse colour order.  A vertex of
    colour k extends the current clique by at most k more vertices, so the
    node stops once size + k <= best; vertices that could never pass that
    test are coloured but not kept.  On a graph numbered by _by_degree the
    lowest vertices have the most neighbours, which gives fewer colours.
    """
    best, clique = floor, None
    avoid = [~a for a in adj]  # the vertices not adjacent to v, v included
    # Open nodes wait on a stack as [size, candidates, vertices, colours,
    # vertex branched on], so the depth of the search is not limited by
    # Python's recursion, and the current clique is read off the stack.
    stack: list[list] = []
    size = 0
    while True:
        if size > best:
            best, clique = size, [node[4] for node in stack]
            if size == ceiling:
                return best, clique
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
        stack.append([size, cand, vertices, colours, -1])
        # Branch on the last kept vertex of the deepest node that may still
        # beat best; a node whose last vertex cannot is finished.
        while stack:
            node = stack[-1]
            size, cand, vertices, colours, _ = node
            if vertices and size + colours[-1] > best:
                v = vertices.pop()
                colours.pop()
                node[1], node[4] = cand ^ (1 << v), v
                size, cand = size + 1, cand & adj[v]
                break
            stack.pop()
        else:
            return best, clique


def _lex_least_clique(
    adj: list[int], order: list[int], pos: list[int], clique: list[int]
) -> tuple[int, ...]:
    """The lexicographically least clique of the size of clique, a largest
    clique of the graph (adj, order, pos) from _by_degree, in old labels.

    It is fixed one vertex at a time while a witness h is held: a clique of
    the full size that starts with the vertices fixed so far.  The next
    vertex is the least candidate with a clique of the remaining size among
    its later neighbours.  h[i] is one, so only candidates below it are
    asked, in ascending order, each up to the ceiling need - 1; the first
    that passes gives h a new tail, and one that fails is dropped.
    """
    h = sorted(order[v] for v in clique)
    cand = (1 << len(adj)) - 1  # in new labels
    for i in range(len(h)):
        need = len(h) - i
        for v in range(h[i - 1] + 1 if i else 0, h[i]):
            p = pos[v]
            if cand >> p & 1:
                found = _max_clique(adj, cand & adj[p], need - 2, need - 1)[1]
                if found is not None:
                    h[i:] = [v, *sorted(order[u] for u in found)]
                    break
                cand ^= 1 << p
        cand &= adj[pos[h[i]]]
    return tuple(h)


def ramsey_search(f: PairColoring, min_size: int) -> tuple[int, NatSet] | None:
    """A largest monochromatic subset of {0..n}, if one reaches min_size.

    Canonical choice: among all monochromatic sets of maximum cardinality,
    the lexicographically least as a sorted sequence, preferring color 0 on
    a tie.  Matches exhaustive subset enumeration.
    """
    if min_size < 2:
        raise Refusal("min_size must be at least 2")
    graphs = [_by_degree(adj) for adj in _adjacency(f)]
    universe = (1 << (f.n + 1)) - 1
    s0, k0 = _max_clique(graphs[0][0], universe)
    # Exact whenever color 1 ties or beats color 0, which is all that matters.
    s1, k1 = _max_clique(graphs[1][0], universe, s0 - 1)
    best = max(s0, s1)
    if best < min_size:
        return None
    h, c = min(
        (_lex_least_clique(*graphs[c], clique), c)
        for c, (size, clique) in enumerate(((s0, k0), (s1, k1)))
        if size == best
    )
    return c, NatSet(h)


def longest_path(t: FinTree) -> str:
    """The lexicographically least member of maximum length."""
    return t.text_levels[-1][0]


def check_stable(f: PairColoring, x: int) -> StabilityEvidence:
    """Scan column x for its last visible change."""
    if not 0 <= x < f.n:
        raise Refusal(f"x must satisfy 0 <= x < {f.n}")
    rows = f.rows  # rows[y - 1][x] is the color character of (x, y)
    last = x + 1
    for y in range(x + 2, f.n + 1):
        if rows[y - 1][x] != rows[y - 2][x]:
            last = y
    return StabilityEvidence(
        stabilized=last < f.n, last_change=last, final_color=int(rows[-1][x])
    )


def verify_reduction(
    source: FinTree | StringFamily, f: PairColoring, h: NatSet, c: int
) -> ReductionVerdict:
    """Confirm the homogeneity content of a reduction against its source.

    First h must be monochromatic for f in color c over pairs within the
    horizon; the first pair that is not is returned as the verdict's broken
    pair.  Then, for each y >= 1 in h, the witness string sigma_text(y) is
    re-derived from the source alone and must show color c at every smaller
    element of h; offending y values are returned as counterexamples.  A
    source with no member that long refuses y as its sigma_text does.
    """
    inside = [v for v in h if v <= f.n]
    for x, y in combinations(inside, 2):
        if f.value(x, y) != c:
            return ReductionVerdict(checked=(), counterexamples=(), broken=(x, y))
    checked = tuple(y for y in inside if y >= 1)
    bad = tuple(y for y in checked if not is_homog_string(h, source.sigma_text(y), c))
    return ReductionVerdict(checked=checked, counterexamples=bad)
