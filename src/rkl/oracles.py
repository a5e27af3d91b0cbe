"""Brute-force searches and verifiers used to cross-check the constructions.

Everything here recomputes from first principles: the search enumerates
monochromatic sets with branch and bound, and the verifier re-derives each
witness string from the source object rather than trusting the coloring.

The search treats each color as a graph, renumbered once by degree so that
the highest bit has the most neighbours (the initial order of Tomita and
Seki's MCQ, read from the top bit down), and looks for a largest clique,
bounding each branch by a greedy colouring of its candidates: a clique holds
at most one vertex of each colour class.  Color 0's search only has to beat
a greedy clique grown from each vertex, which is its witness when nothing
does.  The clique found is the witness the lexicographically least step
starts from, so that step asks only whether a candidate below the witness's
next vertex starts a clique of the remaining size, and each such query has a
ceiling: it returns at the first clique of the size asked.  None of this
changes the canonical answer: the largest size, then the lexicographically
least set, then color 0.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from operator import itemgetter

from rkl.core import FinTree, NatSet, PairColoring, Refusal, StringFamily, _color, is_homog_string


class StabilityEvidence(namedtuple("StabilityEvidence", "stabilized last_change final_color")):
    """What one column of a coloring shows about its own convergence.

    last_change is the greatest y where the column moved (x+1 when it never
    did); the column counts as stabilized only when that happens strictly
    before the horizon.
    """

    __slots__ = ()


class ReductionVerdict(namedtuple("ReductionVerdict", "checked counterexamples broken",
                                  defaults=(None,))):
    """Per-threshold confirmation that a coloring matches its source object.

    broken is the first pair of h within the horizon that the coloring does
    not give the color checked; when it is set nothing else was checked.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.broken is None and not self.counterexamples


def _columns(f: PairColoring) -> list[str]:
    """Each vertex x of {0..n} as the text of its column, indexed by y: the
    color of the pair (x, y) at every y > x, after x + 1 dashes."""
    size = f.n + 1
    square = "".join([row.ljust(size, "-") for row in ("", *f.rows)])
    return [square[x::size] for x in range(size)]


# The table that turns a vertex's text into each color's bits: a vertex is
# not its own neighbour.
_COLOR_BITS = (str.maketrans("01-", "100"), str.maketrans("-", "0"))


def _graphs(f: PairColoring) -> list[tuple[tuple[list[int], ...], list[int], list[int]]]:
    """(masks, order, pos) for each color: the color's graph on {0..n}
    renumbered by degree, lowest first, so that the highest bit has the most
    neighbours, with equal degrees in label order read from the top down;
    new vertex i is old order[i], old v is new pos[v].

    masks is (adj, avoid, bit), what _max_clique reads: adj[i] is i's
    neighbour mask, avoid[i] clears i and its neighbours, bit[i] is 1 << i.
    """
    # Vertex y's text: its row below it, a dash for itself, its column above.
    texts = [row + col[y:] for y, (row, col) in enumerate(zip(("", *f.rows), _columns(f)))]
    size = len(texts)
    bit = [1 << v for v in range(size)]
    # Every other vertex is a neighbour in exactly one color, so color 1's
    # degree order is color 0's reversed.  A stable sort of the labels taken
    # downwards leaves ties in descending label, ascending from the top.
    degree = [text.count("0") for text in texts]
    down = range(size - 1, -1, -1)
    graphs = []
    for table, reverse in zip(_COLOR_BITS, (False, True)):
        order = sorted(down, key=degree.__getitem__, reverse=reverse)
        pos = sorted(range(size), key=order.__getitem__)
        # Stack the texts from new label size - 1 down to 0 as the color's
        # bits: column v then reads v's neighbours in that order, which is
        # v's mask in new labels as binary text.
        square = "".join([texts[v] for v in reversed(order)]).translate(table)
        adj = [int(square[v::size], 2) for v in order]
        avoid = [~(a | b) for a, b in zip(adj, bit)]
        graphs.append(((adj, avoid, bit), order, pos))
    return graphs


def _max_clique(
    masks: tuple[list[int], ...], cand: int, floor: int = 0, ceiling: int = -1
) -> tuple[int, list[int] | None]:
    """(size, vertices) of a largest clique within cand, or (floor, None)
    when none is larger, in the graph whose masks _graphs built.  With a
    ceiling above floor the search returns at the first clique of that
    size, so the size is min(ceiling, true size).

    Branch and bound with a greedy colouring bound: each node splits its
    candidates into colour classes of pairwise non-adjacent vertices,
    highest vertex first, and branches on them in reverse colour order.  A
    vertex of colour k extends the current clique by at most k more
    vertices, so the node stops once size + k <= best; the first best - size
    classes, which could never pass that test, are coloured but not kept.
    On a graph numbered by _graphs the highest vertices have the most
    neighbours, which gives fewer colours.
    """
    adj, avoid, bit = masks
    best, clique = floor, None
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
        uncoloured = cand
        for _ in range(best - size):
            free = uncoloured
            while free:
                v = free.bit_length() - 1
                uncoloured ^= bit[v]
                free &= avoid[v]
        vertices: list[int] = []
        colours: list[int] = []
        colour = best - size
        while uncoloured:
            colour += 1
            free = uncoloured
            while free:
                v = free.bit_length() - 1
                uncoloured ^= bit[v]
                free &= avoid[v]
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
                node[1], node[4] = cand ^ bit[v], v
                size, cand = size + 1, cand & adj[v]
                break
            stack.pop()
        else:
            return best, clique


def _greedy_clique(adj: list[int]) -> list[int]:
    """The largest of the cliques grown from each vertex by adding the
    highest candidate left, on a graph numbered by _graphs."""
    best: list[int] = []
    for v in range(len(adj) - 1, -1, -1):
        cand = adj[v]
        # Degrees fall from the top: no lower vertex can do better.
        if cand.bit_count() < len(best):
            break
        clique = [v]
        while cand:
            u = cand.bit_length() - 1
            clique.append(u)
            cand &= adj[u]
        if len(clique) > len(best):
            best = clique
    return best


def _lex_least_clique(
    masks: tuple[list[int], ...], order: list[int], pos: list[int], clique: list[int]
) -> tuple[int, ...]:
    """The lexicographically least clique of the size of clique, a largest
    clique of the graph (masks, order, pos) from _graphs, in old labels.

    It is fixed one vertex at a time while a witness h is held: a clique of
    the full size that starts with the vertices fixed so far.  The next
    vertex is the least candidate with a clique of the remaining size among
    its later neighbours.  h[i] is one, so only candidates below it are
    asked, in ascending order, each up to the ceiling need - 1; the first
    that passes gives h a new tail, and one that fails is dropped.
    """
    adj, _, bit = masks
    h = sorted(order[v] for v in clique)
    cand = (1 << len(adj)) - 1  # in new labels
    for i in range(len(h)):
        need = len(h) - i
        for v in range(h[i - 1] + 1 if i else 0, h[i]):
            p = pos[v]
            if cand & bit[p]:
                found = _max_clique(masks, cand & adj[p], need - 2, need - 1)[1]
                if found is not None:
                    h[i:] = [v, *sorted(order[u] for u in found)]
                    break
                cand ^= bit[p]
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
    graphs = _graphs(f)
    universe = (1 << (f.n + 1)) - 1
    seed = _greedy_clique(graphs[0][0][0])
    s0, k0 = _max_clique(graphs[0][0], universe, len(seed))
    k0 = k0 or seed
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


def _evidence(n: int, col: str) -> StabilityEvidence:
    """The evidence of a column text laid out as _columns lays it out: its
    last change is where its final run of one color starts."""
    last = len(col.rstrip(col[-1]))
    return StabilityEvidence(stabilized=last < n, last_change=last, final_color=int(col[-1]))


def check_stable(f: PairColoring, x: int) -> StabilityEvidence:
    """Scan column x for its last visible change."""
    if not 0 <= x < f.n:
        raise Refusal(f"x must satisfy 0 <= x < {f.n}")
    return _evidence(f.n, "-" * (x + 1) + "".join(map(itemgetter(x), f.rows[x:])))


def check_all_stable(f: PairColoring) -> list[StabilityEvidence]:
    """check_stable for every x from 0 to n - 1, in order."""
    return [_evidence(f.n, col) for col in _columns(f)[:-1]]


def verify_reduction(
    source: FinTree | StringFamily, f: PairColoring, h: NatSet, c: int
) -> ReductionVerdict:
    """Confirm the homogeneity content of a reduction against its source.

    First h must be monochromatic for f in color c over pairs within the
    horizon; the first pair that is not is returned as the verdict's broken
    pair.  Then, for each y >= 1 in h, the witness string sigma_text(y) is
    re-derived from the source alone and must show color c at every smaller
    element of h; offending y values are returned as counterexamples.  A
    source with no member that long refuses y as its sigma_text does, and a
    color other than 0 or 1 is refused.
    """
    _color(c)
    inside = [v for v in h if v <= f.n]
    for x, y in combinations(inside, 2):
        if f.value(x, y) != c:
            return ReductionVerdict(checked=(), counterexamples=(), broken=(x, y))
    checked = tuple(y for y in inside if y >= 1)
    bad = tuple(y for y in checked if not is_homog_string(h, source.sigma_text(y), c))
    return ReductionVerdict(checked=checked, counterexamples=bad)
