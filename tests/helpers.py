"""Shared strategies and independent brute-force oracles for the test suite.

The oracles here deliberately use the dumbest possible algorithms (full
subset enumeration, direct re-evaluation) so the library's cleverer
implementations are checked against something with no shared code.
"""

from __future__ import annotations

import itertools
import random
from operator import itemgetter
from typing import Iterator, Mapping

from hypothesis import strategies as st

from rkl import reductions
from rkl.core import MAX_DIGITS, NatSet, PairColoring, Refusal, StringFamily, downward_closure
from rkl.diagonal import StagedEnum
from rkl.oracles import StabilityEvidence
from rkl.predlang import (
    Arith,
    Bit,
    Cmp,
    Logic,
    Not,
    Num,
    PredExpr,
    UnboundVariable,
    Var,
)


# -- test-only views of the core types: no program code needs them ---------


def is_prefix_of(a: str, b: str) -> bool:
    return b.startswith(a)


def prefix(s: str, t: int) -> str:
    """The initial segment of length t (all of s if t is larger, the root
    if t is negative)."""
    return s[: max(0, t)]


def prefixes(s: str) -> list[str]:
    """Every initial segment, shortest first, root and s included."""
    return [s[:i] for i in range(len(s) + 1)]


def extended(s: str, bit: int) -> str:
    return s + "01"[bit]


def from_function(n: int, fn) -> PairColoring:
    """The coloring of each pair (x, y) by fn(x, y), read once per pair."""
    return PairColoring(
        n, tuple("".join([str(int(fn(x, y))) for x in range(y)]) for y in range(1, n + 1))
    )


def assert_equal_and_hashed(values) -> None:
    """Every value equals the first and hashes alike."""
    for value in values:
        assert value == values[0] and hash(value) == hash(values[0])


def render_enum(enums: StagedEnum) -> str:
    """The .enum text of an enumeration, one 'e s x' line per event, in the
    enumeration's (stage, index, element) order; no command writes one."""
    return "".join(f"{e} {s} {x}\n" for e, s, x in enums.events)


def pairs(f: PairColoring) -> Iterator[tuple[int, int, int]]:
    """All (x, y, color) triples, ordered by (y, x)."""
    for y in range(1, f.n + 1):
        for x in range(y):
            yield x, y, f.value(x, y)


# -- strategies --------------------------------------------------------------


def bitstrings(max_len: int = 10):
    return st.text(alphabet="01", max_size=max_len)


def nonempty_bitstrings(max_len: int = 10):
    return st.text(alphabet="01", min_size=1, max_size=max_len)


def natsets(max_value: int = 24, max_size: int = 8):
    return st.frozensets(st.integers(0, max_value), max_size=max_size).map(NatSet.of)


def string_families(max_len: int = 8, max_members: int = 6):
    return st.frozensets(bitstrings(max_len), max_size=max_members).map(StringFamily)


def trees(max_len: int = 8, max_members: int = 5):
    return st.frozensets(bitstrings(max_len), min_size=1, max_size=max_members).map(
        downward_closure
    )


def _coloring_from_flat(n: int, flat: list[int]) -> PairColoring:
    rows, i = [], 0
    for y in range(1, n + 1):
        rows.append("".join(map(str, flat[i : i + y])))
        i += y
    return PairColoring(n, tuple(rows))


def colorings(max_n: int = 8, min_n: int = 0):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.integers(0, 1), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
        ).map(lambda flat: _coloring_from_flat(n, flat))
    )


def planted_colorings(max_n: int = 40, min_n: int = 0):
    """Random colorings in the benchmark's shape: a colour-1 density, then
    maybe a planted monochromatic set of either colour."""

    def build(n: int, density: float, planted: int, color: int, seed: int) -> PairColoring:
        rng = random.Random(seed)
        rows = [[int(rng.random() < density) for _ in range(y)] for y in range(n + 1)]
        members = sorted(rng.sample(range(n + 1), min(planted, n + 1)))
        for x, y in itertools.combinations(members, 2):
            rows[y][x] = color
        return PairColoring(n, tuple("".join(map(str, row)) for row in rows[1:]))

    return st.builds(
        build,
        st.integers(min_n, max_n),
        st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        st.sampled_from([0, 0, 4, 6, 8]),
        st.integers(0, 1),
        st.integers(0, 2**32),
    )


# Matrix texts for pi2sigma1 and yoko, over the names each binds; {a} and
# {b} take small numbers.
PI2_TEMPLATES = [
    "z >= y",
    "bit(y) + z >= y or len = {a}",
    "z * {a} >= y + bit(y + {b})",
    "bit(z) = 1 or z >= len + {a}",
    "z + bit(len - {a}) > y mod {b}",
    "z >= len - y and bit(y) = {b} mod 2",
]
YOKO_TEMPLATES = [
    "n >= m + x",
    "n >= m * (x mod {a})",
    "n >= m + {a}",
    "x mod {a} = {b} and n >= m",
    "n * {a} >= m + x - {b}",
    "n = {a} or m > {b}",
    "n + {b} > m * {a} and x != {a}",
    "0 = 1",
    "not x mod {a} = {b} and n = m + {a}",
]


def matrix_texts(templates: list[str], max_number: int):
    return st.builds(
        lambda text, a, b: text.format(a=a, b=b),
        st.sampled_from(templates),
        st.integers(0, max_number),
        st.integers(0, max_number),
    )


def graded_families(max_n: int = 8, min_n: int = 0):
    def build(codes: list[int]) -> StringFamily:
        return StringFamily(
            format(code % (1 << y), f"0{y}b") for y, code in enumerate(codes, start=1)
        )

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(st.integers(0, (1 << max_n) - 1), min_size=n, max_size=n).map(build)
    )


def monochromatic_color(f: PairColoring, subset: tuple[int, ...]) -> int | None:
    """The unique color on all pairs from the subset, or None."""
    seen = {f.value(x, y) for x, y in itertools.combinations(subset, 2)}
    return seen.pop() if len(seen) == 1 else None


def naive_ramsey(f: PairColoring, min_size: int) -> tuple[int, NatSet] | None:
    """Full subset enumeration; the canonical-answer oracle for ramsey_search."""
    vertices = range(f.n + 1)
    for size in range(f.n + 1, min_size - 1, -1):
        for combo in itertools.combinations(vertices, size):
            c = monochromatic_color(f, combo)
            if c is not None:
                return c, NatSet(combo)
    return None


# -- reference families and trees: the member texts as one sorted list -----


def lenlex_key(s: str) -> tuple[int, str]:
    return (len(s), s)


class RefFamily:
    """A string family kept the plainest way: its member texts as one list
    sorted by (length, lex).  Every other view is read off that list."""

    def __init__(self, texts) -> None:
        self.texts = sorted(set(texts), key=lenlex_key)

    @property
    def n(self) -> int:
        return max(map(len, self.texts), default=0)

    @property
    def graded(self) -> bool:
        return [len(s) for s in self.texts] == list(range(1, self.n + 1))

    def level(self, l: int) -> tuple[str, ...]:
        return tuple(s for s in self.texts if len(s) == l)

    @property
    def text_levels(self) -> tuple[tuple[str, ...], ...]:
        """The member texts by length, 0 to the longest, one scan per length."""
        return tuple(tuple(s for s in self.texts if len(s) == l) for l in range(self.n + 1))

    def sigma(self, y: int) -> str | None:
        """The lex-least shortest member of length >= y, cut to y."""
        long = [s for s in self.texts if len(s) >= y]
        return min(long, key=lenlex_key)[:y] if long else None

    def render(self) -> str:
        return "".join((s or "-") + "\n" for s in self.texts)


class RefTree(RefFamily):
    """A reference family that always holds the root."""

    def __init__(self, texts) -> None:
        super().__init__(set(texts) | {""})

    @property
    def horizon(self) -> int:
        return self.n


def ref_closure(texts) -> RefTree:
    return RefTree(s[:i] for s in texts for i in range(len(s) + 1))


def ref_unclosed(texts) -> tuple[str, str] | None:
    """(offending, missing): the lenlex-least member with a prefix outside the
    set, and its shortest such prefix; None when the set is prefix-closed."""
    members = set(texts) | {""}
    for s in sorted(members, key=lenlex_key):
        for i in range(len(s)):
            if s[:i] not in members:
                return s, s[:i]
    return None


def ref_w_at(events, e: int, s: int) -> tuple[int, ...]:
    """Scan every (stage, index, element)-ordered event for W_e at stage s."""
    return tuple(x for ee, ss, x in events if ee == e and ss <= s)


def ref_triggered(enums, l_max: int) -> frozenset[tuple[int, int]]:
    """Every (e, l) with l <= l_max where W_e at stage l holds e+3 elements,
    the first e+3 of them all below l, checked pair by pair."""
    return frozenset(
        (e, l)
        for e in range(enums.k)
        for l in range(l_max + 1)
        if len(w := ref_w_at(enums.events, e, l)) >= e + 3 and max(w[: e + 3]) < l
    )


def ref_diagonal(enums, l_max: int) -> RefTree:
    """Every string of length <= l_max whose prefixes each split all fronts
    active at their own length, found by trying all strings."""
    triggered = ref_triggered(enums, l_max)
    keep = {""}
    for l in range(1, l_max + 1):
        fronts = [ref_w_at(enums.events, e, l)[: e + 3] for e, at in triggered if at == l]
        for code in range(1 << l):
            s = format(code, f"0{l}b")
            if s[:-1] in keep and all(len({s[i] for i in f}) == 2 for f in fronts):
                keep.add(s)
    return RefTree(keep)


def ref_homog_path(h: NatSet, ref: RefTree, horizon: int) -> tuple[int, str] | None:
    """(color, lex-least witness) over every member of length >= horizon."""
    for c in (0, 1):
        wits = [
            s
            for s in ref.texts
            if len(s) >= horizon and all(s[x] == str(c) for x in h if x < len(s))
        ]
        if wits:
            return c, min(wits)
    return None


def ref_fpf(h: NatSet, enums, depth: int):
    """dnr's verdicts read off the reference tree: None when no member at the
    horizon is homogeneous for h, else per index (e, status, W_e, g, the
    least element in one and not the other) with g and the element None when
    the index is vacuous; a fired index that h is too small for is refused."""
    ref = ref_diagonal(enums, depth)
    if ref_homog_path(h, ref, ref.horizon) is None:
        return None
    triggered = ref_triggered(enums, depth)
    verdicts = []
    for e in range(enums.k):
        w = sorted(ref_w_at(enums.events, e, enums.max_stage))
        if (e, depth) not in triggered:
            verdicts.append((e, "vacuous", w, None, None))
            continue
        if len(h) < e + 3:
            raise Refusal(f"index e={e} needs {e + 3} elements of the set h, which has {len(h)}")
        g = sorted(h)[: e + 3]
        if g == w:
            verdicts.append((e, "equal", w, g, None))
        else:
            only = sorted(set(g) - set(w)) or sorted(set(w) - set(g))
            verdicts.append((e, "distinct", w, g, only[0]))
    return tuple(verdicts)


def ref_render(strings) -> str:
    """One member per line, level by level, '-' for the empty string."""
    return "".join([f"{s or '-'}\n" for level in strings.text_levels for s in level])


def ref_render_coloring(f: PairColoring) -> str:
    """The header, then one 'x y c' line per pair in (y, x) order."""
    parts = [f"n {f.n}\n"]
    for y, row in enumerate(f.rows, start=1):
        tail = f" {y} "
        parts.extend([f"{x}{tail}{c}\n" for x, c in enumerate(row)])
    return "".join(parts)


def ref_canonical_coloring(text: str) -> PairColoring | None:
    """The coloring of a text exactly as ref_render_coloring writes it, else None.

    Reads n from the header and each pair's color from the last character
    of its line, then keeps the result only if it renders back to the text.
    """
    head, _, body = text.partition("\n")
    digits = head[2:]
    if not (head[:2] == "n " and digits.isascii() and digits.isdigit()):
        return None
    if len(digits) > MAX_DIGITS:
        return None
    n = int(digits)
    colors = "".join([line[-1:] for line in body.split("\n")])
    if len(colors) != n * (n + 1) // 2 or colors.strip("01"):
        return None
    f = PairColoring(
        n, tuple(colors[y * (y - 1) // 2 : y * (y + 1) // 2] for y in range(1, n + 1))
    )
    return f if ref_render_coloring(f) == text else None


def ref_dead_bounds(ref: RefTree, x: int) -> dict[str, int]:
    """Each level-(x+1) member missing the horizon, with its longest extension."""
    return {
        tau: max(len(s) for s in ref.texts if s.startswith(tau))
        for tau in ref.texts
        if len(tau) == x + 1
        and not any(len(s) == ref.horizon and s.startswith(tau) for s in ref.texts)
    }


# -- predicates: a tree-walking interpreter and pointwise covering bounds ---


def ref_evaluate(
    expr: PredExpr, env: Mapping[str, int] | None = None, tau: str | None = None
) -> int | bool:
    """Walk the tree on every call; the oracle for predlang.compile."""
    bindings = env or {}
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name == "len":
            if tau is None:
                raise UnboundVariable("len")
            return len(tau)
        try:
            return int(bindings[expr.name])
        except KeyError:
            raise UnboundVariable(expr.name) from None
    if isinstance(expr, Bit):
        if tau is None:
            raise UnboundVariable("bit")
        i = ref_evaluate(expr.index, bindings, tau)
        return int(tau[i]) if i < len(tau) else 0
    if isinstance(expr, Arith):
        a = ref_evaluate(expr.left, bindings, tau)
        b = ref_evaluate(expr.right, bindings, tau)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b if a > b else 0
        if expr.op == "*":
            return a * b
        return a % b if b else 0
    if isinstance(expr, Cmp):
        a = ref_evaluate(expr.left, bindings, tau)
        b = ref_evaluate(expr.right, bindings, tau)
        return {
            "=": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[expr.op]
    if isinstance(expr, Not):
        return not ref_evaluate(expr.operand, bindings, tau)
    if isinstance(expr, Logic):
        a = bool(ref_evaluate(expr.left, bindings, tau))
        b = bool(ref_evaluate(expr.right, bindings, tau))
        return (a and b) if expr.op == "and" else (a or b)
    raise TypeError(f"not a predicate node: {expr!r}")


class PredMatrix(reductions.PredMatrix):
    """The library's matrix, callable with keyword bindings through
    ref_evaluate."""

    def __call__(self, tau: str | None = None, /, **bindings: int) -> bool:
        return bool(ref_evaluate(self.expr, bindings, tau))


def ref_pi2(phi: reductions.PredMatrix, tau: str, bound: int) -> bool:
    """Every x, y <= |tau| has a witness z < bound on tau's length-x prefix,
    each point evaluated with ref_evaluate; the form of pi2_tree_to_sigma1."""
    return all(
        any(ref_evaluate(phi.expr, {"y": y, "z": z}, prefix(tau, x)) for z in range(bound))
        for x in range(len(tau) + 1)
        for y in range(len(tau) + 1)
    )


def covers(theta: reductions.PredMatrix, x: int, y: int, z: int) -> bool:
    """Every m < y has a witness n < z with theta(x, m, n)."""
    return all(
        any(ref_evaluate(theta.expr, {"x": x, "m": m, "n": n}) for n in range(z))
        for m in range(y)
    )


def yokoyama_h(
    theta0: reductions.PredMatrix, theta1: reductions.PredMatrix, x: int, y: int, cap: int
) -> int:
    """Least z <= cap below which one matrix covers every m < y at x, by
    trying each z in turn; the pointwise form of yokoyama_coloring."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    for z in range(cap + 1):
        if covers(theta0, x, y, z) or covers(theta1, x, y, z):
            return z
    raise Refusal(f"no z <= {cap} covers (x={x}, y={y})")


# -- colorings: the popcount-bounded clique search ---------------------------


def ref_max_clique(adj: list[int], cand: int) -> int:
    """Largest clique within cand, pruning only by size + |cand| <= best."""
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


def ref_adjacency(f: PairColoring) -> tuple[list[int], list[int]]:
    """Each color's neighbour masks, one pair at a time."""
    adj = ([0] * (f.n + 1), [0] * (f.n + 1))
    for x, y, c in pairs(f):
        adj[c][x] |= 1 << y
        adj[c][y] |= 1 << x
    return adj


def ref_masks(adj: list[int]) -> tuple[list[int], ...]:
    """(adj, avoid, bit) as _max_clique reads a graph in any numbering:
    avoid[v] clears v and its neighbours, bit[v] is v's own bit."""
    bit = [1 << v for v in range(len(adj))]
    return adj, [-1 - (a | b) for a, b in zip(adj, bit)], bit


def ref_by_degree(adj: list[int]) -> tuple[tuple[list[int], ...], list[int], list[int]]:
    """(masks, order, pos): the graph renumbered by degree, lowest first and
    ties by label from the highest new label down, one mask at a time
    through its binary text."""
    size = len(adj)
    order = sorted(range(size), key=lambda v: (adj[v].bit_count(), -v))
    pos = sorted(range(size), key=order.__getitem__)
    # Binary text runs from the highest bit down: pick each new bit's old one.
    pick = itemgetter(*[size - 1 - v for v in reversed(order)])
    renumbered = [int("".join(pick(format(adj[v], f"0{size}b"))), 2) for v in order]
    return ref_masks(renumbered), order, pos


def ref_check_stable(f: PairColoring, x: int) -> StabilityEvidence:
    """check_stable by comparing each pair of column x with the one before."""
    last = x + 1
    for y in range(x + 2, f.n + 1):
        if f.value(x, y) != f.value(x, y - 1):
            last = y
    return StabilityEvidence(
        stabilized=last < f.n, last_change=last, final_color=f.value(x, f.n)
    )


def ref_ramsey_search(f: PairColoring, min_size: int) -> tuple[int, NatSet] | None:
    """Both colors searched in full with ref_max_clique, then the lex-least
    largest clique built vertex by vertex; colour 0 wins a tie of sets."""
    adj = ref_adjacency(f)
    universe = (1 << (f.n + 1)) - 1
    sizes = [ref_max_clique(adj[c], universe) for c in (0, 1)]
    best = max(sizes)
    if best < min_size:
        return None
    found = []
    for c in (0, 1):
        if sizes[c] != best:
            continue
        chosen, cand, need = [], universe, best
        while need:
            v = next(
                v
                for v in range(f.n + 1)
                if cand >> v & 1
                and ref_max_clique(adj[c], cand & adj[c][v] & -(1 << (v + 1))) >= need - 1
            )
            chosen.append(v)
            cand &= adj[c][v] & -(1 << (v + 1))
            need -= 1
        found.append((tuple(chosen), c))
    h, c = min(found)
    return c, NatSet(h)
