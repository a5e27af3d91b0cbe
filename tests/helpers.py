"""Shared strategies and independent brute-force oracles for the test suite.

The oracles here deliberately use the dumbest possible algorithms (full
subset enumeration, direct re-evaluation) so the library's cleverer
implementations are checked against something with no shared code.
"""

from __future__ import annotations

import inspect
import itertools
import random
from typing import Callable, Mapping

from hypothesis import strategies as st

from rkl import reductions
from rkl.core import BitString, NatSet, PairColoring, StringFamily, downward_closure
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


def bitstrings(max_len: int = 10):
    return st.text(alphabet="01", max_size=max_len).map(BitString)


def nonempty_bitstrings(max_len: int = 10):
    return st.text(alphabet="01", min_size=1, max_size=max_len).map(BitString)


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
        rows.append(tuple(flat[i : i + y]))
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
        return PairColoring(n, tuple(tuple(row) for row in rows[1:]))

    return st.builds(
        build,
        st.integers(min_n, max_n),
        st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        st.sampled_from([0, 0, 4, 6, 8]),
        st.integers(0, 1),
        st.integers(0, 2**32),
    )


def graded_families(max_n: int = 8, min_n: int = 0):
    def build(codes: list[int]) -> StringFamily:
        return StringFamily.of(
            BitString(format(code % (1 << y), f"0{y}b")) for y, code in enumerate(codes, start=1)
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

    def level(self, l: int) -> tuple[BitString, ...]:
        return tuple(BitString(s) for s in self.texts if len(s) == l)

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


def ref_diagonal(enums, l_max: int) -> RefTree:
    """Every string of length <= l_max whose prefixes each split all fronts
    active at their own length, found by trying all strings."""
    keep = {""}
    for l in range(1, l_max + 1):
        fronts = []
        for e in range(enums.k):
            w = ref_w_at(enums.events, e, l)
            if len(w) >= e + 3 and max(w[: e + 3]) < l:
                fronts.append(w[: e + 3])
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
    expr: PredExpr, env: Mapping[str, int] | None = None, tau: BitString | None = None
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
        return tau[i] if i < len(tau) else 0
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
    """The library's matrix, callable with keyword bindings, plus one built
    from a plain Python callable."""

    def __call__(self, tau: BitString | None = None, /, **bindings: int) -> bool:
        return bool(self.fn(bindings, tau))

    @classmethod
    def from_callable(cls, fn: Callable[..., object]) -> "PredMatrix":
        params = [
            p.name
            for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        wants_tau = "tau" in params
        names = [p for p in params if p != "tau"]

        def run(env: Mapping[str, int], tau: BitString | None) -> bool:
            kwargs: dict[str, object] = {name: env[name] for name in names}
            if wants_tau:
                kwargs["tau"] = tau
            return bool(fn(**kwargs))

        return cls(fn=run)


def _side_holds(theta: reductions.PredMatrix, x: int, y: int, z: int) -> bool:
    return all(any(theta(x=x, m=m, n=n) for n in range(z)) for m in range(y))


def yokoyama_h(
    theta0: reductions.PredMatrix, theta1: reductions.PredMatrix, x: int, y: int, cap: int
) -> int:
    """Least z <= cap below which one matrix covers every m < y at x, by
    trying each z in turn; the pointwise form of yokoyama_coloring."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    for z in range(cap + 1):
        if _side_holds(theta0, x, y, z) or _side_holds(theta1, x, y, z):
            return z
    raise reductions.CapExceeded(x, y, cap)


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


def ref_ramsey_search(f: PairColoring, min_size: int) -> tuple[int, NatSet] | None:
    """Both colors searched in full with ref_max_clique, then the lex-least
    largest clique built vertex by vertex; colour 0 wins a tie of sets."""
    adj = ([0] * (f.n + 1), [0] * (f.n + 1))
    for x, y, c in f.pairs():
        adj[c][x] |= 1 << y
        adj[c][y] |= 1 << x
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
