"""Constructions carrying trees, pair colorings, string families, and
predicate matrices into one another at a finite horizon.

Each operation is the executable content of one reduction between
combinatorial principles, restated over finite data: "arbitrarily long"
becomes "of length at least the horizon", and unbounded searches take an
explicit cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Mapping

from rkl import predlang
from rkl.core import BitString, FinTree, NatSet, PairColoring, StringFamily


class EmptyPath(ValueError):
    """The pigeonhole step needs at least one symbol."""


class LevelEmpty(ValueError):
    """The tree has no member at a required length."""

    def __init__(self, y: int) -> None:
        self.y = y
        super().__init__(f"no tree member of length {y}")


class NoLongString(ValueError):
    """The family has no member long enough for the requested column."""

    def __init__(self, y: int) -> None:
        self.y = y
        super().__init__(f"no family member of length at least {y}")


class BadStage(ValueError):
    """A staged string enumeration broke the one-short-string-per-stage rule."""

    def __init__(self, s: int) -> None:
        self.s = s
        super().__init__(f"stage {s} is missing, repeated, or holds too long a string")


class CapExceeded(ValueError):
    """The bounded search ran out of budget before either side covered."""

    def __init__(self, x: int, y: int, cap: int) -> None:
        self.x = x
        self.y = y
        self.cap = cap
        super().__init__(f"no z <= {cap} covers (x={x}, y={y})")


@dataclass(frozen=True)
class PredMatrix:
    """A total decidable predicate over named natural variables.

    The wrapped function takes (env, tau) where env maps variable names to
    naturals and tau is an optional bit string read by bit()/len; its result
    is read for truth.  Build one from expression text or from a parsed
    expression, which is compiled once here.
    """

    fn: Callable[[Mapping[str, int], BitString | None], object]

    @classmethod
    def from_expr(cls, expr: predlang.PredExpr) -> "PredMatrix":
        return cls(fn=predlang.compile(expr))

    @classmethod
    def from_text(cls, text: str, names: Collection[str] | None = None) -> "PredMatrix":
        """Parse and compile; with names, refuse at parse time a matrix that
        is not a comparison or reads a name outside them."""
        return cls.from_expr(predlang.parse(text, names))


# The names each reduction binds when it runs its matrix: "len" and "bit"
# read the bound string.
PI2_NAMES = ("y", "z", "len", "bit")
YOKO_NAMES = ("x", "m", "n")


@dataclass(frozen=True)
class StabilityReport:
    """Where a column of a tree coloring settles.

    bound is the largest length reached by any dead branch at level x+1
    (0 when none die); limit_color reads position x off the lex-least
    level-(x+1) member that still extends to the horizon, when one exists.
    """

    x: int
    bound: int
    limit_color: int | None


def path_pigeonhole(p: BitString) -> tuple[int, NatSet]:
    """Majority color of a path prefix and the positions showing it.

    Ties go to color 0.
    """
    if len(p) == 0:
        raise EmptyPath("path must hold at least one symbol")
    ones = sum(p)
    c = 1 if 2 * ones > len(p) else 0
    return c, NatSet(tuple(x for x in range(len(p)) if p[x] == c))


def _column_coloring(
    source: FinTree | StringFamily, n: int, missing: type[LevelEmpty | NoLongString]
) -> PairColoring:
    """Color (x, y) by position x of the source's sigma_text(y); the first y
    with no member that long is reported as missing(y)."""
    rows: list[tuple[int, ...]] = []
    for y in range(1, n + 1):
        sigma = source.sigma_text(y)
        if sigma is None:
            raise missing(y)
        rows.append(tuple(map(int, sigma)))
    return PairColoring(n, tuple(rows))


def tree_to_stable_coloring(t: FinTree, n: int) -> PairColoring:
    """Color (x, y) by the x-th symbol of the lex-least member of length y."""
    return _column_coloring(t, n, LevelEmpty)


def stability_bound(t: FinTree, x: int) -> StabilityReport:
    """Uniform bound past which the column at x follows one surviving branch.

    A level-(x+1) member is dead when no extension reaches the tree horizon;
    each dead branch is charged the length of its longest extension.
    """
    if x + 1 > t.horizon:
        raise ValueError(f"level {x + 1} is past the tree horizon {t.horizon}")
    # Levels ascend, so each level-(x+1) node ends up mapped to the length
    # of its longest extension.
    reach: dict[str, int] = {}
    for l in range(x + 1, t.horizon + 1):
        for s in t.text_levels[l]:
            reach[s[: x + 1]] = l
    roots = t.text_levels[x + 1]
    survivors = [tau for tau in roots if reach[tau] == t.horizon]
    return StabilityReport(
        x=x,
        bound=max((reach[tau] for tau in roots if reach[tau] < t.horizon), default=0),
        limit_color=int(survivors[0][x]) if survivors else None,
    )


def sigma_to_coloring(family: StringFamily, n: int) -> PairColoring:
    """Color (x, y) by position x of the lex-least shortest member of length >= y."""
    return _column_coloring(family, n, NoLongString)


def coloring_to_sigma(f: PairColoring) -> StringFamily:
    """The graded family whose length-y member spells column y of the coloring."""
    # Row y has length y, so it is the one member of level y.
    columns = ["".join(["01"[c] for c in row]) for row in f.rows]
    return StringFamily._from_levels([(), *((column,) for column in columns)])


def ce_tree_to_sigma(
    events: Iterable[tuple[int, BitString]], max_stage: int
) -> StringFamily:
    """Zero-pad each stage's string to the stage number, giving a graded family.

    events lists (stage, string) pairs; every stage 1..max_stage must appear
    exactly once with a string no longer than the stage number.
    """
    by_stage: dict[int, BitString] = {}
    for s, tau in events:
        if s < 1 or s > max_stage or s in by_stage:
            raise BadStage(s)
        by_stage[s] = tau
    levels: list[tuple[str, ...]] = [()]
    for s in range(1, max_stage + 1):
        if s not in by_stage:
            raise BadStage(s)
        tau = by_stage[s]
        if len(tau) > s:
            raise BadStage(s)
        levels.append((tau.padded(s).bits,))
    return StringFamily._from_levels(levels)


def pi2_tree_to_sigma1(phi: PredMatrix, tau: BitString, bound: int) -> bool:
    """Bounded membership for the tree defined by a two-quantifier matrix.

    Holds when some budget up to `bound` supplies, for every x, y <= |tau|, a
    witness z below the budget with phi(tau restricted to x, y, z).  The
    inner condition grows with the budget, so testing the largest suffices.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    fn = phi.fn
    for x in range(len(tau) + 1):
        pref = tau.prefix(x)
        for y in range(len(tau) + 1):
            env = {"y": y}
            for z in range(bound):
                env["z"] = z
                if fn(env, pref):
                    break
            else:
                return False
    return True


def _witness_table(theta: PredMatrix, x: int, m_count: int, cap: int) -> list[int | None]:
    """Least witness n < cap for each m, or None when a row has none."""
    fn = theta.fn
    table: list[int | None] = [None] * m_count
    for m in range(m_count):
        env = {"x": x, "m": m}
        for n in range(cap):
            env["n"] = n
            if fn(env, None):
                table[m] = n
                break
    return table


def _cover_bound(table: list[int | None], y: int) -> int | None:
    """Least z whose witnesses cover all m < y, from a least-witness table."""
    seen = table[:y]
    if any(w is None for w in seen):
        return None
    return max(seen) + 1 if seen else 0


def yokoyama_coloring(
    theta0: PredMatrix, theta1: PredMatrix, n: int, cap: int
) -> PairColoring:
    """Color (x, y) with 0 exactly when the first matrix covers m < y below h(x, y).

    h(x, y) is the least z <= cap below which one matrix covers every m < y
    at x.  It is read off least-witness tables, so each matrix is consulted
    at most once per (x, m, n).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    columns: list[list[int]] = [[] for _ in range(n + 1)]
    for x in range(n):
        w0 = _witness_table(theta0, x, n, cap)
        w1 = _witness_table(theta1, x, n, cap)
        for y in range(x + 1, n + 1):
            z0 = _cover_bound(w0, y)
            z1 = _cover_bound(w1, y)
            h = min((z for z in (z0, z1) if z is not None), default=None)
            if h is None or h > cap:
                raise CapExceeded(x, y, cap)
            columns[y].append(0 if (z0 is not None and z0 <= h) else 1)
    return PairColoring(n, tuple(tuple(columns[y]) for y in range(1, n + 1)))


def set_to_path_tree(a: NatSet, l: int) -> FinTree:
    """The chain of prefixes of a's characteristic string, up to length l."""
    if l < 0:
        raise ValueError("depth must be a natural number")
    chi = "".join("1" if x in a else "0" for x in range(l))
    return FinTree._from_levels((chi[:i],) for i in range(len(chi) + 1))
