"""Constructions carrying trees, pair colorings, string families, and
predicate matrices into one another at a finite horizon.

Each operation is the executable content of one reduction between
combinatorial principles, restated over finite data: "arbitrarily long"
becomes "of length at least the horizon", and unbounded searches take an
explicit cap.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection

from rkl import predlang
from rkl.core import FinTree, NatSet, PairColoring, Refusal, StringFamily, _bits


class PredMatrix(namedtuple("PredMatrix", "expr")):
    """A total decidable predicate over named natural variables, kept as its
    parse tree; each reduction lowers it once per call with predlang.compile.
    """

    __slots__ = ()

    @classmethod
    def from_expr(cls, expr: predlang.PredExpr) -> "PredMatrix":
        return cls(expr)

    @classmethod
    def from_text(cls, text: str, names: Collection[str] | None = None) -> "PredMatrix":
        """Parse; with names, refuse at parse time a matrix that is not a
        comparison or reads a name outside them."""
        return cls.from_expr(predlang.parse(text, names))


# The names each reduction binds when it runs its matrix: "len" and "bit"
# read the bound string.
PI2_NAMES = ("y", "z", "len", "bit")
YOKO_NAMES = ("x", "m", "n")


StabilityReport = namedtuple("StabilityReport", "x bound limit_color")
StabilityReport.__doc__ = """Where a column of a tree coloring settles.

bound is the largest length reached by any dead branch at level x+1
(0 when none die); limit_color reads position x off the lex-least
level-(x+1) member that still extends to the horizon, when one exists.
"""


def path_pigeonhole(p: str) -> tuple[int, NatSet]:
    """Majority color of a path prefix and the positions showing it.

    Ties go to color 0, so the empty path gives color 0 and no positions.
    """
    c = 1 if 2 * _bits(p).count("1") > len(p) else 0
    symbol = "01"[c]
    return c, NatSet(tuple(x for x, b in enumerate(p) if b == symbol))


def sigma_to_coloring(source: FinTree | StringFamily, n: int) -> PairColoring:
    """Color (x, y) by position x of the source's sigma_text(y): the
    lex-least shortest member of length >= y, which for a tree is the least
    member of level y.  The first y with no member that long is refused."""
    return PairColoring(n, tuple(source.sigma_text(y) for y in range(1, n + 1)))


# The tree-to-stable-coloring reduction is the same construction.
tree_to_stable_coloring = sigma_to_coloring


def stability_bound(t: FinTree, x: int) -> StabilityReport:
    """Uniform bound past which the column at x follows one surviving branch.

    A level-(x+1) member is dead when no extension reaches the tree horizon;
    each dead branch is charged the length of its longest extension.
    """
    if x + 1 > t.horizon:
        raise Refusal(f"level {x + 1} is past the tree horizon {t.horizon}")
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


def coloring_to_sigma(f: PairColoring) -> StringFamily:
    """The graded family whose length-y member spells column y of the coloring."""
    # Row y has length y, so it is the one member of level y.
    return StringFamily._from_levels([(), *((row,) for row in f.rows)])


def ce_tree_to_sigma(stages: dict[int, str]) -> StringFamily:
    """Zero-pad each stage's string to the stage number, giving a graded family.

    stages maps each stage to its string; every stage from 1 to the largest
    must appear, with a string no longer than the stage number.
    """
    if bad := [s for s in stages if type(s) is not int]:
        raise Refusal(f"stage {bad[0]!r} is not an integer")
    top = max(stages, default=0)
    for s in stages:
        if s < 1:
            raise Refusal(f"stage {s} is outside 1..{top}")
    levels: list[tuple[str, ...]] = [()]
    for s in range(1, top + 1):
        if s not in stages:
            raise Refusal(f"stage {s} is missing")
        tau = stages[s]
        try:
            _bits(tau)
        except Refusal:
            raise Refusal(f"stage {s} holds {tau!r}, not a binary string") from None
        if len(tau) > s:
            raise Refusal(f"stage {s} holds '{tau}', longer than {s}")
        levels.append((tau.ljust(s, "0"),))
    return StringFamily._from_levels(levels)


def pi2_tree_to_sigma1(phi: PredMatrix, tau: str, bound: int) -> bool:
    """Bounded membership for the tree defined by a two-quantifier matrix.

    Holds when some budget up to `bound` supplies, for every x, y <= |tau|, a
    witness z below the budget with phi(tau restricted to x, y, z).  The
    inner condition grows with the budget, so testing the largest suffices.
    """
    if bound < 1:
        raise Refusal("bound must be at least 1")
    _bits(tau)
    least = predlang.compile(phi.expr, ("y", "bits", "len"), witness="z")
    witnesses = range(bound)
    for x in range(len(tau) + 1):
        bits = tau[:x]
        for y in range(len(tau) + 1):
            if least(y, bits, x, witnesses) is None:
                return False
    return True


def yokoyama_coloring(
    theta0: PredMatrix, theta1: PredMatrix, n: int, cap: int
) -> PairColoring:
    """Color (x, y) with 0 exactly when the first matrix covers m < y below h(x, y).

    h(x, y) is the least z <= cap below which one matrix covers every m < y
    at x.  It is read off the least witness n < cap of each (x, m), so each
    matrix is consulted at most once per (x, m, n), and no more at x after
    a row m with no witness below the cap.
    """
    if cap < 1:
        raise Refusal("cap must be at least 1")
    least0 = predlang.compile(theta0.expr, ("x", "m"), witness="n")
    least1 = predlang.compile(theta1.expr, ("x", "m"), witness="n")
    witnesses = range(cap)
    columns: list[list[str]] = [[] for _ in range(n + 1)]
    for x in range(n):
        # Least z whose witnesses cover every m < y, or None once a row has
        # none; a side that is None is not consulted again.
        z0: int | None = 0
        z1: int | None = 0
        for y in range(1, n + 1):
            if z0 is not None:
                a = least0(x, y - 1, witnesses)
                z0 = None if a is None else max(z0, a + 1)
            if z1 is not None:
                b = least1(x, y - 1, witnesses)
                z1 = None if b is None else max(z1, b + 1)
            if y <= x:
                continue
            if z0 is None and z1 is None:
                raise Refusal(f"no z <= {cap} covers (x={x}, y={y})")
            columns[y].append("0" if z1 is None or (z0 is not None and z0 <= z1) else "1")
    return PairColoring(n, tuple("".join(columns[y]) for y in range(1, n + 1)))


def set_to_path_tree(a: NatSet, l: int) -> FinTree:
    """The chain of prefixes of a's characteristic string, up to length l."""
    if l < 0:
        raise Refusal("depth must be a natural number")
    bits = ["0"] * l
    for x in a:  # ascending, so the first x past the prefix ends the scan
        if x >= l:
            break
        bits[x] = "1"
    chi = "".join(bits)
    return FinTree._from_levels((chi[:i],) for i in range(len(chi) + 1))
