"""A finite tree whose long members avoid homogeneity for every settled
enumerated set, and the fixed-point-freeness check it supports.

Each index e watches a staged enumeration W_e.  Once W_e holds e+3 elements
whose first e+3 entries all sit below the current length, every member must
take both values on that front, so no homogeneous set can contain it.  The
function taking a homogeneous set to the least e+3 of its elements then
differs from every settled W_e.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from rkl import core
from rkl.core import FinTree, NatSet


class TooSmall(ValueError):
    """The homogeneous set has fewer elements than the request needs."""


class NotHomogeneous(ValueError):
    """The set is not homogeneous for any path at the tree horizon."""


@dataclass(frozen=True)
class StagedEnum:
    """Finitely many staged enumerations, one per index e < k.

    events hold (e, stage, element) triples, normalized to (stage, e,
    element) order; an element enters W_e at its stage and stays.  Within a
    stage, elements enter in ascending order.
    """

    events: tuple[tuple[int, int, int], ...]
    k: int
    max_stage: int

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events, key=lambda t: (t[1], t[0], t[2])))
        object.__setattr__(self, "events", events)
        if self.k < 0 or self.max_stage < 0:
            raise ValueError("k and max_stage must be naturals")
        seen: set[tuple[int, int]] = set()
        for e, s, x in events:
            if e < 0 or s < 1 or x < 0:
                raise ValueError(f"bad event ({e}, {s}, {x})")
            if e >= self.k:
                raise ValueError(f"index {e} outside 0..{self.k - 1}")
            if s > self.max_stage:
                raise ValueError(f"stage {s} past max_stage {self.max_stage}")
            if (e, x) in seen:
                raise ValueError(f"element {x} enumerated twice for index {e}")
            seen.add((e, x))

    @classmethod
    def of(
        cls,
        events: "list[tuple[int, int, int]] | tuple[tuple[int, int, int], ...]",
        k: int | None = None,
        max_stage: int | None = None,
    ) -> "StagedEnum":
        events = tuple(events)
        if k is None:
            k = max((e for e, _, _ in events), default=-1) + 1
        if max_stage is None:
            max_stage = max((s for _, s, _ in events), default=0)
        return cls(events=events, k=k, max_stage=max_stage)

    @cached_property
    def _by_index(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per index e, the stages and elements of its events in order."""
        grouped: dict[int, list[tuple[int, int]]] = {}
        for e, s, x in self.events:
            grouped.setdefault(e, []).append((s, x))
        return {e: tuple(zip(*pairs)) for e, pairs in grouped.items()}

    def w_at(self, e: int, s: int) -> tuple[int, ...]:
        """Elements of W_e entered by stage s, in enumeration order."""
        stages, elements = self._by_index.get(e, ((), ()))
        return elements[: bisect_right(stages, s)]

    def w_final(self, e: int) -> tuple[int, ...]:
        return self.w_at(e, self.max_stage)


@dataclass(frozen=True)
class DiagReport:
    """The built tree plus its per-level counts and active (e, length) pairs."""

    tree: FinTree
    level_counts: tuple[int, ...]
    triggered: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class FpfVerdict:
    """Outcome of comparing one settled W_e against the least e+3 of h."""

    e: int
    status: str  # "distinct" | "equal" | "vacuous"
    w_e: NatSet
    g_e: NatSet | None = None
    distinguishing: int | None = None


def build_diagonal_tree(enums: StagedEnum, l_max: int) -> DiagReport:
    """Keep exactly the strings that split every settled e+3-element front.

    A string of length l is a member when, for each index e whose W at stage
    l holds at least e+3 elements with the first e+3 of them all below l, it
    takes both values on that front.  The condition only strengthens along
    extensions, so the member set is prefix-closed, and at most half of each
    level is ever excluded.
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    triggered: set[tuple[int, int]] = set()
    fronts_by_level: list[list[tuple[int, ...]]] = []
    for l in range(l_max + 1):
        active: list[tuple[int, ...]] = []
        for e in range(enums.k):
            w = enums.w_at(e, l)
            if len(w) >= e + 3:
                front = w[: e + 3]
                if max(front) < l:
                    active.append(front)
                    triggered.add((e, l))
        fronts_by_level.append(active)
    levels: list[list[str]] = [[""]]
    for l in range(1, l_max + 1):
        # A front is split unless it reads all zeros or all ones.
        checks = [
            (itemgetter(*front), ("0",) * len(front), ("1",) * len(front))
            for front in fronts_by_level[l]
        ]
        children = [s for parent in levels[l - 1] for s in (parent + "0", parent + "1")]
        if checks:
            children = [
                s
                for s in children
                if all(read(s) not in (zeros, ones) for read, zeros, ones in checks)
            ]
        levels.append(children)
    return DiagReport(
        tree=FinTree._from_levels(levels),
        level_counts=tuple(len(level) for level in levels),
        triggered=frozenset(triggered),
    )


def dnr_g(h: NatSet, e: int) -> NatSet:
    """The least e+3 elements of h."""
    if len(h) < e + 3:
        raise TooSmall(f"need {e + 3} elements, have {len(h)}")
    return NatSet(h.elements[: e + 3])


def check_fpf(
    h: NatSet, enums: StagedEnum, report: DiagReport
) -> tuple[FpfVerdict, ...]:
    """Per-index verdicts that each settled W_e differs from dnr_g(h, e).

    h must be homogeneous for a path through the report's tree at its full
    horizon.  Indices whose trigger never fired at the horizon are vacuous.
    """
    horizon = report.tree.horizon
    if core.is_homog_path(h, report.tree, horizon) is None:
        raise NotHomogeneous("not homogeneous for any path at the tree horizon")
    verdicts: list[FpfVerdict] = []
    for e in range(enums.k):
        w = NatSet.of(enums.w_final(e))
        if (e, horizon) not in report.triggered:
            verdicts.append(FpfVerdict(e=e, status="vacuous", w_e=w))
            continue
        g = dnr_g(h, e)
        if g == w:
            verdicts.append(FpfVerdict(e=e, status="equal", w_e=w, g_e=g))
        else:
            extra = [v for v in g if v not in w] or [v for v in w if v not in g]
            verdicts.append(
                FpfVerdict(
                    e=e, status="distinct", w_e=w, g_e=g, distinguishing=extra[0]
                )
            )
    return tuple(verdicts)
