"""A finite tree whose long members avoid homogeneity for every settled
enumerated set, and the fixed-point-freeness check it supports.

Each index e watches a staged enumeration W_e.  Once W_e holds e+3 elements
whose first e+3 entries all sit below the current length, every member must
take both values on that front, so no homogeneous set can contain it.  The
function taking a homogeneous set to the least e+3 of its elements then
differs from every settled W_e.

The first e+3 elements of W_e never change once entered, so each front is
derived once and fires at one level: the first that has enumerated all of it
and lies past its largest element.  It stays active at every later level, so
a string of length l is a member exactly when it splits every front fired by
l; dnr decides its question from that fact alone, without the tree.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import compress

from rkl.core import FinTree, NatSet, Refusal, _homog_masks


class StagedEnum:
    """Finitely many staged enumerations, one per index e < k.

    events hold (e, stage, element) triples, normalized to (stage, e,
    element) order; an element enters W_e at its stage and stays.  Within a
    stage, elements enter in ascending order.  k and max_stage are read off
    the events.
    """

    __slots__ = ("events", "_by_index")

    def __init__(self, events: Iterable[tuple[int, int, int]]) -> None:
        events = tuple(events)
        for t in events:  # each whole, before the sort reads it
            if (type(t) is not tuple or len(t) != 3 or any(type(v) is not int for v in t)
                    or min(t) < 0 or t[1] < 1):
                raise Refusal(f"bad event {t!r}")
        self.events = tuple(sorted(events, key=lambda t: (t[1], t[0], t[2])))
        seen: set[tuple[int, int]] = set()
        grouped: dict[int, list[tuple[int, int]]] = {}
        for e, s, x in self.events:
            if (e, x) in seen:
                raise Refusal(f"element {x} enumerated twice for index {e}")
            seen.add((e, x))
            grouped.setdefault(e, []).append((s, x))
        # Per index e, the stages and elements of its events in order.
        self._by_index = {e: tuple(zip(*pairs)) for e, pairs in grouped.items()}

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.events == self.events

    def __hash__(self) -> int:
        return hash((type(self), self.events))

    @property
    def k(self) -> int:
        """One more than the largest index, or 0 with no events."""
        return max((e for e, _, _ in self.events), default=-1) + 1

    @property
    def max_stage(self) -> int:
        """The last stage, or 0 with no events."""
        return self.events[-1][1] if self.events else 0

    def w_final(self, e: int) -> tuple[int, ...]:
        """Every element of W_e, in enumeration order."""
        return self._by_index.get(e, ((), ()))[1]


DiagReport = namedtuple("DiagReport", "tree level_counts triggered")
DiagReport.__doc__ = """The built tree, its member count per level and the active (e, level) pairs."""

FpfVerdict = namedtuple("FpfVerdict", "e status w_e g_e distinguishing", defaults=(None, None))
FpfVerdict.__doc__ = """Outcome of comparing one settled W_e against the least e+3 of h;
status is "distinct", "equal" or "vacuous"."""


def _fronts(enums: StagedEnum, depth: int) -> list[tuple[int, tuple[int, ...], int]]:
    """(e, the first e+3 elements of W_e, the level they fire at) per settled front."""
    if depth < 1:
        raise Refusal("depth must be at least 1")
    return [(e, w[: e + 3], max(s[e + 2], max(w[: e + 3]) + 1))
            for e, (s, w) in enums._by_index.items() if len(w) >= e + 3]


_FLAGS = bytes.maketrans(b"01", b"\0\1")  # a mask's binary digits as compress selectors


def build_diagonal_tree(enums: StagedEnum, depth: int) -> DiagReport:
    """Keep exactly the strings that split every settled e+3-element front.

    A child agrees with its parent on every older front, so level l is
    filtered only by the fronts that first fire there, read off masks of the
    parents' columns.  One without l-1 drops both children of each parent
    constant on it; one with l-1 drops the child that repeats what its
    parent shows on the rest.  The member set is prefix-closed, and at most
    half of each level is excluded.
    """
    firing: dict[int, list[tuple[int, ...]]] = {}
    triggered: set[tuple[int, int]] = set()
    for e, front, first in _fronts(enums, depth):
        firing.setdefault(first, []).append(front)
        triggered.update((e, l) for l in range(first, depth + 1))
    levels: list[list[str]] = [[""]]
    for l in range(1, depth + 1):
        parents = levels[l - 1]
        children = [""] * (2 * len(parents))
        children[::2] = [p + "0" for p in parents]
        children[1::2] = [p + "1" for p in parents]
        if l in firing:  # so l >= 3 (a front has 3 positions below l) and l-1 > 0
            n, fronts = len(parents), firing[l]
            keep0 = keep1 = (1 << n) - 1  # parent 0 on the top bit
            # Per front, the parents showing only 0s, only 1s, below l-1.
            for front, (zeros, ones) in zip(fronts, _homog_masks(parents, fronts)):
                if l - 1 not in front:  # split unless all 0s or all 1s
                    ones = zeros = ones | zeros
                keep0 &= ~zeros
                keep1 &= ~ones
            flags = bytearray(2 * n)  # child 2i ends in 0, child 2i+1 in 1
            flags[::2] = format(keep0, f"0{n}b").encode().translate(_FLAGS)
            flags[1::2] = format(keep1, f"0{n}b").encode().translate(_FLAGS)
            children = list(compress(children, flags))
        levels.append(children)
    return DiagReport(
        tree=FinTree._from_levels(levels),
        level_counts=tuple(len(level) for level in levels),
        triggered=frozenset(triggered),
    )


def _splittable(fronts: list[tuple[int, ...]], h: NatSet, c: int) -> bool:
    """Whether the positions outside h can split every front while h shows c.
    The free positions the fronts read are tried in order, 1-c first, on an
    explicit stack; a front is checked once all its free positions are set."""
    free = sorted({x for front in fronts for x in front if x not in h})
    # Slot 0 holds the c that h shows, and free[i] takes slot i+1.
    due: dict[int, list[set[int]]] = {}
    for front in fronts:
        own = {free.index(x) + 1 if x not in h else 0 for x in front}
        due.setdefault(max(own) + 1, []).append(own)
    stack = [(c,)]
    while stack:
        values = stack.pop()
        if all(len(set(map(values.__getitem__, own))) == 2 for own in due.get(len(values), ())):
            if len(values) > len(free):
                return True
            stack += [values + (c,), values + (1 - c,)]
    return False


def check_fpf(h: NatSet, enums: StagedEnum, depth: int) -> tuple[FpfVerdict, ...] | None:
    """Per-index verdicts that each settled W_e differs from g(e), the least
    e+3 elements of h.

    None when h is homogeneous for no member of the diagonal tree at the
    horizon depth, decided without the tree: color 0, then 1, is fixed on h
    and the other positions are searched for one that splits every front
    fired by depth.  Indices with no such front are vacuous; a fired index
    that h is too small for is refused.
    """
    fired = {e: front for e, front, first in _fronts(enums, depth) if first <= depth}
    if not any(_splittable(list(fired.values()), h, c) for c in (0, 1)):
        return None
    verdicts: list[FpfVerdict] = []
    for e in range(enums.k):
        w = NatSet.of(enums.w_final(e))
        if e not in fired:
            verdicts.append(FpfVerdict(e=e, status="vacuous", w_e=w))
            continue
        if len(h) < e + 3:
            raise Refusal(
                f"index e={e} needs {e + 3} elements of the set h, which has {len(h)}"
            )
        g = NatSet(h.elements[: e + 3])
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
