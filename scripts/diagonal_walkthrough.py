#!/usr/bin/env python3
"""Diagonal tree and fixed-point-freeness walkthrough.

Feeds a small staged enumeration into the diagonal tree builder, shows which
(index, level) fronts triggered a split, picks a homogeneous set from one of
the surviving paths, and checks that the set's induced function differs from
every enumeration that settled in time.

Usage: python3 scripts/diagonal_walkthrough.py [--depth 6] [--seed 3]
"""

from __future__ import annotations

import argparse
import random
import sys

sys.path.insert(0, "src")  # allow running from a fresh checkout

from rkl.core import NatSet, is_homog_path
from rkl.diagonal import StagedEnum, build_diagonal_tree, check_fpf


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=6, help="tree depth (default 6)")
    parser.add_argument("--seed", type=int, default=3, help="RNG seed (default 3)")
    args = parser.parse_args()
    rng = random.Random(args.seed)

    events = [(0, s + 1, x) for s, x in enumerate(rng.sample(range(4), 3))]
    for x in rng.sample(range(12), 2):
        events.append((1, rng.randint(1, args.depth), x))
    enums = StagedEnum.of(events, max_stage=max(args.depth, 4))
    print(f"staged enumeration with k={enums.k} indices:")
    for e, s, x in enums.events:
        print(f"  stage {s}: W_{e} receives {x}")

    report = build_diagonal_tree(enums, args.depth)
    print(f"\ndiagonal tree: level counts {list(report.level_counts)}")
    if report.triggered:
        fired = " ".join(f"{e}:{l}" for e, l in sorted(report.triggered))
        print(f"triggered fronts (index:level): {fired}")
    else:
        print("no front triggered at this depth")

    top = report.tree.level(args.depth)
    sigma = top[0]
    color = rng.randint(0, 1)
    padding = range(args.depth, args.depth + enums.k + 2)
    h = NatSet.of(
        [x for x in range(args.depth) if sigma[x] == color] + list(padding)
    )
    witness = is_homog_path(h, report.tree, args.depth)
    assert witness is not None
    print(
        f"\nhomogeneous set H = {h} "
        f"(color {witness.color} along path {witness.witness})"
    )

    print("fixed-point-freeness verdicts:")
    for v in check_fpf(h, enums, report):
        if v.status == "vacuous":
            print(f"  e={v.e}: vacuous (front never settled below the horizon)")
        else:
            print(
                f"  e={v.e}: {v.status} — W_{v.e} = {v.w_e}, "
                f"g(H) = {v.g_e}, they differ at {v.distinguishing}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
