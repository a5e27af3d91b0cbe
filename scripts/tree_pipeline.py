#!/usr/bin/env python3
"""End-to-end tree pipeline demo.

Builds a random graded string family, closes it into a prefix tree, turns
the tree into a stable pair coloring, searches the coloring for a
monochromatic set, and verifies that set against the tree's canonical
length-y strings.  Every step prints what it produced.

Usage: python3 scripts/tree_pipeline.py [--n 12] [--seed 7] [--min-size 3]
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

# Run from a fresh checkout, from any directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rkl.core import StringFamily, downward_closure
from rkl.oracles import check_stable, ramsey_search, verify_reduction
from rkl.reductions import stability_bound, tree_to_stable_coloring


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=12, help="horizon (default 12)")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    parser.add_argument(
        "--min-size", type=int, default=3, help="target set size (default 3)"
    )
    args = parser.parse_args()
    if args.n < 0:
        parser.error("--n must be at least 0")
    if args.min_size < 2:
        parser.error("--min-size must be at least 2")
    rng = random.Random(args.seed)

    family = StringFamily(
        format(rng.getrandbits(y), f"0{y}b") for y in range(1, args.n + 1)
    )
    print(f"graded family, one string per length 1..{args.n}:")
    for s in family:  # (length, lex) order
        print(f"  {s}")

    tree = downward_closure(family)
    print(f"\ndownward closure: {len(tree)} strings, horizon {tree.horizon}")

    coloring = tree_to_stable_coloring(tree, args.n)
    print(f"pair coloring on 0..{args.n} from canonical level strings:")
    for x in range(min(4, args.n)):
        row = "".join(str(coloring.value(x, y)) for y in range(x + 1, args.n + 1))
        report = stability_bound(tree, x)
        evidence = check_stable(coloring, x)
        print(
            f"  x={x}: colors {row}  "
            f"(tree bound {report.bound}, limit {report.limit_color}; "
            f"observed last change {evidence.last_change})"
        )

    found = ramsey_search(coloring, args.min_size)
    if found is None:
        print(f"\nno monochromatic set of size {args.min_size} exists")
        return 1
    color, h = found
    print(f"\nlargest monochromatic set: color {color}, H = {h}")

    verdict = verify_reduction(tree, coloring, h, color)
    print(f"witness checks at y in {verdict.checked}: ", end="")
    if verdict.ok:
        print("all agree with the tree's canonical strings")
    else:
        print(f"counterexamples at y in {verdict.counterexamples}")
    return 0 if verdict.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
