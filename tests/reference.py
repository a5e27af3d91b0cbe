"""ref_main: rkl's command line rebuilt from the oracles in helpers.py.

It covers the two matrix subcommands, yoko and pi2sigma1, and three that
read a coloring: search, stable and color2sigma.  Arguments are read as
option/value pairs.  Each matrix is parsed with predlang.parse over the
names its subcommand binds, every point is evaluated with ref_evaluate, and
a coloring is written with ref_render_coloring.  A coloring file is read
with ref_canonical_coloring, so it must be canonical text; search answers
by full subset enumeration, stable by scanning the pairs of each column,
and color2sigma renders with ref_render.  A refusal exits 2 with no output.
"""

from __future__ import annotations

from helpers import (
    PredMatrix,
    RefFamily,
    covers,
    naive_ramsey,
    pairs,
    ref_canonical_coloring,
    ref_pi2,
    ref_render,
    ref_render_coloring,
    yokoyama_h,
)
from rkl.core import PairColoring, Refusal
from rkl.predlang import parse
from rkl.reductions import PI2_NAMES, YOKO_NAMES


def ref_yoko(options: dict[str, str]) -> str:
    """Color (x, y) with 0 exactly when the first matrix covers every m < y
    below yokoyama_h, pair by pair."""
    theta0 = PredMatrix(parse(options["--theta0"], YOKO_NAMES))
    theta1 = PredMatrix(parse(options["--theta1"], YOKO_NAMES))
    n, cap = int(options["-n"]), int(options["--cap"])
    if cap < 1:
        raise Refusal("cap must be at least 1")
    rows = [
        "".join(
            "0" if covers(theta0, x, y, yokoyama_h(theta0, theta1, x, y, cap)) else "1"
            for x in range(y)
        )
        for y in range(1, n + 1)
    ]
    return ref_render_coloring(PairColoring(n, rows))


def ref_pi2sigma1(options: dict[str, str]) -> str:
    phi = PredMatrix(parse(options["--phi"], PI2_NAMES))
    tau = "" if options["--tau"] == "-" else options["--tau"]
    bound = int(options["--bound"])
    if tau.strip("01") or bound < 1:
        raise Refusal("tau must be binary and bound at least 1")
    return "true\n" if ref_pi2(phi, tau, bound) else "false\n"


def ref_coloring(options: dict[str, str]) -> PairColoring:
    with open(options["--coloring"], encoding="utf-8") as file:
        f = ref_canonical_coloring(file.read())
    if f is None:
        raise Refusal("the reference reads canonical coloring text only")
    return f


def ref_search(options: dict[str, str]) -> str:
    f, min_size = ref_coloring(options), int(options["--min-size"])
    if min_size < 2:
        raise Refusal("min_size must be at least 2")
    found = naive_ramsey(f, min_size)
    if found is None:
        return "# none\n"
    c, h = found
    return f"# color: {c}\n" + "".join(f"{v}\n" for v in h)


def ref_stable(options: dict[str, str]) -> str:
    """Per column x, the greatest y whose color differs from y-1's (x+1 if
    none); the column is stabilized when that is below the horizon."""
    f = ref_coloring(options)
    xs = [int(options["-x"])] if "-x" in options else range(f.n)
    if any(not 0 <= x < f.n for x in xs):
        raise Refusal("x out of range")
    lines = []
    for x in xs:
        column = {y: c for x2, y, c in pairs(f) if x2 == x}
        last = max((y for y in column if y - 1 in column and column[y] != column[y - 1]),
                   default=x + 1)
        stabilized = "true" if last < f.n else "false"
        lines.append(f"x={x} stabilized={stabilized} last_change={last} "
                     f"final_color={column[f.n]}\n")
    return "".join(lines)


def ref_color2sigma(options: dict[str, str]) -> str:
    """The family whose length-y member spells the colors of (x, y), x < y."""
    f = ref_coloring(options)
    members = ["".join(str(c) for _, y2, c in pairs(f) if y2 == y) for y in range(1, f.n + 1)]
    return ref_render(RefFamily(members))


COMMANDS = {
    "yoko": ref_yoko,
    "pi2sigma1": ref_pi2sigma1,
    "search": ref_search,
    "stable": ref_stable,
    "color2sigma": ref_color2sigma,
}


def ref_main(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of `rkl <argv>`, for argv a subcommand followed
    by each of its options and value."""
    command, *rest = argv
    try:
        return 0, COMMANDS[command](dict(zip(rest[::2], rest[1::2])))
    except Refusal:
        return 2, ""
