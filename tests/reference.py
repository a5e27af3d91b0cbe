"""ref_main: rkl's command line rebuilt from the oracles in helpers.py.

It covers the two matrix subcommands, yoko and pi2sigma1.  Arguments are
read as option/value pairs, each matrix is parsed with predlang.parse over
the names its subcommand binds, every point is evaluated with ref_evaluate,
and a coloring is written with ref_render_coloring.  A refusal exits 2 with
no output.
"""

from __future__ import annotations

from helpers import PredMatrix, covers, ref_pi2, ref_render_coloring, yokoyama_h
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


COMMANDS = {"yoko": ref_yoko, "pi2sigma1": ref_pi2sigma1}


def ref_main(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of `rkl <argv>`, for argv a subcommand followed
    by each of its options and value."""
    command, *rest = argv
    try:
        return 0, COMMANDS[command](dict(zip(rest[::2], rest[1::2])))
    except Refusal:
        return 2, ""
