"""ref_main: rkl's command line rebuilt from the oracles in helpers.py.

It covers the fourteen subcommands that compute, every one but info.
Arguments are read as option/value pairs, with --close a switch.  A matrix
is parsed with predlang.parse over the names its subcommand binds and every
point is evaluated with ref_evaluate.  Every file must be canonical text,
the bytes rkl would write for its content, and is read by a reader here
that keeps it only if it renders back to the same bytes: string files
through RefFamily, colorings through ref_canonical_coloring.  Trees are
closed with ref_closure and rendered with ref_render, each column's string
is RefFamily.sigma, the diagonal tree is ref_diagonal's search of every
string, dnr's verdicts are ref_fpf's, verify's path witness is
ref_homog_path's, search answers by full subset enumeration, and a coloring
is written with ref_render_coloring.  A refusal exits 2 with no output.
"""

from __future__ import annotations

from collections import namedtuple

from helpers import (
    PredMatrix,
    RefFamily,
    RefTree,
    covers,
    naive_ramsey,
    pairs,
    prefixes,
    ref_canonical_coloring,
    ref_closure,
    ref_diagonal,
    ref_fpf,
    ref_homog_path,
    ref_pi2,
    ref_render,
    ref_render_coloring,
    ref_triggered,
    ref_unclosed,
    yokoyama_h,
)
from rkl.core import NatSet, PairColoring, Refusal
from rkl.predlang import parse
from rkl.reductions import PI2_NAMES, YOKO_NAMES

# The switches: options that take no value.
SWITCHES = {"--close"}


def ref_read(options: dict[str, str], flag: str) -> str:
    with open(options[flag], encoding="utf-8", newline="") as file:
        return file.read()


def ref_canonical(text: str, lines: list[str]) -> list[str]:
    """The lines of a text that is exactly those lines, each ended by a newline."""
    if "".join(line + "\n" for line in lines) != text:
        raise Refusal("the reference reads canonical text only")
    return lines


def ref_lines(text: str) -> list[str]:
    return ref_canonical(text, text.split("\n")[:-1])


def ref_family(options: dict[str, str], flag: str) -> RefFamily:
    """The strings of a file as ref_render writes a family, '-' for the root."""
    text = ref_read(options, flag)
    texts = ["" if line == "-" else line for line in ref_lines(text)]
    if any(s.strip("01") for s in texts) or ref_render(RefFamily(texts)) != text:
        raise Refusal("the reference reads canonical string text only")
    return RefFamily(texts)


def ref_tree(options: dict[str, str]) -> RefTree:
    """The --tree file's strings, plus the root; with --close their
    closure, else they must be prefix-closed."""
    texts = ref_family(options, "--tree").texts
    if "--close" in options:
        return ref_closure(texts)
    if ref_unclosed(texts) is not None:
        raise Refusal("not prefix-closed")
    return RefTree(texts)


def ref_natset(options: dict[str, str]) -> NatSet:
    """Naturals one per line, ascending."""
    text = ref_read(options, "--set")
    values = sorted({int(line) for line in ref_lines(text)})
    ref_canonical(text, [str(v) for v in values])
    return NatSet(values)


RefEnum = namedtuple("RefEnum", "events k max_stage")


def ref_enum(options: dict[str, str]) -> RefEnum:
    """(e, stage, element) events listed in (stage, e, element) order."""
    text = ref_read(options, "--enum")
    events = [tuple(map(int, line.split(" "))) for line in ref_lines(text)]
    canonical = sorted(set(events), key=lambda t: (t[1], t[0], t[2]))
    ref_canonical(text, [" ".join(map(str, t)) for t in canonical])
    if any(s < 1 for _, s, _ in events) or len({(e, x) for e, _, x in events}) < len(events):
        raise Refusal("a stage below 1 or an element enumerated twice")
    return RefEnum(
        events,
        max((e + 1 for e, _, _ in events), default=0),
        max((s for _, s, _ in events), default=0),
    )


def ref_columns(source: RefFamily, n: int) -> str:
    """The coloring whose column y spells the source's sigma(y)."""
    sigmas = [source.sigma(y) for y in range(1, n + 1)]
    if n < 0 or None in sigmas:
        raise Refusal("n below 0, or no member of some length")
    return ref_render_coloring(PairColoring(n, sigmas))


def ref_natural(options: dict[str, str], flag: str, least: int) -> int:
    value = int(options[flag])
    if value < least:
        raise Refusal(f"{flag} below {least}")
    return value


def ref_set_text(values) -> str:
    return "{" + ",".join(map(str, values)) + "}"


def ref_yoko(options: dict[str, str]) -> str:
    """Color (x, y) with 0 exactly when the first matrix covers every m < y
    below yokoyama_h, pair by pair."""
    theta0 = PredMatrix(parse(options["--theta0"], YOKO_NAMES))
    theta1 = PredMatrix(parse(options["--theta1"], YOKO_NAMES))
    n, cap = int(options["-n"]), ref_natural(options, "--cap", 1)
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
    f = ref_canonical_coloring(ref_read(options, "--coloring"))
    if f is None:
        raise Refusal("the reference reads canonical coloring text only")
    return f


def ref_search(options: dict[str, str]) -> str:
    f, min_size = ref_coloring(options), ref_natural(options, "--min-size", 2)
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


def ref_close(options: dict[str, str]) -> str:
    return ref_render(ref_closure(ref_family(options, "--sigma").texts))


def ref_tree2color(options: dict[str, str]) -> str:
    return ref_columns(ref_tree(options), int(options["-n"]))


def ref_sigma2color(options: dict[str, str]) -> str:
    return ref_columns(ref_family(options, "--sigma"), int(options["-n"]))


def ref_ce2sigma(options: dict[str, str]) -> str:
    """Each stage s's string padded with 0s to length s; every stage from 1
    to the last must be listed once, with a string no longer than s."""
    text = ref_read(options, "--stages")
    fields = [line.split(" ") for line in ref_lines(text)]
    stages = {int(s): "" if tau == "-" else tau for s, tau in fields}
    ref_canonical(text, [f"{s} {stages[s] or '-'}" for s in sorted(stages)])
    if not stages or sorted(stages) != list(range(1, len(stages) + 1)):
        raise Refusal("no stages, or a stage missing")
    if any(tau.strip("01") or len(tau) > s for s, tau in stages.items()):
        raise Refusal("a stage's string is not binary or too long")
    return ref_render(RefFamily(tau.ljust(s, "0") for s, tau in stages.items()))


def ref_settree(options: dict[str, str]) -> str:
    h, depth = ref_natset(options), ref_natural(options, "--depth", 0)
    chi = "".join("1" if x in h else "0" for x in range(depth))
    return ref_render(RefTree(prefixes(chi)))


def ref_diag(options: dict[str, str]) -> str:
    enums, depth = ref_enum(options), ref_natural(options, "--depth", 1)
    tree = ref_diagonal(enums, depth)
    counts = " ".join(str(len(tree.level(l))) for l in range(depth + 1))
    fired = " ".join(f"{e}:{l}" for e, l in sorted(ref_triggered(enums, depth))) or "none"
    return f"# level_counts: {counts}\n# triggered: {fired}\n" + ref_render(tree)


def ref_path(options: dict[str, str]) -> str:
    """The least longest member, and the positions of its more frequent
    symbol, 0 on a tie."""
    tree = ref_tree(options)
    p = min(tree.level(tree.horizon))
    ones = [x for x, b in enumerate(p) if b == "1"]
    zeros = [x for x, b in enumerate(p) if b == "0"]
    c, h = (1, ones) if len(ones) > len(zeros) else (0, zeros)
    return f"# path: {p or '-'}\n# color: {c}\n" + "".join(f"{v}\n" for v in h)


def ref_verify(options: dict[str, str]) -> tuple[int, str]:
    """h's pairs within the horizon must all have color c; then each y >= 1
    of them must have a sigma(y) showing c at every smaller element of h;
    then the least member at the horizon of the source's closure showing
    one color on h, color 0 first."""
    if ("--tree" in options) == ("--sigma" in options) or int(options["--color"]) not in (0, 1):
        raise Refusal("one source, and a color 0 or 1")
    if "--sigma" in options and "--close" in options:
        raise Refusal("--close applies only to a --tree source")
    f, h, c = ref_coloring(options), ref_natset(options), int(options["--color"])
    source = ref_tree(options) if "--tree" in options else ref_family(options, "--sigma")
    inside = [v for v in h if v <= f.n]
    for x, y, color in sorted(pairs(f)):
        if x in inside and y in inside and color != c:
            return 1, f"coloring-homogeneity: fail (x={x} y={y})\nverdict: fail\n"
    checked = [y for y in inside if y >= 1]
    sigmas = [source.sigma(y) for y in checked]
    if None in sigmas:
        raise Refusal("no member of some length")
    bad = [y for y, s in zip(checked, sigmas) if any(s[x] != str(c) for x in h if x < y)]
    lines = ["coloring-homogeneity: ok"]
    if bad:
        lines.append(f"witness-checks: fail (counterexamples y = {' '.join(map(str, bad))})")
    else:
        lines.append(f"witness-checks: ok (y = {' '.join(map(str, checked)) or 'none'})")
    tree = ref_closure(source.texts)
    witness = ref_homog_path(h, tree, tree.horizon)
    if witness is None:
        lines.append("path-witness: none")
    else:
        lines.append(f"path-witness: color={witness[0]} sigma={witness[1] or '-'}")
    lines.append("verdict: fail" if bad else "verdict: ok")
    return (1 if bad else 0), "".join(line + "\n" for line in lines)


def ref_dnr(options: dict[str, str]) -> tuple[int, str]:
    enums, h = ref_enum(options), ref_natset(options)
    verdicts = ref_fpf(h, enums, ref_natural(options, "--depth", 1))
    if verdicts is None:
        return 1, "not homogeneous for any path at the tree horizon\nverdict: fail\n"
    lines = []
    for e, status, w, g, only in verdicts:
        line = f"e={e} status={status} W={ref_set_text(w)}"
        line += "" if g is None else f" g={ref_set_text(g)}"
        line += "" if only is None else f" differs={only}"
        lines.append(line + "\n")
    failed = any(v[1] == "equal" for v in verdicts)
    return (1 if failed else 0), "".join(lines) + ("verdict: fail\n" if failed else "verdict: ok\n")


COMMANDS = {
    "close": ref_close,
    "tree2color": ref_tree2color,
    "sigma2color": ref_sigma2color,
    "color2sigma": ref_color2sigma,
    "ce2sigma": ref_ce2sigma,
    "pi2sigma1": ref_pi2sigma1,
    "yoko": ref_yoko,
    "settree": ref_settree,
    "diag": ref_diag,
    "search": ref_search,
    "path": ref_path,
    "stable": ref_stable,
    "verify": ref_verify,
    "dnr": ref_dnr,
}


def ref_main(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of `rkl <argv>`, for argv a subcommand followed
    by each of its options, with its value unless it is a switch."""
    command, *rest = argv
    options, i = {}, 0
    while i < len(rest):
        if rest[i] in SWITCHES:
            options[rest[i]], i = "", i + 1
        else:
            options[rest[i]], i = rest[i + 1], i + 2
    try:
        result = COMMANDS[command](options)
    except Refusal:
        return 2, ""
    return result if isinstance(result, tuple) else (0, result)
