"""Command line front end.

Data goes to stdout (or the --output file), diagnostics to stderr.  Exit
codes: 0 on success or a verified check, 1 only when the verdict line of
verify or dnr reads fail, 2 on every core.Refusal or OSError; any other
exception is a defect and propagates out of main.  Every subcommand is
deterministic: identical arguments and files produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from rkl import core, diagonal, formats, oracles, reductions

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _path(name: str) -> str:
    """The path named, refused when it holds a NUL byte, which no file name can."""
    if "\0" in name:
        raise core.Refusal(f"path {name!r} holds a NUL byte")
    return name


def _read(path: str) -> str:
    try:
        with open(_path(path), encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise formats.FormatError(None, str(exc)) from None


def _int_arg(text: str) -> int:
    """An optional '-' and a natural as the file formats spell one.  The
    refusal is a ValueError, so argparse reports it and exits 2."""
    value = formats._parse_nat(text.removeprefix("-"), None)
    return -value if text.startswith("-") else value


def _bits_arg(text: str) -> str:
    return "" if text == "-" else core._bits(text)


def _cmd_close(args: argparse.Namespace) -> tuple[int, str]:
    family = formats.parse_sigma(_read(args.sigma))
    return EXIT_OK, formats.render_tree(core.downward_closure(family))


def _cmd_tree2color(args: argparse.Namespace) -> tuple[int, str]:
    t = formats.parse_tree(_read(args.tree), close=args.close)
    f = reductions.tree_to_stable_coloring(t, args.n)
    return EXIT_OK, formats.render_coloring(f)


def _cmd_sigma2color(args: argparse.Namespace) -> tuple[int, str]:
    family = formats.parse_sigma(_read(args.sigma))
    f = reductions.sigma_to_coloring(family, args.n)
    return EXIT_OK, formats.render_coloring(f)


def _cmd_color2sigma(args: argparse.Namespace) -> tuple[int, str]:
    f = formats.parse_coloring(_read(args.coloring))
    return EXIT_OK, formats.render_sigma(reductions.coloring_to_sigma(f))


def _cmd_ce2sigma(args: argparse.Namespace) -> tuple[int, str]:
    events, max_stage = formats.parse_stages(_read(args.stages))
    family = reductions.ce_tree_to_sigma(events, max_stage)
    return EXIT_OK, formats.render_sigma(family)


def _cmd_pi2sigma1(args: argparse.Namespace) -> tuple[int, str]:
    phi = reductions.PredMatrix.from_text(args.phi, reductions.PI2_NAMES)
    held = reductions.pi2_tree_to_sigma1(phi, _bits_arg(args.tau), args.bound)
    return EXIT_OK, ("true\n" if held else "false\n")


def _cmd_yoko(args: argparse.Namespace) -> tuple[int, str]:
    theta0 = reductions.PredMatrix.from_text(args.theta0, reductions.YOKO_NAMES)
    theta1 = reductions.PredMatrix.from_text(args.theta1, reductions.YOKO_NAMES)
    f = reductions.yokoyama_coloring(theta0, theta1, args.n, args.cap)
    return EXIT_OK, formats.render_coloring(f)


def _cmd_settree(args: argparse.Namespace) -> tuple[int, str]:
    h = formats.parse_natset(_read(args.set))
    return EXIT_OK, formats.render_tree(reductions.set_to_path_tree(h, args.depth))


def _cmd_diag(args: argparse.Namespace) -> tuple[int, str]:
    enums = formats.parse_enum(_read(args.enum))
    report = diagonal.build_diagonal_tree(enums, args.depth)
    counts = " ".join(str(c) for c in report.level_counts)
    fired = " ".join(f"{e}:{l}" for e, l in sorted(report.triggered)) or "none"
    out = f"# level_counts: {counts}\n# triggered: {fired}\n"
    return EXIT_OK, out + formats.render_tree(report.tree)


def _cmd_search(args: argparse.Namespace) -> tuple[int, str]:
    f = formats.parse_coloring(_read(args.coloring))
    result = oracles.ramsey_search(f, args.min_size)
    if result is None:
        return EXIT_OK, "# none\n"
    c, h = result
    return EXIT_OK, f"# color: {c}\n" + formats.render_natset(h)


def _cmd_path(args: argparse.Namespace) -> tuple[int, str]:
    t = formats.parse_tree(_read(args.tree), close=args.close)
    p = oracles.longest_path(t)
    c, h = reductions.path_pigeonhole(p)
    header = f"# path: {p or '-'}\n# color: {c}\n"
    return EXIT_OK, header + formats.render_natset(h)


def _cmd_stable(args: argparse.Namespace) -> tuple[int, str]:
    f = formats.parse_coloring(_read(args.coloring))
    xs = [args.x] if args.x is not None else list(range(f.n))
    lines = []
    for x in xs:
        ev = oracles.check_stable(f, x)
        lines.append(
            f"x={x} stabilized={'true' if ev.stabilized else 'false'} "
            f"last_change={ev.last_change} final_color={ev.final_color}"
        )
    return EXIT_OK, "".join(line + "\n" for line in lines)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    if args.close and not args.tree:
        raise core.Refusal("--close applies only to a --tree source")
    f = formats.parse_coloring(_read(args.coloring))
    h = formats.parse_natset(_read(args.set))
    if args.tree:
        source: core.FinTree | core.StringFamily = formats.parse_tree(
            _read(args.tree), close=args.close
        )
        t = source
    else:
        source = formats.parse_sigma(_read(args.sigma))
        t = core.downward_closure(source)
    verdict = oracles.verify_reduction(source, f, h, args.color)
    if verdict.broken is not None:
        x, y = verdict.broken
        return EXIT_FAIL, f"coloring-homogeneity: fail (x={x} y={y})\nverdict: fail\n"
    lines = ["coloring-homogeneity: ok"]
    ys = " ".join(str(y) for y in verdict.checked) or "none"
    if verdict.ok:
        lines.append(f"witness-checks: ok (y = {ys})")
    else:
        bad = " ".join(str(y) for y in verdict.counterexamples)
        lines.append(f"witness-checks: fail (counterexamples y = {bad})")
    witness = core.is_homog_path(h, t)
    if witness is None:
        lines.append("path-witness: none")
    else:
        sigma = witness.witness
        lines.append(f"path-witness: color={witness.color} sigma={sigma or '-'}")
    lines.append("verdict: ok" if verdict.ok else "verdict: fail")
    return (EXIT_OK if verdict.ok else EXIT_FAIL), "".join(l + "\n" for l in lines)


def _cmd_dnr(args: argparse.Namespace) -> tuple[int, str]:
    enums = formats.parse_enum(_read(args.enum))
    h = formats.parse_natset(_read(args.set))
    verdicts = diagonal.check_fpf(h, enums, args.depth)
    if verdicts is None:
        return EXIT_FAIL, "not homogeneous for any path at the tree horizon\nverdict: fail\n"
    lines = []
    failed = False
    for v in verdicts:
        line = f"e={v.e} status={v.status} W={v.w_e}"
        if v.g_e is not None:
            line += f" g={v.g_e}"
        if v.distinguishing is not None:
            line += f" differs={v.distinguishing}"
        if v.status == "equal":
            failed = True
        lines.append(line)
    lines.append("verdict: fail" if failed else "verdict: ok")
    return (EXIT_FAIL if failed else EXIT_OK), "".join(l + "\n" for l in lines)


def _cmd_info(args: argparse.Namespace) -> tuple[int, str]:
    text = _read(args.file)
    # As PurePath.suffix: from the name's last dot, unless that starts or ends it.
    name = os.path.basename(args.file)
    dot = name.rfind(".")
    suffix = name[dot:] if 0 < dot < len(name) - 1 else ""
    if suffix == ".tree":
        t = formats.parse_tree(text)
        return EXIT_OK, f"kind=tree members={len(t)} horizon={t.horizon}\n"
    if suffix == ".sigma":
        fam = formats.parse_sigma(text)
        graded = "true" if fam.graded else "false"
        return EXIT_OK, f"kind=sigma members={len(fam)} max_len={fam.n} graded={graded}\n"
    if suffix == ".color":
        f = formats.parse_coloring(text)
        return EXIT_OK, f"kind=coloring n={f.n} pairs={f.n * (f.n + 1) // 2}\n"
    if suffix == ".enum":
        en = formats.parse_enum(text)
        return EXIT_OK, (
            f"kind=enum events={len(en.events)} k={en.k} max_stage={en.max_stage}\n"
        )
    if suffix == ".set":
        h = formats.parse_natset(text)
        if h:
            extent = f" min={h.elements[0]} max={h.elements[-1]}"
        else:
            extent = ""
        return EXIT_OK, f"kind=set size={len(h)}{extent}\n"
    if suffix == ".stages":
        events, max_stage = formats.parse_stages(text)
        return EXIT_OK, f"kind=stages stages={len(events)} max_stage={max_stage}\n"
    raise formats.FormatError(None, f"unrecognized extension {suffix!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkl",
        description="Finite-horizon workbench for trees, colorings, and string families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", help="write data here instead of stdout")
        return p

    p = cmd("close", _cmd_close, "downward closure of a string family, as a tree")
    p.add_argument("--sigma", required=True)

    p = cmd("tree2color", _cmd_tree2color, "pair coloring from lex-least tree levels")
    p.add_argument("--tree", required=True)
    p.add_argument("-n", type=_int_arg, required=True)
    p.add_argument("--close", action="store_true", help="close the input downward")

    p = cmd("sigma2color", _cmd_sigma2color, "pair coloring from shortest long strings")
    p.add_argument("--sigma", required=True)
    p.add_argument("-n", type=_int_arg, required=True)

    p = cmd("color2sigma", _cmd_color2sigma, "graded family spelling the columns")
    p.add_argument("--coloring", required=True)

    p = cmd("ce2sigma", _cmd_ce2sigma, "graded family from a staged string enumeration")
    p.add_argument("--stages", required=True)

    p = cmd("pi2sigma1", _cmd_pi2sigma1, "bounded two-quantifier membership test")
    p.add_argument("--phi", required=True, help="matrix over y, z, bit(), len")
    p.add_argument("--tau", required=True, help="binary string ('-' for the root)")
    p.add_argument("--bound", type=_int_arg, required=True)

    p = cmd("yoko", _cmd_yoko, "coloring from a pair of covering matrices")
    p.add_argument("--theta0", required=True, help="matrix over x, m, n")
    p.add_argument("--theta1", required=True, help="matrix over x, m, n")
    p.add_argument("-n", type=_int_arg, required=True)
    p.add_argument("--cap", type=_int_arg, required=True)

    p = cmd("settree", _cmd_settree, "chain of characteristic-string prefixes")
    p.add_argument("--set", required=True)
    p.add_argument("--depth", type=_int_arg, required=True)

    p = cmd("diag", _cmd_diag, "diagonal tree avoiding settled enumerations")
    p.add_argument("--enum", required=True)
    p.add_argument("--depth", type=_int_arg, required=True)

    p = cmd("search", _cmd_search, "largest monochromatic set of a coloring")
    p.add_argument("--coloring", required=True)
    p.add_argument("--min-size", type=_int_arg, default=2)

    p = cmd("path", _cmd_path, "longest branch and its majority positions")
    p.add_argument("--tree", required=True)
    p.add_argument("--close", action="store_true", help="close the input downward")

    p = cmd("stable", _cmd_stable, "per-column stability evidence of a coloring")
    p.add_argument("--coloring", required=True)
    p.add_argument("-x", type=_int_arg, default=None)

    p = cmd("verify", _cmd_verify, "check a coloring's witnesses against its source")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tree")
    src.add_argument("--sigma")
    p.add_argument("--coloring", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--color", type=_int_arg, choices=(0, 1), required=True)
    p.add_argument("--close", action="store_true", help="close a tree input downward")

    p = cmd("dnr", _cmd_dnr, "compare settled enumerations with least elements of h")
    p.add_argument("--enum", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--depth", type=_int_arg, required=True)

    p = cmd("info", _cmd_info, "summarize a data file by extension")
    p.add_argument("file")

    return parser


# The package raises only refusals; OSError covers files.
_INVALID_INPUT = (core.Refusal, OSError)

# Built on first use, then reused: parse_args leaves a parser as it was.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, data = args.func(args)
        if args.output:
            with open(_path(args.output), "w", encoding="utf-8") as file:
                file.write(data)
        else:
            sys.stdout.write(data)
    except _INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
