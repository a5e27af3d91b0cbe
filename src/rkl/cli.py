"""Command line front end.

Data goes to stdout (or the -o file), diagnostics to stderr.  Exit codes: 0
on success or a verified check, 1 only when verify's or dnr's verdict reads
fail, 2 on every core.Refusal or OSError, a bad command line included; any
other exception is a defect.  Identical arguments and files give identical bytes.
"""

from __future__ import annotations

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
    """An optional '-' before a natural as the file formats spell one."""
    negative = text[:1] == "-" and text[1:2].isdigit()
    value = formats._parse_nat(text[1:] if negative else text, None)
    return -value if negative else value


def _color_arg(text: str) -> int:
    return core._color(_int_arg(text))


def _named(flag: str, read, text: str, *args):
    """read(text, *args), a refusal's message prefixed with the flag it reads."""
    try:
        return read(text, *args)
    except core.Refusal as exc:
        raise core.Refusal(f"{flag}: {exc}") from None


def _cmd_close(options: dict) -> tuple[int, str]:
    family = formats.parse_sigma(_read(options["--sigma"]))
    return EXIT_OK, formats.render_tree(core.downward_closure(family))


def _cmd_tree2color(options: dict) -> tuple[int, str]:
    t = formats.parse_tree(_read(options["--tree"]), close="--close" in options)
    f = reductions.tree_to_stable_coloring(t, options["-n"])
    return EXIT_OK, formats.render_coloring(f)


def _cmd_sigma2color(options: dict) -> tuple[int, str]:
    family = formats.parse_sigma(_read(options["--sigma"]))
    f = reductions.sigma_to_coloring(family, options["-n"])
    return EXIT_OK, formats.render_coloring(f)


def _cmd_color2sigma(options: dict) -> tuple[int, str]:
    f = formats.parse_coloring(_read(options["--coloring"]))
    return EXIT_OK, formats.render_sigma(reductions.coloring_to_sigma(f))


def _cmd_ce2sigma(options: dict) -> tuple[int, str]:
    family = reductions.ce_tree_to_sigma(formats.parse_stages(_read(options["--stages"])))
    return EXIT_OK, formats.render_sigma(family)


def _cmd_pi2sigma1(options: dict) -> tuple[int, str]:
    matrix = reductions.PredMatrix.from_text
    phi = _named("--phi", matrix, options["--phi"], reductions.PI2_NAMES)
    tau = "" if options["--tau"] == "-" else _named("--tau", core._bits, options["--tau"])
    held = reductions.pi2_tree_to_sigma1(phi, tau, options["--bound"])
    return EXIT_OK, ("true\n" if held else "false\n")


def _cmd_yoko(options: dict) -> tuple[int, str]:
    matrix, names = reductions.PredMatrix.from_text, reductions.YOKO_NAMES
    theta0 = _named("--theta0", matrix, options["--theta0"], names)
    theta1 = _named("--theta1", matrix, options["--theta1"], names)
    f = reductions.yokoyama_coloring(theta0, theta1, options["-n"], options["--cap"])
    return EXIT_OK, formats.render_coloring(f)


def _cmd_settree(options: dict) -> tuple[int, str]:
    h = formats.parse_natset(_read(options["--set"]))
    return EXIT_OK, formats.render_tree(reductions.set_to_path_tree(h, options["--depth"]))


def _cmd_diag(options: dict) -> tuple[int, str]:
    enums = formats.parse_enum(_read(options["--enum"]))
    report = diagonal.build_diagonal_tree(enums, options["--depth"])
    counts = " ".join(str(c) for c in report.level_counts)
    fired = " ".join(f"{e}:{l}" for e, l in sorted(report.triggered)) or "none"
    out = f"# level_counts: {counts}\n# triggered: {fired}\n"
    return EXIT_OK, out + formats.render_tree(report.tree)


def _cmd_search(options: dict) -> tuple[int, str]:
    f = formats.parse_coloring(_read(options["--coloring"]))
    result = oracles.ramsey_search(f, options.get("--min-size", 2))
    if result is None:
        return EXIT_OK, "# none\n"
    c, h = result
    return EXIT_OK, f"# color: {c}\n" + formats.render_natset(h)


def _cmd_path(options: dict) -> tuple[int, str]:
    t = formats.parse_tree(_read(options["--tree"]), close="--close" in options)
    p = oracles.longest_path(t)
    c, h = reductions.path_pigeonhole(p)
    header = f"# path: {p or '-'}\n# color: {c}\n"
    return EXIT_OK, header + formats.render_natset(h)


def _cmd_stable(options: dict) -> tuple[int, str]:
    f = formats.parse_coloring(_read(options["--coloring"]))
    if "-x" in options:
        evidence = [(options["-x"], oracles.check_stable(f, options["-x"]))]
    else:
        evidence = enumerate(oracles.check_all_stable(f))
    lines = [
        f"x={x} stabilized={'true' if ev.stabilized else 'false'} "
        f"last_change={ev.last_change} final_color={ev.final_color}\n"
        for x, ev in evidence
    ]
    return EXIT_OK, "".join(lines)


def _cmd_verify(options: dict) -> tuple[int, str]:
    if "--close" in options and "--tree" not in options:
        raise core.Refusal("--close applies only to a --tree source")
    f = formats.parse_coloring(_read(options["--coloring"]))
    h = formats.parse_natset(_read(options["--set"]))
    if "--tree" in options:
        source: core.FinTree | core.StringFamily = formats.parse_tree(
            _read(options["--tree"]), close="--close" in options
        )
        t = source
    else:
        source = formats.parse_sigma(_read(options["--sigma"]))
        # The closure's horizon level, all is_homog_path reads, is the
        # family's longest level; the empty family closes to the root alone.
        t = source if source.text_levels[-1] else core.FinTree()
    verdict = oracles.verify_reduction(source, f, h, options["--color"])
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
        lines.append(f"path-witness: color={witness.color} sigma={witness.witness or '-'}")
    lines.append("verdict: ok" if verdict.ok else "verdict: fail")
    return (EXIT_OK if verdict.ok else EXIT_FAIL), "".join(l + "\n" for l in lines)


def _cmd_dnr(options: dict) -> tuple[int, str]:
    enums = formats.parse_enum(_read(options["--enum"]))
    h = formats.parse_natset(_read(options["--set"]))
    verdicts = diagonal.check_fpf(h, enums, options["--depth"])
    if verdicts is None:
        return EXIT_FAIL, "not homogeneous for any path at the tree horizon\nverdict: fail\n"
    lines = []
    for v in verdicts:
        line = f"e={v.e} status={v.status} W={v.w_e}"
        if v.g_e is not None:
            line += f" g={v.g_e}"
        if v.distinguishing is not None:
            line += f" differs={v.distinguishing}"
        lines.append(line)
    failed = any(v.status == "equal" for v in verdicts)
    lines.append("verdict: fail" if failed else "verdict: ok")
    return (EXIT_FAIL if failed else EXIT_OK), "".join(l + "\n" for l in lines)


def _cmd_info(options: dict) -> tuple[int, str]:
    text = _read(options["FILE"])
    # As PurePath.suffix: from the name's last dot, unless that starts or ends it.
    name = os.path.basename(options["FILE"])
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
        stages = formats.parse_stages(text)
        return EXIT_OK, f"kind=stages stages={len(stages)} max_stage={max(stages)}\n"
    raise formats.FormatError(None, f"unrecognized extension {suffix!r}")


# Per subcommand: its handler, its usage after the name and what it does.  The
# usage is the grammar: a flag is followed by its value's name unless it is a
# switch, [...] is optional, (a | b) is exactly one of a and b, and a bare name
# is an operand.  Every subcommand also takes -o F.
_COMMANDS = {
    "close": (_cmd_close, "--sigma F", "downward closure of a string family, as a tree"),
    "tree2color": (_cmd_tree2color, "--tree F -n N [--close]",
                   "pair coloring from lex-least tree levels"),
    "sigma2color": (_cmd_sigma2color, "--sigma F -n N",
                    "pair coloring from shortest long strings"),
    "color2sigma": (_cmd_color2sigma, "--coloring F",
                    "graded family spelling the coloring's columns"),
    "ce2sigma": (_cmd_ce2sigma, "--stages F", "graded family from a staged string enumeration"),
    "pi2sigma1": (_cmd_pi2sigma1, "--phi EXPR --tau BITS --bound Z",
                  "bounded two-quantifier membership test"),
    "yoko": (_cmd_yoko, "--theta0 EXPR --theta1 EXPR -n N --cap Z",
             "coloring from a pair of covering matrices"),
    "settree": (_cmd_settree, "--set F --depth L", "chain of characteristic-string prefixes"),
    "diag": (_cmd_diag, "--enum F --depth L", "diagonal tree avoiding settled enumerations"),
    "search": (_cmd_search, "--coloring F [--min-size K]",
               "largest monochromatic set of a coloring"),
    "path": (_cmd_path, "--tree F [--close]", "longest branch and its majority positions"),
    "stable": (_cmd_stable, "--coloring F [-x X]", "per-column stability evidence"),
    "verify": (_cmd_verify, "(--tree F [--close] | --sigma F) --coloring F --set F --color C",
               "check witnesses against the source"),
    "dnr": (_cmd_dnr, "--enum F --set F --depth L",
            "compare settled enumerations with least elements, without building the tree"),
    "info": (_cmd_info, "FILE", "summarize a data file by extension"),
}

_VALUES = {**dict.fromkeys("NZLKX", _int_arg), "C": _color_arg}  # others stay text


def _cmd_help(options: dict) -> tuple[int, str]:
    rows = [f"  {name} {usage}\n      {what}\n" for name, (_, usage, what) in _COMMANDS.items()]
    return EXIT_OK, "usage: rkl SUBCOMMAND [FLAG [VALUE]]... [-o F]\n\n" + "".join(rows)


def _parse(argv: list[str]):
    """(handler, options) for a command line, the options keyed by flag or
    operand as the usage spells them; the help's when it asks for help.  Each
    flag is spelled in full and given at most once, its value the next word."""
    if argv[:1] in (["-h"], ["--help"]):
        return _cmd_help, {}
    if not argv or argv[0] not in _COMMANDS:
        what = f"unknown subcommand {argv[0]!r}" if argv else "missing subcommand"
        raise core.Refusal(f"{what}; rkl --help lists them")
    name, (handler, usage, _) = argv[0], _COMMANDS[argv[0]]
    words = usage.split()
    operand = words[0] if words[0].isupper() else None  # info's FILE
    # Each flag's value name (None for a switch), required flags, flags to give one of.
    flags, required, choice = {"-o": "F"}, [operand] if operand else [], []
    for before, word, after in zip(["", *words], words, [*words[1:], ""]):
        bare = word.strip("[(|)]")
        if bare.startswith("-"):
            flags[bare] = after.strip("[(|)]") if after[:1].isupper() else None
            if word[0] == "(" or before == "|":
                choice.append(bare)
            elif word == bare:
                required.append(bare)
    options, rest = {}, iter(argv[1:])  # a flag takes the next word of rest
    for word in rest:
        flag = "-o" if word == "--output" else word
        if word in ("-h", "--help"):
            return _cmd_help, {}
        if flag not in flags:
            if not operand or operand in options or word.startswith("-"):
                raise core.Refusal(f"unknown argument {word!r} for {name}")
            options[operand] = word
        elif flag in options:
            raise core.Refusal(f"{word} given twice")
        elif flags[flag] is None:
            options[flag] = True
        elif (value := next(rest, None)) is None:
            raise core.Refusal(f"{word} needs a value")
        else:
            options[flag] = _named(word, _VALUES.get(flags[flag], str), value)
    if missing := [flag for flag in required if flag not in options]:
        raise core.Refusal(f"{name} needs {missing[0]}")
    if choice and sum(flag in options for flag in choice) != 1:
        raise core.Refusal(f"{name} needs exactly one of {' and '.join(choice)}")
    return handler, options


# The package raises only refusals; OSError covers files.
_INVALID_INPUT = (core.Refusal, OSError)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, options = _parse(sys.argv[1:] if argv is None else argv)
        code, data = handler(options)
        if options.get("-o"):
            with open(_path(options["-o"]), "w", encoding="utf-8") as file:
                file.write(data)
        else:
            sys.stdout.write(data)
    except _INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
