from __future__ import annotations

import contextlib
import errno
import io
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path, PurePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PI2_TEMPLATES,
    YOKO_TEMPLATES,
    RefFamily,
    bitstrings,
    colorings,
    matrix_texts,
    ref_closure,
    ref_render,
    ref_render_coloring,
    render_enum,
)
from reference import ref_main
from rkl import cli, core, diagonal, formats
from rkl.core import PairColoring

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def fixture(name: str) -> str:
    return str(DATA / name)


GOLDEN_CASES = {
    "close_alt.txt": (0, ["close", "--sigma", fixture("alt.sigma")]),
    "tree2color_fork.txt": (0, ["tree2color", "--tree", fixture("fork.tree"), "-n", "4"]),
    "sigma2color_alt.txt": (0, ["sigma2color", "--sigma", fixture("alt.sigma"), "-n", "6"]),
    "color2sigma_fork.txt": (0, ["color2sigma", "--coloring", fixture("fork.color")]),
    "ce2sigma_stages.txt": (0, ["ce2sigma", "--stages", fixture("stages.stages")]),
    "pi2_true.txt": (0, ["pi2sigma1", "--phi", "z >= y", "--tau", "010", "--bound", "4"]),
    "yoko_parity.txt": (
        0,
        [
            "yoko",
            "--theta0", "x mod 2 = 0 and n >= m",
            "--theta1", "x mod 2 = 1 and n >= m",
            "-n", "5",
            "--cap", "64",
        ],
    ),
    "settree_evens.txt": (0, ["settree", "--set", fixture("evens.set"), "--depth", "8"]),
    "diag_w8.txt": (0, ["diag", "--enum", fixture("w.enum"), "--depth", "8"]),
    "search_fork.txt": (0, ["search", "--coloring", fixture("fork.color")]),
    "path_fork.txt": (0, ["path", "--tree", fixture("fork.tree")]),
    "stable_fork.txt": (0, ["stable", "--coloring", fixture("fork.color")]),
    "verify_fork.txt": (
        0,
        [
            "verify",
            "--tree", fixture("fork.tree"),
            "--coloring", fixture("fork.color"),
            "--set", fixture("h4.set"),
            "--color", "0",
        ],
    ),
    "verify_alt.txt": (
        0,
        [
            "verify",
            "--sigma", fixture("alt.sigma"),
            "--coloring", fixture("alt.color"),
            "--set", fixture("h16.set"),
            "--color", "0",
        ],
    ),
    "verify_broken.txt": (
        1,
        [
            "verify",
            "--tree", fixture("fork.tree"),
            "--coloring", fixture("fork.color"),
            "--set", fixture("h014.set"),
            "--color", "0",
        ],
    ),
    "verify_mut.txt": (
        1,
        [
            "verify",
            "--tree", fixture("fork.tree"),
            "--coloring", fixture("fork_mut.color"),
            "--set", fixture("h014.set"),
            "--color", "1",
        ],
    ),
    "dnr_w3.txt": (
        0,
        ["dnr", "--enum", fixture("w.enum"), "--set", fixture("h034.set"), "--depth", "3"],
    ),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_golden_file(self, name, capsys):
        want_code, argv = GOLDEN_CASES[name]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == want_code
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_two_runs_are_byte_identical(self, name, capsys):
        _, argv = GOLDEN_CASES[name]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_rewrites_a_longer_file_with_the_golden_bytes(self, name, tmp_path, capsys):
        want_code, argv = GOLDEN_CASES[name]
        target = tmp_path / "out"
        target.write_bytes(b"junk\n" * 2000)
        assert cli.main(argv + ["-o", str(target)]) == want_code
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_crlf_inputs_read_as_their_lf_twins(self, name, tmp_path, capsys):
        want_code, argv = GOLDEN_CASES[name]
        twins = []
        for word in argv:
            if word.startswith(str(DATA)):
                twin = tmp_path / Path(word).name
                twin.write_bytes(Path(word).read_bytes().replace(b"\n", b"\r\n"))
                word = str(twin)
            twins.append(word)
        assert cli.main(twins) == want_code
        assert capsys.readouterr().out == (GOLDEN / name).read_text()


CLOSE_ALT = ["close", "--sigma", fixture("alt.sigma")]


class TestOutputFile:
    def test_output_flag_writes_file_and_not_stdout(self, tmp_path, capsys):
        target = tmp_path / "out.tree"
        code = cli.main(
            ["close", "--sigma", fixture("alt.sigma"), "-o", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == (GOLDEN / "close_alt.txt").read_text()

    def test_trailing_slash_is_refused(self, tmp_path, capsys):
        target = f"{tmp_path / 'out.txt'}/"
        assert cli.main(["close", "--sigma", fixture("alt.sigma"), "-o", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno {errno.EISDIR}] Is a directory: {target!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [40, -5, 0], ids=["longer", "shorter", "equal"])
    def test_existing_file_holds_exactly_the_output(self, extra, tmp_path):
        want = (GOLDEN / "close_alt.txt").read_bytes()
        target = tmp_path / "out.tree"
        target.write_bytes(b"x" * (len(want) + extra))
        assert cli.main(CLOSE_ALT + ["-o", str(target)]) == 0
        assert target.read_bytes() == want

    def test_existing_file_keeps_inode_mode_and_links(self, tmp_path):
        target, link, sym = (tmp_path / name for name in ("out.tree", "link.tree", "sym.tree"))
        target.write_bytes(b"old\n" * 100)
        target.chmod(0o600)
        os.link(target, link)
        sym.symlink_to(target)
        before = target.stat()
        assert cli.main(CLOSE_ALT + ["-o", str(sym)]) == 0
        after = target.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode), after.st_nlink) == (
            before.st_ino, 0o600, 2)
        assert sym.is_symlink()
        assert link.read_bytes() == (GOLDEN / "close_alt.txt").read_bytes()

    def test_new_file_mode_is_0o666_less_the_umask(self, tmp_path):
        target = tmp_path / "out.tree"
        old = os.umask(0o027)
        try:
            assert cli.main(CLOSE_ALT + ["-o", str(target)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_bytes() == (GOLDEN / "close_alt.txt").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null(self, capsys):
        assert cli.main(CLOSE_ALT + ["-o", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_receives_the_bytes(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert cli.main(CLOSE_ALT + ["-o", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [(GOLDEN / "close_alt.txt").read_bytes()]

    def test_empty_path_is_refused(self, capsys):
        assert cli.main(CLOSE_ALT + ["-o", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''\n"

    def test_written_output_parses_back(self, tmp_path):
        from rkl.formats import parse_coloring

        target = tmp_path / "f.color"
        cli.main(["tree2color", "--tree", fixture("fork.tree"), "-n", "4", "-o", str(target)])
        f = parse_coloring(target.read_text())
        assert f.n == 4


class TestInfo:
    @pytest.mark.parametrize(
        "name, line",
        [
            ("fork.tree", "kind=tree members=8 horizon=4"),
            ("alt.sigma", "kind=sigma members=6 max_len=6 graded=true"),
            ("fork.color", "kind=coloring n=4 pairs=10"),
            ("w.enum", "kind=enum events=3 k=1 max_stage=3"),
            ("late.enum", "kind=enum events=2 k=3 max_stage=7"),
            ("comments.enum", "kind=enum events=0 k=0 max_stage=0"),
            ("evens.set", "kind=set size=4 min=0 max=6"),
            ("stages.stages", "kind=stages stages=3 max_stage=3"),
        ],
    )
    def test_summaries(self, name, line, capsys):
        assert cli.main(["info", fixture(name)]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_unknown_extension(self, tmp_path, capsys):
        weird = tmp_path / "x.unknown"
        weird.write_text("")
        assert cli.main(["info", str(weird)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("name", ["x.", ".tree", "a..tree", "a.b.set", "noext", "d.tree/noext"])
    def test_extension_is_read_as_pathlib_reads_it(self, name, tmp_path, capsys):
        suffix = PurePath(name).suffix
        target = tmp_path / name
        target.parent.mkdir(exist_ok=True)
        target.write_text("0\n")  # a tree and a set
        code = cli.main(["info", str(target)])
        err = capsys.readouterr().err
        if suffix in (".tree", ".set"):
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: unrecognized extension {suffix!r}\n")

    @pytest.mark.parametrize("name", ["cr.set", "cr.sigma", "cr.color", "cr.enum", "cr.stages"])
    def test_carriage_return_inside_a_line_is_refused_on_its_line(self, name, tmp_path, capsys):
        target = tmp_path / name
        target.write_bytes(b"# a comment\n1\r2\n")
        assert cli.main(["info", str(target)]) == 2
        assert capsys.readouterr() == ("", "error: line 2: control character '\\r'\n")

    @pytest.mark.parametrize(
        "path, code",
        [(fixture("fork.tree") + "/", errno.ENOTDIR), ("", errno.ENOENT)],
        ids=["trailing slash", "empty"],
    )
    def test_path_is_opened_as_written(self, path, code, capsys):
        assert cli.main(["info", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n"


class TestExitCodes:
    def test_missing_file_is_invalid_input(self, capsys):
        assert cli.main(["close", "--sigma", "no/such/file.sigma"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unclosed_tree_rejected_without_close_flag(self, capsys):
        argv = ["path", "--tree", fixture("notclosed.tree")]
        assert cli.main(argv) == 2
        capsys.readouterr()
        assert cli.main(argv + ["--close"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# path: 01"

    def test_unclosed_tree_error_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tree"
        bad.write_text("-\n0\n00\n11\n")
        assert cli.main(["path", "--tree", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 4: '11' is a member but its prefix '1' is not\n"

    def test_level_empty_is_invalid_input(self, capsys):
        assert cli.main(["tree2color", "--tree", fixture("fork.tree"), "-n", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_predicate_text(self, capsys):
        code = cli.main(["pi2sigma1", "--phi", "z >=", "--tau", "0", "--bound", "1"])
        assert code == 2
        assert "expected" in capsys.readouterr().err

    def test_unbound_variable_in_predicate(self, capsys):
        code = cli.main(["pi2sigma1", "--phi", "x = 0", "--tau", "0", "--bound", "1"])
        assert code == 2
        assert "unbound" in capsys.readouterr().err

    def test_cap_exceeded(self, capsys):
        code = cli.main(
            ["yoko", "--theta0", "0 = 1", "--theta1", "0 = 1", "-n", "2", "--cap", "5"]
        )
        assert code == 2
        assert "covers" in capsys.readouterr().err

    def test_bad_stage_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.stages"
        bad.write_text("1 11\n")
        assert cli.main(["ce2sigma", "--stages", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1\n# again\n1 0\n", "error: line 3: stage 1 is listed twice\n"),
            ("1 1\n2 011\n", "error: line 2: stage 2 holds '011', longer than 2\n"),
            ("1 1\n3 000\n", "error: stage 2 is missing\n"),
        ],
        ids=["repeated", "too long", "missing"],
    )
    def test_stage_errors_name_the_fault(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.stages"
        bad.write_text(text)
        assert cli.main(["ce2sigma", "--stages", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_malformed_coloring(self, tmp_path, capsys):
        bad = tmp_path / "bad.color"
        bad.write_text("n 2\n0 1 1\n")
        assert cli.main(["search", "--coloring", str(bad)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_dnr_not_homogeneous_fails_verification(self, capsys):
        code = cli.main(
            ["dnr", "--enum", fixture("w.enum"), "--set", fixture("h012.set"), "--depth", "3"]
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "not homogeneous for any path at the tree horizon\nverdict: fail\n"
        )

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.tree"
        code = cli.main(["close", "--sigma", fixture("alt.sigma"), "-o", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["close", "--sigma", "a\x00b"],
            ["close", "--sigma", fixture("alt.sigma"), "-o", "a\x00b"],
        ],
        ids=["read", "write"],
    )
    def test_nul_byte_in_path(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: path 'a\\x00b' holds a NUL byte\n")

    def test_non_ascii_digit_in_set_file(self, tmp_path, capsys):
        bad = tmp_path / "h.set"
        bad.write_text("1\n\u0663\n", encoding="utf-8")
        assert cli.main(["info", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 2: non-ASCII character '\u0663'\n"

    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert capsys.readouterr() == (
            "", "error: unknown subcommand 'frobnicate'; rkl --help lists them\n"
        )

    def test_no_global_seed_flag(self, capsys):
        _, argv = GOLDEN_CASES["search_fork.txt"]
        assert cli.main(["--seed", "7"] + argv) == 2
        assert capsys.readouterr() == (
            "", "error: unknown subcommand '--seed'; rkl --help lists them\n"
        )

    def test_search_none_result(self, tmp_path, capsys):
        small = tmp_path / "one.color"
        small.write_text("n 1\n0 1 0\n")
        assert cli.main(["search", "--coloring", str(small), "--min-size", "3"]) == 0
        assert capsys.readouterr().out == "# none\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["dnr", "--enum", fixture("w.enum"), "--set", fixture("h4.set"), "--depth", "3"],
                "error: index e=0 needs 3 elements of the set h, which has 1\n",
            ),
            (
                ["diag", "--enum", fixture("w.enum"), "--depth", "0"],
                "error: depth must be at least 1\n",
            ),
        ],
        ids=["dnr set too small", "diag depth zero"],
    )
    def test_refusal_names_what_it_refers_to(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.sigma"
        bad.write_bytes(b"01\n\xff\n")
        assert cli.main(["close", "--sigma", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 3: invalid start byte\n"
        )


class TestIntegerFlags:
    """Integer flags take an optional '-' and ASCII digits, as the file formats do."""

    @pytest.mark.parametrize("value", ["\uff13", "1_0", "+4", " 5", "4 ", "-", ""])
    def test_other_spellings_exit_two(self, value, capsys):
        assert cli.main(["settree", "--set", fixture("evens.set"), "--depth", value]) == 2
        assert capsys.readouterr() == ("", f"error: --depth: not a natural number: {value!r}\n")

    def test_full_width_color_exits_two(self, capsys):
        _, argv = GOLDEN_CASES["verify_fork.txt"]
        assert cli.main(argv[:-1] + ["\uff10"]) == 2
        assert capsys.readouterr() == ("", "error: --color: not a natural number: '\uff10'\n")

    @pytest.mark.parametrize("value", ["2", "-1"])
    def test_color_other_than_0_or_1_exits_two(self, value, capsys):
        _, argv = GOLDEN_CASES["verify_fork.txt"]
        assert cli.main(argv[:-1] + [value]) == 2
        assert capsys.readouterr() == ("", f"error: --color: a color is 0 or 1, not {value}\n")

    def test_at_most_max_digits(self, capsys):
        argv = ["search", "--coloring", fixture("fork.color"), "--min-size"]
        assert cli.main(argv + ["9" * core.MAX_DIGITS]) == 0
        assert capsys.readouterr().out == "# none\n"
        assert cli.main(argv + ["9" * (core.MAX_DIGITS + 1)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --min-size: number longer than {core.MAX_DIGITS} digits\n"
        )


class TestRootOnlyTree:
    @pytest.mark.parametrize(
        "text", ["-\n", "", "# no members\n"], ids=["root", "empty", "comment only"]
    )
    def test_path_is_the_root(self, text, tmp_path, capsys):
        tree = tmp_path / "root.tree"
        tree.write_text(text)
        assert cli.main(["info", str(tree)]) == 0
        assert capsys.readouterr().out == "kind=tree members=1 horizon=0\n"
        assert cli.main(["path", "--tree", str(tree)]) == 0
        assert capsys.readouterr().out == "# path: -\n# color: 0\n"


# Each command that takes --close, with its options after --tree F, and the
# files it reads there: string lists closed or not, empty, and one refused.
CLOSE_COMMANDS = {
    "tree2color": ["-n", "4"],
    "path": [],
    "verify": [
        "--coloring", fixture("alt.color"), "--set", fixture("h16.set"), "--color", "0"
    ],
}
CLOSE_SOURCES = {
    "alt": (DATA / "alt.sigma").read_text(),
    "notclosed": (DATA / "notclosed.tree").read_text(),
    "fork": (DATA / "fork.tree").read_text(),
    "two leaves": "01\n10\n",
    "empty": "",
    "duplicate": "0\n0\n",
}


class TestCloseFlag:
    """--tree F --close reads F as close --sigma F closes it."""

    @pytest.mark.parametrize("command", sorted(CLOSE_COMMANDS))
    @pytest.mark.parametrize("source", sorted(CLOSE_SOURCES))
    def test_same_as_close_first(self, command, source, tmp_path, capsys):
        listed, closed = tmp_path / "listed.tree", tmp_path / "closed.tree"
        listed.write_text(CLOSE_SOURCES[source])
        options = CLOSE_COMMANDS[command]
        code = cli.main([command, "--tree", str(listed), "--close", *options])
        flagged = code, *capsys.readouterr()
        closing = cli.main(["close", "--sigma", str(listed), "-o", str(closed)])
        if closing == 0:
            code = cli.main([command, "--tree", str(closed), *options])
            assert flagged == (code, *capsys.readouterr())
        else:
            assert flagged == (closing, *capsys.readouterr())


class TestVerifyLines:
    def test_path_witness_none(self, tmp_path, capsys):
        # The closure of 01 and 10 has no member of length 2 that is
        # constant on h = {0, 1}, though the coloring is.
        sigma, tree, color, h = (
            str(tmp_path / name) for name in ("w.sigma", "w.tree", "w.color", "h.set")
        )
        Path(sigma).write_text("01\n10\n")
        Path(h).write_text("0\n1\n")
        assert cli.main(["close", "--sigma", sigma, "-o", tree]) == 0
        assert cli.main(["tree2color", "--tree", tree, "-n", "2", "-o", color]) == 0
        for source in (["--tree", tree], ["--sigma", sigma]):
            code = cli.main(["verify", *source, "--coloring", color, "--set", h, "--color", "0"])
            assert code == 0
            assert capsys.readouterr().out == (
                "coloring-homogeneity: ok\n"
                "witness-checks: ok (y = 1)\n"
                "path-witness: none\n"
                "verdict: ok\n"
            )

    @pytest.mark.parametrize("sigma, h, coloring, color, lines", [
        # The empty family closes to the root alone, which is constant on h.
        ("", "0\n", "n 1\n0 1 0\n", "0",
         "witness-checks: ok (y = none)\npath-witness: color=0 sigma=-\n"),
        ("-\n", "0\n", "n 1\n0 1 1\n", "1",
         "witness-checks: ok (y = none)\npath-witness: color=0 sigma=-\n"),
        # The longest level holds 011, 101 and 110: color 0 has no witness,
        # and 101 is the least for color 1.
        ("11\n011\n101\n110\n", "0\n2\n", "n 2\n0 1 0\n0 2 1\n1 2 0\n", "1",
         "witness-checks: ok (y = 2)\npath-witness: color=1 sigma=101\n"),
    ], ids=["empty family", "root only", "longest level of three"])
    def test_family_path_witness(self, sigma, h, coloring, color, lines, tmp_path, capsys):
        files = {"--sigma": sigma, "--set": h, "--coloring": coloring}
        argv = ["verify", "--color", color]
        for flag, text in files.items():
            path = tmp_path / flag.strip("-")
            path.write_text(text)
            argv += [flag, str(path)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == f"coloring-homogeneity: ok\n{lines}verdict: ok\n"

    def test_close_refused_for_a_family(self, capsys):
        _, argv = GOLDEN_CASES["verify_alt.txt"]
        assert cli.main(argv + ["--close"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --close applies only to a --tree source\n"


DEEP_PREDICATES = {
    "parentheses": "(" * 2000 + "z >= y" + ")" * 2000,
    "sum chain": "z >= " + "+".join(["y"] * 3000),
    "not run": "not " * 3000 + "z >= y",
}


PARSE_TIME_REFUSALS = {
    "numeric matrix": (
        ["pi2sigma1", "--phi", "z", "--tau", "01", "--bound", "3"],
        "error: --phi: at offset 0: expected a comparison, found an arithmetic value\n",
    ),
    "bit in yoko": (
        ["yoko", "--theta0", "bit(0) = 1", "--theta1", "n >= m", "-n", "3", "--cap", "4"],
        "error: --theta0: at offset 0: unbound: bit\n",
    ),
    "x in pi2sigma1": (
        ["pi2sigma1", "--phi", "x = 0", "--tau", "0", "--bound", "1"],
        "error: --phi: at offset 0: unbound: x\n",
    ),
    "y in yoko's second matrix": (
        ["yoko", "--theta0", "n >= m", "--theta1", "n >= m + y", "-n", "3", "--cap", "4"],
        "error: --theta1: at offset 9: unbound: y\n",
    ),
    # The same matrices swapped: only the flag tells the two refusals apart.
    "y in yoko's first matrix": (
        ["yoko", "--theta0", "n >= m + y", "--theta1", "n >= m", "-n", "3", "--cap", "4"],
        "error: --theta0: at offset 9: unbound: y\n",
    ),
    "both matrices bad": (
        ["yoko", "--theta0", "n >= y", "--theta1", "n >= len", "-n", "3", "--cap", "4"],
        "error: --theta0: at offset 5: unbound: y\n",
    ),
    "len after a bound name": (
        ["yoko", "--theta0", "n >= len", "--theta1", "n >= m", "-n", "3", "--cap", "4"],
        "error: --theta0: at offset 5: unbound: len\n",
    ),
    "matrix refused before the string": (
        ["pi2sigma1", "--phi", "x = 0", "--tau", "012", "--bound", "1"],
        "error: --phi: at offset 0: unbound: x\n",
    ),
    # Offsets count characters: x is character 10 but byte 12, after the ≥.
    "character offset past a non-ASCII operator": (
        ["pi2sigma1", "--phi", "z ≥ y and x = 1", "--tau", "01", "--bound", "3"],
        "error: --phi: at offset 10: unbound: x\n",
    ),
}


NOT_BINARY_TAUS = {
    # The bound is bad too: the string is refused first, as an argument.
    "digit 2": (["--tau", "012", "--bound", "0"], "error: --tau: not a binary string: '012'\n"),
    "space": (["--tau", "0 1", "--bound", "4"], "error: --tau: not a binary string: '0 1'\n"),
    "empty marker": (["--tau", "ε", "--bound", "4"], "error: --tau: not a binary string: 'ε'\n"),
}


class TestNotBinaryTau:
    @pytest.mark.parametrize("name", sorted(NOT_BINARY_TAUS))
    def test_refused_with_its_text(self, name, capsys):
        args, message = NOT_BINARY_TAUS[name]
        assert cli.main(["pi2sigma1", "--phi", "z >= y", *args]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    @pytest.mark.parametrize("tau", ["-", ""])
    def test_dash_and_empty_are_the_root(self, tau, capsys):
        assert cli.main(["pi2sigma1", "--phi", "z >= y", "--tau", tau, "--bound", "1"]) == 0
        assert capsys.readouterr().out == "true\n"


class TestParseTimeRefusals:
    @pytest.mark.parametrize("name", sorted(PARSE_TIME_REFUSALS))
    def test_refused_with_offset(self, name, capsys):
        argv, message = PARSE_TIME_REFUSALS[name]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_settree_refuses_negative_depth(self, capsys):
        argv = ["settree", "--set", fixture("evens.set"), "--depth", "-3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: depth must be a natural number\n"

    def test_settree_depth_zero_is_the_root(self, capsys):
        assert cli.main(["settree", "--set", fixture("evens.set"), "--depth", "0"]) == 0
        assert capsys.readouterr().out == "-\n"


OVERLONG = "9" * 5000


class TestOverlongNumbers:
    @pytest.mark.parametrize(
        "files, argv, message",
        [
            (
                {},
                ["pi2sigma1", "--phi", f"z >= {OVERLONG}", "--tau", "01", "--bound", "3"],
                "error: --phi: at offset 5: expected a number of at most 4300 digits, found 5000 digits\n",
            ),
            (
                {"a.set": f"{OVERLONG}\n"},
                ["settree", "--set", "a.set", "--depth", "3"],
                "error: line 1: number longer than 4300 digits\n",
            ),
            (
                {"c.color": f"n {OVERLONG}\n"},
                ["info", "c.color"],
                "error: line 1: number longer than 4300 digits\n",
            ),
        ],
        ids=["predicate literal", "set line", "coloring header"],
    )
    def test_refused_with_location(self, files, argv, message, tmp_path, capsys):
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


class TestDeepPredicates:
    @pytest.mark.parametrize("name", sorted(DEEP_PREDICATES))
    def test_refused_with_one_error_line(self, name, capsys):
        argv = ["pi2sigma1", "--phi", DEEP_PREDICATES[name], "--tau", "01", "--bound", "4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --phi: at offset ")
        assert "levels of nesting" in captured.err and captured.err.count("\n") == 1

    def test_no_traceback_from_a_fresh_process(self):
        phi = DEEP_PREDICATES["parentheses"]
        result = subprocess.run(
            [sys.executable, "-m", "rkl.cli", "pi2sigma1", "--phi", phi, "--tau", "-",
             "--bound", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: --phi: at offset ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


class TestParserReuse:
    def test_identical_results_after_command_line_errors(self, capsys):
        stable = ["stable", "--coloring", fixture("fork.color")]
        expected = (GOLDEN / "stable_fork.txt").read_text(encoding="utf-8")
        bad_calls = [
            ["frobnicate"],
            ["yoko", "--theta0", "x = 0"],
            ["search", "--coloring", fixture("fork.color"), "--min-size", "two"],
            stable + ["-x", "one"],
            stable + ["-x", "1", "-x", "2"],
            stable + ["-x"],
        ]
        for bad in bad_calls:
            assert cli.main(bad) == 2
            first = capsys.readouterr()
            assert first.out == "" and first.err.startswith("error: ")
            assert first.err.count("\n") == 1
            assert cli.main(bad) == 2
            assert capsys.readouterr() == first
            # A flag given to one call must not leak into the next.
            assert cli.main(stable + ["-x", "1"]) == 0
            capsys.readouterr()
            assert cli.main(stable) == 0
            assert capsys.readouterr().out == expected


class TestDataErrorsBeforeOutput:
    def test_nothing_written_when_second_input_is_bad(self, tmp_path, capsys):
        # verify reads several files; a bad one must leave stdout empty.
        code = cli.main(
            [
                "verify",
                "--tree", fixture("fork.tree"),
                "--coloring", fixture("fork.color"),
                "--set", fixture("fork.tree"),
                "--color", "0",
            ]
        )
        assert code == 2
        assert capsys.readouterr().out == ""


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "rkl.cli", "info", fixture("fork.tree")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "kind=tree members=8 horizon=4\n"

    def test_import_loads_no_argparse_re_enum_gettext_typing_pathlib_dataclasses_inspect_or_ast(
        self, tmp_path
    ):
        # Every command is a fresh process that pays for what the import loads.
        # -S keeps site's own imports (which may load typing or pathlib) out.
        code = ("import sys; before = set(sys.modules); import rkl.cli; "
                "print(*sorted(set(sys.modules) - before))")
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        added = set(result.stdout.split())
        assert result.returncode == 0 and "rkl.cli" in added
        assert not added & {
            "argparse", "re", "enum", "gettext",
            "typing", "pathlib", "dataclasses", "inspect", "ast",
        }


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_table() -> list[tuple[str, str]]:
    """(usage, what it does) for each row of the README's Command line table."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    table = next(chunk for chunk in section.split("\n\n") if chunk.startswith("| subcommand"))
    rows = []
    for row in table.splitlines()[2:]:
        usage, what = row.removeprefix("| `").removesuffix(" |").split("` | ")
        rows.append((usage.replace("\\|", "|"), what))
    return rows


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"], ["verify", "-h"], ["info", "--help"],
         ["close", "--sigma", "x", "-o", "y", "--help"]],
    )
    def test_prints_the_table_and_exits_zero(self, argv, capsys):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: rkl ")
        assert cli.main(["-h"]) == 0
        assert capsys.readouterr().out == out

    def test_lists_the_readme_command_table(self, capsys):
        assert cli.main(["--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = [
            (line.strip(), lines[i + 1].strip())
            for i, line in enumerate(lines)
            if line.startswith("  ") and not line.startswith("   ")
        ]
        assert listed == readme_command_table()
        assert [usage.split()[0] for usage, _ in listed] == list(cli._COMMANDS)

    def test_a_value_is_never_help(self, capsys):
        argv = ["pi2sigma1", "--phi", "-h", "--tau", "0", "--bound", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""


COMMAND_LINE_REFUSALS = {
    "no subcommand": ([], "missing subcommand; rkl --help lists them"),
    "flag before the subcommand": (
        ["-o", "x", "close"], "unknown subcommand '-o'; rkl --help lists them"
    ),
    "required flag missing": (["tree2color", "-n", "3"], "tree2color needs --tree"),
    "operand missing": (["info"], "info needs FILE"),
    "second operand": (["info", "a.tree", "b.tree"], "unknown argument 'b.tree' for info"),
    "abbreviated flag": (["search", "--coloring", "c", "--min", "3"],
                         "unknown argument '--min' for search"),
    "flag=value": (["search", "--coloring=c"], "unknown argument '--coloring=c' for search"),
    "attached short value": (["tree2color", "--tree", "t", "-n3"],
                             "unknown argument '-n3' for tree2color"),
    "a flag of another subcommand": (["close", "--sigma", "s", "--close"],
                                     "unknown argument '--close' for close"),
    "repeated flag": (["close", "--sigma", "a", "--sigma", "b"], "--sigma given twice"),
    "repeated switch": (["path", "--tree", "t", "--close", "--close"], "--close given twice"),
    "-o and --output": (["close", "--sigma", "a", "-o", "x", "--output", "y"],
                        "--output given twice"),
    "no value": (["close", "--sigma"], "--sigma needs a value"),
    "-o with no value": (["close", "--sigma", "a", "-o"], "-o needs a value"),
    "both sources": (
        ["verify", "--tree", "t", "--sigma", "s", "--coloring", "c", "--set", "h", "--color", "0"],
        "verify needs exactly one of --tree and --sigma",
    ),
    "no source": (["verify", "--coloring", "c", "--set", "h", "--color", "0"],
                  "verify needs exactly one of --tree and --sigma"),
}


class TestCommandLine:
    """A malformed command line is refused like a bad file: exit 2, one
    error line, no output and no file written."""

    @pytest.mark.parametrize("name", sorted(COMMAND_LINE_REFUSALS))
    def test_refused_with_one_error_line(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv, message = COMMAND_LINE_REFUSALS[name]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_flags_in_any_order_and_values_verbatim(self, capsys):
        _, argv = GOLDEN_CASES["verify_fork.txt"]
        assert cli.main([argv[0], *argv[3:], *argv[1:3]]) == 0
        assert capsys.readouterr().out == (GOLDEN / "verify_fork.txt").read_text()
        assert cli.main(["pi2sigma1", "--tau", "-", "--phi", "z >= y", "--bound", "1"]) == 0
        assert capsys.readouterr().out == "true\n"

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class TestDemoScripts:
    """Each demo, run with its default arguments from outside the checkout
    and with no PYTHONPATH, prints exactly its golden bytes."""

    @pytest.mark.parametrize("name", ["tree_pipeline", "diagonal_walkthrough"])
    def test_prints_its_golden(self, name, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / f"{name}.py")],
            capture_output=True, cwd=tmp_path, env=env,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (GOLDEN / f"demo_{name}.txt").read_bytes()

    @pytest.mark.parametrize("name, args", [
        ("diagonal_walkthrough", ["--depth", "0"]),
        ("tree_pipeline", ["--n", "-1"]),
        ("tree_pipeline", ["--min-size", "1"]),
    ])
    def test_refuses_out_of_range_arguments(self, name, args, tmp_path):
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / f"{name}.py"), *args],
            capture_output=True, cwd=tmp_path,
        )
        assert (result.returncode, result.stdout) == (2, b"")
        assert f"error: {args[0]} must be at least".encode() in result.stderr
        assert b"Traceback" not in result.stderr


# -- fuzz: every subcommand on generated, mutated and undecodable files -------

FUZZ_FLAG = st.integers(-2, 8).map(str)
# Mostly matrices each command binds, then some it refuses.
FUZZ_PI2 = st.sampled_from([
    "z >= y", "bit(y) + z >= y or len = 1", "z * 2 >= y + bit(y)", "0 = 0", "z >=", "x = 0",
])
FUZZ_YOKO = st.sampled_from([
    "x mod 2 = 0 and n >= m", "n >= m + x", "n > m and x < 3", "0 = 0", "0 = 1",
    "(n >= m", "bit(1) = 1", "len + 1",
])
FUZZ_TAUS = st.one_of(st.sampled_from(["-", "", "01a", "ε"]), st.text("01", max_size=8))

# Per subcommand, its options in order: a file kind, a strategy for the
# value, or None for a switch that is drawn on or off.  verify's "source" is
# --tree or --sigma with its file; info's "" is a positional file of a drawn
# kind, where "txt" is an extension info does not know.
FUZZ_ARGS = {
    "close": [("--sigma", "sigma")],
    "tree2color": [("--tree", "tree"), ("-n", FUZZ_FLAG), ("--close", None)],
    "sigma2color": [("--sigma", "sigma"), ("-n", FUZZ_FLAG)],
    "color2sigma": [("--coloring", "color")],
    "ce2sigma": [("--stages", "stages")],
    "pi2sigma1": [("--phi", FUZZ_PI2), ("--tau", FUZZ_TAUS), ("--bound", FUZZ_FLAG)],
    "yoko": [
        ("--theta0", FUZZ_YOKO), ("--theta1", FUZZ_YOKO),
        ("-n", FUZZ_FLAG), ("--cap", FUZZ_FLAG),
    ],
    "settree": [("--set", "set"), ("--depth", FUZZ_FLAG)],
    "diag": [("--enum", "enum"), ("--depth", FUZZ_FLAG)],
    "search": [("--coloring", "color"), ("--min-size", FUZZ_FLAG)],
    "path": [("--tree", "tree"), ("--close", None)],
    "stable": [("--coloring", "color"), ("-x", st.one_of(st.none(), FUZZ_FLAG))],
    "verify": [
        ("source", None), ("--coloring", "color"), ("--set", "set"),
        ("--color", st.sampled_from(["0", "1"])), ("--close", None),
    ],
    "dnr": [("--enum", "enum"), ("--set", "set"), ("--depth", FUZZ_FLAG)],
    "info": [("", st.sampled_from(["tree", "sigma", "color", "enum", "set", "stages", "txt"]))],
}

_small_bits = st.text("01", max_size=5)
FUZZ_VALID = {
    "tree": st.lists(_small_bits, max_size=6).map(
        lambda ss: formats.render_tree(core.downward_closure(ss))
    ),
    "sigma": st.lists(_small_bits, max_size=6).map(
        lambda ss: formats.render_sigma(core.StringFamily(ss))
    ),
    "color": colorings(max_n=5).map(formats.render_coloring),
    # One event per (e, x), as the format requires.
    "enum": st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 8)), st.integers(1, 6), max_size=8
    ).map(
        lambda stages: render_enum(
            diagonal.StagedEnum([(e, s, x) for (e, x), s in stages.items()])
        )
    ),
    "set": st.frozensets(st.integers(0, 8), max_size=6).map(
        lambda h: formats.render_natset(core.NatSet.of(h))
    ),
    "stages": st.lists(_small_bits, max_size=5).map(
        lambda taus: "".join(f"{s} {tau[:s] or '-'}\n" for s, tau in enumerate(taus, start=1))
    ),
}
FUZZ_BYTES = [b"0", b"1", b"2", b"9", b"-", b"#", b" ", b"\t", b"\n", b"x", b"\x00", "٣".encode()]
FUZZ_LINES = [b"", b"# c", b"n 2", b"0 1 1", b"1 0", b"- -", b"01 10", b"3 3 3", b"99999"]


@st.composite
def fuzz_file(draw, kind: str) -> bytes | None:
    """A valid file of the kind, or one mutated by a byte, a line, CRLF line
    ends or an undecodable byte; None for a file that does not exist."""
    data = draw(FUZZ_VALID[kind]).encode()
    # Valid files are weighted up so that multi-file commands also get past
    # parsing and reach their verdicts.
    how = draw(st.sampled_from(["valid"] * 4 + ["byte", "line", "crlf", "non-utf-8", "missing"]))
    if how == "byte":
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from(FUZZ_BYTES)) + data[i + draw(st.integers(0, 1)):]
    elif how == "line":
        lines = data.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        other = draw(st.sampled_from(FUZZ_LINES))
        lines[i : i + 1] = draw(st.sampled_from([[], [lines[i]] * 2, [other]]))
        data = b"\n".join(lines)
    elif how == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif how == "non-utf-8":
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[i:]
    return None if how == "missing" else data


# The integer flags of FUZZ_ARGS, and spellings of an integer that each refuses.
FUZZ_INT_FLAGS = {"-n", "--bound", "--cap", "--depth", "--min-size", "-x", "--color"}
FUZZ_BAD_INTS = ["1_0", "+4", "\uff13", " 5", "4 ", "-", "", "0x1", "9" * 4301]


@st.composite
def fuzz_invocations(draw, command: str) -> tuple[list[str], dict[str, bytes | None], bool]:
    """argv for the subcommand, the files it names, by name, and whether the
    command line itself was broken (so that it must be refused)."""
    argv, files = [command], {}

    def file(kind: str) -> str:
        data_kind = draw(st.sampled_from(sorted(FUZZ_VALID))) if kind == "txt" else kind
        name = f"f{len(files)}.{kind}"
        files[name] = draw(fuzz_file(data_kind))
        return name

    for option, value in FUZZ_ARGS[command]:
        if option == "source":
            kind = draw(st.sampled_from(["tree", "sigma"]))
            argv += [f"--{kind}", file(kind)]
        elif option == "":
            argv.append(file(draw(value)))
        elif isinstance(value, str):
            argv += [option, file(value)]
        elif value is None:
            argv += [option] if draw(st.booleans()) else []
        elif (drawn := draw(value)) is not None:
            argv += [option, drawn]
    # argv[1:3] is the first option and its value; info's first word is its file.
    first = argv[1:2] if command == "info" else argv[1:3]
    ints = [i + 1 for i, word in enumerate(argv[:-1]) if word in FUZZ_INT_FLAGS]
    breaks = ["empty", "unknown subcommand", "dropped", "unknown flag", "repeated", "dangling"]
    breaks += ["both sources"] * (command == "verify") + ["integer"] * bool(ints)
    how = draw(st.sampled_from(["valid"] * len(breaks) + breaks))
    if how == "empty":
        argv = []
    elif how == "unknown subcommand":
        argv[0] = draw(st.sampled_from([command[:-1], command.upper(), "--seed", "-v"]))
    elif how == "dropped":  # a required flag, or verify's source, or info's file
        del argv[1 : 1 + len(first)]
    elif how == "unknown flag":
        flag = draw(st.sampled_from(["--frobnicate", "--seed", "-v", "--output=x", "-n5"]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    elif how == "repeated":
        argv += first
    elif how == "dangling":
        argv.append(draw(st.sampled_from(["-o", "--output"])))
    elif how == "both sources":
        kind = "sigma" if "--tree" in argv else "tree"
        argv += [f"--{kind}", file(kind)]
    elif how == "integer":
        argv[draw(st.sampled_from(ints))] = draw(st.sampled_from(FUZZ_BAD_INTS))
    return argv, files, how != "valid"


class TestFuzz:
    """No input makes main raise: it exits 0, 1 (a verdict) or 2 with one
    error line and no data, and a broken command line always exits 2."""

    @pytest.mark.parametrize("command", sorted(FUZZ_ARGS))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_exit_codes_and_error_lines(self, command, data, tmp_path_factory):
        argv, files, broken = data.draw(fuzz_invocations(command))
        root = tmp_path_factory.getbasetemp() / "fuzz"
        root.mkdir(exist_ok=True)
        for name, content in files.items():
            (root / name).unlink(missing_ok=True)
            if content is not None:
                (root / name).write_bytes(content)
        argv = [str(root / arg) if arg in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert code == 2 or not broken
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        else:
            assert err == ""
            assert code == 0 or argv[0] in ("verify", "dnr")


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# Matrices each command binds, plus a template of each kind it refuses.
REF_YOKO = matrix_texts([*YOKO_TEMPLATES, "(n >= m", "len + {a} = m"], 4)
REF_PI2 = matrix_texts([*PI2_TEMPLATES, "z >=", "x = {a}"], 3)
REF_TAUS = bitstrings(5) | st.sampled_from(["-", "", "01a"])
REF_ARGVS = st.builds(
    lambda t0, t1, n, cap: ["yoko", "--theta0", t0, "--theta1", t1, "-n", n, "--cap", cap],
    REF_YOKO, REF_YOKO, st.integers(-1, 6).map(str), st.integers(0, 12).map(str),
) | st.builds(
    lambda phi, tau, bound: ["pi2sigma1", "--phi", phi, "--tau", tau, "--bound", bound],
    REF_PI2, REF_TAUS, st.integers(0, 6).map(str),
)


# The commands that read one coloring, each with its other options.
REF_COLORING_COMMANDS = (
    st.integers(-1, 5).map(lambda k: ["search", "--min-size", str(k)])
    | st.one_of(st.none(), st.integers(-1, 9)).map(
        lambda x: ["stable"] + ([] if x is None else ["-x", str(x)])
    )
    | st.just(["color2sigma"])
)


def ref_strings_text(texts) -> str:
    return ref_render(RefFamily(texts))


# Canonical files of each kind, as the reference reads them.
REF_STRINGS = st.frozensets(bitstrings(5), max_size=6)
REF_SETS = st.integers(0, 5).flatmap(
    lambda k: st.frozensets(st.integers(0, 8), min_size=k, max_size=k)
)


# Half the depths reach past every element drawn, where fronts fire.
REF_DEPTHS = st.integers(0, 8) | st.integers(6, 8)


@st.composite
def ref_enums(draw) -> list[tuple[int, int, int]]:
    """(stage, e, x) events, sorted: each index enumerates up to five of
    0..5, each at a stage 1..4, mostly enough for its front to fire."""
    events = []
    for e in range(draw(st.integers(0, 3))):
        k = draw(st.sampled_from([0, 2, 3, 4, 5]))
        for x in draw(st.frozensets(st.integers(0, 5), min_size=k, max_size=k)):
            events.append((draw(st.integers(1, 4)), e, x))
    return sorted(events)


def ref_set_file(h) -> str:
    return "".join(f"{v}\n" for v in sorted(h))


def ref_enum_file(events) -> str:
    return "".join(f"{e} {s} {x}\n" for s, e, x in events)


@st.composite
def ref_tree_files(draw) -> str:
    """Strings, prefix-closed or not; a tree file lists the root or leaves it out."""
    texts = draw(REF_STRINGS)
    return ref_strings_text(ref_closure(texts).texts if draw(st.booleans()) else texts)


@st.composite
def ref_stage_files(draw) -> str:
    """Stages from 1 up, now and then one missing or one string too long."""
    stages = {s: draw(bitstrings(s)) for s in range(1, draw(st.integers(0, 6)) + 1)}
    how = draw(st.sampled_from(["valid"] * 3 + ["gap", "long"]))
    if stages and how == "gap":
        del stages[draw(st.sampled_from(sorted(stages)))]
    elif stages and how == "long":
        s = draw(st.sampled_from(sorted(stages)))
        stages[s] = draw(st.text("01", min_size=s + 1, max_size=s + 2))
    return "".join(f"{s} {tau or '-'}\n" for s, tau in sorted(stages.items()))


@st.composite
def ref_verify_args(draw) -> tuple[list[str], dict[str, str]]:
    """A tree or family, a coloring drawn at random or built from the
    source's columns, a small set and a color."""
    kind = draw(st.sampled_from(["tree", "sigma"]))
    texts = draw(REF_STRINGS)
    if kind == "tree":
        texts = ref_closure(texts).texts
    source = RefFamily(texts)
    n = draw(st.integers(0, source.n))
    if draw(st.booleans()):
        f = PairColoring(n, [source.sigma(y) for y in range(1, n + 1)])
    else:
        f = draw(colorings(max_n=source.n + 1))
    files = {
        f"a.{kind}": ref_strings_text(texts),
        "a.color": ref_render_coloring(f),
        "a.set": ref_set_file(draw(st.frozensets(st.integers(0, 6), max_size=3))),
    }
    argv = ["verify", f"--{kind}", f"a.{kind}", "--coloring", "a.color", "--set", "a.set",
            "--color", draw(st.sampled_from(["0", "1", "00", "2", "-1"]))]
    return argv + (["--close"] if draw(st.booleans()) else []), files


@st.composite
def ref_dnr_args(draw) -> tuple[list[str], dict[str, str]]:
    """Enumerations and a set that is sometimes one index's elements and more."""
    events = draw(ref_enums())
    h = set(draw(REF_SETS))
    if events and draw(st.booleans()):
        e = draw(st.sampled_from(sorted({e for _, e, _ in events})))
        h |= {x for _, e2, x in events if e2 == e}
    files = {"a.enum": ref_enum_file(events), "a.set": ref_set_file(h)}
    depth = str(draw(REF_DEPTHS))
    return ["dnr", "--enum", "a.enum", "--set", "a.set", "--depth", depth], files


REF_CLOSE = st.sampled_from([[], ["--close"]])


# Per subcommand that reads files and is not yet drawn above: (argv, files
# by name), each drawn from the reference's canonical forms.
REF_FILE_ARGVS = {
    "close": st.builds(
        lambda texts: (["close", "--sigma", "a.sigma"], {"a.sigma": ref_strings_text(texts)}),
        REF_STRINGS,
    ),
    "tree2color": st.builds(
        lambda tree, n, close: (["tree2color", "--tree", "a.tree", "-n", n, *close],
                                {"a.tree": tree}),
        ref_tree_files(), st.integers(-1, 6).map(str), REF_CLOSE,
    ),
    "sigma2color": st.builds(
        lambda texts, n: (["sigma2color", "--sigma", "a.sigma", "-n", n],
                          {"a.sigma": ref_strings_text(texts)}),
        REF_STRINGS, st.integers(-1, 6).map(str),
    ),
    "ce2sigma": st.builds(
        lambda stages: (["ce2sigma", "--stages", "a.stages"], {"a.stages": stages}),
        ref_stage_files(),
    ),
    "settree": st.builds(
        lambda h, depth: (["settree", "--set", "a.set", "--depth", depth],
                          {"a.set": ref_set_file(h)}),
        REF_SETS, st.integers(-1, 10).map(str),
    ),
    "diag": st.builds(
        lambda events, depth: (["diag", "--enum", "a.enum", "--depth", depth],
                               {"a.enum": ref_enum_file(events)}),
        ref_enums(), REF_DEPTHS.map(str),
    ),
    "path": st.builds(
        lambda tree, close: (["path", "--tree", "a.tree", *close], {"a.tree": tree}),
        ref_tree_files(), REF_CLOSE,
    ),
    "verify": ref_verify_args(),
    "dnr": ref_dnr_args(),
}


class TestAgainstReference:
    """main gives the exit code and stdout bytes of tests/reference.py."""

    @settings(max_examples=200)
    @given(REF_ARGVS)
    def test_matrix_commands(self, argv):
        assert run_main(argv) == ref_main(argv)

    @settings(max_examples=200)
    @given(f=colorings(max_n=8), command=REF_COLORING_COMMANDS)
    def test_coloring_commands(self, f, command, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "reference.color"
        path.write_text(ref_render_coloring(f), encoding="utf-8")
        argv = [command[0], "--coloring", str(path), *command[1:]]
        assert run_main(argv) == ref_main(argv)

    @pytest.mark.parametrize("command", sorted(REF_FILE_ARGVS))
    @settings(max_examples=80)
    @given(data=st.data())
    def test_file_commands(self, command, data, tmp_path_factory):
        argv, files = data.draw(REF_FILE_ARGVS[command])
        root = tmp_path_factory.getbasetemp() / "reference"
        root.mkdir(exist_ok=True)
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        argv = [str(root / arg) if arg in files else arg for arg in argv]
        assert run_main(argv) == ref_main(argv)


class TestDefectsPropagate:
    def test_plain_value_error_is_not_a_refusal(self, monkeypatch, capsys):
        def broken(text: str) -> None:
            raise ValueError("a defect, not a refusal")

        monkeypatch.setattr(cli.formats, "parse_sigma", broken)
        with pytest.raises(ValueError, match="^a defect, not a refusal$"):
            cli.main(["close", "--sigma", fixture("alt.sigma")])
        assert capsys.readouterr() == ("", "")
