from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from rkl import cli

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


class TestOutputFile:
    def test_output_flag_writes_file_and_not_stdout(self, tmp_path, capsys):
        target = tmp_path / "out.tree"
        code = cli.main(
            ["close", "--sigma", fixture("alt.sigma"), "-o", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == (GOLDEN / "close_alt.txt").read_text()

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
        out = capsys.readouterr().out
        assert out.endswith("verdict: fail\n")

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.tree"
        code = cli.main(["close", "--sigma", fixture("alt.sigma"), "-o", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_non_ascii_digit_in_set_file(self, tmp_path, capsys):
        bad = tmp_path / "h.set"
        bad.write_text("1\n\u0663\n", encoding="utf-8")
        assert cli.main(["info", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 2: not a natural number: '\u0663'\n"

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_no_global_seed_flag(self, capsys):
        _, argv = GOLDEN_CASES["search_fork.txt"]
        with pytest.raises(SystemExit) as info:
            cli.main(["--seed", "7"] + argv)
        assert info.value.code == 2
        assert "rkl: error:" in capsys.readouterr().err

    def test_search_none_result(self, tmp_path, capsys):
        small = tmp_path / "one.color"
        small.write_text("n 1\n0 1 0\n")
        assert cli.main(["search", "--coloring", str(small), "--min-size", "3"]) == 0
        assert capsys.readouterr().out == "# none\n"


DEEP_PREDICATES = {
    "parentheses": "(" * 2000 + "z >= y" + ")" * 2000,
    "sum chain": "z >= " + "+".join(["y"] * 3000),
    "not run": "not " * 3000 + "z >= y",
}


PARSE_TIME_REFUSALS = {
    "numeric matrix": (
        ["pi2sigma1", "--phi", "z", "--tau", "01", "--bound", "3"],
        "error: at offset 0: expected a comparison, found an arithmetic value\n",
    ),
    "bit in yoko": (
        ["yoko", "--theta0", "bit(0) = 1", "--theta1", "n >= m", "-n", "3", "--cap", "4"],
        "error: at offset 0: unbound: bit\n",
    ),
    "x in pi2sigma1": (
        ["pi2sigma1", "--phi", "x = 0", "--tau", "0", "--bound", "1"],
        "error: at offset 0: unbound: x\n",
    ),
    "y in yoko's second matrix": (
        ["yoko", "--theta0", "n >= m", "--theta1", "n >= m + y", "-n", "3", "--cap", "4"],
        "error: at offset 9: unbound: y\n",
    ),
    "len after a bound name": (
        ["yoko", "--theta0", "n >= len", "--theta1", "n >= m", "-n", "3", "--cap", "4"],
        "error: at offset 5: unbound: len\n",
    ),
    # Offsets count characters: x is character 10 but byte 12, after the ≥.
    "character offset past a non-ASCII operator": (
        ["pi2sigma1", "--phi", "z ≥ y and x = 1", "--tau", "01", "--bound", "3"],
        "error: at offset 10: unbound: x\n",
    ),
}


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
                "error: at offset 5: expected a number of at most 4300 digits, found 5000 digits\n",
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
        assert captured.err.startswith("error: at offset ")
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
        assert result.stderr.startswith("error: at offset ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


class TestParserReuse:
    def test_identical_results_after_argparse_errors(self, capsys):
        stable = ["stable", "--coloring", fixture("fork.color")]
        expected = (GOLDEN / "stable_fork.txt").read_text(encoding="utf-8")
        bad_calls = [
            ["frobnicate"],
            ["yoko", "--theta0", "x = 0"],
            ["search", "--coloring", fixture("fork.color"), "--min-size", "two"],
            stable + ["-x", "one"],
        ]
        for bad in bad_calls:
            with pytest.raises(SystemExit) as info:
                cli.main(bad)
            assert info.value.code == 2
            first_error = capsys.readouterr().err
            with pytest.raises(SystemExit):
                cli.main(bad)
            assert capsys.readouterr().err == first_error
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
