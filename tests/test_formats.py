from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import colorings, natsets, string_families, trees
from rkl.core import BitString, NatSet
from rkl.diagonal import StagedEnum
from rkl.formats import (
    FormatError,
    _canonical_coloring,
    parse_coloring,
    parse_enum,
    parse_natset,
    parse_sigma,
    parse_stages,
    parse_tree,
    render_coloring,
    render_enum,
    render_natset,
    render_sigma,
    render_tree,
)


class TestComments:
    def test_comments_and_blanks_ignored(self):
        fam = parse_sigma("# header\n\n01  # inline\n\n# trailer\n")
        assert [s.bits for s in fam] == ["01"]

    def test_dash_is_the_empty_string(self):
        t = parse_tree("-\n")
        assert [s.bits for s in t] == [""]


class TestTree:
    def test_strict_by_default(self):
        with pytest.raises(ValueError):
            parse_tree("01\n")

    def test_close_flag(self):
        t = parse_tree("01\n", close=True)
        assert [s.bits for s in t] == ["", "0", "01"]

    def test_duplicate_rejected_with_line(self):
        with pytest.raises(FormatError) as info:
            parse_tree("-\n0\n0\n")
        assert info.value.line == 3

    def test_non_binary_rejected(self):
        with pytest.raises(FormatError) as info:
            parse_tree("02\n")
        assert info.value.line == 1

    @given(trees())
    def test_round_trip(self, t):
        assert parse_tree(render_tree(t)).members == t.members

    @given(trees())
    def test_rendering_is_sorted_and_newline_terminated(self, t):
        text = render_tree(t)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == sorted(lines, key=lambda b: (len(b), b) if b != "-" else (0, ""))


class TestSigma:
    def test_round_trip_examples(self):
        fam = parse_sigma("1\n10\n")
        assert render_sigma(fam) == "1\n10\n"

    def test_multiple_tokens_rejected(self):
        with pytest.raises(FormatError) as info:
            parse_sigma("0 1\n")
        assert info.value.line == 1

    @given(string_families())
    def test_round_trip(self, fam):
        assert parse_sigma(render_sigma(fam)).members == fam.members


class TestColoring:
    GOOD = "n 2\n0 1 1\n0 2 0\n1 2 1\n"

    def test_parse(self):
        f = parse_coloring(self.GOOD)
        assert f.rows == ((1,), (0, 1))

    def test_render_orders_by_y_then_x(self):
        assert render_coloring(parse_coloring(self.GOOD)) == self.GOOD

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_coloring("0 1 0\n")

    def test_missing_pair(self):
        with pytest.raises(FormatError) as info:
            parse_coloring("n 2\n0 1 1\n0 2 0\n")
        assert "(1,2)" in str(info.value)

    def test_duplicate_pair(self):
        with pytest.raises(FormatError) as info:
            parse_coloring("n 1\n0 1 1\n0 1 1\n")
        assert info.value.line == 3

    def test_pair_out_of_range(self):
        with pytest.raises(FormatError):
            parse_coloring("n 1\n0 1 1\n1 1 0\n")

    def test_bad_color(self):
        with pytest.raises(FormatError):
            parse_coloring("n 1\n0 1 2\n")

    def test_empty_coloring(self):
        f = parse_coloring("n 0\n")
        assert f.n == 0

    @given(colorings())
    def test_round_trip(self, f):
        assert parse_coloring(render_coloring(f)) == f


def _reshape(text: str, body) -> str:
    """The text with each data line passed through body(lineno, line)."""
    return "".join(body(i, line) + "\n" for i, line in enumerate(text.splitlines()))


# Texts the general parser accepts that render_coloring never writes.
NON_CANONICAL = {
    "comment line": lambda t: "# a coloring\n" + t,
    "inline comment": lambda t: _reshape(t, lambda i, l: l + "  # note" if i == 0 else l),
    "blank line": lambda t: t.replace("\n", "\n\n", 1),
    "extra spaces": lambda t: _reshape(t, lambda i, l: "  " + l.replace(" ", "   ") + " "),
    "leading zeros": lambda t: _reshape(t, lambda i, l: "0" + l if i else "n 0" + l[2:]),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "no final newline": lambda t: t[:-1],
    "tabs": lambda t: t.replace(" ", "\t"),
}


class TestCanonicalColoring:
    """Canonical texts take one comparison; every other form the general parser."""

    @given(colorings(max_n=12))
    def test_canonical_text_takes_the_fast_path(self, f):
        text = render_coloring(f)
        assert _canonical_coloring(text) == f
        assert parse_coloring(text) == f

    @pytest.mark.parametrize("variant", sorted(NON_CANONICAL))
    @given(f=colorings(max_n=10))
    def test_variants_parse_to_the_same_coloring(self, variant, f):
        text = NON_CANONICAL[variant](render_coloring(f))
        assert _canonical_coloring(text) is None
        assert parse_coloring(text) == f

    @given(colorings(max_n=10, min_n=2), st.randoms(use_true_random=False))
    def test_shuffled_lines_parse_to_the_same_coloring(self, f, rnd):
        head, *pairs = render_coloring(f).splitlines(keepends=True)
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        text = head + "".join(shuffled)
        assert parse_coloring(text) == f
        if shuffled != pairs:
            assert _canonical_coloring(text) is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing 'n <N>' header"),
            ("# only a comment\n", "missing 'n <N>' header"),
            ("m 1\n0 1 0\n", "line 1: header must read 'n <N>'"),
            ("n\n", "line 1: header must read 'n <N>'"),
            ("n x\n", "line 1: not a natural number: 'x'"),
            ("n -1\n", "line 1: not a natural number: '-1'"),
            ("n \u0662\n0 1 0\n0 2 0\n1 2 0\n", "line 1: not a natural number: '\u0662'"),
            ("n 1\n0 1\n", "line 2: expected 'x y c'"),
            ("n 1\n0 1 0 1\n", "line 2: expected 'x y c'"),
            ("n 1\n1 1 0\n", "line 2: pair (1,1) outside 0 <= x < y <= 1"),
            ("n 1\n0 2 0\n", "line 2: pair (0,2) outside 0 <= x < y <= 1"),
            ("n 2\n0 1 1\n0 2 0\n1 2 2\n", "line 4: color must be 0 or 1, got 2"),
            ("n 2\n0 1 1\n0 2 0\n1 2 x\n", "line 4: not a natural number: 'x'"),
            ("n 1\n0 1 1\n0 1 1\n", "line 3: pair (0,1) given twice"),
            ("n 2\n0 1 1\n0 2 0\n", "pair (1,2) missing"),
            ("n 2\n0 1 1\n0 2 0\n0 2 0\n", "line 4: pair (0,2) given twice"),
            ("n 2\n0 1 1\n\n0 2 0\n", "pair (1,2) missing"),
            ("n 1\n0 1 \u0661\n", "line 2: not a natural number: '\u0661'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_coloring(text)
        assert str(info.value) == message


class TestEnum:
    def test_parse_and_normalize(self):
        en = parse_enum("1 2 7\n0 1 3\n")
        assert en.events == ((0, 1, 3), (1, 2, 7))

    def test_duplicate_membership_rejected_with_line(self):
        with pytest.raises(FormatError) as info:
            parse_enum("0 1 5\n0 2 5\n")
        assert info.value.line == 2

    def test_stage_zero_rejected(self):
        with pytest.raises(FormatError):
            parse_enum("0 0 5\n")

    def test_round_trip_example(self):
        en = StagedEnum.of([(0, 1, 0), (0, 2, 1), (0, 3, 2)])
        assert parse_enum(render_enum(en)).events == en.events


class TestNatSet:
    def test_parse(self):
        assert parse_natset("0\n2\n5\n") == NatSet.of([0, 2, 5])

    def test_empty_file_is_empty_set(self):
        assert parse_natset("# nothing\n") == NatSet()

    def test_order_enforced(self):
        with pytest.raises(FormatError) as info:
            parse_natset("2\n1\n")
        assert info.value.line == 2

    def test_duplicates_rejected(self):
        with pytest.raises(FormatError):
            parse_natset("1\n1\n")

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])  # Arabic-Indic three, superscript two
    def test_non_ascii_digits_rejected_with_line(self, digit):
        with pytest.raises(FormatError) as info:
            parse_natset(f"1\n{digit}\n")
        assert info.value.line == 2

    @given(natsets())
    def test_round_trip(self, h):
        assert parse_natset(render_natset(h)) == h


class TestStages:
    def test_parse(self):
        events, max_stage = parse_stages("1 1\n2 11\n3 0\n")
        assert max_stage == 3
        assert [(s, t.bits) for s, t in events] == [(1, "1"), (2, "11"), (3, "0")]

    def test_dash_for_empty(self):
        events, _ = parse_stages("1 -\n")
        assert events[0][1] == BitString()

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            parse_stages("# nothing here\n")

    def test_shape_enforced(self):
        with pytest.raises(FormatError):
            parse_stages("1\n")
