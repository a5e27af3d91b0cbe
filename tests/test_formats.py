from __future__ import annotations

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    colorings,
    natsets,
    ref_canonical_coloring,
    ref_render,
    ref_render_coloring,
    render_enum,
    string_families,
    trees,
)
from rkl.core import (
    MAX_DIGITS,
    FinTree,
    NatSet,
    PairColoring,
    StringFamily,
    _closed_levels,
    downward_closure,
)
from rkl.diagonal import StagedEnum, build_diagonal_tree
from rkl import formats
from rkl.formats import (
    FormatError,
    _bare_texts,
    _canonical_coloring,
    _canonical_tree,
    _string_lines,
    parse_coloring,
    parse_enum,
    parse_natset,
    parse_sigma,
    parse_stages,
    parse_tree,
    render_coloring,
    render_natset,
    render_sigma,
    render_tree,
)


class TestComments:
    def test_comments_and_blanks_ignored(self):
        fam = parse_sigma("# header\n\n01  # inline\n\n# trailer\n")
        assert list(fam) == ["01"]

    def test_dash_is_the_empty_string(self):
        t = parse_tree("-\n")
        assert list(t) == [""]


# Each line reader with a valid two-line file, as (first line, second line).
TWO_LINE_FILES = {
    "tree": (parse_tree, "-", "0"),
    "sigma": (parse_sigma, "0", "1"),
    "coloring": (parse_coloring, "n 1", "0 1 1"),
    "enum": (parse_enum, "0 1 2", "0 2 3"),
    "set": (parse_natset, "1", "3"),
    "stages": (parse_stages, "1 0", "2 01"),
}

# Characters that str.splitlines() ends a line at, and non-ASCII spaces that
# str.split() and str.strip() read as separators.
NOT_LINE_ENDS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NOT_SPACES = ["\xa0", "\u2003"]
NON_ASCII = [c for c in NOT_LINE_ENDS + NOT_SPACES if not c.isascii()]
# Every ASCII control character but the line feed, which ends a line, and the
# tab, which separates fields as a space does.
CONTROLS = [chr(i) for i in [*range(32), 127] if chr(i) not in "\n\t"]


class TestLines:
    """A line ends at a line feed only, and its data holds only ASCII."""

    @pytest.mark.parametrize("kind", sorted(TWO_LINE_FILES))
    @pytest.mark.parametrize("char", NOT_LINE_ENDS + NOT_SPACES, ids=repr)
    def test_only_a_line_feed_ends_a_line(self, kind, char):
        parse, first, second = TWO_LINE_FILES[kind]
        parse(f"# {kind}\n{first}\n{second}\n")
        with pytest.raises(FormatError) as info:
            parse(f"# {kind}\n{first}{char}{second}\n")
        assert info.value.line == 2

    @pytest.mark.parametrize("kind", sorted(TWO_LINE_FILES))
    @pytest.mark.parametrize("char", NON_ASCII, ids=repr)
    def test_non_ascii_data_refused_on_its_line(self, kind, char):
        parse, first, second = TWO_LINE_FILES[kind]
        for text in (f"{first}\n{second}{char}\n", f"{first}\n{char}\n"):
            with pytest.raises(FormatError) as info:
                parse(text)
            assert str(info.value) == f"line 2: non-ASCII character {char!r}"

    @pytest.mark.parametrize("space", NOT_SPACES, ids=repr)
    def test_non_ascii_space_is_no_separator(self, space):
        for parse, text, line in [
            (parse_enum, f"0{space}1 2\n", 1),
            (parse_coloring, f"n 1\n0{space}1 1\n", 2),
        ]:
            with pytest.raises(FormatError) as info:
                parse(text)
            assert str(info.value) == f"line {line}: non-ASCII character {space!r}"

    @pytest.mark.parametrize("kind", sorted(TWO_LINE_FILES))
    @pytest.mark.parametrize("char", CONTROLS, ids=repr)
    def test_control_character_refused_on_its_line(self, kind, char):
        parse, first, second = TWO_LINE_FILES[kind]
        # At the start of the data, and just before a comment, which for a
        # carriage return is not the end of the line.
        for text in (f"{first}\n{char}{second}\n", f"{first}\n{second}{char}# c\n"):
            with pytest.raises(FormatError) as info:
                parse(text)
            assert str(info.value) == f"line 2: control character {char!r}"

    @pytest.mark.parametrize("kind", sorted(TWO_LINE_FILES))
    def test_final_carriage_return_and_comments_accepted(self, kind):
        parse, first, second = TWO_LINE_FILES[kind]
        plain = parse(f"{first}\n{second}\n")
        assert parse(f"{first}\r\n{second}# {''.join(CONTROLS)}\r") == plain

    def test_tab_separates_fields(self):
        assert parse_enum("0\t1 \t2\t\n") == parse_enum("0 1 2\n")

    def test_later_error_keeps_its_line(self):
        with pytest.raises(FormatError, match="^line 2: not a natural number: 'X'$"):
            parse_natset("1 #\f\nX\n")

    @pytest.mark.parametrize("kind", sorted(TWO_LINE_FILES))
    def test_comments_stay_free_text(self, kind):
        parse, first, second = TWO_LINE_FILES[kind]
        plain = parse(f"{first}\n{second}\n")
        assert parse(f"{first} # \u00b2\xa0\u2028\n{second}\r\n# \x85\n") == plain


class TestTree:
    def test_strict_by_default(self):
        with pytest.raises(ValueError):
            parse_tree("01\n")

    def test_close_flag(self):
        t = downward_closure(parse_sigma("01\n"))
        assert list(t) == ["", "0", "01"]

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
        assert frozenset(parse_tree(render_tree(t))) == frozenset(t)

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
        assert frozenset(parse_sigma(render_sigma(fam))) == frozenset(fam)


class TestRenderTree:
    """The per-level join against one line per member."""

    @given(trees(max_len=10, max_members=8))
    def test_trees(self, t):
        assert render_tree(t) == ref_render(t)

    @given(string_families(max_len=10, max_members=8))
    def test_families(self, fam):
        assert render_tree(fam) == render_sigma(fam) == ref_render(fam)

    @pytest.mark.parametrize(
        "members",
        [[], [""], ["", "0110"], ["1", "0001", "1111"], ["000000", "01"], ["10"]],
    )
    def test_empty_levels_and_no_root(self, members):
        fam = StringFamily(members)
        assert render_tree(fam) == ref_render(fam)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 8), st.integers(0, 7)),
                    max_size=12, unique_by=lambda t: (t[0], t[2])),
           st.integers(1, 8))
    def test_diagonal_trees(self, events, depth):
        t = build_diagonal_tree(StagedEnum(events), depth).tree
        assert render_tree(t) == ref_render(t)


# Every character the readers treat specially: line breaks that split
# lines only for str.splitlines, the comment mark, spaces and '-'.
READER_ALPHABET = ["0", "1", "-", "#", " ", "\n", "\r", "\x0b", "\x85", "\u2028"]


def member_files():
    """Texts near the bare form, one token per line, and arbitrary ones."""
    line = st.one_of(
        st.text(alphabet="01", min_size=1, max_size=5),
        st.just("-"),
        st.text(alphabet=READER_ALPHABET, max_size=4),
    )
    near_bare = st.builds(
        lambda lines, end: "\n".join(lines) + end,
        st.lists(line, max_size=10),
        st.sampled_from(["", "\n"]),
    )
    return st.one_of(near_bare, st.text(alphabet=READER_ALPHABET, max_size=30))


def read(parse, text: str):
    """The levels a parser reads, or its refusal's message and line."""
    try:
        return parse(text).text_levels
    except FormatError as exc:
        return str(exc), exc.line


class TestBareReader:
    """A file of bare members splits in one pass; every other text takes the
    general scan, and both read the same levels and refusals."""

    @settings(max_examples=400)
    @given(member_files())
    def test_matches_the_general_scan(self, text):
        parsers = [parse_tree, lambda text: downward_closure(parse_sigma(text)), parse_sigma]
        fast = [read(parse, text) for parse in parsers]
        with mock.patch.object(formats, "_bare_texts", lambda text: None):
            general = [read(parse, text) for parse in parsers]
        assert fast == general

    @pytest.mark.parametrize(
        "text", ["-", "-\n", "-\n0\n1\n", "0\n00\n01", "00\n0\n"]
    )
    def test_bare_files_skip_the_general_scan(self, text):
        assert _bare_texts(text) is not None
        with mock.patch.object(formats, "_data_lines", side_effect=AssertionError):
            for parse in (lambda text: downward_closure(parse_sigma(text)), parse_sigma):
                parse(text)

    @pytest.mark.parametrize(
        "text", ["", "\n", "0\n\n", "\n0", "0\n-\n", "0 \n", "0\r\n", "0#\n", "0\x85"]
    )
    def test_other_forms_take_the_general_scan(self, text):
        assert _bare_texts(text) is None


def _edit_lines(text: str, kind: str, data) -> str:
    """The text with one edit of the kind named to its lines."""
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    if kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1), label="with")
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "drop":
        del lines[i]
    elif kind == "add":
        lines.insert(i, data.draw(st.text(alphabet="01", min_size=1, max_size=6)) + "\n")
    elif kind == "blank line":
        lines.insert(i, "\n")
    elif kind == "comment":
        lines.insert(i, "# a tree\n")
    elif kind == "crlf":
        return text.replace("\n", "\r\n")
    elif kind == "no final newline":
        return text[:-1]
    return "".join(lines)


def _general_tree(text: str):
    """What parse_tree reads with the canonical reader turned off."""
    with mock.patch.object(formats, "_canonical_tree", lambda text: None):
        return read(parse_tree, text)


class TestCanonicalTree:
    """The level-by-level reader of render_tree's own text against the
    general reader: where it answers, both read the same levels, and
    parse_tree reads the same tree or refusal either way."""

    EDITS = ["none", "swap", "repeat", "drop", "add", "blank line", "comment", "crlf",
             "no final newline"]

    @given(trees(max_len=10, max_members=24))
    def test_rendered_trees_take_the_fast_path(self, t):
        text = render_tree(t)
        assert _canonical_tree(text) is not None
        assert parse_tree(text) == t

    @pytest.mark.parametrize("kind", EDITS)
    @given(t=trees(max_len=10, max_members=24), data=st.data())
    def test_edited_texts_match_the_general_reader(self, kind, t, data):
        text = _edit_lines(render_tree(t), kind, data)
        levels = _canonical_tree(text)
        if levels is not None:
            assert tuple(map(tuple, levels)) == _closed_levels(_string_lines(text))
            assert FinTree._from_levels(levels) == parse_tree(text)
        assert read(parse_tree, text) == _general_tree(text)

    @pytest.mark.parametrize(
        "text", ["-\n", "-\n0\n", "-\n0\n1\n00\n01\n10\n", "-\n1\n10\n11\n110\n"]
    )
    def test_canonical_texts(self, text):
        assert _canonical_tree(text) == tuple(map(list, _closed_levels(_string_lines(text))))

    @pytest.mark.parametrize(
        "text",
        ["", "-", "\n", "-\n\n", "-\n0", "-\n1\n0\n", "-\n0\n0\n", "-\n00\n", "-\n0\n11\n",
         "-\n0\n1\n0\n", "-\n01\n0\n", "-\n0\r\n", "-\n0 \n", "-\n0#\n", "-\n\u0660\n",
         "0\n", "-\n-\n", "-\n0\n\n1\n"],
    )
    def test_other_texts_take_the_general_reader(self, text):
        assert _canonical_tree(text) is None
        assert read(parse_tree, text) == _general_tree(text)


class TestColoring:
    GOOD = "n 2\n0 1 1\n0 2 0\n1 2 1\n"

    def test_parse(self):
        f = parse_coloring(self.GOOD)
        assert f.rows == ("1", "01")

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
            ("n \u0662\n0 1 0\n0 2 0\n1 2 0\n", "line 1: non-ASCII character '\u0662'"),
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
            ("n 1\n0 1 \u0661\n", "line 2: non-ASCII character '\u0661'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_coloring(text)
        assert str(info.value) == message


# Sizes on each side of a change in the digit width of x or y.
WIDTH_EDGES = [0, 1, 9, 10, 11, 99, 100, 101]


def _random_coloring(n: int, rnd) -> PairColoring:
    return PairColoring(n, tuple(format(rnd.getrandbits(y), f"0{y}b") for y in range(1, n + 1)))


def _change_one_byte(lines: list[str], kind: str, data) -> None:
    """Replace one character of the kind named: a digit of x, y or n, a space,
    a newline, a color (turned into 2), or any character (by a non-ASCII one)."""
    replacements = {
        "digit": "0123456789",
        "space": "\t0\n",
        "newline": " 0\r",
        "color": "2",
        "non-ascii": "\u00e9\u00a0\u0662\u2028",
    }

    def kind_of(i: int, p: int, ch: str) -> str:
        if i and p == len(lines[i]) - 2:
            return "color"
        return {" ": "space", "\n": "newline"}.get(ch, "digit" if ch.isdigit() else "")

    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    offsets = [
        p for p, ch in enumerate(lines[i]) if kind == "non-ascii" or kind_of(i, p, ch) == kind
    ]
    if offsets:  # only the header has no color
        p = data.draw(st.sampled_from(offsets), label="offset")
        c = data.draw(st.sampled_from(replacements[kind]), label="by")
        lines[i] = lines[i][:p] + c + lines[i][p + 1 :]


def _near_canonical(text: str, kind: str, data) -> str:
    """The canonical text, with one change of the kind named."""
    lines = text.splitlines(keepends=True)
    if kind == "swap" and len(lines) > 1:
        i = data.draw(st.integers(0, len(lines) - 2), label="swap")
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == "drop last":
        lines.pop()
    elif kind == "add":
        i = data.draw(st.integers(0, len(lines)), label="at")
        x, y, c = data.draw(st.tuples(*[st.integers(0, len(lines))] * 2, st.integers(0, 2)))
        lines.insert(i, data.draw(st.sampled_from([lines[i - 1], f"{x} {y} {c}\n"])))
    elif kind != "none":
        _change_one_byte(lines, kind, data)
    return "".join(lines)


class TestCanonicalColoringAgainstReference:
    """The fixed-offset reader and writer against the line-by-line ones."""

    @given(n=st.integers(0, 14), rnd=st.randoms(use_true_random=False))
    def test_render_matches_reference(self, n, rnd):
        f = _random_coloring(n, rnd)
        assert render_coloring(f) == ref_render_coloring(f)

    @pytest.mark.parametrize("n", WIDTH_EDGES)
    @settings(max_examples=5)
    @given(rnd=st.randoms(use_true_random=False))
    def test_render_matches_reference_across_widths(self, n, rnd):
        f = _random_coloring(n, rnd)
        assert render_coloring(f) == ref_render_coloring(f)

    KINDS = ["none", "digit", "space", "newline", "color", "non-ascii", "swap", "drop last", "add"]

    @pytest.mark.parametrize("kind", KINDS)
    @given(n=st.integers(0, 12), rnd=st.randoms(use_true_random=False), data=st.data())
    def test_parse_matches_reference(self, kind, n, rnd, data):
        text = _near_canonical(ref_render_coloring(_random_coloring(n, rnd)), kind, data)
        assert _canonical_coloring(text) == ref_canonical_coloring(text)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", WIDTH_EDGES)
    @settings(max_examples=8)
    @given(rnd=st.randoms(use_true_random=False), data=st.data())
    def test_parse_matches_reference_across_widths(self, n, kind, rnd, data):
        text = _near_canonical(ref_render_coloring(_random_coloring(n, rnd)), kind, data)
        assert _canonical_coloring(text) == ref_canonical_coloring(text)

    @pytest.mark.parametrize("digits", ["100000", "9" * MAX_DIGITS])
    def test_bare_header_is_refused_without_the_layout(self, digits):
        parse_coloring("n 1\n0 1 0\n")  # first-call imports and caches stay out of the peak
        with mock.patch.object(formats, "_coloring_layout", side_effect=AssertionError):
            tracemalloc.start()
            try:
                with pytest.raises(FormatError) as info:
                    parse_coloring(f"n {digits}\n")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert str(info.value) == "pair (0,1) missing"
        assert peak < 1 << 20


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
        en = StagedEnum([(0, 1, 0), (0, 2, 1), (0, 3, 2)])
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
        stages = parse_stages("1 1\n2 11\n3 0\n")
        assert max(stages) == 3
        assert list(stages.items()) == [(1, "1"), (2, "11"), (3, "0")]

    def test_dash_for_empty(self):
        stages = parse_stages("1 -\n")
        assert stages[1] == ""

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            parse_stages("# nothing here\n")

    def test_shape_enforced(self):
        with pytest.raises(FormatError):
            parse_stages("1\n")

    def test_repeated_stage_refused_on_its_line(self):
        with pytest.raises(FormatError, match="^line 2: stage 1 is listed twice$"):
            parse_stages("1 0\n1 1\n")

    def test_string_longer_than_its_stage_refused_on_its_line(self):
        with pytest.raises(FormatError, match="^line 3: stage 2 holds '101', longer than 2$"):
            parse_stages("1 0\n\n2 101\n")

    def test_missing_stage_left_to_the_reduction(self):
        stages = parse_stages("3 0\n")
        assert (list(stages.items()), max(stages)) == ([(3, "0")], 3)
