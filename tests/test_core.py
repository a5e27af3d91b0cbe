from __future__ import annotations

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import (
    bitstrings,
    extended,
    from_function,
    is_prefix_of,
    lenlex_key,
    natsets,
    pairs,
    prefix,
    prefixes,
    ref_closure,
    ref_homog_path,
    string_families,
    trees,
)
from rkl.core import (
    FinTree,
    NatSet,
    NotPrefixClosed,
    PairColoring,
    Refusal,
    StringFamily,
    downward_closure,
    is_homog_path,
    is_homog_string,
)
from rkl.formats import FormatError, parse_sigma, validate_tree
from rkl.reductions import PredMatrix, ce_tree_to_sigma, path_pigeonhole, pi2_tree_to_sigma1


class TestBitString:
    """A bit string is its "01" text, the empty text being the root."""

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="not a binary string: '012'"):
            FinTree(["012"])

    def test_str_empty_marker(self):
        # Messages show the empty string as ε, files as '-'.
        with pytest.raises(FormatError, match="duplicate string 'ε'"):
            parse_sigma("-\n-\n")

    def test_prefix_relation(self):
        assert is_prefix_of("", "0")
        assert is_prefix_of("01", "011")
        assert not is_prefix_of("1", "01")

    def test_prefixes_shortest_first(self):
        assert prefixes("10") == ["", "1", "10"]

    def test_prefix_clamps(self):
        s = "110"
        assert prefix(s, 2) == "11"
        assert prefix(s, 9) == s
        assert prefix(s, 0) == ""
        assert prefix(s, -1) == ""

    def test_extended_and_padded(self):
        assert extended("1", 0) == "10"
        assert extended("1", 1) == "11"
        # Stage strings are padded with 0 up to the stage; a full one is kept.
        family = ce_tree_to_sigma({1: "1", 2: "", 3: "111"})
        assert family.text_levels == ((), ("1",), ("00",), ("111",))

    def test_order_is_lexicographic_prefix_first(self):
        assert "0" < "00" < "1"
        assert lenlex_key("1") < lenlex_key("00")
        # A prefix sorts before its extensions.
        assert sorted(["0100", "1", "01"]) == ["01", "0100", "1"]


# Each one is refused the same way; the last two are not texts at all.
NOT_BINARY = ["012", "0 1", "ε", 5, (0, 1)]


@pytest.mark.parametrize("bad", NOT_BINARY, ids=repr)
@pytest.mark.parametrize(
    "entry",
    [
        lambda b: FinTree(["", b]),
        lambda b: StringFamily(["0", b]),
        lambda b: validate_tree([b]),  # formats keeps this name for FinTree; the tracer swaps it
        lambda b: downward_closure(["1", b]),
        lambda b: is_homog_string(NatSet.of([0]), b, 0),
        path_pigeonhole,
        lambda b: pi2_tree_to_sigma1(PredMatrix.from_text("z = y"), b, 4),
        lambda b: ce_tree_to_sigma({1: b}),
    ],
    ids=[
        "FinTree", "StringFamily", "validate_tree", "downward_closure",
        "is_homog_string", "path_pigeonhole", "pi2_tree_to_sigma1", "ce_tree_to_sigma",
    ],
)
def test_entry_points_refuse_non_binary(entry, bad):
    with pytest.raises(ValueError, match="not a binary string"):
        entry(bad)


class TestFinTree:
    def test_accepts_closed_set(self):
        t = FinTree(["0", "00", "1"])
        assert sorted(t) == ["", "0", "00", "1"]

    def test_rejects_missing_prefix(self):
        with pytest.raises(NotPrefixClosed) as info:
            FinTree(["01"])
        assert info.value.offending == "01"
        assert info.value.missing == "0"

    def test_reports_shortest_missing_prefix(self):
        with pytest.raises(NotPrefixClosed) as info:
            FinTree(frozenset({"110"}))
        assert info.value.missing == "1"

    def test_root_always_added(self):
        assert list(FinTree([])) == [""]
        assert "" in FinTree()

    def test_horizon_and_levels(self):
        t = FinTree(["0", "1", "11", "10"])
        assert t.horizon == 2
        assert t.level(1) == ("0", "1")
        assert t.level(2) == ("10", "11")
        assert t.level(5) == ()

    def test_iteration_is_lenlex(self):
        t = FinTree(["1", "0", "00"])
        assert list(t) == ["", "0", "1", "00"]

    @given(trees())
    def test_closure_members_are_prefix_closed(self, t: FinTree):
        for sigma in t:
            for tau in prefixes(sigma):
                assert tau in t

    @given(trees())
    def test_closure_idempotent(self, t: FinTree):
        assert frozenset(downward_closure(frozenset(t))) == frozenset(t)

    @given(trees())
    def test_level_counts_sum_to_size(self, t: FinTree):
        assert sum(len(t.level(l)) for l in range(t.horizon + 1)) == len(t)


class TestDownwardClosure:
    def test_single_chain(self):
        assert list(downward_closure(["101"])) == ["", "1", "10", "101"]

    def test_two_branches(self):
        assert list(downward_closure(["00", "11"])) == ["", "0", "1", "00", "11"]

    def test_empty_family(self):
        assert list(downward_closure([])) == [""]

    @given(string_families())
    def test_horizon_matches_family(self, fam: StringFamily):
        assert downward_closure(fam).horizon == fam.n


class TestPairColoring:
    def test_row_shape_enforced(self):
        with pytest.raises(ValueError):
            PairColoring(2, ("0",))
        with pytest.raises(ValueError):
            PairColoring(1, ("01",))
        with pytest.raises(ValueError):
            PairColoring(1, ("2",))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((0,), (0, 1)), "row for y=1 must be a '01' text"),
            (("0", (0, 1)), "row for y=2 must be a '01' text"),
            (("0", ["0", "1"]), "row for y=2 must be a '01' text"),
            (("0", b"01"), "row for y=2 must be a '01' text"),
            (("0", "011"), "row for y=2 must have 2 entries"),
            (("0", "0"), "row for y=2 must have 2 entries"),
            (("0", "21"), "row for y=2 holds a non-color value"),
            (("0", "1\u0661"), "row for y=2 holds a non-color value"),
            (("\u00b2", "01"), "row for y=1 holds a non-color value"),
        ],
    )
    def test_rows_are_checked_bit_texts(self, rows, message):
        # A row that is not text is refused by its y, not by a TypeError or
        # AttributeError from the checks that read it as text.
        with pytest.raises(ValueError) as info:
            PairColoring(2, rows)
        assert str(info.value) == message

    @staticmethod
    def _row_by_row_refusal(rows) -> str | None:
        """The message of the first bad row, each row checked on its own."""
        for y, row in enumerate(rows, start=1):
            if not isinstance(row, str):
                return f"row for y={y} must be a '01' text"
            if len(row) != y:
                return f"row for y={y} must have {y} entries"
            if row.strip("01"):
                return f"row for y={y} holds a non-color value"
        return None

    class Text(str):
        pass

    @given(
        n=st.integers(1, 14),
        data=st.data(),
        defect=st.sampled_from(["bytes", "list", "tuple", "str subclass", "length", "character"]),
    )
    def test_all_rows_check_refuses_what_the_loop_refuses(self, n, data, defect):
        """One defect in one row: the check of all rows at once accepts and
        refuses exactly what the row-by-row loop does, with its message."""
        rows = [data.draw(st.text("01", min_size=y, max_size=y), label=f"row {y}") for y in range(1, n + 1)]
        y = data.draw(st.integers(1, n), label="y")
        row = rows[y - 1]
        if defect in ("bytes", "list", "tuple"):
            rows[y - 1] = {"bytes": str.encode, "list": list, "tuple": tuple}[defect](row)
        elif defect == "str subclass":
            rows[y - 1] = self.Text(row)
        elif defect == "length":
            length = data.draw(st.integers(0, y + 3).filter(lambda k: k != y), label="length")
            rows[y - 1] = (row * 4)[:length]
        else:
            bad = data.draw(
                st.sampled_from("2a ?\x00\u0661\u00b2\u0662\u00e9\U0001d7ce") | st.characters(),
                label="character",
            )
            assume(bad not in "01")
            x = data.draw(st.integers(0, y - 1), label="x")
            rows[y - 1] = row[:x] + bad + row[x + 1 :]
        want = self._row_by_row_refusal(rows)
        assert (want is None) == (defect == "str subclass")
        if want is None:
            assert PairColoring(n, rows).rows == tuple(rows)
        else:
            with pytest.raises(Refusal) as info:
                PairColoring(n, rows)
            assert str(info.value) == want

    def test_value_range_checks(self):
        f = from_function(3, lambda x, y: 1)
        with pytest.raises(ValueError):
            f.value(1, 1)
        with pytest.raises(ValueError):
            f.value(0, 4)
        assert f.value(0, 3) == 1

    def test_pairs_ordered_by_y_then_x(self):
        f = from_function(3, lambda x, y: 0)
        assert [(x, y) for x, y, _ in pairs(f)] == [
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            (2, 3),
        ]

    def test_from_function_reads_exactly_once_per_pair(self):
        seen = []
        from_function(3, lambda x, y: seen.append((x, y)) or 0)
        assert sorted(seen) == sorted((x, y) for y in range(1, 4) for x in range(y))
        assert len(seen) == 6


class TestStringFamily:
    def test_gradedness_is_derived(self):
        assert StringFamily(["1", "01", "110"]).graded
        assert not StringFamily(["1", "110"]).graded
        assert not StringFamily(["1", "01", "10"]).graded
        assert StringFamily().graded

    def test_n_is_longest_member(self):
        assert StringFamily(["1", "0110"]).n == 4
        assert StringFamily().n == 0

    def test_of_length(self):
        fam = StringFamily(["10", "01", "1"])
        assert fam.level(2) == ("01", "10")

    @given(string_families())
    def test_iteration_is_lenlex(self, fam: StringFamily):
        listed = list(fam)
        assert listed == sorted(listed, key=lenlex_key)


class TestNatSet:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            NatSet((2, 2))
        with pytest.raises(ValueError):
            NatSet((3, 1))
        for bad in (-1, "x", None, 1.5, "3"):
            with pytest.raises(Refusal, match="elements must be naturals"):
                NatSet((bad,))

    def test_of_sorts_and_dedups(self):
        assert NatSet.of([3, 1, 3, 0]).elements == (0, 1, 3)

    @pytest.mark.parametrize("values", [[1, "x"], ["x", 1], [2, None, 0], [1, 1.5], [-1, 2]])
    def test_of_checks_elements_before_sorting(self, values):
        with pytest.raises(Refusal, match="^elements must be naturals$"):
            NatSet.of(values)

    def test_membership_and_below(self):
        h = NatSet.of([1, 4, 6])
        assert 4 in h and 5 not in h
        assert [v for v in h if v < 5] == [1, 4]
        # Absent values below, between and past the maximum.
        assert [x for x in range(-2, 12) if x in h] == [1, 4, 6]
        assert 10**30 not in h
        assert 0 not in NatSet()

    def test_truth_is_having_an_element(self):
        assert not NatSet()
        assert NatSet.of([0])

    def test_str(self):
        assert str(NatSet.of([2, 0])) == "{0,2}"
        assert str(NatSet()) == "{}"


class TestIsHomogString:
    def test_direct_read_off(self):
        assert is_homog_string(NatSet.of([1, 3]), "0101", 1)

    def test_mismatch(self):
        assert not is_homog_string(NatSet.of([0, 1]), "0101", 1)

    def test_positions_past_end_are_vacuous(self):
        assert is_homog_string(NatSet.of([9]), "01", 0)
        assert is_homog_string(NatSet.of([9]), "01", 1)

    @pytest.mark.parametrize("c", [2, -1])
    def test_color_other_than_0_or_1_is_refused(self, c):
        # Even where no position of h is covered, so nothing is read.
        for h in (NatSet.of([1]), NatSet.of([9])):
            with pytest.raises(Refusal, match=f"^a color is 0 or 1, not {c}$"):
                is_homog_string(h, "01", c)

    @given(natsets(), bitstrings(), st.integers(0, 1))
    def test_monotone_under_prefix(self, h: NatSet, s: str, c: int):
        if is_homog_string(h, s, c):
            for tau in prefixes(s):
                assert is_homog_string(h, tau, c)

    @given(natsets(max_value=9), bitstrings())
    def test_at_most_one_color_when_constrained(self, h: NatSet, s: str):
        if any(x < len(s) for x in h):
            assert not (is_homog_string(h, s, 0) and is_homog_string(h, s, 1))


class TestIsHomogPath:
    def test_all_ones_chain(self):
        w = is_homog_path(NatSet.of([0, 2]), downward_closure(["111"]))
        assert (w.color, w.witness) == (1, "111")

    def test_bicolored_path_has_no_witness(self):
        assert is_homog_path(NatSet.of([0, 1]), downward_closure(["01"])) is None

    def test_lex_least_witness(self):
        t = downward_closure(["0101", "1111"])
        w = is_homog_path(NatSet.of([1, 3]), t)
        assert (w.color, w.witness) == (1, "0101")

    def test_color_zero_preferred(self):
        t = downward_closure(["00", "11"])
        w = is_homog_path(NatSet.of([0, 1]), t)
        assert (w.color, w.witness) == (0, "00")

    def test_empty_family_reads_as_the_root(self):
        h = NatSet.of([0, 3])
        assert is_homog_path(h, StringFamily()) == (0, "")
        assert is_homog_path(h, StringFamily()) == is_homog_path(h, downward_closure([]))

    @pytest.mark.parametrize(
        "members, h, want",
        [
            (["0010", "0110", "1000"], [0, 1, 3], (0, "0010")),  # the first member, color 0
            (["0110", "1000"], [1, 2], (0, "1000")),  # the first member shows only 1s
            (["0101", "1111"], [1, 3], (1, "0101")),  # only color 1
            (["01", "10"], [0, 1], None),  # nothing
        ],
    )
    def test_first_member_check_matches_the_reference(self, members, h, want):
        t, h = downward_closure(members), NatSet.of(h)
        got = is_homog_path(h, t)
        ref = ref_closure(members)
        assert (None if got is None else tuple(got)) == ref_homog_path(h, ref, ref.horizon) == want

    @given(st.one_of(trees(max_members=12), string_families(max_members=12)), natsets(max_value=10))
    @example(StringFamily(), NatSet())
    @example(StringFamily(), NatSet.of([5, 9]))
    @example(downward_closure([]), NatSet.of([0]))
    @example(StringFamily(["01"]), NatSet.of([1, 2]))
    def test_column_masks_match_the_reference(self, t, h):
        """The masks' answer is the reference's, for trees and families, with
        h empty, or reaching below, at and past the horizon (8 at most)."""
        ref = ref_closure(t)
        got = is_homog_path(h, t)
        assert (None if got is None else tuple(got)) == ref_homog_path(h, ref, ref.horizon)

    @given(trees(), natsets(max_value=9))
    def test_witness_certifies_itself(self, t: FinTree, h: NatSet):
        w = is_homog_path(h, t)
        if w is not None:
            sigma = w.witness
            assert len(sigma) >= t.horizon
            assert sigma in t
            assert is_homog_string(h, sigma, w.color)
