from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bitstrings, natsets, string_families, trees
from rkl.core import (
    BitString,
    FinTree,
    NatSet,
    NotPrefixClosed,
    PairColoring,
    StringFamily,
    downward_closure,
    is_homog_path,
    is_homog_string,
    lenlex,
    validate_tree,
)


def bits(strings) -> list[str]:
    return [s.bits for s in strings]


class TestBitString:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitString("012")

    def test_of_booleans(self):
        assert BitString.of([1, 0, 1]).bits == "101"
        assert BitString.of([]) == BitString()

    def test_indexing_domain(self):
        s = BitString("01")
        assert (s[0], s[1]) == (0, 1)
        with pytest.raises(IndexError):
            s[2]
        with pytest.raises(IndexError):
            s[-1]

    def test_str_empty_marker(self):
        assert str(BitString()) == "ε"
        assert str(BitString("10")) == "10"

    def test_prefix_relation(self):
        assert BitString().is_prefix_of(BitString("0"))
        assert BitString("01").is_prefix_of(BitString("011"))
        assert not BitString("1").is_prefix_of(BitString("01"))

    def test_prefixes_shortest_first(self):
        assert bits(BitString("10").prefixes()) == ["", "1", "10"]

    def test_prefix_clamps(self):
        s = BitString("110")
        assert s.prefix(2).bits == "11"
        assert s.prefix(9) == s
        assert s.prefix(0) == BitString()

    def test_extended_and_padded(self):
        assert BitString("1").extended(0).bits == "10"
        assert BitString("1").padded(3).bits == "100"
        assert BitString("1").padded(3, bit=1).bits == "111"
        assert BitString("111").padded(2).bits == "111"

    def test_order_is_lexicographic_prefix_first(self):
        assert BitString("0") < BitString("00") < BitString("1")
        assert lenlex(BitString("1")) < lenlex(BitString("00"))

    @given(bitstrings())
    def test_iter_matches_indexing(self, s: BitString):
        assert list(s) == [s[i] for i in range(len(s))]


class TestFinTree:
    def test_accepts_closed_set(self):
        t = validate_tree(["0", "00", "1"])
        assert sorted(bits(t.members)) == ["", "0", "00", "1"]

    def test_rejects_missing_prefix(self):
        with pytest.raises(NotPrefixClosed) as info:
            validate_tree(["01"])
        assert info.value.offending == BitString("01")
        assert info.value.missing == BitString("0")

    def test_reports_shortest_missing_prefix(self):
        with pytest.raises(NotPrefixClosed) as info:
            FinTree(frozenset({BitString("110")}))
        assert info.value.missing == BitString("1")

    def test_root_always_added(self):
        assert bits(validate_tree([])) == [""]
        assert BitString() in FinTree()

    def test_horizon_and_levels(self):
        t = validate_tree(["0", "1", "11", "10"])
        assert t.horizon == 2
        assert bits(t.level(1)) == ["0", "1"]
        assert bits(t.level(2)) == ["10", "11"]
        assert t.level(5) == ()

    def test_iteration_is_lenlex(self):
        t = validate_tree(["1", "0", "00"])
        assert bits(t) == ["", "0", "1", "00"]

    @given(trees())
    def test_closure_members_are_prefix_closed(self, t: FinTree):
        for sigma in t.members:
            for tau in sigma.prefixes():
                assert tau in t

    @given(trees())
    def test_closure_idempotent(self, t: FinTree):
        assert downward_closure(t.members).members == t.members

    @given(trees())
    def test_level_counts_sum_to_size(self, t: FinTree):
        assert sum(len(t.level(l)) for l in range(t.horizon + 1)) == len(t)


class TestDownwardClosure:
    def test_single_chain(self):
        assert bits(downward_closure(["101"])) == ["", "1", "10", "101"]

    def test_two_branches(self):
        assert bits(downward_closure(["00", "11"])) == ["", "0", "1", "00", "11"]

    def test_empty_family(self):
        assert bits(downward_closure([])) == [""]

    @given(string_families())
    def test_horizon_matches_family(self, fam: StringFamily):
        assert downward_closure(fam).horizon == fam.n


class TestPairColoring:
    def test_row_shape_enforced(self):
        with pytest.raises(ValueError):
            PairColoring(2, ((0,),))
        with pytest.raises(ValueError):
            PairColoring(1, ((0, 1),))
        with pytest.raises(ValueError):
            PairColoring(1, ((2,),))

    def test_value_range_checks(self):
        f = PairColoring.from_function(3, lambda x, y: 1)
        with pytest.raises(ValueError):
            f.value(1, 1)
        with pytest.raises(ValueError):
            f.value(0, 4)
        assert f.value(0, 3) == 1

    def test_pairs_ordered_by_y_then_x(self):
        f = PairColoring.from_function(3, lambda x, y: 0)
        assert [(x, y) for x, y, _ in f.pairs()] == [
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            (2, 3),
        ]

    def test_from_function_reads_exactly_once_per_pair(self):
        seen = []
        PairColoring.from_function(3, lambda x, y: seen.append((x, y)) or 0)
        assert sorted(seen) == sorted((x, y) for y in range(1, 4) for x in range(y))
        assert len(seen) == 6


class TestStringFamily:
    def test_gradedness_is_derived(self):
        assert StringFamily.of(["1", "01", "110"]).graded
        assert not StringFamily.of(["1", "110"]).graded
        assert not StringFamily.of(["1", "01", "10"]).graded
        assert StringFamily().graded

    def test_n_is_longest_member(self):
        assert StringFamily.of(["1", "0110"]).n == 4
        assert StringFamily().n == 0

    def test_of_length(self):
        fam = StringFamily.of(["10", "01", "1"])
        assert bits(fam.level(2)) == ["01", "10"]

    @given(string_families())
    def test_iteration_is_lenlex(self, fam: StringFamily):
        listed = list(fam)
        assert listed == sorted(listed, key=lenlex)


class TestNatSet:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            NatSet((2, 2))
        with pytest.raises(ValueError):
            NatSet((3, 1))
        with pytest.raises(ValueError):
            NatSet((-1,))

    def test_of_sorts_and_dedups(self):
        assert NatSet.of([3, 1, 3, 0]).elements == (0, 1, 3)

    def test_membership_and_below(self):
        h = NatSet.of([1, 4, 6])
        assert 4 in h and 5 not in h
        assert [v for v in h if v < 5] == [1, 4]

    def test_str(self):
        assert str(NatSet.of([2, 0])) == "{0,2}"
        assert str(NatSet()) == "{}"


class TestIsHomogString:
    def test_direct_read_off(self):
        assert is_homog_string(NatSet.of([1, 3]), BitString("0101"), 1)

    def test_mismatch(self):
        assert not is_homog_string(NatSet.of([0, 1]), BitString("0101"), 1)

    def test_positions_past_end_are_vacuous(self):
        assert is_homog_string(NatSet.of([9]), BitString("01"), 0)
        assert is_homog_string(NatSet.of([9]), BitString("01"), 1)

    @given(natsets(), bitstrings(), st.integers(0, 1))
    def test_monotone_under_prefix(self, h: NatSet, s: BitString, c: int):
        if is_homog_string(h, s, c):
            for tau in s.prefixes():
                assert is_homog_string(h, tau, c)

    @given(natsets(max_value=9), bitstrings())
    def test_at_most_one_color_when_constrained(self, h: NatSet, s: BitString):
        if any(x < len(s) for x in h):
            assert not (is_homog_string(h, s, 0) and is_homog_string(h, s, 1))


class TestIsHomogPath:
    def test_all_ones_chain(self):
        w = is_homog_path(NatSet.of([0, 2]), downward_closure(["111"]), 3)
        assert (w.color, w.witness.bits) == (1, "111")

    def test_bicolored_path_has_no_witness(self):
        assert is_homog_path(NatSet.of([0, 1]), downward_closure(["01"]), 2) is None

    def test_lex_least_witness(self):
        t = downward_closure(["0101", "1111"])
        w = is_homog_path(NatSet.of([1, 3]), t, 4)
        assert (w.color, w.witness.bits) == (1, "0101")

    def test_color_zero_preferred(self):
        t = downward_closure(["00", "11"])
        w = is_homog_path(NatSet.of([0, 1]), t, 2)
        assert (w.color, w.witness.bits) == (0, "00")

    def test_horizon_capped_by_tree(self):
        with pytest.raises(ValueError):
            is_homog_path(NatSet(), downward_closure(["0"]), 2)

    @given(trees(), natsets())
    def test_horizon_zero_always_succeeds(self, t: FinTree, h: NatSet):
        assert is_homog_path(h, t, 0) is not None

    @given(trees(), natsets(max_value=9))
    def test_witness_certifies_itself(self, t: FinTree, h: NatSet):
        w = is_homog_path(h, t, t.horizon)
        if w is not None:
            sigma = w.witness
            assert len(sigma) >= t.horizon
            assert sigma in t
            assert is_homog_string(h, sigma, w.color)
