from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    PredMatrix,
    bitstrings,
    colorings,
    graded_families,
    nonempty_bitstrings,
    string_families,
    trees,
    yokoyama_h,
)
from rkl.core import (
    BitString,
    NatSet,
    PairColoring,
    StringFamily,
    downward_closure,
    is_homog_string,
    lenlex,
)
from rkl.reductions import (
    BadStage,
    CapExceeded,
    EmptyPath,
    LevelEmpty,
    NoLongString,
    ce_tree_to_sigma,
    coloring_to_sigma,
    path_pigeonhole,
    pi2_tree_to_sigma1,
    set_to_path_tree,
    sigma_to_coloring,
    stability_bound,
    tree_to_stable_coloring,
    yokoyama_coloring,
)

B = BitString
N = NatSet.of


def bits(strings) -> list[str]:
    return [s.bits for s in sorted(strings, key=lenlex)]


PARITY_0 = PredMatrix.from_text("x mod 2 = 0 and n >= m")
PARITY_1 = PredMatrix.from_text("x mod 2 = 1 and n >= m")
ALWAYS = PredMatrix.from_text("0 = 0")
NEVER = PredMatrix.from_text("0 = 1")


class TestPathPigeonhole:
    def test_majority_zero(self):
        assert path_pigeonhole(B("0100110")) == (0, N([0, 2, 3, 6]))

    def test_constant_path(self):
        assert path_pigeonhole(B("1111")) == (1, N([0, 1, 2, 3]))

    def test_tie_breaks_to_zero(self):
        assert path_pigeonhole(B("01")) == (0, N([0]))

    def test_empty_path_rejected(self):
        with pytest.raises(EmptyPath):
            path_pigeonhole(B(""))

    @given(nonempty_bitstrings(14))
    def test_positions_cover_majority(self, p: B):
        c, h = path_pigeonhole(p)
        assert all(p[x] == c for x in h)
        assert 2 * len(h) >= len(p)
        assert is_homog_string(h, p, c)


class TestTreeToStableColoring:
    def test_full_tree_is_all_zero(self):
        t = downward_closure([format(i, "03b") for i in range(8)])
        f = tree_to_stable_coloring(t, 3)
        assert all(c == 0 for _, _, c in f.pairs())

    def test_fork(self):
        t = downward_closure(["000", "1111"])
        f = tree_to_stable_coloring(t, 4)
        assert f.rows == ((0,), (0, 0), (0, 0, 0), (1, 1, 1, 1))

    def test_missing_level(self):
        with pytest.raises(LevelEmpty) as info:
            tree_to_stable_coloring(downward_closure(["1"]), 2)
        assert info.value.y == 2

    @given(trees(max_len=6))
    def test_reads_lex_least_level_member(self, t):
        f = tree_to_stable_coloring(t, t.horizon)
        for x, y, c in f.pairs():
            assert c == t.level(y)[0][x]


class TestStabilityBound:
    def test_fork_dead_branch(self):
        rep = stability_bound(downward_closure(["000", "1111"]), 0)
        assert rep.bound == 3
        assert rep.limit_color == 1

    def test_full_tree_has_no_dead_branches(self):
        t = downward_closure([format(i, "04b") for i in range(16)])
        rep = stability_bound(t, 1)
        assert (rep.bound, rep.limit_color) == (0, 0)

    def test_single_chain(self):
        rep = stability_bound(downward_closure(["1111"]), 2)
        assert (rep.bound, rep.limit_color) == (0, 1)

    def test_level_past_horizon_rejected(self):
        with pytest.raises(ValueError):
            stability_bound(downward_closure(["01"]), 2)

    @given(trees(max_len=7))
    def test_coloring_settles_past_the_bound(self, t):
        f = tree_to_stable_coloring(t, t.horizon)
        for x in range(min(t.horizon, 3)):
            rep = stability_bound(t, x)
            if rep.limit_color is None:
                continue
            for y in range(max(x, rep.bound) + 1, t.horizon + 1):
                assert f.value(x, y) == rep.limit_color


class TestSigmaToColoring:
    def test_shortest_long_string_wins(self):
        f = sigma_to_coloring(StringFamily.of(["10", "0110"]), 4)
        assert f.rows == ((1,), (1, 0), (0, 1, 1), (0, 1, 1, 0))

    def test_constant_family(self):
        fam = StringFamily.of(["0" * y for y in range(1, 6)])
        assert all(c == 0 for _, _, c in sigma_to_coloring(fam, 5).pairs())

    def test_alternating_family(self):
        fam = StringFamily.of(
            [("1" if y % 2 else "0") + "0" * (y - 1) for y in range(1, 7)]
        )
        f = sigma_to_coloring(fam, 6)
        assert [f.value(0, y) for y in range(1, 7)] == [1, 0, 1, 0, 1, 0]

    def test_no_long_string(self):
        with pytest.raises(NoLongString) as info:
            sigma_to_coloring(StringFamily.of(["01"]), 3)
        assert info.value.y == 3

    @given(string_families(max_len=8, max_members=8), st.integers(0, 9))
    def test_matches_a_rescan_per_column(self, fam, n):
        # Reference: for each y, scan every member for the lenlex-least long one.
        def rescan():
            rows = []
            for y in range(1, n + 1):
                long = [s for s in fam.members if len(s) >= y]
                if not long:
                    raise NoLongString(y)
                rows.append(tuple(min(long, key=lenlex)[x] for x in range(y)))
            return PairColoring(n, tuple(rows))

        try:
            expected = rescan()
        except NoLongString as exc:
            with pytest.raises(NoLongString) as info:
                sigma_to_coloring(fam, n)
            assert info.value.y == exc.y
        else:
            assert sigma_to_coloring(fam, n) == expected


class TestColoringToSigma:
    def test_zero_coloring(self):
        f = PairColoring.from_function(3, lambda x, y: 0)
        assert bits(coloring_to_sigma(f)) == ["0", "00", "000"]

    def test_columns_read_off(self):
        f = PairColoring.from_function(3, lambda x, y: 1 if x == 0 else 0)
        assert bits(coloring_to_sigma(f)) == ["1", "10", "100"]

    def test_empty(self):
        f = PairColoring.from_function(0, lambda x, y: 0)
        assert len(coloring_to_sigma(f)) == 0

    @given(colorings())
    def test_output_is_graded(self, f):
        assert coloring_to_sigma(f).graded

    @given(colorings())
    def test_round_trip_is_identity(self, f):
        assert sigma_to_coloring(coloring_to_sigma(f), f.n) == f

    @given(colorings())
    def test_members_spell_the_columns(self, f):
        columns = {
            BitString.of(f.value(x, y) for x in range(y)) for y in range(1, f.n + 1)
        }
        assert coloring_to_sigma(f).members == columns


class TestCeTreeToSigma:
    def test_padding_with_zeros(self):
        fam = ce_tree_to_sigma([(1, B("1")), (2, B("11")), (3, B("0"))], 3)
        assert bits(fam) == ["1", "11", "000"]

    def test_no_padding_needed(self):
        fam = ce_tree_to_sigma([(1, B("0")), (2, B("00")), (3, B("000"))], 3)
        assert bits(fam) == ["0", "00", "000"]

    def test_string_too_long_for_stage(self):
        with pytest.raises(BadStage) as info:
            ce_tree_to_sigma([(1, B("11"))], 1)
        assert info.value.s == 1

    def test_missing_stage(self):
        with pytest.raises(BadStage):
            ce_tree_to_sigma([(1, B("1"))], 2)

    def test_repeated_stage(self):
        with pytest.raises(BadStage):
            ce_tree_to_sigma([(1, B("1")), (1, B("0"))], 1)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), max_size=8))
    def test_inputs_prefix_outputs_and_vice_versa(self, shape):
        # shape[s-1] = (extra length budget, padding irrelevant marker)
        events = []
        for s, (cut, _) in enumerate(shape, start=1):
            events.append((s, B("10" * s).prefix(max(0, s - cut))))
        if not events:
            return
        fam = ce_tree_to_sigma(events, len(events))
        assert fam.graded and len(fam) == len(events)
        members = list(fam)
        for _, tau in events:
            assert any(tau.is_prefix_of(m) for m in members)
        inputs = [tau for _, tau in events]
        for m in members:
            assert any(tau.is_prefix_of(m) for tau in inputs)


class TestPi2TreeToSigma1:
    def test_bound_large_enough(self):
        assert pi2_tree_to_sigma1(PredMatrix.from_text("z >= y"), B("010"), 4)

    def test_bound_too_small(self):
        assert not pi2_tree_to_sigma1(PredMatrix.from_text("z >= y"), B("010"), 3)

    def test_always_true_matrix(self):
        assert pi2_tree_to_sigma1(ALWAYS, B("01"), 1)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            pi2_tree_to_sigma1(ALWAYS, B("0"), 0)

    @given(bitstrings(6), st.integers(1, 6), st.integers(0, 6))
    def test_monotone_in_bound(self, tau, bound, extra):
        phi = PredMatrix.from_text("z * 2 >= y + bit(y)")
        if pi2_tree_to_sigma1(phi, tau, bound):
            assert pi2_tree_to_sigma1(phi, tau, bound + extra)

    @given(bitstrings(6), st.integers(1, 8))
    def test_antitone_under_prefix(self, tau, bound):
        phi = PredMatrix.from_text("bit(y) + z >= y or len = 0")
        if pi2_tree_to_sigma1(phi, tau, bound):
            for shorter in tau.prefixes():
                assert pi2_tree_to_sigma1(phi, shorter, bound)


class TestYokoyamaH:
    def test_even_side(self):
        assert yokoyama_h(PARITY_0, PARITY_1, 2, 3, 64) == 3

    def test_odd_side(self):
        assert yokoyama_h(PARITY_0, PARITY_1, 3, 5, 64) == 5

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded) as info:
            yokoyama_h(NEVER, NEVER, 0, 1, 10)
        assert (info.value.x, info.value.y, info.value.cap) == (0, 1, 10)

    def test_trivial_side(self):
        assert yokoyama_h(ALWAYS, NEVER, 4, 1, 8) == 1

    def test_host_callable_matrix(self):
        theta = PredMatrix.from_callable(lambda x, m, n: n >= m + x)
        # x=1, y=3: need n >= m+1 for m<3, i.e. n=3 works for all; z=4.
        assert yokoyama_h(theta, NEVER, 1, 3, 16) == 4


class TestYokoyamaColoring:
    def test_parity_split(self):
        f = yokoyama_coloring(PARITY_0, PARITY_1, 5, 64)
        for x, y, c in f.pairs():
            assert c == x % 2

    def test_always_zero_side(self):
        f = yokoyama_coloring(ALWAYS, NEVER, 3, 8)
        assert all(c == 0 for _, _, c in f.pairs())

    def test_threshold_split(self):
        t0 = PredMatrix.from_text("n > m and x < 3")
        t1 = PredMatrix.from_text("n > m and x >= 3")
        f = yokoyama_coloring(t0, t1, 5, 64)
        for x, y, c in f.pairs():
            assert c == (0 if x < 3 else 1)

    def test_cap_propagates_with_pair(self):
        t0 = PredMatrix.from_text("x < 2 and n >= m")
        with pytest.raises(CapExceeded) as info:
            yokoyama_coloring(t0, NEVER, 3, 10)
        assert (info.value.x, info.value.y) == (2, 3)

    def test_matches_pointwise_h(self):
        # The tabulated coloring must agree with the direct mu-scan pointwise.
        t0 = PredMatrix.from_callable(lambda x, m, n: n >= m * (x % 3))
        t1 = PredMatrix.from_callable(lambda x, m, n: n >= m + 2)
        f = yokoyama_coloring(t0, t1, 6, 64)
        for x, y, c in f.pairs():
            h = yokoyama_h(t0, t1, x, y, 64)
            covered0 = all(
                any(t0(x=x, m=m, n=n) for n in range(h)) for m in range(y)
            )
            assert c == (0 if covered0 else 1)

    def test_color_certifies_covering(self):
        f = yokoyama_coloring(PARITY_0, PARITY_1, 6, 64)
        for x, y, c in f.pairs():
            h = yokoyama_h(PARITY_0, PARITY_1, x, y, 64)
            theta = (PARITY_0, PARITY_1)[c]
            assert all(
                any(theta(x=x, m=m, n=n) for n in range(h)) for m in range(y)
            )


class TestSetToPathTree:
    def test_evens(self):
        t = set_to_path_tree(N([0, 2, 4, 6]), 3)
        assert bits(t.members) == ["", "1", "10", "101"]

    def test_empty_set(self):
        assert bits(set_to_path_tree(NatSet(), 2).members) == ["", "0", "00"]

    def test_full_set(self):
        assert bits(set_to_path_tree(N([0, 1, 2]), 2).members) == ["", "1", "11"]

    @given(st.frozensets(st.integers(0, 15)), st.integers(0, 15))
    def test_one_member_per_length(self, a, depth):
        t = set_to_path_tree(N(a), depth)
        assert t.horizon == depth
        for l in range(depth + 1):
            level = t.level(l)
            assert len(level) == 1
            assert all(level[0][x] == (1 if x in a else 0) for x in range(l))
