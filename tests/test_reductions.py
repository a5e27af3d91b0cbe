from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    PI2_TEMPLATES,
    YOKO_TEMPLATES,
    PredMatrix,
    bitstrings,
    colorings,
    covers,
    from_function,
    graded_families,
    is_prefix_of,
    lenlex_key,
    matrix_texts,
    nonempty_bitstrings,
    pairs,
    prefix,
    prefixes,
    ref_pi2,
    string_families,
    trees,
    yokoyama_h,
)
from rkl.core import (
    NatSet,
    PairColoring,
    Refusal,
    StringFamily,
    downward_closure,
    is_homog_string,
)
from rkl.reductions import (
    PI2_NAMES,
    YOKO_NAMES,
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

N = NatSet.of


def lenlex_sorted(strings) -> list[str]:
    return sorted(strings, key=lenlex_key)


PARITY_0 = PredMatrix.from_text("x mod 2 = 0 and n >= m")
PARITY_1 = PredMatrix.from_text("x mod 2 = 1 and n >= m")
ALWAYS = PredMatrix.from_text("0 = 0")
NEVER = PredMatrix.from_text("0 = 1")


class TestPathPigeonhole:
    def test_majority_zero(self):
        assert path_pigeonhole("0100110") == (0, N([0, 2, 3, 6]))

    def test_constant_path(self):
        assert path_pigeonhole("1111") == (1, N([0, 1, 2, 3]))

    def test_tie_breaks_to_zero(self):
        assert path_pigeonhole("01") == (0, N([0]))

    def test_empty_path_is_color_zero(self):
        assert path_pigeonhole("") == (0, NatSet())

    @given(nonempty_bitstrings(14))
    def test_positions_cover_majority(self, p: str):
        c, h = path_pigeonhole(p)
        assert all(p[x] == "01"[c] for x in h)
        assert 2 * len(h) >= len(p)
        assert is_homog_string(h, p, c)


class TestTreeToStableColoring:
    def test_full_tree_is_all_zero(self):
        t = downward_closure([format(i, "03b") for i in range(8)])
        f = tree_to_stable_coloring(t, 3)
        assert all(c == 0 for _, _, c in pairs(f))

    def test_fork(self):
        t = downward_closure(["000", "1111"])
        f = tree_to_stable_coloring(t, 4)
        assert f.rows == ("0", "00", "000", "1111")

    def test_missing_level(self):
        with pytest.raises(Refusal, match="^no tree member of length 2$"):
            tree_to_stable_coloring(downward_closure(["1"]), 2)

    @given(trees(max_len=6))
    def test_reads_lex_least_level_member(self, t):
        f = tree_to_stable_coloring(t, t.horizon)
        for x, y, c in pairs(f):
            assert c == int(t.level(y)[0][x])


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
        f = sigma_to_coloring(StringFamily(["10", "0110"]), 4)
        assert f.rows == ("1", "10", "011", "0110")

    def test_constant_family(self):
        fam = StringFamily(["0" * y for y in range(1, 6)])
        assert all(c == 0 for _, _, c in pairs(sigma_to_coloring(fam, 5)))

    def test_alternating_family(self):
        fam = StringFamily(
            [("1" if y % 2 else "0") + "0" * (y - 1) for y in range(1, 7)]
        )
        f = sigma_to_coloring(fam, 6)
        assert [f.value(0, y) for y in range(1, 7)] == [1, 0, 1, 0, 1, 0]

    def test_no_long_string(self):
        with pytest.raises(Refusal, match="^no family member of length at least 3$"):
            sigma_to_coloring(StringFamily(["01"]), 3)

    @given(string_families(max_len=8, max_members=8), st.integers(0, 9))
    def test_matches_a_rescan_per_column(self, fam, n):
        # Reference: for each y, scan every member for the lenlex-least long one.
        def rescan():
            rows = []
            for y in range(1, n + 1):
                long = [s for s in fam if len(s) >= y]
                if not long:
                    raise Refusal(f"no family member of length at least {y}")
                rows.append(min(long, key=lenlex_key)[:y])
            return PairColoring(n, tuple(rows))

        try:
            expected = rescan()
        except Refusal as exc:
            with pytest.raises(Refusal) as info:
                sigma_to_coloring(fam, n)
            assert str(info.value) == str(exc)
        else:
            assert sigma_to_coloring(fam, n) == expected


class TestColoringToSigma:
    def test_zero_coloring(self):
        f = from_function(3, lambda x, y: 0)
        assert lenlex_sorted(coloring_to_sigma(f)) == ["0", "00", "000"]

    def test_columns_read_off(self):
        f = from_function(3, lambda x, y: 1 if x == 0 else 0)
        assert lenlex_sorted(coloring_to_sigma(f)) == ["1", "10", "100"]

    def test_empty(self):
        f = from_function(0, lambda x, y: 0)
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
            "".join(str(f.value(x, y)) for x in range(y)) for y in range(1, f.n + 1)
        }
        assert frozenset(coloring_to_sigma(f)) == columns


class TestCeTreeToSigma:
    def test_padding_with_zeros(self):
        fam = ce_tree_to_sigma({1: "1", 2: "11", 3: "0"})
        assert lenlex_sorted(fam) == ["1", "11", "000"]

    def test_no_padding_needed(self):
        fam = ce_tree_to_sigma({1: "0", 2: "00", 3: "000"})
        assert lenlex_sorted(fam) == ["0", "00", "000"]

    def test_string_too_long_for_stage(self):
        with pytest.raises(Refusal, match="^stage 1 holds '11', longer than 1$"):
            ce_tree_to_sigma({1: "11"})

    def test_non_binary_string_named_by_stage(self):
        with pytest.raises(Refusal, match="^stage 2 holds '0a', not a binary string$"):
            ce_tree_to_sigma({1: "1", 2: "0a"})

    def test_missing_stage(self):
        with pytest.raises(Refusal, match="^stage 2 is missing$"):
            ce_tree_to_sigma({1: "1", 3: "0"})

    @pytest.mark.parametrize("low", [0, -1])
    def test_stage_below_one(self, low):
        with pytest.raises(Refusal, match=rf"^stage {low} is outside 1\.\.2$"):
            ce_tree_to_sigma({1: "1", low: "", 2: "0"})

    @pytest.mark.parametrize(
        "key, why", [("1", "not an integer"), (1.0, "not an integer"),
                     (True, "not an integer"), (0, r"outside 1\.\.0")], ids=repr
    )
    def test_key_that_is_no_stage(self, key, why):
        with pytest.raises(Refusal, match=rf"^stage {key!r} is {why}$"):
            ce_tree_to_sigma({key: "0"})

    def test_empty_table_gives_the_empty_family(self):
        assert ce_tree_to_sigma({}) == StringFamily()

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), max_size=8))
    def test_inputs_prefix_outputs_and_vice_versa(self, shape):
        # shape[s-1] = (extra length budget, padding irrelevant marker)
        events = []
        for s, (cut, _) in enumerate(shape, start=1):
            events.append((s, prefix("10" * s, max(0, s - cut))))
        if not events:
            return
        fam = ce_tree_to_sigma(dict(events))
        assert fam.graded and len(fam) == len(events)
        members = list(fam)
        for _, tau in events:
            assert any(is_prefix_of(tau, m) for m in members)
        inputs = [tau for _, tau in events]
        for m in members:
            assert any(is_prefix_of(tau, m) for tau in inputs)


pi2_matrices = matrix_texts(PI2_TEMPLATES, 3).map(
    lambda text: PredMatrix.from_text(text, PI2_NAMES)
)


class TestPi2TreeToSigma1:
    def test_bound_large_enough(self):
        assert pi2_tree_to_sigma1(PredMatrix.from_text("z >= y"), "010", 4)

    def test_bound_too_small(self):
        assert not pi2_tree_to_sigma1(PredMatrix.from_text("z >= y"), "010", 3)

    def test_always_true_matrix(self):
        assert pi2_tree_to_sigma1(ALWAYS, "01", 1)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            pi2_tree_to_sigma1(ALWAYS, "0", 0)

    @given(pi2_matrices, bitstrings(6), st.integers(1, 8))
    def test_matches_pointwise_scan(self, phi, tau, bound):
        assert pi2_tree_to_sigma1(phi, tau, bound) == ref_pi2(phi, tau, bound)

    @given(bitstrings(6), st.integers(1, 6), st.integers(0, 6))
    def test_monotone_in_bound(self, tau, bound, extra):
        phi = PredMatrix.from_text("z * 2 >= y + bit(y)")
        if pi2_tree_to_sigma1(phi, tau, bound):
            assert pi2_tree_to_sigma1(phi, tau, bound + extra)

    @given(bitstrings(6), st.integers(1, 8))
    def test_antitone_under_prefix(self, tau, bound):
        phi = PredMatrix.from_text("bit(y) + z >= y or len = 0")
        if pi2_tree_to_sigma1(phi, tau, bound):
            for shorter in prefixes(tau):
                assert pi2_tree_to_sigma1(phi, shorter, bound)


yoko_matrices = matrix_texts(YOKO_TEMPLATES, 4).map(
    lambda text: PredMatrix.from_text(text, YOKO_NAMES)
)


def pointwise_outcome(t0, t1, n: int, cap: int):
    """yokoyama_coloring read off yokoyama_h pair by pair, or the message
    of the first refusal that scan meets."""
    columns: list[list[str]] = [[] for _ in range(n + 1)]
    for x in range(n):
        for y in range(x + 1, n + 1):
            try:
                h = yokoyama_h(t0, t1, x, y, cap)
            except Refusal as exc:
                return ("cap", str(exc))
            columns[y].append("0" if covers(t0, x, y, h) else "1")
    return ("coloring", PairColoring(n, tuple("".join(columns[y]) for y in range(1, n + 1))))


class TestYokoyamaH:
    def test_even_side(self):
        assert yokoyama_h(PARITY_0, PARITY_1, 2, 3, 64) == 3

    def test_odd_side(self):
        assert yokoyama_h(PARITY_0, PARITY_1, 3, 5, 64) == 5

    def test_cap_exceeded(self):
        with pytest.raises(Refusal, match=r"^no z <= 10 covers \(x=0, y=1\)$"):
            yokoyama_h(NEVER, NEVER, 0, 1, 10)

    def test_trivial_side(self):
        assert yokoyama_h(ALWAYS, NEVER, 4, 1, 8) == 1

    def test_host_callable_matrix(self):
        theta = PredMatrix.from_text("n >= m + x")
        # x=1, y=3: need n >= m+1 for m<3, i.e. n=3 works for all; z=4.
        assert yokoyama_h(theta, NEVER, 1, 3, 16) == 4


class TestYokoyamaColoring:
    def test_parity_split(self):
        f = yokoyama_coloring(PARITY_0, PARITY_1, 5, 64)
        for x, y, c in pairs(f):
            assert c == x % 2

    def test_always_zero_side(self):
        f = yokoyama_coloring(ALWAYS, NEVER, 3, 8)
        assert all(c == 0 for _, _, c in pairs(f))

    def test_threshold_split(self):
        t0 = PredMatrix.from_text("n > m and x < 3")
        t1 = PredMatrix.from_text("n > m and x >= 3")
        f = yokoyama_coloring(t0, t1, 5, 64)
        for x, y, c in pairs(f):
            assert c == (0 if x < 3 else 1)

    def test_cap_propagates_with_pair(self):
        t0 = PredMatrix.from_text("x < 2 and n >= m")
        with pytest.raises(Refusal, match=r"^no z <= 10 covers \(x=2, y=3\)$"):
            yokoyama_coloring(t0, NEVER, 3, 10)

    def test_matches_pointwise_h(self):
        # The tabulated coloring must agree with the direct mu-scan pointwise.
        t0 = PredMatrix.from_text("n >= m * (x mod 3)")
        t1 = PredMatrix.from_text("n >= m + 2")
        f = yokoyama_coloring(t0, t1, 6, 64)
        for x, y, c in pairs(f):
            h = yokoyama_h(t0, t1, x, y, 64)
            covered0 = all(
                any(t0(x=x, m=m, n=n) for n in range(h)) for m in range(y)
            )
            assert c == (0 if covered0 else 1)

    def test_cap_exceeded_where_the_pointwise_scan_stops(self):
        # At x = 0 row m has witness m, so rows m >= cap have none and the
        # running cover bound must fail at y = cap + 1, not sooner or later.
        theta = PredMatrix.from_text("n >= m + x")
        message = "no z <= 4 covers (x=0, y=5)"
        with pytest.raises(Refusal) as info:
            yokoyama_coloring(theta, NEVER, 6, 4)
        assert str(info.value) == message
        assert pointwise_outcome(theta, NEVER, 6, 4) == ("cap", message)

    @given(yoko_matrices, yoko_matrices, st.integers(0, 6), st.integers(1, 6))
    def test_matches_pointwise_scan(self, t0, t1, n, cap):
        try:
            f = ("coloring", yokoyama_coloring(t0, t1, n, cap))
        except Refusal as exc:
            f = ("cap", str(exc))
        assert f == pointwise_outcome(t0, t1, n, cap)

    def test_color_certifies_covering(self):
        f = yokoyama_coloring(PARITY_0, PARITY_1, 6, 64)
        for x, y, c in pairs(f):
            h = yokoyama_h(PARITY_0, PARITY_1, x, y, 64)
            theta = (PARITY_0, PARITY_1)[c]
            assert all(
                any(theta(x=x, m=m, n=n) for n in range(h)) for m in range(y)
            )


class TestSetToPathTree:
    def test_evens(self):
        t = set_to_path_tree(N([0, 2, 4, 6]), 3)
        assert lenlex_sorted(t) == ["", "1", "10", "101"]

    def test_empty_set(self):
        assert lenlex_sorted(set_to_path_tree(NatSet(), 2)) == ["", "0", "00"]

    def test_full_set(self):
        assert lenlex_sorted(set_to_path_tree(N([0, 1, 2]), 2)) == ["", "1", "11"]

    @given(st.integers(0, 12).flatmap(lambda l: st.tuples(st.just(l), st.frozensets(
        st.integers(0, l + 1) | st.sampled_from([l, l + 1, l + 2, 10**9]), max_size=8
    ))))
    def test_ones_set_by_index(self, case):
        # Elements at, just past and far past the prefix length l.
        l, a = case
        chi = "".join("1" if x in set(a) else "0" for x in range(l))
        t = set_to_path_tree(N(a), l)
        assert t.text_levels == tuple((chi[:i],) for i in range(l + 1))

    @given(st.frozensets(st.integers(0, 15)), st.integers(0, 15))
    def test_one_member_per_length(self, a, depth):
        t = set_to_path_tree(N(a), depth)
        assert t.horizon == depth
        for l in range(depth + 1):
            level = t.level(l)
            assert len(level) == 1
            assert all(level[0][x] == ("1" if x in a else "0") for x in range(l))
