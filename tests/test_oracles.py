from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    colorings,
    naive_ramsey,
    planted_colorings,
    ref_max_clique,
    ref_ramsey_search,
    string_families,
    trees,
)
from rkl.core import (
    BitString,
    NatSet,
    PairColoring,
    StringFamily,
    downward_closure,
    is_homog_string,
)
from rkl.oracles import (
    NotHomogeneousForColoring,
    _adjacency,
    _max_clique,
    check_stable,
    longest_path,
    ramsey_search,
    verify_reduction,
)
from rkl.reductions import sigma_to_coloring, tree_to_stable_coloring

N = NatSet.of


class TestRamseySearch:
    def test_parity_coloring(self):
        f = PairColoring.from_function(5, lambda x, y: (x + y) % 2)
        assert ramsey_search(f, 3) == (0, N([0, 2, 4]))

    def test_constant_coloring(self):
        f = PairColoring.from_function(4, lambda x, y: 1)
        assert ramsey_search(f, 5) == (1, N([0, 1, 2, 3, 4]))

    def test_unreachable_size_gives_none(self):
        f = PairColoring.from_function(1, lambda x, y: 0)
        assert ramsey_search(f, 3) is None

    def test_min_size_must_be_at_least_two(self):
        f = PairColoring.from_function(2, lambda x, y: 0)
        with pytest.raises(ValueError):
            ramsey_search(f, 1)

    def test_lex_least_of_max_size(self):
        # Two disjoint 0-triangles {0,1,2} and {3,4,5}; everything else color 1.
        def fn(x, y):
            return 0 if (x < 3) == (y < 3) else 1

        f = PairColoring.from_function(5, fn)
        result = ramsey_search(f, 3)
        assert result == naive_ramsey(f, 3)
        assert result[1] == N([0, 1, 2])

    @given(colorings(max_n=8), st.integers(2, 4))
    def test_matches_naive_oracle(self, f, min_size):
        assert ramsey_search(f, min_size) == naive_ramsey(f, min_size)

    @given(colorings(max_n=8))
    def test_result_is_monochromatic(self, f):
        result = ramsey_search(f, 2)
        if result is None:
            return
        c, h = result
        for x, y in itertools.combinations(h, 2):
            assert f.value(x, y) == c


class TestColourBoundedSearch:
    """The colour-bounded search against the popcount-bounded reference."""

    @given(planted_colorings(max_n=40), st.integers(2, 6))
    def test_matches_popcount_reference(self, f, min_size):
        assert ramsey_search(f, min_size) == ref_ramsey_search(f, min_size)

    @given(planted_colorings(max_n=24), st.integers(0, 1), st.integers(-1, 27), st.data())
    def test_max_clique_is_floor_or_the_true_size(self, f, c, floor, data):
        adj = _adjacency(f)[c]
        cand = data.draw(st.integers(0, (1 << (f.n + 1)) - 1), label="cand")
        assert _max_clique(adj, cand, floor) == max(floor, ref_max_clique(adj, cand))

    def test_color_one_wins_a_tie_with_a_lex_lesser_set(self):
        # The pentagon and its complement: both colors have largest sets of
        # two, and {0,1} (color 1) sorts before {0,2} (color 0).
        f = PairColoring.from_function(4, lambda x, y: int(y - x in (1, 4)))
        assert ramsey_search(f, 2) == (1, N([0, 1]))

    def test_color_one_strictly_larger(self):
        f = PairColoring.from_function(6, lambda x, y: int(x >= 2 or y == 1))
        assert ramsey_search(f, 2) == ref_ramsey_search(f, 2) == (1, N([2, 3, 4, 5, 6]))

    def test_color_zero_strictly_larger(self):
        f = PairColoring.from_function(6, lambda x, y: int(x < 2 and y != 1))
        assert ramsey_search(f, 2) == ref_ramsey_search(f, 2) == (0, N([2, 3, 4, 5, 6]))

    @pytest.mark.parametrize("planted", [0, 12])
    def test_benchmark_sized_coloring(self, planted):
        rng = random.Random(planted)
        rows = [[int(rng.random() < 0.4) for _ in range(y)] for y in range(73)]
        for x, y in itertools.combinations(sorted(rng.sample(range(73), planted)), 2):
            rows[y][x] = 1
        f = PairColoring(72, tuple(tuple(row) for row in rows[1:]))
        assert ramsey_search(f, 2) == ref_ramsey_search(f, 2)

    def test_clique_deeper_than_the_recursion_limit(self):
        # One search node per clique vertex: 1,100 open nodes at once.
        n = 1100
        assert n > sys.getrecursionlimit()
        universe = (1 << n) - 1
        adj = [universe ^ (1 << v) for v in range(n)]
        assert _max_clique(adj, universe) == n


class TestLongestPath:
    def test_full_tree_lex_least_leaf(self):
        t = downward_closure([format(i, "03b") for i in range(8)])
        assert longest_path(t).bits == "000"

    def test_unique_longest(self):
        assert longest_path(downward_closure(["10", "0"])).bits == "10"

    def test_root_only(self):
        assert longest_path(downward_closure([])).bits == ""

    @given(string_families())
    def test_length_matches_family_horizon(self, fam: StringFamily):
        assert len(longest_path(downward_closure(fam))) == fam.n


class TestCheckStable:
    def test_alternating_column_never_settles(self):
        f = PairColoring.from_function(6, lambda x, y: y % 2 if x == 0 else 0)
        ev = check_stable(f, 0)
        assert (ev.stabilized, ev.last_change, ev.final_color) == (False, 6, 0)

    def test_constant_coloring_settles_immediately(self):
        f = PairColoring.from_function(5, lambda x, y: 0)
        ev = check_stable(f, 2)
        assert (ev.stabilized, ev.last_change, ev.final_color) == (True, 3, 0)

    def test_fork_column(self):
        f = tree_to_stable_coloring(downward_closure(["000", "1111"]), 4)
        ev = check_stable(f, 0)
        assert (ev.stabilized, ev.last_change, ev.final_color) == (False, 4, 1)

    def test_x_must_be_in_range(self):
        f = PairColoring.from_function(3, lambda x, y: 0)
        with pytest.raises(ValueError):
            check_stable(f, 3)

    @given(colorings(max_n=8, min_n=1), st.integers(0, 7))
    def test_evidence_recomputes(self, f, x):
        if x >= f.n:
            return
        ev = check_stable(f, x)
        assert ev.final_color == f.value(x, f.n)
        changes = [
            y for y in range(x + 2, f.n + 1) if f.value(x, y) != f.value(x, y - 1)
        ]
        assert ev.last_change == (changes[-1] if changes else x + 1)
        assert ev.stabilized == (ev.last_change < f.n)


class TestVerifyReduction:
    def test_vacuous_single_element(self):
        t = downward_closure(["000", "1111"])
        f = tree_to_stable_coloring(t, 4)
        v = verify_reduction(t, f, N([4]), 0)
        assert v.ok and v.checked == (4,)

    def test_full_tree_confirms(self):
        t = downward_closure([format(i, "03b") for i in range(8)])
        f = tree_to_stable_coloring(t, 3)
        v = verify_reduction(t, f, N([0, 1, 2]), 0)
        assert v.ok and v.checked == (1, 2)

    def test_family_source(self):
        fam = StringFamily.of(["10", "0110"])
        f = sigma_to_coloring(fam, 4)
        result = ramsey_search(f, 2)
        v = verify_reduction(fam, f, result[1], result[0])
        assert v.ok

    def test_mutated_coloring_breaks_h_homogeneity(self):
        t = downward_closure([format(i, "03b") for i in range(8)])
        f = tree_to_stable_coloring(t, 3)
        rows = [list(r) for r in f.rows]
        rows[2][1] ^= 1  # flip f(1,3)
        bad = PairColoring(3, tuple(tuple(r) for r in rows))
        with pytest.raises(NotHomogeneousForColoring) as info:
            verify_reduction(t, bad, N([1, 2, 3]), 0)
        assert (info.value.x, info.value.y) == (1, 3)

    def test_mutated_coloring_yields_counterexample_after_research(self):
        # Mutate one pair, rerun the search so the precondition holds again,
        # and the recomputed witnesses expose the mismatch.
        t = downward_closure(["000", "1111"])
        f = tree_to_stable_coloring(t, 4)
        rows = [list(r) for r in f.rows]
        rows[0][0] = 1  # flip f(0,1)
        mutated = PairColoring(4, tuple(tuple(r) for r in rows))
        c, h = ramsey_search(mutated, 2)
        assert (c, h) == (1, N([0, 1, 4]))
        v = verify_reduction(t, mutated, h, c)
        assert not v.ok
        assert v.counterexamples == (1,)

    def test_source_type_checked(self):
        f = PairColoring.from_function(1, lambda x, y: 0)
        with pytest.raises(TypeError):
            verify_reduction("not a source", f, NatSet(), 0)

    def test_elements_outside_column_range_are_skipped(self):
        t = downward_closure(["00"])
        f = tree_to_stable_coloring(t, 2)
        v = verify_reduction(t, f, N([0, 2, 9]), 0)
        assert v.ok and v.checked == (2,)

    @given(trees(max_len=6))
    def test_search_results_always_verify_on_trees(self, t):
        f = tree_to_stable_coloring(t, t.horizon)
        result = ramsey_search(f, 2)
        if result is None:
            return
        c, h = result
        v = verify_reduction(t, f, h, c)
        assert v.ok and not v.counterexamples
        for y in v.checked:
            assert is_homog_string(h, t.level(y)[0], c)
