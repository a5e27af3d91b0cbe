from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    colorings,
    from_function,
    naive_ramsey,
    planted_colorings,
    ref_adjacency,
    ref_by_degree,
    ref_check_stable,
    ref_masks,
    ref_max_clique,
    ref_ramsey_search,
    string_families,
    trees,
)
from rkl.core import (
    NatSet,
    PairColoring,
    Refusal,
    StringFamily,
    downward_closure,
    is_homog_string,
)
from rkl import oracles
from rkl.oracles import (
    _graphs,
    _greedy_clique,
    _max_clique,
    check_all_stable,
    check_stable,
    longest_path,
    ramsey_search,
    verify_reduction,
)
from rkl.reductions import sigma_to_coloring, tree_to_stable_coloring

N = NatSet.of


def x_only_colorings(max_n: int = 40):
    """Colorings whose color depends only on x, the shape yoko emits."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n + 1, max_size=n + 1).map(
            lambda col: from_function(n, lambda x, y: col[x])
        )
    )


def block_colorings(max_n: int = 40, max_blocks: int = 5):
    """Colorings constant on each pair of blocks: vertex v lies in block
    blocks[v], and the pair (x, y) takes the color table[blocks[x]][blocks[y]]."""

    def build(n: int, k: int, data) -> PairColoring:
        blocks = data.draw(st.lists(st.integers(0, k - 1), min_size=n + 1, max_size=n + 1))
        row = st.lists(st.integers(0, 1), min_size=k, max_size=k)
        table = data.draw(st.lists(row, min_size=k, max_size=k))
        return from_function(n, lambda x, y: table[blocks[x]][blocks[y]])

    return st.builds(build, st.integers(0, max_n), st.integers(1, max_blocks), st.data())


def is_clique_within(adj: list[int], cand: int, clique: list[int]) -> bool:
    return (
        len(set(clique)) == len(clique)
        and all(cand >> v & 1 for v in clique)
        and all(adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
    )


class TestRamseySearch:
    def test_parity_coloring(self):
        f = from_function(5, lambda x, y: (x + y) % 2)
        assert ramsey_search(f, 3) == (0, N([0, 2, 4]))

    def test_constant_coloring(self):
        f = from_function(4, lambda x, y: 1)
        assert ramsey_search(f, 5) == (1, N([0, 1, 2, 3, 4]))

    def test_unreachable_size_gives_none(self):
        f = from_function(1, lambda x, y: 0)
        assert ramsey_search(f, 3) is None

    def test_min_size_must_be_at_least_two(self):
        f = from_function(2, lambda x, y: 0)
        with pytest.raises(ValueError):
            ramsey_search(f, 1)

    def test_lex_least_of_max_size(self):
        # Two disjoint 0-triangles {0,1,2} and {3,4,5}; everything else color 1.
        def fn(x, y):
            return 0 if (x < 3) == (y < 3) else 1

        f = from_function(5, fn)
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

    @given(x_only_colorings(max_n=40), st.integers(2, 6))
    def test_x_only_colorings_match_popcount_reference(self, f, min_size):
        assert ramsey_search(f, min_size) == ref_ramsey_search(f, min_size)

    @given(block_colorings(max_n=40), st.integers(2, 6))
    def test_block_colorings_match_popcount_reference(self, f, min_size):
        assert ramsey_search(f, min_size) == ref_ramsey_search(f, min_size)

    @given(planted_colorings(max_n=24), st.integers(0, 1), st.integers(-1, 27), st.data())
    def test_max_clique_is_floor_or_the_true_size(self, f, c, floor, data):
        adj = ref_adjacency(f)[c]
        masks = ref_masks(adj)
        cand = data.draw(st.integers(0, (1 << (f.n + 1)) - 1), label="cand")
        true_size = ref_max_clique(adj, cand)
        size, clique = _max_clique(masks, cand, floor)
        assert size == max(floor, true_size)
        assert (clique is None) == (size == floor)
        if clique is not None:
            assert len(clique) == size and is_clique_within(adj, cand, clique)
        ceiling = data.draw(st.integers(floor + 1, 28), label="ceiling")
        size, clique = _max_clique(masks, cand, floor, ceiling)
        if true_size > floor:
            assert size == min(ceiling, true_size)
            assert len(clique) == size and is_clique_within(adj, cand, clique)
        else:
            assert (size, clique) == (floor, None)

    @given(st.one_of(colorings(max_n=12), planted_colorings(max_n=40)))
    @example(from_function(0, lambda x, y: 0))
    @example(from_function(1, lambda x, y: 0))
    @example(from_function(1, lambda x, y: 1))
    def test_graphs_match_the_pairs_renumbered_mask_by_mask(self, f):
        assert _graphs(f) == [ref_by_degree(adj) for adj in ref_adjacency(f)]

    @given(planted_colorings(max_n=30), st.integers(0, 1))
    def test_degree_renumbering_is_an_isomorphism(self, f, c):
        adj = ref_adjacency(f)[c]
        (renumbered, avoid, bit), order, pos = _graphs(f)[c]
        size = len(adj)
        assert sorted(order) == list(range(size))
        assert [order[pos[v]] for v in range(size)] == list(range(size))
        assert bit == [1 << v for v in range(size)]
        for u in range(size):
            for v in range(size):
                assert renumbered[pos[u]] >> pos[v] & 1 == adj[u] >> v & 1
                # avoid keeps exactly the vertices that are neither u nor
                # its neighbours.
                assert avoid[pos[u]] >> pos[v] & 1 == (u != v and not adj[u] >> v & 1)

    @given(planted_colorings(max_n=30), st.integers(0, 1))
    def test_degrees_do_not_decrease_in_the_new_order(self, f, c):
        (renumbered, _, _), order, _ = _graphs(f)[c]
        degrees = [row.bit_count() for row in renumbered]
        assert degrees == sorted(degrees)
        # Equal degrees keep their old order, read from the top down.
        assert all(
            order[i] > order[i + 1] for i in range(len(order) - 1) if degrees[i] == degrees[i + 1]
        )

    @given(st.one_of(colorings(max_n=12), planted_colorings(max_n=40)), st.integers(2, 6))
    # Color 0's largest set has four vertices and the greedy clique three.
    @example(PairColoring(7, ("0", "01", "010", "0000", "10101", "100010", "1011110")), 2)
    def test_seeded_search_hands_on_the_greedy_clique_unless_beaten(self, f, min_size):
        masks = _graphs(f)[0][0]
        universe = (1 << (f.n + 1)) - 1
        seed = _greedy_clique(masks[0])
        assert seed and is_clique_within(masks[0], universe, seed)
        sizes = [ref_max_clique(adj, universe) for adj in ref_adjacency(f)]
        witnesses = []
        lex = oracles._lex_least_clique

        def spy(*args):
            witnesses.append(args[-1])
            return lex(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "_lex_least_clique", spy)
            assert ramsey_search(f, min_size) == ref_ramsey_search(f, min_size)
        if sizes[0] == max(sizes) >= min_size:
            # Color 0's witness is handed on first.
            if sizes[0] == len(seed):
                assert witnesses[0] == seed
            else:
                assert len(witnesses[0]) == sizes[0] > len(seed)

    @pytest.mark.parametrize("c", [0, 1])
    def test_constant_coloring_asks_no_lex_query(self, c, monkeypatch):
        # The size search's clique is already the lex-least one, so only
        # the two size searches run.
        calls = []
        search = oracles._max_clique
        monkeypatch.setattr(oracles, "_max_clique", lambda *a: calls.append(a) or search(*a))
        f = from_function(40, lambda x, y: c)
        assert ramsey_search(f, 2) == (c, N(range(41)))
        assert len(calls) == 2

    def test_color_one_wins_a_tie_with_a_lex_lesser_set(self):
        # The pentagon and its complement: both colors have largest sets of
        # two, and {0,1} (color 1) sorts before {0,2} (color 0).
        f = from_function(4, lambda x, y: int(y - x in (1, 4)))
        assert ramsey_search(f, 2) == (1, N([0, 1]))

    def test_color_one_strictly_larger(self):
        f = from_function(6, lambda x, y: int(x >= 2 or y == 1))
        assert ramsey_search(f, 2) == ref_ramsey_search(f, 2) == (1, N([2, 3, 4, 5, 6]))

    def test_color_zero_strictly_larger(self):
        f = from_function(6, lambda x, y: int(x < 2 and y != 1))
        assert ramsey_search(f, 2) == ref_ramsey_search(f, 2) == (0, N([2, 3, 4, 5, 6]))

    @pytest.mark.parametrize("c", [0, 1])
    def test_constant_coloring_of_401_points(self, c):
        # Every vertex joins one clique: the answer is read off, not searched.
        f = from_function(400, lambda x, y: c)
        assert ramsey_search(f, 2) == (c, N(range(401)))

    @pytest.mark.parametrize("planted", [0, 12])
    def test_benchmark_sized_coloring(self, planted):
        rng = random.Random(planted)
        rows = [[int(rng.random() < 0.4) for _ in range(y)] for y in range(73)]
        for x, y in itertools.combinations(sorted(rng.sample(range(73), planted)), 2):
            rows[y][x] = 1
        f = PairColoring(72, tuple("".join(map(str, row)) for row in rows[1:]))
        assert ramsey_search(f, 2) == ref_ramsey_search(f, 2)

    def test_clique_deeper_than_the_recursion_limit(self):
        # One search node per clique vertex: 1,100 open nodes at once.
        n = 1100
        assert n > sys.getrecursionlimit()
        universe = (1 << n) - 1
        adj = [universe ^ (1 << v) for v in range(n)]
        assert _max_clique(ref_masks(adj), universe)[0] == n


class TestLongestPath:
    def test_full_tree_lex_least_leaf(self):
        t = downward_closure([format(i, "03b") for i in range(8)])
        assert longest_path(t) == "000"

    def test_unique_longest(self):
        assert longest_path(downward_closure(["10", "0"])) == "10"

    def test_root_only(self):
        assert longest_path(downward_closure([])) == ""

    @given(string_families())
    def test_length_matches_family_horizon(self, fam: StringFamily):
        assert len(longest_path(downward_closure(fam))) == fam.n


class TestCheckStable:
    def test_alternating_column_never_settles(self):
        f = from_function(6, lambda x, y: y % 2 if x == 0 else 0)
        ev = check_stable(f, 0)
        assert (ev.stabilized, ev.last_change, ev.final_color) == (False, 6, 0)

    def test_constant_coloring_settles_immediately(self):
        f = from_function(5, lambda x, y: 0)
        ev = check_stable(f, 2)
        assert (ev.stabilized, ev.last_change, ev.final_color) == (True, 3, 0)

    def test_fork_column(self):
        f = tree_to_stable_coloring(downward_closure(["000", "1111"]), 4)
        ev = check_stable(f, 0)
        assert (ev.stabilized, ev.last_change, ev.final_color) == (False, 4, 1)

    def test_x_must_be_in_range(self):
        f = from_function(3, lambda x, y: 0)
        with pytest.raises(ValueError):
            check_stable(f, 3)

    @given(st.one_of(colorings(max_n=40), planted_colorings(max_n=40), x_only_colorings(40)))
    def test_every_column_matches_the_per_pair_loop(self, f):
        evidence = [ref_check_stable(f, x) for x in range(f.n)]
        assert check_all_stable(f) == evidence
        assert [check_stable(f, x) for x in range(f.n)] == evidence

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
        fam = StringFamily(["10", "0110"])
        f = sigma_to_coloring(fam, 4)
        result = ramsey_search(f, 2)
        v = verify_reduction(fam, f, result[1], result[0])
        assert v.ok

    def test_mutated_coloring_breaks_h_homogeneity(self):
        t = downward_closure([format(i, "03b") for i in range(8)])
        f = tree_to_stable_coloring(t, 3)
        rows = [list(r) for r in f.rows]
        rows[2][1] = "10"[int(rows[2][1])]  # flip f(1,3)
        bad = PairColoring(3, tuple(map("".join, rows)))
        v = verify_reduction(t, bad, N([1, 2, 3]), 0)
        assert v.broken == (1, 3)
        assert not v.ok and v.checked == v.counterexamples == ()

    def test_mutated_coloring_yields_counterexample_after_research(self):
        # Mutate one pair, rerun the search so the precondition holds again,
        # and the recomputed witnesses expose the mismatch.
        t = downward_closure(["000", "1111"])
        f = tree_to_stable_coloring(t, 4)
        rows = [list(r) for r in f.rows]
        rows[0][0] = "1"  # flip f(0,1)
        mutated = PairColoring(4, tuple(map("".join, rows)))
        c, h = ramsey_search(mutated, 2)
        assert (c, h) == (1, N([0, 1, 4]))
        v = verify_reduction(t, mutated, h, c)
        assert not v.ok
        assert v.counterexamples == (1,)

    def test_source_type_checked(self):
        # The source's own type words the refusal for a column past its end.
        f = from_function(3, lambda x, y: 0)
        with pytest.raises(Refusal, match="^no tree member of length 3$"):
            verify_reduction(downward_closure(["00"]), f, N([1, 3]), 0)
        with pytest.raises(Refusal, match="^no family member of length at least 3$"):
            verify_reduction(StringFamily(["00"]), f, N([1, 3]), 0)

    @pytest.mark.parametrize("h", [N([4]), N([])])
    @pytest.mark.parametrize("c", [2, -1])
    def test_color_other_than_0_or_1_is_refused(self, h, c):
        t = downward_closure(["000", "1111"])
        f = tree_to_stable_coloring(t, 4)
        with pytest.raises(Refusal, match=f"^a color is 0 or 1, not {c}$"):
            verify_reduction(t, f, h, c)

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
