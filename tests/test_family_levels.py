"""String families from every producer against the plain reference family in
helpers, and the sigma_y reader against brute force on families and trees."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import RefFamily, colorings, from_function, natsets, pairs, ref_closure
from rkl.core import (
    FinTree,
    PairColoring,
    Refusal,
    StringFamily,
    downward_closure,
)
from rkl.formats import parse_sigma, render_sigma
from rkl.oracles import verify_reduction
from rkl.reductions import (
    ce_tree_to_sigma,
    coloring_to_sigma,
    sigma_to_coloring,
    tree_to_stable_coloring,
)

texts = st.text(alphabet="01", max_size=8)


@st.composite
def near_graded(draw) -> list[str]:
    """One text of each length 1..n, then maybe the empty text, a second
    text of some length, or one length left out."""
    n = draw(st.integers(0, 6))
    chosen = [draw(st.text(alphabet="01", min_size=l, max_size=l)) for l in range(1, n + 1)]
    change = draw(st.sampled_from(["none", "root", "twin", "gap"]))
    if change == "root":
        chosen.append("")
    elif change == "twin" and n:
        s = chosen[draw(st.integers(0, n - 1))]
        chosen.append(s[:-1] + ("1" if s[-1] == "0" else "0"))
    elif change == "gap" and n:
        chosen.pop(draw(st.integers(0, n - 1)))
    return chosen


families = st.one_of(st.lists(texts, max_size=10), near_graded())


def assert_matches(fam: StringFamily, ref: RefFamily) -> None:
    assert frozenset(fam) == frozenset(ref.texts)
    assert fam.n == ref.n
    assert fam.graded == ref.graded
    assert len(fam) == len(ref.texts)
    assert list(fam) == ref.texts
    for l in range(-1, ref.n + 2):
        assert fam.level(l) == ref.level(l)
    assert render_sigma(fam) == ref.render()


def sigma_file(strings, order: list[int]) -> str:
    """The strings one per line, in the given order, '-' for the empty one."""
    return "".join((strings[i] or "-") + "\n" for i in order)


def check_constructors_and_parser(strings, rng) -> None:
    """The constructor, fed a list or a one-pass iterator, and the parser,
    fed the lines in a shuffled order, give the reference family and equal,
    equally hashed values."""
    ref = RefFamily(strings)
    unique = sorted(set(strings))
    order = list(range(len(unique)))
    rng.shuffle(order)
    built = [
        StringFamily(strings),
        StringFamily(s for s in strings),
        parse_sigma(sigma_file(unique, order)),
    ]
    for fam in built:
        assert_matches(fam, ref)
        assert fam == built[0] and hash(fam) == hash(built[0])
    assert parse_sigma(render_sigma(built[0])) == built[0]


class TestProducers:
    @given(st.lists(texts, max_size=10), st.randoms(use_true_random=False))
    def test_constructors_and_parser(self, strings, rng):
        check_constructors_and_parser(strings, rng)

    @given(near_graded(), st.randoms(use_true_random=False))
    def test_constructors_and_parser_near_graded(self, strings, rng):
        check_constructors_and_parser(strings, rng)

    @given(colorings(max_n=9))
    def test_coloring_to_sigma(self, f: PairColoring):
        columns = ["".join(str(f.value(x, y)) for x in range(y)) for y in range(1, f.n + 1)]
        fam = coloring_to_sigma(f)
        assert_matches(fam, RefFamily(columns))
        assert fam.graded
        assert fam == StringFamily(columns)

    @given(st.integers(0, 7).flatmap(
        lambda k: st.tuples(*[st.text(alphabet="01", max_size=s) for s in range(1, k + 1)])
    ), st.randoms(use_true_random=False))
    def test_ce_tree_to_sigma(self, staged, rng):
        events = list(enumerate(staged, start=1))
        rng.shuffle(events)
        padded = [tau.ljust(s, "0") for s, tau in enumerate(staged, start=1)]
        fam = ce_tree_to_sigma(events, len(staged))
        assert_matches(fam, RefFamily(padded))
        assert fam.graded
        assert fam == StringFamily(padded)

    def test_graded_needs_one_text_per_level(self):
        assert StringFamily(["0", "10"]).graded
        assert not StringFamily(["0", "1", "10"]).graded
        assert not StringFamily(["", "0"]).graded
        assert not StringFamily(["10"]).graded
        assert StringFamily().graded and StringFamily().n == 0

    def test_families_are_not_trees(self):
        strings = ["", "0", "1"]
        assert downward_closure(strings).text_levels == StringFamily(strings).text_levels
        assert downward_closure(strings) != StringFamily(strings)
        assert not isinstance(StringFamily(strings), FinTree)


class TestSigmaReader:
    @given(families, st.integers(0, 10))
    def test_family_sigma_text(self, strings, y):
        expected = RefFamily(strings).sigma(y)
        if expected is None:
            message = f"^no family member of length at least {y}$"
            with pytest.raises(Refusal, match=message):
                StringFamily(strings).sigma_text(y)
            return
        assert StringFamily(strings).sigma_text(y) == expected

    @given(st.lists(texts, max_size=8), st.integers(0, 10))
    def test_tree_sigma_text(self, strings, y):
        ref = ref_closure(strings)
        if y > ref.horizon:
            with pytest.raises(Refusal, match=f"^no tree member of length {y}$"):
                downward_closure(strings).sigma_text(y)
            return
        assert downward_closure(strings).sigma_text(y) == ref.sigma(y) == ref.level(y)[0]

    @given(families, st.integers(0, 10))
    def test_sigma_to_coloring(self, strings, n):
        ref = RefFamily(strings)
        missing = next((y for y in range(1, n + 1) if ref.sigma(y) is None), None)
        if missing is not None:
            with pytest.raises(Refusal) as info:
                sigma_to_coloring(StringFamily(strings), n)
            assert str(info.value) == f"no family member of length at least {missing}"
            return
        f = sigma_to_coloring(StringFamily(strings), n)
        assert all(c == int(ref.sigma(y)[x]) for x, y, c in pairs(f))

    @given(st.lists(texts, max_size=8), st.integers(0, 10))
    def test_tree_to_stable_coloring(self, strings, n):
        ref = ref_closure(strings)
        if n > ref.horizon:
            with pytest.raises(Refusal) as info:
                tree_to_stable_coloring(downward_closure(strings), n)
            assert str(info.value) == f"no tree member of length {ref.horizon + 1}"
            return
        f = tree_to_stable_coloring(downward_closure(strings), n)
        assert all(c == int(ref.sigma(y)[x]) for x, y, c in pairs(f))

    @given(st.lists(texts, max_size=8), natsets(max_value=10), st.integers(0, 1), st.booleans())
    def test_verify_reduction(self, strings, h, c, as_tree):
        # A constant coloring keeps h homogeneous, so every y in h is checked.
        f = from_function(10, lambda x, y: c)
        ref: RefFamily = ref_closure(strings) if as_tree else RefFamily(strings)
        source = downward_closure(strings) if as_tree else StringFamily(strings)
        ys = [y for y in h if y >= 1]
        missing = next((y for y in ys if ref.sigma(y) is None), None)
        if missing is not None:
            message = (
                f"no tree member of length {missing}"
                if as_tree
                else f"no family member of length at least {missing}"
            )
            with pytest.raises(Refusal) as info:
                verify_reduction(source, f, h, c)
            assert str(info.value) == message
            return
        verdict = verify_reduction(source, f, h, c)
        assert verdict.checked == tuple(ys)
        bad = [y for y in ys if any(ref.sigma(y)[x] != str(c) for x in h if x < y)]
        assert verdict.counterexamples == tuple(bad)
