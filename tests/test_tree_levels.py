"""Trees built on the trusted fast path against the validating constructor
and against the plain reference tree in helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    RefFamily,
    RefTree,
    natsets,
    ref_closure,
    ref_dead_bounds,
    ref_diagonal,
    ref_homog_path,
    ref_triggered,
    ref_unclosed,
    ref_w_at,
)
from rkl.core import (
    FinTree,
    NotPrefixClosed,
    StringFamily,
    _closed_levels,
    _sorted_levels,
    downward_closure,
    is_homog_path,
    validate_tree,
)
from rkl.diagonal import StagedEnum, build_diagonal_tree
from rkl.formats import FormatError, parse_sigma, parse_tree, render_tree
from rkl.reductions import set_to_path_tree, stability_bound

texts = st.text(alphabet="01", max_size=8)


def tree_text(strings) -> str:
    return "".join((s or "-") + "\n" for s in strings)


def front_heavy_enums(max_k: int = 3, max_stage: int = 6):
    """Per index, elements below 6 each entered at some stage, so that most
    fronts trigger by depth 6.  Half the time an index enters everything at
    stage 1, so its front fires right past its largest element, reading that
    level's new symbol, and often at the same level as another front."""
    w = st.dictionaries(st.integers(0, 5), st.integers(1, max_stage), min_size=3)
    w = st.one_of(w, w.map(lambda entered: dict.fromkeys(entered, 1)))
    return st.lists(w, min_size=max_k, max_size=max_k).map(
        lambda ws: StagedEnum(
            [(e, s, x) for e, entered in enumerate(ws) for x, s in entered.items()]
        )
    )


def assert_matches(t: FinTree, ref: RefTree) -> None:
    assert frozenset(t) == frozenset(ref.texts)
    assert t.horizon == ref.horizon
    assert len(t) == len(ref.texts)
    assert list(t) == ref.texts
    for l in range(-1, ref.horizon + 2):
        assert t.level(l) == ref.level(l)
    assert render_tree(t) == ref.render()


def assert_trusted_matches(t: FinTree, ref: RefTree) -> None:
    """A tree from a trusted producer equals its validated rebuild and the reference."""
    checked = validate_tree(frozenset(t))
    assert t == checked
    assert_matches(t, ref)
    assert_matches(checked, ref)


def assert_diagonal_matches(enums: StagedEnum, l_max: int) -> None:
    """build_diagonal_tree's tree, level counts and triggered pairs equal the reference's."""
    report = build_diagonal_tree(enums, l_max)
    ref = ref_diagonal(enums, l_max)
    assert_trusted_matches(report.tree, ref)
    assert report.level_counts == tuple(len(ref.level(l)) for l in range(l_max + 1))
    assert report.triggered == ref_triggered(enums, l_max)


class TestTrustedProducers:
    @given(st.lists(texts, max_size=12))
    def test_downward_closure(self, strings):
        ref = ref_closure(strings)
        assert_trusted_matches(downward_closure(strings), ref)
        family = StringFamily(strings)
        assert_trusted_matches(downward_closure(family), ref)

    @given(st.lists(texts, max_size=12, unique=True))
    def test_parse_tree_with_close(self, strings):
        tree = downward_closure(parse_sigma(tree_text(strings)))
        assert_trusted_matches(tree, ref_closure(strings))

    @given(front_heavy_enums(), st.integers(1, 9))
    # Two fronts read level 6's new symbol and split the rest between them,
    # so a parent can lose both children.
    @example(StagedEnum([(0, 1, x) for x in (0, 1, 5)] + [(1, 1, x) for x in (2, 3, 4, 5)]), 7)
    # One front at level 5 reads position 4 and one does not.
    @example(StagedEnum([(0, 5, x) for x in (0, 1, 2)] + [(1, 1, x) for x in (0, 1, 2, 4)]), 6)
    # A front at level 3, where each parent's columns lie 2 apart.
    @example(StagedEnum([(0, 1, x) for x in (0, 1, 2)]), 5)
    # Nothing fires below level 14, so its masks span all 8,192 parents, past
    # the 4,300 digits int() takes from a decimal string; one front reads 13.
    @example(StagedEnum([(0, 1, x) for x in (0, 6, 13)] + [(1, 14, x) for x in (1, 2, 3, 12)]), 14)
    def test_build_diagonal_tree(self, enums, l_max):
        assert_diagonal_matches(enums, l_max)

    def test_build_diagonal_tree_at_workload_sizes(self):
        """Enumerations drawn as the diagonal benchmark draws them."""
        rng = random.Random(0)
        for k, l_max in zip((2, 3, 4, 5, 6) * 2, (11, 12, 13) * 4):
            enums = StagedEnum(
                (e, rng.randint(1, l_max), x)
                for e in range(k)
                for x in rng.sample(range(l_max), rng.randint(e + 2, e + 5))
            )
            assert_diagonal_matches(enums, l_max)

    @given(natsets(max_value=12), st.integers(0, 12))
    def test_set_to_path_tree(self, a, l):
        chi = "".join("1" if x in a else "0" for x in range(l))
        assert_trusted_matches(set_to_path_tree(a, l), ref_closure([chi]))


class TestValidation:
    @given(st.sets(st.text(alphabet="01", max_size=6), max_size=10))
    def test_closed_sets_accepted_and_unclosed_report_shortest_missing(self, strings):
        unclosed = ref_unclosed(strings)
        text = tree_text(sorted(strings))
        builders = [
            lambda: validate_tree(strings),
            lambda: validate_tree(sorted(strings)),
            lambda: FinTree(s for s in strings),
        ]
        if unclosed is None:
            for build in builders + [lambda: parse_tree(text)]:
                assert_matches(build(), RefTree(strings))
            return
        for build in builders:
            with pytest.raises(NotPrefixClosed) as info:
                build()
            assert (info.value.offending, info.value.missing) == unclosed
        # The file parser reports the same defect on the offending member's line.
        with pytest.raises(FormatError) as located:
            parse_tree(text)
        assert located.value.line == sorted(strings).index(unclosed[0]) + 1
        cause = located.value.__cause__
        assert (cause.offending, cause.missing) == unclosed

    def test_non_binary_text_rejected(self):
        with pytest.raises(ValueError, match="not a binary string: '0a'"):
            validate_tree(["0", "0a"])
        with pytest.raises(ValueError, match="not a binary string"):
            downward_closure(["01", "2"])


def repeated_strings(max_size: int = 12):
    """Texts with repeats; half the time closed by adding every prefix in a
    shuffled order."""
    drawn = st.lists(texts, max_size=max_size)

    def maybe_closed(strings, close, rnd):
        if not close:
            return strings
        extra = list(ref_closure(strings).texts)
        rnd.shuffle(extra)
        return strings + extra

    return st.builds(
        maybe_closed, drawn, st.booleans(), st.randoms(use_true_random=False)
    )


class TestLevelCode:
    """The level-wise closure and the closed-set check against brute-force
    prefix sets."""

    @given(repeated_strings())
    def test_downward_closure(self, strings):
        want = ref_closure(strings).text_levels
        assert downward_closure(strings).text_levels == want
        assert downward_closure(StringFamily(strings)).text_levels == want

    @given(repeated_strings())
    def test_closed_levels_and_validate_tree(self, strings):
        unclosed = ref_unclosed(strings)
        builders = [
            lambda: _closed_levels(dict.fromkeys(strings)),
            lambda: validate_tree(strings).text_levels,
            lambda: FinTree(iter(strings)).text_levels,
        ]
        for build in builders:
            if unclosed is None:
                assert build() == RefTree(strings).text_levels
                continue
            # The (length, lex)-least member with a missing prefix, and its
            # shortest missing prefix.
            with pytest.raises(NotPrefixClosed) as info:
                build()
            assert (info.value.offending, info.value.missing) == unclosed

    @given(st.lists(texts, unique=True, max_size=12))
    def test_sorted_levels_of_any_order(self, strings):
        assert _sorted_levels(strings) == RefFamily(strings).text_levels


class TestLevelReaders:
    @given(st.lists(texts, min_size=1, max_size=8), natsets(max_value=9))
    def test_is_homog_path(self, strings, h):
        ref = ref_closure(strings)
        got = is_homog_path(h, downward_closure(strings))
        want = ref_homog_path(h, ref, ref.horizon)
        assert (None if got is None else (got.color, got.witness)) == want

    @given(st.lists(texts, min_size=1, max_size=8), st.data())
    def test_stability_bound(self, strings, data):
        ref = ref_closure(strings)
        if ref.horizon == 0:
            return
        x = data.draw(st.integers(0, ref.horizon - 1))
        report = stability_bound(downward_closure(strings), x)
        dead = ref_dead_bounds(ref, x)
        assert report.bound == max(dead.values(), default=0)
        survivors = [s for s in ref.texts if len(s) == x + 1 and s not in dead]
        assert report.limit_color == (int(survivors[0][x]) if survivors else None)

    @given(front_heavy_enums(), st.integers(0, 3))
    def test_w_at(self, enums, e):
        assert enums.w_final(e) == ref_w_at(enums.events, e, enums.max_stage)
