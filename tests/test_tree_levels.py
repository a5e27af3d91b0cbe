"""Trees built on the trusted fast path against the validating constructor
and against the plain reference tree in helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    RefTree,
    natsets,
    ref_closure,
    ref_dead_bounds,
    ref_diagonal,
    ref_homog_path,
    ref_unclosed,
    ref_w_at,
)
from rkl.core import (
    BitString,
    FinTree,
    NotPrefixClosed,
    StringFamily,
    downward_closure,
    is_homog_path,
    validate_tree,
)
from rkl.diagonal import StagedEnum, build_diagonal_tree
from rkl.formats import parse_tree, render_tree
from rkl.reductions import set_to_path_tree, stability_bound

texts = st.text(alphabet="01", max_size=8)


def tree_text(strings) -> str:
    return "".join((s or "-") + "\n" for s in strings)


def front_heavy_enums(max_k: int = 3, max_stage: int = 6):
    """Per index, elements below 6 each entered at some stage, so that most
    fronts trigger by depth 6."""
    w = st.dictionaries(st.integers(0, 5), st.integers(1, max_stage), min_size=3)
    return st.lists(w, min_size=max_k, max_size=max_k).map(
        lambda ws: StagedEnum.of(
            [(e, s, x) for e, entered in enumerate(ws) for x, s in entered.items()],
            k=max_k,
            max_stage=max_stage,
        )
    )


def assert_matches(t: FinTree, ref: RefTree) -> None:
    assert t.members == frozenset(BitString(s) for s in ref.texts)
    assert t.horizon == ref.horizon
    assert len(t) == len(ref.texts)
    assert [s.bits for s in t] == ref.texts
    for l in range(-1, ref.horizon + 2):
        assert t.level(l) == ref.level(l)
    assert render_tree(t) == ref.render()


def assert_trusted_matches(t: FinTree, ref: RefTree) -> None:
    """A tree from a trusted producer equals its validated rebuild and the reference."""
    checked = validate_tree(t.members)
    assert t == checked
    assert_matches(t, ref)
    assert_matches(checked, ref)


class TestTrustedProducers:
    @given(st.lists(texts, max_size=12))
    def test_downward_closure(self, strings):
        ref = ref_closure(strings)
        assert_trusted_matches(downward_closure(strings), ref)
        family = StringFamily.of(strings)
        assert_trusted_matches(downward_closure(family), ref)

    @given(st.lists(texts, max_size=12, unique=True))
    def test_parse_tree_with_close(self, strings):
        assert_trusted_matches(parse_tree(tree_text(strings), close=True), ref_closure(strings))

    @given(front_heavy_enums(), st.integers(6, 9))
    def test_build_diagonal_tree(self, enums, l_max):
        report = build_diagonal_tree(enums, l_max)
        ref = ref_diagonal(enums, l_max)
        assert_trusted_matches(report.tree, ref)
        assert report.level_counts == tuple(len(ref.level(l)) for l in range(l_max + 1))

    @given(natsets(max_value=12), st.integers(0, 12))
    def test_set_to_path_tree(self, a, l):
        chi = "".join("1" if x in a else "0" for x in range(l))
        assert_trusted_matches(set_to_path_tree(a, l), ref_closure([chi]))


class TestValidation:
    @given(st.sets(st.text(alphabet="01", max_size=6), max_size=10))
    def test_closed_sets_accepted_and_unclosed_report_shortest_missing(self, strings):
        unclosed = ref_unclosed(strings)
        builders = [
            lambda: validate_tree(strings),
            lambda: validate_tree(sorted(strings)),
            lambda: FinTree(BitString(s) for s in strings),
            lambda: parse_tree(tree_text(sorted(strings))),
        ]
        for build in builders:
            if unclosed is None:
                assert_matches(build(), RefTree(strings))
                continue
            with pytest.raises(NotPrefixClosed) as info:
                build()
            assert (info.value.offending.bits, info.value.missing.bits) == unclosed

    def test_non_binary_text_rejected(self):
        with pytest.raises(ValueError, match="not a binary string: '0a'"):
            validate_tree(["0", "0a"])
        with pytest.raises(ValueError, match="not a binary string"):
            downward_closure(["01", "2"])


class TestLevelReaders:
    @given(st.lists(texts, min_size=1, max_size=8), natsets(max_value=9), st.data())
    def test_is_homog_path(self, strings, h, data):
        ref = ref_closure(strings)
        horizon = data.draw(st.integers(0, ref.horizon))
        got = is_homog_path(h, downward_closure(strings), horizon)
        want = ref_homog_path(h, ref, horizon)
        assert (None if got is None else (got.color, got.witness.bits)) == want

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

    @given(front_heavy_enums(), st.integers(0, 3), st.integers(0, 9))
    def test_w_at(self, enums, e, s):
        assert enums.w_at(e, s) == ref_w_at(enums.events, e, s)
