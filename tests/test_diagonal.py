from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rkl.core import NatSet, Refusal, is_homog_path, is_homog_string
from rkl.diagonal import StagedEnum, build_diagonal_tree, check_fpf

N = NatSet.of

WORKED = StagedEnum([(0, 1, 0), (0, 2, 1), (0, 3, 2)])


def staged_enums(max_k: int = 4, max_stage: int = 10, max_x: int = 15):
    def dedup(raw):
        events, seen = [], set()
        for e, s, x in raw:
            if (e, x) not in seen:
                seen.add((e, x))
                events.append((e, s, x))
        return StagedEnum(events)

    return st.lists(
        st.tuples(
            st.integers(0, max_k - 1),
            st.integers(1, max_stage),
            st.integers(0, max_x),
        ),
        max_size=14,
    ).map(dedup)


class TestStagedEnum:
    def test_events_normalized_by_stage_then_index(self):
        en = StagedEnum([(1, 2, 7), (0, 2, 5), (0, 1, 3), (1, 1, 4)])
        assert en.events == ((0, 1, 3), (1, 1, 4), (0, 2, 5), (1, 2, 7))

    def test_derives_k_and_max_stage(self):
        en = StagedEnum([(2, 5, 0), (2, 3, 1)])
        assert (en.k, en.max_stage) == (3, 5)
        assert (StagedEnum(()).k, StagedEnum(()).max_stage) == (0, 0)

    def test_rejects_duplicate_entry(self):
        with pytest.raises(ValueError):
            StagedEnum([(0, 1, 4), (0, 3, 4)])

    def test_rejects_stage_zero(self):
        with pytest.raises(ValueError):
            StagedEnum([(0, 0, 1)])

    def test_w_at_prefixes_enumeration(self):
        assert WORKED.w_final(0) == (0, 1, 2)
        assert WORKED.w_final(1) == ()
        # By stage, then ascending within a stage.
        assert StagedEnum([(0, 2, 1), (0, 1, 5), (0, 2, 0)]).w_final(0) == (5, 0, 1)

    @given(staged_enums(), st.integers(0, 3), st.integers(0, 9))
    def test_w_at_monotone_in_stage(self, en, e, s):
        # What W_e holds by stage s is a prefix of all it ever holds.
        earlier = tuple(x for ee, ss, x in en.events if ee == e and ss <= s)
        assert en.w_final(e)[: len(earlier)] == earlier


class TestBuildDiagonalTree:
    def test_worked_instance(self):
        report = build_diagonal_tree(WORKED, 3)
        assert report.level_counts == (1, 2, 4, 6)
        assert report.triggered == frozenset({(0, 3)})
        level3 = set(report.tree.level(3))
        assert level3 == {"001", "010", "011", "100", "101", "110"}

    def test_no_enumerations_gives_full_tree(self):
        report = build_diagonal_tree(StagedEnum([]), 4)
        assert report.level_counts == (1, 2, 4, 8, 16)
        assert report.triggered == frozenset()

    def test_large_elements_never_trigger(self):
        en = StagedEnum([(0, 1, 5), (0, 2, 6), (0, 3, 7)])
        report = build_diagonal_tree(en, 4)
        assert report.level_counts == (1, 2, 4, 8, 16)
        assert report.triggered == frozenset()

    def test_trigger_needs_front_below_length(self):
        # W_0 reaches 3 elements at stage 2 with max element 2, so lengths
        # from 3 on exclude strings monochromatic on {0, 1, 2}.
        en = StagedEnum([(0, 1, 2), (0, 2, 0), (0, 2, 1)])
        report = build_diagonal_tree(en, 4)
        assert (0, 3) in report.triggered and (0, 4) in report.triggered
        assert (0, 2) not in report.triggered

    @given(staged_enums(), st.integers(1, 8))
    def test_counts_meet_halving_floor(self, en, l_max):
        report = build_diagonal_tree(en, l_max)
        assert len(report.level_counts) == l_max + 1
        for l, count in enumerate(report.level_counts):
            assert count * 2 > 1 << l if l else count == 1
            assert count == len(report.tree.level(l))

    @given(staged_enums(), st.integers(1, 8))
    def test_triggered_fronts_are_split(self, en, l_max):
        report = build_diagonal_tree(en, l_max)
        for e, l in report.triggered:
            front = N(en.w_final(e)[: e + 3])
            for sigma in report.tree.level(l):
                assert not is_homog_string(front, sigma, 0)
                assert not is_homog_string(front, sigma, 1)

    @given(staged_enums(), st.integers(1, 8))
    def test_triggers_persist_upward(self, en, l_max):
        report = build_diagonal_tree(en, l_max)
        for e, l in report.triggered:
            for later in range(l, l_max + 1):
                assert (e, later) in report.triggered


class TestDnrG:
    # g(e) is the least e+3 elements of h, compared at each triggered index.
    def test_least_three(self):
        report = build_diagonal_tree(WORKED, 3)
        verdicts = check_fpf(N([2, 5, 9, 14, 20]), WORKED, report)
        assert verdicts[0].g_e == N([2, 5, 9])

    def test_least_five(self):
        en = StagedEnum([(2, 1, x) for x in range(5)])
        report = build_diagonal_tree(en, 5)
        verdicts = check_fpf(N([2, 5, 9, 14, 20]), en, report)
        assert [v.status for v in verdicts] == ["vacuous", "vacuous", "distinct"]
        assert verdicts[2].g_e == N([2, 5, 9, 14, 20])

    def test_too_small(self):
        report = build_diagonal_tree(WORKED, 3)
        message = "^index e=0 needs 3 elements of the set h, which has 2$"
        with pytest.raises(Refusal, match=message):
            check_fpf(N([2, 5]), WORKED, report)


class TestCheckFpf:
    def test_worked_instance_distinct(self):
        report = build_diagonal_tree(WORKED, 3)
        h = N([0, 3, 4])
        assert is_homog_path(h, report.tree) is not None
        verdicts = check_fpf(h, WORKED, report)
        assert len(verdicts) == 1
        v = verdicts[0]
        assert (v.e, v.status) == (0, "distinct")
        assert v.w_e == N([0, 1, 2])
        assert v.g_e == N([0, 3, 4])
        assert v.distinguishing == 3

    def test_distinguishing_prefers_g_side(self):
        # g \ W nonempty: the least element of g missing from W is reported.
        report = build_diagonal_tree(WORKED, 3)
        verdicts = check_fpf(N([0, 1, 3, 4]), WORKED, report)
        assert verdicts[0].g_e == N([0, 1, 3])
        assert verdicts[0].distinguishing == 3

    def test_untriggered_is_vacuous(self):
        en = StagedEnum([(0, 1, 5), (0, 2, 6), (0, 3, 7)])
        report = build_diagonal_tree(en, 4)
        verdicts = check_fpf(N([0, 1, 2, 3]), en, report)
        assert [v.status for v in verdicts] == ["vacuous"]
        assert verdicts[0].g_e is None

    def test_not_homogeneous_rejected(self):
        # No verdicts at all: h is homogeneous for no member at the horizon.
        report = build_diagonal_tree(WORKED, 3)
        assert check_fpf(N([0, 1, 2]), WORKED, report) is None

    def test_one_verdict_per_index(self):
        en = StagedEnum([(0, 1, 0), (0, 1, 1), (0, 2, 2), (1, 1, 9), (2, 3, 11)])
        report = build_diagonal_tree(en, 5)
        sigma = report.tree.level(5)[0]
        h = N([x for x in range(5) if sigma[x] == "0"] + [5, 6, 7, 8])
        verdicts = check_fpf(h, en, report)
        assert [v.e for v in verdicts] == [0, 1, 2]
        assert verdicts[0].status == "distinct"
        assert verdicts[1].status == "vacuous"
        assert verdicts[2].status == "vacuous"
