from __future__ import annotations

import contextlib
import io
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_equal_and_hashed, ref_fpf
from rkl import cli, formats
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

    @given(staged_enums(), st.randoms(use_true_random=False))
    def test_built_from_any_iterable_by_value(self, en, rng):
        events = list(en.events)
        rng.shuffle(events)
        assert_equal_and_hashed(
            [en, StagedEnum(events), StagedEnum(iter(events)), StagedEnum(t for t in events)]
        )
        assert StagedEnum(t for t in events).w_final(0) == en.w_final(0)
        assert en != en.events

    def test_rejects_duplicate_entry(self):
        with pytest.raises(ValueError):
            StagedEnum([(0, 1, 4), (0, 3, 4)])

    def test_rejects_stage_zero(self):
        with pytest.raises(ValueError):
            StagedEnum([(0, 0, 1)])

    @pytest.mark.parametrize(
        "event", [(0, 1.5, 2), ("a", 1, 2), (0, 1), (0, 1, 2, 3), (True, 1, 2), [0, 1, 2]]
    )
    def test_rejects_malformed_event_before_sorting(self, event):
        # The other event shares stage 1, so a sort would compare the two.
        with pytest.raises(Refusal, match=f"^bad event {re.escape(repr(event))}$"):
            StagedEnum([(1, 1, 1), event])

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
        verdicts = check_fpf(N([2, 5, 9, 14, 20]), WORKED, 3)
        assert verdicts[0].g_e == N([2, 5, 9])

    def test_least_five(self):
        en = StagedEnum([(2, 1, x) for x in range(5)])
        verdicts = check_fpf(N([2, 5, 9, 14, 20]), en, 5)
        assert [v.status for v in verdicts] == ["vacuous", "vacuous", "distinct"]
        assert verdicts[2].g_e == N([2, 5, 9, 14, 20])

    def test_too_small(self):
        message = "^index e=0 needs 3 elements of the set h, which has 2$"
        with pytest.raises(Refusal, match=message):
            check_fpf(N([2, 5]), WORKED, 3)


class TestCheckFpf:
    def test_worked_instance_distinct(self):
        report = build_diagonal_tree(WORKED, 3)
        h = N([0, 3, 4])
        assert is_homog_path(h, report.tree) is not None
        verdicts = check_fpf(h, WORKED, 3)
        assert len(verdicts) == 1
        v = verdicts[0]
        assert (v.e, v.status) == (0, "distinct")
        assert v.w_e == N([0, 1, 2])
        assert v.g_e == N([0, 3, 4])
        assert v.distinguishing == 3

    def test_distinguishing_prefers_g_side(self):
        # g \ W nonempty: the least element of g missing from W is reported.
        verdicts = check_fpf(N([0, 1, 3, 4]), WORKED, 3)
        assert verdicts[0].g_e == N([0, 1, 3])
        assert verdicts[0].distinguishing == 3

    def test_untriggered_is_vacuous(self):
        en = StagedEnum([(0, 1, 5), (0, 2, 6), (0, 3, 7)])
        verdicts = check_fpf(N([0, 1, 2, 3]), en, 4)
        assert [v.status for v in verdicts] == ["vacuous"]
        assert verdicts[0].g_e is None

    def test_not_homogeneous_rejected(self):
        # No verdicts at all: h is homogeneous for no member at the horizon.
        assert check_fpf(N([0, 1, 2]), WORKED, 3) is None

    def test_one_verdict_per_index(self):
        en = StagedEnum([(0, 1, 0), (0, 1, 1), (0, 2, 2), (1, 1, 9), (2, 3, 11)])
        report = build_diagonal_tree(en, 5)
        sigma = report.tree.level(5)[0]
        h = N([x for x in range(5) if sigma[x] == "0"] + [5, 6, 7, 8])
        verdicts = check_fpf(h, en, 5)
        assert [v.e for v in verdicts] == [0, 1, 2]
        assert verdicts[0].status == "distinct"
        assert verdicts[1].status == "vacuous"
        assert verdicts[2].status == "vacuous"


@st.composite
def dnr_cases(draw):
    """A depth 1-10, an enumeration whose fronts mostly fire by it, and a set
    h: random, homogeneous along a random string, or holding a whole front."""
    depth = draw(st.integers(1, 10))
    ws = [
        draw(st.lists(st.integers(0, depth + 1), unique=True, min_size=min(e + 3, depth + 2),
                      max_size=depth + 2))
        for e in range(draw(st.integers(1, 4)))
    ]
    stages = st.integers(1, depth + 1)
    enums = StagedEnum([(e, draw(stages), x) for e, w in enumerate(ws) for x in w])
    h = set(draw(st.frozensets(st.integers(0, depth + 4), max_size=8)))
    kind = draw(st.sampled_from(["random", "string", "front"]))
    if kind == "string":
        sigma = draw(st.text(alphabet="01", min_size=depth, max_size=depth))
        c = draw(st.sampled_from("01"))
        pad = draw(st.integers(0, enums.k + 3))
        h = {x for x in range(depth) if sigma[x] == c} | set(range(depth, depth + pad))
    elif kind == "front":
        ws = [enums.w_final(e) for e in range(enums.k)]
        fronts = [w[: e + 3] for e, w in enumerate(ws) if len(w) >= e + 3]
        if fronts:
            h |= set(draw(st.sampled_from(fronts)))
    return enums, depth, NatSet.of(h)


def as_tuples(verdicts):
    if verdicts is None:
        return None
    return tuple(
        (v.e, v.status, list(v.w_e), None if v.g_e is None else list(v.g_e), v.distinguishing)
        for v in verdicts
    )


def braces(xs) -> str:
    return "{" + ",".join(map(str, xs)) + "}"


def ref_dnr_output(h: NatSet, enums: StagedEnum, depth: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of dnr, built from ref_fpf."""
    try:
        verdicts = ref_fpf(h, enums, depth)
    except Refusal as refusal:
        return 2, "", f"error: {refusal}\n"
    if verdicts is None:
        return 1, "not homogeneous for any path at the tree horizon\nverdict: fail\n", ""
    lines = []
    for e, status, w, g, only in verdicts:
        line = f"e={e} status={status} W={braces(w)}"
        line += "" if g is None else f" g={braces(g)}"
        line += "" if only is None else f" differs={only}"
        lines.append(line)
    failed = any(status == "equal" for _, status, _, _, _ in verdicts)
    lines.append("verdict: fail" if failed else "verdict: ok")
    return int(failed), "".join(line + "\n" for line in lines), ""


def run_dnr(root, h: NatSet, enums: StagedEnum, depth: int) -> tuple[int, str, str]:
    (root / "w.enum").write_text(formats.render_enum(enums), encoding="utf-8")
    (root / "h.set").write_text(formats.render_natset(h), encoding="utf-8")
    argv = ["dnr", "--enum", str(root / "w.enum"), "--set", str(root / "h.set")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--depth", str(depth)])
    return code, out.getvalue(), err.getvalue()


class TestDnrAgainstTree:
    """check_fpf decides homogeneity without the tree; the oracles build it."""

    @settings(max_examples=300)
    @given(dnr_cases())
    # A front wholly inside h shows one color on every member: None.
    @example((StagedEnum([(0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 1, 3), (1, 1, 4),
                          (1, 1, 5), (1, 1, 6)]), 7, NatSet.of([0, 1, 2])))
    # Fronts 1-3 each leave one free position, which must differ from h's
    # color; front 0 then reads only that color: None after a search.
    @example((StagedEnum([(0, 1, 5), (0, 1, 6), (0, 1, 7)]
                         + [(1, 1, x) for x in (0, 1, 2, 5)]
                         + [(2, 1, x) for x in (0, 1, 2, 3, 6)]
                         + [(3, 1, x) for x in (0, 1, 2, 3, 4, 7)]), 8, NatSet.of(range(5))))
    # A fired index that h is too small for, with h homogeneous.
    @example((StagedEnum([(0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 1, 3), (1, 1, 4),
                          (1, 1, 5), (1, 1, 6)]), 7, NatSet.of([0, 3, 4])))
    def test_verdicts_match_reference_tree(self, case):
        enums, depth, h = case
        try:
            want = ref_fpf(h, enums, depth)
        except Refusal as refusal:
            with pytest.raises(Refusal, match=f"^{re.escape(str(refusal))}$"):
                check_fpf(h, enums, depth)
            return
        assert as_tuples(check_fpf(h, enums, depth)) == want

    @settings(max_examples=100)
    @given(case=dnr_cases())
    def test_cli_matches_reference_tree(self, case, tmp_path_factory):
        root = tmp_path_factory.getbasetemp() / "dnr"
        root.mkdir(exist_ok=True)
        enums, depth, h = case
        assert run_dnr(root, h, enums, depth) == ref_dnr_output(h, enums, depth)

    def test_deep_horizon_allocates_no_tree(self, tmp_path):
        # W_0's front {0, 5, 20} fires at level 21; a tree at depth 24 would
        # hold millions of members.
        enums = StagedEnum([(0, 1, 0), (0, 1, 5), (0, 1, 20)])
        h = NatSet.of([0, 1, 2, 3, 30])
        run_dnr(tmp_path, h, enums, 2)  # builds the argument parser
        tracemalloc.start()
        try:
            code, out, err = run_dnr(tmp_path, h, enums, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out == "e=0 status=distinct W={0,5,20} g={0,1,2} differs=1\nverdict: ok\n"
        assert peak < 1 << 20
