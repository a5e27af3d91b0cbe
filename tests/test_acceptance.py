"""Acceptance gate: twelve end-to-end checks at desk scale.

Each test prints one line — ``criterion NN PASS/FAIL (seconds): summary`` —
and fails if the check or its time budget is missed.  Run them with
``pytest -s tests/test_acceptance.py`` to see the report.

Randomness is driven by fixed seeds so every run checks the same instances.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from pathlib import Path

from helpers import PredMatrix
from rkl import cli
from rkl.core import (
    BitString,
    FinTree,
    NatSet,
    PairColoring,
    StringFamily,
    downward_closure,
    is_homog_path,
    is_homog_string,
    validate_tree,
)
from rkl.diagonal import StagedEnum, build_diagonal_tree, check_fpf
from rkl.formats import (
    parse_coloring,
    parse_enum,
    parse_natset,
    parse_sigma,
    parse_tree,
    render_coloring,
    render_enum,
    render_natset,
    render_sigma,
    render_tree,
)
from rkl.oracles import check_stable, ramsey_search, verify_reduction
from rkl.reductions import (
    ce_tree_to_sigma,
    coloring_to_sigma,
    set_to_path_tree,
    sigma_to_coloring,
    stability_bound,
    tree_to_stable_coloring,
    yokoyama_coloring,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_criterion(number: int, summary: str, limit: float | None, body) -> None:
    start = time.perf_counter()
    error: BaseException | None = None
    try:
        body()
    except BaseException as exc:  # report, then re-raise
        error = exc
    elapsed = time.perf_counter() - start
    in_budget = limit is None or elapsed <= limit
    status = "PASS" if error is None and in_budget else "FAIL"
    budget = f" <= {limit:g} s" if limit is not None else ""
    print(f"criterion {number:02d} {status} ({elapsed:.2f} s{budget}): {summary}")
    if error is not None:
        raise error
    assert in_budget, f"criterion {number:02d} exceeded its {limit:g} s budget"


def random_coloring(rng: random.Random, n: int) -> PairColoring:
    return PairColoring(
        n, tuple(tuple(rng.randint(0, 1) for _ in range(y)) for y in range(1, n + 1))
    )


def random_graded_family(rng: random.Random, n: int) -> StringFamily:
    return StringFamily.of(
        format(rng.getrandbits(y), f"0{y}b") for y in range(1, n + 1)
    )


def random_bits(rng: random.Random, length: int) -> BitString:
    return BitString(format(rng.getrandbits(length), f"0{length}b") if length else "")


def test_criterion_01_coloring_family_round_trip():
    rng = random.Random(101)

    def body():
        for _ in range(1000):
            f = random_coloring(rng, rng.randint(0, 12))
            assert sigma_to_coloring(coloring_to_sigma(f), f.n) == f

    run_criterion(1, "coloring -> graded family -> coloring is the identity", 5.0, body)


def test_criterion_02_tree_pipeline_witnesses():
    rng = random.Random(202)

    def body():
        for _ in range(500):
            fam = random_graded_family(rng, 16)
            t = downward_closure(fam)
            f = tree_to_stable_coloring(t, 16)
            result = ramsey_search(f, 3)
            assert result is not None
            c, h = result
            verdict = verify_reduction(t, f, h, c)
            assert verdict.ok and verdict.counterexamples == ()

    run_criterion(2, "tree colorings: every searched set passes witness checks", 60.0, body)


def test_criterion_03_family_pipeline_witnesses():
    rng = random.Random(303)

    def body():
        for _ in range(500):
            long = random_bits(rng, rng.randint(16, 20))
            flipped = BitString.of(1 - b for b in long)
            members = {long, flipped}  # same length twice: never graded
            for _ in range(rng.randint(2, 6)):
                members.add(random_bits(rng, rng.randint(1, 20)))
            fam = StringFamily(frozenset(members))
            f = sigma_to_coloring(fam, 16)
            result = ramsey_search(f, 3)
            assert result is not None
            c, h = result
            verdict = verify_reduction(fam, f, h, c)
            assert verdict.ok and verdict.counterexamples == ()

    run_criterion(3, "family colorings: every searched set passes witness checks", 60.0, body)


def _random_spined_tree(rng: random.Random, horizon: int, die_by: int) -> FinTree:
    members: set[BitString] = set()
    spines = [random_bits(rng, horizon) for _ in range(rng.randint(1, 3))]
    for spine in spines:
        members.update(spine.prefixes())
    for _ in range(rng.randint(0, 10)):
        spine = rng.choice(spines)
        depth = rng.randint(0, die_by - 1)
        twig = spine.prefix(depth).extended(1 - spine[depth])
        twig = twig.padded(rng.randint(len(twig), die_by), rng.randint(0, 1))
        members.update(twig.prefixes())
    return validate_tree(members)


def test_criterion_04_stability_bound_governs_columns():
    rng = random.Random(404)

    def body():
        for _ in range(200):
            t = _random_spined_tree(rng, horizon=24, die_by=12)
            f = tree_to_stable_coloring(t, 24)
            for x in range(8):
                report = stability_bound(t, x)
                assert report.bound <= 12
                assert report.limit_color is not None
                for y in range(max(x, report.bound) + 1, 25):
                    assert f.value(x, y) == report.limit_color

    run_criterion(4, "columns settle to the limit color past the stability bound", 30.0, body)


def test_criterion_05_alternating_family_never_stabilizes():
    def body():
        for n in range(6, 21):
            fam = StringFamily.of(
                ("1" if y % 2 else "0") + "0" * (y - 1) for y in range(1, n + 1)
            )
            f = sigma_to_coloring(fam, n)
            assert check_stable(f, 0).stabilized is False

    run_criterion(5, "the alternating family defeats stability at every horizon", None, body)


def test_criterion_06_finite_ramsey_on_six_points():
    def body():
        for mask in range(1 << 15):
            rows, i = [], 0
            for y in range(1, 6):
                rows.append(tuple((mask >> (i + x)) & 1 for x in range(y)))
                i += y
            f = PairColoring(5, tuple(rows))
            assert ramsey_search(f, 3) is not None

    run_criterion(6, "all 32768 colorings of six points have a monochromatic triple", 60.0, body)


def _random_staged_enum(rng: random.Random, max_k: int, max_stage: int) -> StagedEnum:
    k = rng.randint(1, max_k)
    events = []
    for e in range(k):
        xs = rng.sample(range(15), rng.randint(0, 8))
        for x in xs:
            events.append((e, rng.randint(1, max_stage), x))
    return StagedEnum.of(events, k=k, max_stage=max_stage)


def test_criterion_07_diagonal_tree_avoids_settled_fronts():
    rng = random.Random(707)

    def body():
        for _ in range(200):
            enums = _random_staged_enum(rng, max_k=4, max_stage=12)
            report = build_diagonal_tree(enums, 12)
            validate_tree(report.tree.members)  # prefix closure
            for l, count in enumerate(report.level_counts):
                assert 2 * count >= 1 << l
            for e, l in report.triggered:
                front = NatSet.of(enums.w_at(e, l)[: e + 3])
                for sigma in report.tree.level(l):
                    assert not is_homog_string(front, sigma, 0)
                    assert not is_homog_string(front, sigma, 1)

    run_criterion(7, "diagonal levels stay large and split every settled front", 60.0, body)


def _fpf_round(enums: StagedEnum, depth: int, rng: random.Random) -> None:
    report = build_diagonal_tree(enums, depth)
    top = report.tree.level(depth)
    sigma = top[0] if rng.random() < 0.5 else top[-1]
    c = rng.randint(0, 1)
    padding = range(depth, depth + enums.k + 2)
    h = NatSet.of([x for x in range(depth) if sigma[x] == c] + list(padding))
    assert is_homog_path(h, report.tree, depth) is not None
    verdicts = check_fpf(h, enums, report)
    for v in verdicts:
        triggered = (v.e, depth) in report.triggered
        assert v.status == ("distinct" if triggered else "vacuous")


def test_criterion_08_settled_sets_are_never_the_least_elements():
    rng = random.Random(808)

    def body():
        worked = StagedEnum.of([(0, 1, 0), (0, 2, 1), (0, 3, 2)])
        report = build_diagonal_tree(worked, 3)
        verdicts = check_fpf(NatSet.of([0, 3, 4]), worked, report)
        assert [(v.e, v.status, v.distinguishing) for v in verdicts] == [(0, "distinct", 3)]
        rounds = 0
        while rounds < 50:
            events = [(0, s + 1, x) for s, x in enumerate(rng.sample(range(6), 3))]
            for e in range(1, rng.randint(1, 3)):
                for x in rng.sample(range(15), rng.randint(0, 4)):
                    events.append((e, rng.randint(1, 8), x))
            enums = StagedEnum.of(events, max_stage=10)
            depth = rng.randint(8, 10)
            report = build_diagonal_tree(enums, depth)
            if not any(l == depth for _, l in report.triggered):
                continue
            _fpf_round(enums, depth, rng)
            rounds += 1

    run_criterion(8, "homogeneous sets differ from every triggered enumeration", None, body)


# Predicate pairs whose two sides together cover [0,20).  Each entry is
# (theta0 text, theta1 text, semantic membership of side 0, of side 1);
# every witness pattern keeps its least n below 64 for x, m < 20.
PREDICATE_PAIRS = [
    ("x mod 2 = 0 and n >= m", "x mod 2 = 1 and n >= m",
     lambda x: x % 2 == 0, lambda x: x % 2 == 1),
    ("x mod 2 = 0 and n = m + 1", "x mod 2 = 1 and n = m + 1",
     lambda x: x % 2 == 0, lambda x: x % 2 == 1),
    ("x mod 2 = 0 and n >= 2 * m", "x mod 2 = 1 and n >= 2 * m",
     lambda x: x % 2 == 0, lambda x: x % 2 == 1),
    ("x mod 3 = 0 and n >= m", "x mod 3 >= 1 and n >= m",
     lambda x: x % 3 == 0, lambda x: x % 3 >= 1),
    ("x mod 3 <= 1 and n = m", "x mod 3 = 2 and n = m",
     lambda x: x % 3 <= 1, lambda x: x % 3 == 2),
    ("x mod 4 = 1 and n >= m", "x mod 4 != 1 and n >= m",
     lambda x: x % 4 == 1, lambda x: x % 4 != 1),
    ("x mod 5 <= 2 and n >= m + x", "x mod 5 >= 3 and n >= m + x",
     lambda x: x % 5 <= 2, lambda x: x % 5 >= 3),
    ("x < 3 and n > m", "x >= 3 and n > m", lambda x: x < 3, lambda x: x >= 3),
    ("x < 10 and n > m", "x >= 10 and n > m", lambda x: x < 10, lambda x: x >= 10),
    ("x < 17 and n >= m", "x >= 17 and n >= m", lambda x: x < 17, lambda x: x >= 17),
    ("x <= 0 and n >= m", "x >= 1 and n >= m", lambda x: x == 0, lambda x: x >= 1),
    ("0 = 0 and n >= m", "0 = 1", lambda x: True, lambda x: False),
    ("0 = 1", "0 = 0 and n = m", lambda x: False, lambda x: True),
    ("x mod 2 = 1 and n = m + x", "x mod 2 = 0 and n = m + x",
     lambda x: x % 2 == 1, lambda x: x % 2 == 0),
    ("x mod 6 <= 2 and n >= m", "x mod 6 >= 3 and n >= m",
     lambda x: x % 6 <= 2, lambda x: x % 6 >= 3),
    ("x mod 7 = 0 and n = 2 * m", "x mod 7 != 0 and n = 2 * m",
     lambda x: x % 7 == 0, lambda x: x % 7 != 0),
    ("x * x <= 100 and n >= m", "x * x > 100 and n >= m",
     lambda x: x * x <= 100, lambda x: x * x > 100),
    ("x mod 2 = x mod 4 and n >= m", "x mod 2 != x mod 4 and n >= m",
     lambda x: x % 2 == x % 4, lambda x: x % 2 != x % 4),
    ("x < 5 and n >= m", "x >= 2 and n >= m + 1",  # overlapping sides
     lambda x: x < 5, lambda x: x >= 2),
    ("x mod 3 = 1 and n >= m * 2", "x mod 3 != 1 and n >= m * 2",
     lambda x: x % 3 == 1, lambda x: x % 3 != 1),
]


def test_criterion_09_predicate_pipeline_lands_in_the_right_set():
    def body():
        for text0, text1, in_a0, in_a1 in PREDICATE_PAIRS:
            theta = (PredMatrix.from_text(text0), PredMatrix.from_text(text1))
            member = (in_a0, in_a1)
            f = yokoyama_coloring(theta[0], theta[1], 20, 64)
            fam = coloring_to_sigma(f)
            downward_closure(fam)  # must build cleanly
            assert sigma_to_coloring(fam, 20) == f
            result = ramsey_search(f, 3)
            assert result is not None
            c, h = result
            assert verify_reduction(fam, f, h, c).ok
            # Every element with a larger H-element above it is certified to
            # lie in A_c; the maximum sits on no pair and carries no claim.
            certified = h.elements[:-1]
            for x in certified:
                assert all(
                    any(theta[c](x=x, m=m, n=n) for n in range(64)) for m in range(20)
                )
                assert member[c](x)

    run_criterion(9, "covering predicates steer searched sets into their own side", None, body)


def test_criterion_10_characteristic_chains_classify_sets():
    rng = random.Random(1010)

    def body():
        for _ in range(100):
            a = frozenset(x for x in range(16) if rng.random() < 0.5)
            t = set_to_path_tree(NatSet.of(a), 16)
            for l in range(17):
                assert len(t.level(l)) == 1
            pools = [
                [x for x in range(16) if x in a],
                [x for x in range(16) if x not in a],
                list(range(16)),
            ]
            for pool in pools:
                size = rng.randint(0, min(5, len(pool)))
                h = NatSet.of(rng.sample(pool, size))
                witness = is_homog_path(h, t, 16)
                if witness is None:
                    assert any(x in a for x in h) and any(x not in a for x in h)
                elif witness.color == 1:
                    assert all(x in a for x in h)
                else:
                    assert not any(x in a for x in h)

    run_criterion(10, "chain trees sort homogeneous sets by membership", None, body)


def test_criterion_11_staged_strings_grade_out():
    rng = random.Random(1111)

    def body():
        for _ in range(100):
            events = [
                (s, random_bits(rng, rng.randint(0, s))) for s in range(1, 21)
            ]
            fam = ce_tree_to_sigma(events, 20)
            assert fam.graded and len(fam) == 20
            members = list(fam)
            for _, tau in events:
                assert any(tau.is_prefix_of(m) for m in members)

    run_criterion(11, "staged enumerations pad out to one member per length", None, body)


def _captured_run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_criterion_12_cli_determinism_and_round_trips():
    from test_cli import GOLDEN_CASES

    def body():
        for name, (want_code, argv) in sorted(GOLDEN_CASES.items()):
            runs = [_captured_run(argv) for _ in range(2)]
            assert runs[0] == runs[1]
            code, text = runs[0]
            assert code == want_code
            assert text == (GOLDEN / name).read_text()
        tree = parse_tree((DATA / "fork.tree").read_text())
        assert parse_tree(render_tree(tree)).members == tree.members
        sigma = parse_sigma((DATA / "alt.sigma").read_text())
        assert parse_sigma(render_sigma(sigma)) == sigma
        coloring = parse_coloring((DATA / "fork.color").read_text())
        assert parse_coloring(render_coloring(coloring)) == coloring
        enum = parse_enum((DATA / "w.enum").read_text())
        assert parse_enum(render_enum(enum)) == enum
        natset = parse_natset((DATA / "evens.set").read_text())
        assert parse_natset(render_natset(natset)) == natset

    run_criterion(12, "byte-identical reruns and five-format round-trips", None, body)
