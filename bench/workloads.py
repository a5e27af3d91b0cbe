"""Seeded job generators, command pipelines and output checks for each workload.

A job is one generated input pushed through a fixed pipeline of ``rkl``
commands.  The program sees only the files a generator writes; everything a
check needs to know about the expected result is kept on the Job object,
computed here in plain Python without calling ``rkl``.

Size parameters follow a fixed grid walked in a seed-independent order, so
every seed runs the same mix of sizes and a seed changes only the content.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from typing import Callable

@dataclass
class Job:
    index: int
    files: dict[str, str]
    params: dict
    expect: dict


class Abort(Exception):
    """A command failed, so the rest of the job's pipeline cannot run."""


# -- plain-Python renderings in the repo's file formats ---------------------


def _lenlex(strings) -> list[str]:
    return sorted(strings, key=lambda s: (len(s), s))


def tree_text(strings) -> str:
    return "".join((s or "-") + "\n" for s in _lenlex(strings))


def coloring_text(n: int, color: Callable[[int, int], int]) -> str:
    lines = [f"n {n}\n"]
    lines.extend(f"{x} {y} {color(x, y)}\n" for y in range(1, n + 1) for x in range(y))
    return "".join(lines)


def natset_text(values) -> str:
    return "".join(f"{v}\n" for v in sorted(values))


def prefix_closure(strings) -> set[str]:
    return {s[:i] for s in strings for i in range(len(s) + 1)}


def _bits(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _grid(*axes: list) -> list[tuple]:
    """Every combination of the axes, in an order fixed for all seeds."""
    return _fixed_order(list(product(*axes)))


def _fixed_order(cells: list[tuple]) -> list[tuple]:
    cells = list(cells)
    random.Random("grid").shuffle(cells)
    return cells


# -- trees ------------------------------------------------------------------

TREE_DEPTHS = [12, 13, 14, 15, 16]
TREE_LEAF_EXPS = [7, 8, 9, 10, 11]


def gen_trees(rng: random.Random, count: int) -> list[Job]:
    cells = _grid(TREE_DEPTHS, TREE_LEAF_EXPS, ["dense", "sparse"])
    jobs = []
    for i in range(count):
        depth, leaf_exp, shape = cells[i % len(cells)]
        leaves: set[str] = set()
        if shape == "dense":
            # Complete subtrees of height k hung under 2^(leaf_exp-k) roots.
            k = rng.randint(3, leaf_exp - 2)
            while len(leaves) < 1 << leaf_exp:
                root = _bits(rng, depth - k)
                leaves.update(root + "".join(t) for t in product("01", repeat=k))
        else:
            while len(leaves) < 1 << leaf_exp:
                leaves.add(_bits(rng, depth))
        lex_least = [min(leaf[:y] for leaf in leaves) for y in range(depth + 1)]
        jobs.append(
            Job(
                i,
                {"fam.sigma": tree_text(leaves)},
                {"depth": depth, "leaves": len(leaves), "shape": shape},
                {"closure": prefix_closure(leaves), "lex_least": lex_least},
            )
        )
    return jobs


def run_trees(job: Job, d: Path, cmd) -> None:
    n = job.params["depth"]
    cmd("close", ["close", "--sigma", str(d / "fam.sigma")], "closed.tree")
    tree = str(d / "closed.tree")
    cmd("tree2color", ["tree2color", "--tree", tree, "-n", str(n)], "t.color")
    out = cmd("search", ["search", "--coloring", str(d / "t.color")], "h.set")
    color = _search_color(out)
    cmd(
        "verify",
        ["verify", "--tree", tree, "--coloring", str(d / "t.color"),
         "--set", str(d / "h.set"), "--color", color],
        "verify.txt",
    )
    cmd("path", ["path", "--tree", tree], "path.txt")
    cmd("info", ["info", tree], "info.txt")


def check_trees(job: Job, label: str, text: str, fmt) -> str | None:
    closure, lex_least = job.expect["closure"], job.expect["lex_least"]
    n = job.params["depth"]
    if label == "close":
        return _same(text, tree_text(closure)) or _round_trip(text, fmt.parse_tree, fmt.render_tree)
    if label == "tree2color":
        expected = coloring_text(n, lambda x, y: lex_least[y][x])
        return _same(text, expected) or _round_trip(text, fmt.parse_coloring, fmt.render_coloring)
    if label == "search":
        return _check_search(text, lambda x, y: int(lex_least[y][x]), fmt)
    if label == "verify":
        return None if text.endswith("verdict: ok\n") else "verify did not pass"
    if label == "path":
        head = f"# path: {lex_least[n]}\n"
        if not text.startswith(head):
            return "path is not the lex-least longest member"
        return _natset_tail(text, fmt)
    return _same(text, f"kind=tree members={len(closure)} horizon={n}\n")


# -- diagonal ---------------------------------------------------------------

DIAG_KS = [2, 3, 4, 5, 6]
DIAG_DEPTHS = [11, 12, 13]


def gen_diagonal(rng: random.Random, count: int) -> list[Job]:
    cells = _grid(DIAG_KS, DIAG_DEPTHS)
    jobs = []
    for i in range(count):
        k, depth = cells[i % len(cells)]
        events = []
        for e in range(k):
            size = rng.randint(e + 2, e + 5)
            for x in rng.sample(range(depth), min(size, depth)):
                events.append((e, rng.randint(1, depth), x))
        text = "# index stage element\n" + "".join(f"{e} {s} {x}\n" for e, s, x in events)
        jobs.append(
            Job(
                i,
                {"w.enum": text},
                {"k": k, "depth": depth, "pick_last": rng.random() < 0.5,
                 "color": rng.randint(0, 1)},
                {"events": events},
            )
        )
    return jobs


def run_diagonal(job: Job, d: Path, cmd) -> None:
    depth, k = job.params["depth"], job.params["k"]
    out = cmd("diag", ["diag", "--enum", str(d / "w.enum"), "--depth", str(depth)], "diag.txt")
    # Homogeneous for a top-level member, padded past the horizon, as the
    # fixed-point-freeness acceptance criterion builds it.
    try:
        top = [s for s in out.splitlines() if not s.startswith("#") and len(s) == depth]
        sigma = top[-1] if job.params["pick_last"] else top[0]
    except IndexError:
        raise Abort("diag output has no member at the horizon") from None
    c = str(job.params["color"])
    h = [x for x in range(depth) if sigma[x] == c] + list(range(depth, depth + k + 2))
    (d / "h.set").write_text(natset_text(h), encoding="utf-8")
    cmd(
        "dnr",
        ["dnr", "--enum", str(d / "w.enum"), "--set", str(d / "h.set"), "--depth", str(depth)],
        "dnr.txt",
    )


def _w_at(events, e: int, stage: int) -> list[int]:
    return [x for ee, s, x in sorted(events, key=lambda t: (t[1], t[0], t[2]))
            if ee == e and s <= stage]


def check_diagonal(job: Job, label: str, text: str, fmt) -> str | None:
    depth, events = job.params["depth"], job.expect["events"]
    triggered = set()
    for e, l in product(range(job.params["k"]), range(depth + 1)):
        w = _w_at(events, e, l)
        if len(w) >= e + 3 and max(w[: e + 3]) < l:
            triggered.add((e, l))
    lines = text.splitlines()
    if label == "dnr":
        if lines[-1:] != ["verdict: ok"]:
            return "dnr did not pass"
        for line in lines[:-1]:
            e = int(line.split()[0][2:])
            want = "distinct" if (e, depth) in triggered else "vacuous"
            if f" status={want} " not in line:
                return f"index {e} should be {want}"
        return None
    fired = " ".join(f"{e}:{l}" for e, l in sorted(triggered)) or "none"
    if lines[1:2] != [f"# triggered: {fired}"]:
        return "triggered pairs differ from the enumeration"
    members = ["" if s == "-" else s for s in lines[2:]]
    mset = set(members)
    levels: list[list[str]] = [[] for _ in range(depth + 1)]
    for s in members:
        levels[len(s)].append(s)
    counts = [len(level) for level in levels]
    if lines[0] != "# level_counts: " + " ".join(map(str, counts)):
        return "level counts differ from the listed members"
    if any(s and s[:-1] not in mset for s in members):
        return "diagonal tree is not prefix-closed"
    if any(2 * c < 1 << l for l, c in enumerate(counts)):
        return "a level lost more than half its strings"
    for e, l in triggered:
        front = _w_at(events, e, l)[: e + 3]
        for s in levels[l]:
            if len({s[x] for x in front}) < 2:
                return f"member {s} is homogeneous on the front of W_{e}"
    body = "".join(line + "\n" for line in lines[2:])
    return _round_trip(body, fmt.parse_tree, fmt.render_tree)


# -- predicates -------------------------------------------------------------

PRED_NS = list(range(16, 29))
PRED_CAP = 64
PI2_TAU = (8, 16)
PI2_BOUND = (24, 64)

_GUARD_ATOMS = [
    "bit(y) = 1",
    "bit(z mod len) = 0",
    "z mod 3 = y mod 3",
    "len > y",
    "y + z > 7",
    "bit(y + 1) != bit(z)",
    "z * 2 >= y",
]


def _x_predicate(rng: random.Random, n: int) -> tuple[str, Callable[[int], bool]]:
    a = rng.randint(2, 7)
    b = rng.randrange(a)
    t = rng.randint(1, n)
    kind = rng.randrange(5)
    if kind == 0:
        return f"x mod {a} = {b}", lambda x: x % a == b
    if kind == 1:
        return f"x mod {a} <= {b}", lambda x: x % a <= b
    if kind == 2:
        return f"x < {t}", lambda x: x < t
    if kind == 3:
        return f"x * x <= {t * t}", lambda x: x * x <= t * t
    return f"x mod {a} != {b}", lambda x: x % a != b


def _mn_predicate(rng: random.Random) -> str:
    # Least witnesses stay below PRED_CAP for every m < max(PRED_NS).
    d = rng.randint(0, 8)
    return rng.choice(
        ["n >= m", f"n = m + {d}", "n >= 2 * m", f"n > m + {d}", "n = 2 * m + 1"]
    )


def _guard(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice(_GUARD_ATOMS)
    op = rng.choice(["and", "or", "not"])
    if op == "not":
        return f"not ({_guard(rng, depth - 1)})"
    return f"({_guard(rng, depth - 1)}) {op} ({_guard(rng, rng.randrange(depth))})"


def gen_predicates(rng: random.Random, count: int) -> list[Job]:
    cells = _grid(PRED_NS, [True, False])
    jobs = []
    for i in range(count):
        n, holds = cells[i % len(cells)]
        nesting = rng.randint(0, 3)
        p_text, p_fn = _x_predicate(rng, n)
        theta0 = f"{p_text} and {_mn_predicate(rng)}"
        theta1 = f"not {p_text} and {_mn_predicate(rng)}"
        tau = _bits(rng, rng.randint(*PI2_TAU))
        bound = rng.randint(*PI2_BOUND)
        # With "or", z = y + k is a witness below the bound for every y, so
        # the test holds; with "and", y = |tau| needs z >= bound, so it fails.
        if holds:
            k = rng.randint(0, bound - len(tau) - 1)
            phi = f"z >= y + {k} or ({_guard(rng, nesting)})"
        else:
            k = rng.randint(bound - len(tau), bound - len(tau) + 4)
            phi = f"z >= y + {k} and ({_guard(rng, nesting)})"
        jobs.append(
            Job(
                i,
                {},
                {"n": n, "cap": PRED_CAP, "nesting": nesting, "tau": tau, "bound": bound,
                 "theta0": theta0, "theta1": theta1, "phi": phi, "holds": holds},
                {"side0": [p_fn(x) for x in range(n)]},
            )
        )
    return jobs


def run_predicates(job: Job, d: Path, cmd) -> None:
    p = job.params
    cmd(
        "yoko",
        ["yoko", "--theta0", p["theta0"], "--theta1", p["theta1"],
         "-n", str(p["n"]), "--cap", str(p["cap"])],
        "y.color",
    )
    cmd("search", ["search", "--coloring", str(d / "y.color")], "h.set")
    cmd("color2sigma", ["color2sigma", "--coloring", str(d / "y.color")], "y.sigma")
    cmd(
        "pi2sigma1",
        ["pi2sigma1", "--phi", p["phi"], "--tau", p["tau"], "--bound", str(p["bound"])],
        "pi2.txt",
    )


def check_predicates(job: Job, label: str, text: str, fmt) -> str | None:
    n, side0 = job.params["n"], job.expect["side0"]

    # Exactly one side covers each x, so the color of (x, y) is its side.
    def color(x: int, y: int) -> int:
        return 0 if side0[x] else 1

    if label == "yoko":
        return _same(text, coloring_text(n, color)) or _round_trip(
            text, fmt.parse_coloring, fmt.render_coloring
        )
    if label == "search":
        return _check_search(text, color, fmt)
    if label == "color2sigma":
        columns = ["".join(str(color(x, y)) for x in range(y)) for y in range(1, n + 1)]
        return _same(text, tree_text(columns)) or _round_trip(
            text, fmt.parse_sigma, fmt.render_sigma
        )
    return _same(text, "true\n" if job.params["holds"] else "false\n")


# -- colorings --------------------------------------------------------------

# (n, color-1 density) cells.  Search costs 50-250 ms on most of them with a
# per-seed spread near a quarter; n 104 at density 0.3 and n 112 swing by a
# third or more between seeds, which no pool of this size averages out.  The
# costliest cell, n 88 at 0.3, varies least and is listed four times, so the
# p95 command falls inside it rather than between two cells.
COLOR_CELLS = [
    (48, 0.5), (64, 0.45), (72, 0.3), (80, 0.3), (88, 0.3), (88, 0.3), (88, 0.3),
    (88, 0.3), (88, 0.35), (96, 0.35), (96, 0.4), (104, 0.4),
]
COLOR_PLANTED = [0, 12]


def gen_colorings(rng: random.Random, count: int) -> list[Job]:
    cells = _fixed_order(COLOR_CELLS)
    jobs = []
    for i in range(count):
        n, density = cells[i % len(cells)]
        planted = rng.choice(COLOR_PLANTED)
        rows = [[1 if rng.random() < density else 0 for _ in range(y)] for y in range(n + 1)]
        if planted:
            c = rng.randint(0, 1)
            for x, y in combinations(sorted(rng.sample(range(n + 1), planted)), 2):
                rows[y][x] = c
        jobs.append(
            Job(
                i,
                {"f.color": coloring_text(n, lambda x, y: rows[y][x])},
                {"n": n, "density": density, "planted": planted},
                {"rows": rows},
            )
        )
    return jobs


def run_colorings(job: Job, d: Path, cmd) -> None:
    f = str(d / "f.color")
    out = cmd("search", ["search", "--coloring", f], "h.set")
    color = _search_color(out)
    cmd("stable", ["stable", "--coloring", f], "stable.txt")
    cmd("color2sigma", ["color2sigma", "--coloring", f], "f.sigma")
    cmd(
        "sigma2color",
        ["sigma2color", "--sigma", str(d / "f.sigma"), "-n", str(job.params["n"])],
        "back.color",
    )
    cmd(
        "verify",
        ["verify", "--sigma", str(d / "f.sigma"), "--coloring", f,
         "--set", str(d / "h.set"), "--color", color],
        "verify.txt",
    )


def check_colorings(job: Job, label: str, text: str, fmt) -> str | None:
    n, rows = job.params["n"], job.expect["rows"]
    if label == "search":
        return _check_search(text, lambda x, y: rows[y][x], fmt)
    if label == "stable":
        lines = []
        for x in range(n):
            last = x + 1
            for y in range(x + 2, n + 1):
                if rows[y][x] != rows[y - 1][x]:
                    last = y
            stable = "true" if last < n else "false"
            lines.append(f"x={x} stabilized={stable} last_change={last} final_color={rows[n][x]}\n")
        return _same(text, "".join(lines))
    if label == "color2sigma":
        columns = ["".join(str(rows[y][x]) for x in range(y)) for y in range(1, n + 1)]
        return _same(text, tree_text(columns)) or _round_trip(
            text, fmt.parse_sigma, fmt.render_sigma
        )
    if label == "sigma2color":
        return _same(text, job.files["f.color"])
    return None if text.endswith("verdict: ok\n") else "verify did not pass"


# -- shared checks ----------------------------------------------------------


def _same(text: str, expected: str) -> str | None:
    return None if text == expected else "output differs from the expected text"


def _round_trip(text: str, parse, render) -> str | None:
    return None if render(parse(text)) == text else "output does not re-render to itself"


def _search_color(text: str) -> str:
    head = text.split("\n", 1)[0]
    if not head.startswith("# color: "):
        raise Abort("search found no monochromatic set")
    return head[len("# color: "):]


def _natset_tail(text: str, fmt) -> str | None:
    head = "".join(line for line in text.splitlines(True) if line.startswith("#"))
    return _round_trip(text[len(head):], fmt.parse_natset, fmt.render_natset)


def _check_search(text: str, color: Callable[[int, int], int], fmt) -> str | None:
    c = int(_search_color(text))
    h = [int(line) for line in text.splitlines()[1:]]
    if len(h) < 2:
        return "search returned fewer than two elements"
    for x, y in combinations(h, 2):
        if color(x, y) != c:
            return f"pair ({x},{y}) is not color {c}"
    return _natset_tail(text, fmt)


@dataclass(frozen=True)
class Workload:
    generate: Callable[[random.Random, int], list[Job]]
    run: Callable
    check: Callable
    commands: int
    pool: int  # a whole number of passes over the size grid


WORKLOADS = {
    "trees": Workload(gen_trees, run_trees, check_trees, 6, 50),
    "diagonal": Workload(gen_diagonal, run_diagonal, check_diagonal, 2, 30),
    "predicates": Workload(gen_predicates, run_predicates, check_predicates, 4, 104),
    "colorings": Workload(gen_colorings, run_colorings, check_colorings, 5, 72),
}


def generate(workload: str, seed: int, count: int | None = None) -> list[Job]:
    spec = WORKLOADS[workload]
    return spec.generate(random.Random(f"{workload}:{seed}"), count or spec.pool)


def write_inputs(jobs: list[Job], root: Path) -> None:
    for job in jobs:
        d = root / f"job{job.index:03d}"
        d.mkdir(parents=True, exist_ok=True)
        for name, text in job.files.items():
            (d / name).write_text(text, encoding="utf-8")
