"""Span recording around the calls ``rkl.cli`` makes into each module.

The CLI reaches every layer through module attributes, so the traced
process swaps those attributes for recording wrappers and puts the
originals back afterwards; nothing under ``src/`` changes.  A span records
its name, start, end, parent span and job id.  A span's self time is its
duration minus the time its child spans cover.

``predlang.evaluate`` recurses through its own module attribute and runs
millions of times a second, so it is recorded as a leaf: the outermost call
puts the original back for the length of its recursion, and calls are summed
into their parent span as a (count, seconds) pair instead of being kept one
by one.

Per-layer times are raw wall times, not scaled to the reference speed the
end-to-end metrics use; the ``<module>.self_pct`` shares compare layers
within one run regardless of machine speed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from rkl import cli, core, diagonal, formats, oracles, predlang, reductions

# (owner, attribute, span name) for every call the workloads' commands make
# across a module boundary.  Owners are modules, or the PredMatrix class for
# its alternate constructors.  formats.validate_tree is core's function as the
# parser reaches it.
TARGETS = [
    (cli, "main", "cli.main"),
    *[(formats, a, f"formats.{a}") for a in (
        "parse_tree", "parse_sigma", "parse_coloring", "parse_enum", "parse_natset",
        "render_tree", "render_sigma", "render_coloring", "render_natset",
    )],
    (formats, "validate_tree", "core.validate_tree"),
    (core, "downward_closure", "core.downward_closure"),
    (core, "is_homog_path", "core.is_homog_path"),
    (predlang, "parse", "predlang.parse"),
    (predlang, "render", "predlang.render"),
    (reductions.PredMatrix, "from_text", "reductions.PredMatrix.from_text"),
    (reductions.PredMatrix, "from_expr", "reductions.PredMatrix.from_expr"),
    *[(reductions, a, f"reductions.{a}") for a in (
        "tree_to_stable_coloring", "sigma_to_coloring", "coloring_to_sigma",
        "pi2_tree_to_sigma1", "yokoyama_coloring", "path_pigeonhole",
    )],
    (diagonal, "build_diagonal_tree", "diagonal.build_diagonal_tree"),
    (diagonal, "check_fpf", "diagonal.check_fpf"),
    *[(oracles, a, f"oracles.{a}") for a in (
        "ramsey_search", "longest_path", "check_stable", "verify_reduction",
    )],
]
LEAF = (predlang, "evaluate", "predlang.evaluate")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child", "leaf", "size")

    def __init__(self, name: str, parent: int | None, job: int) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.job = job
        self.child = 0.0
        self.leaf: dict[str, list] = {}
        self.size: dict[str, int] = {}

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Installs wrappers on enter, restores the originals on exit.

    Spans are recorded only under a ``cli.main`` span, so calls the
    benchmark's own checks make into ``rkl`` are not counted.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1
        self._saved: list[tuple[object, str, object]] = []
        self._trees_seen: set[int] = set()

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            self._swap(owner, attr, self._wrap(name, getattr(owner, attr)))
        owner, attr, name = LEAF
        self._swap(owner, attr, self._wrap_leaf(owner, attr, name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not stack and name != "cli.main":
                return fn(*args, **kwargs)
            if not stack:
                self._trees_seen.clear()
            span = Span(name, stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child += span.end - span.start
            self._measure(span, args, result)
            return result

        return wrapper

    def _wrap_leaf(self, owner, attr: str, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            # The original runs the recursion, so only this call is timed.
            setattr(owner, attr, fn)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                setattr(owner, attr, wrapper)
                parent = spans[stack[-1]]
                parent.child += elapsed
                agg = parent.leaf.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += elapsed

        return wrapper

    def _measure(self, span: Span, args, result) -> None:
        """Sizes of what crossed the boundary: bytes, members, set sizes."""
        if span.name.startswith("formats.parse_"):
            span.size["in_bytes"] = len(args[0])
        elif span.name.startswith("formats.render_"):
            span.size["out_bytes"] = len(result)
        elif span.name == "diagonal.build_diagonal_tree":
            counts = result.level_counts
            span.size["members"] = sum(counts)
            span.size["triggered"] = len(result.triggered)
            span.size["kept"] = sum(counts[1:])
            span.size["offered"] = 2 * sum(counts[:-1])
        elif span.name == "oracles.ramsey_search" and result is not None:
            span.size["found"] = len(result[1])
        tree = getattr(result, "tree", result)
        if isinstance(tree, core.FinTree) and id(tree) not in self._trees_seen:
            self._trees_seen.add(id(tree))
            span.size["tree_members"] = len(tree)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "job": s.job, "self": s.self_time,
                    "leaf": s.leaf, "size": s.size,
                }) + "\n")


def layer_metrics(spans: list[Span], jobs: int, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from a traced run, normalised per job or per call."""
    self_s: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    evals = 0
    eval_s = 0.0
    for s in spans:
        self_s[s.name] += s.self_time
        for key, value in s.size.items():
            size[key] += value
        for count, seconds in s.leaf.values():
            evals += count
            eval_s += seconds
    module_s: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        module_s[name.split(".", 1)[0]] += seconds
    module_s["predlang"] += eval_s
    traced = sum(s.end - s.start for s in spans if s.name == "cli.main")

    def per_job(*names: str) -> float:
        return sum(self_s[n] for n in names) / jobs

    m = {
        "cli.self_ms_per_cmd": (1000 * self_s["cli.main"] / commands, "ms"),
        "formats.parse_s": (sum(v for k, v in self_s.items()
                                if k.startswith("formats.parse_")) / jobs, "s/job"),
        "formats.in_bytes": (size["in_bytes"] / jobs, "B/job"),
        "formats.render_s": (sum(v for k, v in self_s.items()
                                 if k.startswith("formats.render_")) / jobs, "s/job"),
        "formats.out_bytes": (size["out_bytes"] / jobs, "B/job"),
        "core.closure_s": (per_job("core.downward_closure"), "s/job"),
        "core.homog_path_s": (per_job("core.is_homog_path"), "s/job"),
        "core.tree_members": (size["tree_members"] / jobs, "count/job"),
        "predlang.eval_calls": (evals / jobs, "count/job"),
        "predlang.eval_us_per_call": (1e6 * eval_s / evals if evals else 0.0, "us"),
        "predlang.parse_s": (per_job("predlang.parse"), "s/job"),
        "reductions.tree2color_s": (per_job("reductions.tree_to_stable_coloring"), "s/job"),
        "reductions.yoko_self_s": (per_job("reductions.yokoyama_coloring"), "s/job"),
        "reductions.pi2_s": (per_job("reductions.pi2_tree_to_sigma1"), "s/job"),
        "reductions.sigma_color_s": (
            per_job("reductions.sigma_to_coloring", "reductions.coloring_to_sigma"), "s/job"),
        "diagonal.build_s": (per_job("diagonal.build_diagonal_tree"), "s/job"),
        "diagonal.fpf_s": (per_job("diagonal.check_fpf"), "s/job"),
        "diagonal.members": (size["members"] / jobs, "count/job"),
        "diagonal.triggered": (size["triggered"] / jobs, "count/job"),
        "diagonal.keep_ratio": (size["kept"] / size["offered"] if size["offered"] else 0.0,
                                "ratio"),
        "oracles.search_s": (per_job("oracles.ramsey_search"), "s/job"),
        "oracles.search_found": (size["found"] / jobs, "count/job"),
        "oracles.verify_s": (per_job("oracles.verify_reduction"), "s/job"),
        "oracles.stable_s": (per_job("oracles.check_stable"), "s/job"),
        "oracles.path_s": (per_job("oracles.longest_path"), "s/job"),
    }
    for module in ("cli", "formats", "core", "predlang", "reductions", "diagonal", "oracles"):
        m[f"{module}.self_pct"] = (100 * module_s[module] / traced if traced else 0.0, "%")
    return m
