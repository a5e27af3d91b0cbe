"""Closed-loop benchmark of the ``rkl`` command line, one client, one process.

Usage, from the root of the repository:

    python3 bench/run.py --workload trees --seed 1 --seconds 20 --trace 0

Each job is a seeded input pushed through a fixed pipeline of ``rkl``
commands.  Every command goes through ``rkl.cli.main(argv)`` with its inputs
on disk and ``-o`` to a file, the path a user's command takes: argparse,
file read, compute, render, file write.  Only the time inside ``cli.main``
is timed; reading outputs back and checking them happens between commands.
Jobs run round-robin over a fixed pool until the time is up.

Reported times are wall times scaled to a reference interpreter speed.
Machines shared with other work run the same Python code at speeds that
drift by a quarter within seconds, so a fixed reference routine is timed
just before and just after every job, and the job's times are multiplied by
``REF_SECONDS`` over the mean of those two readings.  The raw figures are in
the ``meta`` line.  Each pool job counts once however often it ran, so a
faster program that gets further round the pool runs the same mix.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the run is split in two halves: an
untraced half, then a half with span recorders wrapped around the calls
``rkl.cli`` makes into each module (see tracing.py); the last line then holds
the per-layer metrics.  The line before it, ``{"meta": ...}``, records the
run's settings, environment and raw figures.

The benchmark builds nothing: it runs ``rkl`` from ``src/`` of the checkout
it sits in, and exits with code 2 if that source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = HERE / "pins.json"
PIN_SEED = 1
SETUP_SAMPLES = 5
# Time reference_work() takes at the reference speed (about its median on a
# 2.1 GHz Xeon under Python 3.11).
REF_SECONDS = 0.003


def reference_work() -> int:
    """A fixed mix of the interpreter work rkl does: strings, sets, sorts, dicts."""
    strings = [format(i * 2654435761 % (1 << 20), "020b") for i in range(1500)]
    members = frozenset(strings)
    ordered = sorted(members, key=lambda s: (len(s), s))
    table = {(i, i + 1): s[: i % 20] for i, s in enumerate(ordered)}
    return len(table) + sum(1 for s in ordered if s[:-1] in members)


def _reference_seconds() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def setup_inputs(workload: str, seed: int, root: Path):
    """Import rkl, generate the workload's job pool and write its inputs."""
    import rkl.cli  # noqa: F401  (import time is part of set-up)
    import workloads

    jobs = workloads.generate(workload, seed)
    workloads.write_inputs(jobs, root)
    return jobs


def _measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], Path]:
    """Raw and scaled wall times of fresh processes that each run the set-up.

    The inputs the last one wrote are kept for the timed run.
    """
    raw, scaled = [], []
    root = None
    for _ in range(SETUP_SAMPLES):
        if root is not None:
            shutil.rmtree(root)
        root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                "--workload", workload, "--seed", str(seed), "--workdir", str(root)]
        before = _reference_seconds()
        start = perf_counter()
        subprocess.run(argv, check=True)
        elapsed = perf_counter() - start
        ref = (before + _reference_seconds()) / 2
        raw.append(elapsed)
        scaled.append(elapsed * REF_SECONDS / ref)
    return raw, scaled, root


@dataclass
class JobRun:
    job: int
    times: list[float]
    scale: float
    ok: bool


class Runner:
    """Runs jobs round-robin over the pool and checks every output."""

    def __init__(self, workload: str, jobs, root: Path, pins: list | None) -> None:
        import workloads
        from rkl import formats

        self.spec = workloads.WORKLOADS[workload]
        self.abort = workloads.Abort
        self.formats = formats
        self.jobs = jobs
        self.root = root
        self.digests: dict[int, dict[str, str]] = {}
        self.pins = pins
        self.tracer = None
        self.errors: list[str] = []
        self.runs: list[JobRun] = []
        self.attempted = 0
        self.failed = 0

    def run_for(self, seconds: float) -> list[JobRun]:
        """Run jobs from the start of the pool until the time is up."""
        first = len(self.runs)
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline:
            self.run_job(self.jobs[i % len(self.jobs)])
            i += 1
        return self.runs[first:]

    def run_job(self, job) -> None:
        from rkl import cli

        d = self.root / f"job{job.index:03d}"
        if self.tracer is not None:
            self.tracer.job = len(self.runs)
        outputs: list[tuple[str, int, str]] = []
        times: list[float] = []

        def cmd(label: str, argv: list[str], out_name: str) -> str:
            out = d / out_name
            start = perf_counter()
            try:
                code = cli.main(argv + ["-o", str(out)])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            times.append(perf_counter() - start)
            text = out.read_text(encoding="utf-8") if code == 0 else ""
            outputs.append((label, code, text))
            if code != 0:
                raise self.abort(f"{label} exited with {code}")
            return text

        before = _reference_seconds()
        try:
            self.spec.run(job, d, cmd)
        except self.abort as exc:
            self._error(job, str(exc))
        ref = (before + _reference_seconds()) / 2
        passed = self._check(job, outputs)
        self.attempted += self.spec.commands
        self.failed += self.spec.commands - passed
        ok = passed == self.spec.commands
        self.runs.append(JobRun(job.index, times, REF_SECONDS / ref, ok))

    def _check(self, job, outputs) -> int:
        """Commands whose exit code and output pass; later rounds compare digests."""
        seen = self.digests.get(job.index)
        digests = {}
        passed = 0
        for label, code, text in outputs:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            digests[label] = digest
            if code != 0:
                continue
            if seen is not None:
                problem = None if seen.get(label) == digest else "output changed between rounds"
            else:
                try:
                    problem = self.spec.check(job, label, text, self.formats)
                except (ValueError, IndexError) as exc:
                    problem = f"unreadable output: {exc}"
                if problem is None and self.pins is not None:
                    if self.pins[job.index].get(label) != digest:
                        problem = "output differs from the pinned digest"
            if problem is None:
                passed += 1
            else:
                self._error(job, f"{label}: {problem}")
        if seen is None:
            self.digests[job.index] = digests
        return passed

    def _error(self, job, message: str) -> None:
        if len(self.errors) < 20:
            print(f"job {job.index}: {message}", file=sys.stderr)
        self.errors.append(message)


def load_pins(workload: str) -> list[dict[str, str]]:
    return json.loads(PINS.read_text(encoding="utf-8"))["outputs"][workload]


def _weighted_percentile(samples: list[tuple[float, float]], q: float) -> float:
    """Nearest-rank percentile of (value, weight) pairs."""
    ordered = sorted(samples)
    goal = q / 100 * sum(w for _, w in ordered)
    total = 0.0
    for value, weight in ordered:
        total += weight
        if total >= goal:
            return value
    return ordered[-1][0]


def job_figures(runs: list[JobRun], scaled: bool = True) -> dict[str, float]:
    """Throughput and command percentiles, each pool job weighted once."""
    by_job: dict[int, list[JobRun]] = defaultdict(list)
    for r in runs:
        by_job[r.job].append(r)

    def factor(r: JobRun) -> float:
        return r.scale if scaled else 1.0

    mean_job = statistics.mean(
        statistics.mean(sum(r.times) * factor(r) for r in rs) for rs in by_job.values()
    )
    ok_share = sum(r.ok for r in runs) / len(runs)
    samples = [(t * factor(r), 1 / len(by_job[r.job])) for r in runs for t in r.times]
    return {
        "jobs_per_s": ok_share / mean_job,
        "cmd_p50_ms": 1000 * _weighted_percentile(samples, 50),
        "cmd_p95_ms": 1000 * _weighted_percentile(samples, 95),
    }


def _metadata(args, runner: Runner, extra: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "rkl").glob("*.py")
    )
    commands = sum(len(r.times) for r in runner.runs)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit, "src_rkl_lines": src_lines,
        "pool_jobs": len(runner.jobs), "pool_jobs_run": len({r.job for r in runner.runs}),
        "jobs": len(runner.runs), "commands": commands,
        "p95_samples_beyond": commands - -(-commands * 95 // 100),
        "failed_ratio": runner.failed / max(1, runner.attempted),
        "median_scale": statistics.median(r.scale for r in runner.runs),
        **extra,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "trees", "diagonal", "predicates", "colorings"))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rkl" / "cli.py").is_file():
        print(f"error: no rkl source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_inputs(args.workload, args.seed, Path(args.workdir))
        return 0

    import workloads

    WORK.mkdir(exist_ok=True)
    setup_raw, setup_scaled, root = _measure_setup(args.workload, args.seed)
    try:
        pins = load_pins(args.workload) if args.seed == PIN_SEED else None
        runner = Runner(args.workload, workloads.generate(args.workload, args.seed), root, pins)
        if args.trace:
            metrics, extra = _traced(args, runner)
        else:
            runs = runner.run_for(args.seconds)
            figures = job_figures(runs)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(setup_scaled), "s"),
                "jobs_per_s": (figures["jobs_per_s"], "1/s"),
                "cmd_p50_ms": (figures["cmd_p50_ms"], "ms"),
                "cmd_p95_ms": (figures["cmd_p95_ms"], "ms"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            extra = {"raw": {"setup_s": statistics.median(setup_raw),
                             **job_figures(runs, scaled=False)}}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps({"meta": _metadata(args, runner, extra)}))
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _traced(args, runner: Runner) -> tuple[dict, dict]:
    """Untraced half, then traced half over the same job sequence."""
    import tracing

    half = args.seconds / 2
    plain = runner.run_for(half)
    with tracing.Tracer() as tracer:
        runner.tracer = tracer
        traced = runner.run_for(half)
    runner.tracer = None
    metrics = tracing.layer_metrics(
        tracer.spans, len(traced), sum(len(r.times) for r in traced)
    )
    common = min(len(plain), len(traced))

    def seconds(runs: list[JobRun]) -> float:
        return sum(sum(r.times) * r.scale for r in runs[:common])

    metrics["trace.overhead_pct"] = (100 * (seconds(traced) / seconds(plain) - 1), "%")
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics, {"traced_jobs": len(traced), "untraced_jobs": len(plain)}


if __name__ == "__main__":
    sys.exit(main())
