"""Self-checks of the benchmark itself; exits 1 and names each failed check.

    python3 bench/selfcheck.py

- The same seed gives byte-identical inputs, and different seeds differ.
- A tiny-size run of every workload has no failed command.
- After a traced run every wrapped rkl attribute is the original again.
- Without ``src/`` beside it, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# Sizes small enough that every workload's pool runs in about a second.
TINY = {
    "TREE_DEPTHS": [6, 7], "TREE_LEAF_EXPS": [5],
    "DIAG_KS": [2, 3], "DIAG_DEPTHS": [6, 7],
    "PRED_NS": [6, 8], "PI2_TAU": (3, 5), "PI2_BOUND": (8, 12),
    "COLOR_CELLS": [(8, 0.4), (12, 0.5)], "COLOR_PLANTED": [0, 4],
}
TINY_POOL = 8


def _inputs(workloads, name: str, seed: int) -> bytes:
    jobs = workloads.generate(name, seed)
    return json.dumps([(j.files, j.params) for j in jobs], sort_keys=True).encode()


def check_seeds(workloads) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        if _inputs(workloads, name, 5) != _inputs(workloads, name, 5):
            problems.append(f"{name}: one seed gave two different inputs")
        if _inputs(workloads, name, 5) == _inputs(workloads, name, 6):
            problems.append(f"{name}: two seeds gave the same inputs")
    return problems


def check_tiny_runs(workloads, tracing) -> list[str]:
    problems = []
    saved = {k: getattr(workloads, k) for k in TINY}
    originals = [(o, a, o.__dict__[a]) for o, a, _ in [*tracing.TARGETS, tracing.LEAF]]
    try:
        for k, v in TINY.items():
            setattr(workloads, k, v)
        for name in workloads.WORKLOADS:
            root = Path(tempfile.mkdtemp(prefix="tiny-", dir=run.WORK))
            try:
                jobs = workloads.generate(name, 1, TINY_POOL)
                workloads.write_inputs(jobs, root)
                runner = run.Runner(name, jobs, root, pins=None)
                with tracing.Tracer() as tracer:
                    runner.tracer = tracer
                    for job in jobs:
                        runner.run_job(job)
                    for job in jobs:
                        runner.run_job(job)
                if runner.failed:
                    problems.append(f"{name}: {runner.failed} of {runner.attempted} commands failed")
                if not any(s.name == "cli.main" for s in tracer.spans):
                    problems.append(f"{name}: the traced run recorded no cli.main span")
            finally:
                shutil.rmtree(root)
    finally:
        for k, v in saved.items():
            setattr(workloads, k, v)
    for owner, attr, original in originals:
        if owner.__dict__[attr] is not original:
            problems.append(f"{getattr(owner, '__name__', owner)}.{attr} was not restored")
    return problems


def check_bare_directory() -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "trees",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py without src/ did not fail cleanly"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads

    run.WORK.mkdir(exist_ok=True)
    problems = check_seeds(workloads) + check_tiny_runs(workloads, tracing) + check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
