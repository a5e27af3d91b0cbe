"""Run the benchmark several times and print every metric, one row per workload.

    python3 bench/report.py --seeds 1 2 3 [--workloads trees colorings]
                            [--seconds 20] [--trace 0|1] [--out results.jsonl]

Each run is a fresh ``run.py`` process.  For every metric the table gives its
unit, then per workload the median and quartiles across runs, the spread
(interquartile distance over the median), the number of runs, and for the
command percentiles the commands each run sampled and the fewest samples any
run had beyond its p95.  ``failed_ratio`` comes from each run's attempted and
failed command counts.  With --out, each run's meta and result are appended
as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    meta, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {**meta["meta"], **result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            r = run_once(workload, seed, args.seconds, args.trace)
            runs.setdefault(workload, []).append(r)
            if args.out:
                with args.out.open("a", encoding="utf-8") as out:
                    out.write(json.dumps(r) + "\n")
            print(f"# {workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)

    names: dict[str, str] = {}
    for rs in runs.values():
        for r in rs:
            names.update({k: v["unit"] for k, v in r["metrics"].items()})
    names["failed_ratio"] = "ratio"
    for name, unit in names.items():
        print(f"\n{name} [{unit}]")
        print(f"  {'workload':<11} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'runs':>4}"
              + ("  samples  min_beyond_p95" if name.startswith("cmd_p") else ""))
        for workload, rs in runs.items():
            if name == "failed_ratio":
                values = [r["failed"] / r["attempted"] for r in rs]
            else:
                values = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {workload:<11} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {len(values):>4}"
            if name.startswith("cmd_p"):
                line += (f"  {statistics.median(r['commands'] for r in rs):>7g}"
                         f"  {min(r['p95_samples_beyond'] for r in rs):>14}")
            print(line)
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
