"""Rewrite pins.json: the sha256 of every output of every job at the pin seed.

    python3 bench/pin.py

Runs each workload's job pool once at ``run.PIN_SEED`` with every output
check on, and refuses to pin if any check fails.  ``run.py`` compares the
outputs of that seed against these digests, so any byte change in a later
version of ``rkl`` counts as a failed command.  Re-pin only when an output
change is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.WORK.mkdir(exist_ok=True)
    outputs = {}
    for name in workloads.WORKLOADS:
        root = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK))
        try:
            jobs = run.setup_inputs(name, run.PIN_SEED, root)
            runner = run.Runner(name, jobs, root, pins=None)
            for job in jobs:
                runner.run_job(job)
        finally:
            shutil.rmtree(root)
        if runner.failed:
            print(f"error: {name}: {runner.failed} commands failed", file=sys.stderr)
            return 1
        outputs[name] = [runner.digests[job.index] for job in jobs]
    lines = ",\n".join(
        f'  "{name}": [\n' + ",\n".join("    " + json.dumps(d) for d in digests) + "\n  ]"
        for name, digests in outputs.items()
    )
    run.PINS.write_text(
        f'{{"seed": {run.PIN_SEED}, "outputs": {{\n{lines}\n}}}}\n', encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
