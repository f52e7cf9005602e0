"""Record the correctness gate's reference outputs for the default seeds.

    python3 bench/record_reference.py

Runs one round of each workload for each seed in REFERENCE_SEEDS through
``netentropy.cli.main`` from ``src/`` and writes
``bench/reference/<workload>.json``.  Every output must pass the gate's
invariants before it is recorded.  Record only at a commit whose outputs are
known good: later commits are checked against these files.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(workload: str, cli) -> dict:
    entries = {}
    for seed in workloads.REFERENCE_SEEDS:
        plan = workloads.make_plan(workload, seed)
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK_DIR))
        cwd = os.getcwd()
        try:
            os.chdir(workdir)
            for call in plan["calls"]:
                if cli.main(call["argv"]) != 0:
                    raise SystemExit(f"{workload} seed {seed}: {call['argv']} failed")
            if any(workloads.failed_items(call, workdir) for call in plan["calls"]):
                raise SystemExit(f"{workload} seed {seed}: invariants fail")
            entries[str(seed)] = [workloads.reference_entry(call, workdir)
                                  for call in plan["calls"]]
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
    return {"seeds": entries}


def main() -> int:
    # the same single-threaded numerics as the benchmark's workers
    os.environ.update({name: "1" for name in run.THREAD_VARS})
    sys.path.insert(0, str(run.ROOT / "src"))
    from netentropy import cli

    run.WORK_DIR.mkdir(exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        data = record(workload, cli)
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
