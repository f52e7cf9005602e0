"""Benchmark of the netentropy CLI: four workloads, end-to-end and per layer.

    python3 bench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Generates the workload's CLI argument lists from the seed, runs them through
``netentropy.cli.main`` in fresh single-threaded worker interpreters
(worker.py), checks every output against the recorded reference or the model's
invariants, and prints two JSON lines: run details (environment, samples,
quadrature depth and point counts), then the result.  With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

# set-up is timed in the measuring worker and in this many setup-only ones,
# half started before it and half after, so the samples span the whole run
SETUP_SAMPLES = 4
# every run ends within this many seconds or fails
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(plan_path: Path, deadline: float, *extra) -> dict:
    """Start one worker, wait for it, return its JSON and its set-up time."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), *extra]
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    return out


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "threads": {name: worker_env()[name] for name in THREAD_VARS}}


def gate(plan: dict, result: dict, first_rcs, workdir: Path):
    """Attempted and failed items over every worker's first call and every
    round, and whether a reference was found.

    The files each call left last are checked against the reference and the
    invariants; an earlier round fails where its exit code was not 0 or its
    files differ from the last round's.
    """
    reference = workloads.load_reference(plan["workload"], plan["seed"],
                                         plan["size"])
    first = plan["first"]
    first_failed = workloads.failed_items(first, workdir)
    attempted = failed = 0
    for rc in first_rcs:
        attempted += first["items"]
        failed += first["items"] if rc != 0 else first_failed
    rounds = [result["warmup"]] + result["rounds"]
    last = rounds[-1]
    for i, call in enumerate(plan["calls"]):
        ref = reference[i] if reference is not None else None
        final = workloads.failed_items(call, workdir, ref)
        for rnd in rounds:
            attempted += call["items"]
            if rnd["rcs"][i] != 0 or rnd["digests"][i] != last["digests"][i]:
                failed += call["items"]
            else:
                failed += final
    return attempted, failed, reference is not None


def _with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind]}


def end_to_end(plan, result, setups) -> dict:
    wall = statistics.median(r["wall"] for r in result["rounds"]
                             if not r["traced"])
    items = sum(call["items"] for call in plan["calls"])
    return _with_units({"wall_s": wall, "items_per_s": items / wall,
                        "setup_s": statistics.median(setups),
                        "peak_rss_mb": result["peak_rss_mb"]}, "end_to_end")


def per_layer(result) -> dict:
    """Means over the traced rounds, and the tracing overhead per round."""
    traced = [r for r in result["rounds"] if r["traced"]]
    untraced = [r["wall"] for r in result["rounds"] if not r["traced"]]
    means = {key: statistics.fmean(r["layers"][key] for r in traced)
             for key in traced[0]["layers"]}
    means["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                 - statistics.median(untraced))
    return _with_units(means, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' runs minimal inputs to test the harness")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "netentropy" / "cli.py").is_file():
        print(f"bench: no netentropy sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    plan = workloads.make_plan(args.workload, args.seed, args.size)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        samples = 0 if args.trace else SETUP_SAMPLES
        setup_runs = [run_worker(plan_path, deadline, "setup")
                      for _ in range(samples // 2)]
        result = run_worker(plan_path, deadline, "measure",
                            str(args.seconds), str(args.trace))
        setup_runs.append(result)
        setup_runs += [run_worker(plan_path, deadline, "setup")
                       for _ in range(samples - samples // 2)]
        setups = [r["setup_s"] for r in setup_runs]
        attempted, failed, referenced = gate(
            plan, result, [r["first_rc"] for r in setup_runs], workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    warm = result["warmup"]["layers"]
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "env": environment(),
        "reference": referenced, "fail_frac": failed / attempted,
        "items_per_round": sum(c["items"] for c in plan["calls"]),
        "wall_samples_s": [r["wall"] for r in result["rounds"]
                           if not r["traced"]],
        "setup_samples_s": setups,
        "quadrature": {key.split(".", 1)[1]: warm[key] for key in warm
                       if key.startswith("quadrature.")
                       and not key.endswith("self_s")},
        "unhooked": result["warmup"]["unhooked"],
    }
    metrics = per_layer(result) if args.trace else end_to_end(plan, result, setups)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
