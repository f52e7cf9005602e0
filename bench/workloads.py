"""Workload plans and the correctness gate of the benchmark.

A plan is what one round of a workload runs: a list of ``netentropy`` CLI
argument lists, generated from the workload seed alone, with the number of
items each call does and the files it writes.  The program sees nothing but
those argument lists.  ``failed_items`` checks a call's output files against
the reference recorded for the seed, where there is one, and against
invariants of the model in every case.

This module uses only the standard library, so the benchmark's parent process
never imports the package it measures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep", "oracle", "mc-trials", "mc-network")
DOMAINS = ("square", "disk", "triangle")
ETAS = ("2", "3", "4")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The CLI's default sweep ranges: r0 from 0.05 to the largest domain diameter
# (the square's sqrt 2), nu from 1 Hz to 1 kHz.
R0_RANGE = (0.05, math.sqrt(2.0))
NU_RANGE = (1.0, 1000.0)
# r0 range of the oracle and simulator workloads: the acceptance-grid span,
# where the slow-fading approximation is admissible at the default nu and B.
R0_MODEL_RANGE = (0.3, 1.1)

# Points per sweep grid, oracle horizon, and (nodes, steps, trials) of the
# two simulator workloads.  "tiny" only exercises the harness.
SHAPES = {
    "full": {"grid": 8, "t_max": 12, "mc-trials": (2, 4, 4000),
             "mc-network": (50, 100, 16)},
    "tiny": {"grid": 1, "t_max": 4, "mc-trials": (2, 4, 20),
             "mc-network": (6, 10, 2)},
}
SIZES = tuple(SHAPES)

# the seeds with recorded reference outputs
REFERENCE_SEEDS = range(10)

# Gate tolerances.  Numeric CSV columns must match the reference to a
# relative 1e-8, the quadrature's own tolerance.  The sandwich slack is the
# acceptance suite's: 1e-6 bits plus the quadrature tolerance.
REL_TOL = 1e-8
SANDWICH_SLACK = 1e-6 + 1e-8

SWEEP_HEADER = ["domain", "eta", "r0", "nu", "B", "n", "per_edge_lower",
                "per_edge_upper", "network_lower", "network_upper",
                "admissible", "status"]
ORACLE_HEADER = ["t", "block_entropy", "conditional_increment",
                 "per_edge_lower", "per_edge_upper"]
SUMMARY_HEADER = ["metric", "arg1", "arg2", "value"]
SNAPSHOT_HEADER = "trial,step,edge_i,edge_j,state"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _log_strata(rng: random.Random, lo: float, hi: float, k: int):
    """One log-uniform draw from each of k equal log-width strata, sorted.

    Stratifying keeps the spread of per-round cost across seeds small while
    every seed still sees different grids.
    """
    step = math.log(hi / lo) / k
    return [lo * math.exp((i + rng.random()) * step) for i in range(k)]


def _call(argv, items, outputs):
    return {"argv": argv, "items": items, "outputs": outputs}


def _sweep(rng, shape):
    k = shape["grid"]
    calls = []
    for variable, (lo, hi) in (("r0", R0_RANGE), ("nu", NU_RANGE)):
        grid = ",".join(_fmt(x) for x in _log_strata(rng, lo, hi, k))
        out = f"sweep-{variable}.csv"
        calls.append(_call(["bounds-sweep", "--variable", variable,
                            "--grid", grid, "--out", out],
                           len(DOMAINS) * len(ETAS) * k, [out]))
    first_r0 = calls[0]["argv"][4].split(",")[0]
    first = _call(["bounds-sweep", "--variable", "r0", "--grid", first_r0,
                   "--domain", DOMAINS[0], "--eta", ETAS[0],
                   "--out", "first.csv"], 1, ["first.csv"])
    return first, calls


def _oracle(rng, shape):
    calls = []
    lo, hi = R0_MODEL_RANGE
    for domain in DOMAINS:
        # one r0 stratum per eta, assigned to the etas in a seeded order
        strata = _log_strata(rng, lo, hi, len(ETAS))
        rng.shuffle(strata)
        for eta, r0 in zip(ETAS, strata):
            out = f"oracle-{domain}-{eta}.csv"
            calls.append(_call(["oracle", "--t-max", str(shape["t_max"]),
                                "--domain", domain, "--eta", eta,
                                "--r0", _fmt(r0), "--out", out],
                               1, [out]))
    first = dict(calls[0], argv=calls[0]["argv"][:-1] + ["first.csv"],
                 outputs=["first.csv"])
    return first, calls


def _simulate(rng, shape, workload):
    n, steps, trials = shape[workload]
    lo, hi = R0_MODEL_RANGE
    # the domain stays at the CLI default (square): the summary's oracle costs
    # three times as much on the disk, which would make the seed move the cost
    argv = ["simulate", "--nodes", str(n), "--steps", str(steps),
            "--seed", str(rng.randrange(2 ** 32)),
            "--r0", _fmt(lo * math.exp(rng.random() * math.log(hi / lo))),
            "--eta", rng.choice(ETAS)]
    edge_steps = steps * n * (n - 1) // 2
    call = _call(argv + ["--trials", str(trials), "--out", "snapshots.csv",
                         "--summary", "summary.csv"],
                 trials * edge_steps, ["snapshots.csv", "summary.csv"])
    first = _call(argv + ["--trials", "1", "--out", "first.csv",
                          "--summary", "first-summary.csv"],
                  edge_steps, ["first.csv", "first-summary.csv"])
    return first, [call]


def make_plan(workload: str, seed: int, size: str = "full") -> dict:
    """The argument lists of one round of ``workload``, drawn from ``seed``.

    ``first`` is the workload's first result shrunk to one item (one sweep
    point, one oracle profile, one simulated trial); set-up time runs from
    interpreter start until it is ready.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = SHAPES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        first, calls = _sweep(rng, shape)
    elif workload == "oracle":
        first, calls = _oracle(rng, shape)
    else:
        first, calls = _simulate(rng, shape, workload)
    return {"workload": workload, "seed": seed, "size": size,
            "first": first, "calls": calls}


def load_reference(workload: str, seed: int, size: str):
    """Recorded per-call reference entries for this seed, or None."""
    path = REFERENCE_DIR / f"{workload}.json"
    if size != "full" or not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_rows(path: Path, header):
    """Data rows of a CSV output, or None if it is missing or misheaded."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError):
        return None
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def reference_entry(call: dict, workdir: Path):
    """What the reference keeps of one call's outputs.

    CSV rows for the sweep and the oracle, whose numbers are compared to a
    tolerance; sha256 digests for the simulator, whose files must match byte
    for byte.
    """
    if call["argv"][0] == "simulate":
        return {name: file_digest(workdir / name) for name in call["outputs"]}
    path = workdir / call["outputs"][0]
    return path.read_text(encoding="utf-8").splitlines()[1:]


def _same_value(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return a == b
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)


def _rows_match(row, ref_line: str) -> bool:
    ref = ref_line.split(",")
    return len(row) == len(ref) and all(_same_value(a, b) for a, b in zip(row, ref))


def _sweep_row_ok(row, expected_point) -> bool:
    """Invariants of one bounds-sweep row."""
    if len(row) != len(SWEEP_HEADER) or row[-1] != "ok":
        return False
    domain, eta, r0, nu, _, n = row[:6]
    variable, value, want_domain, want_eta = expected_point
    if (domain, float(eta)) != (want_domain, float(want_eta)):
        return False
    if float(r0 if variable == "r0" else nu) != float(value):
        return False
    lower, upper, net_lower, net_upper = (float(v) for v in row[6:10])
    edges = math.comb(int(n), 2)
    return (0.0 <= lower <= upper <= 1.0
            and math.isclose(net_lower, edges * lower, rel_tol=1e-9)
            and math.isclose(net_upper, edges * upper, rel_tol=1e-9))


def _sweep_points(argv):
    """(variable, grid value, domain, eta) of each row the call must emit."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    domains = opts.get("--domain", ",".join(DOMAINS)).split(",")
    etas = opts.get("--eta", ",".join(ETAS)).split(",")
    return [(opts["--variable"], value, d, e)
            for d in domains for e in etas for value in opts["--grid"].split(",")]


def _oracle_ok(rows, t_max: int) -> bool:
    """H_t non-decreasing and lower <= h_t <= upper for t >= 2."""
    if len(rows) != t_max or any(len(r) != len(ORACLE_HEADER) for r in rows):
        return False
    vals = [[float(v) for v in r] for r in rows]
    if [int(v[0]) for v in vals] != list(range(1, t_max + 1)):
        return False
    H = [v[1] for v in vals]
    if any(b < a for a, b in zip(H, H[1:])):
        return False
    return all(v[3] - SANDWICH_SLACK <= v[2] <= v[4] + SANDWICH_SLACK
               for v in vals[1:])


def _simulate_ok(call: dict, workdir: Path) -> bool:
    """Snapshot line count and header; summary density within [0, 1]."""
    snapshots, summary = (workdir / name for name in call["outputs"])
    if not snapshots.is_file():
        return False
    with open(snapshots, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        lines = sum(1 for _ in fh)
    if header != SNAPSHOT_HEADER or lines != call["items"]:
        return False
    rows = _read_rows(summary, SUMMARY_HEADER)
    if not rows or rows[0][0] != "mean_edge_density":
        return False
    return 0.0 <= float(rows[0][3]) <= 1.0


def _holds(check, *args) -> bool:
    """An invariant of parsed output; output too malformed to parse fails."""
    try:
        return check(*args)
    except (ValueError, IndexError):
        return False


def failed_items(call: dict, workdir: Path, reference=None) -> int:
    """Items of ``call`` whose output in ``workdir`` fails the gate.

    An item fails when an invariant does not hold or, given the call's
    ``reference`` entry, when its output does not match it.
    """
    kind, items = call["argv"][0], call["items"]
    if kind == "simulate":
        ok = _holds(_simulate_ok, call, workdir) and (
            reference is None or reference == reference_entry(call, workdir))
        return 0 if ok else items

    header = SWEEP_HEADER if kind == "bounds-sweep" else ORACLE_HEADER
    rows = _read_rows(workdir / call["outputs"][0], header)
    if rows is None or (reference is not None and len(rows) != len(reference)):
        return items
    matches = [reference is None or _rows_match(row, ref)
               for row, ref in zip(rows, reference or rows)]
    if kind == "oracle":
        t_max = int(call["argv"][call["argv"].index("--t-max") + 1])
        return 0 if all(matches) and _holds(_oracle_ok, rows, t_max) else items
    points = _sweep_points(call["argv"])
    if len(rows) != len(points):
        return items
    return sum(not (ok and _holds(_sweep_row_ok, row, point))
               for ok, row, point in zip(matches, rows, points))
