"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Every workload runs at a tiny size, untraced and traced, and its output must
follow the contract in BENCHMARK.json.  The correctness gate must pass the
outputs of this commit and fail each workload's output once one value in it
is perturbed, both against a reference and on invariants alone, or once the
output is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_follows_contract(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    info = json.loads(info_line)["info"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert info["env"]["threads"]["OMP_NUM_THREADS"] == "1"
    assert info["quadrature"]["points"] > 0 and info["unhooked"] == []
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        covered = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert covered + values["trace.unattributed_s"] == pytest.approx(
            values["trace.wall_s"], rel=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(ROOT / "src"))
    from netentropy import cli
    return cli


def _run_plan(cli, plan, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    for call in plan["calls"]:
        assert cli.main(call["argv"]) == 0
    return plan["calls"][0]


def _edit(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    fields[col] = change(fields[col])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _nudge(value: str) -> str:
    # 10x the gate tolerance, far inside every invariant
    return repr(float(value) * (1.0 + 1e-7))


def _flip_state(path: Path) -> None:
    _edit(path, 1, 4, lambda v: str(1 - int(v)))


def _drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


# Two ways to spoil each workload's first output: a change only the reference
# can catch, and a change that breaks an invariant.
PERTURBATIONS = {
    "sweep": (lambda p: (_edit(p, 1, 7, _nudge), _edit(p, 1, 9, _nudge)),
              lambda p: _edit(p, 1, 6, lambda v: "2.0")),
    "oracle": (lambda p: _edit(p, 3, 2, _nudge),
               lambda p: _edit(p, 3, 2, lambda v: "1.5")),
    "mc-trials": (_flip_state, _drop_last_line),
    "mc-network": (_flip_state, _drop_last_line),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_fails_perturbed_output(workload, cli, tmp_path, monkeypatch):
    plan = workloads.make_plan(workload, 0, "tiny")
    call = _run_plan(cli, plan, tmp_path, monkeypatch)
    reference = workloads.reference_entry(call, tmp_path)
    assert workloads.failed_items(call, tmp_path, reference) == 0
    out = tmp_path / call["outputs"][0]
    original = out.read_text(encoding="utf-8")
    against_reference, against_invariants = PERTURBATIONS[workload]

    against_reference(out)
    assert workloads.failed_items(call, tmp_path, reference) > 0
    assert workloads.failed_items(call, tmp_path) == 0

    out.write_text(original, encoding="utf-8")
    against_invariants(out)
    assert workloads.failed_items(call, tmp_path) > 0

    out.unlink()
    assert workloads.failed_items(call, tmp_path, reference) == call["items"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed0_matches_recorded_reference(workload, cli, tmp_path, monkeypatch):
    plan = workloads.make_plan(workload, 0)
    reference = workloads.load_reference(workload, 0, "full")
    assert reference is not None
    _run_plan(cli, plan, tmp_path, monkeypatch)
    for call, ref in zip(plan["calls"], reference):
        assert workloads.failed_items(call, tmp_path, ref) == 0
