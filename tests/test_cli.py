"""CLI subcommands: schema, determinism, config handling, exit codes."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netentropy import channel, cli, quadrature, simulator, validation
from netentropy.channel import ChannelParams


# sha256 of the CSV each command writes, recorded with one integrand call
# per segment and refinement depth (numpy 2.4, x86-64).  Keys are the
# argument lists; the last oracle clamps both p01 and p10 (B = 1 kHz).
GOLDEN_CSV = {
    ("bounds-sweep", "--variable", "r0"):
        "58693a8d047b1ab696e76bad2e699d0273bc7b355a191d59c4542421c64de741",
    ("bounds-sweep", "--variable", "nu"):
        "f8cd9f0b85f4a9d0a8c5a2e69b23dbd19a32a603140cd391dd1bd247f43c3357",
    ("oracle", "--t-max", "12", "--domain", "square"):
        "ea0d06b8e61b136451f514320043c5d1dcde2f7b44e7ed7253cc19a9f4ec0249",
    ("oracle", "--t-max", "12", "--domain", "disk"):
        "83e8b7de5d98b69114786d91b3380a71333cbca578a420ea46636a087d9a7459",
    ("oracle", "--t-max", "12", "--domain", "triangle"):
        "35b2bc9665d7a6bda5247fa4784c98f10efd14f1a5a9c0bf418534c2491d862f",
    ("oracle", "--t-max", "12", "--r0", "0.3", "--symbol-rate", "1000"):
        "baed57950ea5f55763fd1795f0c46b7995d889c4bd114abf9dc29155bd1c929d",
}
# sha256 of the snapshot and summary CSVs of one simulate run, recorded with
# the string-joining export the byte-template one replaced (numpy 2.4,
# x86-64).  Its trial and step numbers cross every digit-count change:
# 9 -> 10 trials, 9 -> 10 and 99 -> 100 steps.
GOLDEN_SIMULATE_ARGV = ("simulate", "--nodes", "6", "--steps", "101",
                        "--trials", "12", "--seed", "7")
GOLDEN_SIMULATE_CSV = {
    "snapshots": "01e76edb6beddcac2fdd6f2e09cb5065acd2136f749fa395018ffa42bdea21b3",
    "summary": "355ae1215e0b616ebbf4c70c9208663ca3ee11dcd66c16adbeb39be34fc7b197",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows_of(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBoundsSweep:
    def test_schema_and_values(self, capsys):
        code, out = run(capsys, "bounds-sweep", "--grid", "0.3,0.7",
                        "--eta", "2", "--domain", "square", "--nodes", "50")
        assert code == 0
        header, rows = rows_of(out)
        assert header == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 2
        assert all(row["status"] == "ok" and row["admissible"] == "1" for row in rows)
        row = rows[1]
        assert float(row["per_edge_lower"]) < float(row["per_edge_upper"])
        assert float(row["network_upper"]) == pytest.approx(
            1225 * float(row["per_edge_upper"]), rel=1e-11)

    def test_network_equals_edge_for_two_nodes(self, capsys):
        code, out = run(capsys, "bounds-sweep", "--grid", "0.7", "--eta", "2",
                        "--domain", "square", "--nodes", "2")
        _, rows = rows_of(out)
        assert rows[0]["network_lower"] == rows[0]["per_edge_lower"]
        assert rows[0]["network_upper"] == rows[0]["per_edge_upper"]

    def test_byte_identical_runs(self, tmp_path):
        args = ["bounds-sweep", "--grid", "0.3,0.7,1.1", "--eta", "2,3",
                "--domain", "square,disk"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_inadmissible_rows_kept(self, capsys):
        code, out = run(capsys, "bounds-sweep", "--variable", "nu",
                        "--grid", "1,100000", "--eta", "2",
                        "--domain", "square", "--symbol-rate", "1e5")
        assert code == 0
        _, rows = rows_of(out)
        assert [row["admissible"] for row in rows] == ["1", "0"]

    def test_nu_sweep_upper_monotone(self, capsys):
        code, out = run(capsys, "bounds-sweep", "--variable", "nu",
                        "--grid", "1,10,100,1000", "--eta", "3",
                        "--domain", "triangle")
        _, rows = rows_of(out)
        uppers = [float(r["per_edge_upper"]) for r in rows]
        assert all(b > a for a, b in zip(uppers, uppers[1:]))

    def test_bad_grid_rejected(self, capsys):
        code, _ = run(capsys, "bounds-sweep", "--grid", "0.7,0.3")
        assert code == 2

    def test_default_grid_size(self, capsys):
        code, out = run(capsys, "bounds-sweep", "--eta", "2", "--domain", "square")
        _, rows = rows_of(out)
        assert code == 0 and len(rows) == cli.DEFAULT_GRID_POINTS

    def test_quadrature_failure_marks_row_and_exit(self, capsys, monkeypatch):
        # the r0 = 0.7 point's integrand turns NaN, so its column alone runs
        # to max_depth; the batch's other columns converge as on their own.
        # Converged columns leave the batch, so the callback tells which
        # point each column of a call holds
        real = cli.entropy.integrate_piecewise
        grid = np.array([0.5, 0.7, 0.9])

        def failing(f, breakpoints, spec, *, columns):
            live = grid

            def narrowed(active):
                nonlocal live
                live = grid[active]
                columns(active)

            def integrand(r):
                vals = f(r)
                vals[..., live == 0.7] = np.nan
                return vals
            return real(integrand, breakpoints, dataclasses.replace(spec, max_depth=6),
                        columns=narrowed)

        argv = ["bounds-sweep", "--eta", "2", "--domain", "square"]
        monkeypatch.setattr(cli.entropy, "integrate_piecewise", failing)
        code, out = run(capsys, *argv, "--grid", "0.5,0.7,0.9")
        monkeypatch.undo()
        assert code == 1
        _, rows = rows_of(out)
        assert [r["status"] for r in rows] == ["ok", "error:quadrature", "ok"]
        assert rows[1]["per_edge_lower"] == "nan"
        for row, value in ((rows[0], "0.5"), (rows[2], "0.9")):
            _, (alone,) = rows_of(run(capsys, *argv, "--grid", value)[1])
            assert row == alone

    def test_overflowed_power_rows_ok(self, capsys):
        # at eta = 300 and r0 = 0.05, (r/r0)**eta overflows inside every
        # domain; the rates take their limits there, so every row converges
        code, out = run(capsys, "bounds-sweep", "--domain", "square,disk,triangle",
                        "--eta", "300", "--grid", "0.05,0.7")
        _, rows = rows_of(out)
        assert code == 0 and [r["status"] for r in rows] == ["ok"] * 6

    def test_batch_split_at_the_column_cap(self, tmp_path, monkeypatch):
        # a 4-column cap splits each 10-point (domain, eta) batch in three
        argv = ["bounds-sweep", "--variable", "nu", "--grid",
                ",".join(str(v) for v in np.geomspace(1.0, 1e4, 10)),
                "--eta", "2,4", "--symbol-rate", "1e4"]
        whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
        assert cli.main(argv + ["--out", str(whole)]) == 0
        monkeypatch.setattr(quadrature, "_MAX_NODES_PER_CALL", 4 * 16)
        assert quadrature.max_columns() == 4
        assert cli.main(argv + ["--out", str(split)]) == 0
        assert split.read_bytes() == whole.read_bytes()

    def test_small_n_rejected(self, capsys):
        code, _ = run(capsys, "bounds-sweep", "--grid", "0.7", "--nodes", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--grid", "0.7", "--domain", ","],
        ["--grid", "0.7", "--eta", ""],
        ["--domain", ","],
    ])
    def test_empty_list_rejected(self, argv, capsys):
        assert cli.main(["bounds-sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: domain and eta lists must be non-empty\n"

    def test_empty_eta_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("grid = 0.7\neta =\n")
        assert cli.main(["bounds-sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: domain and eta lists must be non-empty\n"


@pytest.mark.parametrize("argv", sorted(GOLDEN_CSV))
def test_csv_digest(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[argv]


def test_simulate_csv_digests(tmp_path):
    paths = {"snapshots": tmp_path / "snap.csv", "summary": tmp_path / "sum.csv"}
    assert cli.main(list(GOLDEN_SIMULATE_ARGV) + ["--out", str(paths["snapshots"]),
                                                  "--summary", str(paths["summary"])]) == 0
    got = {key: hashlib.sha256(path.read_bytes()).hexdigest()
           for key, path in paths.items()}
    assert got == GOLDEN_SIMULATE_CSV


@pytest.mark.parametrize("piece_steps", [1, 3, 4])
def test_simulate_csv_digests_by_piece(tmp_path, monkeypatch, piece_steps):
    # pieces of 1, 3 and 4 steps of one trial: every piece but the first of
    # a trial continues the one before, at a block edge or inside a block
    monkeypatch.setattr(simulator, "_piece_steps", lambda n_edges: piece_steps)
    test_simulate_csv_digests(tmp_path)


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep setup\ngrid = 0.5,0.9\neta = 3\n"
                       "domain = disk\nnodes = 10\n")
        code, out = run(capsys, "bounds-sweep", "--config", str(cfg))
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 2
        assert rows[0]["domain"] == "disk" and rows[0]["eta"] == "3"
        assert rows[0]["n"] == "10"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("grid = 0.5,0.9\neta = 3\ndomain = disk\n")
        code, out = run(capsys, "bounds-sweep", "--config", str(cfg),
                        "--eta", "2", "--grid", "0.7")
        _, rows = rows_of(out)
        assert len(rows) == 1
        assert rows[0]["eta"] == "2" and rows[0]["r0"] == "0.7"
        assert rows[0]["domain"] == "disk"

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid = 0.7\nthis line has no equals sign\n")
        assert cli.main(["bounds-sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value'\n"

    def test_simulate_reads_eta_from_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("eta = 4\nnu = 0\nnodes = 3\nsteps = 2\ntrials = 2\nseed = 3\n")
        out = tmp_path / "s.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (tmp_path / "s.csv.summary.csv").read_text()
        # nu=0 freezes the chain: the oracle block entropy is flat in t
        _, rows = rows_of(summary)
        oracle = [float(r["value"]) for r in rows if r["metric"] == "block_entropy_oracle"]
        assert oracle[0] == pytest.approx(oracle[-1], abs=1e-9)


    # each case names the command, its config text and the flags that say the same
    @pytest.mark.parametrize("command, config, flags", [
        ("bounds-sweep",
         "variable = nu\ngrid = 1,10,100\neta = 2,3\ndomain = square,disk\n"
         "nodes = 10\nr0 = 0.5\nsymbol-rate = 2e7\n",
         ["--variable", "nu", "--grid", "1,10,100", "--eta", "2,3", "--domain",
          "square,disk", "--nodes", "10", "--r0", "0.5", "--symbol-rate", "2e7"]),
        ("simulate",
         "domain = disk\nnodes = 4\nsteps = 5\ntrials = 6\nseed = 9\n"
         "r0 = 0.6\neta = 3\nnu = 200\nsymbol_rate = 1e7\n",
         ["--domain", "disk", "--nodes", "4", "--steps", "5", "--trials", "6",
          "--seed", "9", "--r0", "0.6", "--eta", "3", "--nu", "200",
          "--symbol-rate", "1e7"]),
        ("oracle", "t-max = 6\ndomain = triangle\neta = 3\n",
         ["--t-max", "6", "--domain", "triangle", "--eta", "3"]),
        ("oracle", "t_max = 5\nr0 = 0.3\nnu = 50\n",
         ["--t-max", "5", "--r0", "0.3", "--nu", "50"]),
    ])
    def test_config_matches_flags(self, command, config, flags, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        for tag, argv in (("cfg", ["--config", str(cfg)]), ("flags", flags)):
            assert cli.main([command, *argv, "--out", str(tmp_path / f"{tag}.csv")]) == 0
        assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
        if command == "simulate":
            assert ((tmp_path / "cfg.csv.summary.csv").read_bytes()
                    == (tmp_path / "flags.csv.summary.csv").read_bytes())

    # grdi is a typo of grid, steps belongs to simulate, and out is a path,
    # which only a flag may give
    @pytest.mark.parametrize("command, key", [
        ("bounds-sweep", "grdi"), ("bounds-sweep", "steps"), ("oracle", "out"),
    ])
    def test_unknown_key_rejected(self, command, key, tmp_path, capsys):
        out = tmp_path / "out.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {out}\n" if key == "out" else f"{key} = 0.7\n")
        argv = [command, "--config", str(cfg)]
        if key != "out":
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and key in err
        assert not out.exists()

    def test_config_leaves_no_defaults_behind(self, tmp_path):
        # the parser outlives a call: a later call without --config must not
        # see the earlier call's file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t-max = 6\ndomain = triangle\neta = 3\nr0 = 0.4\n")
        for tag, argv in (("before", []), ("cfg", ["--config", str(cfg)]), ("after", [])):
            assert cli.main(["oracle", *argv, "--out", str(tmp_path / f"{tag}.csv")]) == 0
        out = {tag: (tmp_path / f"{tag}.csv").read_bytes() for tag in ("before", "cfg", "after")}
        assert out["after"] == out["before"] != out["cfg"]

    def test_bad_choice_fails_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("variable = eta\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds-sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "argument --variable: invalid choice: 'eta'" in capsys.readouterr().err

    def test_bad_value_fails_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("grid = 0.7\nnodes = abc\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds-sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "argument --nodes: invalid int value: 'abc'" in capsys.readouterr().err


class TestSimulate:
    def test_byte_identical_outputs(self, tmp_path):
        args = ["simulate", "--nodes", "4", "--steps", "6", "--trials", "20",
                "--seed", "31415", "--eta", "2"]
        for tag in ("x", "y"):
            cli.main(args + ["--out", str(tmp_path / f"{tag}.csv"),
                             "--summary", str(tmp_path / f"{tag}.sum.csv")])
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.sum.csv").read_bytes() == (tmp_path / "y.sum.csv").read_bytes()

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "snap.csv"
        code = cli.main(["simulate", "--nodes", "3", "--steps", "10",
                         "--trials", "50", "--seed", "7", "--out", str(out)])
        assert code == 0
        header, rows = rows_of((tmp_path / "snap.csv.summary.csv").read_text())
        assert header == ["metric", "arg1", "arg2", "value"]
        metrics = {r["metric"] for r in rows}
        assert {"mean_edge_density", "transition_frequency",
                "block_entropy_empirical", "block_entropy_oracle",
                "block_entropy_delta"} <= metrics
        ts = [r["arg1"] for r in rows if r["metric"] == "block_entropy_oracle"]
        assert ts == [str(t) for t in range(1, 9)]

    def test_single_snapshot_summary(self, tmp_path):
        out = tmp_path / "one.csv"
        code = cli.main(["simulate", "--nodes", "3", "--steps", "1",
                         "--trials", "1", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3  # header + one snapshot of C(3,2) edges
        _, rows = rows_of((tmp_path / "one.csv.summary.csv").read_text())
        metrics = [r["metric"] for r in rows]
        assert "transition_frequency" not in metrics  # needs two steps
        assert metrics.count("mean_edge_density") == 1

    @pytest.mark.parametrize("batch_trials", [1, 2, 3])
    def test_batches_give_the_one_batch_bytes(self, tmp_path, monkeypatch, batch_trials):
        # 12 trials of 11 steps cross the 9 -> 10 trial and step numbers
        # inside a piece of whole trials and between pieces; each trial's 6
        # edge streams take 3 Philox blocks, so a budget of 18 blocks per
        # trial makes pieces of batch_trials trials
        args = ["simulate", "--nodes", "4", "--steps", "11", "--trials", "12",
                "--seed", "8", "--nu", "20000", "--symbol-rate", "1e6"]

        def run(tag):
            out, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.sum.csv"
            assert cli.main(args + ["--out", str(out), "--summary", str(summary)]) == 0
            return out.read_bytes(), summary.read_bytes()

        whole = run("whole")
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", 18 * batch_trials)
        assert run("batched") == whole

    def test_snapshots_to_stdout(self, tmp_path):
        # '-' streams the snapshots to stdout: a pipe reads the bytes that
        # --out writes to a file
        args = ["simulate", "--nodes", "4", "--steps", "12", "--trials", "11",
                "--seed", "5"]
        assert cli.main(args + ["--out", str(tmp_path / "snap.csv"),
                                "--summary", str(tmp_path / "file.sum.csv")]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "netentropy", *args, "--out", "-",
                               "--summary", "pipe.sum.csv"], cwd=tmp_path, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (tmp_path / "snap.csv").read_bytes()
        assert ((tmp_path / "pipe.sum.csv").read_bytes()
                == (tmp_path / "file.sum.csv").read_bytes())
        assert not (tmp_path / "-").exists()

    def test_reader_closing_the_pipe_ends_quietly(self, tmp_path):
        # a reader that takes the first lines and closes the pipe (| head)
        # stops the run without an error message
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen([sys.executable, "-m", "netentropy", "simulate",
                                 "--trials", "3", "--out", "-", "--summary", "s.csv"],
                                cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head[0] == b"trial,step,edge_i,edge_j,state\n"
        assert head[1].startswith(b"0,0,0,1,")
        assert err == b""
        assert proc.returncode == 1
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("summary", [[], ["--summary", "-"]])
    def test_stdout_needs_summary(self, tmp_path, capsys, monkeypatch, summary):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["simulate", "--nodes", "3", "--steps", "2", "--trials", "1",
                         "--out", "-"] + summary)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--summary" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_memory_does_not_grow_with_trials(self, tmp_path):
        # the run is streamed piece by piece, at most two pieces of states
        # held at a time (traced numpy and Python allocations).  A piece is
        # one trial here (10,875 Philox blocks of the 16,384 a piece may
        # hold), so the peak grows only by the per-trial tallies.  Holding
        # every trial's states, and two more arrays of that size for the
        # summary, grew the peak from 3.11 MB at 4 trials to 9.48 MB at 64
        def peak(trials):
            tracemalloc.start()
            try:
                assert cli.main(["simulate", "--nodes", "30", "--steps", "100",
                                 "--trials", str(trials), "--seed", "3",
                                 "--out", str(tmp_path / "snap.csv"),
                                 "--summary", str(tmp_path / "sum.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # fills the module's caches; not compared
        at_4, at_64, at_256 = peak(4), peak(64), peak(256)
        assert at_64 - at_4 < 1.25 * 2 ** 20
        assert at_256 - at_64 < 256 * 1024

    def test_memory_does_not_grow_with_steps(self):
        # one trial of 66 edges is cut into pieces of 992 steps (248 Philox
        # blocks of every edge); a piece is made while the one before is
        # held, so from 2,000 steps on the traced peak is that of two
        # pieces.  Holding the trial's states grew it from 1.56 MB at 2,000
        # steps to 3.32 MB at 16,000
        def peak(steps):
            tracemalloc.start()
            try:
                assert cli.main(["simulate", "--nodes", "12", "--steps", str(steps),
                                 "--trials", "1", "--seed", "3",
                                 "--out", os.devnull, "--summary", os.devnull]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert simulator._piece_steps(66) == 992
        peak(2000)  # fills the module's caches; not compared
        at_2k, at_16k = peak(2000), peak(16000)
        assert at_16k - at_2k < 64 * 1024


class TestFileErrors:
    @pytest.mark.parametrize("command", ["bounds-sweep", "simulate", "oracle"])
    def test_missing_config(self, command, tmp_path, capsys):
        argv = [command, "--config", str(tmp_path / "missing.cfg")]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "snap.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.cfg" in err

    # each argv ends in the flag that gets a path in a missing directory
    @pytest.mark.parametrize("argv", [
        ["bounds-sweep", "--grid", "0.7", "--eta", "2", "--domain", "square", "--out"],
        ["oracle", "--t-max", "2", "--out"],
        ["simulate", "--nodes", "3", "--steps", "2", "--trials", "2", "--seed", "1",
         "--out"],
        ["simulate", "--nodes", "3", "--steps", "2", "--trials", "2", "--seed", "1",
         "--out", "snap.csv", "--summary"],
    ])
    def test_unwritable_out(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "missing" / "x.csv"
        assert cli.main(argv + [str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "x.csv" in err


# Runs every command in a fresh interpreter and lists the scipy modules it
# loaded; the library's runtime path needs only numpy.
_IMPORT_PROBE = """
import contextlib, io, sys
from netentropy import cli
assert cli.main(["bounds-sweep", "--grid", "0.7", "--eta", "2",
                 "--domain", "square", "--out", "sweep.csv"]) == 0
assert cli.main(["oracle", "--t-max", "2", "--out", "oracle.csv"]) == 0
assert cli.main(["simulate", "--nodes", "3", "--steps", "2", "--trials", "2",
                 "--out", "snap.csv"]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["validate", "--level", "fast"]) == 0
print(",".join(sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))))
"""


def test_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max = 3\n")
    for argv in (["oracle", "--t-max", "2"], ["oracle", "--config", str(cfg)],
                 ["bounds-sweep", "--grid", "0.7", "--eta", "2", "--domain", "square"]):
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert len(built) == 1


class TestValidate:
    def test_fast_level_passes(self, capsys):
        import time
        t0 = time.perf_counter()
        code, out = run(capsys, "validate", "--level", "fast")
        elapsed = time.perf_counter() - t0
        assert code == 0
        # one line per registered check, in registry order, then the footer
        lines = out.splitlines()
        assert len(lines) == len(validation.CHECKS) + 1
        for line, check in zip(lines, validation.CHECKS):
            assert line.startswith(f"[PASS] {check.name}: ")
        assert lines[-1] == "17/17 checks passed (fast)"
        assert elapsed < 60.0

    def test_fault_injection_detected(self, capsys, monkeypatch, broken_detailed_balance):
        monkeypatch.setattr(validation, "CHECKS", [validation.check_detailed_balance])
        code, out = run(capsys, "validate", "--level", "fast")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("[FAIL] channel/detailed-balance: ")
        assert lines[1:] == ["0/1 checks passed (fast)"]


class TestOracle:
    def test_profile_csv(self, capsys):
        code, out = run(capsys, "oracle", "--t-max", "10", "--eta", "2")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["t", "block_entropy", "conditional_increment",
                          "per_edge_lower", "per_edge_upper"]
        assert len(rows) == 10
        increments = [float(r["conditional_increment"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))
        lower = float(rows[-1]["per_edge_lower"])
        upper = float(rows[-1]["per_edge_upper"])
        assert lower <= increments[-1] <= upper

    def test_one_clamp_radius_solve_per_call(self, tmp_path, monkeypatch):
        # the bounds and the profile share one set of breakpoints; the last
        # point clamps both p01 and p10
        calls = []
        real = channel.clamp_radii

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(channel, "clamp_radii", counted)
        for extra in ([], ["--domain", "disk", "--eta", "3"],
                      ["--r0", "0.3", "--symbol-rate", "1000"]):
            calls.clear()
            assert cli.main(["oracle", "--t-max", "4", *extra,
                             "--out", str(tmp_path / "o.csv")]) == 0
            assert len(calls) == 1

    def test_one_validation_per_call(self, tmp_path, monkeypatch):
        # the command line's parameters are checked once; the batch and point
        # views the bounds, the profile and the clamp radii take are not
        calls = []
        real = ChannelParams.__post_init__

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(ChannelParams, "__post_init__", counted)
        for extra in ([], ["--r0", "0.3", "--symbol-rate", "1000"]):
            calls.clear()
            assert cli.main(["oracle", "--t-max", "4", *extra,
                             "--out", str(tmp_path / "o.csv")]) == 0
            assert len(calls) == 1

    def test_rejects_excessive_t(self, capsys):
        code, _ = run(capsys, "oracle", "--t-max", "13")
        assert code == 2

    def test_rejects_non_finite_doppler(self, capsys):
        assert cli.main(["oracle", "--t-max", "4", "--nu", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error:")
