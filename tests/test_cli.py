"""CLI subcommands: schema, determinism, config handling, exit codes."""

import pytest

from netentropy import cli


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
        from netentropy.quadrature import QuadratureError

        calls = []

        def flaky(n, domain, params, spec=None):
            calls.append(params.r0)
            if len(calls) == 2:
                raise QuadratureError("forced failure")
            return real(n, domain, params)

        real = cli.entropy.entropy_rate_bounds
        monkeypatch.setattr(cli.entropy, "entropy_rate_bounds", flaky)
        code, out = run(capsys, "bounds-sweep", "--grid", "0.5,0.7,0.9",
                        "--eta", "2", "--domain", "square")
        assert code == 1
        _, rows = rows_of(out)
        assert [r["status"] for r in rows] == ["ok", "error:quadrature", "ok"]
        assert rows[1]["per_edge_lower"] == "nan"

    def test_small_n_rejected(self, capsys):
        code, _ = run(capsys, "bounds-sweep", "--grid", "0.7", "--nodes", "1")
        assert code == 2


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
        cfg.write_text("this line has no equals sign\n")
        with pytest.raises(SystemExit):
            cli.main(["bounds-sweep", "--config", str(cfg)])

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

    def test_unwritable_path(self, tmp_path, capsys):
        code = cli.main(["simulate", "--nodes", "3", "--steps", "2",
                         "--trials", "2", "--seed", "1",
                         "--out", str(tmp_path / "missing" / "snap.csv")])
        assert code == 1
        assert "cannot write snapshots" in capsys.readouterr().err


class TestValidate:
    def test_fast_level_passes(self, capsys):
        import time
        t0 = time.perf_counter()
        code, out = run(capsys, "validate", "--level", "fast")
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 15
        assert elapsed < 60.0

    def test_fault_injection_detected(self, capsys):
        code, out = run(capsys, "validate", "--level", "fast",
                        "--inject-fault", "detailed-balance")
        assert code == 1
        assert "[FAIL] channel/detailed-balance" in out


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

    def test_rejects_excessive_t(self, capsys):
        code, _ = run(capsys, "oracle", "--t-max", "13")
        assert code == 2

    def test_rejects_non_finite_doppler(self, capsys):
        assert cli.main(["oracle", "--t-max", "4", "--nu", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error:")
