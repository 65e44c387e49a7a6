"""End-to-end tests of the command-line interface and its exit codes."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chsolver
from chsolver import read_records, read_snapshot, write_records
from chsolver.cli import main


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EQUILIBRIUM_CFG = """
scenario = equilibrium
n = 16
[output]
snapshots = 0.0, 0.05
"""


class TestSimulate:
    def test_writes_records_and_snapshots(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EQUILIBRIUM_CFG)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        records = read_records(out / "records.csv")
        assert len(records) == 10
        assert records[-1].t == pytest.approx(0.1)
        snap0 = read_snapshot(out / "snap_000.bin")
        snap1 = read_snapshot(out / "snap_001.bin")
        assert snap0.time == 0.0
        assert snap1.time == 0.05
        assert np.allclose(snap0.values, 1.0)
        captured = capsys.readouterr()
        assert "10 steps" in captured.out

    def test_record_every_thins_output(self, tmp_path):
        cfg = write_cfg(tmp_path, EQUILIBRIUM_CFG + "record_every = 4\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        records = read_records(out / "records.csv")
        # rows 4 and 8 plus the always-written final row
        assert [rec.n for rec in records] == [4, 8, 10]

    def test_scenario_flag_overrides_file(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\nhorizon = 0.05\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--scenario", "equilibrium", "--outdir", str(out)]) == 0
        assert (out / "records.csv").exists()


class TestConverge:
    def test_writes_table(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scenario = convergence\nn = 16\nhorizon = 0.02\neps = 0.5\n"
            "[converge]\nbase_k = 8\nlevels = 2\nref_steps = 100\n",
        )
        out = tmp_path / "out"
        assert main(["converge", cfg, "--outdir", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "K,tau,h1_error,h1_order,gamma_error,gamma_order,max_ratio"
        assert len(lines) == 3
        assert lines[1].startswith("8,")
        assert lines[2].startswith("16,")
        assert "K=" in capsys.readouterr().out

    def test_defaults_to_convergence_scenario(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "n = 16\nhorizon = 0.02\neps = 0.5\n[converge]\nbase_k = 4\nlevels = 1\nref_steps = 50\n",
        )
        out = tmp_path / "out"
        assert main(["converge", cfg, "--outdir", str(out)]) == 0


class TestKernels:
    def test_writes_kernels_and_residuals(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = convergence\n[kernels]\nmax_n = 30\n")
        out = tmp_path / "out"
        assert main(["kernels", cfg, "--outdir", str(out)]) == 0
        kern_lines = (out / "kernels.csv").read_text().splitlines()
        assert kern_lines[0] == "n,offset,theta,p"
        assert len(kern_lines) == 1 + 30 * 31 // 2
        res_lines = (out / "kernel_residuals.csv").read_text().splitlines()
        assert len(res_lines) == 31
        worst = max(
            max(float(v) for v in line.split(",")[1:4]) for line in res_lines[1:]
        )
        assert worst < 1e-11
        assert "worst identity residual" in capsys.readouterr().out


class TestCheck:
    def test_fresh_run_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        assert main(["check", cfg]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_corrupted_stream_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        out = tmp_path / "out"
        main(["simulate", cfg, "--outdir", str(out)])
        records = read_records(out / "records.csv")
        records[5] = replace(records[5], gamma=records[4].gamma + 1.0)
        bad = tmp_path / "bad.csv"
        write_records(records, bad)
        assert main(["check", cfg, "--records", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "gamma increased" in captured.err
        assert "check failed" in captured.err

    def test_clean_stream_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        out = tmp_path / "out"
        main(["simulate", cfg, "--outdir", str(out)])
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 0


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nbogus_key = 1\n")
        assert main(["simulate", cfg]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "x.cfg"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_nonfinite_horizon_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\nhorizon = nan\n")
        assert main(["simulate", cfg, "--outdir", str(tmp_path / "out")]) == 1
        assert "horizon must be finite" in capsys.readouterr().err

    def test_runtime_failure_is_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["simulate", cfg, "--outdir", str(blocker)]) == 2
        assert "runtime error" in capsys.readouterr().err


class TestThreadControl:
    def test_worker_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHSOLVER_THREADS", "1")
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0

    def test_invalid_value_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHSOLVER_THREADS", "lots")
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        assert main(["simulate", cfg]) == 2
        assert "CHSOLVER_THREADS" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
    out = tmp_path / "out"
    # the child imports the same package as this suite, however it was put on sys.path
    src = str(Path(chsolver.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "chsolver.cli", "simulate", cfg, "--outdir", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert (out / "records.csv").exists()
