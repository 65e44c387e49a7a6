"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import errno
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chsolver
import kernel_reference
from chsolver import StepRecord, cli, read_records, read_snapshot, recordio, spectral, write_records
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

    def test_crash_keeps_the_streamed_rows(self, tmp_path, capsys, monkeypatch):
        # rows and snapshots are written as the run goes, so a failure at
        # step 7 leaves steps 1-6 on disk, and they pass the check
        import chsolver.policies as policies

        cfg = write_cfg(tmp_path, EQUILIBRIUM_CFG)
        out = tmp_path / "out"
        real_advance = policies.advance

        def failing_advance(state, tau):
            if state.step_index + 1 == 7:
                raise RuntimeError("injected failure")
            return real_advance(state, tau)

        monkeypatch.setattr(policies, "advance", failing_advance)
        assert main(["simulate", cfg, "--outdir", str(out)]) == 2
        assert "injected failure" in capsys.readouterr().err
        assert [rec.n for rec in read_records(out / "records.csv")] == [1, 2, 3, 4, 5, 6]
        assert [read_snapshot(out / f"snap_{i:03d}.bin").time for i in range(2)] == [0.0, 0.05]
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 0

    def test_failure_in_step_one_leaves_no_outdir(self, tmp_path, capsys, monkeypatch):
        # the directory is made with the first file written, after step 1
        import chsolver.policies as policies

        def failing_advance(state, tau):
            raise RuntimeError("injected failure")

        cfg = write_cfg(tmp_path, EQUILIBRIUM_CFG)
        out = tmp_path / "out"
        monkeypatch.setattr(policies, "advance", failing_advance)
        assert main(["simulate", cfg, "--outdir", str(out)]) == 2
        assert "injected failure" in capsys.readouterr().err
        assert not out.exists()

    def test_stops_at_a_step_whose_eta_is_not_positive(self, tmp_path, capsys):
        # coarsening2d at its default n = 128: step 1 gives xi = 12.1 and
        # eta = xi (2 - xi) = -122.3, and the run stops before it writes a file
        cfg = write_cfg(tmp_path, "scenario = coarsening2d\nhorizon = 0.001\n[output]\nsnapshots = 0.0, 0.001\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "runtime error: CollapsedFieldError: step 1: xi = 12.104277988139017 gives eta = -122.3049896378687 <= 0"
        )
        assert "smaller n" in captured.err
        assert not out.exists()

    def test_an_underflowed_scalar_stops_the_run_and_keeps_its_prefix(self, tmp_path, capsys):
        # tau = 1e299: gamma is 1.6e-264 after step 1, and step 2 takes it,
        # xi and eta to 0; step 1's row and the t = 0 snapshot stay
        cfg = write_cfg(
            tmp_path,
            "scenario = convergence\nn = 8\nhorizon = 1e300\n[policy]\nkind = fixed\ntau = 1e299\n"
            "[output]\nsnapshots = 0.0\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 2
        assert "CollapsedFieldError: step 2: xi = 0.0 gives eta = 0.0 <= 0" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["records.csv", "snap_000.bin"]
        assert [rec.n for rec in read_records(out / "records.csv")] == [1]
        assert read_snapshot(out / "snap_000.bin").time == 0.0
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 0
        capsys.readouterr()
        # the rerun reports every step and does not stop
        assert main(["check", cfg]) == 1
        assert capsys.readouterr().err.endswith("check failed: 28 violation(s) over 10 steps\n")

    def test_summary_starts_from_gamma0(self, tmp_path, capsys):
        # gamma0 = E0 + 1 of the initial state, not step 1's gamma, and max |1 - xi|
        cfg = write_cfg(
            tmp_path,
            "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = fixed\ntau = 0.003\n"
            "[output]\nsnapshots =\n",
        )
        scenario = chsolver.build_scenario(chsolver.parse_config(cfg))
        gamma0 = chsolver.scenarios.initial_state(scenario).gamma
        records, _ = chsolver.run_scenario(scenario)
        xi_dev = max(abs(1.0 - rec.xi) for rec in records)
        assert records[0].gamma != gamma0
        assert main(["simulate", cfg, "--outdir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            f"coarsening2d: 4 steps to t = 0.01, gamma {gamma0:.6g} -> {records[-1].gamma:.6g}, "
            f"max |1 - xi| {xi_dev:.3g}"
        )

    def test_a_tiny_eta_warns_and_exits_0(self, tmp_path, capsys):
        # tau = 1e150: gamma falls to 7.7e-232 and eta to 1.3e-233, still
        # positive, so the run finishes; max |1 - xi| = 1 is above XI_WARN
        cfg = write_cfg(
            tmp_path,
            "scenario = convergence\nn = 8\nhorizon = 1e151\n[policy]\nkind = fixed\ntau = 1e150\n"
            "[output]\nsnapshots =\n",
        )
        assert main(["simulate", cfg, "--outdir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].endswith("max |1 - xi| 1")
        assert captured.err == (
            "warning: max |1 - xi| 1 exceeds 0.1, so the written field is far from the scheme's auxiliary field; "
            "rerun at a smaller n (or with shorter steps)\n"
        )

    @pytest.mark.parametrize("above", [False, True])
    def test_the_warning_bound_is_strict(self, tmp_path, capsys, monkeypatch, above):
        # the bound set at this run's own max |1 - xi|, and just below it
        cfg = write_cfg(tmp_path, "scenario = kissing_bubbles\nn = 16\nhorizon = 0.05\n[output]\nsnapshots =\n")
        records, _ = chsolver.run_scenario(chsolver.build_scenario(chsolver.parse_config(cfg)))
        xi_dev = max(abs(1.0 - rec.xi) for rec in records)
        assert 0.0 < xi_dev < cli.XI_WARN
        monkeypatch.setattr(cli, "XI_WARN", math.nextafter(xi_dev, 0.0) if above else xi_dev)
        assert main(["simulate", cfg, "--outdir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"warning: max |1 - xi| {xi_dev:.3g} exceeds ") if above else err == ""

    def test_rows_reach_the_file_within_the_flush_interval(self, tmp_path, monkeypatch):
        # with no interval every kept row is on disk before the next step starts
        import chsolver.cli as cli
        import chsolver.policies as policies

        cfg = write_cfg(tmp_path, EQUILIBRIUM_CFG + "record_every = 2\n")
        out = tmp_path / "out"
        real_advance = policies.advance
        seen = []

        def watching_advance(state, tau):
            path = out / "records.csv"
            seen.append([r.n for r in read_records(path)] if path.exists() else None)
            return real_advance(state, tau)

        monkeypatch.setattr(cli, "ROW_FLUSH_SECONDS", 0.0)
        monkeypatch.setattr(policies, "advance", watching_advance)
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        assert seen[:5] == [None, [], [2], [2], [2, 4]]
        assert [r.n for r in read_records(out / "records.csv")] == [2, 4, 6, 8, 10]

    def test_a_run_keeps_no_records(self, tmp_path, capsys, monkeypatch):
        # 200 steps and one row written: at step 200 the run holds the last
        # record for the summary line, not one per step
        import gc

        import chsolver.policies as policies

        cfg = write_cfg(
            tmp_path,
            "scenario = equilibrium\nn = 8\nhorizon = 1.0\n[policy]\ntau = 0.005\n[output]\nrecord_every = 1000\n",
        )
        real_advance = policies.advance
        live = []

        def counting_advance(state, tau):
            if state.step_index + 1 == 200:
                gc.collect()
                live.append(sum(isinstance(o, StepRecord) for o in gc.get_objects()) - before)
            return real_advance(state, tau)

        monkeypatch.setattr(policies, "advance", counting_advance)
        gc.collect()
        before = sum(isinstance(o, StepRecord) for o in gc.get_objects())
        assert main(["simulate", cfg, "--outdir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("equilibrium: 200 steps to t = 1,")
        assert len(live) == 1 and live[0] <= 3
        assert [rec.n for rec in read_records(tmp_path / "out" / "records.csv")] == [200]

    def test_scenario_flag_overrides_file(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\nhorizon = 0.05\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--scenario", "equilibrium", "--outdir", str(out)]) == 0
        assert (out / "records.csv").exists()


class TestConverge:
    def test_runs_through_a_collapsed_scalar(self, tmp_path, capsys):
        # the stop rule is simulate's: converge reports xi_dev and goes on
        cfg = write_cfg(tmp_path, "scenario = coarsening2d\nhorizon = 1e-4\n[converge]\nbase_k = 4\nlevels = 2\nref_steps = 8\n")
        assert main(["converge", cfg, "--outdir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert max(float(row.split(",")[-1]) for row in rows) > 1.0

    def test_writes_table(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scenario = convergence\nn = 16\nhorizon = 0.02\neps = 0.5\n"
            "[converge]\nbase_k = 8\nlevels = 2\nref_steps = 100\n",
        )
        out = tmp_path / "out"
        assert main(["converge", cfg, "--outdir", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "K,tau,h1_error,h1_order,gamma_error,gamma_order,max_ratio,xi_dev"
        assert len(lines) == 3
        # xi_dev = max |1 - xi| over the level's run: small, and never exactly 0 here
        assert all(0.0 < float(line.split(",")[7]) < 1e-2 for line in lines[1:])
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

    def test_file_scenario_is_honoured(self, tmp_path):
        # the stationary scenario keeps gamma = 1 exactly, so every gamma
        # error is 0 and has no order (the bubble would give errors of order 1)
        cfg = write_cfg(
            tmp_path,
            "scenario = equilibrium\nn = 16\n[converge]\nbase_k = 4\nlevels = 2\nref_steps = 20\n",
        )
        out = tmp_path / "out"
        assert main(["converge", cfg, "--outdir", str(out)]) == 0
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["4", "8"]
        for r in rows:
            assert float(r[2]) < 1e-13
            assert float(r[4]) == 0.0 and r[5] == "nan"
        assert rows[0][3] == "nan"

    def test_equilibrium_errors_are_exactly_zero(self, tmp_path):
        # the pure phase is a fixed point of every step, bit for bit, so
        # every error is 0 and no order is computed from rounding noise
        cfg = write_cfg(
            tmp_path,
            "scenario = equilibrium\nn = 16\n[converge]\nbase_k = 8\nlevels = 2\nref_steps = 200\n",
        )
        out = tmp_path / "out"
        assert main(["converge", cfg, "--outdir", str(out)]) == 0
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["8", "16"]
        for r in rows:
            assert float(r[2]) == 0.0 and float(r[4]) == 0.0
            assert r[3] == "nan" and r[5] == "nan"
            assert float(r[7]) == 0.0

    def test_preset_snapshots_beyond_a_short_horizon_are_ignored(self, tmp_path):
        # coarsening2d presets snapshots up to t = 3; converge writes none
        cfg = write_cfg(
            tmp_path,
            "scenario = coarsening2d\nn = 16\nhorizon = 0.02\n"
            "[converge]\nbase_k = 4\nlevels = 1\nref_steps = 8\n",
        )
        out = tmp_path / "out"
        assert main(["converge", cfg, "--outdir", str(out)]) == 0
        assert len((out / "convergence.csv").read_text().splitlines()) == 2
        assert not list(out.glob("snap_*"))


class TestKernels:
    def test_preset_snapshots_beyond_a_short_horizon_are_ignored(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = coarsening2d\nhorizon = 0.02\n[kernels]\nmax_n = 10\n")
        out = tmp_path / "out"
        assert main(["kernels", cfg, "--outdir", str(out)]) == 0
        assert len((out / "kernel_residuals.csv").read_text().splitlines()) == 11
        # simulate still checks the preset times against the horizon
        assert main(["simulate", cfg, "--outdir", str(out)]) == 1

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

    def test_single_row_is_rejected_before_writing(self, tmp_path, capsys):
        # random_mesh needs two steps; the config check must fail before the outdir is made
        cfg = write_cfg(tmp_path, "scenario = convergence\n[kernels]\nmax_n = 1\n")
        out = tmp_path / "out"
        assert main(["kernels", cfg, "--outdir", str(out)]) == 1
        assert "max_n must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_rows_parse_back_exactly(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = convergence\nseed = 3\n[kernels]\nmax_n = 30\n")
        out = tmp_path / "out"
        assert main(["kernels", cfg, "--outdir", str(out)]) == 0
        parsed = chsolver.parse_config(cfg)
        mesh = chsolver.random_mesh(parsed.horizon, 30, parsed.seed)
        lines = (out / "kernels.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        for n in range(1, 31):
            block = slice(n * (n - 1) // 2, n * (n + 1) // 2)
            theta, p = chsolver.doc_kernels(mesh, n).tolist(), chsolver.dcc_kernels(mesh, n).tolist()
            assert [(int(r[0]), int(r[1])) for r in rows[block]] == [(n, m) for m in range(n)]
            assert [float(r[2]) for r in rows[block]] == theta
            assert [float(r[3]) for r in rows[block]] == p
            # the text itself is the per-value .17g of each kernel
            assert lines[block] == [f"{n},{m},{a:.17g},{b:.17g}" for m, (a, b) in enumerate(zip(theta, p))]

    def test_kernels_csv_matches_the_per_row_writer(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = convergence\nseed = 2\n[kernels]\nmax_n = 100\n")
        out = tmp_path / "out"
        assert main(["kernels", cfg, "--outdir", str(out)]) == 0
        parsed = chsolver.parse_config(cfg)
        theta, p = chsolver.kernel_matrices(chsolver.random_mesh(parsed.horizon, 100, parsed.seed), 100)
        kernel_reference.write_kernels_csv(tmp_path / "reference.csv", theta, p)
        assert (out / "kernels.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_a_nonfinite_residual_fails_and_names_its_row(self, tmp_path, capsys):
        # a subnormal horizon: the BDF2 weights 1/tau overflow to inf, so
        # every residual is nan in every row; both files are still written
        cfg = write_cfg(tmp_path, "scenario = convergence\nhorizon = 1e-310\n[kernels]\nmax_n = 12\n")
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["kernels", cfg, "--outdir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("worst identity residual over n <= 12: nan\n")
        assert captured.err == (
            "row 1: doc_orthogonality = nan not finite\nkernels failed: 12 of 12 rows hold a nonfinite residual\n"
        )
        assert len((out / "kernels.csv").read_text().splitlines()) == 1 + 12 * 13 // 2
        assert len((out / "kernel_residuals.csv").read_text().splitlines()) == 13

    def test_a_later_nonfinite_residual_is_the_first_named(self, tmp_path, capsys, monkeypatch):
        # an inf in row 5 of one column and a nan in row 7 of another: the
        # worst is nan whatever the column order, and row 5 is named
        residuals = cli._residuals

        def spoiled_residuals(*args):
            res = residuals(*args)
            res.dcc_sum[4] = math.inf
            res.doc_orthogonality[6] = math.nan
            return res

        monkeypatch.setattr(cli, "_residuals", spoiled_residuals)
        cfg = write_cfg(tmp_path, "scenario = convergence\n[kernels]\nmax_n = 12\n")
        assert main(["kernels", cfg, "--outdir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("worst identity residual over n <= 12: nan\n")
        assert captured.err == "row 5: dcc_sum = inf not finite\nkernels failed: 2 of 12 rows hold a nonfinite residual\n"


def lower(rows):
    """The square lower-triangular float64 matrix of the given rows, row i
    holding i + 1 values."""
    out = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        out[i, : i + 1] = row
    return out


def parted_kernels_csv(theta, p, starts):
    """kernels.csv as the command writes it, with a new writer call (a
    part) from each row in starts."""
    bounds = [1, *starts, len(p) + 1]
    text = ["n,offset,theta,p\n"]
    write_rows = cli.kernel_rows(theta, p)
    for a, b in zip(bounds, bounds[1:]):
        write_rows(range(a, b), text.append)
    return "".join(text).encode()


def reference_kernels_csv(tmp_path, theta, p):
    kernel_reference.write_kernels_csv(tmp_path / "reference.csv", theta, p)
    return (tmp_path / "reference.csv").read_bytes()


# the rows of p matrices built to break a cache of p's text (theta is -p)
NAN, INF = math.nan, math.inf
REUSE_CASES = {
    "one-row": [[0.5]],
    "two-rows": [[0.5], [0.5, 0.25]],
    "zero-then-negative-zero": [[0.0], [0.0, 1.0], [-0.0, 1.0, 2.0], [-0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0, 4.0]],
    "nan-and-infinities": [[NAN], [NAN, INF], [NAN, -INF, 1.0], [NAN, -INF, 1.0, -NAN], [1.0, -INF, INF, -NAN, NAN]],
    "changes-after-a-run": [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 3.0, 4.0, 5.0],
                            [1.5, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]],
    "change-mid-row": [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 2.5, 3.0, 4.0], [1.0, 2.5, 3.0, 4.0, 5.0],
                       [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
    # rows 2 and 3 hold the bits of the row above, up to their 0.0 diagonals
    "same-as-the-row-above": [[1.0], [1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 2.0]],
}
# parts' first rows (those beyond a case's last row are dropped)
PART_STARTS = [(), (2,), (3,), (5,), (2, 3), (3, 5), (2, 4, 6), (2, 3, 4, 5, 6, 7)]

reuse_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 5e-324, NAN, -NAN, INF, -INF])


class TestKernelRows:
    """kernels.csv's row writer, which keeps the text of p a column shares
    with the row above, gives the bytes of the per-row reference writer on
    any matrices and any cut into parts."""

    @pytest.mark.parametrize("starts", PART_STARTS, ids=str)
    @pytest.mark.parametrize("case", REUSE_CASES)
    def test_matches_the_reference_writer(self, tmp_path, case, starts):
        p = lower(REUSE_CASES[case])
        starts = [s for s in starts if s <= len(p)]
        assert parted_kernels_csv(-p, p, starts) == reference_kernels_csv(tmp_path, -p, p)

    def test_a_row_without_a_change_is_formatted_whole(self):
        # only a 0.0 diagonal, under the 0.0 above the row above's diagonal, can match
        assert cli.kernel_p_changes(lower(REUSE_CASES["same-as-the-row-above"])) == [0, 0, 0, 3]
        assert cli.kernel_p_changes(lower(REUSE_CASES["change-mid-row"])) == [0, 1, 2, 1, 4, 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9))
    def test_matches_the_reference_writer_on_drawn_matrices(self, tmp_path_factory, data, n):
        # a column keeps its value, or takes another, from row to row
        rows = [data.draw(st.lists(reuse_values, min_size=1, max_size=1))]
        for i in range(1, n):
            keep = data.draw(st.lists(st.booleans(), min_size=i, max_size=i))
            drawn = data.draw(st.lists(reuse_values, min_size=i + 1, max_size=i + 1))
            rows.append([a if k else b for a, b, k in zip(rows[-1], drawn, keep)] + drawn[i:])
        p = lower(rows)
        theta = lower([data.draw(st.lists(reuse_values, min_size=i, max_size=i)) for i in range(1, n + 1)])
        starts = sorted(data.draw(st.sets(st.integers(2, n), max_size=3))) if n > 1 else []
        tmp_path = tmp_path_factory.mktemp("kernels")
        assert parted_kernels_csv(theta, p, starts) == reference_kernels_csv(tmp_path, theta, p)

    def test_matches_the_reference_writer_on_a_mesh(self, tmp_path):
        theta, p = chsolver.kernel_matrices(chsolver.random_mesh(0.1, 160, 6), 160)
        assert parted_kernels_csv(theta, p, [50, 51, 120]) == reference_kernels_csv(tmp_path, theta, p)

    @pytest.mark.parametrize("seed", range(8))
    def test_most_p_texts_are_reused(self, seed):
        # the p values the writer formats, counted where it takes them out of p
        formatted = []

        class Counted(np.ndarray):
            def tolist(self):
                formatted.append(self.size)
                return super().tolist()

        theta, p = chsolver.kernel_matrices(chsolver.random_mesh(0.1, 400, seed), 400)
        write_rows = cli.kernel_rows(theta, p.view(Counted))
        formatted.clear()
        lines = []
        write_rows(range(1, 401), lines.append)
        values = 400 * 401 // 2
        assert len(formatted) == 400
        assert sum(formatted) == values - sum(cli.kernel_p_changes(p))
        assert sum(formatted) <= 0.2 * values


# kernels.csv at this max_n has 12880 lines, enough for four formatting
# processes, each writing more than 64 KiB
SPLIT_N = 160


def split_cfg(tmp_path):
    assert SPLIT_N * (SPLIT_N + 1) // 2 >= 4 * cli.FORK_MIN_LINES
    return write_cfg(tmp_path, f"scenario = convergence\nseed = 4\n[kernels]\nmax_n = {SPLIT_N}\n")


def write_reference(tmp_path, cfg):
    parsed = chsolver.parse_config(cfg)
    theta, p = chsolver.kernel_matrices(chsolver.random_mesh(parsed.horizon, SPLIT_N, parsed.seed), SPLIT_N)
    kernel_reference.write_kernels_csv(tmp_path / "reference.csv", theta, p)
    return (tmp_path / "reference.csv").read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Hung(BaseException):
    """Raised by deadline's alarm; not an Exception, so main lets it through."""


@contextlib.contextmanager
def deadline(seconds=60):
    """Turns a command that blocks for good (a child waited for while it
    waits on the command) into a Hung error."""

    def hung(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestKernelsOnEveryCore:
    def test_output_does_not_depend_on_the_core_count(self, tmp_path, monkeypatch):
        cfg = split_cfg(tmp_path)
        reference = write_reference(tmp_path, cfg)
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(None)  # a child appends to its own copy
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        residuals = set()
        for cores in (1, 2, 3):
            monkeypatch.setattr(spectral, "CORES", cores)
            parts = cli._kernel_parts(SPLIT_N)
            # contiguous parts, of unequal line counts once split
            assert [n for rows in parts for n in rows] == list(range(1, SPLIT_N + 1))
            assert len({sum(rows) for rows in parts}) == cores
            forks.clear()
            out = tmp_path / f"cores{cores}"
            assert main(["kernels", cfg, "--outdir", str(out)]) == 0
            assert len(forks) == cores - 1
            assert (out / "kernels.csv").read_bytes() == reference
            residuals.add((out / "kernel_residuals.csv").read_bytes())
            assert_no_child_left()
        assert len(residuals) == 1

    def test_below_the_threshold_nothing_is_forked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "CORES", 2)
        max_n = 2
        while (max_n + 1) * (max_n + 2) // 2 < 2 * cli.FORK_MIN_LINES:
            max_n += 1
        cfg = write_cfg(tmp_path, f"scenario = convergence\n[kernels]\nmax_n = {max_n}\n")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the threshold"))
        assert cli._kernel_parts(max_n) == [range(1, max_n + 1)]
        assert main(["kernels", cfg, "--outdir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("failing", [{1}, {2}, {1, 2}], ids=["second", "third", "second-and-third"])
    def test_a_part_no_process_is_forked_for_is_formatted_here(self, tmp_path, monkeypatch, failing):
        monkeypatch.setattr(spectral, "CORES", 3)
        cfg = split_cfg(tmp_path)
        reference = write_reference(tmp_path, cfg)
        calls, fork = [], os.fork

        def failing_fork():
            calls.append(None)
            if len(calls) in failing:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        out = tmp_path / "out"
        with deadline():
            assert main(["kernels", cfg, "--outdir", str(out)]) == 0
        assert len(calls) == 2
        assert (out / "kernels.csv").read_bytes() == reference
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_a_failing_part_is_a_runtime_error(self, tmp_path, monkeypatch, capfd, cores):
        # only the second part fails: the children after it may still be
        # writing when the parent gives up
        monkeypatch.setattr(spectral, "CORES", cores)
        parts = cli._kernel_parts(SPLIT_N)
        assert len(parts) == cores
        second = parts[1]
        kernel_rows = cli.kernel_rows

        def failing_kernel_rows(theta, p):
            write_rows = kernel_rows(theta, p)

            def failing(rows, write):
                if rows == second:
                    raise ValueError("a row of the second part")
                write_rows(rows, write)

            return failing

        monkeypatch.setattr(cli, "kernel_rows", failing_kernel_rows)
        with deadline():
            assert main(["kernels", split_cfg(tmp_path), "--outdir", str(tmp_path / "out")]) == 2
        err = capfd.readouterr().err
        rows = f"rows {second[0]}..{second[-1]}"
        assert f"chsolver kernels, {rows}: ValueError: a row of the second part" in err
        assert f"runtime error: RuntimeError: the process formatting kernels.csv {rows} exited with 1" in err
        assert "BrokenPipeError" not in err
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_a_failing_parent_reaps_its_children(self, tmp_path, monkeypatch, capfd, cores):
        # each child's part is more than 64 KiB, so it may still be writing when the parent fails
        monkeypatch.setattr(spectral, "CORES", cores)
        assert len(cli._kernel_parts(SPLIT_N)) == cores

        def failing_residuals(*args):
            raise ValueError("residuals failed")

        monkeypatch.setattr(cli, "_residuals", failing_residuals)
        with deadline():
            assert main(["kernels", split_cfg(tmp_path), "--outdir", str(tmp_path / "out")]) == 2
        err = capfd.readouterr().err
        assert "runtime error: ValueError: residuals failed" in err
        assert "BrokenPipeError" not in err
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [{1}, {2}], ids=["second", "third"])
    def test_a_part_no_file_is_had_for_is_formatted_here(self, tmp_path, monkeypatch, failing):
        monkeypatch.setattr(spectral, "CORES", 3)
        cfg = split_cfg(tmp_path)
        reference = write_reference(tmp_path, cfg)
        calls, forks, temporary_file, fork = [], [], tempfile.TemporaryFile, os.fork

        def failing_temporary_file(*args, **kwargs):
            calls.append(None)
            if len(calls) in failing:
                raise OSError(errno.EMFILE, "Too many open files")
            return temporary_file(*args, **kwargs)

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(tempfile, "TemporaryFile", failing_temporary_file)
        monkeypatch.setattr(os, "fork", counting_fork)
        out = tmp_path / "out"
        with deadline():
            assert main(["kernels", cfg, "--outdir", str(out)]) == 0
        assert (len(calls), len(forks)) == (2, 1)
        assert (out / "kernels.csv").read_bytes() == reference
        assert_no_child_left()

    def test_passes_leave_only_the_two_csvs(self, tmp_path, monkeypatch, capfd):
        # a split pass, one whose second part fails and one whose parent
        # fails: the parts' files have no name, in the temporary directory
        # or in the output directory
        monkeypatch.setattr(spectral, "CORES", 3)
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        cfg = split_cfg(tmp_path)
        second = cli._kernel_parts(SPLIT_N)[1]
        kernel_rows = cli.kernel_rows

        def failing_kernel_rows(theta, p):
            write_rows = kernel_rows(theta, p)
            return lambda rows, write: write_rows(rows, write) if rows != second else 1 / 0

        def failing_residuals(*args):
            raise ValueError("residuals failed")

        for name, code, patch in [
            ("split", 0, ()),
            ("failing-part", 2, ("kernel_rows", failing_kernel_rows)),
            ("failing-parent", 2, ("_residuals", failing_residuals)),
        ]:
            out = tmp_path / name
            with monkeypatch.context() as m, deadline():
                if patch:
                    m.setattr(cli, *patch)
                assert main(["kernels", cfg, "--outdir", str(out)]) == code
            assert {p.name for p in out.iterdir()} <= {"kernels.csv", "kernel_residuals.csv"}
            assert list(temp.iterdir()) == []
            assert_no_child_left()
        err = capfd.readouterr().err
        assert "ZeroDivisionError" in err and "residuals failed" in err


# a fixed step of 0.01 that must land on a snapshot at 0.0301
LANDING_CFG = """
scenario = coarsening2d
n = 16
horizon = 0.05
[policy]
kind = fixed
tau = 0.01
[output]
snapshots = 0.0, 0.0301
"""


class TestPrescribedMeshCheckpoints:
    def test_off_node_snapshot_fails_before_writing(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scenario = convergence\nn = 16\nhorizon = 0.02\n[output]\nsnapshots = 0.0, 0.0101\n",
        )
        out = tmp_path / "out"
        # a validation failure, found before the output directory is made
        assert main(["simulate", cfg, "--outdir", str(out)]) == 1
        assert "checkpoint 0.0101 is not a node" in capsys.readouterr().err
        assert not out.exists()


class TestCheck:
    def test_fresh_run_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        assert main(["check", cfg]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_rerun_checks_step_one_against_initial_gamma(self, tmp_path, capsys, monkeypatch):
        import chsolver.policies as policies

        cfg = write_cfg(tmp_path, "scenario = convergence\nn = 16\nhorizon = 0.02\n[policy]\ncount = 8\n")
        assert main(["check", cfg]) == 0
        real_advance = policies.advance

        def skewed_advance(state, tau):
            state, rec = real_advance(state, tau)
            if rec.n == 1:
                rec = replace(rec, dissipation=rec.dissipation * (1.0 + 1e-6))
            return state, rec

        monkeypatch.setattr(policies, "advance", skewed_advance)
        capsys.readouterr()
        assert main(["check", cfg]) == 1
        problems = capsys.readouterr().err.splitlines()[:-1]
        assert problems and all(line.startswith("step 1: gamma drop") for line in problems)

    def test_rerun_takes_the_steps_simulate_wrote(self, tmp_path, capsys):
        # the rerun lands on the snapshot times too: 197 steps, where skipping them gave 195
        cfg = write_cfg(tmp_path, "scenario = kissing_bubbles\nn = 64\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        rows = len(read_records(out / "records.csv"))
        capsys.readouterr()
        assert main(["check", cfg]) == 0
        assert capsys.readouterr().out == f"check passed: {rows} steps, all guarantees hold\n"

    def test_off_node_snapshot_fails_with_and_without_records(self, tmp_path, capsys):
        run = "scenario = convergence\nn = 16\nhorizon = 0.02\n[output]\nsnapshots = "
        out = tmp_path / "out"
        assert main(["simulate", write_cfg(tmp_path, run + "0.0\n", "on.cfg"), "--outdir", str(out)]) == 0
        cfg = write_cfg(tmp_path, run + "0.0, 0.0101\n")
        for argv in (["check", cfg], ["check", cfg, "--records", str(out / "records.csv")]):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: checkpoint 0.0101 is not a node of the prescribed mesh\n"

    def test_fixed_step_landing_between_its_steps_passes(self, tmp_path, capsys):
        # the step to the snapshot at 0.0301 is 1e-4; the next three regrow by the cap
        cfg = write_cfg(tmp_path, LANDING_CFG)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        taus = [rec.tau for rec in read_records(out / "records.csv")]
        assert taus[4:6] == pytest.approx([4.8545e-4, 2.3566e-3], rel=1e-4)
        capsys.readouterr()
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 0
        assert main(["check", cfg]) == 0
        assert capsys.readouterr().out == "check passed: 8 steps, all guarantees hold\n" * 2

    def test_uncapped_landing_rows_fail(self, tmp_path, capsys, monkeypatch):
        # an infinite cap writes the rows of a driver that capped no fixed
        # step: 0.01 right after the 1e-4 landing step, a ratio of 100
        cfg = write_cfg(tmp_path, LANDING_CFG)
        out = tmp_path / "out"
        monkeypatch.setattr(chsolver.FixedStep, "ratio_cap", math.inf)
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "step 5: ratio 100.0000 exceeds cap 4.8545",
            "check failed: 1 violation(s) over 6 steps",
        ]

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

    def test_unparseable_stream_names_the_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        out = tmp_path / "out"
        main(["simulate", cfg, "--outdir", str(out)])
        lines = (out / "records.csv").read_text().splitlines()
        row = lines[6].split(",")
        row[3] = "abc"
        lines[6] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", cfg, "--records", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == "runtime error: ValueError: line 7: could not convert string to float: 'abc'\n"

    def test_clean_stream_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        out = tmp_path / "out"
        main(["simulate", cfg, "--outdir", str(out)])
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 0

    def test_stream_is_checked_without_step_records(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        built = []
        init = StepRecord.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["n"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(StepRecord, "__init__", counted)
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 0
        assert built == []

    def test_anchors_come_from_the_first_finite_row(self, tmp_path, capsys):
        # with no gamma0 or mass0 the anchors are step 2's: anchored on step
        # 1's nan gamma, step 3's increase would pass unseen, and its mass
        # would anchor the mass drift check
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        rows = [(1, math.nan, 0.25, 0.0), (2, 2.0, 0.5, 0.0), (3, 9.0, 0.5, -7.0)]
        bad = tmp_path / "bad.csv"
        write_records([StepRecord(n, n * 0.01, 0.01, g, 1.0, 1.0, 1.0, m, d) for n, g, m, d in rows], bad)
        assert main(["check", cfg, "--records", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "step 1: nonfinite record values",
            "step 3: gamma increased from 2.0 to 9.0",
            "check failed: 2 violation(s) over 3 steps",
        ]

    def test_rerun_peak_does_not_grow_with_the_steps(self, tmp_path):
        # the rerun feeds each step's record to the check and keeps none:
        # keeping them grew the peak by about 170 bytes a step
        def peak(steps):
            cfg = write_cfg(
                tmp_path,
                f"scenario = coarsening2d\nn = 8\nhorizon = {steps}e-6\n"
                "[policy]\nkind = fixed\ntau = 1e-6\n[output]\nsnapshots =\n",
            )
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(["check", cfg]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.getvalue() == f"check passed: {steps} steps, all guarantees hold\n"
            return peak

        peak(4)  # imports and caches
        assert peak(400) < peak(40) + 8192

    def test_collapsed_step_fails_both_forms(self, tmp_path, capsys):
        # coarsening2d at its default n = 128: step 1 gives xi = 12.1, so the
        # written field is eta = xi (2 - xi) = -122.3 times the auxiliary one;
        # simulate stops there and writes nothing, so the row is written here
        cfg = write_cfg(tmp_path, "scenario = coarsening2d\nhorizon = 1e-5\n[output]\nsnapshots =\n")
        records, _ = chsolver.run_scenario(chsolver.build_scenario(chsolver.parse_config(cfg)))
        path = tmp_path / "records.csv"
        write_records(records, path)
        for argv in (["check", cfg], ["check", cfg, "--records", str(path)]):
            assert main(argv) == 1
            assert capsys.readouterr().err.splitlines() == [
                "step 1: eta = -122.3049896378687 not positive",
                "check failed: 1 violation(s) over 1 steps",
            ]

    def test_records_peak_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # check --records parses records.csv block by block and keeps no
        # block it has checked, so the peak moves only with the rows a block
        # holds (323 to 338 here); reading the whole file grew it by about
        # 280 KB a block
        block = 1 << 15
        monkeypatch.setattr(recordio, "RECORD_BLOCK_CHARS", block, raising=False)
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 8\n")
        # a clean stream: gamma falls by its dissipation, tau and mass are constant
        rows, gamma = [], 1.0
        for n in range(1, 10 * block // 64):
            prev, gamma = gamma, gamma - 1e-6
            rows.append(StepRecord(n, n * 1e-6, 1e-6, gamma, 0.5, 1.0, 1.0, 0.0, prev - gamma))
        write_records(rows, tmp_path / "all.csv")
        row_chars = (tmp_path / "all.csv").stat().st_size / len(rows)

        def peak(blocks):
            path, count = tmp_path / f"records{blocks}.csv", int(blocks * block / row_chars)
            write_records(rows[:count], path)
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(["check", cfg, "--records", str(path)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.getvalue() == f"check passed: {count} steps, all guarantees hold\n"
            return peak

        peak(1)  # imports and caches
        assert peak(10) < peak(2) + 2 * block

    def test_preset_snapshots_beyond_a_short_horizon_are_ignored(self, tmp_path, capsys):
        # coarsening2d presets snapshots up to t = 3; check writes none
        cfg = write_cfg(tmp_path, "scenario = coarsening2d\nn = 16\nhorizon = 0.02\n")
        assert main(["check", cfg]) == 0
        assert "check passed" in capsys.readouterr().out
        # simulate still checks the preset times against the horizon
        assert main(["simulate", cfg, "--outdir", str(tmp_path / "out")]) == 1


class TestStepAndClockChecks:
    """check --records names a step at or below zero, a clock that does not
    start above 0 or does not advance, and a clock that does not advance by
    the row's step, and exits 1; the step after a zero step is not a runtime
    error."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("bubbles")
        cfg = write_cfg(tmp, "scenario = kissing_bubbles\nn = 32\n")
        assert main(["simulate", cfg, "--outdir", str(tmp / "out")]) == 0
        return cfg, read_records(tmp / "out" / "records.csv")

    @pytest.mark.parametrize(
        "row, field, edit, message",
        [
            (-1, "tau", lambda v: -0.001, "tau = -0.001 not positive"),
            (99, "t", lambda v: 0.0, "t = 0.0 does not exceed the previous t = "),
            (89, "tau", lambda v: 0.0, "tau = 0.0 not positive"),
            (0, "t", lambda v: 0.0, "t = 0.0 not positive"),
            (0, "t", lambda v: -1.0, "t = -1.0 not positive"),
            (-1, "t", lambda v: v + 1.0, "t advanced by "),
            (50, "eta", lambda v: -v, "eta = -"),
        ],
        ids=["negative-last-step", "clock-back-to-zero", "zero-step", "first-clock-at-zero",
             "first-clock-negative", "last-clock-ahead", "negative-eta"],
    )
    def test_edit_fails_with_one_named_violation(self, run, tmp_path, capsys, row, field, edit, message):
        cfg, records = run
        records = list(records)
        records[row] = replace(records[row], **{field: edit(getattr(records[row], field))})
        bad = tmp_path / "bad.csv"
        write_records(records, bad)
        capsys.readouterr()
        assert main(["check", cfg, "--records", str(bad)]) == 1
        problems = capsys.readouterr().err.splitlines()
        assert len(problems) == 2
        assert problems[0].startswith(f"step {records[row].n}: {message}")
        assert problems[1] == f"check failed: 1 violation(s) over {len(records)} steps"


class TestParserReuse:
    """main builds its parser once per process, and no call leaks into the next."""

    def test_second_call_builds_no_parser(self, tmp_path, monkeypatch):
        import argparse

        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        try:
            assert main(["check", cfg]) == 0
            first = len(built)
            assert main(["check", cfg]) == 0
        finally:
            cli._build_parser.cache_clear()
        # the parser and one per subcommand, then none
        assert built[0] == "chsolver" and first == 5
        assert len(built) == first

    def test_records_flag_does_not_stick(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--outdir", str(out)]) == 0
        runs = []
        real_run = cli.run_with_policy
        monkeypatch.setattr(cli, "run_with_policy", lambda *args, **kw: runs.append(args) or real_run(*args, **kw))
        assert main(["check", cfg, "--records", str(out / "records.csv")]) == 0
        assert runs == []
        assert main(["check", cfg]) == 0
        assert len(runs) == 1

    def test_scenario_override_does_not_stick(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = convergence\nn = 16\nhorizon = 0.02\n[policy]\ncount = 8\n")
        # equilibrium's fixed step of 0.01 takes 2 steps, the file's random mesh 8
        assert main(["check", cfg, "--scenario", "equilibrium"]) == 0
        assert "check passed: 2 steps" in capsys.readouterr().out
        assert main(["check", cfg]) == 0
        assert "check passed: 8 steps" in capsys.readouterr().out

    def test_usage_error_after_a_successful_call(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        assert main(["check", cfg]) == 0
        capsys.readouterr()
        assert main(["check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: chsolver check")
        assert "required: config" in captured.err


class TestExitCodes:
    @pytest.mark.parametrize("command", ["simulate", "converge", "kernels", "check"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0"])
    def test_bad_snapshot_time_is_validation_error(self, tmp_path, capsys, command, bad):
        cfg = write_cfg(tmp_path, f"scenario = equilibrium\n[output]\nsnapshots = 0.0, {bad}\n")
        out = [] if command == "check" else ["--outdir", str(tmp_path / "out")]
        assert main([command, cfg, *out]) == 1
        assert capsys.readouterr().err == "error: snapshot times must lie in [0, horizon]\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("scenario", ["kissing_bubbles", "convergence"])
    @pytest.mark.parametrize("command", ["simulate", "converge", "check"])
    def test_3d_grid_for_a_2d_preset_is_validation_error(self, tmp_path, capsys, scenario, command):
        cfg = write_cfg(tmp_path, f"scenario = {scenario}\nn = 8\ndim = 3\n[output]\noutdir = {tmp_path / 'out'}\n")
        assert main([command, cfg]) == 1
        assert capsys.readouterr().err == f"error: scenario {scenario} has 2d initial data, got dim 3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "converge", "kernels", "check"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys, command):
        text = f"scenario = convergence\nn = 8\nseed = -1\n[output]\noutdir = {tmp_path / 'out'}\n"
        cfg = write_cfg(tmp_path, text)
        assert main([command, cfg]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", ["kind = fixed\ntau = 1e-16\n", "kind = adaptive\ntau_min = 1e-15\n"])
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_step_within_the_landing_tolerance_is_validation_error(self, tmp_path, capsys, monkeypatch, command, policy):
        # horizon 1e-3: landing_tol is 1e-15, and a fixed 1e-16 would take 10^13 steps
        cfg = write_cfg(tmp_path, f"scenario = coarsening2d\nn = 8\nhorizon = 1e-3\n[policy]\n{policy}[output]\nsnapshots =\n")
        monkeypatch.chdir(tmp_path)
        assert main([command, cfg]) == 1
        key, value = policy.splitlines()[1].split(" = ")
        assert capsys.readouterr().err == f"error: {key} = {value} is not longer than the landing tolerance 1e-15\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_check_takes_no_outdir(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        assert main(["check", cfg, "--outdir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --outdir" in err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_is_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = equilibrium\nn = 16\n")
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["simulate", cfg, "--outdir", str(blocker)]) == 2
        assert "runtime error" in capsys.readouterr().err


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
