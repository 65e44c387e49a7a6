"""Command-line entry point.

Subcommands (each takes a config file path):

  simulate   run the configured scenario; stream records to CSV, write
             snapshots at the configured times
  converge   random-mesh refinement study of the scenario (default:
             convergence); write a CSV shaped like a convergence table
  kernels    dump the verification kernels and their identity residuals
  check      run the configured scenario (or read an existing records CSV
             with --records) and verify the scheme's guarantees

Exit codes: 0 success, 1 usage/validation failure, 2 runtime error.
``simulate`` stops with exit 2 at the first step whose eta is not positive
(CollapsedFieldError), before it writes that step's row or snapshots.
``kernels`` exits 1, as ``check`` does on a violation, when a residual of
kernel_residuals.csv is not finite: it writes both files, prints the worst
identity residual (nan if any is), and names the first such row on stderr.

kernels.csv's text of p is formatted once per value that changes: down a
column p stops changing in floating point once theta has decayed, so each
row reuses the text of the row above from the first column whose bits
differ to the diagonal (``kernel_rows``).

``kernels`` formats kernels.csv on every core the process may run on
(``spectral.CORES``): rows 1..max_n are cut into contiguous parts of about
equal line count, each of at least FORK_MIN_LINES lines.  Each part after
the first is formatted by a process forked for it (``os.fork``), which
writes its rows into its own unlinked temporary file and leaves through
``os._exit``; no child waits on the command.  The command writes the first
part, then kernel_residuals.csv, then waits for each child in part order
and appends its file to kernels.csv.  A child that fails is a runtime
error; a part no file or process can be had for is formatted by the
command itself.  The bytes written do not depend on the number of parts.
With one core (``taskset -c 0``), on a smaller file, or without
``os.fork``, one process writes every row.  No other command starts a
process.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import tempfile
import time
from bisect import bisect_left
from dataclasses import astuple
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from . import spectral
from .config import ConfigParseError, ConfigValidationError, build_scenario, parse_config
from .recordio import RecordWriter, read_record_blocks, write_snapshot
from .policies import LandingError, landing_targets, run_with_policy
from .scenarios import initial_state, run_convergence
from .stepper import RecordCheck, record_values
from .timestep import _residuals, kernel_matrices, landing_tol, random_mesh


@functools.cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chsolver", description="Periodic Cahn-Hilliard solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "converge", "kernels", "check"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a config file")
        p.add_argument("--scenario", default=None, help="override the scenario name")
        if name == "check":
            p.add_argument("--records", default=None, help="verify an existing records CSV instead of running")
        else:
            p.add_argument("--outdir", default=None, help="override the output directory")
    return parser


# kernel_residuals.csv's columns after n, the fields of timestep.KernelResiduals
RESIDUAL_COLUMNS = ("doc_orthogonality", "dcc_identity", "dcc_sum", "dcc_bound_margin", "telescoping")
# rows of the converge and residuals CSVs ('%.17g' % x is format(x, '.17g')):
# a block of rows is one template repeated per row on one flat tuple of values
CONVERGENCE_ROW = "%d" + ",%.17g" * 7 + "\n"
RESIDUAL_ROW = "%d" + ",%.17g" * len(RESIDUAL_COLUMNS) + "\n"


def kernel_p_changes(p) -> list[int]:
    """For each row i (from 0) of the lower-triangular matrix p, the first
    column j < i whose value differs from the one a row above in its bits,
    or i, the diagonal, where none does; 0 for row 0.  Bits, not ==, so that
    0.0 and -0.0, whose texts differ, count as a change."""
    bits = p.view(np.uint64)
    n = len(p)
    changed = (bits[1:] != bits[:-1]) | np.triu(np.ones((n - 1, n), dtype=bool), 1)
    return [0, *changed.argmax(axis=1).tolist()]


def kernel_rows(theta, p):
    """The writer of kernels.csv's rows for the n x n lower-triangular kernel
    matrices theta and p: a function (rows, write) that passes write the
    block of lines "n,m,a,b" of each row n of the range rows, m = 0, 1, ...,
    n - 1, with a = theta[n-1, n-1-m] and b = p[n-1, n-1-m] printed with
    '%.17g'.  Down a column p stops changing once theta has decayed, so the
    function keeps the text of the last row's p values, one per column, and
    formats a row's p only from its first changed column (kernel_p_changes)
    to the diagonal; the first row of a call is formatted whole.  The lines'
    template is built once, with n as "@", m as text and b as "%s"; a row
    cuts it to its length, puts n in with one replace and formats theta and
    the texts of p."""
    lines = [f"@,{m},%.17g,%s\n" for m in range(len(p))]
    template = "".join(lines)
    ends = list(accumulate(map(len, lines)))
    p_template = "%.17g," * len(p)  # 6 characters a value; no text holds a comma
    first = kernel_p_changes(p)

    def write_rows(rows: range, write) -> None:
        texts = [""] * rows[-1]  # the text of p in each column, of the row last formatted
        for n in rows:
            j = first[n - 1] if n > rows.start else 0
            texts[j:n] = (p_template[: 6 * (n - j) - 1] % tuple(p[n - 1, j:n].tolist())).split(",")
            values = [None] * (2 * n)
            values[::2] = theta[n - 1, n - 1 :: -1].tolist()
            values[1::2] = texts[n - 1 :: -1]
            write(template[: ends[n - 1]].replace("@", str(n)) % tuple(values))

    return write_rows


def _outdir(cfg, override) -> Path:
    return Path(override if override is not None else cfg.outdir)


# simulate writes the kept record rows in batches at most this many seconds
# apart.  Written and flushed one per step, between two steps and so with
# cold caches, the 197 rows of kissing_bubbles at N = 128 took 6.5 ms of a
# 0.14 s run; in one batch they take 2.7 ms.
ROW_FLUSH_SECONDS = 1.0


class CollapsedFieldError(ArithmeticError):
    """A step's eta = xi (2 - xi) is not positive: the written field
    eta * phi_bar would vanish or change sign."""


class _RunOutput:
    """simulate's on_step: writes each snapshot as it is taken, and the kept
    record rows at most ROW_FLUSH_SECONDS after their step (all of them on
    close, also when the run fails).  Of the records it keeps only the
    unwritten rows and the last, and of the rest max |1 - xi|, for the
    summary line.  The first step with eta <= 0 raises CollapsedFieldError
    before any of its files is written.  The directory is made and
    records.csv opened with the first file written, so a run that fails
    before its first step completes leaves nothing behind."""

    def __init__(self, out: Path, record_every: int):
        self.out, self.every = out, record_every
        self.writer = None
        self.pending = []
        self.last = None
        self.xi_dev = 0.0
        self.due = time.monotonic() + ROW_FLUSH_SECONDS
        self.snapshots = 0

    def __call__(self, state, rec, reached) -> None:
        if rec.eta <= 0:
            raise CollapsedFieldError(
                f"step {rec.n}: xi = {rec.xi!r} gives eta = {rec.eta!r} <= 0, so the written field "
                "would vanish or change sign; rerun at a smaller n (or with shorter steps)"
            )
        for t, values in reached:
            self.out.mkdir(parents=True, exist_ok=True)
            write_snapshot(state.grid, values, self.out / f"snap_{self.snapshots:03d}.bin", t)
            self.snapshots += 1
        self.xi_dev = max(self.xi_dev, abs(1.0 - rec.xi))
        if rec.n % self.every == 0:
            self.pending.append(rec)
        self.last = rec
        if time.monotonic() >= self.due:
            self._flush()

    def _flush(self) -> None:
        if self.writer is None:
            self.out.mkdir(parents=True, exist_ok=True)
            self.writer = RecordWriter(self.out / "records.csv")
        self.writer.write_block(self.pending)
        self.pending.clear()
        self.due = time.monotonic() + ROW_FLUSH_SECONDS

    def close(self) -> None:
        """Write the pending rows, and the last completed row if thinning
        skipped it, and close."""
        if self.last is None:
            return
        if self.last.n % self.every:
            self.pending.append(self.last)
        self._flush()
        self.writer.close()


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config, scenario=args.scenario)
    scenario = build_scenario(cfg)
    out = _outdir(cfg, args.outdir)
    output = _RunOutput(out, cfg.record_every)
    state = initial_state(scenario)
    gamma0 = state.gamma  # advance leaves the given state its scalars, not its arrays
    try:
        run_with_policy(state, scenario.policy, scenario.horizon, scenario.snapshot_times, on_step=output)
    finally:
        output.close()
    last = output.last
    print(
        f"{scenario.name}: {last.n} steps to t = {last.t:g}, gamma {gamma0:.6g} -> {last.gamma:.6g}, "
        f"max |1 - xi| {output.xi_dev:.3g}"
    )
    print(f"wrote {out / 'records.csv'} and {output.snapshots} snapshots")
    return 0


def _cmd_converge(args) -> int:
    cfg = parse_config(args.config, args.scenario, default_scenario="convergence", check_snapshots=False)
    out = _outdir(cfg, args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    rows = run_convergence(build_scenario(cfg), cfg.base_k, cfg.levels, cfg.ref_steps)
    path = out / "convergence.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("K,tau,h1_error,h1_order,gamma_error,gamma_order,max_ratio,xi_dev\n")
        fh.write(CONVERGENCE_ROW * len(rows) % tuple(chain.from_iterable(map(astuple, rows))))
    for r in rows:
        print(
            f"K={r.steps:6d}  tau={r.tau:.4e}  h1={r.h1_error:.4e} ({r.h1_order:5.2f})  "
            f"gamma={r.gamma_error:.4e} ({r.gamma_order:5.2f})  max_ratio={r.max_ratio:.3f}  "
            f"xi_dev={r.xi_dev:.3e}"
        )
    print(f"wrote {path}")
    return 0


# kernels.csv is formatted in up to CORES processes, each part at least this
# many lines long, so the file is split from 2 * FORK_MIN_LINES lines on.  On
# a 2-vCPU VM a split pass cost 3-5 ms more than half a serial one (fork,
# copy-on-write faults, return of the part, reap), and won from about 5,500
# lines (max_n = 105) on: at max_n = 100 it took 17.4 ms against 15.7 serial,
# at max_n = 120 18.4 against 21.3 ms (medians of 21 alternating passes).
# Since p's text is reused down a column the first part, whose short rows
# reuse little, costs more than its share.  Timed again on the same VM, less
# busy, with the threshold lowered, the split lost at max_n = 80 (6.4-6.7
# against 6.2-6.4 ms serial) and won at 100 (7.9-8.7 against 8.4-9.1) and
# 120 (9.9-10.1 against 11.2-11.5; medians of 41 alternating passes): the
# break-even lies between max_n = 80 and 100, still below the threshold's 110.
FORK_MIN_LINES = 3000


def _kernel_parts(max_n: int) -> list[range]:
    """Rows 1..max_n of kernels.csv (row n has n lines) as contiguous parts
    of about equal line count: one per core, each of at least FORK_MIN_LINES
    lines, and a single part where the platform cannot fork."""
    ends = list(accumulate(range(1, max_n + 1)))  # ends[n - 1]: lines in rows 1..n
    count = min(spectral.CORES, ends[-1] // FORK_MIN_LINES) if hasattr(os, "fork") else 1
    starts = [1] + [bisect_left(ends, k * ends[-1] / count) + 2 for k in range(1, count)]
    return [range(a, b) for a, b in zip(starts, [*starts[1:], max_n + 1])]


def _fork_part(write_rows, rows: range):
    """Forks a process that formats the row blocks rows of kernels.csv with
    write_rows into an unlinked temporary file and exits; returns (rows, its
    pid, the file).  Where no file or process can be had (EMFILE, EAGAIN,
    ENOMEM), returns (rows, None, None) and the caller formats the part."""
    file = None
    try:
        file = tempfile.TemporaryFile()
        pid = os.fork()
    except OSError:
        if file is not None:
            file.close()
        return rows, None, None
    if pid == 0:  # the child leaves through os._exit, never into the caller's stack
        status = 1
        try:
            with open(file.fileno(), "w", encoding="utf-8", closefd=False) as text:
                write_rows(rows, text.write)
            status = 0
        except BaseException as exc:
            message = f"chsolver kernels, rows {rows.start}..{rows.stop - 1}: {type(exc).__name__}: {exc}\n"
            os.write(2, message.encode())
        finally:
            os._exit(status)
    return rows, pid, file


def _cmd_kernels(args) -> int:
    cfg = parse_config(args.config, args.scenario, default_scenario="convergence", check_snapshots=False)
    out = _outdir(cfg, args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    mesh = random_mesh(cfg.horizon, cfg.max_n, cfg.seed)
    theta, p = kernel_matrices(mesh, cfg.max_n)
    write_rows = kernel_rows(theta, p)

    first, *rest = _kernel_parts(cfg.max_n)
    # (rows, pid, file) of the parts after the first, in file order, until
    # each is copied; pid and file are None for a part no process could be
    # forked for
    parts = []
    try:
        for rows in rest:
            parts.append(_fork_part(write_rows, rows))
        with open(out / "kernels.csv", "w", encoding="utf-8") as fh:
            fh.write("n,offset,theta,p\n")
            write_rows(first, fh.write)
            # the residuals are computed while the children format
            res = _residuals(mesh, theta, p)
            columns = [getattr(res, name) for name in RESIDUAL_COLUMNS]
            with open(out / "kernel_residuals.csv", "w", encoding="utf-8") as rh:
                rh.write(",".join(("n", *RESIDUAL_COLUMNS)) + "\n")
                res_rows = zip(range(1, cfg.max_n + 1), *(c.tolist() for c in columns))
                rh.write(RESIDUAL_ROW * cfg.max_n % tuple(chain.from_iterable(res_rows)))
            while parts:
                rows, pid, file = parts.pop(0)
                if pid is None:
                    write_rows(rows, fh.write)
                    continue
                with file:
                    if code := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                        part = f"rows {rows.start}..{rows.stop - 1}"
                        raise RuntimeError(f"the process formatting kernels.csv {part} exited with {code}")
                    fh.flush()
                    file.seek(0)
                    shutil.copyfileobj(file, fh.buffer)
    finally:
        for _, pid, file in parts:  # on failure; no child waits on the command
            if pid is not None:
                os.waitpid(pid, 0)
                file.close()
    identities = (res.doc_orthogonality, res.dcc_identity, res.dcc_sum, res.telescoping)
    worst = float(np.max(identities))  # nan if any is; max() of the columns' maxima may drop it
    print(f"wrote {out / 'kernels.csv'} and {out / 'kernel_residuals.csv'}")
    print(f"worst identity residual over n <= {cfg.max_n}: {worst:.3e}")
    nonfinite = ~np.isfinite(columns)
    if nonfinite.any():
        bad_rows = nonfinite.any(axis=0)
        row = int(bad_rows.argmax())
        k = int(nonfinite[:, row].argmax())
        print(f"row {row + 1}: {RESIDUAL_COLUMNS[k]} = {float(columns[k][row])!r} not finite", file=sys.stderr)
        print(f"kernels failed: {int(bad_rows.sum())} of {cfg.max_n} rows hold a nonfinite residual", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args) -> int:
    cfg = parse_config(args.config, scenario=args.scenario, check_snapshots=False)
    scenario = build_scenario(cfg)
    # an off-node snapshot or a mesh step within tol fails here, as in simulate
    landing_targets(scenario.policy, 0.0, scenario.horizon, scenario.snapshot_times)
    anchors = ()  # those of the first finite row
    if args.records is None:  # step 1 is checked against the initial state
        state = initial_state(scenario)
        anchors = (state.gamma, spectral.integral(state.grid, state.phi_bar_hat1), state.grid.volume)
    # the clock is held to the tol the driver lands with; no record is kept
    check = RecordCheck(landing_tol(scenario.horizon), *anchors, ratio_cap=scenario.policy.ratio_cap)
    if args.records is None:
        # the snapshot times are landing targets (beyond the horizon, none), as in simulate
        run_with_policy(state, scenario.policy, scenario.horizon, scenario.snapshot_times,
                        on_step=lambda st, rec, reached: check.feed((rec.n,), (record_values(rec),)))
    else:
        for block in read_record_blocks(args.records):
            check.feed(*block)
    problems, steps = check.result(), check.rows
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"check failed: {len(problems)} violation(s) over {steps} steps", file=sys.stderr)
        return 1
    print(f"check passed: {steps} steps, all guarantees hold")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "kernels": _cmd_kernels,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigParseError, ConfigValidationError, LandingError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
