"""Milliseconds per solver step and its phases, kernels pass, quadratic-form check, snapshot and record I/O, check's memory, and cold start.

Usage:

    python tools/perf_ms.py [--src PATH]

PATH is the ``src`` directory of the checkout to time (default: the one next
to this script), so the same script times the parent and the change.  Every
table times the given tree through one path: a timed name the tree lacks
raises.  Every median is over REPEATS timed runs after the warm-up below.

- advance: on each grid of the ROADMAP baseline table and on 3d N=48 and
  N=96, either side of ``spectral.PARALLEL_ELEMENTS``, the stepper starts
  from the coarsening initial field (seed 0), takes two untimed warm-up
  steps, then REPEATS timed steps of a fixed size; the median is printed
  with the median of one ``spectral.forward`` plus one ``spectral.inverse``
  on the same grid, the cost floor of a step, made with the same transform
  workers as the step.  The header gives ``spectral.CORES``, the cores the
  step runs on.  Then come two medians over REPEATS further steps each:
  the minor page faults of one step (ru_minflt), and the peak memory
  tracemalloc sees inside one step above what was allocated at its entry,
  in units of one float64 grid array.  tracemalloc sees numpy's arrays but
  not the transforms' internal buffers, so the last column is the resident
  peak: in a fresh process per grid, the growth of ru_maxrss over
  init_state and the first RESIDENT_STEPS steps above its value once the
  initial field is built and scipy.fft imported, also in grid arrays.  It counts everything
  resident, the history arrays, whatever init_state builds and the buffer
  the irfftn allocates inside pocketfft included.  These
  processes are started before this script imports numpy: a process
  inherits its parent's resident size as its starting ru_maxrss, which
  must stay below the probe's own.
- phases: on the same grids and steps, the median ms of each phase of
  ``advance`` over REPEATS steps, first at ``spectral.CORES`` and then with
  ``spectral.CORES = 1``, each after one untimed step.  A phase is timed by
  wrapping the ``stepper`` module name that ``advance`` calls for it (see
  PHASES), for the length of the table only; extrapolation + cubic is
  ``_extrapolated_nonlinearity`` less the ``forward`` it calls.  The
  solve phase also sums the gradient part of the energy; the well energy
  is timed on its own.
- kernels: one pass is the ``kernels`` subcommand at max_n = MAX_N
  (convergence scenario, seed SEED), writing kernels.csv and
  kernel_residuals.csv into a temporary directory, once with
  ``spectral.CORES = 1`` (serial) and once with the host's CORES (its rows
  split among that many processes).  Beside them stands the pass's
  ``.17g`` floor: the median time to format its 2 * n(n+1)/2 kernel values
  alone in one process, as one tuple of floats through one ``"%.17g"``
  template, with no separators, indices or file.  The writer formats p in a
  column only where it changed from the row above
  (``cli.kernel_p_changes``) and reuses the text elsewhere; the share of p
  texts a serial pass reuses is printed, and so is a second floor, the
  same ``.17g`` time of only the values a serial pass still formats (all of
  theta and the changed p).  The two passes and the two floors are timed in
  turn, one call of each per round, so all four medians see the same host
  phase; each pass is also given over each floor.
  The peak RSS of one pass at the host's CORES comes from a fresh
  interpreter, started like the resident probes above before this script
  imports numpy: its own
  (``RUSAGE_SELF``) and its largest forked process's (``RUSAGE_CHILDREN``),
  which the benchmark's ``peak_rss_mb`` does not count.  Then the split
  pass's timeline at the host's CORES: the median ms from the pass's start
  at which each part's rows are written (the command's first, each forked
  process's after it), ``kernel_residuals`` returns and each ``os.waitpid``
  on a forked process returns, timed by wrapping ``cli.kernel_rows``,
  ``cli.kernel_residuals`` and ``os.waitpid`` for the table only.  A wait that
  returns at once, just after the residuals are written, means the forked
  processes finished first.  The quadratic form is checked on
  random_mesh(1, n, SEED) with standard normal weights, at n = MAX_N and
  n = FORM_N, the latter with the tracemalloc peak of one check.  Each is run once untimed first.
- I/O: ``write_snapshot`` and ``read_snapshot`` of a 3d N = 128 field of
  standard normal values (seed SEED), each run once untimed first, with the
  median minor page faults of one call; and ``check --records`` (the
  kissing_bubbles config's ratio cap) on a generated stream of IO_ROWS
  rows that obeys every guarantee, so every row goes through every check,
  and on the first row of that stream alone: the fixed cost of one warm
  in-process call (argument parsing, config, scenario and file handling).
  The stream's parse and check follow apart, the two halves of ``check
  --records``: ``read_record_blocks`` parsing every block, and the row
  fold (``RecordCheck.feed``) on the parsed blocks, as ``check --records``
  builds it; then ``read_records``, which builds one StepRecord per row.
- check: in fresh processes, started like the resident probes above, the
  peak RSS of ``check CONFIG`` at 10^4 and 10^5 steps of CHECK_CFG
  (coarsening2d, N = 8, a fixed step of 1e-6, no snapshots), and the wall
  time and peak RSS of one ``check --records`` call on the 10^4- and
  10^5-row records.csv that ``simulate`` writes for the same configs.
- cold start: the wall time of a fresh interpreter, from spawn to exit, for
  bare ``python -c pass``, ``import chsolver``, the ``kernels`` subcommand at
  max_n = 30 and ``simulate`` on a short 2d N = 32 kissing_bubbles run; the
  difference between rows is what each layer imports and runs.  Then the
  median and range of the peak RSS (ru_maxrss) of COLD_PEAK_RUNS fresh
  ``simulate`` processes on the coarsen3d benchmark config (COARSEN3D_CFG),
  started like the resident probes above.
"""

import argparse
import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

GRIDS = ((2, 128), (2, 256), (2, 512), (3, 48), (3, 64), (3, 96), (3, 128))
MAX_N = 400
FORM_N = 100_000
IO_ROWS = 10_000
SEED = 5
REPEATS = 7
RESIDENT_STEPS = 4
COLD_PEAK_RUNS = 3
# the coarsen3d workload's config in benchmark/workloads.py, at seed 1
COARSEN3D_CFG = (
    "scenario = coarsening3d\nn = 128\nhorizon = 1e-7\nseed = 1\n"
    "[policy]\ntau_min = 1e-8\n[output]\nsnapshots = 0.0, 1e-7\n"
)
# a run of tiny steps whose record stream is long: horizon = STEPS * 1e-6
CHECK_CFG = (
    "scenario = coarsening2d\nn = 8\nhorizon = {steps}e-6\n"
    "[policy]\nkind = fixed\ntau = 1e-6\n[output]\nsnapshots =\n"
)
CHECK_STEPS = (10_000, 100_000)
# the phases of advance: (column label, the stepper names timed for it)
PHASES = (
    ("extrap+cubic", ("_extrapolated_nonlinearity", "forward")),
    ("forward", ("forward",)),
    ("solve+|grad mu|^2", ("_solve",)),
    ("inverse", ("inverse",)),
    ("well energy", ("_well_energy",)),
    ("relax", ("relax",)),
)

# run in a fresh interpreter: chsolver's arguments on the command line;
# prints the peak RSS (KiB on Linux) of this process and of its largest
# child, and the seconds the command took
_CLI_CHILD = """
import contextlib, io, resource, sys, time
from chsolver.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    if main(sys.argv[1:]) != 0:
        raise SystemExit("chsolver " + sys.argv[1] + " failed")
seconds = time.perf_counter() - start
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, seconds)
"""

# run in a fresh interpreter: dim, N and the step count on the command line;
# prints the growth of ru_maxrss (KiB on Linux) over init_state and the steps
_RESIDENT_CHILD = """
import resource, sys
import numpy as np
import scipy.fft  # imported by the first transform: not counted
from chsolver.scenarios import ic_random
from chsolver.spectral import Grid
from chsolver.stepper import advance, init_state
dim, n, steps = map(int, sys.argv[1:])
grid = Grid(dim, 2.0 * np.pi, n)
phi0 = ic_random(grid, seed=0)
entry = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
state = init_state(phi0, eps=4.0 * grid.spacing)
for _ in range(steps):
    state, _ = advance(state, 1e-6)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - entry)
"""


def alternating_medians(*fns):
    """The median ms of each of fns over REPEATS rounds of one call of each, in turn."""
    times = [[] for _ in fns]
    for _ in range(REPEATS):
        for fn, ms in zip(fns, times):
            start = time.perf_counter()
            fn()
            ms.append(1e3 * (time.perf_counter() - start))
    return [statistics.median(ms) for ms in times]


def median_ms(fn):
    return alternating_medians(fn)[0]


def median_faults(fn):
    counts = []
    for _ in range(REPEATS):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    return statistics.median(counts)


def single_peak_bytes(fn):
    """The tracemalloc peak of one call above what was allocated at its entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def median_peak_bytes(fn):
    return statistics.median(single_peak_bytes(fn) for _ in range(REPEATS))


def _env(src):
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def resident_peaks(src):
    """{(dim, N): ru_maxrss growth over RESIDENT_STEPS steps of a fresh
    process, in grid arrays}."""
    peaks = {}
    for dim, n in GRIDS:
        argv = [sys.executable, "-c", _RESIDENT_CHILD, str(dim), str(n), str(RESIDENT_STEPS)]
        kib = int(subprocess.run(argv, env=_env(src), check=True, capture_output=True, text=True).stdout)
        peaks[dim, n] = 1024 * kib / (8 * n**dim)
    return peaks


def advance_table(rss):
    import numpy as np

    from chsolver import spectral
    from chsolver.scenarios import ic_random
    from chsolver.spectral import Grid
    from chsolver.stepper import advance, init_state

    print(
        f"grid      ms/advance  ms/(rfftn+irfftn)  faults/advance  peak/array  rss/array  (CORES = {spectral.CORES})"
    )
    for dim, n in GRIDS:
        grid = Grid(dim, 2.0 * np.pi, n)
        state = init_state(ic_random(grid, seed=0), eps=4.0 * grid.spacing)
        for _ in range(2):
            state, _ = advance(state, 1e-6)

        def step():
            nonlocal state
            state, _ = advance(state, 1e-6)

        x = np.random.default_rng(0).normal(size=grid.shape)
        floor = median_ms(lambda: spectral.inverse(spectral.forward(x), x.shape))
        ms = median_ms(step)
        faults = median_faults(step)
        peak = median_peak_bytes(step) / (8 * n**dim)
        print(f"{dim}d N={n:<4d} {ms:10.2f}  {floor:10.2f}  {faults:14.0f}  {peak:10.2f}  {rss[dim, n]:9.2f}")


def phase_table():
    import numpy as np

    from chsolver import spectral, stepper
    from chsolver.scenarios import ic_random
    from chsolver.spectral import Grid
    from chsolver.stepper import advance, init_state

    names = {name for _, timed in PHASES for name in timed}
    spent = dict.fromkeys(names, 0.0)

    def timer(name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start

        return timed

    def phase_ms(timed):
        head, *inside = timed  # a phase's first name less the ones it calls
        return 1e3 * (spent[head] - sum(spent[name] for name in inside))

    cores = spectral.CORES
    widths = [max(len(label), 7) for label, _ in PHASES]
    header = "  ".join(f"{label:>{w}s}" for (label, _), w in zip(PHASES, widths))
    print(f"{'ms per phase of advance':24s} {header}     step")
    originals = {name: getattr(stepper, name) for name in names}
    try:
        for name, fn in originals.items():
            setattr(stepper, name, timer(name, fn))
        for dim, n in GRIDS:
            grid = Grid(dim, 2.0 * np.pi, n)
            state = init_state(ic_random(grid, seed=0), eps=4.0 * grid.spacing)
            state, _ = advance(state, 1e-6)
            for pass_cores in dict.fromkeys((cores, 1)):  # once where CORES is 1
                spectral.CORES = pass_cores
                state, _ = advance(state, 1e-6)
                steps, phases = [], [[] for _ in PHASES]
                for _ in range(REPEATS):
                    spent.update(dict.fromkeys(spent, 0.0))
                    start = time.perf_counter()
                    state, _ = advance(state, 1e-6)
                    steps.append(1e3 * (time.perf_counter() - start))
                    for ms, (_, timed) in zip(phases, PHASES):
                        ms.append(phase_ms(timed))
                cells = (f"{statistics.median(ms):.2f}" for ms in phases)
                label = f"{dim}d N={n} (CORES = {pass_cores})"
                row = "  ".join(f"{c:>{w}s}" for c, w in zip(cells, widths))
                print(f"{label:24s} {row}  {statistics.median(steps):7.2f}")
    finally:
        spectral.CORES = cores
        for name, fn in originals.items():
            setattr(stepper, name, fn)


def _kernels_cfg(tmp: str) -> Path:
    cfg = Path(tmp) / "kernels.cfg"
    cfg.write_text(f"scenario = convergence\nseed = {SEED}\n[kernels]\nmax_n = {MAX_N}\n")
    return cfg


def cli_child(src, *args):
    """(peak RSS of a fresh process running chsolver with args, of its
    largest child, in MB; the seconds the command took)."""
    argv = [sys.executable, "-c", _CLI_CHILD, *args]
    self_kib, child_kib, seconds = subprocess.run(argv, env=_env(src), check=True, capture_output=True).stdout.split()
    return int(self_kib) / 1024, int(child_kib) / 1024, float(seconds)


def kernels_peaks(src):
    """(peak RSS of a fresh kernels pass, of its largest child), in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        return cli_child(src, "kernels", str(_kernels_cfg(tmp)), "--outdir", tmp + "/out")[:2]


def simulate_peaks(src):
    """The peak RSS of COLD_PEAK_RUNS fresh simulate processes on the
    coarsen3d benchmark config, in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "coarsen3d.cfg"
        cfg.write_text(COARSEN3D_CFG)
        return [cli_child(src, "simulate", str(cfg), "--outdir", tmp + "/out")[0] for _ in range(COLD_PEAK_RUNS)]


def check_figures(src):
    """[(steps, peak RSS of a fresh check CONFIG in MB, seconds and peak RSS
    in MB of a fresh check --records on the records.csv simulate writes)]
    for CHECK_STEPS."""
    figures = []
    with tempfile.TemporaryDirectory() as tmp:
        for steps in CHECK_STEPS:
            cfg = Path(tmp) / f"check{steps}.cfg"
            cfg.write_text(CHECK_CFG.format(steps=steps))
            out = f"{tmp}/out{steps}"
            cli_child(src, "simulate", str(cfg), "--outdir", out)
            mb, _, seconds = cli_child(src, "check", str(cfg), "--records", out + "/records.csv")
            figures.append((steps, cli_child(src, "check", str(cfg))[0], seconds, mb))
    return figures


def kernels_table(peaks):
    import numpy as np

    from chsolver import cli, spectral
    from chsolver.cli import main as cli_main
    from chsolver.config import parse_config
    from chsolver.timestep import kernel_matrices, quadratic_form_check, random_mesh

    cores = spectral.CORES
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _kernels_cfg(tmp)
        argv = ["kernels", str(cfg), "--outdir", str(Path(tmp) / "out")]

        def kernels_pass(pass_cores):
            def run():
                spectral.CORES = pass_cores
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli_main(argv) != 0:
                            raise RuntimeError("chsolver kernels failed")
                finally:
                    spectral.CORES = cores

            return run

        def form_check(n):
            mesh = random_mesh(1.0, n, SEED)
            w = np.random.default_rng(SEED).standard_normal(n)

            def form():
                if not quadratic_form_check(mesh, w).passed:
                    raise RuntimeError("quadratic-form chain fails")

            form()
            return form

        theta, p = kernel_matrices(random_mesh(parse_config(cfg).horizon, MAX_N, SEED), MAX_N)
        lower = np.tril_indices(MAX_N)
        values = tuple(theta[lower].tolist() + p[lower].tolist())
        template = "%.17g" * len(values)
        # the p values a serial pass formats: each row's from its first changed column on
        fresh = [v for i, j in enumerate(cli.kernel_p_changes(p)) for v in p[i, j : i + 1].tolist()]
        fresh_values = tuple(theta[lower].tolist() + fresh)
        fresh_template = "%.17g" * len(fresh_values)

        serial, split = kernels_pass(1), kernels_pass(cores)
        serial()
        split()
        form = form_check(MAX_N)
        serial_ms, split_ms, floor_ms, fresh_ms = alternating_medians(
            serial, split, lambda: template % values, lambda: fresh_template % fresh_values
        )
        print(f"kernels pass (max_n = {MAX_N}), CORES = 1: {serial_ms:9.1f} ms")
        print(f"kernels pass (max_n = {MAX_N}), CORES = {cores}: {split_ms:9.1f} ms")
        print(f"p texts reused (serial pass):          {1 - len(fresh) / len(lower[0]):9.1%}")
        print(f".17g floor ({len(values)} values):      {floor_ms:9.1f} ms")
        print(f".17g floor, formatted ({len(fresh_values)} values): {fresh_ms:9.1f} ms")
        print(f"kernels pass / .17g floor, CORES = 1:  {serial_ms / floor_ms:9.2f}")
        print(f"kernels pass / .17g floor, CORES = {cores}:  {split_ms / floor_ms:9.2f}")
        print(f"kernels pass / formatted floor, CORES = 1:  {serial_ms / fresh_ms:9.2f}")
        print(f"kernels pass / formatted floor, CORES = {cores}:  {split_ms / fresh_ms:9.2f}")
        print(f"kernels peak RSS, CORES = {cores}: {peaks[0]:.1f} MB, largest forked process {peaks[1]:.1f} MB")
        kernels_timeline(kernels_pass(cores), cores)
        print(f"quadratic_form_check (n = {MAX_N}):    {median_ms(form):9.2f} ms")
        form = form_check(FORM_N)
        print(
            f"quadratic_form_check (n = {FORM_N}): {median_ms(form):9.2f} ms,"
            f" tracemalloc peak {single_peak_bytes(form) / 1e6:.1f} MB"
        )


def kernels_timeline(run, cores):
    """The split pass's timeline: over REPEATS passes run at CORES, the
    median ms from the pass's start at which each part's rows are written,
    ``kernel_residuals`` returns and each ``os.waitpid`` returns.  The
    ``cli`` names ``kernel_rows``, ``kernel_residuals`` and ``os.waitpid``
    are wrapped for the table only.  A part's writer, in a forked process or
    in the command, puts its end time into a shared anonymous mapping, which
    the forked processes inherit; perf_counter is one monotonic clock for
    all of them."""
    import mmap
    import struct

    from chsolver import cli

    parts = cli._kernel_parts(MAX_N)  # at the host's CORES, as run passes them
    starts = [rows.start for rows in parts]
    ends = mmap.mmap(-1, 8 * len(parts))
    returned, waits = [], []  # the times kernel_residuals and each os.waitpid returned, this pass
    originals = (cli.kernel_rows, cli.kernel_residuals, os.waitpid)

    def kernel_rows(theta, p):
        write_rows = originals[0](theta, p)

        def timed(rows, write):
            write_rows(rows, write)
            struct.pack_into("d", ends, 8 * starts.index(rows.start), time.perf_counter())

        return timed

    def residuals(*args):
        try:
            return originals[1](*args)
        finally:
            returned.append(time.perf_counter())

    def waitpid(pid, options):
        try:
            return originals[2](pid, options)
        finally:
            waits.append(time.perf_counter())

    rounds = []
    cli.kernel_rows, cli.kernel_residuals, os.waitpid = kernel_rows, residuals, waitpid
    try:
        for _ in range(REPEATS):
            returned.clear()
            waits.clear()
            start = time.perf_counter()
            run()
            stop = time.perf_counter()
            times = [*struct.unpack_from(f"{len(parts)}d", ends), *returned, *waits, stop]
            rounds.append([1e3 * (t - start) for t in times])
    finally:
        cli.kernel_rows, cli.kernel_residuals, os.waitpid = originals
        ends.close()
    ms = iter(statistics.median(column) for column in zip(*rounds))
    labels = [f"part {k + 1}, rows {rows.start}..{rows.stop - 1}, written by "
              + ("the command" if k == 0 else "a forked process") for k, rows in enumerate(parts)]
    labels += ["kernel_residuals returned", *(f"waitpid on part {k} returned" for k in range(2, len(waits) + 2))]
    print(f"kernels split timeline (CORES = {cores}; ms from the pass's start, medians of {REPEATS} passes):")
    for label in [*labels, "pass returned"]:
        print(f"  {label + ':':52s} {next(ms):7.1f}")


def io_table():
    import numpy as np

    from chsolver import recordio, stepper
    from chsolver.cli import main as cli_main
    from chsolver.config import build_scenario, parse_config
    from chsolver.recordio import read_records, read_snapshot, write_records, write_snapshot
    from chsolver.spectral import Grid
    from chsolver.stepper import StepRecord
    from chsolver.timestep import landing_tol

    with tempfile.TemporaryDirectory() as tmp:
        grid = Grid(3, 2.0 * np.pi, 128)
        values = np.random.default_rng(SEED).standard_normal(grid.shape)
        snap = Path(tmp) / "snap.bin"
        print(f"{'I/O':38s} {'ms':>10s}  faults/call  ({snap.name}: 3d N=128, {8 * 128**3 / 1e6:.1f} MB)")
        for label, fn in (
            ("write_snapshot", lambda: write_snapshot(grid, values, snap, time=0.0)),
            ("read_snapshot", lambda: read_snapshot(snap)),
        ):
            fn()
            print(f"{label:38s} {median_ms(fn):10.2f}  {median_faults(fn):11.0f}")

        # gamma falls by exactly the dissipation each step; mass and tau are
        # constant, and xi = eta = 1
        rows, gamma = [], 1.0
        for n in range(1, IO_ROWS + 1):
            prev, gamma = gamma, gamma - 1e-5
            rows.append(StepRecord(n, n * 1e-6, 1e-6, gamma, gamma - 1.0, 1.0, 1.0, 0.0, prev - gamma))
        records, one_row = Path(tmp) / "records.csv", Path(tmp) / "one_row.csv"
        write_records(rows, records)
        write_records(rows[:1], one_row)
        cfg = Path(tmp) / "check.cfg"
        cfg.write_text("scenario = kissing_bubbles\n")

        for label, path in ((f"{IO_ROWS} rows", records), ("1 row", one_row)):

            def check():
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli_main(["check", str(cfg), "--records", str(path)]) != 0:
                        raise RuntimeError("chsolver check --records failed")

            check()
            print(f"{'check --records (' + label + ')':38s} {median_ms(check):10.3f}")

        # the parse and the guarantee check of the IO_ROWS stream apart, as
        # check --records runs them, and the StepRecord reader
        scenario = build_scenario(parse_config(cfg))
        blocks = [(steps, list(rows)) for steps, rows in recordio.read_record_blocks(records)]

        def parse():
            for _ in recordio.read_record_blocks(records):
                pass

        def fold():
            check = stepper.RecordCheck(landing_tol(scenario.horizon), ratio_cap=scenario.policy.ratio_cap)
            for steps, rows in blocks:
                check.feed(steps, rows)
            return check.result()

        if fold():
            raise RuntimeError("RecordCheck flags the generated stream")
        for label, fn in (
            ("read_record_blocks", parse),
            ("RecordCheck.feed", fold),
            ("read_records", lambda: read_records(records)),
        ):
            print(f"{label + f' ({IO_ROWS} rows)':38s} {median_ms(fn):10.3f}")


def check_table(figures):
    for steps, peak, seconds, mb in figures:
        print(f"fresh check CONFIG ({steps} steps): peak RSS {peak:.1f} MB")
        print(f"fresh check --records ({steps} rows): {seconds:.3f} s, peak RSS {mb:.1f} MB")


def cold_start_table(src, simulate_mb):
    with tempfile.TemporaryDirectory() as tmp:
        kernels_cfg = Path(tmp) / "kernels.cfg"
        kernels_cfg.write_text(f"scenario = convergence\nseed = {SEED}\n[kernels]\nmax_n = 30\n")
        simulate_cfg = Path(tmp) / "simulate.cfg"
        simulate_cfg.write_text("scenario = kissing_bubbles\nn = 32\nhorizon = 0.01\n[output]\nsnapshots = 0.0\n")
        out = str(Path(tmp) / "out")
        cli = ["-m", "chsolver.cli"]
        commands = (
            ("python -c pass", ["-c", "pass"]),
            ("import chsolver", ["-c", "import chsolver"]),
            ("chsolver kernels (max_n = 30)", [*cli, "kernels", str(kernels_cfg), "--outdir", out]),
            ("chsolver simulate (2d N = 32)", [*cli, "simulate", str(simulate_cfg), "--outdir", out]),
        )
        env = _env(src)
        for label, args in commands:
            ms = median_ms(
                lambda: subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
            )
            print(f"cold start, {label + ':':31s} {ms:7.1f} ms")
    print(
        f"cold start, chsolver simulate (coarsen3d benchmark config): peak RSS {statistics.median(simulate_mb):.1f} MB"
        f" (median of {len(simulate_mb)}, {min(simulate_mb):.1f}-{max(simulate_mb):.1f})"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args(argv)
    rss = resident_peaks(args.src)
    kernels = kernels_peaks(args.src)
    simulate_mb = simulate_peaks(args.src)
    check = check_figures(args.src)
    sys.path.insert(0, args.src)
    advance_table(rss)
    phase_table()
    kernels_table(kernels)
    io_table()
    check_table(check)
    cold_start_table(args.src, simulate_mb)


if __name__ == "__main__":
    main()
