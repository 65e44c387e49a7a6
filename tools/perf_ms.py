"""Milliseconds per solver step, kernels pass, quadratic-form check and cold start.

Usage:

    python tools/perf_ms.py [--src PATH]

PATH is the ``src`` directory of the checkout to time (default: the one next
to this script), so the same script times any commit.  Every median is over
REPEATS timed runs after the warm-up below.

- advance: on each grid of the ROADMAP baseline table the stepper starts
  from the coarsening initial field (seed 0), takes two untimed warm-up
  steps, then REPEATS timed steps of a fixed size; the median is printed
  with the median of one ``spectral.forward`` plus one ``spectral.inverse``
  on the same grid, the cost floor of a step, made with the same transform
  workers as the step.  The header gives ``spectral.CORES``, the cores the
  step runs on.  Then come two medians over REPEATS further steps each:
  the minor page faults of one step (ru_minflt), and the peak memory
  tracemalloc sees inside one step above what was allocated at its entry,
  in units of one float64 grid array.  tracemalloc sees numpy's arrays but
  not the transforms' internal buffers.
- kernels: one pass is the ``kernels`` subcommand at max_n = MAX_N
  (convergence scenario, seed SEED), writing kernels.csv and
  kernel_residuals.csv into a temporary directory; the quadratic form is
  checked on random_mesh(1, MAX_N, SEED) with standard normal weights.
  Each is run once untimed first.
- cold start: the wall time of a fresh interpreter, from spawn to exit, for
  bare ``python -c pass``, ``import chsolver``, the ``kernels`` subcommand at
  max_n = 30 and ``simulate`` on a short 2d N = 32 kissing_bubbles run; the
  difference between rows is what each layer imports and runs.
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

GRIDS = ((2, 128), (2, 256), (2, 512), (3, 64), (3, 128))
MAX_N = 400
SEED = 5
REPEATS = 7


def median_ms(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def median_faults(fn):
    counts = []
    for _ in range(REPEATS):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    return statistics.median(counts)


def median_peak_bytes(fn):
    peaks = []
    for _ in range(REPEATS):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
    return statistics.median(peaks)


def advance_table():
    import numpy as np

    from chsolver import Grid, advance, ic_random, init_state, spectral

    # commits before spectral.CORES ran every step on one core
    cores = getattr(spectral, "CORES", 1)
    print(f"grid      ms/advance  ms/(rfftn+irfftn)  faults/advance  peak/array  (CORES = {cores})")
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
        print(f"{dim}d N={n:<4d} {ms:10.2f}  {floor:10.2f}  {faults:14.0f}  {peak:10.2f}")


def kernels_table():
    import numpy as np

    from chsolver import quadratic_form_check, random_mesh
    from chsolver.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "kernels.cfg"
        cfg.write_text(f"scenario = convergence\nseed = {SEED}\n[kernels]\nmax_n = {MAX_N}\n")

        def kernels_pass():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(["kernels", str(cfg), "--outdir", str(Path(tmp) / "out")]) != 0:
                    raise RuntimeError("chsolver kernels failed")

        mesh = random_mesh(1.0, MAX_N, SEED)
        w = np.random.default_rng(SEED).standard_normal(MAX_N)

        def form():
            if not quadratic_form_check(mesh, w).passed:
                raise RuntimeError("quadratic-form chain fails")

        kernels_pass()
        form()
        print(f"kernels pass (max_n = {MAX_N}):     {median_ms(kernels_pass):9.1f} ms")
        print(f"quadratic_form_check (n = {MAX_N}): {median_ms(form):9.1f} ms")


def cold_start_table(src):
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
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        for label, args in commands:
            ms = median_ms(
                lambda: subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)
            )
            print(f"cold start, {label + ':':31s} {ms:7.1f} ms")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    advance_table()
    kernels_table()
    cold_start_table(args.src)


if __name__ == "__main__":
    main()
