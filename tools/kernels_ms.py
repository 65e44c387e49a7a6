"""Milliseconds per `chsolver kernels` pass and per quadratic_form_check.

Usage:

    python tools/kernels_ms.py [--src PATH]

PATH is the ``src`` directory of the checkout to time (default: the one next
to this script), so the same script times any commit.  One kernels pass is
the ``kernels`` subcommand at max_n = 400 (convergence scenario, seed 5),
writing kernels.csv and kernel_residuals.csv into a temporary directory; the
quadratic form is checked on random_mesh(1, 400, seed 5) with standard
normal weights.  Each is run once untimed, then REPEATS times; the medians
are printed.
"""

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
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


if __name__ == "__main__":
    main()
