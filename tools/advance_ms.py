"""Milliseconds per stepper.advance on the grids of the ROADMAP baseline table.

Usage:

    python tools/advance_ms.py [--src PATH] [--steps K]

PATH is the ``src`` directory of the checkout to time (default: the one next
to this script), so the same script times any commit.  On each grid the
stepper starts from the coarsening initial field (seed 0), takes two untimed
warm-up steps, then K timed steps of a fixed size; the median is printed
with the median of one rfftn plus one irfftn on the same grid, the cost
floor of a step.  Transforms use the solver's own worker setting.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

GRIDS = ((2, 128), (2, 256), (2, 512), (3, 64), (3, 128))


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--steps", type=int, default=7)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np
    from scipy import fft

    from chsolver import Grid, advance, ic_random, init_state

    print("grid      ms/advance  ms/(rfftn+irfftn)")
    for dim, n in GRIDS:
        grid = Grid(dim, 2.0 * np.pi, n)
        state = init_state(ic_random(grid, seed=0), eps=4.0 * grid.spacing)
        for _ in range(2):
            state, _ = advance(state, 1e-6)

        def step():
            nonlocal state
            state, _ = advance(state, 1e-6)

        x = np.random.default_rng(0).normal(size=grid.shape)
        floor = median_ms(lambda: fft.irfftn(fft.rfftn(x), s=x.shape), args.steps)
        print(f"{dim}d N={n:<4d} {median_ms(step, args.steps):10.2f}  {floor:10.2f}")


if __name__ == "__main__":
    main()
