"""Reference computations that tell how fast the shared host runs this process.

The benchmark runs on a few cores of a shared host.  Other tenants slow it by
up to 2x, in phases that last from under a second to several minutes, and a
whole run can fall inside one slow phase; then even its fastest pass is slow.
Each reference computation here is a fixed piece of work, independent of
chsolver, that resembles the timed code of one workload: Python-level loops,
numpy and FFT on small 2d arrays that stay in cache, or FFT on a 3d grid that
does not.  Timed just before and just after a pass, it gives the factor by
which the host was slower than nominal around that pass, and the benchmark
divides the pass's wall time by that factor.  A change to chsolver moves the
pass time and not the reference, so it shows in full in the ratio.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft


def _field(dim: int) -> np.ndarray:
    """A fresh 128^dim field; not kept, so it adds nothing to peak RSS."""
    return (np.arange(128**dim, dtype=np.float64) % 7.0 - 3.0).reshape((128,) * dim)


def python_loop() -> float:
    """Seconds for an interpreter-bound loop of float arithmetic, dict stores
    and float-to-text formatting, as in writing and checking CSV rows."""
    t0 = time.perf_counter()
    rows, table, s = [], {}, 0.0
    for i in range(30000):
        s = (i % 7) * 0.5 - s * 1e-3
        table[i & 255] = s
        if i % 4 == 0:
            rows.append(f"{i},{s:.17g}\n")
    "".join(rows)
    return time.perf_counter() - t0


def arrays_2d() -> float:
    """Seconds for ten FFT round trips and cubic updates on a 128^2 field."""
    x = _field(2)
    t0 = time.perf_counter()
    for _ in range(10):
        y = scipy.fft.irfft2(scipy.fft.rfft2(x), s=x.shape)
        x = 0.5 * (x + y) - 0.1 * x**3
    return time.perf_counter() - t0


def arrays_3d() -> float:
    """Seconds for a real and a complex FFT round trip, a spectral filter and
    a cubic update on a 128^3 field (16 MB real, 34 MB complex)."""
    x = _field(3)
    t0 = time.perf_counter()
    scipy.fft.irfftn(scipy.fft.rfftn(x), s=x.shape)
    scipy.fft.ifftn(scipy.fft.fftn(x) * (1.0 / (1.0 + np.arange(128.0))))
    x * 1.5 + x**3
    return time.perf_counter() - t0


# Seconds each takes when the host is idle (a 2-vCPU Intel Xeon VM, Python
# 3.11, scipy 1.17): the normalised timings are wall times at that speed.
NOMINAL_S = {python_loop: 9.5e-3, arrays_2d: 16.0e-3, arrays_3d: 0.34}


def slowdown(reference) -> float:
    """How many times slower than nominal the host runs reference now."""
    return reference() / NOMINAL_S[reference]
