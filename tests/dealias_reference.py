"""Full-spectrum reference for the dealiased cubic, used by the spectral tests.

Works on the full complex spectrum (fftn layout, N^dim entries) of a real
field: zero-pads it to a 3N/2 grid, takes the real part of the inverse
transform, which splits each unpaired Nyquist coefficient evenly between
-N/2 and +N/2, forms (u^3 - u)/eps^2 there and truncates back, zeroing
every Nyquist plane.  The solver's half-spectrum version must reproduce it.
"""

from itertools import product

import numpy as np


def dealiased_cubic_full(grid, coef, eps):
    """Full-spectrum coefficients of the dealiased cubic of the field whose
    full-spectrum coefficients (1/N^dim normalisation) are coef."""
    n, dim = grid.modes, grid.dim
    fine = 3 * n // 2
    src = (slice(0, n // 2), slice(n // 2, n))
    dst = (slice(0, n // 2), slice(fine - n // 2, fine))
    pad = np.zeros((fine,) * dim, dtype=np.complex128)
    for combo in product(range(2), repeat=dim):
        pad[tuple(dst[c] for c in combo)] = coef[tuple(src[c] for c in combo)]
    u = (np.fft.ifftn(pad) * fine**dim).real
    w_hat = np.fft.fftn((u**3 - u) / eps**2) / fine**dim
    out = np.zeros(grid.shape, dtype=np.complex128)
    for combo in product(range(2), repeat=dim):
        out[tuple(src[c] for c in combo)] = w_hat[tuple(dst[c] for c in combo)]
    nyq = np.arange(n) == n // 2
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = n
        out = out * (~nyq).reshape(shape)
    return out
