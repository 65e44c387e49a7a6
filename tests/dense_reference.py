"""Dense reference implementation used by the oracle tests.

Builds explicit DFT synthesis/analysis matrices (Kronecker products of the
1d transforms) and replays one stepper advance with dense linear algebra:
the implicit solve becomes an assembled matrix and a direct np.linalg.solve
instead of a diagonal division in transform space.  Deliberately O(N^(2*dim))
and only meant for small grids.
"""

import numpy as np

from chsolver import SpectralField, bdf_weights
from chsolver.spectral import inverse


def dft_matrices(grid):
    """(analysis, synthesis) matrices acting on row-major flattened fields.

    analysis @ u.ravel() equals the solver's coefficient array flattened;
    synthesis is its exact inverse.
    """
    n = grid.modes
    x = np.arange(n) * grid.spacing
    fwd1 = np.exp(-1j * np.outer(grid.wavenumbers, x)) / n
    inv1 = np.exp(1j * np.outer(x, grid.wavenumbers))
    fwd, inv = fwd1, inv1
    for _ in range(grid.dim - 1):
        fwd = np.kron(fwd, fwd1)
        inv = np.kron(inv, inv1)
    return fwd, inv


def dense_advance(state, tau):
    """One full step with dense matrices; mirrors the public advance().

    Returns a dict with the flattened auxiliary coefficients, gamma, xi,
    eta and the flattened relaxed-solution coefficients.
    """
    g = state.grid
    fwd, inv = dft_matrices(g)
    k2 = full_k_squared(g).ravel()

    r = 0.0 if state.step_index == 0 else tau / state.prev_tau
    b0, b1 = bdf_weights(tau, r)
    p1 = inverse(state.phi_bar_hat1, g.shape).ravel()
    p2 = inverse(state.phi_bar_hat2, g.shape).ravel()
    if state.step_index == 0:
        ext = state.phi1.ravel()
    else:
        ext = (1.0 + r) * state.phi1.ravel() - r * state.phi2.ravel()
    f = (ext**3 - ext) / state.eps**2

    system = inv @ np.diag(b0 + k2**2) @ fwd
    rhs = b0 * p1 - b1 * (p1 - p2) + (inv @ ((-k2) * (fwd @ f))).real
    pb = np.linalg.solve(system, rhs.astype(complex))
    pb_phys = pb.real
    pb_hat = fwd @ pb_phys

    f_hat = fwd @ f
    mu_hat = k2 * pb_hat + f_hat
    grad_mu_sq = g.volume * float(np.sum(k2 * np.abs(mu_hat) ** 2))
    grad_sq = g.volume * float(np.sum(k2 * np.abs(pb_hat) ** 2))
    well = float(np.sum((pb_phys**2 - 1.0) ** 2)) * g.cell_volume / (4.0 * state.eps**2)
    e_bar = 0.5 * grad_sq + well

    gamma = state.gamma / (1.0 + tau * grad_mu_sq / (e_bar + 1.0))
    xi = gamma / (e_bar + 1.0)
    eta = xi * (2.0 - xi)
    return {
        "phi_bar_hat": pb_hat,
        "gamma": gamma,
        "xi": xi,
        "eta": eta,
        "phi_hat": eta * pb_hat,
        "energy": e_bar,
        "grad_mu_sq": grad_mu_sq,
    }


def full_k_squared(grid):
    """|k|^2 on the full mode grid (fftn layout)."""
    k = np.meshgrid(*([grid.wavenumbers] * grid.dim), indexing="ij")
    return sum(ka**2 for ka in k)


def half_spectrum(grid, full):
    """The solver's half spectrum (last-axis modes 0..N/2) of a full-spectrum
    array, given flattened or in grid shape."""
    return full.reshape(grid.shape)[..., : grid.modes // 2 + 1]


def random_state(grid, eps, seed, scale=0.5):
    """Init-style state from a rough random field, plus one warmup step so
    the two history levels differ."""
    from chsolver import advance, init_state

    rng = np.random.default_rng(seed)
    u = rng.uniform(-scale, scale, grid.shape)
    state = init_state(SpectralField(grid, physical=u), eps)
    state, _ = advance(state, 0.01 * (1.0 + rng.uniform()))
    return state
