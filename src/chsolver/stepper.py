"""Energy-stable IMEX BDF2 stepper with a relaxed auxiliary energy scalar.

The phase field obeys d(phi)/dt = lap(mu), mu = -lap(phi) + f(phi) with
f(u) = (u^3 - u)/eps^2 on a periodic box.  Each step advances an auxiliary
field phi_bar implicitly in its linear part and explicitly (extrapolated)
in f, then contracts a scalar gamma that shadows E + 1, where

    E[u] = 1/2 ||grad u||^2 + 1/(4 eps^2) ||u^2 - 1||^2.

Substeps, in order:

  1. solve (b0 + |k|^4) pb_hat = b0 ph1 - b1 (ph1 - ph2) - |k|^2 f_hat
     per Fourier mode, where f_hat transforms f((1+r) phi1 - r phi2)
     (the D2 history is the auxiliary field, the extrapolated history the
     relaxed one);
  2. gamma_n = gamma_{n-1} / (1 + tau * ||grad mu||^2 / (E(phi_bar) + 1))
     with mu_hat = |k|^2 pb_hat + f_hat, which makes
     gamma_{n-1} - gamma_n = tau * xi * ||grad mu||^2 exact;
  3. xi = gamma_n / (E(phi_bar) + 1), eta = xi (2 - xi),
     phi_n = eta * phi_bar.

gamma is positive and non-increasing for every step size, and the mode-0
equation reduces to pb_hat_0 = ph1_hat_0, so (phi_bar, 1) is conserved;
the solve sets that mode to ph1_hat_0 exactly.

A step works on plain arrays and makes two real transforms: one rfftn of
f, one irfftn of pb_hat, whose grid values give the double-well energy and
phi_n.  Everything else is pointwise and runs slab by slab along axis 0,
each slab at most spectral.SLAB_ELEMENTS elements (2^15; a 2d N=128 grid
is one slab), through spectral.slab_map and slab_sum, so the slabs of one
pass run on every core and their scalars are added in slab order:

  - the extrapolation and the cubic, written into the rfftn input f;
  - the solve, written into the new history array pb_hat, with the
    ||grad mu||^2 sum of each slab taken as soon as it is solved, so f_hat
    is freed before the irfftn;
  - the well energy and both Parseval sums.

So only f, f_hat, pb_hat and the irfftn output pb are full-size, and relax
scales pb in place into phi_n.  advance calls energy and relax; the public
linear_solve and gamma_update run the same slab helpers as its fused
solve, so composing the four substeps reproduces advance bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    cubic,
    cubic_coefficients,
    forward,
    inverse,
    parseval_sum,
    parseval_terms,
    slab_map,
    slab_sum,
)
from .timestep import bdf_weights


class NonfiniteFieldError(FloatingPointError):
    """A solve produced NaN or infinity."""


@dataclass(frozen=True)
class StepRecord:
    """Scalars emitted by one step; dissipation is tau * xi * ||grad mu||^2."""

    n: int
    t: float
    tau: float
    gamma: float
    energy: float
    xi: float
    eta: float
    mass: float
    dissipation: float


@dataclass(frozen=True, eq=False)
class GsavState:
    """Two-level history of the stepper, as plain arrays (compared by identity).

    phi_bar_hat1/2 are the half spectra of the auxiliary (pre-relaxation)
    fields, all the backward-difference stencil reads; phi1/2 are the grid
    values of the relaxed fields, which the extrapolation reads.  prev_tau
    is the last step size (0 before the first step, which runs backward
    Euler).
    """

    grid: Grid
    phi_bar_hat1: np.ndarray
    phi_bar_hat2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    gamma: float
    eps: float
    step_index: int = 0
    time: float = 0.0
    prev_tau: float = 0.0
    dealias: bool = False


def energy(grid: Grid, u: np.ndarray, u_hat: np.ndarray, eps: float) -> float:
    """Ginzburg-Landau energy of the field with grid values u and half spectrum
    u_hat: gradient part from u_hat, double-well part by quadrature of u."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    def well_terms(s):
        u_s = u[s]
        w = u_s * u_s
        w -= 1.0
        w *= w
        return float(w.sum())

    well = slab_sum(well_terms, u.shape) * grid.cell_volume / (4.0 * eps**2)
    return 0.5 * parseval_sum(grid, u_hat, grid.k_squared) + well


def init_state(phi0: SpectralField, eps: float, dealias: bool = False) -> GsavState:
    """State before the first step: both histories hold phi0, gamma = E + 1."""
    u, u_hat = phi0.physical, phi0.coefficients
    gamma0 = energy(phi0.grid, u, u_hat, eps) + 1.0
    return GsavState(phi0.grid, u_hat, u_hat, u, u, gamma0, eps, dealias=dealias)


def _step_ratio(state: GsavState, tau_n: float) -> float:
    if not 0 < tau_n < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau_n}")
    return 0.0 if state.step_index == 0 else tau_n / state.prev_tau


def _extrapolated_nonlinearity(state: GsavState, tau_n: float) -> np.ndarray:
    """Half-spectrum coefficients of f(B phi^{n-1}), where
    B u = (1+r) u^{n-1} - r u^{n-2} = u^{n-1} + r (u^{n-1} - u^{n-2})
    and B u^0 = u^0.  B phi and f(B phi) are formed slab by slab into the
    transform's input; the dealiased cubic needs all of B phi at once."""
    r = _step_ratio(state, tau_n)
    u1, u2 = state.phi1, state.phi2

    def extrapolated(s):
        if state.step_index == 0:
            return u1[s]
        u1_s = u1[s]
        u = u1_s - u2[s]
        u *= r
        u += u1_s
        return u

    if state.dealias:
        return cubic_coefficients(state.grid, extrapolated(slice(None)), state.eps, dealias=True)
    f = np.empty(state.grid.shape)
    slab_map(lambda s: cubic(extrapolated(s), state.eps, out=f[s]), f.shape)
    return forward(f)


def _grad_mu_terms(k2: np.ndarray, pb_hat: np.ndarray, f_hat: np.ndarray) -> float:
    """||grad mu||^2 / |Omega| over rows of the half spectrum, for
    mu_hat = |k|^2 pb_hat + f_hat."""
    mu_hat = k2 * pb_hat
    mu_hat += f_hat
    return parseval_terms(mu_hat, k2)


def _solve(state: GsavState, tau_n: float, f_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """(pb_hat, ||grad mu||^2): the half spectrum of the auxiliary field and
    the dissipation rate of substep 2, summed slab by slab as each slab of
    pb_hat is solved."""
    r = _step_ratio(state, tau_n)
    b0, b1 = bdf_weights(tau_n, r)
    grid = state.grid
    c1, c2, k2 = state.phi_bar_hat1, state.phi_bar_hat2, grid.k_squared
    zero = (0,) * grid.dim
    pb_hat = np.empty_like(c1)

    def solve_slab(s):
        c1_s, k2_s, f_s = c1[s], k2[s], f_hat[s]
        # (b0 c1 - b1 (c1 - c2) - |k|^2 f_hat) / (b0 + |k|^4)
        out = np.subtract(c1_s, c2[s], out=pb_hat[s])
        out *= -b1
        out += b0 * c1_s
        out -= k2_s * f_s
        inv = k2_s * k2_s
        inv += b0
        out *= np.reciprocal(inv, out=inv)
        if s.start == 0:
            # the mode-0 equation reduces to pb_hat_0 = c1_0; dividing by b0
            # would move a constant field by an ulp per step
            out[zero] = c1[zero]
        return _grad_mu_terms(k2_s, out, f_s)

    gm = slab_sum(solve_slab, pb_hat.shape)
    return pb_hat, grid.volume * gm


def linear_solve(state: GsavState, tau_n: float) -> np.ndarray:
    """Half spectrum of the auxiliary field after the implicit solve (substep 1)."""
    return _solve(state, tau_n, _extrapolated_nonlinearity(state, tau_n))[0]


def _contracted(gamma_prev: float, tau_n: float, gm: float, e_bar: float) -> float:
    return gamma_prev / (1.0 + tau_n * gm / (e_bar + 1.0))


def gamma_update(
    grid: Grid, gamma_prev: float, tau_n: float, pb_hat: np.ndarray, f_hat: np.ndarray, e_bar: float
) -> tuple[float, float]:
    """(gamma_n, ||grad mu||^2) from the closed-form contraction (substep 2).

    pb_hat and e_bar are the auxiliary field's half spectrum and energy,
    f_hat the nonlinearity the solve used; ||grad mu||^2 for
    mu = -lap(phi_bar) + f is summed in coefficient space, slab by slab as
    advance sums it while solving.
    """
    k2 = grid.k_squared
    gm = grid.volume * slab_sum(lambda s: _grad_mu_terms(k2[s], pb_hat[s], f_hat[s]), pb_hat.shape)
    return _contracted(gamma_prev, tau_n, gm, e_bar), gm


def relax(pb: np.ndarray, gamma_n: float, e_bar: float) -> tuple[float, float, np.ndarray]:
    """(xi, eta, pb) for the auxiliary grid values pb, which are scaled by
    eta in place (substep 3)."""
    xi = gamma_n / (e_bar + 1.0)
    eta = xi * (2.0 - xi)
    pb *= eta
    return xi, eta, pb


def advance(state: GsavState, tau_n: float) -> tuple[GsavState, StepRecord]:
    """Execute one full step; returns the new state and its record."""
    grid = state.grid
    n = state.step_index + 1
    f_hat = _extrapolated_nonlinearity(state, tau_n)
    pb_hat, gm = _solve(state, tau_n, f_hat)
    del f_hat  # freed before the inverse transform allocates its output
    pb = inverse(pb_hat, grid.shape)
    e_bar = energy(grid, pb, pb_hat, state.eps)
    # a NaN or inf anywhere in the history reaches both through irfftn and Parseval
    if not (np.isfinite(e_bar) and np.isfinite(gm)):
        raise NonfiniteFieldError(f"nonfinite field after step {n}")
    gamma_n = _contracted(state.gamma, tau_n, gm, e_bar)
    xi, eta, phi_n = relax(pb, gamma_n, e_bar)
    record = StepRecord(
        n=n,
        t=state.time + tau_n,
        tau=tau_n,
        gamma=gamma_n,
        energy=e_bar,
        xi=xi,
        eta=eta,
        mass=grid.volume * float(pb_hat[(0,) * grid.dim].real),
        dissipation=tau_n * xi * gm,
    )
    new_state = replace(
        state,
        phi_bar_hat1=pb_hat,
        phi_bar_hat2=state.phi_bar_hat1,
        phi1=phi_n,
        phi2=state.phi1,
        gamma=gamma_n,
        step_index=n,
        time=state.time + tau_n,
        prev_tau=tau_n,
    )
    return new_state, record


def validate_records(
    records,
    gamma0: float | None = None,
    mass0: float | None = None,
    volume: float | None = None,
    ratio_cap: float | None = None,
) -> list[str]:
    """Check a record stream against the scheme's guarantees.

    Returns a list of human-readable violations (empty when clean):
    gamma positive and non-increasing, xi positive, the per-step identity
    gamma_{n-1} - gamma_n = dissipation, constant mass, finiteness, and
    optionally the step-ratio cap.
    """
    problems: list[str] = []
    if not records:
        return ["no records"]
    g_scale = gamma0 if gamma0 is not None else records[0].gamma
    m_anchor = mass0 if mass0 is not None else records[0].mass
    m_scale = volume if volume is not None else max(abs(m_anchor), 1.0)
    prev_gamma = gamma0
    prev_tau = None
    for rec in records:
        vals = (rec.t, rec.tau, rec.gamma, rec.energy, rec.xi, rec.eta, rec.mass, rec.dissipation)
        if not all(np.isfinite(v) for v in vals):
            problems.append(f"step {rec.n}: nonfinite record values")
            continue
        if rec.gamma <= 0:
            problems.append(f"step {rec.n}: gamma = {rec.gamma} not positive")
        if rec.xi <= 0:
            problems.append(f"step {rec.n}: xi = {rec.xi} not positive")
        if prev_gamma is not None:
            if rec.gamma > prev_gamma + 1e-13 * g_scale:
                problems.append(
                    f"step {rec.n}: gamma increased from {prev_gamma!r} to {rec.gamma!r}"
                )
            drop = prev_gamma - rec.gamma
            if abs(drop - rec.dissipation) > 1e-12 * prev_gamma:
                problems.append(
                    f"step {rec.n}: gamma drop {drop!r} != dissipation {rec.dissipation!r}"
                )
        if abs(rec.mass - m_anchor) > 1e-10 * m_scale:
            problems.append(f"step {rec.n}: mass drifted from {m_anchor!r} to {rec.mass!r}")
        if ratio_cap is not None and prev_tau is not None:
            if rec.tau > ratio_cap * prev_tau * (1.0 + 1e-12):
                problems.append(
                    f"step {rec.n}: ratio {rec.tau / prev_tau:.4f} exceeds cap {ratio_cap:.4f}"
                )
        prev_gamma = rec.gamma
        prev_tau = rec.tau
    return problems
