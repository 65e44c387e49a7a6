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
equation reduces to pb_hat_0 = ph1_hat_0, so (phi_bar, 1) is conserved.

A step works on plain half-spectrum and grid arrays and makes two real
transforms: one rfftn of f, one irfftn of pb_hat (for the double-well
energy).  The relaxed field phi_n is kept in physical space, where the next
extrapolation needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import Grid, SpectralField, cubic_coefficients, parseval_sum
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


@dataclass(frozen=True)
class GsavState:
    """Two-level history of the stepper.

    phi_bar_* are the auxiliary (pre-relaxation) fields entering the
    backward-difference stencil, which reads only their coefficients;
    phi_* are the relaxed fields entering the extrapolated nonlinearity,
    which reads them in physical space.  prev_tau is the last executed step
    size (0 before the first step, which runs backward Euler).
    """

    phi_bar_prev1: SpectralField
    phi_bar_prev2: SpectralField
    phi_prev1: SpectralField
    phi_prev2: SpectralField
    gamma: float
    eps: float
    step_index: int = 0
    time: float = 0.0
    prev_tau: float = 0.0
    dealias: bool = False

    @property
    def grid(self) -> Grid:
        return self.phi_bar_prev1.grid


def energy(field: SpectralField, eps: float) -> float:
    """Ginzburg-Landau energy: gradient part summed in coefficient space,
    double-well part by physical-space quadrature."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    u = field.physical
    w = u * u
    w -= 1.0
    w *= w
    well = float(w.sum()) * field.grid.cell_volume / (4.0 * eps**2)
    return 0.5 * field.grad_norm_sq() + well


def init_state(phi0: SpectralField, eps: float, dealias: bool = False) -> GsavState:
    """State before the first step: both histories hold phi0, gamma = E + 1."""
    gamma0 = energy(phi0, eps) + 1.0
    phi0 = phi0.to_coefficients().to_physical()
    return GsavState(
        phi_bar_prev1=phi0,
        phi_bar_prev2=phi0,
        phi_prev1=phi0,
        phi_prev2=phi0,
        gamma=gamma0,
        eps=eps,
        dealias=dealias,
    )


def _step_ratio(state: GsavState, tau_n: float) -> float:
    if not 0 < tau_n < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau_n}")
    return 0.0 if state.step_index == 0 else tau_n / state.prev_tau


def _extrapolated_nonlinearity(state: GsavState, tau_n: float) -> np.ndarray:
    """Half-spectrum coefficients of f(B phi^{n-1}), where
    B u = (1+r) u^{n-1} - r u^{n-2} = u^{n-1} + r (u^{n-1} - u^{n-2})
    and B u^0 = u^0."""
    r = _step_ratio(state, tau_n)
    u = state.phi_prev1.physical
    if state.step_index > 0:
        u = u - state.phi_prev2.physical
        u *= r
        u += state.phi_prev1.physical
    return cubic_coefficients(state.grid, u, state.eps, dealias=state.dealias)


def _solve(state: GsavState, tau_n: float, f_hat: np.ndarray) -> SpectralField:
    r = _step_ratio(state, tau_n)
    b0, b1 = bdf_weights(tau_n, r)
    k2 = state.grid.k_squared
    c1 = state.phi_bar_prev1.coefficients
    # (b0 c1 - b1 (c1 - c2) - |k|^2 f_hat) / (b0 + |k|^4)
    coef = c1 - state.phi_bar_prev2.coefficients
    coef *= -b1
    coef += b0 * c1
    coef -= k2 * f_hat
    inv = b0 + k2 * k2
    coef *= np.reciprocal(inv, out=inv)
    if not np.isfinite(coef).all():
        raise NonfiniteFieldError(f"nonfinite coefficients after step {state.step_index + 1}")
    return SpectralField(state.grid, coefficients=coef)


def linear_solve(state: GsavState, tau_n: float) -> SpectralField:
    """Auxiliary field after the implicit solve (substep 1)."""
    return _solve(state, tau_n, _extrapolated_nonlinearity(state, tau_n))


def gamma_update(
    gamma_prev: float, tau_n: float, phi_bar_n: SpectralField, f_hat: np.ndarray, e_bar: float
) -> tuple[float, float]:
    """(gamma_n, ||grad mu||^2) from the closed-form contraction (substep 2).

    f_hat holds the half-spectrum coefficients of the extrapolated
    nonlinearity the solve used, e_bar the energy of phi_bar_n;
    ||grad mu||^2 for mu = -lap(phi_bar_n) + f is summed in coefficient space.
    """
    g = phi_bar_n.grid
    mu_hat = g.k_squared * phi_bar_n.coefficients
    mu_hat += f_hat
    gm = parseval_sum(g, mu_hat, g.k_squared)
    return gamma_prev / (1.0 + tau_n * gm / (e_bar + 1.0)), gm


def relax(phi_bar_n: SpectralField, gamma_n: float, e_bar: float) -> tuple[float, float, SpectralField]:
    """(xi, eta, phi_n): rescale the auxiliary field by eta = xi (2 - xi) (substep 3).

    phi_n is built in physical space, where the next step extrapolates; its
    coefficients are transformed only when asked for.
    """
    xi = gamma_n / (e_bar + 1.0)
    eta = xi * (2.0 - xi)
    phi_n = SpectralField(phi_bar_n.grid, physical=eta * phi_bar_n.physical)
    return xi, eta, phi_n


def advance(state: GsavState, tau_n: float) -> tuple[GsavState, StepRecord]:
    """Execute one full step; returns the new state and its record."""
    f_hat = _extrapolated_nonlinearity(state, tau_n)
    phi_bar = _solve(state, tau_n, f_hat)
    e_bar = energy(phi_bar, state.eps)
    gamma_n, gm = gamma_update(state.gamma, tau_n, phi_bar, f_hat, e_bar)
    xi, eta, phi_n = relax(phi_bar, gamma_n, e_bar)
    record = StepRecord(
        n=state.step_index + 1,
        t=state.time + tau_n,
        tau=tau_n,
        gamma=gamma_n,
        energy=e_bar,
        xi=xi,
        eta=eta,
        mass=phi_bar.integral(),
        dissipation=tau_n * xi * gm,
    )
    new_state = replace(
        state,
        # drop the physical array energy() cached: the stencil never reads it
        phi_bar_prev1=SpectralField(phi_bar.grid, coefficients=phi_bar.coefficients),
        phi_bar_prev2=state.phi_bar_prev1,
        phi_prev1=phi_n,
        phi_prev2=state.phi_prev1,
        gamma=gamma_n,
        step_index=state.step_index + 1,
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
