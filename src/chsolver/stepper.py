"""Energy-stable IMEX BDF2 stepper with a relaxed auxiliary energy scalar.

The phase field obeys d(phi)/dt = lap(mu), mu = -lap(phi) + f(phi) with
f(u) = (u^3 - u)/eps^2 on a periodic box.  Each step advances an auxiliary
field phi_bar implicitly in its linear part and explicitly (extrapolated)
in f, then contracts a scalar gamma that shadows E + C, C = SAV_C = 1, where

    E[u] = 1/2 ||grad u||^2 + 1/(4 eps^2) ||u^2 - 1||^2.

Substeps, in order:

  1. solve (b0 + |k|^4) pb_hat = b0 ph1 - b1 (ph1 - ph2) - |k|^2 f_hat
     per Fourier mode, where f_hat transforms f((1+r) phi1 - r phi2)
     (the D2 history is the auxiliary field, the extrapolated history the
     relaxed one);
  2. gamma_n = gamma_{n-1} / (1 + tau * ||grad mu||^2 / (E(phi_bar) + C))
     with mu_hat = |k|^2 pb_hat + f_hat, which makes
     gamma_{n-1} - gamma_n = tau * xi * ||grad mu||^2 exact;
  3. xi = gamma_n / (E(phi_bar) + C), eta = xi (2 - xi),
     phi_n = eta * phi_bar.

gamma is positive and non-increasing for every step size, and the mode-0
equation reduces to pb_hat_0 = ph1_hat_0, so (phi_bar, 1) is conserved;
the solve sets that mode to ph1_hat_0 exactly.

A step works on plain arrays and makes two real transforms: one rfftn of
f, one irfftn of pb_hat, whose grid values give the double-well energy and
phi_n.  Everything else is pointwise and runs slab by slab along axis 0,
each slab at most spectral.SLAB_ELEMENTS elements (2^15; a 2d N=128 grid
is one slab), through spectral.slab_map and slab_sum, which add the slabs'
scalars in slab order.  On arrays of more than spectral.PARALLEL_ELEMENTS
(2^18) elements the slabs of one pass run on every core, and so do the
transforms; smaller steps stay on the calling thread.  The passes are:

  - the extrapolation and the cubic, written into the rfftn input f;
  - the solve, written into the new history array pb_hat, on |k|^2 built
    for the slab's rows (Grid.k_squared_rows), with the slab's shares of
    ||grad mu||^2 and of the gradient energy ||grad phi_bar||^2 taken as
    soon as it is solved, so f_hat is freed before the irfftn;
  - the well energy, by quadrature of the irfftn's output.

advance hands the given state's history over to the state it returns and
recycles the oldest level's buffers for the new level: f is written into
phi2's buffer, which the given state lets go of once f is transformed,
and pb_hat into phi_bar_hat2's, each slab read before it is overwritten.
A history array that is read-only (the level init_state makes of a
caller's field, a snapshot a caller froze) or that both levels share (the
initial level, at step 1) is never written; a new array is taken in its
place.  scenarios.initial_state hands over its initial level writable, so
step 2 recycles it.  So at the irfftn only phi_bar_hat1, pb_hat, phi1 and
the output pb are full-size, besides the transform's own buffer and
slab-sized temporaries (no |k|^2 table is kept), and relax scales pb in
place into phi_n.  One step follows one path: advance contracts the
||grad mu||^2 its solve summed with gamma_update and relaxes with relax,
and sums the energy as energy does.  linear_solve returns that solve's
sums whole and, like energy, writes no array of the state it is given, so
linear_solve, energy, gamma_update and relax compose to advance bit for bit.

A step returns its scalars as a StepRecord.  RecordCheck checks a stream
of them as a fold over its rows in Python floats, carrying only the
previous finite row and the anchors, so `check` holds no record: it feeds
the fold each step's record as the rerun makes it, or records.csv block
by block as recordio.read_record_blocks parses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from math import isfinite, isnan
from operator import attrgetter

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    cubic,
    dealiased_cubic,
    forward,
    integral,
    inverse,
    parseval_sum,
    parseval_terms,
    slab_map,
    slab_sum,
)
from .timestep import bdf_weights, landing_tol


# the constant C of the scalar gamma, which shadows E + C
SAV_C = 1.0


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


# the float fields of a StepRecord, the columns after n
RECORD_COLUMNS = tuple(f.name for f in fields(StepRecord))[1:]
record_values = attrgetter(*RECORD_COLUMNS)


@dataclass(eq=False)
class GsavState:
    """Two-level history of the stepper, as plain arrays (compared by identity).

    phi_bar_hat1/2 are the half spectra of the auxiliary (pre-relaxation)
    fields, all the backward-difference stencil reads; phi1/2 are the grid
    values of the relaxed fields, which the extrapolation reads.  prev_tau
    and prev_gamma are the last step size and the gamma before it (0 and
    gamma0 before the first step, which runs backward Euler), so a run
    continued from a state takes the steps of one run through its time.

    advance returns a new state that takes over the given state's history
    arrays and may overwrite the writable ones, so copy them, or mark them
    read-only, to keep them past the next step.  That holds for the
    initial level too when it is writable, as scenarios.initial_state
    makes it: step 2 recycles it.  The given state keeps its scalars
    (time, gamma, ...) but is left holding None in place of its arrays,
    also when the step raised, so it cannot be stepped again.
    """

    grid: Grid
    phi_bar_hat1: np.ndarray
    phi_bar_hat2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    gamma: float
    prev_gamma: float
    eps: float
    step_index: int = 0
    time: float = 0.0
    prev_tau: float = 0.0
    dealias: bool = False


def _well_energy(grid: Grid, u: np.ndarray, eps: float) -> float:
    """1/(4 eps^2) ||u^2 - 1||^2 by quadrature of the grid values u."""

    def well_terms(s):
        u_s = u[s]
        w = u_s * u_s
        w -= 1.0
        w *= w
        return float(w.sum())

    return slab_sum(well_terms, u.shape) * grid.cell_volume / (4.0 * eps**2)


def energy(grid: Grid, u: np.ndarray, u_hat: np.ndarray, eps: float) -> float:
    """Ginzburg-Landau energy of the field with grid values u and half spectrum
    u_hat: gradient part from u_hat, double-well part by quadrature of u."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return 0.5 * parseval_sum(grid, u_hat, grid.k_squared_rows) + _well_energy(grid, u, eps)


def init_state(phi0: SpectralField, eps: float, dealias: bool = False) -> GsavState:
    """State before the first step: both histories hold phi0, gamma = prev_gamma = E + SAV_C."""
    u, u_hat = phi0.physical, phi0.coefficients
    gamma0 = energy(phi0.grid, u, u_hat, eps) + SAV_C
    return GsavState(phi0.grid, u_hat, u_hat, u, u, gamma0, gamma0, eps, dealias=dealias)


def _step_ratio(state: GsavState, tau_n: float) -> float:
    if not 0 < tau_n < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau_n}")
    return 0.0 if state.step_index == 0 else tau_n / state.prev_tau


def _extrapolated_nonlinearity(
    state: GsavState, tau_n: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Half-spectrum coefficients of f(B phi^{n-1}), where
    B u = (1+r) u^{n-1} - r u^{n-2} = u^{n-1} + r (u^{n-1} - u^{n-2})
    and B u^0 = u^0.  B phi and f(B phi) are formed slab by slab into the
    transform's input, out if given (which may be phi2 itself: each slab of
    it is read before it is written), else a new array; the dealiased cubic
    needs all of B phi at once, so there the input holds B phi (u^0 itself
    on the first step)."""
    r = _step_ratio(state, tau_n)
    grid, eps, u1, u2 = state.grid, state.eps, state.phi1, state.phi2

    def extrapolated(s, into=None):
        if state.step_index == 0:
            return u1[s]
        u1_s = u1[s]
        u = np.subtract(u1_s, u2[s], out=into)
        u *= r
        u += u1_s
        return u

    if state.dealias:
        u = u1
        if state.step_index:
            u = np.empty(grid.shape) if out is None else out
            slab_map(lambda s: extrapolated(s, into=u[s]), u.shape)
        return dealiased_cubic(grid, u, eps)
    f = np.empty(grid.shape) if out is None else out
    slab_map(lambda s: cubic(extrapolated(s), eps, out=f[s]), f.shape)
    return forward(f)


def _solve(
    state: GsavState, tau_n: float, f_hat: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """(pb_hat, ||grad mu||^2, ||grad phi_bar||^2): the half spectrum of the
    auxiliary field, the dissipation rate of substep 2 and the gradient
    part of the auxiliary field's energy, both summed slab by slab as each
    slab of pb_hat is solved, on the |k|^2 rows built for that slab, and
    added in slab order (the float parseval_sum gives).  pb_hat is out if
    given (which may be phi_bar_hat2 itself: each slab of it is read before
    it is written), else a new array."""
    r = _step_ratio(state, tau_n)
    b0, b1 = bdf_weights(tau_n, r)
    grid = state.grid
    c1, c2 = state.phi_bar_hat1, state.phi_bar_hat2
    zero = (0,) * grid.dim
    pb_hat = np.empty_like(c1) if out is None else out

    def solve_slab(s):
        c1_s, k2_s, f_s = c1[s], grid.k_squared_rows(s), f_hat[s]
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
        mu_hat = k2_s * out  # mu_hat = |k|^2 pb_hat + f_hat
        mu_hat += f_s
        return parseval_terms(mu_hat, k2_s), parseval_terms(out, k2_s)

    gm = grad = 0.0
    for gm_s, grad_s in slab_map(solve_slab, pb_hat.shape):  # in slab order, as slab_sum adds
        gm += gm_s
        grad += grad_s
    return pb_hat, grid.volume * gm, grid.volume * grad


def linear_solve(state: GsavState, tau_n: float) -> tuple[np.ndarray, float, float]:
    """(pb_hat, ||grad mu||^2, ||grad phi_bar||^2) of the implicit solve
    (substep 1), as _solve sums them."""
    return _solve(state, tau_n, _extrapolated_nonlinearity(state, tau_n))


def gamma_update(gamma_prev: float, tau_n: float, grad_mu_sq: float, e_bar: float) -> float:
    """gamma_n from the closed-form contraction (substep 2), for the
    ||grad mu||^2 and the energy e_bar of the auxiliary field."""
    return gamma_prev / (1.0 + tau_n * grad_mu_sq / (e_bar + SAV_C))


def relax(pb: np.ndarray, gamma_n: float, e_bar: float) -> tuple[float, float, np.ndarray]:
    """(xi, eta, pb) for the auxiliary grid values pb, which are scaled by
    eta in place (substep 3)."""
    xi = gamma_n / (e_bar + SAV_C)
    eta = xi * (2.0 - xi)
    pb *= eta
    return xi, eta, pb


def _spare(old: np.ndarray, other: np.ndarray) -> np.ndarray | None:
    """old, whose buffer the new level may take, or None when it must not be
    written: it is read-only, or it shares memory with the other level."""
    if old.flags.writeable and not np.may_share_memory(old, other):
        return old
    return None


def advance(state: GsavState, tau_n: float) -> tuple[GsavState, StepRecord]:
    """Execute one full step; returns the new state and its record.  The new
    state takes over the given state's history, whose oldest level's
    writable buffers the new level takes, and the given state is left
    holding no history arrays (see GsavState)."""
    grid = state.grid
    n = state.step_index + 1
    phi1, c1 = state.phi1, state.phi_bar_hat1
    f_hat = _extrapolated_nonlinearity(state, tau_n, _spare(state.phi2, phi1))
    # the oldest grid level is dead once f is transformed; freed before the irfftn
    state.phi1 = state.phi2 = None
    pb_hat, gm, grad = _solve(state, tau_n, f_hat, _spare(state.phi_bar_hat2, c1))
    state.phi_bar_hat1 = state.phi_bar_hat2 = None
    del f_hat  # freed before the inverse transform allocates its output
    pb = inverse(pb_hat, grid.shape)
    e_bar = 0.5 * grad + _well_energy(grid, pb, state.eps)  # energy(grid, pb, pb_hat, eps), bit for bit
    # a NaN or inf anywhere in the history reaches both through irfftn and Parseval
    if not (np.isfinite(e_bar) and np.isfinite(gm)):
        raise NonfiniteFieldError(f"nonfinite field after step {n}")
    gamma_n = gamma_update(state.gamma, tau_n, gm, e_bar)
    xi, eta, phi_n = relax(pb, gamma_n, e_bar)
    record = StepRecord(
        n=n,
        t=state.time + tau_n,
        tau=tau_n,
        gamma=gamma_n,
        energy=e_bar,
        xi=xi,
        eta=eta,
        mass=integral(grid, pb_hat),
        dissipation=tau_n * xi * gm,
    )
    new_state = replace(
        state,
        phi_bar_hat1=pb_hat,
        phi_bar_hat2=c1,
        phi1=phi_n,
        phi2=phi1,
        gamma=gamma_n,
        prev_gamma=state.gamma,
        step_index=n,
        time=state.time + tau_n,
        prev_tau=tau_n,
    )
    return new_state, record


class RecordCheck:
    """The scheme's guarantees on a record stream, as a fold over its rows.

    feed takes the rows in order, in blocks of any length; the violations
    (problems, in row order) do not depend on where the blocks split.  The
    fold carries only the previous finite row's n, t, tau and gamma,
    whether that row's clock was reported, and the anchors: gamma0 and
    mass0, or where not given the first finite row's gamma and mass.
    Each rule and its message is the README's (records.csv): the clock,
    held to tol, tau, gamma, xi and eta positive, gamma non-increasing, the
    identity gamma_{n-1} - gamma_n = dissipation, constant mass, and the
    step ratio cap; a nonfinite row is reported alone and skipped.
    """

    def __init__(self, tol, gamma0=None, mass0=None, volume=None, ratio_cap=None):
        self.tol, self.gamma0, self.mass0, self.volume = tol, gamma0, mass0, volume
        self.ratio_cap = math.inf if ratio_cap is None else ratio_cap
        self.problems: list[str] = []
        self.rows = 0
        self.anchors = None  # gamma scale, mass anchor and mass scale, set at the first finite row
        # the previous finite row's n, t, tau, gamma and whether its clock held
        self.prev = (0, 0.0, math.nan, math.nan if gamma0 is None else gamma0, True)

    def feed(self, steps, rows) -> None:
        """Check the next rows: the sequence steps of their n, and rows of
        their values in RECORD_COLUMNS order."""
        report, tol, cap = self.problems.append, self.tol, self.ratio_cap
        prev_n, prev_t, prev_tau, prev_gamma, held = self.prev
        if anchors := self.anchors:
            g_scale, m_anchor, m_scale = anchors
        for n, row in zip(steps, rows):
            # a sum of finite values is finite unless it overflows
            if not isfinite(sum(row)) and not all(map(isfinite, row)):
                report(f"step {n}: nonfinite record values")
                continue
            t, tau, gamma, _, xi, eta, mass, dissipation = row
            if anchors is None:
                m_anchor = mass if self.mass0 is None else self.mass0
                m_scale = max(abs(m_anchor), 1.0) if self.volume is None else self.volume
                g_scale = gamma if self.gamma0 is None else self.gamma0
                anchors = (g_scale, m_anchor, m_scale)
            follows = n == prev_n + 1
            if t <= prev_t:
                since = "not positive" if isnan(prev_tau) else f"does not exceed the previous t = {prev_t!r}"
                report(f"step {n}: t = {t!r} {since}")
                held = False
            elif held and follows and tau > 0 and abs(t - prev_t - tau) > tol:
                report(f"step {n}: t advanced by {t - prev_t!r} != tau = {tau!r}")
                held = False
            else:
                held = True
            if tau <= 0:
                report(f"step {n}: tau = {tau} not positive")
            if gamma <= 0:
                report(f"step {n}: gamma = {gamma} not positive")
            if xi <= 0:
                report(f"step {n}: xi = {xi} not positive")
            if eta <= 0:
                report(f"step {n}: eta = {eta} not positive")
            if gamma > prev_gamma + 1e-13 * g_scale:
                report(f"step {n}: gamma increased from {prev_gamma!r} to {gamma!r}")
            if abs(prev_gamma - gamma - dissipation) > 1e-12 * prev_gamma:
                report(f"step {n}: gamma drop {prev_gamma - gamma!r} != dissipation {dissipation!r}")
            if abs(mass - m_anchor) > 1e-10 * m_scale:
                report(f"step {n}: mass drifted from {m_anchor!r} to {mass!r}")
            # a row after a gap has no step before it in the stream
            if follows and prev_tau > 0 and tau > cap * prev_tau * (1.0 + 1e-12):
                report(f"step {n}: ratio {tau / prev_tau:.4f} exceeds cap {cap:.4f}")
            prev_n, prev_t, prev_tau, prev_gamma = n, t, tau, gamma
        self.rows += len(steps)
        self.prev = prev_n, prev_t, prev_tau, prev_gamma, held
        self.anchors = anchors

    def result(self) -> list[str]:
        """The violations found so far, or ["no records"] before any row."""
        return self.problems if self.rows else ["no records"]


def validate_records(records, gamma0=None, mass0=None, volume=None, ratio_cap=None) -> list[str]:
    """The violations of a sequence of StepRecords: RecordCheck fed every
    row, with the clock held to landing_tol of the largest finite t.  Empty
    when clean."""
    rows = list(map(record_values, records))
    tol = landing_tol(max([0.0, *(row[0] for row in rows if all(map(isfinite, row)))]))
    check = RecordCheck(tol, gamma0, mass0, volume, ratio_cap)
    check.feed([rec.n for rec in records], rows)
    return check.result()
