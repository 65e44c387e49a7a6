"""Benchmark initial data, scenario runs, and the convergence harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .policies import FixedStep, PrescribedMesh, StepPolicy, run_with_policy
from .spectral import Grid, SpectralField, h1_norm
from .stepper import SAV_C, GsavState, energy, init_state
from .timestep import random_mesh


class DimMismatchError(ValueError):
    """Initial data defined for a different dimension than the grid."""


class DegenerateRatioError(ValueError):
    """Order computation with equal step sizes."""


def ic_bubble(grid: Grid, eps: float) -> SpectralField:
    """Single circular bubble: -tanh((r - 1.5)/(4 eps)), centered in the box."""
    if grid.dim != 2:
        raise DimMismatchError(f"bubble initial data is 2d, grid has dim {grid.dim}")
    x, y = grid.coordinates()
    c = grid.length / 2.0
    r = np.sqrt((x - c) ** 2 + (y - c) ** 2)
    return SpectralField(grid, physical=-np.tanh((r - 1.5) / (4.0 * eps)))


def ic_kissing(grid: Grid, eps2: float) -> SpectralField:
    """Two tangent bubbles of radius 1 centered at (L/2 -+ 1, L/2).

    Each bubble contributes tanh((1 - d_i)/(4 eps2)); the profiles are
    summed and shifted by +1 so the background sits at -1 and the bubble
    interiors at +1.
    """
    if grid.dim != 2:
        raise DimMismatchError(f"kissing-bubble initial data is 2d, grid has dim {grid.dim}")
    if eps2 <= 0:
        raise ValueError(f"eps2 must be positive, got {eps2}")
    x, y = grid.coordinates()
    cx, cy = grid.length / 2.0, grid.length / 2.0
    out = np.ones(grid.shape)
    for off in (-1.0, 1.0):
        d = np.sqrt((x - (cx + off)) ** 2 + (y - cy) ** 2)
        out += np.tanh((1.0 - d) / (4.0 * eps2))
    return SpectralField(grid, physical=out)


def ic_random(grid: Grid, seed: int) -> SpectralField:
    """0.35 + 0.3 * Rand(x) with Rand uniform on (-1, 1)."""
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape)
    u *= 0.3  # in place: the same bits as 0.35 + 0.3 * u, without two temporaries
    u += 0.35
    return SpectralField(grid, physical=u)


def ic_equilibrium(grid: Grid) -> SpectralField:
    """Pure phase, a stationary point of the flow."""
    return SpectralField(grid, physical=np.ones(grid.shape))


@dataclass(frozen=True)
class Scenario:
    """One fully-specified run."""

    name: str
    dim: int
    modes: int
    length: float
    eps: float
    horizon: float
    policy: StepPolicy
    seed: int = 0
    snapshot_times: tuple[float, ...] = ()
    dealias: bool = False


def initial_field(scenario: Scenario, grid: Grid) -> SpectralField:
    name = scenario.name
    if name == "convergence":
        return ic_bubble(grid, scenario.eps)
    if name == "kissing_bubbles":
        return ic_kissing(grid, scenario.eps**2)
    if name in ("coarsening2d", "coarsening3d"):
        return ic_random(grid, scenario.seed)
    if name == "equilibrium":
        return ic_equilibrium(grid)
    raise ValueError(f"unknown scenario {name!r}")


def initial_state(scenario: Scenario) -> GsavState:
    """The state before step 1: the scenario's initial field on its grid.
    The state is the only holder of the field's arrays, so it gets them
    writable, and step 2 recycles their buffers as every later step
    recycles its oldest level's (see GsavState)."""
    grid = Grid(scenario.dim, scenario.length, scenario.modes)
    state = init_state(initial_field(scenario, grid), scenario.eps, dealias=scenario.dealias)
    # both history slots share these two arrays, which the field marked read-only
    state.phi1.setflags(write=True)
    state.phi_bar_hat1.setflags(write=True)
    return state


def run_scenario(scenario: Scenario):
    """Run to the horizon; returns (records, snapshots) where snapshots is a
    list of (time, field) pairs, one for each requested time the run reaches
    as run_with_policy reports them (time 0 included when requested).  It
    keeps the whole run: to stream one, pass an on_step to run_with_policy."""
    records, snapshots = [], []

    def collect(state, rec, reached):
        snapshots.extend((t, SpectralField(state.grid, physical=values)) for t, values in reached)
        records.append(rec)

    # the driver holds the only reference to the initial state, so its
    # arrays are freed once they leave the two-level history
    run_with_policy(
        initial_state(scenario), scenario.policy, scenario.horizon, scenario.snapshot_times, on_step=collect
    )
    return records, snapshots


def order_of(error_coarse: float, error_fine: float, tau_coarse: float, tau_fine: float) -> float:
    """log(e_c/e_f) / log(tau_c/tau_f)."""
    if min(error_coarse, error_fine, tau_coarse, tau_fine) <= 0:
        raise ValueError("errors and steps must be positive")
    if tau_coarse == tau_fine:
        raise DegenerateRatioError("equal step sizes give no refinement ratio")
    return float(np.log(error_coarse / error_fine) / np.log(tau_coarse / tau_fine))


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level: errors at the horizon against the reference.

    tau is the largest step of the level's mesh; orders are computed
    against the previous row and are NaN on the first.  xi_dev is
    max_n |1 - xi_n| over the run.
    """

    steps: int
    tau: float
    h1_error: float
    h1_order: float
    gamma_error: float
    gamma_order: float
    max_ratio: float
    xi_dev: float = field(default=float("nan"))


def run_convergence(scenario: Scenario, base_steps: int, levels: int, ref_steps: int) -> list[ConvergenceRow]:
    """Random-mesh refinement study of a scenario against a fixed-step reference.

    Every run is run_scenario on the scenario with its policy replaced.
    Levels use K = base_steps * 2^i random admissible steps (seed + i);
    the reference uses ref_steps uniform steps of the same scheme on the
    same grid from the same initial field, so the spatial error cancels in
    the comparison.  Errors: H1 norm of phi - phi_ref at the horizon, and
    |gamma - (E(phi_ref) + SAV_C)|.  Orders are NaN on the first row and where
    an error is exactly zero.
    """
    if base_steps < 2 or levels < 1 or ref_steps <= 0:
        raise ValueError("need base_steps >= 2, levels >= 1, ref_steps > 0")
    horizon = scenario.horizon

    def final(policy):
        records, [(_, phi)] = run_scenario(replace(scenario, policy=policy, snapshot_times=(horizon,)))
        return records, phi

    def order(e_coarse, e_fine, tau_coarse, tau_fine):  # an exact level has no order
        return float("nan") if 0.0 in (e_coarse, e_fine) else order_of(e_coarse, e_fine, tau_coarse, tau_fine)

    _, phi_ref = final(FixedStep(horizon / ref_steps))
    grid = phi_ref.grid
    gamma_ref = energy(grid, phi_ref.physical, phi_ref.coefficients, scenario.eps) + SAV_C

    rows: list[ConvergenceRow] = []
    for i in range(levels):
        mesh = random_mesh(horizon, base_steps * 2**i, scenario.seed + i)
        records, phi = final(PrescribedMesh(mesh))
        h1_err = h1_norm(grid, phi.coefficients - phi_ref.coefficients)
        g_err = abs(records[-1].gamma - gamma_ref)
        tau = float(mesh.steps.max())
        h1_order = g_order = float("nan")
        if rows:
            h1_order = order(rows[-1].h1_error, h1_err, rows[-1].tau, tau)
            g_order = order(rows[-1].gamma_error, g_err, rows[-1].tau, tau)
        rows.append(
            ConvergenceRow(
                steps=mesh.count,
                tau=tau,
                h1_error=h1_err,
                h1_order=h1_order,
                gamma_error=g_err,
                gamma_order=g_order,
                max_ratio=mesh.max_ratio,
                xi_dev=max(abs(1.0 - r.xi) for r in records),
            )
        )
    return rows
