"""Benchmark initial data, scenario runs, and the convergence harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .policies import FixedStep, PrescribedMesh, StepPolicy, run_with_policy
from .spectral import Grid, SpectralField
from .stepper import StepRecord, energy, init_state
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
    rng = np.random.default_rng(seed)
    return SpectralField(grid, physical=0.35 + 0.3 * rng.uniform(-1.0, 1.0, grid.shape))


def ic_equilibrium(grid: Grid) -> SpectralField:
    """Pure phase, a stationary point of the flow."""
    return SpectralField.constant(grid, 1.0)


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


def run_scenario(scenario: Scenario):
    """Run to the horizon; returns (records, snapshots) where snapshots is a
    list of (time, field) pairs at the requested times (time 0 included when
    requested)."""
    grid = Grid(scenario.dim, scenario.length, scenario.modes)
    phi0 = initial_field(scenario, grid)
    state = init_state(phi0, scenario.eps, dealias=scenario.dealias)
    tol = 1e-12 * scenario.horizon
    wanted = sorted(set(scenario.snapshot_times))
    snapshots = [(t, phi0) for t in wanted if abs(t) <= tol]
    pending = [t for t in wanted if t > tol]

    def capture(st, rec):
        for t in pending:
            if abs(rec.t - t) <= tol:
                snapshots.append((t, st.phi_prev1))

    state, records = run_with_policy(
        state, scenario.policy, scenario.horizon, checkpoints=pending, on_step=capture
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


def run_convergence(
    base_steps: int,
    levels: int,
    horizon: float,
    eps: float,
    seed: int,
    modes: int,
    dim: int = 2,
    length: float = 2.0 * np.pi,
    ref_steps: int = 12800,
    dealias: bool = False,
) -> list[ConvergenceRow]:
    """Random-mesh refinement study against a fixed-step reference run.

    Levels use K = base_steps * 2^i random admissible steps (seed + i);
    the reference uses ref_steps uniform steps of the same scheme on the
    same grid, so the spatial error cancels in the comparison.  Errors:
    H1 norm of phi - phi_ref at the horizon, and |gamma - (E(phi_ref)+1)|.
    """
    if base_steps < 2 or levels < 1 or ref_steps <= 0:
        raise ValueError("need base_steps >= 2, levels >= 1, ref_steps > 0")
    grid = Grid(dim, length, modes)
    phi0 = ic_bubble(grid, eps)

    ref_state = init_state(phi0, eps, dealias=dealias)
    ref_state, _ = run_with_policy(ref_state, FixedStep(horizon / ref_steps), horizon)
    phi_ref = ref_state.phi_prev1
    gamma_ref = energy(phi_ref, eps) + 1.0

    rows: list[ConvergenceRow] = []
    for i in range(levels):
        k = base_steps * 2**i
        mesh = random_mesh(horizon, k, seed + i)
        state = init_state(phi0, eps, dealias=dealias)
        state, records = run_with_policy(state, PrescribedMesh(mesh), horizon)
        h1_err = (state.phi_prev1 - phi_ref).h1_norm()
        g_err = abs(state.gamma - gamma_ref)
        xi_dev = max(abs(1.0 - r.xi) for r in records)
        tau = float(mesh.steps.max())
        if rows:
            h1_order = order_of(rows[-1].h1_error, h1_err, rows[-1].tau, tau)
            g_order = order_of(rows[-1].gamma_error, g_err, rows[-1].tau, tau)
        else:
            h1_order = g_order = float("nan")
        rows.append(
            ConvergenceRow(
                steps=k,
                tau=tau,
                h1_error=h1_err,
                h1_order=h1_order,
                gamma_error=g_err,
                gamma_order=g_order,
                max_ratio=mesh.max_ratio,
                xi_dev=xi_dev,
            )
        )
    return rows
