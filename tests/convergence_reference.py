"""Hand-driven refinement study, used by the scenario tests as a reference.

Builds the bubble initial field, the initial state and every run by hand
(ic_bubble + init_state + run_with_policy), without going through
run_scenario.  chsolver.run_convergence must reproduce its rows exactly.
"""

import numpy as np

from chsolver.policies import FixedStep, PrescribedMesh
from chsolver.scenarios import ConvergenceRow, ic_bubble, order_of
from chsolver.spectral import Grid, SpectralField, forward, h1_norm
from chsolver.stepper import energy, init_state
from chsolver.timestep import random_mesh
from test_policies import drive


def reference_convergence(
    base_steps, levels, horizon, eps, seed, modes, dim=2, length=2.0 * np.pi, ref_steps=12800, dealias=False
):
    grid = Grid(dim, length, modes)
    phi0 = ic_bubble(grid, eps)

    ref_state = init_state(phi0, eps, dealias=dealias)
    ref_state, _ = drive(ref_state, FixedStep(horizon / ref_steps), horizon)
    phi_ref = SpectralField(grid, physical=ref_state.phi1)
    gamma_ref = energy(grid, phi_ref.physical, phi_ref.coefficients, eps) + 1.0

    rows = []
    for i in range(levels):
        k = base_steps * 2**i
        mesh = random_mesh(horizon, k, seed + i)
        state = init_state(phi0, eps, dealias=dealias)
        state, records = drive(state, PrescribedMesh(mesh), horizon)
        h1_err = h1_norm(grid, forward(state.phi1) - phi_ref.coefficients)
        g_err = abs(state.gamma - gamma_ref)
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
                xi_dev=max(abs(1.0 - r.xi) for r in records),
            )
        )
    return rows
