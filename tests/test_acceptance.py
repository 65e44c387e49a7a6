"""Acceptance suite: eight end-to-end checks of the solver.

Each test prints one PASS line with the measured quantities (visible
with pytest -s or -rP).  Tolerances are fixed; wall-clock time is
reported but never asserted.
"""

import time

import numpy as np
import pytest

from chsolver import (
    AdaptiveStep,
    FixedStep,
    Grid,
    Scenario,
    SpectralField,
    TimeMesh,
    advance,
    ic_kissing,
    ic_random,
    init_state,
    kernel_residuals,
    quadratic_form_check,
    r_max_root,
    random_mesh,
    run_convergence,
)
from chsolver.spectral import forward
from chsolver.timestep import QUADRATIC_FORM_SLACK
from dense_reference import dense_advance, half_spectrum, random_state
from test_policies import drive


def report(num, msg):
    print(f"criterion {num}: PASS  {msg}")


@pytest.fixture(scope="module")
def convergence_rows():
    """Shared refinement study: 2d bubble, eps=0.2, K=50..400 random steps."""
    start = time.perf_counter()
    scenario = Scenario("convergence", 2, 64, 2.0 * np.pi, 0.2, 0.1, FixedStep(0.1), seed=0)
    rows = run_convergence(scenario, base_steps=50, levels=4, ref_steps=12800)
    return rows, time.perf_counter() - start


class TestAcceptance:
    def test_criterion_1_bubble_convergence_orders(self, convergence_rows):
        rows, elapsed = convergence_rows
        assert [row.steps for row in rows] == [50, 100, 200, 400]
        assert all(row.max_ratio < 4.86 for row in rows)
        assert all(row.h1_error > 0 and row.gamma_error > 0 for row in rows)
        h1_order = rows[-1].h1_order
        gamma_order = rows[-1].gamma_order
        assert 1.7 <= h1_order <= 2.3
        assert 0.8 <= gamma_order <= 1.2
        report(
            1,
            f"H1 order {h1_order:.2f} in [1.7, 2.3], gamma order "
            f"{gamma_order:.2f} in [0.8, 1.2] ({elapsed:.1f}s)",
        )

    def test_criterion_2_dissipation_identity_randomized(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        max_tau_seen = 0.0
        max_ratio_seen = 0.0
        worst_monotone = 0.0
        worst_identity = 0.0
        for trial in range(20):
            modes = 16 if trial % 2 == 0 else 24
            grid = Grid(2, 2.0 * np.pi, modes)
            eps = rng.uniform(0.5, 1.5)
            phi0 = SpectralField(grid, physical=rng.uniform(-1.0, 1.0, grid.shape))
            taus = [rng.uniform(1e-3, 0.05)]
            for _ in range(29):
                taus.append(min(max(taus[-1] * rng.uniform(0.3, 4.85), 1e-4), 0.5))
            mesh = TimeMesh(taus, delta=0.005)
            assert mesh.satisfies_a1()
            max_tau_seen = max(max_tau_seen, max(taus))
            max_ratio_seen = max(max_ratio_seen, mesh.max_ratio)
            state = init_state(phi0, eps)
            gamma0 = state.gamma
            prev_gamma = gamma0
            for n in range(1, len(mesh) + 1):
                state, rec = advance(state, mesh.tau(n))
                assert rec.gamma <= prev_gamma + 1e-13 * gamma0
                residual = abs((prev_gamma - rec.gamma) - rec.dissipation)
                assert residual <= 1e-12 * prev_gamma
                worst_monotone = max(worst_monotone, rec.gamma - prev_gamma)
                worst_identity = max(worst_identity, residual / prev_gamma)
                prev_gamma = rec.gamma
        assert max_tau_seen == 0.5
        report(
            2,
            f"20 runs, tau up to {max_tau_seen}, ratios up to {max_ratio_seen:.2f}; "
            f"worst identity residual {worst_identity:.1e} rel "
            f"({time.perf_counter() - start:.1f}s)",
        )

    def test_criterion_3_mass_conservation_long_run(self):
        start = time.perf_counter()
        grid = Grid(2, 2.0 * np.pi, 48)
        phi0 = ic_random(grid, seed=0)
        mass0 = phi0.integral()
        state = init_state(phi0, eps=0.3)
        policy = AdaptiveStep(tau_min=1e-5, tau_max=1e-4, alpha=0.01)
        state, records = drive(state, policy, horizon=0.08)
        assert len(records) >= 1000
        drift = max(abs(rec.mass - mass0) for rec in records) / grid.volume
        assert drift < 1e-10
        report(
            3,
            f"{len(records)} steps, mass drift {drift:.1e} per unit volume "
            f"({time.perf_counter() - start:.1f}s)",
        )

    def test_criterion_4_kernel_identities_and_quadratic_form(self):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            count = int(rng.integers(2, 201))
            mesh = random_mesh(1.0, count, seed=int(rng.integers(0, 2**31)))
            res = kernel_residuals(mesh, count)
            # every row 1..count, not only the last
            assert res.doc_orthogonality.max() < 1e-11
            assert res.dcc_identity.max() < 1e-11
            assert res.dcc_sum.max() < 1e-11
            assert res.telescoping.max() < 1e-11
            assert res.dcc_bound_margin.max() <= 0.0
            worst = max(
                worst,
                res.doc_orthogonality.max(),
                res.dcc_identity.max(),
                res.dcc_sum.max(),
                res.telescoping.max(),
            )
        assert QUADRATIC_FORM_SLACK == 1e-10
        min_gap = np.inf
        for _ in range(1000):
            n = int(rng.integers(1, 101))
            mesh = random_mesh(float(rng.uniform(0.1, 2.0)), max(n, 2), seed=int(rng.integers(0, 2**31)))
            check = quadratic_form_check(mesh, rng.standard_normal(n))
            assert check.passed
            min_gap = min(min_gap, check.lhs - check.rhs)
        report(
            4,
            f"100 meshes: worst identity residual {worst:.1e}; 1000 form trials, "
            f"smallest lhs-rhs gap {min_gap:.3f} ({time.perf_counter() - start:.1f}s)",
        )

    def test_criterion_5_dense_reference_agreement(self):
        start = time.perf_counter()
        grid = Grid(2, 2.0 * np.pi, 8)
        worst = 0.0
        for seed in range(50):
            eps = 0.5 + 0.02 * seed
            tau = 0.008 + 0.001 * (seed % 7)
            state = random_state(grid, eps=eps, seed=seed)
            ref = dense_advance(state, tau)
            new_state, rec = advance(state, tau)
            bar_err = np.abs(
                new_state.phi_bar_hat1 - half_spectrum(grid, ref["phi_bar_hat"])
            ).max()
            phi_err = np.abs(
                forward(new_state.phi1) - half_spectrum(grid, ref["phi_hat"])
            ).max()
            assert bar_err < 1e-10
            assert phi_err < 1e-10
            assert abs(rec.gamma - ref["gamma"]) < 1e-10 * ref["gamma"]
            assert abs(rec.xi - ref["xi"]) < 1e-10
            assert abs(rec.eta - ref["eta"]) < 1e-10
            worst = max(worst, bar_err, phi_err)
        report(
            5,
            f"50 states, worst coefficient error {worst:.1e} "
            f"({time.perf_counter() - start:.1f}s)",
        )

    def test_criterion_6_ratio_bound_root(self):
        r = r_max_root()
        residual = abs(r**3 - (2.0 * r + 1.0) ** 2)
        assert residual < 1e-9
        assert abs(r - 4.8645) < 5e-4
        report(6, f"r_max = {r:.12f}, cubic residual {residual:.1e}")

    def test_criterion_7_adaptive_vs_fixed_kissing(self):
        start = time.perf_counter()
        grid = Grid(2, 2.0 * np.pi, 64)
        eps = np.sqrt(0.1)
        snaps = (0.1, 0.2, 0.5, 0.8, 1.0)
        phi0 = ic_kissing(grid, eps2=0.1)

        policy = AdaptiveStep(tau_min=1e-4, tau_max=7e-3, alpha=0.01)
        _, rec_a = drive(init_state(phi0, eps), policy, 1.0, checkpoints=snaps)
        _, rec_f = drive(
            init_state(phi0, eps), FixedStep(1e-4), 1.0, checkpoints=snaps
        )
        assert len(rec_f) >= 3 * len(rec_a)

        gamma_a = {rec.t: rec.gamma for rec in rec_a if rec.t in snaps}
        gamma_f = {rec.t: rec.gamma for rec in rec_f if rec.t in snaps}
        assert set(gamma_a) == set(gamma_f) == set(snaps)
        dev = max(abs(gamma_a[t] - gamma_f[t]) / gamma_f[t] for t in snaps)
        assert dev < 1e-2

        taus = [rec.tau for rec in rec_a]
        cap = policy.ratio_cap
        assert all(b <= cap * a * (1.0 + 1e-12) for a, b in zip(taus, taus[1:]))
        report(
            7,
            f"{len(rec_a)} adaptive vs {len(rec_f)} fixed steps "
            f"({len(rec_f) / len(rec_a):.1f}x), gamma deviation {dev:.1e} "
            f"({time.perf_counter() - start:.1f}s)",
        )

    def test_criterion_8_relaxation_factor_order(self, convergence_rows):
        rows, _ = convergence_rows
        devs = [row.xi_dev for row in rows]
        assert all(dev > 0 for dev in devs)
        order = np.log(devs[-2] / devs[-1]) / np.log(2.0)
        assert order >= 0.8
        report(
            8,
            f"max|1-xi| {devs[-2]:.2e} -> {devs[-1]:.2e} under 2x refinement, "
            f"order {order:.2f} >= 0.8",
        )
