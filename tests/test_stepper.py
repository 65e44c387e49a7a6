"""Tests for the relaxed auxiliary-scalar stepper.

Covers closed-form energies, the exact dissipation identity, mass
conservation through the mode-0 equation, the relaxation algebra, and a
full one-step comparison against the dense reference in
dense_reference.py.
"""

import numpy as np
import pytest

from chsolver import (
    Grid,
    NonfiniteFieldError,
    SpectralField,
    advance,
    energy,
    gamma_update,
    init_state,
    linear_solve,
    random_mesh,
    relax,
    validate_records,
)
from chsolver.stepper import _extrapolated_nonlinearity
from dense_reference import dense_advance, random_state


def rough_field(grid, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return SpectralField(grid, physical=rng.uniform(lo, hi, grid.shape))


class TestEnergy:
    def test_pure_phase_is_ground_state(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        assert energy(SpectralField.constant(grid, 1.0), 0.5) == 0.0
        assert energy(SpectralField.constant(grid, -1.0), 0.5) == 0.0

    def test_zero_field_well_energy(self):
        # |Omega| / (4 eps^2) with eps = 0.5
        grid = Grid(2, 2.0 * np.pi, 16)
        assert np.isclose(energy(SpectralField.constant(grid, 0.0), 0.5), 4.0 * np.pi**2)

    def test_cosine_closed_form(self):
        # E[cos x] = pi^2 + 3 pi^2 / 8 at eps = 1 on (0, 2pi)^2
        grid = Grid(2, 2.0 * np.pi, 64)
        x, _ = grid.coordinates()
        val = energy(SpectralField(grid, physical=np.cos(x)), 1.0)
        assert np.isclose(val, np.pi**2 + 3.0 * np.pi**2 / 8.0, rtol=1e-12)
        assert np.isclose(val, 13.570706051497867, rtol=1e-14)

    def test_eps_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="eps"):
            energy(SpectralField.constant(grid, 0.0), -1.0)


class TestInitialization:
    def test_gamma_targets_energy_plus_one(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(SpectralField.constant(grid, 0.0), 0.5)
        assert np.isclose(state.gamma, 4.0 * np.pi**2 + 1.0)
        assert state.step_index == 0
        assert state.time == 0.0
        assert state.prev_tau == 0.0

    def test_histories_share_initial_field(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 1), 0.7)
        assert state.phi_bar_prev1 is state.phi_bar_prev2
        assert state.phi_prev1 is state.phi_bar_prev1
        assert state.grid == grid


class TestSingleStep:
    def test_equilibrium_is_stationary(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(SpectralField.constant(grid, 1.0), 1.0)
        for tau in (0.01, 0.5):
            state, rec = advance(state, tau)
            assert np.allclose(state.phi_prev1.physical, 1.0, atol=1e-13)
            assert rec.gamma == 1.0
            assert rec.xi == 1.0
            assert rec.eta == 1.0
            assert rec.dissipation == 0.0

    def test_first_step_is_backward_euler(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 2), 0.8)
        tau = 0.05
        f_term = _extrapolated_nonlinearity(state, tau)
        assert np.array_equal(f_term.physical, state.phi_prev1.nonlinearity(0.8).physical)
        f_hat = f_term.coefficients
        c0 = state.phi_bar_prev1.coefficients
        k2 = grid.k_squared
        expected = (c0 / tau - k2 * f_hat) / (1.0 / tau + k2**2)
        assert np.allclose(linear_solve(state, tau).coefficients, expected, atol=1e-13)
        new_state, _ = advance(state, tau)
        assert np.allclose(new_state.phi_bar_prev1.coefficients, expected, atol=1e-13)

    def test_substeps_compose_to_advance(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 3), 0.6)
        state, _ = advance(state, 0.02)
        tau = 0.03
        # advance runs exactly these substeps, so the match is bitwise
        phi_bar = linear_solve(state, tau)
        e_bar = energy(phi_bar, state.eps)
        f_term = _extrapolated_nonlinearity(state, tau)
        gamma_n, grad_mu_sq = gamma_update(state.gamma, tau, phi_bar, f_term, e_bar)
        xi, eta, phi_n = relax(phi_bar, gamma_n, e_bar)
        new_state, rec = advance(state, tau)
        assert np.array_equal(new_state.phi_bar_prev1.coefficients, phi_bar.coefficients)
        assert rec.energy == e_bar
        assert rec.gamma == gamma_n
        assert rec.xi == xi
        assert rec.eta == eta
        assert rec.dissipation == tau * xi * grad_mu_sq
        assert new_state.gamma == gamma_n
        assert np.array_equal(new_state.phi_prev1.physical, phi_n.physical)
        assert np.array_equal(new_state.phi_prev1.coefficients, phi_n.coefficients)

    def test_relaxation_algebra(self):
        # eta = xi (2 - xi), i.e. 1 - eta = (1 - xi)^2
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 4), 0.5)
        state, rec = advance(state, 0.1)
        assert np.isclose(rec.eta, rec.xi * (2.0 - rec.xi), rtol=1e-14)
        assert np.isclose(1.0 - rec.eta, (1.0 - rec.xi) ** 2, atol=1e-13)
        assert np.isclose(rec.xi, rec.gamma / (rec.energy + 1.0), rtol=1e-14)

    def test_tau_validation(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 5), 0.5)
        with pytest.raises(ValueError, match="tau must be positive"):
            advance(state, 0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_nonfinite_tau_rejected_before_the_solve(self, tau):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 5), 0.5)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            advance(state, tau)

    def test_nonfinite_history_detected(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        bad = np.ones(grid.shape)
        bad[0, 0] = np.inf
        state = init_state(SpectralField.constant(grid, 0.2), 0.5)
        from dataclasses import replace

        state = replace(state, phi_bar_prev1=SpectralField(grid, physical=bad))
        with np.errstate(invalid="ignore"), pytest.raises(NonfiniteFieldError, match="nonfinite"):
            advance(state, 0.01)


class TestInvariants:
    def run(self, seed, steps=40, eps=0.9):
        grid = Grid(2, 2.0 * np.pi, 24)
        state = init_state(rough_field(grid, seed), eps)
        mesh = random_mesh(0.5, steps, seed=seed)
        records = []
        for n in range(1, steps + 1):
            state, rec = advance(state, mesh.tau(n))
            records.append(rec)
        return state, records

    def test_gamma_monotone_and_identity(self):
        state, records = self.run(seed=6)
        gamma_prev = records[0].gamma
        grid_gamma0 = records[0].gamma
        for rec in records[1:]:
            assert rec.gamma <= gamma_prev
            drop = gamma_prev - rec.gamma
            assert abs(drop - rec.dissipation) <= 1e-13 * gamma_prev
            gamma_prev = rec.gamma
        assert records[-1].gamma > 0.0
        assert records[-1].gamma <= grid_gamma0

    def test_xi_bounded_by_initial_gamma(self):
        # xi = gamma / (E + 1) <= gamma <= gamma^0
        grid = Grid(2, 2.0 * np.pi, 24)
        state = init_state(rough_field(grid, 7), 0.8)
        gamma0 = state.gamma
        for n in range(30):
            state, rec = advance(state, 0.02)
            assert 0.0 < rec.xi <= gamma0

    def test_mass_exactly_conserved(self):
        state, records = self.run(seed=8)
        masses = np.array([rec.mass for rec in records])
        assert np.abs(masses - masses[0]).max() < 1e-12 * state.grid.volume

    def test_mean_of_solution_tracks_eta(self):
        # mode 0 of the auxiliary field never moves; the relaxed field's
        # mean is eta times the initial mean
        grid = Grid(2, 2.0 * np.pi, 16)
        phi0 = rough_field(grid, 9, lo=0.0, hi=1.0)
        mean0 = phi0.mean()
        state = init_state(phi0, 0.7)
        state, rec = advance(state, 0.05)
        assert np.isclose(state.phi_bar_prev1.mean(), mean0, atol=1e-14)
        assert np.isclose(state.phi_prev1.mean(), rec.eta * mean0, rtol=1e-12)

    def test_large_steps_stay_stable(self):
        # unconditional: gamma decays even for tau far beyond accuracy range
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 10), 0.5)
        gamma_prev = state.gamma
        for tau in (0.5, 0.5, 0.5, 0.5):
            state, rec = advance(state, tau)
            assert rec.gamma <= gamma_prev
            assert np.all(np.isfinite(state.phi_prev1.physical))
            gamma_prev = rec.gamma


class TestDenseOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_one_step_matches_dense_reference(self, seed):
        grid = Grid(2, 2.0 * np.pi, 8)
        state = random_state(grid, eps=0.6 + 0.1 * seed, seed=seed)
        tau = 0.012 + 0.003 * seed
        ref = dense_advance(state, tau)
        phi_bar = linear_solve(state, tau)
        assert np.abs(phi_bar.coefficients.ravel() - ref["phi_bar_hat"]).max() < 1e-12
        e_bar = energy(phi_bar, state.eps)
        assert np.isclose(e_bar, ref["energy"], rtol=1e-12)
        f_term = _extrapolated_nonlinearity(state, tau)
        gamma_n, grad_mu_sq = gamma_update(state.gamma, tau, phi_bar, f_term, e_bar)
        assert np.isclose(gamma_n, ref["gamma"], rtol=1e-12)
        assert np.isclose(grad_mu_sq, ref["grad_mu_sq"], rtol=1e-12)
        xi, eta, phi_n = relax(phi_bar, gamma_n, e_bar)
        assert np.isclose(xi, ref["xi"], rtol=1e-12)
        assert np.isclose(eta, ref["eta"], rtol=1e-12)
        assert np.abs(phi_n.coefficients.ravel() - ref["phi_hat"]).max() < 1e-12
        new_state, rec = advance(state, tau)
        assert np.isclose(rec.gamma, ref["gamma"], rtol=1e-12)
        assert np.isclose(rec.xi, ref["xi"], rtol=1e-12)
        assert np.isclose(rec.eta, ref["eta"], rtol=1e-12)
        assert np.abs(new_state.phi_prev1.coefficients.ravel() - ref["phi_hat"]).max() < 1e-12


class TestRecordValidation:
    def make_records(self, steps=20):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 11), 0.8)
        gamma0, mass0 = state.gamma, state.phi_prev1.integral()
        records = []
        mesh = random_mesh(0.2, steps, seed=11)
        for n in range(1, steps + 1):
            state, rec = advance(state, mesh.tau(n))
            records.append(rec)
        return records, gamma0, mass0, grid.volume

    def test_clean_run_passes(self):
        records, gamma0, mass0, volume = self.make_records()
        assert validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume) == []

    def test_gamma_increase_detected(self):
        from dataclasses import replace

        records, gamma0, mass0, volume = self.make_records()
        records[5] = replace(records[5], gamma=records[4].gamma * 1.01)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("gamma increased" in p for p in problems)

    def test_identity_mismatch_detected(self):
        from dataclasses import replace

        records, gamma0, mass0, volume = self.make_records()
        records[3] = replace(records[3], dissipation=records[3].dissipation * 2.0 + 1.0)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("dissipation" in p for p in problems)

    def test_mass_drift_detected(self):
        from dataclasses import replace

        records, gamma0, mass0, volume = self.make_records()
        records[7] = replace(records[7], mass=records[7].mass + 1.0)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("mass drifted" in p for p in problems)

    def test_nonfinite_detected(self):
        from dataclasses import replace

        records, gamma0, mass0, volume = self.make_records()
        records[2] = replace(records[2], energy=np.nan)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("nonfinite" in p for p in problems)

    def test_ratio_cap_enforced(self):
        from dataclasses import replace

        records, gamma0, mass0, volume = self.make_records()
        records[9] = replace(records[9], tau=records[8].tau * 6.0)
        problems = validate_records(records, ratio_cap=4.85)
        assert any("exceeds cap" in p for p in problems)

    def test_empty_stream_flagged(self):
        assert validate_records([]) == ["no records"]
