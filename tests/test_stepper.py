"""Tests for the relaxed auxiliary-scalar stepper.

Covers closed-form energies, the exact dissipation identity, mass
conservation through the mode-0 equation, the relaxation algebra, and a
full one-step comparison against the dense reference in
dense_reference.py.
"""

import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import chsolver.spectral as spectral
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
from chsolver.spectral import cubic_coefficients, forward, inverse
from chsolver.stepper import _extrapolated_nonlinearity
from dense_reference import dense_advance, half_spectrum, random_state


def rough_field(grid, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return SpectralField(grid, physical=rng.uniform(lo, hi, grid.shape))


def field_energy(field, eps):
    return energy(field.grid, field.physical, field.coefficients, eps)


class TestEnergy:
    def test_pure_phase_is_ground_state(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        assert field_energy(SpectralField.constant(grid, 1.0), 0.5) == 0.0
        assert field_energy(SpectralField.constant(grid, -1.0), 0.5) == 0.0

    def test_zero_field_well_energy(self):
        # |Omega| / (4 eps^2) with eps = 0.5
        grid = Grid(2, 2.0 * np.pi, 16)
        assert np.isclose(field_energy(SpectralField.constant(grid, 0.0), 0.5), 4.0 * np.pi**2)

    def test_cosine_closed_form(self):
        # E[cos x] = pi^2 + 3 pi^2 / 8 at eps = 1 on (0, 2pi)^2
        grid = Grid(2, 2.0 * np.pi, 64)
        x, _ = grid.coordinates()
        val = field_energy(SpectralField(grid, physical=np.cos(x)), 1.0)
        assert np.isclose(val, np.pi**2 + 3.0 * np.pi**2 / 8.0, rtol=1e-12)
        assert np.isclose(val, 13.570706051497867, rtol=1e-14)

    def test_eps_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="eps"):
            field_energy(SpectralField.constant(grid, 0.0), -1.0)


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
        phi0 = rough_field(grid, 1)
        state = init_state(phi0, 0.7)
        assert state.phi_bar_hat1 is state.phi_bar_hat2 is phi0.coefficients
        assert state.phi1 is state.phi2 is phi0.physical
        assert state.grid == grid


class TestSingleStep:
    def test_equilibrium_is_stationary(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(SpectralField.constant(grid, 1.0), 1.0)
        for tau in (0.01, 0.5):
            state, rec = advance(state, tau)
            assert np.allclose(state.phi1, 1.0, atol=1e-13)
            assert rec.gamma == 1.0
            assert rec.xi == 1.0
            assert rec.eta == 1.0
            assert rec.dissipation == 0.0

    def test_first_step_is_backward_euler(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 2), 0.8)
        tau = 0.05
        f_hat = _extrapolated_nonlinearity(state, tau)
        assert np.array_equal(f_hat, cubic_coefficients(grid, state.phi1, 0.8))
        c0 = state.phi_bar_hat1
        k2 = grid.k_squared
        expected = (c0 / tau - k2 * f_hat) / (1.0 / tau + k2**2)
        assert np.allclose(linear_solve(state, tau), expected, atol=1e-13)
        new_state, _ = advance(state, tau)
        assert np.allclose(new_state.phi_bar_hat1, expected, atol=1e-13)

    def test_history_keeps_no_physical_auxiliary_field(self, monkeypatch):
        # the stencil reads phi_bar's half spectrum only: the history holds
        # that and the relaxed grid values, as plain arrays, and a step
        # builds no SpectralField
        def forbidden(*args, **kwargs):
            raise AssertionError("advance built a SpectralField")

        grids = [Grid(2, 2.0 * np.pi, 16), Grid(3, 2.0 * np.pi, 8)]
        states = [init_state(rough_field(grid, 3), 0.6) for grid in grids]
        monkeypatch.setattr(SpectralField, "__init__", forbidden)
        monkeypatch.setattr(SpectralField, "_of_hermitian", forbidden)
        for grid, state in zip(grids, states):
            for _ in range(2):
                state, _ = advance(state, 0.02)
            for name, shape, dtype in (
                ("phi_bar_hat1", grid.spectral_shape, np.complex128),
                ("phi_bar_hat2", grid.spectral_shape, np.complex128),
                ("phi1", grid.shape, np.float64),
                ("phi2", grid.shape, np.float64),
            ):
                value = getattr(state, name)
                assert type(value) is np.ndarray
                assert value.shape == shape and value.dtype == dtype

    def test_substeps_compose_to_advance(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 3), 0.6)
        state, _ = advance(state, 0.02)
        tau = 0.03
        # advance runs exactly these substeps, so the match is bitwise
        pb_hat = linear_solve(state, tau)
        pb = inverse(pb_hat, grid.shape)
        e_bar = energy(grid, pb, pb_hat, state.eps)
        f_term = _extrapolated_nonlinearity(state, tau)
        gamma_n, grad_mu_sq = gamma_update(grid, state.gamma, tau, pb_hat, f_term, e_bar)
        xi, eta, phi_n = relax(pb, gamma_n, e_bar)
        new_state, rec = advance(state, tau)
        assert np.array_equal(new_state.phi_bar_hat1, pb_hat)
        assert rec.energy == e_bar
        assert rec.gamma == gamma_n
        assert rec.xi == xi
        assert rec.eta == eta
        assert rec.dissipation == tau * xi * grad_mu_sq
        assert new_state.gamma == gamma_n
        assert np.array_equal(new_state.phi1, phi_n)
        assert new_state.phi_bar_hat2 is state.phi_bar_hat1
        assert new_state.phi2 is state.phi1

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["phi_bar_hat1", "phi_bar_hat2", "phi1", "phi2"])
    def test_nonfinite_history_detected(self, name, value):
        # one bad entry in any history array reaches the energy and
        # ||grad mu||^2 of the next step
        grid = Grid(2, 2.0 * np.pi, 8)
        state, _ = advance(init_state(rough_field(grid, 13), 0.5), 0.01)
        bad = getattr(state, name).copy()
        bad[1, 2] = value
        state = replace(state, **{name: bad})
        with np.errstate(all="ignore"), pytest.raises(NonfiniteFieldError, match="nonfinite field after step 2"):
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
        mean0 = phi0.coefficients[0, 0].real
        state = init_state(phi0, 0.7)
        state, rec = advance(state, 0.05)
        assert np.isclose(state.phi_bar_hat1[0, 0].real, mean0, atol=1e-14)
        assert np.isclose(state.phi1.mean(), rec.eta * mean0, rtol=1e-12)

    def test_large_steps_stay_stable(self):
        # unconditional: gamma decays even for tau far beyond accuracy range
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(rough_field(grid, 10), 0.5)
        gamma_prev = state.gamma
        for tau in (0.5, 0.5, 0.5, 0.5):
            state, rec = advance(state, tau)
            assert rec.gamma <= gamma_prev
            assert np.all(np.isfinite(state.phi1))
            gamma_prev = rec.gamma


class TestTransformCount:
    FFT_NAMES = (
        "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
        "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
    )

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_one_rfftn_and_one_irfftn_per_step(self, monkeypatch, dim, n):
        import scipy.fft

        calls = []
        for mod in (scipy.fft, np.fft):
            for name in self.FFT_NAMES:
                orig = getattr(mod, name)

                def counted(*args, _orig=orig, _name=f"{mod.__name__}.{name}", **kwargs):
                    calls.append(_name)
                    return _orig(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
        grid = Grid(dim, 2.0 * np.pi, n)
        state, _ = advance(init_state(rough_field(grid, 12), 0.7), 0.01)
        for tau in (0.01, 0.02, 0.015):
            calls.clear()
            state, _ = advance(state, tau)
            assert sorted(calls) == ["scipy.fft.irfftn", "scipy.fft.rfftn"]


class TestDenseOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_one_step_matches_dense_reference(self, seed):
        grid = Grid(2, 2.0 * np.pi, 8)
        state = random_state(grid, eps=0.6 + 0.1 * seed, seed=seed)
        tau = 0.012 + 0.003 * seed
        ref = dense_advance(state, tau)
        pb_hat = linear_solve(state, tau)
        assert np.abs(pb_hat - half_spectrum(grid, ref["phi_bar_hat"])).max() < 1e-12
        pb = inverse(pb_hat, grid.shape)
        e_bar = energy(grid, pb, pb_hat, state.eps)
        assert np.isclose(e_bar, ref["energy"], rtol=1e-12)
        f_term = _extrapolated_nonlinearity(state, tau)
        gamma_n, grad_mu_sq = gamma_update(grid, state.gamma, tau, pb_hat, f_term, e_bar)
        assert np.isclose(gamma_n, ref["gamma"], rtol=1e-12)
        assert np.isclose(grad_mu_sq, ref["grad_mu_sq"], rtol=1e-12)
        xi, eta, phi_n = relax(pb, gamma_n, e_bar)
        assert np.isclose(xi, ref["xi"], rtol=1e-12)
        assert np.isclose(eta, ref["eta"], rtol=1e-12)
        assert np.abs(forward(phi_n) - half_spectrum(grid, ref["phi_hat"])).max() < 1e-12
        new_state, rec = advance(state, tau)
        assert np.isclose(rec.gamma, ref["gamma"], rtol=1e-12)
        assert np.isclose(rec.xi, ref["xi"], rtol=1e-12)
        assert np.isclose(rec.eta, ref["eta"], rtol=1e-12)
        phi_hat = half_spectrum(grid, ref["phi_hat"])
        assert np.abs(forward(new_state.phi1) - phi_hat).max() < 1e-12


class TestRecordValidation:
    def make_records(self, steps=20):
        grid = Grid(2, 2.0 * np.pi, 16)
        phi0 = rough_field(grid, 11)
        state = init_state(phi0, 0.8)
        gamma0, mass0 = state.gamma, phi0.integral()
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
        records, gamma0, mass0, volume = self.make_records()
        records[5] = replace(records[5], gamma=records[4].gamma * 1.01)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("gamma increased" in p for p in problems)

    def test_identity_mismatch_detected(self):
        records, gamma0, mass0, volume = self.make_records()
        records[3] = replace(records[3], dissipation=records[3].dissipation * 2.0 + 1.0)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("dissipation" in p for p in problems)

    def test_mass_drift_detected(self):
        records, gamma0, mass0, volume = self.make_records()
        records[7] = replace(records[7], mass=records[7].mass + 1.0)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("mass drifted" in p for p in problems)

    def test_nonfinite_detected(self):
        records, gamma0, mass0, volume = self.make_records()
        records[2] = replace(records[2], energy=np.nan)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert any("nonfinite" in p for p in problems)

    def test_ratio_cap_enforced(self):
        records, gamma0, mass0, volume = self.make_records()
        records[9] = replace(records[9], tau=records[8].tau * 6.0)
        problems = validate_records(records, ratio_cap=4.85)
        assert any("exceeds cap" in p for p in problems)

    def test_empty_stream_flagged(self):
        assert validate_records([]) == ["no records"]


class TestWorkingSet:
    def test_constant_field_is_bitwise_stationary(self):
        # mode 0 of the solve is pinned to the history's, so a pure phase
        # does not drift by an ulp per step (dividing by b0 did, on this mesh)
        mesh = random_mesh(0.1, 16, seed=3)
        for dim, n in ((2, 16), (3, 8)):
            grid = Grid(dim, 2.0 * np.pi, n)
            state = init_state(SpectralField.constant(grid, 1.0), 1.0)
            for k in range(1, mesh.count + 1):
                state, rec = advance(state, mesh.tau(k))
            assert np.array_equal(state.phi1, np.ones(grid.shape))
            assert state.phi_bar_hat1[(0,) * dim] == 1.0
            assert rec.mass == grid.volume

    @pytest.mark.parametrize("dealias", [False, True])
    def test_slab_count_does_not_change_the_step(self, monkeypatch, dealias):
        # the blocking is invisible up to the rounding of the slab-wise sums
        grid = Grid(3, 2.0 * np.pi, 16)
        state, _ = advance(init_state(rough_field(grid, 14), 0.7, dealias=dealias), 0.01)
        whole, whole_rec = advance(state, 0.013)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 2 * 16 * 16)
        assert len(spectral.slabs(grid.shape)) == 8
        sliced, sliced_rec = advance(state, 0.013)
        assert np.array_equal(sliced.phi_bar_hat1, whole.phi_bar_hat1)
        assert np.allclose(sliced.phi1, whole.phi1, rtol=1e-14, atol=1e-14)
        for name in ("gamma", "energy", "xi", "eta", "mass", "dissipation"):
            assert getattr(sliced_rec, name) == pytest.approx(getattr(whole_rec, name), rel=1e-14)

    @staticmethod
    def peak_of_step(monkeypatch, cores):
        """Peak allocated inside one 3d N=32 advance, in grid arrays, with
        the slabs shrunk with the cores so that the same 2 * 32 * 32
        elements are in flight (one slab per core)."""
        import tracemalloc

        grid = Grid(3, 2.0 * np.pi, 32)
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 2 * 32 * 32 // cores)
        assert len(spectral.slabs(grid.shape)) == 16 * cores
        assert len(spectral.slabs(grid.spectral_shape)) >= 8 * cores
        state = init_state(rough_field(grid, 15), 0.6)
        for _ in range(2):
            state, _ = advance(state, 0.01)
        full = 8 * 32**3
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            state, _ = advance(state, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - entry) / full

    def test_peak_inside_advance_is_bounded(self, monkeypatch):
        # a step keeps alive only the transform's input and outputs and the
        # new history arrays, plus slab-sized temporaries
        assert self.peak_of_step(monkeypatch, 1) <= 2.5

    def test_peak_inside_advance_is_bounded_on_two_cores(self, monkeypatch):
        # the same, with the temporaries of two half-size slabs in flight
        assert self.peak_of_step(monkeypatch, 2) <= 2.5


class TestThreads:
    """Slabs on several cores: the same bits as on one, and fork safe."""

    @staticmethod
    def run(monkeypatch, cores, dealias=False):
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 2 * 32 * 32)
        grid = Grid(3, 2.0 * np.pi, 32)
        assert len(spectral.slabs(grid.shape)) == 16
        state = init_state(rough_field(grid, 21), 0.7, dealias=dealias)
        records = []
        for tau in (0.01, 0.013, 0.007, 0.02):
            state, rec = advance(state, tau)
            records.append(rec)
        return state, records

    @pytest.mark.parametrize("dealias", [False, True])
    def test_two_cores_give_the_bits_of_one(self, monkeypatch, dealias):
        one, one_records = self.run(monkeypatch, 1, dealias)
        two, two_records = self.run(monkeypatch, 2, dealias)
        for name in ("phi_bar_hat1", "phi_bar_hat2", "phi1", "phi2"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
        assert one.gamma == two.gamma
        assert one_records == two_records

    def test_substeps_compose_to_advance_on_several_cores(self, monkeypatch):
        state, _ = self.run(monkeypatch, 2)
        grid, tau = state.grid, 0.011
        pb_hat = linear_solve(state, tau)
        pb = inverse(pb_hat, grid.shape)
        e_bar = energy(grid, pb, pb_hat, state.eps)
        f_term = _extrapolated_nonlinearity(state, tau)
        gamma_n, grad_mu_sq = gamma_update(grid, state.gamma, tau, pb_hat, f_term, e_bar)
        xi, eta, phi_n = relax(pb, gamma_n, e_bar)
        new_state, rec = advance(state, tau)
        assert np.array_equal(new_state.phi_bar_hat1, pb_hat)
        assert np.array_equal(new_state.phi1, phi_n)
        assert (rec.energy, rec.gamma, rec.xi, rec.eta) == (e_bar, gamma_n, xi, eta)
        assert rec.dissipation == tau * xi * grad_mu_sq

    def test_transforms_and_energy_run_on_the_calling_thread(self, monkeypatch):
        # span tracers wrap these; they keep one stack, for the calling thread
        import chsolver.stepper as stepper
        from scipy import fft

        threads = set()

        def on_caller(fn):
            def wrapper(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for owner, name in ((fft, "rfftn"), (fft, "irfftn"), (stepper, "energy")):
            monkeypatch.setattr(owner, name, on_caller(getattr(owner, name)))
        self.run(monkeypatch, 2)
        assert threads == {threading.get_ident()}

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
    def test_forked_child_steps(self, monkeypatch):
        # the child inherits the parent's slab pool but not its threads
        monkeypatch.setattr(spectral, "CORES", 2)
        grid = Grid(3, 2.0 * np.pi, 64)
        assert len(spectral.slabs(grid.shape)) > 1
        state, _ = advance(init_state(rough_field(grid, 22), 0.7), 0.01)
        pid = os.fork()
        if pid == 0:  # child: one more step, then leave without pytest's teardown
            code = 1
            try:
                code = 0 if advance(state, 0.01)[1].n == 2 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                assert os.waitstatus_to_exitcode(status) == 0
                return
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's step did not finish within 30 s")
