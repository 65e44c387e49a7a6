"""Tests for the relaxed auxiliary-scalar stepper.

Covers closed-form energies, the exact dissipation identity, mass
conservation through the mode-0 equation, the relaxation algebra, and a
full one-step comparison against the dense reference in
dense_reference.py.
"""

import copy
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chsolver.spectral as spectral
from chsolver.spectral import Grid, SpectralField, cubic, forward, h1_norm, inverse
from chsolver.stepper import (
    NonfiniteFieldError,
    _extrapolated_nonlinearity,
    advance,
    energy,
    gamma_update,
    init_state,
    linear_solve,
    relax,
    validate_records,
)
from chsolver.timestep import r_max_root, random_mesh
from dense_reference import dense_advance, half_spectrum, random_state
from record_reference import eta_problems


def rough_field(grid, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return SpectralField(grid, physical=rng.uniform(lo, hi, grid.shape))


def slab_thread_idents(monkeypatch):
    """A set that collects the ident of each thread that runs a slab from
    now on.  spectral.slab_map (which slab_sum calls) and the stepper's own
    import of it are wrapped."""
    import chsolver.stepper as stepper

    idents = set()
    inner = spectral.slab_map

    def recording(fn, shape):
        def on_thread(s):
            idents.add(threading.get_ident())
            time.sleep(1e-4)  # long enough that every thread gets a slab
            return fn(s)

        return inner(on_thread, shape)

    monkeypatch.setattr(spectral, "slab_map", recording)
    monkeypatch.setattr(stepper, "slab_map", recording)
    return idents


HISTORY = ("phi_bar_hat1", "phi_bar_hat2", "phi1", "phi2")


def copied(state):
    """state with its own copies of the history arrays, which advance
    overwrites when it recycles them."""
    return replace(state, **{name: getattr(state, name).copy() for name in HISTORY})


def field_energy(field, eps):
    return energy(field.grid, field.physical, field.coefficients, eps)


def constant_field(grid, value):
    return SpectralField(grid, physical=np.full(grid.shape, value))


class TestEnergy:
    def test_pure_phase_is_ground_state(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        assert field_energy(constant_field(grid, 1.0), 0.5) == 0.0
        assert field_energy(constant_field(grid, -1.0), 0.5) == 0.0

    def test_zero_field_well_energy(self):
        # |Omega| / (4 eps^2) with eps = 0.5
        grid = Grid(2, 2.0 * np.pi, 16)
        assert np.isclose(field_energy(constant_field(grid, 0.0), 0.5), 4.0 * np.pi**2)

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
            field_energy(constant_field(grid, 0.0), -1.0)


class TestInitialization:
    def test_gamma_targets_energy_plus_one(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        state = init_state(constant_field(grid, 0.0), 0.5)
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
        state = init_state(constant_field(grid, 1.0), 1.0)
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
        f_hat = _extrapolated_nonlinearity(state, 0.0, np.empty(grid.shape))  # the first step's ratio
        assert np.array_equal(f_hat, forward(cubic(state.phi1, 0.8)))
        c0 = state.phi_bar_hat1
        k2 = grid.k_squared_rows(slice(None))
        expected = (c0 / tau - k2 * f_hat) / (1.0 / tau + k2**2)
        assert np.allclose(linear_solve(state, tau)[0], expected, atol=1e-13)
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
        pb_hat, grad_mu_sq, _ = linear_solve(state, tau)
        pb = inverse(pb_hat, grid.shape)
        e_bar = energy(grid, pb, pb_hat, state.eps)
        gamma_n = gamma_update(state.gamma, tau, grad_mu_sq, e_bar)
        xi, eta, phi_n = relax(pb, gamma_n, e_bar)
        before = copy.copy(state)  # advance takes the given state's arrays
        new_state, rec = advance(state, tau)
        assert np.array_equal(new_state.phi_bar_hat1, pb_hat)
        assert rec.energy == e_bar
        assert rec.gamma == gamma_n
        assert rec.xi == xi
        assert rec.eta == eta
        assert rec.dissipation == tau * xi * grad_mu_sq
        assert new_state.gamma == gamma_n
        assert np.array_equal(new_state.phi1, phi_n)
        assert new_state.phi_bar_hat2 is before.phi_bar_hat1
        assert new_state.phi2 is before.phi1

    def test_advance_runs_each_substep_once(self, monkeypatch):
        # one step, one path: the step ratio and BDF2 weights derived once,
        # one solve, one contraction of the ||grad mu||^2 it summed and one
        # relaxation; no second sum through linear_solve or energy
        import chsolver.stepper as stepper

        grid = Grid(2, 2.0 * np.pi, 16)
        state, _ = advance(init_state(rough_field(grid, 3), 0.6), 0.02)
        calls = []
        for name in ("_step_scalars", "bdf_weights", "_solve", "gamma_update", "relax", "linear_solve", "energy"):

            def counted(*args, _orig=getattr(stepper, name), _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(stepper, name, counted)
        advance(state, 0.03)
        assert sorted(calls) == ["_solve", "_step_scalars", "bdf_weights", "gamma_update", "relax"]

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
        # the ||grad mu||^2 advance contracts, as its solve sums it
        pb_hat, grad_mu_sq, _ = linear_solve(state, tau)
        assert np.abs(pb_hat - half_spectrum(grid, ref["phi_bar_hat"])).max() < 1e-12
        assert np.isclose(grad_mu_sq, ref["grad_mu_sq"], rtol=1e-12)
        pb = inverse(pb_hat, grid.shape)
        e_bar = energy(grid, pb, pb_hat, state.eps)
        assert np.isclose(e_bar, ref["energy"], rtol=1e-12)
        gamma_n = gamma_update(state.gamma, tau, grad_mu_sq, e_bar)
        assert np.isclose(gamma_n, ref["gamma"], rtol=1e-12)
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
        # step 1 on this rough field gives eta = -12.7, the one row the eta rule reports
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
        assert [rec.n for rec in records if rec.eta <= 0] == [1]
        assert validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume) == eta_problems(records)

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

    def test_ratio_cap_skips_a_row_after_a_gap(self):
        # step 9 follows step 4 in a thinned file: their ratio bounds no step
        # the run took; the same row as step 5 is held to the cap
        records, gamma0, mass0, volume = self.make_records()
        jump = replace(records[8], tau=records[3].tau * 6.0)

        def over_cap(rows):
            return [p for p in validate_records(rows, ratio_cap=4.85) if "exceeds cap" in p]

        assert over_cap(records[:4] + [jump] + records[9:]) == []
        assert over_cap(records[:4] + [replace(jump, n=5)]) == ["step 5: ratio 6.0000 exceeds cap 4.8500"]

    def test_nonpositive_step_detected(self):
        records, gamma0, mass0, volume = self.make_records()
        records[4] = replace(records[4], tau=-records[4].tau)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume, ratio_cap=4.85)
        assert problems == eta_problems(records) + [f"step 5: tau = {records[4].tau} not positive"]

    def test_clock_that_stands_still_detected(self):
        records, gamma0, mass0, volume = self.make_records()
        records[6] = replace(records[6], t=records[5].t)
        problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=volume)
        assert problems == eta_problems(records) + [
            f"step 7: t = {records[5].t!r} does not exceed the previous t = {records[5].t!r}"
        ]

    def test_empty_stream_flagged(self):
        assert validate_records([]) == ["no records"]


class TestWorkingSet:
    def test_constant_field_is_bitwise_stationary(self):
        # mode 0 of the solve is pinned to the history's, so a pure phase
        # does not drift by an ulp per step (dividing by b0 did, on this mesh)
        mesh = random_mesh(0.1, 16, seed=3)
        for dim, n in ((2, 16), (3, 8)):
            grid = Grid(dim, 2.0 * np.pi, n)
            state = init_state(constant_field(grid, 1.0), 1.0)
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
        # each step starts from its own copy, since advance recycles the oldest level
        whole, whole_rec = advance(copied(state), 0.013)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 2 * 16 * 16)
        assert len(spectral.slabs(grid.shape)) == 8
        sliced, sliced_rec = advance(copied(state), 0.013)
        assert np.array_equal(sliced.phi_bar_hat1, whole.phi_bar_hat1)
        assert np.allclose(sliced.phi1, whole.phi1, rtol=1e-14, atol=1e-14)
        for name in ("gamma", "energy", "xi", "eta", "mass", "dissipation"):
            assert getattr(sliced_rec, name) == pytest.approx(getattr(whole_rec, name), rel=1e-14)

    def test_grid_holds_no_half_spectrum_array(self):
        # |k|^2 is built for one slab at a time: after a multi-slab 3d run
        # and the public substeps and norms, the grid has cached nothing of
        # the half spectrum's size
        grid = Grid(3, 2.0 * np.pi, 48)
        assert len(spectral.slabs(grid.spectral_shape)) == 2
        state = init_state(rough_field(grid, 16), 0.6)
        for _ in range(2):
            state, _ = advance(state, 0.01)
        pb_hat, _, _ = linear_solve(state, 0.01)
        energy(grid, inverse(pb_hat, grid.shape), pb_hat, state.eps)
        h1_norm(grid, pb_hat)
        cached = [v for value in vars(grid).values() for v in (value if isinstance(value, tuple) else (value,))]
        assert any(isinstance(v, np.ndarray) for v in cached)  # the wavenumbers are kept
        assert not [v.shape for v in cached if isinstance(v, np.ndarray) and v.size >= pb_hat.size]

    @staticmethod
    def peak_of_step(monkeypatch, cores):
        """Peak allocated inside one 3d N=32 advance, in grid arrays, with
        the slabs shrunk with the cores so that the same 2 * 32 * 32
        elements are in flight (one slab per core)."""
        import tracemalloc

        grid = Grid(3, 2.0 * np.pi, 32)
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 2 * 32 * 32 // cores)
        # every pass of this grid, half spectra included, on the parallel path
        monkeypatch.setattr(spectral, "PARALLEL_ELEMENTS", 2**12)
        assert len(spectral.slabs(grid.shape)) == 16 * cores
        assert len(spectral.slabs(grid.spectral_shape)) >= 8 * cores
        state = init_state(rough_field(grid, 15), 0.6)
        for _ in range(2):
            state, _ = advance(state, 0.01)
        full = 8 * 32**3
        idents = slab_thread_idents(monkeypatch)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            state, _ = advance(state, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(idents) >= min(cores, 2)
        return (peak - entry) / full

    def test_peak_inside_advance_is_bounded(self, monkeypatch):
        # f and pb_hat take the oldest level's buffers and the old phi2 is
        # freed before the irfftn, so a step allocates only the transforms'
        # outputs, plus slab-sized temporaries
        assert self.peak_of_step(monkeypatch, 1) <= 1.5

    def test_peak_inside_advance_is_bounded_on_two_cores(self, monkeypatch):
        # the same, with the temporaries of two half-size slabs in flight
        assert self.peak_of_step(monkeypatch, 2) <= 1.5


class TestInPlace:
    """advance recycles the oldest level's writable buffers; a run whose
    arrays are all read-only takes new ones every step (numpy refuses a
    write into a read-only array, so that run also shows none is written).
    Both must give the same bits."""

    @staticmethod
    def run(grid, dealias, taus, freeze):
        """(final state, records, phi_bar_hat1 after each step)."""
        state = init_state(rough_field(grid, 23), 0.7, dealias=dealias)
        records, hats = [], []
        for tau in taus:
            if freeze:
                for name in HISTORY:
                    getattr(state, name).setflags(write=False)
            state, rec = advance(state, tau)
            records.append(rec)
            hats.append(state.phi_bar_hat1)
        return state, records, hats

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
    @settings(max_examples=15, deadline=None)
    @given(
        dealias=st.booleans(),
        tau1=st.floats(1e-4, 1e-2),
        ratios=st.lists(
            st.floats(1e-3, r_max_root() - 0.01, exclude_min=True, exclude_max=True), min_size=1, max_size=4
        ),
    )
    def test_in_place_steps_give_the_bits_of_fresh_ones(self, cores, dim, n, dealias, tau1, ratios):
        taus = [tau1]
        for r in ratios:
            taus.append(taus[-1] * r)
        grid = Grid(dim, 2.0 * np.pi, n)
        with pytest.MonkeyPatch.context() as mp:
            # the thresholds of TestThreads: every pass of these grids on the parallel path
            mp.setattr(spectral, "CORES", cores)
            mp.setattr(spectral, "SLAB_ELEMENTS", 2 * 32 * 32)
            mp.setattr(spectral, "PARALLEL_ELEMENTS", 2**12)
            ref, ref_records, _ = self.run(grid, dealias, taus, freeze=True)
            got, records, hats = self.run(grid, dealias, taus, freeze=False)
        assert records == ref_records
        for name in HISTORY:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        for name in ("gamma", "time", "prev_tau", "step_index"):
            assert getattr(got, name) == getattr(ref, name), name
        # from step 3 on, the stepper's own oldest spectrum takes the new level
        for k in range(2, len(taus)):
            assert hats[k] is hats[k - 2]

    def test_given_state_keeps_its_scalars_and_gives_up_its_arrays(self):
        # a caller may still read the clock it stepped from; a second step
        # from the given state fails instead of reading recycled buffers
        grid = Grid(2, 2.0 * np.pi, 16)
        state, _ = advance(init_state(rough_field(grid, 24), 0.6), 0.01)
        before = copy.copy(state)
        new_state, _ = advance(state, 0.02)
        assert new_state is not state
        for name in ("gamma", "time", "prev_tau", "step_index"):
            assert getattr(state, name) == getattr(before, name), name
        assert all(getattr(state, name) is None for name in HISTORY)
        with pytest.raises(AttributeError):
            advance(state, 0.02)

    def test_levels_sharing_memory_are_not_written(self):
        # a writable level that is the other level is read while the new one is formed
        grid = Grid(2, 2.0 * np.pi, 16)
        phi0 = rough_field(grid, 25)
        shared = init_state(phi0, 0.6)
        u, u_hat = phi0.physical.copy(), phi0.coefficients.copy()
        state = replace(shared, phi1=u, phi2=u, phi_bar_hat1=u_hat, phi_bar_hat2=u_hat)
        _, ref = advance(shared, 0.01)
        _, rec = advance(state, 0.01)
        assert rec == ref
        assert np.array_equal(u, phi0.physical) and np.array_equal(u_hat, phi0.coefficients)

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_substeps_write_no_array_of_the_state(self, dim, n, dealias):
        # the substeps tests and the benchmark's tracer compose; only advance recycles
        grid = Grid(dim, 2.0 * np.pi, n)
        state = init_state(rough_field(grid, 26), 0.6, dealias=dealias)
        for tau in (0.01, 0.02):
            state, _ = advance(state, tau)
        arrays = {name: getattr(state, name) for name in HISTORY}
        assert all(a.flags.writeable for a in arrays.values())
        values = {name: a.copy() for name, a in arrays.items()}
        tau = 0.013
        pb_hat, grad_mu_sq, _ = linear_solve(state, tau)
        pb = inverse(pb_hat, grid.shape)
        e_bar = energy(grid, pb, pb_hat, state.eps)
        relax(pb, gamma_update(state.gamma, tau, grad_mu_sq, e_bar), e_bar)
        for name, a in arrays.items():
            assert getattr(state, name) is a
            assert np.array_equal(a, values[name]), name


class TestThreads:
    """Slabs on several cores: the same bits as on one, no thread left
    behind, and fork safe."""

    @staticmethod
    def run(monkeypatch, cores, dealias=False):
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 2 * 32 * 32)
        # every pass of this grid, half spectra included, on the parallel path
        monkeypatch.setattr(spectral, "PARALLEL_ELEMENTS", 2**12)
        grid = Grid(3, 2.0 * np.pi, 32)
        assert len(spectral.slabs(grid.shape)) == 16
        state = init_state(rough_field(grid, 21), 0.7, dealias=dealias)
        idents = slab_thread_idents(monkeypatch)
        records = []
        for tau in (0.01, 0.013, 0.007, 0.02):
            state, rec = advance(state, tau)
            records.append(rec)
        if cores == 1:
            assert idents == {threading.get_ident()}
        else:
            assert len(idents) >= 2
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
        pb_hat, grad_mu_sq, _ = linear_solve(state, tau)
        pb = inverse(pb_hat, grid.shape)
        e_bar = energy(grid, pb, pb_hat, state.eps)
        gamma_n = gamma_update(state.gamma, tau, grad_mu_sq, e_bar)
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

    def test_no_thread_outlives_a_pass(self, monkeypatch):
        state, _ = self.run(monkeypatch, 2)
        before = threading.active_count()
        advance(state, 0.01)
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
    def test_forked_child_steps(self, monkeypatch):
        # the parent has run slab threads before the fork; the child starts its own
        monkeypatch.setattr(spectral, "CORES", 2)
        monkeypatch.setattr(spectral, "PARALLEL_ELEMENTS", 2**12)
        grid = Grid(3, 2.0 * np.pi, 64)
        assert len(spectral.slabs(grid.shape)) > 1
        idents = slab_thread_idents(monkeypatch)
        state, _ = advance(init_state(rough_field(grid, 22), 0.7), 0.01)
        assert len(idents) >= 2
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


def test_coarsening3d_preset_step_starts_no_thread(monkeypatch, tmp_path):
    # 3d N=48 is below the parallel threshold: slab passes and transforms
    # stay on the calling thread even with several cores
    from scipy import fft

    from chsolver.config import build_scenario, parse_config
    from chsolver.scenarios import initial_field

    monkeypatch.setattr(spectral, "CORES", 2)
    started, workers = [], []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self))[1])
    for name in ("rfftn", "irfftn"):
        orig = getattr(fft, name)

        def recorder(*args, _orig=orig, **kwargs):
            workers.append(kwargs.get("workers"))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(fft, name, recorder)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = coarsening3d\n")
    scenario = build_scenario(parse_config(str(cfg)))
    grid = Grid(scenario.dim, scenario.length, scenario.modes)
    assert grid.shape == (48, 48, 48)
    phi0 = initial_field(scenario, grid)
    state = init_state(phi0, scenario.eps)
    for _ in range(2):
        state, _ = advance(state, 1e-4)
    assert started == []
    assert len(workers) >= 4 and set(workers) == {None}
