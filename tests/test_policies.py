"""Tests for step-size policies and the time-marching driver."""

import numpy as np
import pytest

from chsolver import (
    AdaptiveStep,
    FixedStep,
    Grid,
    MeshExhaustedError,
    PrescribedMesh,
    SpectralField,
    TimeMesh,
    init_state,
    r_max_root,
    random_mesh,
    run_with_policy,
)


def small_state(seed=0, n=16, eps=0.8):
    grid = Grid(2, 2.0 * np.pi, n)
    rng = np.random.default_rng(seed)
    return init_state(SpectralField(grid, physical=rng.uniform(-1.0, 1.0, grid.shape)), eps)


class TestFixedStep:
    def test_constant_proposal(self):
        policy = FixedStep(0.25)
        assert policy.next_step(1, 0.0, 1.0, 1.0) == 0.25
        assert policy.next_step(99, 0.25, 1.0, 0.5) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            FixedStep(0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_nonfinite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            FixedStep(tau)


class TestPrescribedMesh:
    def test_replays_mesh(self):
        mesh = TimeMesh([0.1, 0.2, 0.15])
        policy = PrescribedMesh(mesh)
        assert [policy.next_step(n, 0.0, 1.0, 1.0) for n in (1, 2, 3)] == [0.1, 0.2, 0.15]

    def test_exhaustion(self):
        policy = PrescribedMesh(TimeMesh([0.1, 0.2]))
        with pytest.raises(MeshExhaustedError, match="2 steps"):
            policy.next_step(3, 0.0, 1.0, 1.0)


class TestAdaptiveStep:
    def test_first_step_is_minimum(self):
        policy = AdaptiveStep(tau_min=1e-4, tau_max=1e-2, alpha=0.5)
        assert policy.next_step(1, 0.0, 1.0, 1.0) == 1e-4

    def test_flat_energy_pushes_to_maximum(self):
        policy = AdaptiveStep(tau_min=1e-4, tau_max=1e-2, alpha=0.5)
        # no gamma change: proposal is tau_max, limited by the ratio cap
        tau = policy.next_step(2, 5e-3, 2.0, 2.0)
        assert tau == 1e-2

    def test_steep_energy_shrinks_step(self):
        policy = AdaptiveStep(tau_min=1e-4, tau_max=1e-2, alpha=1.0)
        slow = policy.next_step(2, 1e-2, 2.0, 1.99)
        fast = policy.next_step(2, 1e-2, 2.0, 1.0)
        assert fast < slow <= 1e-2
        # closed form: tau_max / sqrt(1 + alpha rate^2)
        rate = (1.0 - 2.0) / 1e-2
        assert np.isclose(fast, 1e-2 / np.sqrt(1.0 + rate**2))

    def test_floor_clamp(self):
        policy = AdaptiveStep(tau_min=1e-3, tau_max=1e-2, alpha=1e6)
        assert policy.next_step(2, 1e-2, 2.0, 1.0) == 1e-3

    def test_ratio_cap_limits_growth(self):
        policy = AdaptiveStep(tau_min=1e-5, tau_max=1.0, alpha=0.0)
        cap = policy.ratio_cap
        assert np.isclose(cap, r_max_root() - 0.01)
        tau = policy.next_step(2, 1e-3, 2.0, 2.0)
        assert np.isclose(tau, cap * 1e-3)

    def test_custom_cap(self):
        policy = AdaptiveStep(tau_min=1e-5, tau_max=1.0, alpha=0.0, ratio_cap=2.0)
        assert policy.next_step(2, 0.1, 1.0, 1.0) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="tau_min <= tau_max"):
            AdaptiveStep(tau_min=1e-2, tau_max=1e-3, alpha=0.1)
        with pytest.raises(ValueError, match="alpha"):
            AdaptiveStep(tau_min=1e-3, tau_max=1e-2, alpha=-1.0)
        with pytest.raises(ValueError, match="ratio_cap"):
            AdaptiveStep(tau_min=1e-3, tau_max=1e-2, alpha=0.1, ratio_cap=9.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("key", ["tau_min", "tau_max", "alpha"])
    def test_nonfinite_parameters_rejected(self, key, bad):
        kwargs = {"tau_min": 1e-3, "tau_max": 1e-2, "alpha": 0.1, key: bad}
        with pytest.raises(ValueError, match="inf|finite"):
            AdaptiveStep(**kwargs)


class TestDriver:
    def test_fixed_run_lands_exactly(self):
        state = small_state()
        state, records = run_with_policy(state, FixedStep(0.1 / 16), 0.1)
        assert len(records) == 16
        assert state.time == 0.1
        assert records[-1].t == 0.1
        times = [rec.t for rec in records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_prescribed_mesh_runs_verbatim(self):
        mesh = random_mesh(0.05, 12, seed=3)
        state = small_state()
        state, records = run_with_policy(state, PrescribedMesh(mesh), mesh.horizon)
        assert len(records) == 12
        assert np.allclose([rec.tau for rec in records], mesh.steps)
        assert state.time == mesh.horizon

    def test_checkpoints_are_hit_exactly(self):
        state = small_state()
        marks = (0.033, 0.07)
        state, records = run_with_policy(state, FixedStep(0.01), 0.1, checkpoints=marks)
        times = {rec.t for rec in records}
        for m in marks:
            assert m in times

    def test_long_step_is_shortened_to_horizon(self):
        state = small_state()
        state, records = run_with_policy(state, FixedStep(1.0), 0.3)
        assert len(records) == 1
        assert records[0].tau == 0.3
        assert state.time == 0.3

    def test_gamma_monotone_through_driver(self):
        state = small_state(seed=5)
        policy = AdaptiveStep(tau_min=1e-4, tau_max=5e-3, alpha=0.1)
        state, records = run_with_policy(state, policy, 0.05)
        gammas = [rec.gamma for rec in records]
        assert all(b <= a for a, b in zip(gammas, gammas[1:]))

    def test_adaptive_respects_cap_with_landing(self):
        state = small_state(seed=6)
        policy = AdaptiveStep(tau_min=1e-4, tau_max=5e-3, alpha=0.01)
        state, records = run_with_policy(state, policy, 0.04, checkpoints=(0.011,))
        taus = [rec.tau for rec in records]
        for prev, curr in zip(taus, taus[1:]):
            assert curr <= policy.ratio_cap * prev * (1.0 + 1e-12)

    def test_on_step_callback_sees_every_record(self):
        state = small_state()
        seen = []
        run_with_policy(state, FixedStep(0.01), 0.05, on_step=lambda st, rec: seen.append(rec.n))
        assert seen == [1, 2, 3, 4, 5]

    def test_horizon_validation(self):
        state = small_state()
        with pytest.raises(ValueError, match="horizon"):
            run_with_policy(state, FixedStep(0.01), 0.0)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_nonfinite_horizon_rejected(self, horizon):
        state = small_state()
        with pytest.raises(ValueError, match="horizon"):
            run_with_policy(state, FixedStep(0.01), horizon)
