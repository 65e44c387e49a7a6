"""Tests for step-size policies and the time-marching driver."""

import math
from array import array
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chsolver import (
    AdaptiveStep,
    FixedStep,
    Grid,
    MeshExhaustedError,
    PrescribedMesh,
    Scenario,
    SpectralField,
    TimeMesh,
    init_state,
    initial_field,
    r_max_root,
    random_mesh,
    run_with_policy,
    validate_records,
)
from chsolver.policies import LandingError, landing_targets
from chsolver.stepper import record_values
from record_reference import eta_problems
from chsolver.timestep import A1ViolationError, a1_cap


def drive(state, policy, horizon, checkpoints=()):
    """run_with_policy, returning (final state, the records on_step got)."""
    records = []
    state = run_with_policy(state, policy, horizon, checkpoints, on_step=lambda st, rec, reached: records.append(rec))
    return state, records


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


class TestRatioCap:
    def test_every_policy_carries_a_cap_the_driver_applies(self):
        assert FixedStep(0.1).ratio_cap == a1_cap()
        assert PrescribedMesh(TimeMesh([0.1, 0.2], delta=0.5)).ratio_cap == a1_cap(0.5)
        assert AdaptiveStep(tau_min=1e-4, tau_max=1e-2, alpha=0.5).ratio_cap == r_max_root() - 0.01
        assert AdaptiveStep(tau_min=1e-4, tau_max=1e-2, alpha=0.5, ratio_cap=2.0).ratio_cap == 2.0
        # the landing step before 0.0301 is 1e-4; the fixed step regrows from
        # it by the cap, not straight back to 0.01 (a ratio of 100)
        _, records = drive(small_state(), FixedStep(0.01), 0.05, checkpoints=(0.0301,))
        taus = [rec.tau for rec in records]
        cap = a1_cap()
        assert len(taus) == 8 and np.isclose(taus[3], 1e-4)
        assert taus[4:6] == [cap * taus[3], cap * cap * taus[3]]
        assert all(b <= cap * a for a, b in zip(taus, taus[1:]))


class TestAdaptiveStep:
    def test_first_step_is_minimum(self):
        policy = AdaptiveStep(tau_min=1e-4, tau_max=1e-2, alpha=0.5)
        assert policy.next_step(1, 0.0, 1.0, 1.0) == 1e-4

    def test_flat_energy_pushes_to_maximum(self):
        policy = AdaptiveStep(tau_min=1e-4, tau_max=1e-2, alpha=0.5)
        # no gamma change: proposal is tau_max (the driver applies the cap)
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
        # flat energy proposes tau_max; the driver grows each step by the cap
        policy = AdaptiveStep(tau_min=1e-5, tau_max=1.0, alpha=0.0)
        cap = policy.ratio_cap
        assert np.isclose(cap, r_max_root() - 0.01)
        assert policy.next_step(2, 1e-3, 2.0, 2.0) == 1.0
        _, records = drive(small_state(n=8), policy, 0.01)
        taus = [rec.tau for rec in records]
        assert taus[0] == 1e-5
        assert all(b == cap * a for a, b in zip(taus[:-1], taus[1:-1]))
        assert taus[-1] <= cap * taus[-2]

    def test_custom_cap(self):
        policy = AdaptiveStep(tau_min=1e-5, tau_max=1.0, alpha=0.0, ratio_cap=2.0)
        _, records = drive(small_state(n=8), policy, 0.01)
        taus = [rec.tau for rec in records]
        assert taus[:4] == [1e-5, 2e-5, 4e-5, 8e-5]
        assert all(b <= 2.0 * a for a, b in zip(taus, taus[1:]))

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
        state, records = drive(state, FixedStep(0.1 / 16), 0.1)
        assert len(records) == 16
        assert state.time == 0.1
        assert records[-1].t == 0.1
        times = [rec.t for rec in records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_prescribed_mesh_runs_verbatim(self):
        mesh = random_mesh(0.05, 12, seed=3)
        state = small_state()
        state, records = drive(state, PrescribedMesh(mesh), mesh.horizon)
        assert len(records) == 12
        assert np.allclose([rec.tau for rec in records], mesh.steps)
        assert state.time == mesh.horizon

    def test_prescribed_mesh_rejects_off_node_checkpoint_before_stepping(self, monkeypatch):
        import chsolver.policies as policies

        calls = []
        monkeypatch.setattr(policies, "advance", lambda *args: calls.append(args))
        mesh = random_mesh(0.05, 12, seed=3)
        off_node = float(0.5 * (mesh.times[4] + mesh.times[5]))
        with pytest.raises(LandingError, match=f"checkpoint {off_node!r} is not a node"):
            run_with_policy(small_state(), PrescribedMesh(mesh), mesh.horizon, checkpoints=(off_node,))
        assert calls == []

    def test_prescribed_mesh_rejects_short_mesh_before_stepping(self, monkeypatch):
        import chsolver.policies as policies

        calls = []
        monkeypatch.setattr(policies, "advance", lambda *args: calls.append(args))
        mesh = random_mesh(0.05, 12, seed=3)
        with pytest.raises(LandingError, match=f"horizon 0.1 lies beyond the last mesh node {mesh.horizon!r}"):
            run_with_policy(small_state(), PrescribedMesh(mesh), 0.1)
        assert calls == []

    def test_prescribed_mesh_rejects_a_step_within_the_landing_tol(self, monkeypatch):
        # step 3 is 1e-14 against tol = 1e-12 * 0.3231: run, step 2 landed on
        # node 3's time, the checkpoint there was reported with node 2's field,
        # and every later record's t was 1e-14 ahead of its node
        import chsolver.policies as policies

        calls = []
        monkeypatch.setattr(policies, "advance", lambda *args: calls.append(args))
        growth = [1e-14 * 4.8**k for k in range(1, 19)]
        mesh = TimeMesh([0.05, 0.05, 1e-14, *growth, 0.05, 0.05, 0.05, 0.05])
        assert mesh.count == 25
        with pytest.raises(LandingError, match=r"^mesh step 3 \(1e-14\) is not longer than the landing tolerance"):
            run_with_policy(small_state(n=8), PrescribedMesh(mesh), mesh.horizon, checkpoints=(float(mesh.times[3]),))
        assert calls == []

    def test_prescribed_mesh_accepts_horizon_off_last_node_by_rounding(self):
        mesh = random_mesh(0.05, 12, seed=3)
        state, records = drive(small_state(), PrescribedMesh(mesh), mesh.horizon * (1.0 + 1e-13))
        assert len(records) == 12

    def test_prescribed_mesh_accepts_node_checkpoints(self):
        mesh = random_mesh(0.05, 12, seed=3)
        # a node off by rounding, the start and the horizon are all accepted
        marks = (0.0, mesh.times[4] * (1.0 + 1e-15), mesh.times[9], mesh.horizon)
        state, records = drive(small_state(), PrescribedMesh(mesh), mesh.horizon, checkpoints=marks)
        assert len(records) == 12
        assert np.allclose([rec.tau for rec in records], mesh.steps, rtol=1e-12)
        assert records[8].t == mesh.times[9]

    def test_prescribed_mesh_at_the_cap_replays_bit_for_bit(self):
        # each step is cap times the last, as the driver's clamp computes it
        cap = a1_cap()
        steps = [1e-4]
        for _ in range(7):
            steps.append(cap * steps[-1])
        mesh = TimeMesh(steps)
        assert mesh.satisfies_a1()
        _, records = drive(small_state(), PrescribedMesh(mesh), mesh.horizon, checkpoints=(mesh.times[4],))
        assert [rec.tau for rec in records] == steps

    def test_prescribed_mesh_beyond_the_cap_is_rejected_before_stepping(self, monkeypatch):
        import chsolver.policies as policies

        calls = []
        monkeypatch.setattr(policies, "advance", lambda *args: calls.append(args))
        # one ulp above cap * tau_1
        mesh = TimeMesh([1e-4, math.nextafter(a1_cap() * 1e-4, math.inf)])
        with pytest.raises(A1ViolationError, match="exceeds"):
            run_with_policy(small_state(), PrescribedMesh(mesh), mesh.horizon)
        assert calls == []

    def test_checkpoints_are_hit_exactly(self):
        state = small_state()
        marks = (0.033, 0.07)
        state, records = drive(state, FixedStep(0.01), 0.1, checkpoints=marks)
        times = {rec.t for rec in records}
        for m in marks:
            assert m in times

    def test_long_step_is_shortened_to_horizon(self):
        state = small_state()
        state, records = drive(state, FixedStep(1.0), 0.3)
        assert len(records) == 1
        assert records[0].tau == 0.3
        assert state.time == 0.3

    def test_gamma_monotone_through_driver(self):
        state = small_state(seed=5)
        policy = AdaptiveStep(tau_min=1e-4, tau_max=5e-3, alpha=0.1)
        state, records = drive(state, policy, 0.05)
        gammas = [rec.gamma for rec in records]
        assert all(b <= a for a, b in zip(gammas, gammas[1:]))

    def test_adaptive_respects_cap_with_landing(self):
        state = small_state(seed=6)
        policy = AdaptiveStep(tau_min=1e-4, tau_max=5e-3, alpha=0.01)
        state, records = drive(state, policy, 0.04, checkpoints=(0.011,))
        taus = [rec.tau for rec in records]
        for prev, curr in zip(taus, taus[1:]):
            assert curr <= policy.ratio_cap * prev * (1.0 + 1e-12)

    def test_on_step_callback_sees_every_record(self):
        state = small_state()
        seen = []
        run_with_policy(state, FixedStep(0.01), 0.05, on_step=lambda st, rec, reached: seen.append(rec.n))
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


@st.composite
def _capped_runs(draw):
    """A policy of each kind, a horizon and up to four interior checkpoints,
    nodes of a prescribed mesh and otherwise multiples of horizon / 1000,
    so that no two lie within the landing tolerance of each other."""
    horizon = draw(st.floats(0.005, 0.05))
    kind = draw(st.sampled_from(["fixed", "mesh", "adaptive"]))
    if kind == "mesh":
        mesh = random_mesh(horizon, draw(st.integers(3, 24)), draw(st.integers(0, 999)))
        marks = draw(st.lists(st.sampled_from(mesh.times[1:-1].tolist()), max_size=4))
        return PrescribedMesh(mesh), mesh.horizon, marks
    if kind == "fixed":
        policy = FixedStep(draw(st.floats(horizon / 24, horizon)))
    else:
        tau_max = draw(st.floats(horizon / 16, horizon / 2))
        cap = draw(st.floats(1.5, a1_cap()))
        policy = AdaptiveStep(tau_min=horizon / 200, tau_max=tau_max, alpha=draw(st.floats(0.0, 1.0)), ratio_cap=cap)
    marks = draw(st.lists(st.integers(1, 999), max_size=4))
    return policy, horizon, [k * horizon / 1000 for k in marks]


class TestDriverKeepsA1:
    @settings(max_examples=25, deadline=None)
    @given(_capped_runs(), st.integers(0, 99))
    def test_every_run_lands_on_its_targets_within_the_cap(self, run, seed):
        policy, horizon, marks = run
        end, records = drive(small_state(seed, n=8), policy, horizon, checkpoints=marks)
        assert end.time == horizon
        assert set(landing_targets(policy, 0.0, horizon, marks)) <= {rec.t for rec in records}
        taus = [rec.tau for rec in records]
        assert all(b <= policy.ratio_cap * a for a, b in zip(taus, taus[1:]))
        # a step as long as the horizon can collapse this rough field (eta <= 0)
        assert validate_records(records, ratio_cap=policy.ratio_cap) == eta_problems(records)


def record_bits(records) -> bytes:
    """The float fields of records, record after record, as raw bytes."""
    return array("d", chain.from_iterable(map(record_values, records))).tobytes()


def assert_resumes_exactly(start, policy, t1, horizon):
    """Running to t1 and continuing from the returned state to the horizon
    gives the records and the final state, bit for bit, of one run to the
    horizon with t1 as a checkpoint."""
    whole_end, whole = drive(start(), policy, horizon, checkpoints=(t1,))
    mid, first = drive(start(), policy, t1)
    end, rest = drive(mid, policy, horizon)
    assert mid.time == t1
    assert len(first) + len(rest) == len(whole)
    assert record_bits(first + rest) == record_bits(whole)
    assert [rec.n for rec in first + rest] == [rec.n for rec in whole]
    for name in ("phi_bar_hat1", "phi_bar_hat2", "phi1", "phi2"):
        assert getattr(end, name).tobytes() == getattr(whole_end, name).tobytes()
    scalars = ("gamma", "prev_gamma", "prev_tau", "time", "step_index")
    assert [getattr(end, k) for k in scalars] == [getattr(whole_end, k) for k in scalars]


RESUME_H = 0.02


@st.composite
def _resumed_runs(draw):
    """A policy of each kind and a split time in (0.1 H, 0.9 H), a node of a
    prescribed mesh; the adaptive controller's energy rate shapes its steps."""
    kind = draw(st.sampled_from(["fixed", "mesh", "adaptive"]))
    if kind == "mesh":
        mesh = random_mesh(RESUME_H, draw(st.integers(8, 24)), draw(st.integers(0, 999)))
        nodes = [t for t in mesh.times.tolist() if 0.1 * RESUME_H < t < 0.9 * RESUME_H]
        return PrescribedMesh(mesh), draw(st.sampled_from(nodes))
    if kind == "fixed":
        policy = FixedStep(draw(st.floats(RESUME_H / 24, RESUME_H / 4)))
    else:
        tau_max = draw(st.floats(RESUME_H / 16, RESUME_H / 4))
        policy = AdaptiveStep(tau_min=RESUME_H / 50, tau_max=tau_max, alpha=draw(st.floats(1e-3, 1.0)))
    return policy, draw(st.floats(0.1 * RESUME_H, 0.9 * RESUME_H))


class TestResumption:
    @settings(max_examples=25, deadline=None)
    @given(_resumed_runs(), st.integers(0, 99))
    def test_a_resumed_run_takes_the_steps_of_one_run(self, run, seed):
        policy, t1 = run
        assert_resumes_exactly(lambda: small_state(seed, n=8), policy, t1, RESUME_H)

    def test_kissing_bubbles_resumes_with_the_controller_running(self):
        # the kissing_bubbles preset (eps^2 = 0.1, its adaptive policy) at
        # N = 32 to t = 0.2, split at t = 0.05, where the energy still falls
        # fast enough that the controller holds the step below tau_max; a
        # continued run that forgot the gamma before its first step would
        # see a zero rate there and step tau_max
        policy = AdaptiveStep(tau_min=1e-4, tau_max=7e-3, alpha=0.01)
        scenario = Scenario("kissing_bubbles", 2, 32, 2.0 * np.pi, math.sqrt(0.1), 0.2, policy)

        def start():
            return init_state(initial_field(scenario, Grid(2, 2.0 * np.pi, 32)), scenario.eps)

        _, whole = drive(start(), policy, 0.2, checkpoints=(0.05,))
        assert len(whole) == 80
        join = next(i for i, rec in enumerate(whole) if rec.t == 0.05) + 1
        assert whole[join].tau < policy.tau_max
        assert_resumes_exactly(start, policy, 0.05, 0.2)
