"""Tests for benchmark initial data, scenario runs and the convergence
harness plumbing, and the health of each preset's first steps at its
default size."""

from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from convergence_reference import reference_convergence
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from test_timestep import CAP, mixed_steps, seeded_mixed_draws

import chsolver.policies as policies
from chsolver import (
    AdaptiveStep,
    DegenerateRatioError,
    DimMismatchError,
    FixedStep,
    Grid,
    PrescribedMesh,
    Scenario,
    TimeMesh,
    advance,
    build_scenario,
    ic_bubble,
    ic_equilibrium,
    ic_kissing,
    ic_random,
    initial_field,
    order_of,
    parse_config,
    random_mesh,
    read_snapshot,
    run_convergence,
    run_scenario,
    run_with_policy,
)
from chsolver.scenarios import initial_state
from chsolver.spectral import h1_norm
from chsolver.timestep import LANDING_RTOL


def bubble(modes, eps, horizon, seed=0, dealias=False):
    """Convergence scenario; run_convergence replaces its policy."""
    return Scenario(
        "convergence", 2, modes, 2.0 * np.pi, eps, horizon, FixedStep(horizon), seed=seed, dealias=dealias
    )


def x_mirror(values):
    # index map j -> (N - j) mod N, the grid image of x -> L - x
    return np.roll(values[::-1, :], 1, axis=0)


def y_mirror(values):
    return np.roll(values[:, ::-1], 1, axis=1)


class TestBubble:
    def test_center_and_far_field(self):
        grid = Grid(2, 2.0 * np.pi, 64)
        u = ic_bubble(grid, eps=0.2).physical
        # center value -tanh(-1.5/0.8) = tanh(1.875)
        assert np.isclose(u[32, 32], np.tanh(1.875), atol=1e-12)
        assert np.isclose(u[32, 32], 0.9540452601799488, atol=1e-13)
        assert abs(u[0, 0] + 1.0) < 0.05

    def test_mirror_symmetric(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        u = ic_bubble(grid, eps=0.2).physical
        assert np.allclose(u, x_mirror(u), atol=1e-13)
        assert np.allclose(u, y_mirror(u), atol=1e-13)

    def test_positive_set_is_one_disk(self):
        grid = Grid(2, 2.0 * np.pi, 64)
        u = ic_bubble(grid, eps=0.2).physical
        assert ndimage.label(u > 0)[1] == 1
        # area fraction of a radius-1.5 disk in the 2pi box
        frac = float(np.mean(u > 0.0))
        assert abs(frac - np.pi * 1.5**2 / (2.0 * np.pi) ** 2) < 0.02

    def test_requires_2d(self):
        with pytest.raises(DimMismatchError, match="2d"):
            ic_bubble(Grid(3, 2.0 * np.pi, 8), eps=0.2)


class TestKissing:
    def test_background_and_kiss_point(self):
        grid = Grid(2, 2.0 * np.pi, 64)
        u = ic_kissing(grid, eps2=0.1).physical
        assert abs(u[0, 0] + 1.0) < 1e-3
        # at the tangency point both profiles vanish, leaving the +1 shift
        assert np.isclose(u[32, 32], 1.0, atol=1e-12)

    def test_axis_between_centers_balances_to_one(self):
        # between the centers d1 + d2 = 2, so the two tanh terms cancel and
        # the profile is exactly the +1 shift
        grid = Grid(2, 2.0 * np.pi, 64)
        u = ic_kissing(grid, eps2=0.1).physical
        x, _ = grid.coordinates()
        between = np.abs(x[:, 32] - np.pi) <= 1.0
        assert np.allclose(u[between, 32], 1.0, atol=1e-12)

    def test_mirror_symmetric(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        u = ic_kissing(grid, eps2=0.1).physical
        assert np.allclose(u, x_mirror(u), atol=1e-13)
        assert np.allclose(u, y_mirror(u), atol=1e-13)

    def test_positive_set_is_tangent_disk_pair(self):
        grid = Grid(2, 2.0 * np.pi, 128)
        u = ic_kissing(grid, eps2=0.1).physical
        assert ndimage.label(u > 0)[1] == 1
        frac = float(np.mean(u > 0.0))
        assert abs(frac - 2.0 * np.pi / (2.0 * np.pi) ** 2) < 0.03

    def test_validation(self):
        with pytest.raises(DimMismatchError):
            ic_kissing(Grid(3, 2.0 * np.pi, 8), eps2=0.1)
        with pytest.raises(ValueError, match="eps2"):
            ic_kissing(Grid(2, 2.0 * np.pi, 8), eps2=0.0)


class TestRandomIC:
    def test_range_and_mean(self):
        grid = Grid(2, 2.0 * np.pi, 64)
        u = ic_random(grid, seed=0).physical
        assert u.min() > 0.05 and u.max() < 0.65
        assert abs(u.mean() - 0.35) < 0.01

    def test_seeded_reproducibility(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        assert np.array_equal(ic_random(grid, seed=3).physical, ic_random(grid, seed=3).physical)
        assert not np.array_equal(ic_random(grid, seed=3).physical, ic_random(grid, seed=4).physical)

    def test_works_in_3d(self):
        grid = Grid(3, 2.0 * np.pi, 8)
        assert ic_random(grid, seed=1).physical.shape == (8, 8, 8)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_in_place_field_has_the_bits_of_the_expression(self, seed):
        grid = Grid(3, 2.0 * np.pi, 8)
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape)
        assert np.array_equal(ic_random(grid, seed).physical, 0.35 + 0.3 * u)


class TestScenarioRuns:
    def test_dispatch(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        policy = FixedStep(0.01)
        for name, ref in [
            ("convergence", ic_bubble(grid, 0.2)),
            ("kissing_bubbles", ic_kissing(grid, 0.2**2)),
            ("coarsening2d", ic_random(grid, 0)),
            ("equilibrium", ic_equilibrium(grid)),
        ]:
            sc = Scenario(name, 2, 16, 2.0 * np.pi, 0.2, 0.1, policy)
            assert np.array_equal(initial_field(sc, grid).physical, ref.physical)
        with pytest.raises(ValueError, match="unknown scenario"):
            initial_field(Scenario("bogus", 2, 16, 2.0 * np.pi, 0.2, 0.1, policy), grid)

    def test_equilibrium_run_with_snapshots(self):
        sc = Scenario(
            "equilibrium", 2, 16, 2.0 * np.pi, 1.0, 0.1, FixedStep(0.01),
            snapshot_times=(0.0, 0.05, 0.1),
        )
        records, snapshots = run_scenario(sc)
        assert len(records) == 10
        assert [t for t, _ in snapshots] == [0.0, 0.05, 0.1]
        for _, field in snapshots:
            assert np.allclose(field.physical, 1.0, atol=1e-12)
        assert records[-1].gamma == 1.0

    def test_coarsening_run_emits_monotone_gamma(self):
        sc = Scenario(
            "coarsening2d", 2, 16, 2.0 * np.pi, 0.3, 0.002,
            AdaptiveStep(tau_min=1e-5, tau_max=1e-4, alpha=0.01), seed=0,
        )
        records, snapshots = run_scenario(sc)
        assert snapshots == []
        gammas = [rec.gamma for rec in records]
        assert all(b <= a for a, b in zip(gammas, gammas[1:]))
        assert records[-1].t == pytest.approx(0.002)

    def test_3d_smoke(self):
        sc = Scenario("coarsening3d", 3, 8, 2.0 * np.pi, 0.5, 0.001, FixedStep(2e-4), seed=1)
        records, _ = run_scenario(sc)
        assert len(records) == 5
        assert all(np.isfinite(rec.gamma) for rec in records)


# the largest |1 - xi| a preset may reach in its first steps: beyond it the
# written field eta * phi_bar is far from the auxiliary one
XI_DEV_BOUND = 0.05
COLLAPSES = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="under the paper's scalar the noisy initial data of a coarsening preset at its default size "
    "drives xi far above 1 and eta = xi (2 - xi) below 1 or below 0 (ROADMAP item 17)",
)


class TestDefaultSizeHealth:
    """Each preset at its own n, with its own policy, for its first steps."""

    @pytest.mark.parametrize(
        "name,steps",
        [
            pytest.param("coarsening2d", 100, marks=COLLAPSES),
            pytest.param("coarsening3d", 20, marks=COLLAPSES),
            ("kissing_bubbles", 100),
            ("convergence", 100),
            ("equilibrium", 10),
        ],
    )
    def test_xi_stays_near_one(self, tmp_path, name, steps):
        # measured max |1 - xi|: coarsening2d 11.1 (min eta -122.3), coarsening3d
        # 0.576, kissing_bubbles 0.0051, convergence 0.0098, equilibrium 0
        config = tmp_path / "preset.cfg"
        config.write_text(f"scenario = {name}\n")
        sc = build_scenario(parse_config(str(config)))
        state, xi_dev = initial_state(sc), 0.0
        for _ in range(steps):
            tau = sc.policy.next_step(state.step_index + 1, state.prev_tau, state.prev_gamma, state.gamma)
            state, rec = advance(state, tau)
            xi_dev = max(xi_dev, abs(1.0 - rec.xi))
        assert state.time <= sc.horizon
        assert xi_dev < XI_DEV_BOUND


class _ListSink:
    """An on_step that logs each reached checkpoint, with a copy of its grid
    values when keep is set, then the step's record."""

    def __init__(self, keep=True):
        self.keep = keep
        self.events = []

    def __call__(self, state, rec, reached):
        for t, values in reached:
            self.events.append(("snapshot", t, values.copy() if self.keep else None))
        self.events.append(("record", rec.n, rec))


def run_into(sink, sc):
    """Runs sc with sink as the driver's on_step."""
    run_with_policy(initial_state(sc), sc.policy, sc.horizon, sc.snapshot_times, on_step=sink)


class TestStreamingAndRelease:
    @pytest.mark.parametrize(
        "sc,events",
        [
            (
                Scenario(
                    "coarsening2d", 2, 16, 2.0 * np.pi, 0.3, 0.05, FixedStep(0.01), seed=2,
                    snapshot_times=(0.0, 0.02, 0.05),
                ),
                [("snapshot", 0.0), ("record", 1), ("snapshot", 0.02), ("record", 2),
                 ("record", 3), ("record", 4), ("snapshot", 0.05), ("record", 5)],
            ),
            (
                Scenario(
                    "coarsening3d", 3, 8, 2.0 * np.pi, 0.3, 2e-4, FixedStep(5e-5), seed=2,
                    snapshot_times=(0.0, 5e-5, 1e-4, 2e-4),
                ),
                [("snapshot", 0.0), ("snapshot", 5e-5), ("record", 1), ("snapshot", 1e-4), ("record", 2),
                 ("record", 3), ("snapshot", 2e-4), ("record", 4)],
            ),
            (
                Scenario(
                    "kissing_bubbles", 2, 32, 2.0 * np.pi, 0.3, 0.02, FixedStep(0.005),
                    snapshot_times=(0.0, 0.01, 0.02),
                ),
                [("snapshot", 0.0), ("record", 1), ("snapshot", 0.01), ("record", 2),
                 ("record", 3), ("snapshot", 0.02), ("record", 4)],
            ),
        ],
        ids=["coarsening2d", "coarsening3d", "kissing_bubbles"],
    )
    def test_sink_gets_records_and_snapshots_as_they_happen(self, sc, events):
        kept_records, kept = run_scenario(sc)
        sink = _ListSink()
        run_into(sink, sc)
        assert [e[2] for e in sink.events if e[0] == "record"] == kept_records
        # the time-0 snapshot goes out with step 1; a step's snapshot precedes its record
        assert [e[:2] for e in sink.events] == events
        # the list path keeps each snapshot through later steps, which
        # recycle history buffers: none may be written into a kept one
        got = [e[2] for e in sink.events if e[0] == "snapshot"]
        assert len(kept) == len(got)
        for (t, field), values in zip(kept, got):
            assert np.array_equal(field.physical, values)
        assert np.array_equal(got[0], initial_field(sc, Grid(sc.dim, sc.length, sc.modes)).physical)

    @pytest.mark.parametrize("times,sink", [((), None), ((0.0, 0.04), _ListSink(keep=False))])
    def test_initial_state_is_released_after_step_two(self, monkeypatch, times, sink):
        # once the two-level history has moved past the initial field,
        # nothing in the run may keep its arrays alive: a buffer step 2
        # recycled lives on only as one of the state's own history arrays
        import gc
        import weakref

        import chsolver.policies as policies
        import chsolver.scenarios as scenarios

        array_refs, state_refs, alive = [], [], {}
        real_init, real_advance = scenarios.init_state, policies.advance

        def tracked_init(*args, **kwargs):
            state = real_init(*args, **kwargs)
            array_refs.extend(weakref.ref(a) for a in (state.phi1, state.phi_bar_hat1))
            state_refs.append(weakref.ref(state))
            return state

        def checked_advance(state, tau):
            if state.step_index == 2:
                gc.collect()
                history = (state.phi1, state.phi2, state.phi_bar_hat1, state.phi_bar_hat2)
                held = [r() for r in array_refs]
                alive[2] = (
                    [a is not None and not any(a is h for h in history) for a in held],
                    [r() is not None for r in state_refs],
                )
                del held
            return real_advance(state, tau)

        monkeypatch.setattr(scenarios, "init_state", tracked_init)
        monkeypatch.setattr(policies, "advance", checked_advance)
        sc = Scenario(
            "coarsening2d", 2, 16, 2.0 * np.pi, 0.3, 0.05, FixedStep(0.01), seed=2,
            snapshot_times=times,
        )
        run_scenario(sc) if sink is None else run_into(sink, sc)
        assert len(array_refs) == 2 and len(state_refs) == 1
        assert alive == {2: ([False, False], [False])}

    def test_step_two_recycles_the_initial_level(self, monkeypatch, tmp_path):
        # simulate writes the time-0 snapshot with step 1 and then lets the
        # initial level go: step 2 takes its buffers for f and pb_hat, and
        # the snapshot keeps the initial values
        import chsolver.cli as cli
        import chsolver.stepper as stepper

        held, shared = {}, []

        def capture(scenario):
            state = initial_state(scenario)
            held.update(u=state.phi1, c=state.phi_bar_hat1, u0=state.phi1.copy())
            return state

        def watched_forward(f):
            shared.append(("f", np.shares_memory(f, held["u"])))
            return real_forward(f)

        def watched_advance(state, tau):
            state, rec = real_advance(state, tau)
            shared.append(("pb_hat", np.shares_memory(state.phi_bar_hat1, held["c"])))
            return state, rec

        real_forward, real_advance = stepper.forward, policies.advance
        monkeypatch.setattr(cli, "initial_state", capture)
        monkeypatch.setattr(stepper, "forward", watched_forward)
        monkeypatch.setattr(policies, "advance", watched_advance)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = coarsening2d\nn = 16\nhorizon = 0.003\n[policy]\nkind = fixed\ntau = 0.001\n"
            "[output]\nsnapshots = 0.0, 0.003\n"
        )
        assert cli.main(["simulate", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
        # steps 1, 2, 3: only step 2 writes into the initial level
        assert shared == [("f", False), ("pb_hat", False), ("f", True), ("pb_hat", True),
                          ("f", False), ("pb_hat", False)]
        assert not np.array_equal(held["u"], held["u0"])
        snap = read_snapshot(tmp_path / "out" / "snap_000.bin")
        assert snap.time == 0.0 and snap.values.tobytes() == held["u0"].tobytes()


def assert_each_checkpoint_reported_once(sc):
    """Runs sc into a _ListSink.  Each snapshot time in [-tol, horizon + tol] must
    go out once, in time order, before the record of the first step that
    ends within tol of it or beyond (step 1 for a time within tol of 0), with
    the grid values of that step's state (the initial field for time 0);
    no other time goes out."""
    tol = LANDING_RTOL * sc.horizon
    levels = {0: initial_field(sc, Grid(sc.dim, sc.length, sc.modes)).physical}
    real_advance = policies.advance

    def recording_advance(state, tau):
        state, rec = real_advance(state, tau)
        levels[rec.n] = state.phi1.copy()
        return state, rec

    sink = _ListSink()
    with mock.patch.object(policies, "advance", recording_advance):
        run_into(sink, sc)
    records = [e[2] for e in sink.events if e[0] == "record"]
    marks = sorted({t for t in sc.snapshot_times if -tol <= t <= sc.horizon + tol})
    step = {t: 0 if t <= tol else next(rec.n for rec in records if rec.t >= t - tol) for t in marks}
    expected = []
    for rec in records:
        expected += [("snapshot", t, step[t]) for t in marks if max(step[t], 1) == rec.n]
        expected.append(("record", rec.n))
    assert [e[:2] for e in sink.events] == [e[:2] for e in expected]
    for got, want in zip(sink.events, expected):
        if got[0] == "snapshot":
            assert np.array_equal(got[2], levels[want[2]])


H = 0.01
TOL = LANDING_RTOL * H

_policies = st.one_of(
    st.floats(H / 20, H / 3).map(FixedStep),
    st.builds(AdaptiveStep, tau_min=st.just(H / 100), tau_max=st.floats(H / 20, H / 4), alpha=st.floats(0.0, 100.0)),
    st.builds(lambda count, seed: PrescribedMesh(random_mesh(H, count, seed)), st.integers(2, 16), st.integers(0, 999)),
)


@st.composite
def _checkpointed_runs(draw):
    """A policy and snapshot times: clusters within TOL of each other around
    0, the horizon and up to three interior times (nodes of a prescribed
    mesh), plus one time below -TOL and one beyond the horizon + TOL."""
    policy = draw(_policies)
    if isinstance(policy, PrescribedMesh):
        interior = st.sampled_from(policy.mesh.times[1:-1].tolist())
    else:
        interior = st.floats(0.05 * H, 0.95 * H)
    bases = [0.0, H, *draw(st.lists(interior, max_size=3))]
    offsets = st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=3)
    times = [b + f * TOL for b in bases for f in draw(offsets)]
    return policy, (*times, -2.0 * TOL, H + 2.0 * TOL)


class TestCheckpointReporting:
    @settings(max_examples=30, deadline=None)
    @given(_checkpointed_runs())
    def test_each_checkpoint_goes_out_once_with_its_step(self, run):
        policy, times = run
        assert_each_checkpoint_reported_once(
            Scenario("coarsening2d", 2, 8, 2.0 * np.pi, 0.3, H, policy, seed=3, snapshot_times=times)
        )

    def test_a_step_shorter_than_tol_is_rejected_before_step_one(self):
        # step 40 of this mesh is shorter than tol, so steps 39 and 40 both
        # end within tol of node 40: step 39 would land on node 40, with its
        # snapshot, and every later clock would run 5e-13 ahead of its node
        steps = mixed_steps(seeded_mixed_draws(32), 60)
        mesh = TimeMesh(np.append(steps, steps[-1] * CAP), delta=0.01)
        assert mesh.steps[39] < LANDING_RTOL * mesh.horizon
        times = tuple(mesh.times[[20, 40, 59]].tolist())
        sc = Scenario("coarsening2d", 2, 16, 2.0 * np.pi, 0.3, mesh.horizon, PrescribedMesh(mesh), seed=1,
                      snapshot_times=times)
        sink = _ListSink()
        with pytest.raises(policies.LandingError, match=f"^mesh step 40 \\({mesh.tau(40)!r}\\) is not longer than"):
            run_into(sink, sc)
        assert sink.events == []


class TestOrderComputation:
    def test_exact_halving(self):
        assert order_of(4e-4, 1e-4, 2e-3, 1e-3) == pytest.approx(2.0)

    def test_general_ratio(self):
        expected = np.log(5e-2 / 9e-3) / np.log(3.0)
        assert order_of(5e-2, 9e-3, 3e-3, 1e-3) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            order_of(0.0, 1e-4, 2e-3, 1e-3)
        with pytest.raises(DegenerateRatioError):
            order_of(4e-4, 1e-4, 1e-3, 1e-3)


class TestConvergenceHarness:
    def test_row_structure_at_desk_scale(self):
        rows = run_convergence(bubble(modes=16, eps=0.5, horizon=0.02), base_steps=8, levels=2, ref_steps=200)
        assert [r.steps for r in rows] == [8, 16]
        assert np.isnan(rows[0].h1_order) and np.isnan(rows[0].gamma_order)
        assert np.isfinite(rows[1].h1_order) and np.isfinite(rows[1].gamma_order)
        for r in rows:
            assert r.h1_error > 0.0 and r.gamma_error >= 0.0
            assert 0.0 < r.tau < 0.02
            assert r.max_ratio < 4.86
            assert r.xi_dev > 0.0
        assert rows[1].tau < rows[0].tau

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="base_steps"):
            run_convergence(bubble(modes=16, eps=0.2, horizon=0.1), 1, 2, 12800)

    @pytest.mark.parametrize("dealias", [False, True])
    def test_rows_equal_hand_driven_reference(self, dealias):
        scenario = bubble(modes=16, eps=0.5, horizon=0.02, seed=4, dealias=dealias)
        rows = run_convergence(scenario, base_steps=6, levels=3, ref_steps=120)
        expected = reference_convergence(
            base_steps=6, levels=3, horizon=0.02, eps=0.5, seed=4, modes=16, ref_steps=120, dealias=dealias
        )
        assert len(rows) == len(expected) == 3
        for row, ref in zip(rows, expected):
            assert np.array_equal(astuple(row), astuple(ref), equal_nan=True)

    def test_uses_the_scenario_initial_field(self):
        # a constant phase is stationary, so every level and the reference agree
        scenario = Scenario("equilibrium", 2, 16, 2.0 * np.pi, 1.0, 0.02, FixedStep(0.02))
        rows = run_convergence(scenario, base_steps=4, levels=1, ref_steps=10)
        assert rows[0].h1_error < 1e-12


def halved(steps, j):
    """steps with each step cut into 2**j equal ones: every ratio between
    the original steps is kept, and the new ones inside a step are 1."""
    return TimeMesh(np.repeat(np.asarray(steps) / 2**j, 2**j))


class TestOrderOnTheDriversMesh:
    """Second order on a mesh the driver emits: the steps of an adaptive
    run, replayed as a PrescribedMesh and refined by halving every step."""

    def test_kissing_bubbles_adaptive_mesh(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = kissing_bubbles\nn = 32\nhorizon = 0.05\n[output]\nsnapshots =\n")
        scenario = build_scenario(parse_config(str(config)))
        records, _ = run_scenario(scenario)
        steps = [rec.tau for rec in records]
        assert len(steps) == 44
        assert 1.2 < max(b / a for a, b in zip(steps, steps[1:])) < 1.25

        def final(j):
            mesh = halved(steps, j)
            policy, horizon = PrescribedMesh(mesh), mesh.horizon
            _, [(_, phi)] = run_scenario(replace(scenario, policy=policy, horizon=horizon, snapshot_times=(horizon,)))
            return phi, mesh.steps.max()

        reference, _ = final(6)
        errors, taus = [], []
        for j in range(4):
            phi, tau = final(j)
            errors.append(h1_norm(phi.grid, phi.coefficients - reference.coefficients))
            taus.append(tau)
        assert errors == sorted(errors, reverse=True)
        assert 1.7 <= order_of(errors[-2], errors[-1], taus[-2], taus[-1]) <= 2.3
