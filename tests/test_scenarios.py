"""Tests for benchmark initial data, scenario runs and the convergence
harness plumbing."""

import numpy as np
import pytest
from scipy import ndimage

from chsolver import (
    AdaptiveStep,
    DegenerateRatioError,
    DimMismatchError,
    FixedStep,
    Grid,
    Scenario,
    ic_bubble,
    ic_equilibrium,
    ic_kissing,
    ic_random,
    initial_field,
    order_of,
    run_convergence,
    run_scenario,
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
        rows = run_convergence(
            base_steps=8, levels=2, horizon=0.02, eps=0.5, seed=0, modes=16, ref_steps=200
        )
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
            run_convergence(1, 2, 0.1, 0.2, 0, 16)
