"""Tests for the variable-step weights, meshes, and verification kernels.

The back-substituted theta and p kernels are checked against a dense
triangular solve of their defining linear systems, and the positivity
chain is exercised by Monte Carlo over random admissible meshes.
"""

import numpy as np
import pytest

import chsolver.timestep as ts
from chsolver import (
    A1ViolationError,
    SingularKernelError,
    TimeMesh,
    bdf2_apply,
    bdf_weights,
    dcc_kernels,
    doc_kernels,
    kernel_residuals,
    quadratic_form_check,
    r_max_root,
    random_mesh,
)

R_MAX = 4.864536512317584


def convolution_matrix(mesh, n):
    """Dense lower-triangular M with M[j-1, k-1] = b^{(j)}_{j-k}."""
    mat = np.zeros((n, n))
    for j in range(1, n + 1):
        b0, b1 = bdf_weights(mesh.tau(j), mesh.ratio(j))
        mat[j - 1, j - 1] = b0
        if j >= 2:
            mat[j - 1, j - 2] = b1
    return mat


def dense_kernels(mesh, n):
    """(theta, p) for row n via a direct solve of the defining systems."""
    mat = convolution_matrix(mesh, n)
    unit = np.zeros(n)
    unit[n - 1] = 1.0
    theta_by_j = np.linalg.solve(mat.T, unit)
    p_by_j = np.linalg.solve(mat.T, np.ones(n))
    return theta_by_j[::-1], p_by_j[::-1]


class TestRootAndWeights:
    def test_r_max_value(self):
        r = r_max_root()
        assert abs(r - R_MAX) < 1e-14
        assert abs(r**3 - (2.0 * r + 1.0) ** 2) < 1e-10

    def test_backward_euler_weights(self):
        assert bdf_weights(0.5, 0.0) == (2.0, 0.0)

    def test_two_step_weights(self):
        # tau = (1, 2): r = 2, b0 = 5/(2*3), b1 = -4/(2*3)
        b0, b1 = bdf_weights(2.0, 2.0)
        assert np.isclose(b0, 5.0 / 6.0)
        assert np.isclose(b1, -2.0 / 3.0)

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            bdf_weights(0.0, 1.0)
        with pytest.raises(ValueError, match="ratio must be nonnegative"):
            bdf_weights(1.0, -0.5)

    def test_consistency_identity(self):
        # b0 tau_n + b1 tau_{n-1} = 1 for every admissible pair
        rng = np.random.default_rng(0)
        for _ in range(50):
            tau_prev = rng.uniform(0.1, 2.0)
            r = rng.uniform(0.01, 4.8)
            tau = r * tau_prev
            b0, b1 = bdf_weights(tau, r)
            assert np.isclose(b0 * tau + b1 * tau_prev, 1.0, atol=1e-13)

    def test_difference_operator_exactness(self):
        # D2 differentiates linears exactly everywhere and quadratics from
        # the second step on
        mesh = random_mesh(2.0, 30, seed=5)
        lin = [2.0 * mesh.time(j) + 1.0 for j in range(31)]
        quad = [mesh.time(j) ** 2 for j in range(31)]
        d_lin = bdf2_apply(mesh, lin)
        d_quad = bdf2_apply(mesh, quad)
        for j in range(1, 31):
            assert np.isclose(d_lin[j - 1], 2.0, atol=1e-11)
            if j >= 2:
                assert np.isclose(d_quad[j - 1], 2.0 * mesh.time(j), atol=1e-10)

    def test_bdf2_apply_needs_two_values(self):
        mesh = TimeMesh([1.0])
        with pytest.raises(ValueError, match="at least"):
            bdf2_apply(mesh, [1.0])


class TestTimeMesh:
    def test_times_and_indexing(self):
        mesh = TimeMesh([0.5, 1.0, 0.25])
        assert len(mesh) == 3
        assert mesh.count == 3
        assert np.allclose(mesh.times, [0.0, 0.5, 1.5, 1.75])
        assert mesh.horizon == 1.75
        assert mesh.tau(2) == 1.0
        assert mesh.time(0) == 0.0
        assert mesh.ratio(1) == 0.0
        assert mesh.ratio(3) == 0.25
        assert mesh.max_ratio == 2.0

    def test_index_bounds(self):
        mesh = TimeMesh([1.0, 1.0])
        with pytest.raises(IndexError):
            mesh.tau(0)
        with pytest.raises(IndexError):
            mesh.tau(3)
        with pytest.raises(IndexError):
            mesh.time(-1)

    def test_validation(self):
        with pytest.raises(ValueError, match="finite and positive"):
            TimeMesh([1.0, -0.5])
        with pytest.raises(ValueError, match="finite and positive"):
            TimeMesh([np.nan])
        with pytest.raises(ValueError, match="nonempty"):
            TimeMesh([])
        with pytest.raises(ValueError, match="delta"):
            TimeMesh([1.0], delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            TimeMesh([1.0], delta=5.0)

    def test_ratio_condition(self):
        ok = TimeMesh([1.0, 4.0])
        assert ok.satisfies_a1()
        ok.require_a1()
        bad = TimeMesh([1.0, 5.0])
        assert not bad.satisfies_a1()
        with pytest.raises(A1ViolationError, match="exceeds"):
            bad.require_a1()

    def test_steps_are_read_only(self):
        mesh = TimeMesh([1.0, 2.0])
        with pytest.raises(ValueError):
            mesh.steps[0] = 3.0

    def test_random_mesh_properties(self):
        mesh = random_mesh(2.5, 100, seed=9)
        assert mesh.count == 100
        assert np.isclose(mesh.horizon, 2.5, rtol=1e-12)
        assert mesh.max_ratio < 4.86
        assert mesh.satisfies_a1()
        assert np.isclose(mesh.delta, R_MAX - 4.86)
        again = random_mesh(2.5, 100, seed=9)
        assert np.array_equal(mesh.steps, again.steps)
        other = random_mesh(2.5, 100, seed=10)
        assert not np.array_equal(mesh.steps, other.steps)

    def test_random_mesh_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            random_mesh(0.0, 10, seed=0)
        with pytest.raises(ValueError, match="count"):
            random_mesh(1.0, 1, seed=0)


class TestKernels:
    def test_uniform_two_step_values(self):
        mesh = TimeMesh([1.0, 1.0])
        assert np.allclose(doc_kernels(mesh, 1), [1.0])
        assert np.allclose(doc_kernels(mesh, 2), [2.0 / 3.0, 1.0 / 3.0])
        assert np.allclose(dcc_kernels(mesh, 2), [2.0 / 3.0, 4.0 / 3.0])

    def test_first_row_is_inverse_leading_weight(self):
        mesh = TimeMesh([0.25, 0.5])
        assert np.allclose(doc_kernels(mesh, 1), [0.25])
        assert np.allclose(dcc_kernels(mesh, 1), [0.25])

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_matches_dense_solve(self, n):
        mesh = random_mesh(1.0, max(n, 2), seed=100 + n)
        theta_ref, p_ref = dense_kernels(mesh, n)
        theta = doc_kernels(mesh, n)
        p = dcc_kernels(mesh, n)
        assert np.allclose(theta, theta_ref, rtol=1e-12, atol=1e-15)
        assert np.allclose(p, p_ref, rtol=1e-12, atol=1e-15)

    def test_p_is_cumulative_theta(self):
        # p^{(n)}_{n-j} = sum_{l=j}^{n} theta^{(l)}_{l-j}
        mesh = random_mesh(1.0, 30, seed=14)
        n = 30
        p = dcc_kernels(mesh, n)
        acc = np.zeros(n)
        for l in range(1, n + 1):
            theta = doc_kernels(mesh, l)
            for j in range(1, l + 1):
                acc[n - j] += theta[l - j]
        assert np.allclose(p, acc, rtol=1e-12)

    def test_positivity_on_admissible_meshes(self):
        for seed in range(5):
            mesh = random_mesh(1.0, 50, seed=seed)
            for n in (1, 10, 50):
                assert np.all(doc_kernels(mesh, n) > 0.0)
                assert np.all(dcc_kernels(mesh, n) > 0.0)

    def test_sum_and_bound(self):
        mesh = random_mesh(3.0, 60, seed=15)
        for n in (1, 2, 33, 60):
            p = dcc_kernels(mesh, n)
            assert np.isclose(p.sum(), mesh.time(n), rtol=1e-13)
            assert p.max() <= 2.0 * mesh.steps.max()

    def test_residuals_are_tiny(self):
        mesh = random_mesh(1.0, 80, seed=16)
        rng = np.random.default_rng(16)
        res = kernel_residuals(mesh, 80, values=list(rng.normal(size=81)))
        assert res.doc_orthogonality < 1e-13
        assert res.dcc_identity < 1e-13
        assert res.dcc_sum < 1e-13
        assert res.dcc_bound_margin <= 0.0
        assert res.telescoping < 1e-12

    def test_residuals_default_sequence(self):
        mesh = random_mesh(1.0, 25, seed=17)
        res = kernel_residuals(mesh, 25)
        assert res.telescoping < 1e-13

    def test_residuals_length_check(self):
        mesh = random_mesh(1.0, 10, seed=18)
        with pytest.raises(ValueError, match="sequence values"):
            kernel_residuals(mesh, 10, values=[0.0] * 5)

    def test_singular_weight_detected(self, monkeypatch):
        # b0 > 0 for every valid mesh, so force a corrupted weight
        mesh = TimeMesh([1.0, 1.0])
        monkeypatch.setattr(ts, "bdf_weights", lambda tau, r: (-1.0, 0.0))
        with pytest.raises(SingularKernelError):
            doc_kernels(mesh, 2)


class TestQuadraticForm:
    def test_single_step_closed_form(self):
        # n = 1: lhs = 2 tau w^2, rhs = (delta/20) tau w^2
        mesh = TimeMesh([1.0], delta=0.01)
        chk = quadratic_form_check(mesh, [1.0])
        assert np.isclose(chk.lhs, 2.0)
        assert np.isclose(chk.rhs, 0.01 / 20.0)
        assert chk.passed

    def test_monte_carlo(self):
        rng = np.random.default_rng(19)
        for trial in range(200):
            n = int(rng.integers(1, 60))
            mesh = random_mesh(1.0, max(n, 2), seed=3000 + trial)
            chk = quadratic_form_check(mesh, rng.normal(size=n))
            assert chk.passed
            assert chk.lhs >= chk.rhs - 1e-10
            assert chk.rhs >= 0.0

    def test_requires_admissible_mesh(self):
        mesh = TimeMesh([1.0, 5.0])
        with pytest.raises(A1ViolationError):
            quadratic_form_check(mesh, [1.0, 1.0])

    def test_input_validation(self):
        mesh = TimeMesh([1.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            quadratic_form_check(mesh, [])
