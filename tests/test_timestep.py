"""Tests for the variable-step weights, meshes, and verification kernels.

The column-swept theta and p kernels are checked against a dense
triangular solve of their defining linear systems and against the per-row
loops of kernel_reference, and their matrix identities are property-tested
over random meshes.  The positivity chain, checked by two substitutions, is
compared with the matrix products and the loop reference and exercised by
Monte Carlo over random admissible meshes and over meshes at the edges of
the ratio condition A1: a sawtooth on the cap, cycles of growth at the cap
and one deep drop, and drawn mixtures of near-cap and tiny ratios.  Short
geometric growth just past r_max shows that A1 is sharp, and long cycles
of growth at the cap hold the chain on the direction it is tightest on.
A bubble run on a mesh whose second step is a thousandth of its first keeps
H1 order two under refinement: the BDF1 first step costs no order.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import chsolver.timestep as ts
import kernel_reference
from chsolver import (
    A1ViolationError,
    FixedStep,
    Grid,
    PrescribedMesh,
    SingularKernelError,
    TimeMesh,
    bdf_weights,
    dcc_kernels,
    doc_kernels,
    ic_bubble,
    ic_random,
    init_state,
    kernel_matrices,
    kernel_residuals,
    order_of,
    quadratic_form_check,
    r_max_root,
    random_mesh,
    validate_records,
)
from chsolver.spectral import forward, h1_norm
from chsolver.timestep import LANDING_RTOL, landing_tol
from record_reference import eta_problems
from test_policies import drive

R_MAX = 4.864536512317584
CAP = R_MAX - 0.01


def chained_steps(first, ratios):
    """tau_1 = first and tau_k = tau_{k-1} r_k, each product rounded down
    where needed so that the mesh's ratio tau_k / tau_{k-1} never exceeds r_k."""
    steps = [first]
    for r in ratios:
        tau = steps[-1] * r
        while tau / steps[-1] > r:
            tau = math.nextafter(tau, 0.0)
        steps.append(tau)
    return np.array(steps)


def matrix_form(mesh, w):
    """(lhs, rhs) of the positivity chain by products with kernel_matrices."""
    theta, _ = kernel_matrices(mesh, w.size)
    lhs = 2.0 * float(w @ (theta @ w))
    rhs = float(np.sum((w @ theta) ** 2 / mesh.steps[: w.size])) * (mesh.delta / 20.0)
    return lhs, rhs


def assert_form_matches(mesh, w):
    """quadratic_form_check agrees with the matrix products and the loop
    reference to rel 1e-12, and the chain holds."""
    chk = quadratic_form_check(mesh, w)
    assert chk.passed
    for lhs, rhs in (matrix_form(mesh, w), kernel_reference.quadratic_form(mesh, w)):
        assert chk.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
        assert chk.rhs == pytest.approx(rhs, rel=1e-12, abs=0)


def assert_residuals_hold(mesh, n, seed):
    """The bounds of TestKernels.test_residuals_are_tiny, for the default
    sequence (t_j / t_n)^2 and for standard normal values."""
    values = np.random.default_rng(seed).normal(size=n + 1)
    for res in (kernel_residuals(mesh, n), kernel_residuals(mesh, n, values=values)):
        assert res.doc_orthogonality.max() < 1e-13
        assert res.dcc_identity.max() < 1e-13
        assert res.dcc_sum.max() < 1e-13
        assert res.dcc_bound_margin.max() <= 0.0
        assert res.telescoping.max() < 1e-12


def assert_run_keeps_guarantees(mesh):
    """A coarsening2d N=32 run on the mesh: gamma never increases, the
    per-step identity and mass hold, and no ratio exceeds CAP.  The check
    reports nothing else than the steps that collapse the field (eta <= 0),
    each of them."""
    grid = Grid(2, 2.0 * np.pi, 32)
    phi0 = ic_random(grid, 1)
    state = init_state(phi0, 0.3)
    gamma0, mass0 = state.gamma, phi0.integral()
    _, records = drive(state, PrescribedMesh(mesh), mesh.horizon)
    # the driver replays the mesh bit for bit, the landing step included
    assert [rec.tau for rec in records] == mesh.steps.tolist()
    problems = validate_records(records, gamma0=gamma0, mass0=mass0, volume=grid.volume, ratio_cap=CAP)
    assert problems == eta_problems(records)


def convolution_matrix(mesh, n):
    """Dense lower-triangular M with M[j-1, k-1] = b^{(j)}_{j-k}."""
    mat = np.zeros((n, n))
    for j in range(1, n + 1):
        b0, b1 = bdf_weights(mesh.tau(j), mesh.ratios[j - 1])
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
        assert r == R_MAX
        assert abs(r**3 - (2.0 * r + 1.0) ** 2) < 1e-10

    def test_r_max_is_the_correctly_rounded_root(self):
        def residual(x):
            x = Fraction(x)
            return x**3 - (2 * x + 1) ** 2

        r = r_max_root()
        up = math.nextafter(r, 5.0)
        assert residual(r) < 0 < residual(up)
        assert abs(residual(r)) < abs(residual(up))

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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_nonfinite_tau_rejected(self, tau):
        # inf once gave a zero leading weight (0.0, -0.0), nan gave (nan, nan)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            bdf_weights(tau, 0.5)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_nonfinite_ratio_rejected(self, r):
        with pytest.raises(ValueError, match="ratio must be nonnegative and finite"):
            bdf_weights(0.5, r)

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
        lin = [2.0 * mesh.times[j] + 1.0 for j in range(31)]
        quad = [mesh.times[j] ** 2 for j in range(31)]
        d_lin = kernel_reference.bdf2_apply(mesh, lin)
        d_quad = kernel_reference.bdf2_apply(mesh, quad)
        for j in range(1, 31):
            assert np.isclose(d_lin[j - 1], 2.0, atol=1e-11)
            if j >= 2:
                assert np.isclose(d_quad[j - 1], 2.0 * mesh.times[j], atol=1e-10)

    def test_bdf2_apply_needs_two_values(self):
        mesh = TimeMesh([1.0])
        with pytest.raises(ValueError, match="at least"):
            kernel_reference.bdf2_apply(mesh, [1.0])


class TestTimeMesh:
    def test_times_and_indexing(self):
        mesh = TimeMesh([0.5, 1.0, 0.25])
        assert len(mesh) == 3
        assert mesh.count == 3
        assert np.allclose(mesh.times, [0.0, 0.5, 1.5, 1.75])
        assert mesh.horizon == 1.75
        assert mesh.tau(2) == 1.0
        assert mesh.ratios[0] == 0.0
        assert mesh.ratios[2] == 0.25
        assert mesh.max_ratio == 2.0

    def test_index_bounds(self):
        mesh = TimeMesh([1.0, 1.0])
        with pytest.raises(IndexError):
            mesh.tau(0)
        with pytest.raises(IndexError):
            mesh.tau(3)

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
        # the config's range and message: a margin must leave a cap above 1
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, r_max - 1\), got 4\.0$"):
            TimeMesh([1.0], delta=4.0)

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
            assert np.isclose(p.sum(), mesh.times[n], rtol=1e-13)
            assert p.max() <= 2.0 * mesh.steps.max()

    def test_residuals_are_tiny(self):
        mesh = random_mesh(1.0, 80, seed=16)
        rng = np.random.default_rng(16)
        res = kernel_residuals(mesh, 80, values=list(rng.normal(size=81)))
        for column in (res.doc_orthogonality, res.dcc_identity, res.dcc_sum, res.telescoping):
            assert column.shape == (80,)
        assert res.doc_orthogonality.max() < 1e-13
        assert res.dcc_identity.max() < 1e-13
        assert res.dcc_sum.max() < 1e-13
        assert res.dcc_bound_margin.max() <= 0.0
        assert res.telescoping.max() < 1e-12

    def test_residuals_default_sequence(self):
        mesh = random_mesh(1.0, 25, seed=17)
        res = kernel_residuals(mesh, 25)
        assert res.telescoping.max() < 1e-13

    @pytest.mark.parametrize("horizon", [1e-300, 1e300])
    def test_default_sequence_holds_at_any_horizon(self, horizon):
        # t_j^2 itself overflows above a horizon of about 1e154 and underflows
        # below about 1e-154
        mesh = random_mesh(horizon, 12, seed=17)
        with np.errstate(all="raise"):
            res = kernel_residuals(mesh, 12)
        assert res.telescoping.max() < 1e-16

    def test_residuals_length_check(self):
        mesh = random_mesh(1.0, 10, seed=18)
        with pytest.raises(ValueError, match="sequence values"):
            kernel_residuals(mesh, 10, values=[0.0] * 5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda mesh: doc_kernels(mesh, 2),
            lambda mesh: dcc_kernels(mesh, 2),
            lambda mesh: kernel_residuals(mesh, 2),
            lambda mesh: quadratic_form_check(mesh, [1.0, 1.0]),
        ],
        ids=["doc_kernels", "dcc_kernels", "kernel_residuals", "quadratic_form_check"],
    )
    def test_singular_weight_detected(self, monkeypatch, call):
        # b0 > 0 for every admissible mesh, so corrupt the weight table
        weights = ts._weights

        def corrupted(tau, r):
            b0, b1 = weights(tau, r)
            return -b0, b1

        monkeypatch.setattr(ts, "_weights", corrupted)
        with pytest.raises(SingularKernelError):
            call(TimeMesh([1.0, 1.0]))

    @pytest.mark.parametrize("func", [doc_kernels, dcc_kernels, kernel_residuals])
    def test_overflowing_weight_detected(self, func):
        # ratio 1e305: tau (1 + r) overflows to inf and b0 rounds to 0
        with np.errstate(all="ignore"), pytest.raises(SingularKernelError):
            func(TimeMesh([1e-5, 1e300]), 2)


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
            w = rng.normal(size=n)
            chk = quadratic_form_check(mesh, w)
            assert chk.passed
            assert chk.lhs >= chk.rhs - 1e-10
            assert chk.rhs >= 0.0
            assert_form_matches(mesh, w)

    def test_linear_memory(self):
        # one n x n array at n = 10^4 would take 800 MB; the check holds O(n)
        n = 10_000
        mesh = random_mesh(1.0, n, seed=23)
        w = np.random.default_rng(23).normal(size=n)
        tracemalloc.start()
        try:
            chk = quadratic_form_check(mesh, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chk.passed
        assert peak < 400 * n

    def test_returns_plain_python_types(self):
        chk = quadratic_form_check(random_mesh(1.0, 5, seed=2), [1.0, -2.0, 0.5, 3.0, -1.0])
        assert type(chk.lhs) is float
        assert type(chk.rhs) is float
        assert type(chk.passed) is bool

    def test_requires_admissible_mesh(self):
        mesh = TimeMesh([1.0, 5.0])
        with pytest.raises(A1ViolationError):
            quadratic_form_check(mesh, [1.0, 1.0])

    def test_input_validation(self):
        mesh = TimeMesh([1.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            quadratic_form_check(mesh, [])


class TestLoopReference:
    """The whole-matrix toolbox against the per-row loops it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200, 400])
    def test_every_row_matches_loops(self, n):
        mesh = random_mesh(1.0, max(n, 2), seed=200 + n)
        theta, p = kernel_matrices(mesh, n)
        assert theta.shape == p.shape == (n, n)
        assert not np.triu(theta, 1).any() and not np.triu(p, 1).any()
        for i in range(1, n + 1):
            theta_ref = kernel_reference.doc_row(mesh, i)
            p_ref = kernel_reference.dcc_row(mesh, i)
            np.testing.assert_allclose(theta[i - 1, i - 1 :: -1], theta_ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose(p[i - 1, i - 1 :: -1], p_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(doc_kernels(mesh, n), theta_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(dcc_kernels(mesh, n), p_ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("values", [None, "random"])
    def test_residual_rows_match_loops(self, values):
        n = 60
        mesh = random_mesh(1.0, n, seed=21)
        if values == "random":
            values = np.random.default_rng(21).normal(size=n + 1)
        res = kernel_residuals(mesh, n, values=values)
        for i in range(1, n + 1):
            row_values = None if values is None else values[: i + 1]
            doc, dcc, dsum, margin, tel = kernel_reference.residual_row(mesh, i, row_values)
            # both at rounding level, so compared absolutely
            assert abs(res.doc_orthogonality[i - 1] - doc) <= 1e-13
            assert abs(res.dcc_identity[i - 1] - dcc) <= 1e-13
            assert abs(res.dcc_sum[i - 1] - dsum) <= 1e-13
            assert abs(res.telescoping[i - 1] - tel) <= 1e-13
            assert res.dcc_bound_margin[i - 1] == pytest.approx(margin, rel=1e-13, abs=0)

    def test_bdf2_apply_matches_loop_on_fields(self):
        mesh = random_mesh(1.0, 6, seed=22)
        fields = np.random.default_rng(22).normal(size=(7, 3, 4))
        b0, b1 = kernel_reference.weight_table(mesh, 6)
        d = kernel_reference.bdf2_apply(mesh, fields)
        assert d.shape == (6, 3, 4)
        for j in range(1, 7):
            want = b0[j] * (fields[j] - fields[j - 1])
            if j >= 2:
                want = want + b1[j] * (fields[j - 1] - fields[j - 2])
            np.testing.assert_allclose(d[j - 1], want, rtol=1e-14, atol=1e-14)


class TestKernelMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(2, 150), seed=st.integers(0, 2**32 - 1))
    def test_matrix_identities(self, count, seed):
        mesh = random_mesh(1.0, count, seed)
        theta, p = kernel_matrices(mesh, count)
        lower = np.tril(np.ones((count, count), dtype=bool))
        b = convolution_matrix(mesh, count)
        # Theta B = I and P B = 1 on the lower triangle
        assert np.abs((theta @ b - np.eye(count))[lower]).max() <= 1e-13
        assert np.abs((p @ b - 1.0)[lower]).max() <= 1e-13
        # P is the cumulative sum of Theta down each column
        np.testing.assert_allclose(p[lower], np.cumsum(theta, axis=0)[lower], rtol=1e-12, atol=0)
        assert np.all(theta[lower] > 0.0)
        assert np.all(p[lower] > 0.0)
        np.testing.assert_allclose(p.sum(axis=1), mesh.times[1:], rtol=1e-13, atol=0)


class TestSawtoothMesh:
    """A1 where it is tight: 120 steps whose ratios alternate between
    r_max - 0.01 and its reciprocal.  random_mesh draws a ratio this close
    to the cap only rarely, and never one below 1/4.86."""

    @staticmethod
    def mesh():
        # a power-of-two short step makes every ratio exactly CAP or fl(1/CAP)
        short = 2.0**-17
        return TimeMesh(np.tile([short, short * CAP], 60), delta=0.01)

    def test_ratios_sit_on_the_cap(self):
        mesh = self.mesh()
        assert mesh.count == 120
        assert np.all(mesh.ratios[1::2] == CAP)
        assert np.all(mesh.ratios[2::2] == 1.0 / CAP)
        assert mesh.satisfies_a1()

    def test_quadratic_form_check_passes(self):
        mesh = self.mesh()
        rng = np.random.default_rng(40)
        draws = [np.ones(120), (-1.0) ** np.arange(120)] + [rng.normal(size=120) for _ in range(20)]
        for w in draws:
            chk = quadratic_form_check(mesh, w)
            assert chk.passed
            assert chk.lhs >= chk.rhs >= 0.0

    def test_substitutions_match_matrix_products(self):
        mesh = self.mesh()
        rng = np.random.default_rng(42)
        for w in (np.ones(120), (-1.0) ** np.arange(120), rng.normal(size=120), rng.normal(size=57)):
            assert_form_matches(mesh, w)

    def test_kernel_residuals_hold(self):
        assert_residuals_hold(self.mesh(), 120, seed=41)

    def test_coarsening2d_run_keeps_the_guarantees(self):
        assert_run_keeps_guarantees(self.mesh())


class TestGrowthDropMesh:
    """A1 at both ends in one cycle: four steps of geometric growth at ratio
    CAP, then one drop at ratio CAP^-4 (about 1.8e-3) back to the cycle's
    first step, so every cycle repeats the first."""

    @staticmethod
    def mesh(cycles):
        return TimeMesh(np.tile(chained_steps(2.0**-17, [CAP] * 4), cycles), delta=0.01)

    def test_ratios_sit_on_the_cap_and_drop(self):
        mesh = self.mesh(3)
        cycles = mesh.steps.reshape(3, 5)
        assert np.all(cycles == cycles[0])
        growth = mesh.ratios.reshape(3, 5)[:, 1:]
        np.testing.assert_allclose(growth, CAP, rtol=1e-15, atol=0)
        assert growth.max() <= CAP
        np.testing.assert_allclose(mesh.ratios[5::5], CAP**-4, rtol=1e-14, atol=0)
        assert 1.7e-3 < mesh.ratios[5] < 1.9e-3
        assert mesh.satisfies_a1()

    def test_quadratic_form_check_passes_at_ten_thousand_steps(self):
        mesh = self.mesh(2000)
        rng = np.random.default_rng(43)
        for w in (np.ones(10_000), (-1.0) ** np.arange(10_000), *rng.normal(size=(5, 10_000))):
            chk = quadratic_form_check(mesh, w)
            assert chk.passed
            assert chk.lhs >= chk.rhs >= 0.0

    def test_substitutions_match_matrix_products(self):
        mesh = self.mesh(40)
        rng = np.random.default_rng(44)
        for w in (np.ones(200), rng.normal(size=200)):
            assert_form_matches(mesh, w)

    def test_kernel_residuals_hold(self):
        assert_residuals_hold(self.mesh(80), 400, seed=45)

    def test_coarsening2d_run_keeps_the_guarantees(self):
        assert_run_keeps_guarantees(self.mesh(24))


def mixed_steps(draws, count, floor=1e-12):
    """count steps, the first 1, then ratios taken cyclically from draws,
    triples (near-cap ratio, ratio in [1e-5, 1e-2], take the small one).
    The choice is flipped where it would take the running step below floor
    or above 1.  The flipped choice stays inside for any floor up to
    1e-5 / CAP: a step above 1/CAP times a ratio of at least 1e-5 exceeds
    it, and a step below floor / 1e-5 times CAP stays below 1.  So the steps
    span at most -log10(floor) decades, and the shortest is at least floor
    times the largest, so at least floor / count times the horizon.  A
    power-of-two scale, which keeps every ratio's bits, then brings the
    horizon to at most 1."""
    assert floor <= 1e-5 / CAP
    tau, ratios = 1.0, []
    for i in range(count - 1):
        near, small, take_small = draws[i % len(draws)]
        if take_small and tau * small < floor or not take_small and tau * near > 1.0:
            take_small = not take_small
        r = small if take_small else near
        tau *= r
        assert floor <= tau <= 1.0
        ratios.append(r)
    steps = chained_steps(1.0, ratios)
    return steps * 2.0 ** -math.ceil(math.log2(steps.sum()))


def landing_floor(count):
    """A floor for mixed_steps that keeps every step of a count-step mesh
    longer than its landing tolerance, which is LANDING_RTOL times a horizon
    of at most count times the largest step."""
    return 2.0 * count * LANDING_RTOL


def seeded_mixed_draws(seed):
    """Draws like those of TestMixedRatioMesh's strategy, from a fixed seed."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 41))
    return [(rng.uniform(CAP - 0.1, CAP), rng.uniform(1e-5, 1e-2), bool(rng.integers(2))) for _ in range(size)]


class TestMixedRatioMesh:
    """Drawn ratio sequences that mix ratios on or just below the cap with
    ratios of at most 1e-2."""

    @settings(max_examples=15, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(st.floats(CAP - 0.1, CAP), st.floats(1e-5, 1e-2), st.booleans()), min_size=1, max_size=40
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chain_holds(self, draws, seed):
        mesh = TimeMesh(mixed_steps(draws, 10_000), delta=0.01)
        assert mesh.satisfies_a1()
        rng = np.random.default_rng(seed)
        chk = quadratic_form_check(mesh, rng.normal(size=10_000))
        assert chk.passed
        assert chk.lhs >= chk.rhs >= 0.0
        assert_form_matches(mesh, rng.normal(size=100))

    @pytest.mark.parametrize("nodes", [(), (20, 40, 59)], ids=["horizon", "checkpoints"])
    def test_prescribed_mesh_is_replayed_exactly(self, nodes):
        # a last step on the cap: a driver that stretched a landing step to the
        # rounded distance left to the horizon took its ratio above the cap.
        # The floor keeps every step longer than the landing tol, which would
        # reject the mesh before step 1 (test_policies covers that rejection).
        grid = Grid(2, 2.0 * np.pi, 16)
        for seed in range(40):
            # 60 steps of at most the largest, then one of at most CAP times it
            steps = mixed_steps(seeded_mixed_draws(seed), 60, floor=landing_floor(60 + CAP))
            mesh = TimeMesh(np.append(steps, steps[-1] * CAP), delta=0.01)
            assert mesh.satisfies_a1()
            assert mesh.steps.min() > landing_tol(mesh.horizon)
            checkpoints = mesh.times[list(nodes)]
            state = init_state(ic_random(grid, 1), 0.3)
            _, records = drive(state, PrescribedMesh(mesh), mesh.horizon, checkpoints=checkpoints)
            assert [rec.tau for rec in records] == mesh.steps.tolist()
            assert records[-1].t == mesh.horizon
            assert validate_records(records, ratio_cap=CAP) == eta_problems(records)

    def test_coarsening2d_run_keeps_the_guarantees(self):
        for seed in (0, 1, 2):
            mesh = TimeMesh(mixed_steps(seeded_mixed_draws(seed), 400, floor=landing_floor(400)), delta=0.01)
            assert mesh.steps.min() > landing_tol(mesh.horizon)
            assert_run_keeps_guarantees(mesh)

    @pytest.mark.xfail(
        strict=True,
        reason="kernel_residuals reports absolute residuals, which grow like eps times max tau / min tau"
        " over nearby steps; about one draw in four exceeds the unit-test bounds",
    )
    def test_kernel_residuals_hold(self):
        for seed in range(20):
            mesh = TimeMesh(mixed_steps(seeded_mixed_draws(seed), 400), delta=0.01)
            assert_residuals_hold(mesh, 400, seed)


class TestA1Sharpness:
    """A1 is sharp on geometric growth: twelve steps at ratio 5.0, just past
    r_max, already make Theta indefinite, and the same growth at the cap
    keeps it positive definite.  With y = diag(sqrt(tau)) v, w = B y gives
    w^T Theta w = y^T B y = v^T T v / 2, where T = diag(sqrt(tau)) (B + B^T)
    diag(sqrt(tau)) is tridiagonal, depends on the ratios alone and has
    diagonal 2 (1 + 2 r_k) / (1 + r_k) and off-diagonal
    -r_{k+1}^{3/2} / (1 + r_{k+1}); v is the eigenvector of its least
    eigenvalue.  kernel_matrices does not require A1, so Theta comes from it.
    Long cycles of growth at the cap, with that w, keep the positivity chain
    within a factor of 15 to 25 of its edge."""

    @staticmethod
    def least_form(ratio, n=12):
        """w^T Theta w / sum |w| |Theta| |w| for that w on n steps of growth
        at ratio."""
        mesh = TimeMesh(chained_steps(2.0**-17, [ratio] * (n - 1)), delta=0.01)
        r = mesh.ratios
        tri = np.diag(2.0 * (1.0 + 2.0 * r) / (1.0 + r))
        off = -r[1:] ** 1.5 / (1.0 + r[1:])
        tri += np.diag(off, 1) + np.diag(off, -1)
        v = np.linalg.eigh(tri)[1][:, 0]
        w = convolution_matrix(mesh, n) @ (np.sqrt(mesh.steps) * v)
        theta, _ = kernel_matrices(mesh, n)
        return float(w @ theta @ w) / float(abs(w) @ abs(theta) @ abs(w))

    def test_growth_past_r_max_loses_positivity(self):
        assert self.least_form(5.0) < 0.0

    def test_growth_at_the_cap_keeps_it(self):
        assert self.least_form(CAP) > 0.0

    @pytest.mark.parametrize("growths,ratio", [(48, 24.6), (192, 15.0)])
    def test_long_growth_cycles_at_the_cap_keep_the_chain(self, growths, ratio):
        # about 2,000 steps of cycles of growth at the cap, each cycle
        # dropping back to its first step, which a power of two puts where
        # the largest step is at most 1 (for 192 growths the steps span 1e131).
        # The w of least eigenvalue is the one the chain is tightest on: a
        # random w gives lhs / rhs of 148 and 45
        first = 2.0 ** -math.ceil(growths * math.log2(CAP))
        mesh = TimeMesh(np.tile(chained_steps(first, [CAP] * growths), 2000 // (growths + 1)), delta=0.01)
        assert mesh.satisfies_a1() and mesh.steps.max() <= 1.0
        r = mesh.ratios
        off = -r[1:] ** 1.5 / (1.0 + r[1:])
        lam, v = eigh_tridiagonal(2.0 * (1.0 + 2.0 * r) / (1.0 + r), off, select="i", select_range=(0, 0))
        y = np.sqrt(mesh.steps) * v[:, 0]
        b0, b1 = ts._weight_table(mesh, mesh.count)
        w = b0 * y
        w[1:] += b1[1:] * y[:-1]
        chk = quadratic_form_check(mesh, w)
        assert chk.passed
        assert chk.lhs >= chk.rhs >= 0.0
        # 2 w^T Theta w = v^T T v = lambda_min
        assert chk.lhs == pytest.approx(lam[0], rel=1e-12, abs=0)
        assert chk.lhs / chk.rhs == pytest.approx(ratio, rel=0.01)


class TestBDF1Start:
    """The paper's remark that the BDF1 first step costs no order: a mesh
    whose second step is 1e-3 times its first, regrown at ratio 4 to the
    first step's size, keeps H1 order 2 under refinement."""

    def test_a_tiny_second_ratio_keeps_order_two(self):
        grid, eps, horizon = Grid(2, 2.0 * np.pi, 16), 0.2, 0.1
        phi0 = ic_bubble(grid, eps)
        regrowth = np.minimum(1e-3 * 4.0 ** np.arange(6), 1.0)
        base = np.concatenate([[1.0], regrowth, np.ones(193)])
        base *= horizon / base.sum()
        ref, _ = drive(init_state(phi0, eps), FixedStep(horizon / 6400), horizon)
        errors, taus = [], []
        for level in range(3):
            # each step halved level times: every ratio of the base mesh stays
            mesh = TimeMesh(np.repeat(base / 2**level, 2**level))
            assert set(mesh.ratios) == set(TimeMesh(base).ratios) | {1.0}
            state, _ = drive(init_state(phi0, eps), PrescribedMesh(mesh), mesh.horizon)
            errors.append(h1_norm(grid, forward(state.phi1) - forward(ref.phi1)))
            taus.append(float(mesh.steps.max()))
        for k in (1, 2):
            assert 1.7 <= order_of(errors[k - 1], errors[k], taus[k - 1], taus[k]) <= 2.3
