"""Tests for grids, transforms, Fourier-space operators and norms.

The transform convention is pinned against a direct DFT double sum at
N = 8, and all norms against closed-form values for trigonometric fields.
"""

import numpy as np
import pytest

from chsolver import Grid, ImaginaryResidueError, SpectralField, fft_workers


def trig_field(grid, fn):
    return SpectralField(grid, physical=fn(*grid.coordinates()))


def apply_symbol(field, power):
    """(-|k|^2)^power in coefficient space, as the stepper applies it."""
    return SpectralField(field.grid, coefficients=(-field.grid.k_squared) ** power * field.coefficients)


def direct_dft(values, grid):
    """O(N^(2*dim)) coefficient sum straight from the definition."""
    n = grid.modes
    m = grid.mode_numbers
    out = np.zeros(grid.shape, dtype=complex)
    for q in np.ndindex(grid.shape):
        acc = 0.0 + 0.0j
        for j in np.ndindex(grid.shape):
            phase = sum(m[q[a]] * j[a] for a in range(grid.dim))
            acc += values[j] * np.exp(-2j * np.pi * phase / n)
        out[q] = acc / n**grid.dim
    return out


class TestGrid:
    def test_basic_properties(self):
        grid = Grid(2, 2.0 * np.pi, 64)
        assert grid.shape == (64, 64)
        assert np.isclose(grid.spacing, 2.0 * np.pi / 64)
        assert np.isclose(grid.cell_volume, grid.spacing**2)
        assert np.isclose(grid.volume, (2.0 * np.pi) ** 2)

    def test_wavenumbers_fft_ordering(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        assert np.allclose(grid.wavenumbers, [0, 1, 2, 3, -4, -3, -2, -1])
        assert np.array_equal(grid.mode_numbers, [0, 1, 2, 3, -4, -3, -2, -1])

    def test_wavenumbers_scale_with_length(self):
        grid = Grid(2, 4.0 * np.pi, 8)
        # k = 2 pi m / L
        assert np.allclose(grid.wavenumbers, np.array([0, 1, 2, 3, -4, -3, -2, -1]) / 2.0)

    def test_k_squared_broadcast(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        k = grid.wavenumbers
        assert np.allclose(grid.k_squared, k[:, None] ** 2 + k[None, :] ** 2)

    def test_k_squared_3d(self):
        grid = Grid(3, 2.0 * np.pi, 4)
        k = grid.wavenumbers
        expected = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
        assert np.allclose(grid.k_squared, expected)

    def test_coordinates_cover_half_open_box(self):
        grid = Grid(2, 1.0, 8)
        x, y = grid.coordinates()
        assert x[0, 0] == 0.0
        assert np.isclose(x[-1, 0], 1.0 - grid.spacing)
        assert np.allclose(y[0, :], np.arange(8) / 8.0)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(ValueError, match="dim must be 2 or 3"):
            Grid(dim, 1.0, 8)

    @pytest.mark.parametrize("modes", [2, 7, 0])
    def test_rejects_bad_modes(self, modes):
        with pytest.raises(ValueError, match="even and >= 4"):
            Grid(2, 1.0, modes)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length must be positive"):
            Grid(2, 0.0, 8)


class TestTransforms:
    def test_coefficients_match_direct_dft(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        rng = np.random.default_rng(7)
        u = rng.normal(size=grid.shape)
        field = SpectralField(grid, physical=u)
        assert np.allclose(field.coefficients, direct_dft(u, grid), atol=1e-13)

    def test_constant_has_unit_zero_mode(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        field = SpectralField.constant(grid, 3.5)
        coef = field.coefficients
        assert np.isclose(coef[0, 0], 3.5)
        off = coef.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() < 1e-14

    def test_cosine_coefficients(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        field = trig_field(grid, lambda x, y: np.cos(3.0 * x))
        coef = field.coefficients
        assert np.isclose(coef[3, 0], 0.5)
        assert np.isclose(coef[-3, 0], 0.5)
        assert np.isclose(np.abs(coef).sum(), 1.0)

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 8)])
    def test_roundtrip_physical(self, dim, n):
        grid = Grid(dim, 2.0 * np.pi, n)
        rng = np.random.default_rng(dim * 100 + n)
        u = rng.normal(size=grid.shape)
        back = SpectralField(grid, coefficients=SpectralField(grid, physical=u).coefficients).physical
        assert np.allclose(back, u, atol=1e-12)

    def test_roundtrip_coefficients(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        rng = np.random.default_rng(5)
        u = rng.normal(size=grid.shape)
        coef = SpectralField(grid, physical=u).coefficients
        again = SpectralField(grid, coefficients=coef).to_physical().coefficients
        assert np.allclose(again, coef, atol=1e-13)

    def test_imaginary_residue_raises(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        coef = np.zeros(grid.shape, dtype=complex)
        coef[1, 0] = 1.0  # lone e^{ix} mode, no conjugate partner
        with pytest.raises(ImaginaryResidueError, match="imaginary residue"):
            SpectralField(grid, coefficients=coef).to_physical()

    def test_shape_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="does not match grid"):
            SpectralField(grid, physical=np.zeros((4, 8)))
        with pytest.raises(ValueError, match="does not match grid"):
            SpectralField(grid, coefficients=np.zeros((8, 4), dtype=complex))
        with pytest.raises(ValueError, match="physical or a coefficient"):
            SpectralField(grid)


class TestOperators:
    def test_laplacian_of_cosine(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: np.cos(2.0 * x))
        lap = apply_symbol(field, 1).physical
        assert np.allclose(lap, -4.0 * field.physical, atol=1e-11)

    def test_biharmonic_of_cosine(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: np.cos(2.0 * x))
        bih = apply_symbol(field, 2).physical
        assert np.allclose(bih, 16.0 * field.physical, atol=1e-10)

    def test_laplacian_mixed_modes(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: np.sin(x) * np.cos(3.0 * y))
        lap = apply_symbol(field, 1).physical
        assert np.allclose(lap, -10.0 * field.physical, atol=1e-10)

    def test_laplacian_annihilates_constants(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        lap = apply_symbol(SpectralField.constant(grid, 2.0), 1)
        assert np.abs(lap.coefficients).max() == 0.0

    def test_laplacian_agrees_with_stencil_to_second_order(self):
        # the spectral Laplacian of an analytic field is accurate far below
        # O(h^2), so the defect against the 5-point stencil is the stencil's
        errs = []
        for n in (16, 32, 64):
            grid = Grid(2, 2.0 * np.pi, n)
            x, y = grid.coordinates()
            u = np.exp(np.sin(x) + np.cos(y))
            lap = apply_symbol(SpectralField(grid, physical=u), 1).physical
            h2 = grid.spacing**2
            stencil = (
                np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1) - 4.0 * u
            ) / h2
            errs.append(np.abs(lap - stencil).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.1)


class TestNonlinearity:
    def test_constant_value(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        out = SpectralField.constant(grid, 2.0).nonlinearity(0.5).physical
        # (8 - 2) / 0.25
        assert np.allclose(out, 24.0)

    @pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
    def test_pure_phases_are_roots(self, value):
        grid = Grid(2, 2.0 * np.pi, 8)
        out = SpectralField.constant(grid, value).nonlinearity(0.3).physical
        assert np.abs(out).max() < 1e-13

    def test_eps_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="eps must be positive"):
            SpectralField.constant(grid, 1.0).nonlinearity(0.0)

    def test_dealias_matches_plain_on_narrow_band(self):
        # modes up to 5 on N = 32: the cube stays below the native Nyquist,
        # so straight collocation is already alias-free
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: 0.3 * np.cos(2.0 * x) + 0.2 * np.sin(5.0 * y))
        plain = field.nonlinearity(0.7).coefficients
        clean = field.nonlinearity(0.7, dealias=True).coefficients
        assert np.allclose(plain, clean, atol=1e-13)

    def test_dealias_removes_aliased_cubic_mode(self):
        # cos(6x)^3 = (3 cos 6x + cos 18x)/4; mode 18 lies outside the
        # retained band of N = 32 but straight collocation folds it onto
        # mode -14
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: np.cos(6.0 * x))
        eps = 1.0
        plain = field.nonlinearity(eps).coefficients
        clean = field.nonlinearity(eps, dealias=True).coefficients
        assert np.isclose(plain[-14, 0], 0.125, atol=1e-13)
        assert np.abs(clean[-14, 0]) < 1e-14
        # both agree on the true content of mode 6: 3/8 - 1/2
        assert np.isclose(clean[6, 0], -0.125, atol=1e-13)
        assert np.isclose(plain[6, 0], -0.125, atol=1e-13)
        assert np.abs(clean[18, 0]) < 1e-14

    def test_dealias_survives_rough_input(self):
        # full-spectrum input: the padded cube must still invert to a real
        # field with no Nyquist content
        grid = Grid(2, 2.0 * np.pi, 16)
        rng = np.random.default_rng(3)
        field = SpectralField(grid, physical=rng.normal(size=grid.shape))
        out = field.nonlinearity(0.5, dealias=True)
        assert np.all(np.isfinite(out.physical))
        assert np.abs(out.coefficients[8, :]).max() == 0.0
        assert np.abs(out.coefficients[:, 8]).max() == 0.0


class TestNormsAndQuadrature:
    def test_cosine_norms(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: np.cos(x))
        two_pi_sq = 2.0 * np.pi**2
        assert np.isclose(field.l2_norm_sq(), two_pi_sq)
        assert np.isclose(field.grad_norm_sq(), two_pi_sq)
        assert np.isclose(field.h1_norm(), 2.0 * np.pi)

    def test_parseval_matches_quadrature(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        rng = np.random.default_rng(21)
        u = rng.normal(size=grid.shape)
        field = SpectralField(grid, physical=u)
        quad = grid.cell_volume * float(np.sum(u**2))
        assert np.isclose(field.l2_norm_sq(), quad, rtol=1e-12)

    def test_gradient_norm_matches_componentwise_sum(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        rng = np.random.default_rng(22)
        field = SpectralField(grid, physical=rng.normal(size=grid.shape))
        coef = field.coefficients
        k = grid.wavenumbers
        dx = 1j * k[:, None] * coef
        dy = 1j * k[None, :] * coef
        total = grid.volume * float(np.sum(np.abs(dx) ** 2 + np.abs(dy) ** 2))
        assert np.isclose(field.grad_norm_sq(), total, rtol=1e-12)

    def test_integral_and_mean(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        field = trig_field(grid, lambda x, y: 1.5 + np.cos(x))
        assert np.isclose(field.mean(), 1.5)
        assert np.isclose(field.integral(), 1.5 * grid.volume)

    def test_3d_quadrature(self):
        grid = Grid(3, 2.0 * np.pi, 8)
        rng = np.random.default_rng(23)
        u = rng.normal(size=grid.shape)
        field = SpectralField(grid, physical=u)
        assert np.isclose(field.l2_norm_sq(), grid.cell_volume * np.sum(u**2), rtol=1e-12)


class TestArithmetic:
    def test_coefficient_space_combination(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        rng = np.random.default_rng(32)
        a = SpectralField(
            grid, coefficients=SpectralField(grid, physical=rng.normal(size=grid.shape)).coefficients
        )
        b = SpectralField(grid, physical=rng.normal(size=grid.shape))
        diff = a - b
        assert np.array_equal(diff.coefficients, a.coefficients - b.coefficients)
        assert np.allclose(diff.physical, a.physical - b.physical, atol=1e-14)

    def test_grid_mismatch_rejected(self):
        a = SpectralField.constant(Grid(2, 2.0 * np.pi, 8), 1.0)
        b = SpectralField.constant(Grid(2, 2.0 * np.pi, 16), 1.0)
        with pytest.raises(ValueError, match="different grids"):
            a - b


class TestWorkerConfig:
    def test_unset_means_default(self, monkeypatch):
        monkeypatch.delenv("CHSOLVER_THREADS", raising=False)
        assert fft_workers() is None

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("CHSOLVER_THREADS", "2")
        assert fft_workers() == 2

    @pytest.mark.parametrize("raw", ["zero", "0", "-3"])
    def test_invalid_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("CHSOLVER_THREADS", raw)
        with pytest.raises(ValueError, match="CHSOLVER_THREADS"):
            fft_workers()

    def test_transforms_respect_setting(self, monkeypatch):
        monkeypatch.setenv("CHSOLVER_THREADS", "1")
        grid = Grid(2, 2.0 * np.pi, 16)
        rng = np.random.default_rng(41)
        u = rng.normal(size=grid.shape)
        assert np.allclose(SpectralField(grid, physical=u).to_coefficients().physical, u)
