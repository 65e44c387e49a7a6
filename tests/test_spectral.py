"""Tests for grids, transforms, Fourier-space operators and norms.

The transform convention is pinned against a direct DFT double sum at
N = 8, all norms against closed-form values for trigonometric fields, and
the half-spectrum weights against physical quadrature and full-spectrum
sums on random fields.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chsolver.spectral as spectral
from chsolver import Grid, SpectralField, energy
from chsolver.spectral import cubic_coefficients, forward, inverse, slab_map, slabs
from dealias_reference import dealiased_cubic_full
from dense_reference import full_k_squared, half_spectrum


def trig_field(grid, fn):
    return SpectralField(grid, physical=fn(*grid.coordinates()))


def apply_symbol(field, power):
    """(-|k|^2)^power in coefficient space, as the stepper applies it."""
    return SpectralField(field.grid, coefficients=(-field.grid.k_squared) ** power * field.coefficients)


def nonlinearity(field, eps, dealias=False):
    """f(u) = (u^3 - u)/eps^2 of a field, through the solver's cubic."""
    coef = cubic_coefficients(field.grid, field.physical, eps, dealias=dealias)
    return SpectralField(field.grid, coefficients=coef)


def full_coefficients(u):
    """Full-spectrum coefficients in the solver's normalisation."""
    return np.fft.fftn(u) / u.size


def direct_dft(values, grid):
    """O(N^(2*dim)) coefficient sum straight from the definition."""
    n = grid.modes
    m = np.rint(np.fft.fftfreq(n) * n).astype(int)
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

    def test_wavenumbers_scale_with_length(self):
        grid = Grid(2, 4.0 * np.pi, 8)
        # k = 2 pi m / L
        assert np.allclose(grid.wavenumbers, np.array([0, 1, 2, 3, -4, -3, -2, -1]) / 2.0)

    def test_k_squared_broadcast(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        k = grid.wavenumbers
        assert grid.k_squared.shape == grid.spectral_shape == (8, 5)
        assert np.allclose(grid.k_squared, half_spectrum(grid, k[:, None] ** 2 + k[None, :] ** 2))

    def test_k_squared_3d(self):
        grid = Grid(3, 2.0 * np.pi, 4)
        k = grid.wavenumbers
        expected = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
        assert np.allclose(grid.k_squared, half_spectrum(grid, expected))

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
        assert np.allclose(field.coefficients, half_spectrum(grid, direct_dft(u, grid)), atol=1e-13)

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

    def test_shape_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="does not match grid"):
            SpectralField(grid, physical=np.zeros((4, 8)))
        with pytest.raises(ValueError, match="does not match grid"):
            SpectralField(grid, coefficients=np.zeros((8, 4), dtype=complex))
        with pytest.raises(ValueError, match="physical or a coefficient"):
            SpectralField(grid)

    def test_non_hermitian_mode_rejected(self):
        # irfftn would read c[1, 0] = 1 alone as cos(x), whose L2 norm is
        # half of what the coefficient sums would report
        grid = Grid(2, 2.0 * np.pi, 8)
        c = np.zeros(grid.spectral_shape, dtype=complex)
        c[1, 0] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            SpectralField(grid, coefficients=c)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("plane", ["zero", "nyquist"])
    @pytest.mark.parametrize("value", [1.0, 1j])
    def test_self_mirrored_planes_checked(self, dim, plane, value):
        # entry -k of plane m is the conjugate of entry k; index N/2 of the
        # other axes is its own mirror, so there only real values pass
        grid = Grid(dim, 2.0 * np.pi, 8)
        m = 0 if plane == "zero" else grid.modes // 2
        for index in ((1,) * (dim - 1), (4,) * (dim - 1)):
            c = np.zeros(grid.spectral_shape, dtype=complex)
            c[index + (m,)] = value
            if index[0] == 4 and value == 1.0:
                SpectralField(grid, coefficients=c)
            else:
                with pytest.raises(ValueError, match=f"plane m = {m} is not Hermitian"):
                    SpectralField(grid, coefficients=c)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        n=st.sampled_from(range(4, 33, 2)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]),
        offset=st.floats(-1e6, 1e6),
    )
    def test_spectra_of_real_fields_accepted(self, dim, n, seed, scale, offset):
        grid = Grid(dim, 2.0 * np.pi, n)
        u = scale * (offset + np.random.default_rng(seed).normal(size=grid.shape))
        coef = forward(u)
        assert np.array_equal(SpectralField(grid, coefficients=coef).coefficients, coef)


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
        out = nonlinearity(SpectralField.constant(grid, 2.0), 0.5).physical
        # (8 - 2) / 0.25
        assert np.allclose(out, 24.0)

    @pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
    def test_pure_phases_are_roots(self, value):
        grid = Grid(2, 2.0 * np.pi, 8)
        out = nonlinearity(SpectralField.constant(grid, value), 0.3).physical
        assert np.abs(out).max() < 1e-13

    def test_eps_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="eps must be positive"):
            nonlinearity(SpectralField.constant(grid, 1.0), 0.0)

    def test_dealias_matches_plain_on_narrow_band(self):
        # modes up to 5 on N = 32: the cube stays below the native Nyquist,
        # so straight collocation is already alias-free
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: 0.3 * np.cos(2.0 * x) + 0.2 * np.sin(5.0 * y))
        plain = nonlinearity(field, 0.7).coefficients
        clean = nonlinearity(field, 0.7, dealias=True).coefficients
        assert np.allclose(plain, clean, atol=1e-13)

    def test_dealias_removes_aliased_cubic_mode(self):
        # cos(6x)^3 = (3 cos 6x + cos 18x)/4; mode 18 lies outside the
        # retained band of N = 32 but straight collocation folds it onto
        # mode -14
        grid = Grid(2, 2.0 * np.pi, 32)
        field = trig_field(grid, lambda x, y: np.cos(6.0 * x))
        eps = 1.0
        plain = nonlinearity(field, eps).coefficients
        clean = nonlinearity(field, eps, dealias=True).coefficients
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
        out = nonlinearity(field, 0.5, dealias=True)
        assert np.all(np.isfinite(out.physical))
        assert np.abs(out.coefficients[8, :]).max() == 0.0
        assert np.abs(out.coefficients[:, 8]).max() == 0.0

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 6), (3, 8), (3, 6)])
    def test_dealias_matches_full_spectrum_reference(self, dim, n):
        # rough input carries Nyquist content on every axis, including the
        # mixed-sign corners that the padding must split like the reference
        grid = Grid(dim, 2.0 * np.pi, n)
        u = np.random.default_rng(10 * dim + n).normal(size=grid.shape)
        ref = dealiased_cubic_full(grid, full_coefficients(u), 0.5)
        out = cubic_coefficients(grid, u, 0.5, dealias=True)
        assert np.abs(half_spectrum(grid, full_coefficients(u))[..., -1]).max() > 0.1
        assert np.abs(out - half_spectrum(grid, ref)).max() < 1e-13


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
        coef = full_coefficients(field.physical)
        k = grid.wavenumbers
        dx = 1j * k[:, None] * coef
        dy = 1j * k[None, :] * coef
        total = grid.volume * float(np.sum(np.abs(dx) ** 2 + np.abs(dy) ** 2))
        assert np.isclose(field.grad_norm_sq(), total, rtol=1e-12)

    def test_integral_and_mean(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        field = trig_field(grid, lambda x, y: 1.5 + np.cos(x))
        assert np.isclose(field.coefficients[0, 0], 1.5)
        assert np.isclose(field.integral(), 1.5 * grid.volume)

    def test_3d_quadrature(self):
        grid = Grid(3, 2.0 * np.pi, 8)
        rng = np.random.default_rng(23)
        u = rng.normal(size=grid.shape)
        field = SpectralField(grid, physical=u)
        assert np.isclose(field.l2_norm_sq(), grid.cell_volume * np.sum(u**2), rtol=1e-12)


    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        n=st.sampled_from(range(4, 33, 2)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 10.0),
        eps=st.floats(0.1, 2.0),
    )
    def test_half_spectrum_weights(self, dim, n, seed, scale, eps):
        # each half-spectrum sum against the physical quadrature and the
        # plain sum over the full fftn spectrum
        grid = Grid(dim, 2.0 * np.pi, n)
        u = scale * np.random.default_rng(seed).normal(size=grid.shape)
        field = SpectralField(grid, physical=u)
        h = grid.cell_volume
        full = full_coefficients(u)
        k = np.meshgrid(*([grid.wavenumbers] * dim), indexing="ij")
        k2 = full_k_squared(grid)

        l2_full = grid.volume * np.sum(np.abs(full) ** 2)
        assert np.isclose(field.l2_norm_sq(), h * np.sum(u**2), rtol=1e-12, atol=0)
        assert np.isclose(field.l2_norm_sq(), l2_full, rtol=1e-12, atol=0)

        grad_full = grid.volume * np.sum(k2 * np.abs(full) ** 2)
        grad_quad = h * sum(np.sum(np.abs(np.fft.ifftn(1j * ka * full) * u.size) ** 2) for ka in k)
        assert np.isclose(field.grad_norm_sq(), grad_quad, rtol=1e-12, atol=0)
        assert np.isclose(field.grad_norm_sq(), grad_full, rtol=1e-12, atol=0)

        # the mean of a random field may sit near zero: scale by the mass of |u|
        tol = 1e-12 * h * np.sum(np.abs(u))
        assert abs(field.integral() - h * np.sum(u)) <= tol
        assert abs(field.integral() - grid.volume * full[(0,) * dim].real) <= tol

        well = h * np.sum((u**2 - 1.0) ** 2) / (4.0 * eps**2)
        e = energy(grid, u, field.coefficients, eps)
        assert np.isclose(e, 0.5 * grad_full + well, rtol=1e-12, atol=0)
        assert np.isclose(e, 0.5 * grad_quad + well, rtol=1e-12, atol=0)


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


class TestCores:
    @pytest.mark.parametrize("dim,n,parallel", [(2, 256, False), (3, 32, False), (2, 512, True), (3, 64, True)])
    def test_workers_passed_from_2_18_points(self, monkeypatch, dim, n, parallel):
        from scipy import fft

        passed = []
        for name in ("rfftn", "irfftn"):
            orig = getattr(fft, name)

            def recorder(*args, _orig=orig, **kwargs):
                passed.append(kwargs.get("workers", "unset"))
                return _orig(*args, **kwargs)

            monkeypatch.setattr(fft, name, recorder)
        monkeypatch.setattr(spectral, "CORES", 2)
        u = np.random.default_rng(n).normal(size=(n,) * dim)
        inverse(forward(u), u.shape)
        assert passed == ([2, 2] if parallel else ["unset", "unset"])

    def test_transforms_are_bitwise_independent_of_workers(self, monkeypatch):
        u = np.random.default_rng(1).normal(size=(64, 64, 64))
        out = {}
        for cores in (1, 2):
            monkeypatch.setattr(spectral, "CORES", cores)
            coef = forward(u)
            out[cores] = coef, inverse(coef, u.shape)
        assert np.array_equal(out[1][0], out[2][0])
        assert np.array_equal(out[1][1], out[2][1])

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_slab_map_returns_results_in_slab_order(self, monkeypatch, cores):
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 64)
        shape = (40, 8, 8)
        parts = slabs(shape)
        assert len(parts) == 40
        assert slab_map(lambda s: (s.start, s.stop), shape) == [(s.start, s.stop) for s in parts]

    def test_slab_map_fills_every_slab_once(self, monkeypatch):
        # more threads than cores and a short switch interval: a slab taken
        # twice or not at all changes the sum
        monkeypatch.setattr(spectral, "CORES", 4)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 64)
        monkeypatch.setattr(spectral, "_pool", None)
        out = np.zeros((400, 8, 8))

        def fill(s):
            out[s] += s.start + 1.0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                slab_map(fill, out.shape)
        finally:
            sys.setswitchinterval(interval)
            spectral._pool.shutdown()
        assert np.array_equal(out, np.broadcast_to(20.0 * np.arange(1.0, 401.0)[:, None, None], out.shape))

    @pytest.mark.parametrize("shape,cores", [((16, 16), 2), ((40, 8, 8), 1)])
    def test_one_slab_or_one_core_runs_on_the_calling_thread(self, monkeypatch, shape, cores):
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 64 if cores == 1 else 2**15)
        assert slab_map(lambda s: threading.get_ident(), shape) == [threading.get_ident()] * len(slabs(shape))

    def test_slab_map_raises_what_a_slab_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "CORES", 2)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 64)

        def fail_late(s):
            if s.start == 37:
                raise ZeroDivisionError("slab 37")
            return s.start

        with pytest.raises(ZeroDivisionError, match="slab 37"):
            slab_map(fail_late, (40, 8, 8))
        assert slab_map(lambda s: s.start, (40, 8, 8)) == list(range(40))
