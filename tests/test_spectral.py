"""Tests for grids, transforms, Fourier-space operators and norms.

The transform convention is pinned against a direct DFT double sum at
N = 8, all norms against closed-form values for trigonometric fields, and
the half-spectrum weights against physical quadrature and full-spectrum
sums on random fields.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chsolver.spectral as spectral
from chsolver import Grid, SpectralField, energy
from chsolver.spectral import (
    cubic,
    dealiased_cubic,
    forward,
    h1_norm,
    integral,
    inverse,
    parseval_sum,
    slab_map,
    slabs,
)
from dealias_reference import dealiased_cubic_full
from dense_reference import full_k_squared, half_spectrum


def trig_field(grid, fn):
    return fn(*grid.coordinates())


def apply_symbol(grid, u, power):
    """Grid values of (-|k|^2)^power applied in coefficient space, as the
    stepper applies it."""
    return inverse((-grid.k_squared_rows(slice(None))) ** power * forward(u), grid.shape)


def nonlinearity(grid, u, eps, dealias=False):
    """Half spectrum of f(u) = (u^3 - u)/eps^2, through the solver's cubic."""
    return dealiased_cubic(grid, u, eps) if dealias else forward(cubic(u, eps))


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
        k2 = grid.k_squared_rows(slice(None))
        assert k2.shape == grid.spectral_shape == (8, 5)
        assert np.allclose(k2, half_spectrum(grid, k[:, None] ** 2 + k[None, :] ** 2))

    def test_k_squared_3d(self):
        grid = Grid(3, 2.0 * np.pi, 4)
        k = grid.wavenumbers
        expected = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
        assert np.allclose(grid.k_squared_rows(slice(None)), half_spectrum(grid, expected))

    @pytest.mark.parametrize("length", [2.0 * np.pi, 3.7])
    @pytest.mark.parametrize("dim,modes", [(2, 16), (2, 256), (3, 8), (3, 48)])
    def test_k_squared_rows_keep_the_table_bits(self, dim, modes, length):
        # the rows of every slab, stacked, against the full table as it was
        # built before: zeros plus each axis's squared wavenumbers, in axis order
        grid = Grid(dim, length, modes)
        table = np.zeros(grid.spectral_shape)
        last = 2.0 * np.pi * np.fft.rfftfreq(modes, d=grid.spacing)
        for axis in range(dim):
            k = last if axis == dim - 1 else grid.wavenumbers
            shape = [1] * dim
            shape[axis] = k.size
            table += (k**2).reshape(shape)
        parts = slabs(grid.spectral_shape)
        assert len(parts) == (1 if modes in (16, 8) else 2)
        rows = np.concatenate([grid.k_squared_rows(s) for s in parts])
        assert rows.shape == table.shape and rows.tobytes() == table.tobytes()

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

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_length(self, length):
        # an infinite box has all-zero wavenumbers, and a run on it goes
        # silently wrong
        with pytest.raises(ValueError, match="length must be positive and finite"):
            Grid(2, length, 8)

    @pytest.mark.parametrize("dim,modes", [(2, 8.0), (2, "8"), (2, None), (2.0, 8)])
    def test_rejects_non_integer_dim_or_modes(self, dim, modes):
        # a float passed the range checks and failed later inside numpy
        with pytest.raises(TypeError):
            Grid(dim, 1.0, modes)


class TestTransforms:
    def test_coefficients_match_direct_dft(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        rng = np.random.default_rng(7)
        u = rng.normal(size=grid.shape)
        assert np.allclose(forward(u), half_spectrum(grid, direct_dft(u, grid)), atol=1e-13)

    def test_constant_has_unit_zero_mode(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        coef = forward(np.full(grid.shape, 3.5))
        assert np.isclose(coef[0, 0], 3.5)
        off = coef.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() < 1e-14

    def test_cosine_coefficients(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        coef = forward(trig_field(grid, lambda x, y: np.cos(3.0 * x)))
        assert np.isclose(coef[3, 0], 0.5)
        assert np.isclose(coef[-3, 0], 0.5)
        assert np.isclose(np.abs(coef).sum(), 1.0)

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 8)])
    def test_roundtrip_physical(self, dim, n):
        grid = Grid(dim, 2.0 * np.pi, n)
        rng = np.random.default_rng(dim * 100 + n)
        u = rng.normal(size=grid.shape)
        back = inverse(forward(u), grid.shape)
        assert np.allclose(back, u, atol=1e-12)

    def test_roundtrip_coefficients(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        rng = np.random.default_rng(5)
        u = rng.normal(size=grid.shape)
        coef = forward(u)
        again = forward(inverse(coef, grid.shape))
        assert np.allclose(again, coef, atol=1e-13)

    def test_shape_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="does not match grid"):
            SpectralField(grid, physical=np.zeros((4, 8)))

    def test_field_values_and_cached_spectrum_are_read_only(self):
        grid = Grid(3, 2.0 * np.pi, 8)
        u = np.random.default_rng(6).normal(size=grid.shape)
        field = SpectralField(grid, physical=u)
        assert field.physical is u and not u.flags.writeable
        coef = field.coefficients
        assert field.coefficients is coef and not coef.flags.writeable
        assert np.array_equal(coef, forward(u))


class TestOperators:
    def test_laplacian_of_cosine(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        u = trig_field(grid, lambda x, y: np.cos(2.0 * x))
        lap = apply_symbol(grid, u, 1)
        assert np.allclose(lap, -4.0 * u, atol=1e-11)

    def test_biharmonic_of_cosine(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        u = trig_field(grid, lambda x, y: np.cos(2.0 * x))
        bih = apply_symbol(grid, u, 2)
        assert np.allclose(bih, 16.0 * u, atol=1e-10)

    def test_laplacian_mixed_modes(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        u = trig_field(grid, lambda x, y: np.sin(x) * np.cos(3.0 * y))
        lap = apply_symbol(grid, u, 1)
        assert np.allclose(lap, -10.0 * u, atol=1e-10)

    def test_laplacian_annihilates_constants(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        lap = -grid.k_squared_rows(slice(None)) * forward(np.full(grid.shape, 2.0))
        assert np.abs(lap).max() == 0.0

    def test_laplacian_agrees_with_stencil_to_second_order(self):
        # the spectral Laplacian of an analytic field is accurate far below
        # O(h^2), so the defect against the 5-point stencil is the stencil's
        errs = []
        for n in (16, 32, 64):
            grid = Grid(2, 2.0 * np.pi, n)
            x, y = grid.coordinates()
            u = np.exp(np.sin(x) + np.cos(y))
            lap = apply_symbol(grid, u, 1)
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
        out = inverse(nonlinearity(grid, np.full(grid.shape, 2.0), 0.5), grid.shape)
        # (8 - 2) / 0.25
        assert np.allclose(out, 24.0)

    @pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
    def test_pure_phases_are_roots(self, value):
        grid = Grid(2, 2.0 * np.pi, 8)
        out = inverse(nonlinearity(grid, np.full(grid.shape, value), 0.3), grid.shape)
        assert np.abs(out).max() < 1e-13

    def test_eps_validation(self):
        grid = Grid(2, 2.0 * np.pi, 8)
        with pytest.raises(ValueError, match="eps must be positive"):
            dealiased_cubic(grid, np.ones(grid.shape), 0.0)

    def test_dealias_matches_plain_on_narrow_band(self):
        # modes up to 5 on N = 32: the cube stays below the native Nyquist,
        # so straight collocation is already alias-free
        grid = Grid(2, 2.0 * np.pi, 32)
        u = trig_field(grid, lambda x, y: 0.3 * np.cos(2.0 * x) + 0.2 * np.sin(5.0 * y))
        plain = nonlinearity(grid, u, 0.7)
        clean = nonlinearity(grid, u, 0.7, dealias=True)
        assert np.allclose(plain, clean, atol=1e-13)

    def test_dealias_removes_aliased_cubic_mode(self):
        # cos(6x)^3 = (3 cos 6x + cos 18x)/4; mode 18 lies outside the
        # retained band of N = 32 but straight collocation folds it onto
        # mode -14
        grid = Grid(2, 2.0 * np.pi, 32)
        u = trig_field(grid, lambda x, y: np.cos(6.0 * x))
        eps = 1.0
        plain = nonlinearity(grid, u, eps)
        clean = nonlinearity(grid, u, eps, dealias=True)
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
        out = nonlinearity(grid, rng.normal(size=grid.shape), 0.5, dealias=True)
        assert np.all(np.isfinite(inverse(out, grid.shape)))
        assert np.abs(out[8, :]).max() == 0.0
        assert np.abs(out[:, 8]).max() == 0.0

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 6), (3, 8), (3, 6)])
    def test_dealias_matches_full_spectrum_reference(self, dim, n):
        # rough input carries Nyquist content on every axis, including the
        # mixed-sign corners that the padding must split like the reference
        grid = Grid(dim, 2.0 * np.pi, n)
        u = np.random.default_rng(10 * dim + n).normal(size=grid.shape)
        ref = dealiased_cubic_full(grid, full_coefficients(u), 0.5)
        out = dealiased_cubic(grid, u, 0.5)
        assert np.abs(half_spectrum(grid, full_coefficients(u))[..., -1]).max() > 0.1
        assert np.abs(out - half_spectrum(grid, ref)).max() < 1e-13


class TestNormsAndQuadrature:
    def test_cosine_norms(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        coef = forward(trig_field(grid, lambda x, y: np.cos(x)))
        two_pi_sq = 2.0 * np.pi**2
        assert np.isclose(parseval_sum(grid, coef), two_pi_sq)
        assert np.isclose(parseval_sum(grid, coef, grid.k_squared_rows), two_pi_sq)
        assert np.isclose(h1_norm(grid, coef), 2.0 * np.pi)

    def test_parseval_matches_quadrature(self):
        grid = Grid(2, 2.0 * np.pi, 32)
        rng = np.random.default_rng(21)
        u = rng.normal(size=grid.shape)
        quad = grid.cell_volume * float(np.sum(u**2))
        assert np.isclose(parseval_sum(grid, forward(u)), quad, rtol=1e-12)

    def test_gradient_norm_matches_componentwise_sum(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        rng = np.random.default_rng(22)
        u = rng.normal(size=grid.shape)
        coef = full_coefficients(u)
        k = grid.wavenumbers
        dx = 1j * k[:, None] * coef
        dy = 1j * k[None, :] * coef
        total = grid.volume * float(np.sum(np.abs(dx) ** 2 + np.abs(dy) ** 2))
        assert np.isclose(parseval_sum(grid, forward(u), grid.k_squared_rows), total, rtol=1e-12)

    def test_integral_and_mean(self):
        grid = Grid(2, 2.0 * np.pi, 16)
        field = SpectralField(grid, physical=trig_field(grid, lambda x, y: 1.5 + np.cos(x)))
        assert np.isclose(field.coefficients[0, 0], 1.5)
        assert np.isclose(integral(grid, field.coefficients), 1.5 * grid.volume)
        assert field.integral() == integral(grid, field.coefficients)

    def test_3d_quadrature(self):
        grid = Grid(3, 2.0 * np.pi, 8)
        rng = np.random.default_rng(23)
        u = rng.normal(size=grid.shape)
        assert np.isclose(parseval_sum(grid, forward(u)), grid.cell_volume * np.sum(u**2), rtol=1e-12)

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
        coef = forward(u)
        h = grid.cell_volume
        full = full_coefficients(u)
        k = np.meshgrid(*([grid.wavenumbers] * dim), indexing="ij")
        k2 = full_k_squared(grid)

        l2_full = grid.volume * np.sum(np.abs(full) ** 2)
        assert np.isclose(parseval_sum(grid, coef), h * np.sum(u**2), rtol=1e-12, atol=0)
        assert np.isclose(parseval_sum(grid, coef), l2_full, rtol=1e-12, atol=0)

        grad_full = grid.volume * np.sum(k2 * np.abs(full) ** 2)
        grad_quad = h * sum(np.sum(np.abs(np.fft.ifftn(1j * ka * full) * u.size) ** 2) for ka in k)
        grad = parseval_sum(grid, coef, grid.k_squared_rows)
        assert np.isclose(grad, grad_quad, rtol=1e-12, atol=0)
        assert np.isclose(grad, grad_full, rtol=1e-12, atol=0)
        assert np.isclose(h1_norm(grid, coef) ** 2, l2_full + grad_full, rtol=1e-12, atol=0)

        # the mean of a random field may sit near zero: scale by the mass of |u|
        tol = 1e-12 * h * np.sum(np.abs(u))
        assert abs(integral(grid, coef) - h * np.sum(u)) <= tol
        assert abs(integral(grid, coef) - grid.volume * full[(0,) * dim].real) <= tol

        well = h * np.sum((u**2 - 1.0) ** 2) / (4.0 * eps**2)
        e = energy(grid, u, coef, eps)
        assert np.isclose(e, 0.5 * grad_full + well, rtol=1e-12, atol=0)
        assert np.isclose(e, 0.5 * grad_quad + well, rtol=1e-12, atol=0)


class TestCores:
    @pytest.mark.parametrize(
        "dim,n,parallel",
        [(2, 256, False), (3, 32, False), (2, 512, False), (3, 64, False), (3, 72, True), (2, 1024, True)],
    )
    def test_workers_passed_from_2_18_points(self, monkeypatch, dim, n, parallel):
        # only grids of more than 2^18 points (3d N=72 has 373,248) get CORES workers
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
        monkeypatch.setattr(spectral, "PARALLEL_ELEMENTS", 2**15)
        u = np.random.default_rng(1).normal(size=(64, 64, 64))
        out = {}
        for cores in (1, 2):
            monkeypatch.setattr(spectral, "CORES", cores)
            coef = forward(u)
            out[cores] = coef, inverse(coef, u.shape)
        assert np.array_equal(out[1][0], out[2][0])
        assert np.array_equal(out[1][1], out[2][1])

    @staticmethod
    def parallel(monkeypatch, cores):
        """Slabs of 64 elements, and every array of more than 1024 elements
        on the parallel path."""
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", 64)
        monkeypatch.setattr(spectral, "PARALLEL_ELEMENTS", 1024)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_slab_map_returns_results_in_slab_order(self, monkeypatch, cores):
        self.parallel(monkeypatch, cores)
        shape = (40, 8, 8)
        parts = slabs(shape)
        assert len(parts) == 40
        idents = set()

        def bounds(s):
            idents.add(threading.get_ident())
            time.sleep(1e-4)  # long enough that every thread gets a slab
            return s.start, s.stop

        assert slab_map(bounds, shape) == [(s.start, s.stop) for s in parts]
        if cores == 1:
            assert idents == {threading.get_ident()}
        else:
            assert len(idents) >= 2

    def test_slab_map_fills_every_slab_once(self, monkeypatch):
        # more threads than cores and a short switch interval: a slab taken
        # twice or not at all changes the sum
        self.parallel(monkeypatch, 4)
        out = np.zeros((400, 8, 8))
        idents = set()

        def fill(s):
            idents.add(threading.get_ident())
            out[s] += s.start + 1.0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                slab_map(fill, out.shape)
        finally:
            sys.setswitchinterval(interval)
        assert len(idents) >= 2
        assert np.array_equal(out, np.broadcast_to(20.0 * np.arange(1.0, 401.0)[:, None, None], out.shape))

    @pytest.mark.parametrize(
        "shape,cores,slab_elements,parallel_elements",
        [
            ((16, 16), 2, 2**15, 2**18),  # one slab
            ((64, 64, 64), 2, 2**11, 2**18),  # 128 slabs of an array of exactly 2^18 elements
            ((40, 8, 8), 2, 64, 2560),  # 40 slabs at the threshold
            ((40, 8, 8), 1, 64, 1024),  # one core
        ],
    )
    def test_small_array_or_one_core_runs_on_the_calling_thread(
        self, monkeypatch, shape, cores, slab_elements, parallel_elements
    ):
        monkeypatch.setattr(spectral, "CORES", cores)
        monkeypatch.setattr(spectral, "SLAB_ELEMENTS", slab_elements)
        monkeypatch.setattr(spectral, "PARALLEL_ELEMENTS", parallel_elements)
        started = []
        monkeypatch.setattr(spectral.threading, "Thread", lambda *a, **k: started.append(k))
        assert slab_map(lambda s: threading.get_ident(), shape) == [threading.get_ident()] * len(slabs(shape))
        assert started == []

    def test_slab_map_raises_what_a_slab_raises(self, monkeypatch):
        self.parallel(monkeypatch, 2)
        idents = set()

        def fail_late(s):
            idents.add(threading.get_ident())
            time.sleep(1e-4)
            if s.start == 37:
                raise ZeroDivisionError("slab 37")
            return s.start

        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="slab 37"):
            slab_map(fail_late, (40, 8, 8))
        assert len(idents) == 2
        assert threading.active_count() == before
        assert slab_map(lambda s: s.start, (40, 8, 8)) == list(range(40))
