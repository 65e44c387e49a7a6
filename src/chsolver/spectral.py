"""Scalar fields on periodic uniform grids, with Fourier-space operators.

A field lives on the N^dim collocation grid of the cube (0, L)^dim and is
held in physical space (real values at the grid points), in coefficient
space (complex Fourier coefficients), or both.  Coefficients follow the
convention

    u_hat_k = (1/|Omega|) * int_Omega u(x) exp(-i k.x) dx,

so a constant field c has u_hat_0 = c, and Parseval reads

    ||u||_L2^2 = |Omega| * sum_k |u_hat_k|^2.

Wavenumbers are 2*pi*m/L with integer mode index m running over
0..N/2-1, -N/2..-1 per direction (FFT ordering).  The physical-space
quadrature h^dim * sum_j u_j^2 agrees with the coefficient sum exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy import fft as _fft


class ImaginaryResidueError(ValueError):
    """An inverse transform produced a significant imaginary part."""


def fft_workers() -> int | None:
    """Transform worker count from CHSOLVER_THREADS; None means library default."""
    raw = os.environ.get("CHSOLVER_THREADS")
    if raw is None or raw.strip() == "":
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"CHSOLVER_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"CHSOLVER_THREADS must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on (0, length)^dim with an even number of modes.

    Only cubic boxes are supported: one edge length, the same mode count in
    every direction.
    """

    dim: int
    length: float
    modes: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.modes < 4 or self.modes % 2 != 0:
            raise ValueError(f"modes must be even and >= 4, got {self.modes}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.modes,) * self.dim

    @property
    def spacing(self) -> float:
        return self.length / self.modes

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return self.length**self.dim

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1d array of 2*pi*m/L in FFT ordering."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.modes, d=self.spacing)
        k.setflags(write=False)
        return k

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """1d array of integer mode indices m in FFT ordering."""
        m = np.rint(np.fft.fftfreq(self.modes) * self.modes).astype(int)
        m.setflags(write=False)
        return m

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full mode grid."""
        k2 = np.zeros(self.shape)
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.modes
            k2 = k2 + (self.wavenumbers**2).reshape(shape)
        k2.setflags(write=False)
        return k2

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid arrays of the collocation points, one array per direction."""
        x = np.arange(self.modes) * self.spacing
        return np.meshgrid(*([x] * self.dim), indexing="ij")


class SpectralField:
    """Immutable scalar field on a :class:`Grid`.

    Either representation may be supplied at construction; the other is
    computed on demand and cached.  All operations return new fields.
    """

    __slots__ = ("grid", "_physical", "_coefficients")

    def __init__(self, grid: Grid, physical=None, coefficients=None):
        if physical is None and coefficients is None:
            raise ValueError("need a physical or a coefficient array")
        self.grid = grid
        if physical is not None:
            physical = np.asarray(physical, dtype=np.float64)
            if physical.shape != grid.shape:
                raise ValueError(f"physical shape {physical.shape} does not match grid {grid.shape}")
            physical.setflags(write=False)
        if coefficients is not None:
            coefficients = np.asarray(coefficients, dtype=np.complex128)
            if coefficients.shape != grid.shape:
                raise ValueError(f"coefficient shape {coefficients.shape} does not match grid {grid.shape}")
            coefficients.setflags(write=False)
        self._physical = physical
        self._coefficients = coefficients

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "SpectralField":
        return cls(grid, physical=np.full(grid.shape, float(value)))

    def to_coefficients(self) -> "SpectralField":
        """Materialize the coefficient representation; returns self."""
        if self._coefficients is None:
            coef = _fft.fftn(self._physical, workers=fft_workers())
            coef /= self.grid.modes**self.grid.dim
            coef.setflags(write=False)
            self._coefficients = coef
        return self

    def to_physical(self) -> "SpectralField":
        """Materialize the physical representation; returns self.

        Raises ImaginaryResidueError when the coefficients are not
        conjugate-symmetric, i.e. the inverse transform has an imaginary
        part above 1e-8 of the field magnitude.  A residue below that is
        discarded.
        """
        if self._physical is None:
            values = _fft.ifftn(self._coefficients, workers=fft_workers())
            values *= self.grid.modes**self.grid.dim
            scale = float(np.abs(values).max())
            residue = float(np.abs(values.imag).max())
            if residue > 1e-8 * scale:
                raise ImaginaryResidueError(
                    f"imaginary residue {residue:.3e} exceeds 1e-8 of field magnitude {scale:.3e}"
                )
            phys = np.ascontiguousarray(values.real)
            phys.setflags(write=False)
            self._physical = phys
        return self

    @property
    def coefficients(self) -> np.ndarray:
        return self.to_coefficients()._coefficients

    @property
    def physical(self) -> np.ndarray:
        return self.to_physical()._physical

    def nonlinearity(self, eps: float, dealias: bool = False) -> "SpectralField":
        """Pointwise (u^3 - u)/eps^2.

        By default the product is formed by straight collocation on the
        native grid.  With dealias=True the cubic is evaluated on a 3N/2
        zero-padded grid and truncated back; the truncation scrubs the
        unpaired Nyquist planes of the result.
        """
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not dealias:
            u = self.physical
            return SpectralField(self.grid, physical=(u**3 - u) / eps**2)
        return self._dealiased_cubic(eps)

    def _dealiased_cubic(self, eps: float) -> "SpectralField":
        g = self.grid
        fine = 3 * g.modes // 2
        src = (slice(0, g.modes // 2), slice(g.modes // 2, g.modes))
        dst = (slice(0, g.modes // 2), slice(fine - g.modes // 2, fine))
        pad = np.zeros((fine,) * g.dim, dtype=np.complex128)
        for combo in product(range(2), repeat=g.dim):
            pad[tuple(dst[c] for c in combo)] = self.coefficients[tuple(src[c] for c in combo)]
        # .real symmetrizes the unpaired Nyquist content carried into the pad
        u = (_fft.ifftn(pad, workers=fft_workers()) * fine**g.dim).real
        w_hat = _fft.fftn((u**3 - u) / eps**2, workers=fft_workers()) / fine**g.dim
        coef = np.zeros(g.shape, dtype=np.complex128)
        for combo in product(range(2), repeat=g.dim):
            coef[tuple(src[c] for c in combo)] = w_hat[tuple(dst[c] for c in combo)]
        nyq = g.mode_numbers == -(g.modes // 2)
        for axis in range(g.dim):
            shape = [1] * g.dim
            shape[axis] = g.modes
            coef = coef * (~nyq).reshape(shape)
        return SpectralField(g, coefficients=coef)

    def l2_norm_sq(self) -> float:
        """||u||_L2^2 = |Omega| * sum |u_hat|^2."""
        return self.grid.volume * float(np.sum(np.abs(self.coefficients) ** 2))

    def grad_norm_sq(self) -> float:
        """||grad u||_L2^2 = |Omega| * sum |k|^2 |u_hat|^2."""
        return self.grid.volume * float(np.sum(self.grid.k_squared * np.abs(self.coefficients) ** 2))

    def h1_norm(self) -> float:
        return float(np.sqrt(self.l2_norm_sq() + self.grad_norm_sq()))

    def integral(self) -> float:
        """(u, 1) = |Omega| * u_hat_0."""
        return self.grid.volume * float(self.coefficients[(0,) * self.grid.dim].real)

    def mean(self) -> float:
        return float(self.coefficients[(0,) * self.grid.dim].real)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        """Difference of two fields on the same grid, in coefficient space."""
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        return SpectralField(self.grid, coefficients=self.coefficients - other.coefficients)
