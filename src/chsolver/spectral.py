"""Scalar fields on periodic uniform grids, with Fourier-space operators.

A field lives on the N^dim collocation grid of the cube (0, L)^dim and is
held in physical space (real values at the grid points), in coefficient
space (complex Fourier coefficients), or both.  Coefficients follow the
convention

    u_hat_k = (1/|Omega|) * int_Omega u(x) exp(-i k.x) dx,

so a constant field c has u_hat_0 = c.  Wavenumbers are 2*pi*m/L with
integer mode index m.

Fields are real, so u_hat_{-k} = conj(u_hat_k) and only the half spectrum
is stored: the layout of scipy's rfftn, of shape (N,)*(dim-1) + (N/2+1,).
On the last axis m runs over 0..N/2; on the others over 0..N/2-1,
-N/2..-1 (FFT ordering).  The transforms are rfftn/irfftn, so the inverse
of any half spectrum is a real field by construction.

An entry on the last-axis planes m = 0 and m = N/2 is its own mirror; every
other entry also stands for its conjugate at -k.  Sums over the full
spectrum therefore weight the half spectrum by 1 on those two planes and by
2 elsewhere, and Parseval reads

    ||u||_L2^2 = |Omega| * sum_k w_k |u_hat_k|^2,   w_k in {1, 2},

which agrees with the physical-space quadrature h^dim * sum_j u_j^2 exactly.

scipy.fft is imported at the first transform, not with this module, so a
command that transforms nothing (``kernels``, ``check --records``) never
loads it.  ``forward`` and ``inverse`` look up ``rfftn``/``irfftn`` on the
scipy.fft module at every call, so anything that wraps those functions
there reaches every transform.

A step uses every core the process may run on (CORES, from its CPU
affinity).  Transforms of grids with at least 2^18 points pass
``workers=CORES``; smaller ones are called as before, with scipy's default.
Pointwise passes run slab by slab along axis 0 (``slabs``, at most
SLAB_ELEMENTS = 2^15 elements each), and ``slab_map`` shares the slabs of a
multi-slab pass between the calling thread and CORES - 1 pool threads,
started at the first such pass; numpy releases the GIL inside the slab
arithmetic.  Results come back in slab order, ``slab_sum`` adds per-slab
scalars in that order, and neither the transforms' output nor the slabs
depend on the thread count, so neither does any result.  A process confined
to one core (``taskset -c 0``) takes the serial path: plain loops, no
threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np


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
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of the half spectrum."""
        return (self.modes,) * (self.dim - 1) + (self.modes // 2 + 1,)

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
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the half-spectrum mode grid."""
        last = 2.0 * np.pi * np.fft.rfftfreq(self.modes, d=self.spacing)
        k2 = np.zeros(self.spectral_shape)
        for axis in range(self.dim):
            k = last if axis == self.dim - 1 else self.wavenumbers
            shape = [1] * self.dim
            shape[axis] = k.size
            k2 += (k**2).reshape(shape)
        k2.setflags(write=False)
        return k2

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid arrays of the collocation points, one array per direction."""
        x = np.arange(self.modes) * self.spacing
        return np.meshgrid(*([x] * self.dim), indexing="ij")


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The cores this process may run on: the transform workers of large grids
# and the threads of slab_map.
CORES = _cores()

# Grids with at least this many points are transformed with CORES workers.
PARALLEL_FFT_POINTS = 2**18


def _workers(points: int) -> dict:
    return {"workers": CORES} if points >= PARALLEL_FFT_POINTS else {}


def forward(u: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of the real grid array u."""
    from scipy import fft

    return fft.rfftn(u, norm="forward", **_workers(u.size))


def inverse(coef: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Real grid array of the given shape from its half-spectrum coefficients."""
    from scipy import fft

    return fft.irfftn(coef, s=shape, norm="forward", **_workers(math.prod(shape)))


# Pointwise passes over grid arrays and half spectra run slab by slab along
# axis 0, each slab of at most this many elements (and at least one plane),
# so their temporaries stay slab-sized instead of full-sized, also with
# CORES slabs in flight at once.
SLAB_ELEMENTS = 2**15


def slabs(shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Slices along axis 0 that cut an array of the given shape into slabs
    of at most SLAB_ELEMENTS elements (at least one plane each)."""
    return _slabs(shape, SLAB_ELEMENTS)


@lru_cache(maxsize=64)
def _slabs(shape: tuple[int, ...], cap: int) -> tuple[slice, ...]:
    rows = max(1, cap // math.prod(shape[1:]))
    return tuple(slice(i, i + rows) for i in range(0, shape[0], rows))


_pool = None


def slab_map(fn, shape: tuple[int, ...]) -> list:
    """[fn(s) for s in slabs(shape)], in slab order.  With more than one slab
    and more than one core, the calling thread and CORES - 1 pool threads
    take slabs in turn until none are left.  fn must write only to its own
    slab of any array."""
    parts = slabs(shape)
    if len(parts) == 1 or CORES == 1:
        return [fn(s) for s in parts]
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(CORES - 1, thread_name_prefix="chsolver-slab")
    results = [None] * len(parts)
    todo = iter(range(len(parts)))
    # a pool thread lets go of its task only after the caller has moved on,
    # and fn may hold full-size arrays (the solve holds f_hat), so the tasks
    # reach fn through a box that is emptied before returning
    box = [fn]

    def drain():
        for i in todo:  # one C call per index, so under the GIL each is taken once
            results[i] = box[0](parts[i])

    helpers = [_pool.submit(drain) for _ in range(min(CORES, len(parts)) - 1)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.exception()  # waits for the helper, whatever it raised
        box.clear()
    for helper in helpers:
        helper.result()  # re-raises a helper's exception
    return results


def slab_sum(fn, shape: tuple[int, ...]) -> float:
    """Sum of the scalars slab_map(fn, shape) returns, added in slab order so
    that the result does not depend on the thread count."""
    total = 0.0
    for term in slab_map(fn, shape):
        total += term
    return total


def _forget_pool() -> None:
    # a forked child inherits the pool but none of its threads, so work
    # submitted to it would wait forever; the child starts its own
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # platforms without fork have no such hook
    os.register_at_fork(after_in_child=_forget_pool)


def parseval_terms(coef: np.ndarray, symbol: np.ndarray | None = None) -> float:
    """sum over the full spectrum of symbol_k |u_hat_k|^2 for the rows coef
    of a half spectrum (any slab along axis 0), without the |Omega| factor."""
    sq = np.abs(coef)
    sq *= sq
    if symbol is not None:
        sq *= symbol
    # planes 0 and N/2 of the last axis are their own mirrors; the rest count twice
    return float(2.0 * sq.sum() - sq[..., 0].sum() - sq[..., -1].sum())


def parseval_sum(grid: Grid, coef: np.ndarray, symbol: np.ndarray | None = None) -> float:
    """|Omega| * sum over the full spectrum of symbol_k |u_hat_k|^2, from the
    half spectrum coef (symbol defaults to 1 and must be even in k)."""

    def terms(s):
        return parseval_terms(coef[s], None if symbol is None else symbol[s])

    return grid.volume * slab_sum(terms, coef.shape)


def cubic(u: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """(u^3 - u)/eps^2 by in-place ufuncs, into out (a new array by default)."""
    w = np.multiply(u, u, out=out)
    w -= 1.0
    w *= u
    w /= eps**2
    return w


def cubic_coefficients(grid: Grid, u: np.ndarray, eps: float, dealias: bool = False) -> np.ndarray:
    """Half-spectrum coefficients of f(u) = (u^3 - u)/eps^2 for the real grid array u.

    By default the product is formed by straight collocation on the native
    grid.  With dealias=True the cubic is evaluated on a 3N/2 zero-padded
    grid and truncated back; the truncation scrubs the Nyquist planes of the
    result.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if dealias:
        return _dealiased_cubic(grid, forward(u), eps)
    return forward(cubic(u, eps))


def _dealiased_cubic(grid: Grid, coef: np.ndarray, eps: float) -> np.ndarray:
    n, half, dim = grid.modes, grid.modes // 2, grid.dim
    fine = 3 * n // 2
    pad = np.zeros((fine,) * (dim - 1) + (fine // 2 + 1,), dtype=np.complex128)
    # A coarse Nyquist coefficient (index N/2) is mode +N/2 and -N/2 at once;
    # the real field it stands for puts half of it at each on the padded grid.
    # So place the spectrum twice, with the Nyquist index counted as -N/2
    # (split point m = half) and as +N/2 (m = half + 1), and halve: the other
    # modes come out whole.
    for m in (half, half + 1):
        blocks = ((slice(0, m), slice(0, m)), (slice(m, n), slice(fine - n + m, fine)))
        for combo in product(blocks, repeat=dim - 1):
            src = tuple(b[0] for b in combo) + (slice(0, m),)
            dst = tuple(b[1] for b in combo) + (slice(0, m),)
            pad[dst] += coef[src]
    pad *= 0.5
    w_hat = forward(cubic(inverse(pad, (fine,) * dim), eps))
    out = np.zeros(grid.spectral_shape, dtype=np.complex128)
    blocks = ((slice(0, half), slice(0, half)), (slice(half + 1, n), slice(fine - half + 1, fine)))
    for combo in product(blocks, repeat=dim - 1):
        dst = tuple(b[0] for b in combo) + (slice(0, half),)
        src = tuple(b[1] for b in combo) + (slice(0, half),)
        out[dst] = w_hat[src]
    return out


def _require_hermitian(coef: np.ndarray) -> None:
    """ValueError unless the self-mirrored last-axis planes m = 0 and m = N/2
    of the half spectrum coef equal their conjugate mirror images (index -k
    on the other axes) to within 1e-12 of the largest coefficient.  irfftn
    would silently project any other input, and norms summed from the
    coefficients would then disagree with the field."""
    tol = 1e-12 * np.abs(coef).max()
    for m in (0, coef.shape[-1] - 1):
        plane = coef[..., m]
        axes = tuple(range(plane.ndim))
        mirror = np.roll(np.flip(plane, axes), 1, axes)
        if not np.abs(plane - mirror.conj()).max() <= tol:
            raise ValueError(f"coefficient plane m = {m} is not Hermitian (not a real field)")


class SpectralField:
    """Immutable real scalar field on a :class:`Grid`.

    Either representation may be supplied at construction; the other is
    computed on demand and cached.  Coefficients are the half spectrum, and
    its self-mirrored planes must be Hermitian (ValueError otherwise).
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
            if coefficients.shape != grid.spectral_shape:
                raise ValueError(
                    f"coefficient shape {coefficients.shape} does not match grid {grid.spectral_shape}"
                )
            _require_hermitian(coefficients)
            coefficients.setflags(write=False)
        self._physical = physical
        self._coefficients = coefficients

    @classmethod
    def _of_hermitian(cls, grid: Grid, coefficients: np.ndarray) -> "SpectralField":
        """Field from a half spectrum known to pass the Hermitian check."""
        field = cls.__new__(cls)
        coefficients.setflags(write=False)
        field.grid, field._physical, field._coefficients = grid, None, coefficients
        return field

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "SpectralField":
        return cls(grid, physical=np.full(grid.shape, float(value)))

    def to_coefficients(self) -> "SpectralField":
        """Materialize the coefficient representation; returns self."""
        if self._coefficients is None:
            coef = forward(self._physical)
            coef.setflags(write=False)
            self._coefficients = coef
        return self

    def to_physical(self) -> "SpectralField":
        """Materialize the physical representation; returns self."""
        if self._physical is None:
            phys = inverse(self._coefficients, self.grid.shape)
            phys.setflags(write=False)
            self._physical = phys
        return self

    @property
    def coefficients(self) -> np.ndarray:
        return self.to_coefficients()._coefficients

    @property
    def physical(self) -> np.ndarray:
        return self.to_physical()._physical

    def l2_norm_sq(self) -> float:
        """||u||_L2^2 = |Omega| * sum w |u_hat|^2."""
        return parseval_sum(self.grid, self.coefficients)

    def grad_norm_sq(self) -> float:
        """||grad u||_L2^2 = |Omega| * sum w |k|^2 |u_hat|^2."""
        return parseval_sum(self.grid, self.coefficients, self.grid.k_squared)

    def h1_norm(self) -> float:
        return float(np.sqrt(self.l2_norm_sq() + self.grad_norm_sq()))

    def integral(self) -> float:
        """(u, 1) = |Omega| * u_hat_0."""
        return self.grid.volume * float(self.coefficients[(0,) * self.grid.dim].real)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        """Difference of two fields on the same grid, in coefficient space."""
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        # the operands are half spectra of real fields; a check of the
        # difference would weigh their rounding against a possibly tiny result
        return SpectralField._of_hermitian(self.grid, self.coefficients - other.coefficients)
