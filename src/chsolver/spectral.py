"""Scalar fields on periodic uniform grids, with Fourier-space operators.

A field lives on the N^dim collocation grid of the cube (0, L)^dim: a real
array of its values at the grid points, and the half spectrum of its
complex Fourier coefficients, which follow the convention

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
Norms and integrals are functions of a grid and a half spectrum
(``parseval_sum``, ``h1_norm``, ``integral``); ``SpectralField`` only wraps
read-only grid values, for initial fields a caller passes to the stepper
and for snapshots a run keeps.

A grid keeps no array of the half spectrum's size.  |k|^2 = kx^2 + ky^2
(+ kz^2) is separable, so a Grid caches each axis's squared wavenumbers
(``axis_k_squared``) and builds |k|^2 for the rows of one slab when a pass
asks for them (``k_squared_rows``).

scipy.fft is imported at the first transform, not with this module, so a
command that transforms nothing (``kernels``, ``check --records``) never
loads it.  ``forward`` and ``inverse`` look up ``rfftn``/``irfftn`` on the
scipy.fft module at every call, so anything that wraps those functions
there reaches every transform.

A step uses every core the process may run on (CORES, from its CPU
affinity) on arrays of more than PARALLEL_ELEMENTS = 2^18 elements, and
only there: ``forward`` and ``inverse`` pass ``workers=CORES`` for such
grids, and ``slab_map`` shares the slabs of a pass over such an array
between the calling thread and CORES - 1 threads started for that pass and
joined before it returns; numpy releases the GIL inside the slab
arithmetic.  On smaller arrays the hand-off costs what the other cores
save, so they run on the calling thread with scipy's default transform.
Pointwise passes run slab by slab along axis 0 (``slabs``, at most
SLAB_ELEMENTS = 2^15 elements each).  Results come back in slab order,
``slab_sum`` adds per-slab scalars in that order, and neither the
transforms' output nor the slabs depend on the thread count, so neither
does any result.  A process confined to one core (``taskset -c 0``) takes
the serial path: plain loops, no threads.
"""

from __future__ import annotations

import math
import operator
import os
import threading
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
        for count in (self.dim, self.modes):
            operator.index(count)  # TypeError unless an integer
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.modes < 4 or self.modes % 2 != 0:
            raise ValueError(f"modes must be even and >= 4, got {self.modes}")
        if not 0 < self.length < math.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")

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
    def axis_k_squared(self) -> tuple[np.ndarray, ...]:
        """The squared wavenumbers of each axis, shaped to broadcast along
        that axis of the half spectrum (the last axis has m = 0..N/2 only)."""
        last = 2.0 * np.pi * np.fft.rfftfreq(self.modes, d=self.spacing)
        squares = []
        for axis in range(self.dim):
            k = last if axis == self.dim - 1 else self.wavenumbers
            shape = [1] * self.dim
            shape[axis] = k.size
            k2 = (k**2).reshape(shape)
            k2.setflags(write=False)
            squares.append(k2)
        return tuple(squares)

    def k_squared_rows(self, s: slice) -> np.ndarray:
        """|k|^2 on the rows s (along axis 0) of the half-spectrum mode grid,
        as a new array, with the axes' squares added in axis order."""
        first, *rest = self.axis_k_squared
        rows = first[s]
        for k2 in rest:
            rows = rows + k2
        return rows

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid arrays of the collocation points, one array per direction."""
        x = np.arange(self.modes) * self.spacing
        return np.meshgrid(*([x] * self.dim), indexing="ij")


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The cores this process may run on: the transform workers and the slab
# threads of large arrays.
CORES = _cores()

# Arrays of more than this many elements are transformed with CORES workers
# and have their slab passes shared among CORES threads; smaller ones run on
# the calling thread alone.
PARALLEL_ELEMENTS = 2**18


def _parallel(size: int) -> bool:
    return CORES > 1 and size > PARALLEL_ELEMENTS


def _workers(size: int) -> dict:
    return {"workers": CORES} if _parallel(size) else {}


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


def slab_map(fn, shape: tuple[int, ...]) -> list:
    """[fn(s) for s in slabs(shape)], in slab order.  On an array of more
    than PARALLEL_ELEMENTS elements and more than one core, the calling
    thread and CORES - 1 threads started for this call take slabs in turn
    until none are left; the threads are joined before it returns, and the
    first exception a slab raised is raised again.  fn must write only to
    its own slab of any array."""
    parts = slabs(shape)
    if not _parallel(math.prod(shape)):
        return [fn(s) for s in parts]
    results = [None] * len(parts)
    todo = iter(range(len(parts)))
    errors = []

    def drain():
        try:
            for i in todo:  # one C call per index, so under the GIL each is taken once
                results[i] = fn(parts[i])
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=drain) for _ in range(CORES - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return results


def slab_sum(fn, shape: tuple[int, ...]) -> float:
    """Sum of the scalars slab_map(fn, shape) returns, added in slab order so
    that the result does not depend on the thread count."""
    total = 0.0
    for term in slab_map(fn, shape):
        total += term
    return total


def parseval_terms(coef: np.ndarray, symbol: np.ndarray | None = None) -> float:
    """sum over the full spectrum of symbol_k |u_hat_k|^2 for the rows coef
    of a half spectrum (any slab along axis 0), without the |Omega| factor."""
    sq = np.abs(coef)
    sq *= sq
    if symbol is not None:
        sq *= symbol
    # planes 0 and N/2 of the last axis are their own mirrors; the rest count twice
    return float(2.0 * sq.sum() - sq[..., 0].sum() - sq[..., -1].sum())


def parseval_sum(grid: Grid, coef: np.ndarray, symbol=None) -> float:
    """|Omega| * sum over the full spectrum of symbol_k |u_hat_k|^2, from the
    half spectrum coef.  symbol, if given, maps a slab s to its values on
    coef[s] (grid.k_squared_rows for |k|^2); it defaults to 1 and must be
    even in k."""

    def terms(s):
        return parseval_terms(coef[s], None if symbol is None else symbol(s))

    return grid.volume * slab_sum(terms, coef.shape)


def cubic(u: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """(u^3 - u)/eps^2 by in-place ufuncs, into out (a new array by default)."""
    w = np.multiply(u, u, out=out)
    w -= 1.0
    w *= u
    w /= eps**2
    return w


def dealiased_cubic(grid: Grid, u: np.ndarray, eps: float) -> np.ndarray:
    """Half-spectrum coefficients of f(u) = (u^3 - u)/eps^2 for the real grid
    array u, with the cubic evaluated on a 3N/2 zero-padded grid and
    truncated back; the truncation scrubs the Nyquist planes of the result.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    coef = forward(u)
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


def integral(grid: Grid, coef: np.ndarray) -> float:
    """(u, 1) = |Omega| * u_hat_0 of the field with half spectrum coef."""
    return grid.volume * float(coef[(0,) * grid.dim].real)


def h1_norm(grid: Grid, coef: np.ndarray) -> float:
    """sqrt(||u||_L2^2 + ||grad u||_L2^2) of the field with half spectrum coef."""
    return math.sqrt(parseval_sum(grid, coef) + parseval_sum(grid, coef, grid.k_squared_rows))


class SpectralField:
    """Real scalar field on a :class:`Grid`, given by its grid values, which
    are marked read-only; its half spectrum is computed on first use, cached
    and read-only too."""

    def __init__(self, grid: Grid, physical):
        physical = np.asarray(physical, dtype=np.float64)
        if physical.shape != grid.shape:
            raise ValueError(f"physical shape {physical.shape} does not match grid {grid.shape}")
        physical.setflags(write=False)
        self.grid, self.physical = grid, physical

    @cached_property
    def coefficients(self) -> np.ndarray:
        coef = forward(self.physical)
        coef.setflags(write=False)
        return coef

    def integral(self) -> float:
        """(u, 1) = |Omega| * u_hat_0."""
        return integral(self.grid, self.coefficients)
