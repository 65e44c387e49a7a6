"""Variable-step BDF2 weights, step meshes, and convolution-kernel checks.

With step ratio r_n = tau_n / tau_{n-1} (and r_1 = 0), the two-step
backward differentiation operator applied to a sequence u^0..u^n is

    D2 u^n = b0(n) * (u^n - u^{n-1}) + b1(n) * (u^{n-1} - u^{n-2}),
    b0(n) = (1 + 2 r_n) / (tau_n * (1 + r_n)),
    b1(n) = -r_n^2 / (tau_n * (1 + r_n)),

so the first step degenerates to backward Euler.  The ratio condition
r_k <= r_max - delta, with r_max the real root of x^3 = (2x+1)^2
(about 4.8645), is what the energy estimates require.

With B the lower-bidiagonal matrix of the weights, B[j, k] = b^{(j)}_{j-k},
the discrete orthogonal convolution (DOC) kernels are the rows of
Theta = B^{-1}, Theta[n, j] = theta^{(n)}_{n-j}, and the discrete
complementary convolution (DCC) kernels are the rows of P = cumsum of Theta
down each column, so that P B = 1 on the lower triangle.  Both matrices are
built by one sweep over their columns with the two-term recurrences that B's
bandwidth allows; they serve only for a-posteriori verification, and the
stepper never uses them.  The positive-definiteness chain of Theta needs
neither matrix: Theta w and Theta^T w are one forward and one back
substitution through B each, so it is checked in O(n) time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np


# the A1 margin: a step ratio is admissible up to a1_cap(DELTA)
DELTA = 0.01
# the landing tolerance relative to the horizon (see landing_tol)
LANDING_RTOL = 1e-12


class SingularKernelError(ArithmeticError):
    """A nonpositive leading weight b0; signals a corrupted mesh."""


class A1ViolationError(ValueError):
    """A step ratio exceeds the admissible bound r_max - delta."""


@lru_cache(maxsize=1)
def r_max_root() -> float:
    """Real root of x^3 = (2x+1)^2 lying in (4, 5), correctly rounded.

    Newton's method on x^3 - (2x+1)^2 from x = 5: the cubic is increasing and
    convex on [4, 5], so the iterates fall onto the root from above.  Five
    steps reach 4.864536512317584 and later steps keep it; the cap of eight
    leaves a margin."""
    x = 5.0
    for _ in range(8):
        x -= (x**3 - (2.0 * x + 1.0) ** 2) / (3.0 * x * x - 8.0 * x - 4.0)
    return x


def a1_cap(delta: float = DELTA) -> float:
    """The largest admissible step ratio, r_max - delta, for a margin delta
    in (0, r_max - 1), so that the cap exceeds 1."""
    if not 0 < delta < r_max_root() - 1.0:
        raise ValueError(f"delta must lie in (0, r_max - 1), got {delta}")
    return r_max_root() - delta


def landing_tol(horizon: float) -> float:
    """How close a run up to horizon must come to a target time to land on
    it; the clock is then set to the target exactly."""
    return LANDING_RTOL * horizon


@dataclass(frozen=True)
class TimeMesh:
    """Step sizes tau_1..tau_K over [0, horizon], indexed 1-based.

    delta is the ratio margin: the mesh is admissible, and replays unclamped,
    when every step obeys the driver's clamp tau_k <= a1_cap(delta) * tau_{k-1}.
    """

    steps: np.ndarray
    delta: float = DELTA

    def __post_init__(self):
        steps = np.array(self.steps, dtype=np.float64, ndmin=1)
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("steps must be a nonempty 1d sequence")
        if not np.all(np.isfinite(steps)) or not np.all(steps > 0):
            raise ValueError("all steps must be finite and positive")
        a1_cap(self.delta)  # raises on a margin outside (0, r_max - 1)
        steps.setflags(write=False)
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return self.steps.size

    @property
    def count(self) -> int:
        return self.steps.size

    @cached_property
    def times(self) -> np.ndarray:
        """Nodes t_0 = 0, t_1, .., t_K."""
        t = np.concatenate(([0.0], np.cumsum(self.steps)))
        t.setflags(write=False)
        return t

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def ratios(self) -> np.ndarray:
        """r_k for k = 1..K at positions k-1, with r_1 = 0."""
        r = np.empty(self.steps.size)
        r[0] = 0.0
        r[1:] = self.steps[1:] / self.steps[:-1]
        r.setflags(write=False)
        return r

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())

    def _check_index(self, n: int) -> None:
        if not 1 <= n <= self.steps.size:
            raise IndexError(f"step index {n} outside 1..{self.steps.size}")

    def tau(self, n: int) -> float:
        self._check_index(n)
        return float(self.steps[n - 1])

    def satisfies_a1(self) -> bool:
        return bool((self.steps[1:] <= a1_cap(self.delta) * self.steps[:-1]).all())

    def require_a1(self) -> None:
        if not self.satisfies_a1():
            raise A1ViolationError(
                f"max step ratio {self.max_ratio:.6f} exceeds r_max - delta = {a1_cap(self.delta):.6f}"
            )


def _weights(tau, r):
    # the one expression for (b0, b1), on scalars or elementwise on arrays
    denom = tau * (1.0 + r)
    return (1.0 + 2.0 * r) / denom, -(r**2) / denom


def bdf_weights(tau_n: float, r_n: float) -> tuple[float, float]:
    """Leading weights (b0, b1) for one step; r_n = 0 gives backward Euler."""
    if not 0 < tau_n < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau_n}")
    if not 0 <= r_n < np.inf:
        raise ValueError(f"step ratio must be nonnegative and finite, got {r_n}")
    return _weights(tau_n, r_n)


def _weight_table(mesh: TimeMesh, n: int) -> tuple[np.ndarray, np.ndarray]:
    """b0, b1 of steps 1..n at positions 0..n-1."""
    b0, b1 = _weights(mesh.steps[:n], mesh.ratios[:n])
    if not np.all(b0 > 0):
        raise SingularKernelError("nonpositive or nan leading weight b0")
    return b0, b1


def _bdf2_apply_table(b0: np.ndarray, b1: np.ndarray, u: np.ndarray) -> np.ndarray:
    # D2 u^j for j = 1..len(u)-1 at positions j-1, where u = [u^0, u^1, ...]
    # holds scalars or equally shaped arrays and b0, b1 the weights of those steps
    per_step = (b0.size,) + (1,) * (u.ndim - 1)
    b0, b1 = b0.reshape(per_step), b1.reshape(per_step)
    du = np.diff(u, axis=0)
    d = b0 * du
    d[1:] += b1[1:] * du[:-1]
    return d


def kernel_matrices(mesh: TimeMesh, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Theta, P): the kernels of rows 1..n as n x n lower-triangular arrays,
    Theta[i-1, j-1] = theta^{(i)}_{i-j} and P[i-1, j-1] = p^{(i)}_{i-j}.

    The diagonals are 1/b0; for i > j, column j follows from column j+1 by

        theta^{(i)}_{i-j} = -b1(j+1) theta^{(i)}_{i-j-1} / b0(j),
        p^{(i)}_{i-j} = (1 - b1(j+1) p^{(i)}_{i-j-1}) / b0(j),

    the two-term back-substitutions of the defining systems below.
    """
    mesh._check_index(n)
    b0, b1 = _weight_table(mesh, n)
    # column-major, so that each column the sweep writes is contiguous
    theta = np.zeros((n, n), order="F")
    p = np.zeros((n, n), order="F")
    np.fill_diagonal(theta, 1.0 / b0)
    np.fill_diagonal(p, 1.0 / b0)
    b0, b1 = b0.tolist(), b1.tolist()  # Python floats are cheaper scalar operands
    for k in range(n - 1, 0, -1):
        theta[k:, k - 1] = -b1[k] * theta[k:, k] / b0[k - 1]
        p[k:, k - 1] = (1.0 - b1[k] * p[k:, k]) / b0[k - 1]
    return theta, p


def doc_kernels(mesh: TimeMesh, n: int) -> np.ndarray:
    """Orthogonal kernels theta[m] = theta^{(n)}_m for m = 0..n-1.

    Defined by sum_{j=k}^{n} theta^{(n)}_{n-j} b^{(j)}_{j-k} = delta_{nk}
    for every k = 1..n: row n of Theta = B^{-1}, reversed.
    """
    return kernel_matrices(mesh, n)[0][n - 1, ::-1].copy()


def dcc_kernels(mesh: TimeMesh, n: int) -> np.ndarray:
    """Complementary kernels p[m] = p^{(n)}_m for m = 0..n-1.

    Defined by sum_{j=k}^{n} p^{(n)}_{n-j} b^{(j)}_{j-k} = 1 for every
    k = 1..n; equivalently p^{(n)}_{n-j} = sum_{l=j}^{n} theta^{(l)}_{l-j}.
    Row n of P, reversed.
    """
    return kernel_matrices(mesh, n)[1][n - 1, ::-1].copy()


QUADRATIC_FORM_SLACK = 1e-10


class QuadraticFormCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def quadratic_form_check(mesh: TimeMesh, w) -> QuadraticFormCheck:
    """Positive-definiteness chain of the orthogonal kernels.

    For an admissible mesh and any reals w_1..w_n,

        2 sum_k w_k sum_{j<=k} theta^{(k)}_{k-j} w_j
            >= (delta/20) sum_k (sum_{s>=k} theta^{(s)}_{s-k} w_s)^2 / tau_k
            >= 0,

    that is 2 w^T Theta w >= (delta/20) sum_k (Theta^T w)_k^2 / tau_k >= 0.
    Returns both sides and whether the chain holds up to the absolute
    slack QUADRATIC_FORM_SLACK.

    Theta = B^{-1} is never formed: y = Theta w and z = Theta^T w solve
    B y = w and B^T z = w, one forward and one back substitution through the
    bidiagonal B,

        y_k = (w_k - b1(k) y_{k-1}) / b0(k),
        z_k = (w_k - b1(k+1) z_{k+1}) / b0(k),

    so the check costs O(n) time and memory.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    if w.ndim != 1 or n == 0:
        raise ValueError("w must be a nonempty 1d sequence")
    mesh._check_index(n)
    mesh.require_a1()
    b0, b1 = _weight_table(mesh, n)
    b0, b1, wl = b0.tolist(), b1.tolist(), w.tolist()  # Python floats are cheaper scalar operands
    # b1(1) = 0 and b1(n+1) := 0 start the two substitutions
    y, y_k = [], 0.0
    for w_k, b0_k, b1_k in zip(wl, b0, b1):
        y_k = (w_k - b1_k * y_k) / b0_k
        y.append(y_k)
    z, z_k = [], 0.0
    for w_k, b0_k, b1_next in zip(reversed(wl), reversed(b0), reversed(b1[1:] + [0.0])):
        z_k = (w_k - b1_next * z_k) / b0_k
        z.append(z_k)
    lhs = 2.0 * float(w @ np.array(y))
    rhs = float(np.sum(np.array(z[::-1]) ** 2 / mesh.steps[:n])) * (mesh.delta / 20.0)
    passed = lhs >= rhs - QUADRATIC_FORM_SLACK and rhs >= -QUADRATIC_FORM_SLACK
    return QuadraticFormCheck(lhs=lhs, rhs=rhs, passed=passed)


def random_mesh(horizon: float, count: int, seed: int) -> TimeMesh:
    """Random admissible mesh: tau_k = T * theta_k / sum(theta) with
    theta_k ~ Uniform(1/4.86, 1), so every ratio is below 4.86 < r_max.

    The mesh carries the matching margin delta = r_max - 4.86.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(1.0 / 4.86, 1.0, count)
    steps = horizon * theta / theta.sum()
    return TimeMesh(steps, delta=r_max_root() - 4.86)


@dataclass(frozen=True)
class KernelResiduals:
    """Identity residuals of rows 1..n, row n at position n-1 (all should
    be tiny; every bound margin <= 0)."""

    doc_orthogonality: np.ndarray
    dcc_identity: np.ndarray
    dcc_sum: np.ndarray
    dcc_bound_margin: np.ndarray
    telescoping: np.ndarray


def kernel_residuals(mesh: TimeMesh, n: int, values=None) -> KernelResiduals:
    """Evaluate the defining identities of the theta and p kernels on every
    row 1..n.

    Per row: the largest deviation of Theta B from I and of P B from 1, the
    deviation of the row sum of P from t_n, the row maximum of P less
    2 max tau (the bound p <= 2 max tau), and the telescoping residual of
    sum_j theta^{(n)}_{n-j} D2 u^j = u^n - u^{n-1}.  values is the scalar
    sequence u^0..u^n; by default the quadratic sequence u^j = (t_j / t_n)^2,
    scaled to [0, 1] so that it neither overflows nor underflows at any
    horizon.
    """
    mesh._check_index(n)
    return _residuals(mesh, *kernel_matrices(mesh, n), values)


def _residuals(mesh: TimeMesh, theta: np.ndarray, p: np.ndarray, values=None) -> KernelResiduals:
    # kernel_residuals on the matrices kernel_matrices(mesh, n) already built
    n = theta.shape[0]
    u = (mesh.times[: n + 1] / mesh.times[n]) ** 2 if values is None else np.asarray(values, dtype=np.float64)
    if u.shape != (n + 1,):
        raise ValueError(f"need n+1 = {n + 1} sequence values, got {u.size}")
    b0, b1 = _weight_table(mesh, n)

    def times_b(kern):
        # (kern B)[:, k] = kern[:, k] b0(k) + kern[:, k+1] b1(k+1): B is bidiagonal
        out = kern * b0
        out[:, :-1] += kern[:, 1:] * b1[1:]
        return out

    doc = times_b(theta)
    doc[np.diag_indices(n)] -= 1.0
    dcc = np.tril(times_b(p) - 1.0)
    return KernelResiduals(
        doc_orthogonality=np.abs(doc).max(axis=1),
        dcc_identity=np.abs(dcc).max(axis=1),
        dcc_sum=np.abs(p.sum(axis=1) - mesh.times[1 : n + 1]),
        dcc_bound_margin=p.max(axis=1) - 2.0 * mesh.steps.max(),
        telescoping=np.abs(theta @ _bdf2_apply_table(b0, b1, u) - np.diff(u)),
    )
