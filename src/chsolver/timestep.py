"""Variable-step BDF2 weights, step meshes, and convolution-kernel checks.

With step ratio r_n = tau_n / tau_{n-1} (and r_1 = 0), the two-step
backward differentiation operator applied to a sequence u^0..u^n is

    D2 u^n = b0(n) * (u^n - u^{n-1}) + b1(n) * (u^{n-1} - u^{n-2}),
    b0(n) = (1 + 2 r_n) / (tau_n * (1 + r_n)),
    b1(n) = -r_n^2 / (tau_n * (1 + r_n)),

so the first step degenerates to backward Euler.  The ratio condition
r_k <= r_max - delta, with r_max the real root of x^3 = (2x+1)^2
(about 4.8645), is what the energy estimates require.

The theta kernels below invert the lower-triangular convolution operator
built from the b weights (discrete orthogonal convolution), and the p
kernels are their cumulative sums (discrete complementary convolution).
Both are reconstructed by O(n) back-substitution per row and serve only
for a-posteriori verification; the stepper never uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq


class SingularKernelError(ArithmeticError):
    """A nonpositive leading weight b0; signals a corrupted mesh."""


class A1ViolationError(ValueError):
    """A step ratio exceeds the admissible bound r_max - delta."""


@lru_cache(maxsize=1)
def r_max_root() -> float:
    """Real root of x^3 = (2x+1)^2 lying in (4, 5)."""
    return float(brentq(lambda x: x**3 - (2.0 * x + 1.0) ** 2, 4.0, 5.0, xtol=1e-14))


@dataclass(frozen=True)
class TimeMesh:
    """Step sizes tau_1..tau_K over [0, horizon], indexed 1-based.

    delta is the ratio margin: the mesh is admissible when every ratio
    r_k = tau_k/tau_{k-1} satisfies 0 < r_k <= r_max - delta.
    """

    steps: np.ndarray
    delta: float = 0.01

    def __post_init__(self):
        steps = np.array(self.steps, dtype=np.float64, ndmin=1)
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("steps must be a nonempty 1d sequence")
        if not np.all(np.isfinite(steps)) or not np.all(steps > 0):
            raise ValueError("all steps must be finite and positive")
        if not 0 < self.delta < r_max_root():
            raise ValueError(f"delta must lie in (0, r_max), got {self.delta}")
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

    def _check_index(self, n: int, lowest: int = 1) -> None:
        if not lowest <= n <= self.steps.size:
            raise IndexError(f"step index {n} outside {lowest}..{self.steps.size}")

    def tau(self, n: int) -> float:
        self._check_index(n)
        return float(self.steps[n - 1])

    def ratio(self, n: int) -> float:
        self._check_index(n)
        return float(self.ratios[n - 1])

    def time(self, n: int) -> float:
        if not 0 <= n <= self.steps.size:
            raise IndexError(f"node index {n} outside 0..{self.steps.size}")
        return float(self.times[n])

    def satisfies_a1(self) -> bool:
        return bool(self.max_ratio <= r_max_root() - self.delta)

    def require_a1(self) -> None:
        if not self.satisfies_a1():
            raise A1ViolationError(
                f"max step ratio {self.max_ratio:.6f} exceeds r_max - delta = "
                f"{r_max_root() - self.delta:.6f}"
            )


def bdf_weights(tau_n: float, r_n: float) -> tuple[float, float]:
    """Leading weights (b0, b1) for one step; r_n = 0 gives backward Euler."""
    if tau_n <= 0:
        raise ValueError(f"tau must be positive, got {tau_n}")
    if r_n < 0:
        raise ValueError(f"step ratio must be nonnegative, got {r_n}")
    denom = tau_n * (1.0 + r_n)
    return (1.0 + 2.0 * r_n) / denom, -(r_n**2) / denom


def bdf2_apply(mesh: TimeMesh, values) -> list:
    """D2 u^j for j = 1..len(values)-1, where values = [u^0, u^1, ...]."""
    m = len(values) - 1
    if m < 1:
        raise ValueError("need at least u^0 and u^1")
    mesh._check_index(m)
    out = []
    for j in range(1, m + 1):
        b0, b1 = bdf_weights(mesh.tau(j), mesh.ratio(j))
        d = b0 * (values[j] - values[j - 1])
        if j >= 2:
            d = d + b1 * (values[j - 1] - values[j - 2])
        out.append(d)
    return out


def _weight_table(mesh: TimeMesh, n: int) -> tuple[np.ndarray, np.ndarray]:
    # b0[j], b1[j] for j = 1..n at 1-based positions; index 0 unused
    b0 = np.empty(n + 1)
    b1 = np.empty(n + 1)
    for j in range(1, n + 1):
        b0[j], b1[j] = bdf_weights(mesh.tau(j), mesh.ratio(j))
    if np.any(b0[1:] <= 0):
        raise SingularKernelError("nonpositive leading weight b0")
    return b0, b1


def doc_kernels(mesh: TimeMesh, n: int) -> np.ndarray:
    """Orthogonal kernels theta[m] = theta^{(n)}_m for m = 0..n-1.

    Defined by sum_{j=k}^{n} theta^{(n)}_{n-j} b^{(j)}_{j-k} = delta_{nk}
    for every k = 1..n; since b has bandwidth 2 the system is solved by a
    two-term back-substitution.
    """
    mesh._check_index(n)
    b0, b1 = _weight_table(mesh, n)
    theta = np.empty(n)
    theta[0] = 1.0 / b0[n]
    for m in range(1, n):
        k = n - m
        theta[m] = -b1[k + 1] * theta[m - 1] / b0[k]
    return theta


def dcc_kernels(mesh: TimeMesh, n: int) -> np.ndarray:
    """Complementary kernels p[m] = p^{(n)}_m for m = 0..n-1.

    Defined by sum_{j=k}^{n} p^{(n)}_{n-j} b^{(j)}_{j-k} = 1 for every
    k = 1..n; equivalently p^{(n)}_{n-j} = sum_{l=j}^{n} theta^{(l)}_{l-j}.
    """
    mesh._check_index(n)
    b0, b1 = _weight_table(mesh, n)
    p = np.empty(n)
    p[0] = 1.0 / b0[n]
    for m in range(1, n):
        k = n - m
        p[m] = (1.0 - b1[k + 1] * p[m - 1]) / b0[k]
    return p


class QuadraticFormCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def quadratic_form_check(mesh: TimeMesh, w, slack: float = 1e-10) -> QuadraticFormCheck:
    """Positive-definiteness chain of the orthogonal kernels.

    For an admissible mesh and any reals w_1..w_n,

        2 sum_k w_k sum_{j<=k} theta^{(k)}_{k-j} w_j
            >= (delta/20) sum_k (sum_{s>=k} theta^{(s)}_{s-k} w_s)^2 / tau_k
            >= 0.

    Returns both sides and whether the chain holds up to the given
    absolute slack.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    if w.ndim != 1 or n == 0:
        raise ValueError("w must be a nonempty 1d sequence")
    mesh._check_index(n)
    mesh.require_a1()
    thetas = [doc_kernels(mesh, k) for k in range(1, n + 1)]
    lhs = 0.0
    for k in range(1, n + 1):
        inner = float(np.dot(thetas[k - 1], w[k - 1 :: -1][:k]))
        lhs += 2.0 * w[k - 1] * inner
    rhs = 0.0
    for k in range(1, n + 1):
        acc = 0.0
        for s in range(k, n + 1):
            acc += thetas[s - 1][s - k] * w[s - 1]
        rhs += acc**2 / mesh.tau(k)
    rhs *= mesh.delta / 20.0
    passed = (lhs >= rhs - slack) and (rhs >= -slack)
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
    """Identity residuals at row n (all should be tiny; bound_margin <= 0)."""

    doc_orthogonality: float
    dcc_identity: float
    dcc_sum: float
    dcc_bound_margin: float
    telescoping: float


def kernel_residuals(mesh: TimeMesh, n: int, values=None) -> KernelResiduals:
    """Evaluate the defining identities of the theta and p kernels at row n.

    values is the scalar sequence u^0..u^n used for the telescoping check
    sum_j theta^{(n)}_{n-j} D2 u^j = u^n - u^{n-1}; by default the
    quadratic sequence u^j = t_j^2 is used.
    """
    mesh._check_index(n)
    b0, b1 = _weight_table(mesh, n)
    theta = doc_kernels(mesh, n)
    p = dcc_kernels(mesh, n)

    def row_sum(kern, k):
        # sum over j = k..n of kern[n-j] * b^{(j)}_{j-k}; bandwidth 2
        s = kern[n - k] * b0[k]
        if k + 1 <= n:
            s += kern[n - k - 1] * b1[k + 1]
        return s

    doc_res = max(abs(row_sum(theta, k) - (1.0 if k == n else 0.0)) for k in range(1, n + 1))
    dcc_res = max(abs(row_sum(p, k) - 1.0) for k in range(1, n + 1))
    dcc_sum = abs(float(p.sum()) - mesh.time(n))
    bound_margin = float(p.max()) - 2.0 * float(mesh.steps.max())

    if values is None:
        values = [mesh.time(j) ** 2 for j in range(0, n + 1)]
    if len(values) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} sequence values, got {len(values)}")
    d2 = bdf2_apply(mesh, list(values))
    tel = sum(theta[n - j] * d2[j - 1] for j in range(1, n + 1))
    tel_res = abs(tel - (values[n] - values[n - 1]))

    return KernelResiduals(
        doc_orthogonality=float(doc_res),
        dcc_identity=float(dcc_res),
        dcc_sum=float(dcc_sum),
        dcc_bound_margin=float(bound_margin),
        telescoping=float(tel_res),
    )
