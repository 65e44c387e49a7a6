"""Per-row loop reference for the kernel toolbox in chsolver.timestep.

The kernels are rebuilt row by row with the scalar weights of
``bdf_weights``, by the two-term back-substitutions that define them, and
the identity residuals and the quadratic form by explicit loops.  The
library builds all rows at once by one column sweep and checks their
identities with matrix products, and evaluates the quadratic form by two
substitutions through the bidiagonal weight matrix; the tests require
both to agree to rounding.  ``bdf2_apply`` applies the library's table
form of the BDF2 operator, which only the kernel residuals use, to a mesh.
``write_kernels_csv`` is the earlier kernels.csv writer, one ``%``
template with ``%d`` for n and the offset per row block; the library's
writer must give the same bytes.
"""

from itertools import chain, repeat

import numpy as np

import chsolver.timestep as ts
from chsolver.timestep import bdf_weights


def bdf2_apply(mesh, values):
    """D2 u^j for j = 1..len(values)-1 at positions j-1, where
    values = [u^0, u^1, ...] holds scalars or equally shaped arrays: the
    library's table form, which kernel residuals use, on the mesh's weights."""
    u = np.asarray(values, dtype=np.float64)
    m = len(u) - 1
    if m < 1:
        raise ValueError("need at least u^0 and u^1")
    mesh._check_index(m)
    return ts._bdf2_apply_table(*ts._weight_table(mesh, m), u)


def weight_table(mesh, n):
    """b0[j], b1[j] for j = 1..n at 1-based positions; index 0 unused."""
    b0 = np.empty(n + 1)
    b1 = np.empty(n + 1)
    for j in range(1, n + 1):
        b0[j], b1[j] = bdf_weights(mesh.tau(j), mesh.ratios[j - 1])
    return b0, b1


def doc_row(mesh, n):
    """theta[m] = theta^{(n)}_m for m = 0..n-1."""
    b0, b1 = weight_table(mesh, n)
    theta = np.empty(n)
    theta[0] = 1.0 / b0[n]
    for m in range(1, n):
        k = n - m
        theta[m] = -b1[k + 1] * theta[m - 1] / b0[k]
    return theta


def dcc_row(mesh, n):
    """p[m] = p^{(n)}_m for m = 0..n-1."""
    b0, b1 = weight_table(mesh, n)
    p = np.empty(n)
    p[0] = 1.0 / b0[n]
    for m in range(1, n):
        k = n - m
        p[m] = (1.0 - b1[k + 1] * p[m - 1]) / b0[k]
    return p


def residual_row(mesh, n, values=None):
    """(doc_orthogonality, dcc_identity, dcc_sum, dcc_bound_margin,
    telescoping) at row n; values defaults to u^j = (t_j / t_n)^2."""
    b0, b1 = weight_table(mesh, n)
    theta = doc_row(mesh, n)
    p = dcc_row(mesh, n)

    def row_sum(kern, k):
        s = kern[n - k] * b0[k]
        if k + 1 <= n:
            s += kern[n - k - 1] * b1[k + 1]
        return s

    doc_res = max(abs(row_sum(theta, k) - (1.0 if k == n else 0.0)) for k in range(1, n + 1))
    dcc_res = max(abs(row_sum(p, k) - 1.0) for k in range(1, n + 1))
    dcc_sum = abs(float(p.sum()) - mesh.times[n])
    bound_margin = float(p.max()) - 2.0 * float(mesh.steps.max())

    if values is None:
        values = [(mesh.times[j] / mesh.times[n]) ** 2 for j in range(0, n + 1)]
    d2 = []
    for j in range(1, n + 1):
        d = b0[j] * (values[j] - values[j - 1])
        if j >= 2:
            d = d + b1[j] * (values[j - 1] - values[j - 2])
        d2.append(d)
    tel = sum(theta[n - j] * d2[j - 1] for j in range(1, n + 1))
    tel_res = abs(tel - (values[n] - values[n - 1]))
    return doc_res, dcc_res, dcc_sum, bound_margin, tel_res


def quadratic_form(mesh, w):
    """(lhs, rhs) of the positivity chain by the double loop over rows."""
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    thetas = [doc_row(mesh, k) for k in range(1, n + 1)]
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
    return lhs, rhs


KERNEL_ROW = "%d,%d,%.17g,%.17g\n"


def write_kernels_csv(path, theta, p):
    """kernels.csv of the kernel matrices theta and p: the header, then row
    block n = 1..len(theta) through KERNEL_ROW * n applied to the tuples
    (n, m, theta^{(n)}_m, p^{(n)}_m) of the row's .tolist() slices."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,offset,theta,p\n")
        for n in range(1, len(theta) + 1):
            th, pp = theta[n - 1, n - 1 :: -1].tolist(), p[n - 1, n - 1 :: -1].tolist()
            fh.write(KERNEL_ROW * n % tuple(chain.from_iterable(zip(repeat(n), range(n), th, pp))))
