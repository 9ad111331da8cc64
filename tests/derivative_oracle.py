"""Reference forms of the derivative kernels, kept verbatim.

These are ``fields._d1``, ``fields._d2_pure``, ``fields.gradient_values``
and ``fields.hessian_values`` as they were while the first derivative was
``np.gradient`` and every axis went through its own temporaries before
``np.stack``.  The production kernels write numpy's uniform-spacing
arithmetic into the caller's output; they must agree with these bit for
bit, signed zeros included.

``_d1_matrix``, ``_d2_matrix`` and ``scalar_operators`` are the Lame
operator's stencil matrices as they were while ``lame`` wrote them out
entry by entry; the operator now applies ``fields``' kernels to the
identity and must build the same sparse matrices, bit for bit.
"""

import numpy as np
import scipy.sparse as sp

from lagflow.fields import Grid, _frame_axes


def _d1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """First derivative: centered interior, one-sided 3-point at the ends."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def _d2_pure(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second derivative along one axis: compact interior, 4-point one-sided."""
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return out


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """All first derivatives of a frame or frame stack; new derivative axis last."""
    lead = _frame_axes(grid, values.shape)
    return np.stack(
        [_d1(values, lead + ax, grid.spacing[ax]) for ax in range(grid.dim)],
        axis=-1,
    )


def hessian_values(grid: Grid, values: np.ndarray,
                   grad: np.ndarray) -> np.ndarray:
    """All second derivatives; two new trailing axes (k, l) for d_k d_l.

    ``grad`` is ``gradient_values(grid, values)``, which the callers hold
    already: the mixed derivative d_l d_k is the first derivative along l
    of its slice ``grad[..., k]``.
    """
    lead = _frame_axes(grid, values.shape)
    dim = grid.dim
    out_shape = values.shape + (dim, dim)
    out = np.empty(out_shape)
    for k in range(dim):
        for l in range(k, dim):
            if k == l:
                d = _d2_pure(values, lead + k, grid.spacing[k])
            else:
                d = _d1(grad[..., k], lead + l, grid.spacing[l])
            out[..., k, l] = d
            out[..., l, k] = d
    return out


def _d1_matrix(n: int, h: float) -> sp.csr_matrix:
    m = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        m[i, i - 1] = -0.5 / h
        m[i, i + 1] = 0.5 / h
    m[0, 0], m[0, 1], m[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    m[n - 1, n - 3], m[n - 1, n - 2], m[n - 1, n - 1] = 0.5 / h, -2.0 / h, 1.5 / h
    return m.tocsr()


def _d2_matrix(n: int, h: float) -> sp.csr_matrix:
    m = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        m[i, i - 1] = 1.0 / h**2
        m[i, i] = -2.0 / h**2
        m[i, i + 1] = 1.0 / h**2
    m[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    m[n - 1, n - 4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h**2
    return m.tocsr()


def scalar_operators(grid: Grid):
    """Per-axis first/second derivative operators on the flattened node set."""
    eyes = [sp.identity(n, format="csr") for n in grid.extent]
    d1, d2 = [], []
    for ax in range(grid.dim):
        mats1 = list(eyes)
        mats2 = list(eyes)
        mats1[ax] = _d1_matrix(grid.extent[ax], grid.spacing[ax])
        mats2[ax] = _d2_matrix(grid.extent[ax], grid.spacing[ax])
        acc1, acc2 = mats1[0], mats2[0]
        for m1, m2 in zip(mats1[1:], mats2[1:]):
            acc1 = sp.kron(acc1, m1, format="csr")
            acc2 = sp.kron(acc2, m2, format="csr")
        d1.append(acc1)
        d2.append(acc2)
    return d1, d2
