"""Reference forms of the derivative kernels, kept verbatim.

These are ``fields._d1``, ``fields._d2_pure``, ``fields.gradient_values``
and ``fields.hessian_values`` as they were while the first derivative was
``np.gradient`` and every axis went through its own temporaries before
``np.stack``.  The production kernels write numpy's uniform-spacing
arithmetic into the caller's output; they must agree with these bit for
bit, signed zeros included.
"""

import numpy as np

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
