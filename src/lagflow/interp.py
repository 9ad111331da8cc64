"""Multilinear interpolation on uniform tensor-product axes.

An :class:`InterpPlan` turns one query set into a sparse weight matrix over
the nodes of the axes, so every array sampled on those axes is evaluated by
one sparse product.  Multilinear interpolation reproduces affine functions
exactly, which the flow composition relies on for the rigid transport-field
families.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

__all__ = ["InterpPlan", "FlowEscapeError"]


class FlowEscapeError(RuntimeError):
    """A query point left the tracked region; carries time and point."""

    def __init__(self, msg, time=None, point=None):
        super().__init__(msg)
        self.time = time
        self.point = point


class InterpPlan:
    """Multilinear interpolation weights of one query set, as a CSR matrix.

    ``W`` has one row per query point and one column per node of the axes
    (C order).  Row i holds the 2^dim corner weights of point i's cell in
    ``itertools.product((0, 1), repeat=dim)`` order; each weight is the
    product of the per-axis factors frac or 1 - frac, taken in axis order.
    The cell index is clipped to ``len(ax) - 2``, so a point on the far face
    uses the last cell.  A point outside the box by more than 1e-9 times
    max(box length, 1) on some axis raises :class:`FlowEscapeError`.
    Scipy's CSR product starts every row at zero and adds the stored terms
    in order, which is the per-corner sum ``out = 0; out += w_c * arr[c]``.
    """

    def __init__(self, axes, pts, time=None):
        pts = np.asarray(pts, float)
        self.dim = len(axes)
        self.qshape = pts.shape[:-1]
        flat = pts.reshape(-1, self.dim)
        self.n = flat.shape[0]
        sizes = tuple(len(ax) for ax in axes)
        idx = np.empty((self.dim, self.n), dtype=np.intp)
        frac = np.empty((self.dim, self.n))
        for d, ax in enumerate(axes):
            lo, hi = ax[0], ax[-1]
            h = ax[1] - ax[0]
            x = flat[:, d]
            slack = 1e-9 * max(hi - lo, 1.0)
            bad = (x < lo - slack) | (x > hi + slack)
            if np.any(bad):
                j = int(np.argmax(bad))
                raise FlowEscapeError(
                    f"query point {flat[j]} outside tracked box on axis {d}"
                    + (f" at t = {time}" if time is not None else ""),
                    time=time, point=flat[j].copy(),
                )
            t = (x - lo) / h
            i = np.clip(np.floor(t).astype(np.intp), 0, len(ax) - 2)
            idx[d] = i
            frac[d] = t - i
        # row i: the corners of point i's cell, at flat nodes
        # (strides @ idx)[i] + offsets
        corners = np.array(list(itertools.product((0, 1), repeat=self.dim)))
        strides = np.cumprod((1,) + sizes[:0:-1])[::-1]
        offsets = corners @ strides
        factors = np.stack([1.0 - frac, frac], axis=1)     # (dim, 2, n)
        w = np.ones((len(corners), self.n))
        for d in range(self.dim):
            w = w * factors[d, corners[:, d]]
        cols = (strides @ idx)[:, None] + offsets
        self.n_nodes = int(np.prod(sizes))
        itype = np.int32 if max(self.n_nodes, w.size) < 2 ** 31 else np.int64
        self.W = sp.csr_matrix(
            (w.T.ravel(), cols.ravel().astype(itype),
             np.arange(0, w.size + 1, len(corners), dtype=itype)),
            shape=(self.n, self.n_nodes))

    def apply(self, arr: np.ndarray) -> np.ndarray:
        """Interpolate ``arr`` (shape grid_extent + comp_shape) at the plan's points."""
        comp_shape = arr.shape[self.dim:]
        out = self.W @ arr.reshape(self.n_nodes, -1)
        return out.reshape(self.qshape + comp_shape)
