"""Multilinear interpolation on uniform tensor-product axes.

An :class:`InterpPlan` turns one query set into a sparse weight matrix over
the nodes of the axes, so every array sampled on those axes is evaluated by
one sparse product.  Multilinear interpolation reproduces affine functions
exactly, which the flow composition relies on for the rigid transport-field
families.

Per-axes layout.  What depends on the axes only is an :class:`InterpAxes`,
built once per set of axes (``flow.NoiseFlow`` holds the one of its
nodes): the escape bounds, the first node and the step as (dim, 1)
columns, the first and last cell of the held block, the node strides and
the corner offsets, and, for the last query count seen, the CSR row
pointer and the corner offsets tiled over the rows.  A plan copies its
points once into a (dim, n) array, one contiguous row per axis, and runs
the escape check, the cell search and the corner weights on those rows.

Held nodes.  The sampled arrays may hold a block of the axes' nodes only
(``flow.NoiseFlow`` holds the nodes within one cell of the box).  The
block is then the tracked region: its faces, widened by the slack, are the
escape bounds, and the cells are clipped to the block's.  The coordinates,
the first node and the step stay those of the whole axes, so a fraction
has the bits it has on the whole axes; the column indices count the block.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

__all__ = ["InterpAxes", "InterpPlan", "FlowEscapeError"]


class FlowEscapeError(RuntimeError):
    """A query point left the tracked region; carries time and point."""

    def __init__(self, msg, time=None, point=None):
        super().__init__(msg)
        self.time = time
        self.point = point


class InterpAxes:
    """The constants of every interpolation plan on one set of axes.

    ``nodes`` is the block of nodes the sampled arrays hold, a slice with a
    start and a stop per axis (every node by default).  The escape bounds
    are the block's first and last node, widened by 1e-9 times max(axis
    length, 1) with the length of the whole axis; ``lo`` and ``h`` are the
    whole axes', so the block changes no fraction or weight.
    ``first_cell`` and ``held_last_cell`` are the first and last cell inside
    the block, ``extent`` its node count per axis, and ``strides`` and
    ``offsets`` count its nodes: the offsets are the corner offsets less the
    column of the first cell, so the strides times a cell index plus an
    offset is a column of the block.  The row pointer and the tiled corner
    offsets depend on the query count as well; one count is kept, the last
    one asked for.
    """

    def __init__(self, axes, nodes=None):
        self.dim = len(axes)
        if nodes is None:
            nodes = tuple(slice(0, len(ax)) for ax in axes)
        first = np.array([ax[s.start] for ax, s in zip(axes, nodes)], float)
        last = np.array([ax[s.stop - 1] for ax, s in zip(axes, nodes)], float)
        slack = 1e-9 * np.maximum([ax[-1] - ax[0] for ax in axes], 1.0)
        self.lower = (first - slack)[:, None]
        self.upper = (last + slack)[:, None]
        self.lo = np.array([ax[0] for ax in axes], float)[:, None]
        self.h = np.array([ax[1] - ax[0] for ax in axes], float)[:, None]
        self.extent = tuple(s.stop - s.start for s in nodes)
        self.first_cell = np.array([s.start for s in nodes])[:, None]
        self.held_last_cell = self.first_cell + np.array(self.extent)[:, None] - 2
        self.n_nodes = int(np.prod(self.extent))
        corners = np.array(list(itertools.product((0, 1), repeat=self.dim)))
        self.strides = np.cumprod((1,) + self.extent[:0:-1])[::-1]
        self.offsets = corners @ self.strides - self.strides @ self.first_cell[:, 0]
        self._rows = (-1, None, None)        # (n, indptr, tiled offsets)

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR row pointer of ``n`` query points and the offsets tiled n times.

        The index dtype is int32 unless the nodes or the stored weights
        reach 2^31.
        """
        if self._rows[0] != n:
            nc = len(self.offsets)
            itype = np.int32 if max(self.n_nodes, n * nc) < 2 ** 31 else np.int64
            self._rows = (n, np.arange(0, n * nc + 1, nc, dtype=itype),
                          np.tile(self.offsets.astype(itype), n))
        return self._rows[1], self._rows[2]


class InterpPlan:
    """Multilinear interpolation weights of one query set, as a CSR matrix.

    ``axes`` is a list of uniform 1-D axes or their :class:`InterpAxes`.
    ``W`` has one row per query point and one column per held node of the
    axes (C order).  Row i holds the 2^dim corner weights of point i's cell
    in ``itertools.product((0, 1), repeat=dim)`` order; each weight is the
    product of the per-axis factors frac or 1 - frac, taken in axis order.
    The cell index is clipped to the held block's cells, so a point on the
    block's far face uses its last cell with fraction 1, and one within the
    slack before its first face its first cell.  A point outside the held
    block by more than the slack on some axis, or a NaN coordinate, raises
    :class:`FlowEscapeError`, for the first such axis and its first such
    point.
    Scipy's CSR product starts every row at zero and adds the stored terms
    in order, which is the per-corner sum ``out = 0; out += w_c * arr[c]``.
    """

    def __init__(self, axes, pts, time=None):
        ax = axes if isinstance(axes, InterpAxes) else InterpAxes(axes)
        pts = np.asarray(pts, float)
        self.dim = dim = ax.dim
        self.extent = ax.extent
        self.qshape = pts.shape[:-1]
        flat = pts.reshape(-1, dim)
        self.n = n = flat.shape[0]
        t = flat.T.copy()                       # one contiguous row per axis
        bad = ~((t >= ax.lower) & (t <= ax.upper))     # NaN is outside
        if bad.any():
            d = int(np.argmax(bad.any(axis=1)))
            j = int(np.argmax(bad[d]))
            raise FlowEscapeError(
                f"query point {flat[j]} outside tracked box on axis {d}"
                + (f" at t = {time}" if time is not None else ""),
                time=time, point=flat[j].copy(),
            )
        t -= ax.lo
        t /= ax.h
        idx = np.floor(t).astype(np.intp)
        np.maximum(idx, ax.first_cell, out=idx)
        np.minimum(idx, ax.held_last_cell, out=idx)
        t -= idx                                # the fractions
        # corner weights, corner-major: w[c] = prod_d (frac_d or 1 - frac_d)
        factors = np.empty((dim, 2, n))
        factors[:, 1] = t
        np.subtract(1.0, t, out=factors[:, 0])
        w = factors[0]
        for d in range(1, dim):
            w = (w[:, None] * factors[d][None]).reshape(-1, n)
        indptr, tiled = ax.rows(n)
        cols = np.repeat((ax.strides @ idx).astype(indptr.dtype), len(ax.offsets))
        cols += tiled
        self.W = sp.csr_matrix((w.T.ravel(), cols, indptr),
                               shape=(n, ax.n_nodes))

    def apply(self, arr: np.ndarray) -> np.ndarray:
        """Interpolate ``arr`` (shape extent + comp_shape) at the plan's points.

        ``ValueError`` if the leading axes of ``arr`` are not the held
        node extent of the plan's axes.
        """
        if arr.shape[:self.dim] != self.extent:
            raise ValueError(f"an array of shape {arr.shape} does not hold the "
                             f"plan's nodes, extent {self.extent}")
        comp_shape = arr.shape[self.dim:]
        out = self.W @ arr.reshape(self.W.shape[1], -1)
        return out.reshape(self.qshape + comp_shape)
