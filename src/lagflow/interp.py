"""Multilinear interpolation on uniform tensor-product axes.

An :class:`InterpPlan` precomputes corner indices and weights for one query
set so several arrays sampled on the same axes can be evaluated cheaply.
Multilinear interpolation reproduces affine functions exactly, which the flow
composition relies on for the rigid transport-field families.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["InterpPlan", "FlowEscapeError"]


class FlowEscapeError(RuntimeError):
    """A query point left the tracked region; carries time and point."""

    def __init__(self, msg, time=None, point=None):
        super().__init__(msg)
        self.time = time
        self.point = point


class InterpPlan:
    """Corner gather indices + weights for multilinear interpolation."""

    def __init__(self, axes, pts, extrapolate=False, time=None):
        pts = np.asarray(pts, float)
        self.dim = len(axes)
        self.qshape = pts.shape[:-1]
        flat = pts.reshape(-1, self.dim)
        self.n = flat.shape[0]
        idx = np.empty((self.dim, self.n), dtype=np.intp)
        frac = np.empty((self.dim, self.n))
        for d, ax in enumerate(axes):
            lo, hi = ax[0], ax[-1]
            h = ax[1] - ax[0]
            x = flat[:, d]
            if not extrapolate:
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
        # 2^dim corner weights and flat gather offsets
        self.corners = []
        for offs in itertools.product((0, 1), repeat=self.dim):
            w = np.ones(self.n)
            ind = []
            for d, o in enumerate(offs):
                w = w * (frac[d] if o else (1.0 - frac[d]))
                ind.append(idx[d] + o)
            self.corners.append((tuple(ind), w))

    def apply(self, arr: np.ndarray) -> np.ndarray:
        """Interpolate ``arr`` (shape grid_extent + comp_shape) at the plan's points."""
        comp_shape = arr.shape[self.dim:]
        out = np.zeros((self.n,) + comp_shape)
        for ind, w in self.corners:
            vals = arr[ind]
            out += w.reshape((self.n,) + (1,) * len(comp_shape)) * vals
        return out.reshape(self.qshape + comp_shape)
