"""Structured box grid, discrete differential operators, and norm surrogates.

The reference domain is an axis-aligned box discretized with a uniform node
grid per axis.  Fields are numpy arrays indexed by node, with trailing
component axes for vectors (dim) and matrices (dim x dim).  All derivative
stencils are second order: centered in the interior, one-sided at the
boundary.  Norms are trapezoidal-quadrature surrogates of the L^q /
Sobolev / Sobolev-Slobodeckij norms used by the run monitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "TimeSeries",
    "differentiate",
    "norm",
    "slobodeckij_time_seminorm",
    "time_lp_norm",
    "trace_boundary",
]


class FieldError(ValueError):
    """Raised for non-finite data or unsupported norm/derivative requests."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass
class Grid:
    """Axis-aligned box grid.

    Parameters
    ----------
    dim : 2 or 3.
    extent : nodes per axis (scalar broadcasts to every axis); each >= 9.
    box : ((lo, hi), ...) per axis, default unit box.
    """

    dim: int
    extent: tuple[int, ...]
    box: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if np.isscalar(self.extent):
            self.extent = (int(self.extent),) * self.dim
        self.extent = tuple(int(n) for n in self.extent)
        if len(self.extent) != self.dim:
            raise ValueError("extent length must match dim")
        if any(n < 9 for n in self.extent):
            raise ValueError(f"need >= 9 nodes per axis, got {self.extent}")
        if not self.box:
            self.box = ((0.0, 1.0),) * self.dim
        self.box = tuple((float(a), float(b)) for a, b in self.box)
        if any(b <= a for a, b in self.box):
            raise ValueError("box upper corner must exceed lower corner")
        self.spacing = tuple(
            (b - a) / (n - 1) for (a, b), n in zip(self.box, self.extent)
        )
        self._cache = {}

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.extent))

    @property
    def axes(self) -> list[np.ndarray]:
        if "axes" not in self._cache:
            self._cache["axes"] = [
                np.linspace(a, b, n)
                for (a, b), n in zip(self.box, self.extent)
            ]
        return self._cache["axes"]

    def coords(self) -> np.ndarray:
        """Node coordinates, shape extent + (dim,)."""
        if "coords" not in self._cache:
            mesh = np.meshgrid(*self.axes, indexing="ij")
            self._cache["coords"] = np.stack(mesh, axis=-1)
        return self._cache["coords"]

    @property
    def quad_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights, shape extent."""
        if "qw" not in self._cache:
            w = np.ones(1)
            for n, h in zip(self.extent, self.spacing):
                w1 = np.full(n, h)
                w1[0] *= 0.5
                w1[-1] *= 0.5
                w = np.multiply.outer(w, w1)
            self._cache["qw"] = w.reshape(self.extent)
        return self._cache["qw"]

    @property
    def boundary_mask(self) -> np.ndarray:
        if "bmask" not in self._cache:
            mask = np.zeros(self.extent, dtype=bool)
            for ax in range(self.dim):
                sl = [slice(None)] * self.dim
                sl[ax] = 0
                mask[tuple(sl)] = True
                sl[ax] = -1
                mask[tuple(sl)] = True
            self._cache["bmask"] = mask
        return self._cache["bmask"]

    def boundary_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Boundary node multi-indices and outward unit normals.

        Normals at corners/edges are the normalized sum of the adjacent
        face normals, so the traction assembly stays single-valued.
        """
        if "bnodes" not in self._cache:
            idx = np.argwhere(self.boundary_mask)
            normals = np.zeros((len(idx), self.dim))
            for ax in range(self.dim):
                normals[idx[:, ax] == 0, ax] -= 1.0
                normals[idx[:, ax] == self.extent[ax] - 1, ax] += 1.0
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            self._cache["bnodes"] = (idx, normals)
        return self._cache["bnodes"]

    def boundary_loop(self) -> np.ndarray:
        """Ordered (counterclockwise) boundary node multi-indices; dim 2 only."""
        if self.dim != 2:
            raise ValueError("ordered boundary loop is defined for dim 2 only")
        n1, n2 = self.extent
        loop = []
        loop += [(i, 0) for i in range(n1 - 1)]
        loop += [(n1 - 1, j) for j in range(n2 - 1)]
        loop += [(i, n2 - 1) for i in range(n1 - 1, 0, -1)]
        loop += [(0, j) for j in range(n2 - 1, 0, -1)]
        return np.array(loop)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class Field:
    """Values attached to grid nodes; trailing axes are tensor components."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[: self.grid.dim] != self.grid.extent:
            raise ValueError(
                f"values shape {self.values.shape} does not start with "
                f"grid extent {self.grid.extent}"
            )

    @property
    def rank(self) -> int:
        """0 scalar, 1 vector, 2 matrix."""
        return self.values.ndim - self.grid.dim

    @property
    def comp_shape(self) -> tuple[int, ...]:
        return self.values.shape[self.grid.dim:]

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        """Sample ``fn(coords)`` on the nodes; coords has shape extent+(dim,)."""
        return cls(grid, np.asarray(fn(grid.coords()), dtype=float))

    @classmethod
    def zeros(cls, grid: Grid, rank: int = 0) -> "Field":
        shape = grid.extent + (grid.dim,) * rank
        return cls(grid, np.zeros(shape))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass
class TimeSeries:
    """Uniformly sampled time series of fields sharing one grid.

    ``values`` is stacked with the leading axis running over instants.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or len(self.times) != self.values.shape[0]:
            raise ValueError("times and frame count disagree")
        if self.times[0] != 0.0:
            raise ValueError("time series must start at t = 0")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def frame(self, k: int) -> Field:
        return Field(self.grid, self.values[k])

    @property
    def step(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        if len(self.times) < 3:
            return True
        d = np.diff(self.times)
        return bool(np.all(np.abs(d - d[0]) <= rtol * abs(d[0])))

    def restrict(self, n_frames: int) -> "TimeSeries":
        """First ``n_frames`` frames (a shorter time window)."""
        return TimeSeries(self.grid, self.times[:n_frames], self.values[:n_frames])

    @classmethod
    def from_frames(cls, frames: list[Field], times) -> "TimeSeries":
        grid = frames[0].grid
        return cls(grid, np.asarray(times, float),
                   np.stack([f.values for f in frames]))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise FieldError(f"non-finite value at node index {tuple(int(i) for i in bad)}")


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
    """All first derivatives of a raw value array; new derivative axis last."""
    return np.stack(
        [_d1(values, ax, grid.spacing[ax]) for ax in range(grid.dim)], axis=-1
    )


def hessian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """All second derivatives; two new trailing axes (k, l) for d_k d_l."""
    dim = grid.dim
    out_shape = values.shape + (dim, dim)
    out = np.empty(out_shape)
    for k in range(dim):
        for l in range(k, dim):
            if k == l:
                d = _d2_pure(values, k, grid.spacing[k])
            else:
                d = _d1(_d1(values, k, grid.spacing[k]), l, grid.spacing[l])
            out[..., k, l] = d
            out[..., l, k] = d
    return out


def differentiate(f: Field, order: int = 1) -> Field:
    """Discrete derivative of a field, raising its rank by ``order``.

    order 1 returns the gradient (one trailing axis of length dim); order 2
    returns the full second-derivative array (two trailing axes).  Exact on
    polynomials of degree <= 2.
    """
    _check_finite(f.values)
    if order == 1:
        return Field(f.grid, gradient_values(f.grid, f.values))
    if order == 2:
        return Field(f.grid, hessian_values(f.grid, f.values))
    raise FieldError(f"order must be 1 or 2, got {order}")


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _pointwise_abs_pow(grid: Grid, values: np.ndarray, q: float) -> np.ndarray:
    """|f(y)|^q with the Euclidean/Frobenius norm over component axes."""
    comp_axes = tuple(range(grid.dim, values.ndim))
    mag2 = np.sum(values * values, axis=comp_axes) if comp_axes else values * values
    return mag2 ** (q / 2.0)


def _lq_pow(grid: Grid, values: np.ndarray, q: float) -> float:
    return float(np.sum(grid.quad_weights * _pointwise_abs_pow(grid, values, q)))


def spatial_norm(grid: Grid, values: np.ndarray, kind: str, q: float) -> float:
    """Norm of a raw value array on the grid; see :func:`norm`."""
    if q <= 1:
        raise FieldError(f"integrability exponent q must exceed 1, got {q}")
    total = _lq_pow(grid, values, q)
    if kind in ("H1q", "H2q"):
        total += _lq_pow(grid, gradient_values(grid, values), q)
    if kind == "H2q":
        total += _lq_pow(grid, hessian_values(grid, values), q)
    elif kind not in ("Lq", "H1q"):
        raise FieldError(f"unknown norm kind {kind!r}")
    return total ** (1.0 / q)


def norm(f, kind: str = "Lq", q: float = 2.0) -> float:
    """Discrete norm surrogate.

    ``kind`` is one of ``Lq``, ``H1q``, ``H2q``; on a :class:`TimeSeries` the
    spatial norm is taken per frame and the supremum over the window is
    returned (``sup_H1q`` is an explicit alias for that reading).
    """
    if isinstance(f, TimeSeries):
        k = "H1q" if kind == "sup_H1q" else kind
        return max(spatial_norm(f.grid, v, k, q) for v in f.values)
    if kind == "sup_H1q":
        kind = "H1q"
    return spatial_norm(f.grid, f.values, kind, q)


def time_lp_norm(times: np.ndarray, frame_norms: np.ndarray, p: float) -> float:
    """L^p-in-time norm from per-frame spatial norms (trapezoid in time)."""
    if p <= 1:
        raise FieldError(f"time exponent p must exceed 1, got {p}")
    frame_norms = np.asarray(frame_norms, float)
    if len(times) < 2:
        return 0.0
    return float(np.trapezoid(frame_norms**p, times) ** (1.0 / p))


def slobodeckij_time_seminorm(
    ts: TimeSeries,
    theta: float,
    p: float,
    spatial_kind: str = "H1q",
    q: float = 2.0,
) -> float:
    """Discrete H^(theta,p)-in-time norm with spatial norms per frame.

    Combines the L^p-in-time part with the Gagliardo double sum

        ( sum_{i != j} |f(t_i) - f(t_j)|^p dt^2 / |t_i - t_j|^(1 + theta p) )^(1/p),

    both built from the requested spatial norm.  Requires a uniform time
    step; zero iff all frames coincide.
    """
    if not (0.0 < theta < 1.0):
        raise FieldError(f"theta must lie in (0, 1), got {theta}")
    if p <= 1:
        raise FieldError(f"p must exceed 1, got {p}")
    if not ts.is_uniform():
        raise FieldError("non-uniform time grids are not supported")
    n = len(ts)
    g = np.array([spatial_norm(ts.grid, v, spatial_kind, q) for v in ts.values])
    lp_pow = time_lp_norm(ts.times, g, p) ** p
    if n < 2:
        return lp_pow ** (1.0 / p)
    dt = ts.step
    sem = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dn = spatial_norm(ts.grid, ts.values[j] - ts.values[i], spatial_kind, q)
            sem += 2.0 * dn**p * dt**2 / (ts.times[j] - ts.times[i]) ** (1.0 + theta * p)
    return (lp_pow + sem) ** (1.0 / p)


def trace_boundary(f: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restriction to the boundary: (node multi-indices, normals, values)."""
    idx, normals = f.grid.boundary_nodes()
    vals = f.values[tuple(idx.T)]
    return idx, normals, vals
