"""Structured box grid, discrete differential operators, and norm surrogates.

The reference domain is an axis-aligned box discretized with a uniform node
grid per axis.  Fields are numpy arrays indexed by node, with trailing
component axes for vectors (dim) and matrices (dim x dim).  All derivative
stencils are second order: centered in the interior, one-sided at the
boundary.  Norms are trapezoidal-quadrature surrogates of the L^q /
Sobolev / Sobolev-Slobodeckij norms used by the run monitors.

Frame stacks.  The derivative and norm kernels take one frame
(``extent + components``) or a stack of frames with one leading frame axis
(``(L,) + extent + components``), as ``TimeSeries.values`` holds them.
Component axes have length dim and every extent is at least 9, so the two
layouts never coincide.  The kernels are elementwise over frames: a frame of
a stack gets the same derivatives and norms, bit for bit, as the frame on its
own.  Callers that loop over a window take it in ``frame_chunks`` so that no
pass holds whole-window derivative temporaries.  The flow window
(``flow.FlowWindow``) follows the same convention: X, grad X, Z and J are
level stacks with the level axis first.  The index sums on the trailing
component axes go through :func:`contract`, which gives einsum's bits on one
frame and on a stack alike, so the map assembles a whole chunk per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "TimeSeries",
    "SlobodeckijWindow",
    "contract",
    "frame_chunks",
    "frame_norms",
    "gradient_values",
    "hessian_values",
    "slobodeckij_time_seminorm",
    "spatial_norm",
    "time_lp_norm",
]


class FieldError(ValueError):
    """Raised for unsupported norm or derivative requests."""


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


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _is_uniform(times: np.ndarray, rtol: float = 1e-9) -> bool:
    if len(times) < 3:
        return True
    d = np.diff(times)
    return bool(np.all(np.abs(d - d[0]) <= rtol * abs(d[0])))


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

    @property
    def step(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def restrict(self, n_frames: int) -> "TimeSeries":
        """First ``n_frames`` frames (a shorter time window)."""
        return TimeSeries(self.grid, self.times[:n_frames], self.values[:n_frames])


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

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


def _frame_axes(grid: Grid, shape: tuple[int, ...]) -> int:
    """Leading frame axes of a value array: 0 for one frame, 1 for a stack."""
    n_comp = 0
    while n_comp < len(shape) and shape[-1 - n_comp] == grid.dim:
        n_comp += 1
    lead = len(shape) - n_comp - grid.dim
    if lead not in (0, 1) or tuple(shape[lead:lead + grid.dim]) != grid.extent:
        raise FieldError(f"values shape {shape} is neither a frame nor a "
                         f"frame stack on grid extent {grid.extent}")
    return lead


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """All first derivatives of a frame or frame stack; new derivative axis last."""
    lead = _frame_axes(grid, values.shape)
    return np.stack(
        [_d1(values, lead + ax, grid.spacing[ax]) for ax in range(grid.dim)],
        axis=-1,
    )


def hessian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """All second derivatives; two new trailing axes (k, l) for d_k d_l."""
    lead = _frame_axes(grid, values.shape)
    dim = grid.dim
    out_shape = values.shape + (dim, dim)
    out = np.empty(out_shape)
    for k in range(dim):
        for l in range(k, dim):
            if k == l:
                d = _d2_pure(values, lead + k, grid.spacing[k])
            else:
                d = _d1(_d1(values, lead + k, grid.spacing[k]),
                        lead + l, grid.spacing[l])
            out[..., k, l] = d
            out[..., l, k] = d
    return out


# ---------------------------------------------------------------------------
# index contractions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)   # one entry per literal call site and dim
def _contract_plan(subscripts: str, order: str, dim: int) -> tuple:
    """Operand ranks and, per output component, the index of every operand
    in every term, in summation order."""
    ins, out = subscripts.replace("...", "").split("->")
    ins = ins.split(",")
    plan = []
    for o in np.ndindex((dim,) * len(out)):
        terms = []
        for r in np.ndindex((dim,) * len(order)):
            at = dict(zip(out + order, o + r))
            terms.append(tuple((...,) + tuple(at[c] for c in s) for s in ins))
        plan.append(((...,) + o, tuple(terms)))
    return tuple(len(s) for s in ins), len(out), tuple(plan)


def contract(subscripts: str, order: str, *ops: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *ops)`` on trailing label axes, bit for bit.

    ``subscripts`` prefixes every operand and the output with ``...``; the
    labelled axes are the trailing component axes (length dim), and the
    leading axes (nodes, frames) broadcast.  The sum is vectorized over the
    leading axes with einsum's own rounding: for every output component the
    reduced labels are visited in ``order``, the first label outermost; each
    term multiplies the operands' components left to right and is added to
    a sum that starts at zero (the first term is ``term + 0.0``, which turns
    -0.0 into +0.0 as einsum does).

    ``order`` is the loop order numpy's einsum takes for the signature; it
    is found by search, not derived, and bit-equality with einsum is pinned
    by a test against the installed numpy.  Should a numpy release change
    einsum's loop order, that test fails while the physics stays correct to
    round-off.  Signatures that einsum sends to its SIMD dot kernel cannot
    be reproduced this way and stay ``np.einsum``.
    """
    dim = ops[0].shape[-1]
    ranks, n_out, plan = _contract_plan(subscripts, order, dim)
    lead = np.broadcast_shapes(*(op.shape[:op.ndim - k] for op, k in zip(ops, ranks)))
    res = np.empty(lead + (dim,) * n_out)
    for o, terms in plan:
        acc = None
        for idx in terms:
            term = ops[0][idx[0]]
            for op, i in zip(ops[1:], idx[1:]):
                term = term * op[i]
            if acc is None:
                acc = term + 0.0
            else:
                acc += term
        res[o] = acc
    return res


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

# bytes of one pass's Hessian stack in frame_chunks: whole-window derivative
# temporaries would raise a path's peak memory, one frame per pass would
# leave numpy call overhead in charge on small grids
_CHUNK_BYTES = 1 << 19

_ORDER = {"Lq": 0, "H1q": 1, "H2q": 2}


def frame_chunks(grid: Grid, n_frames: int, frame_size: int) -> list[slice]:
    """Slices of ``n_frames`` frames of ``frame_size`` values each, one per pass.

    A pass holds about ``_CHUNK_BYTES`` of second derivatives (at least one
    frame).
    """
    step = max(1, _CHUNK_BYTES // (8 * frame_size * grid.dim**2))
    return [slice(i, min(i + step, n_frames)) for i in range(0, n_frames, step)]


def _check_norm(kind: str, q: float):
    if q <= 1:
        raise FieldError(f"integrability exponent q must exceed 1, got {q}")
    if kind not in _ORDER:
        raise FieldError(f"unknown norm kind {kind!r}")


def _norm_parts(grid: Grid, stack: np.ndarray, kind: str) -> list[np.ndarray]:
    """A frame stack and the derivative stacks its norm ``kind`` integrates."""
    parts = [stack]
    if _ORDER[kind] >= 1:
        parts.append(gradient_values(grid, stack))
    if _ORDER[kind] >= 2:
        parts.append(hessian_values(grid, stack))
    return parts


def _lq_pow(grid: Grid, stack: np.ndarray, q: float) -> np.ndarray:
    """Per frame of a stack: quadrature of |f|^q, Euclidean/Frobenius |.|."""
    node_axes = tuple(range(1, 1 + grid.dim))
    comp_axes = tuple(range(1 + grid.dim, stack.ndim))
    mag2 = np.sum(stack * stack, axis=comp_axes) if comp_axes else stack * stack
    return np.sum(grid.quad_weights * mag2 ** (q / 2.0), axis=node_axes)


def _norm_pow(grid: Grid, parts: list[np.ndarray], q: float) -> np.ndarray:
    """Per frame: sum over ``parts`` of the quadrature of |part|^q."""
    total = _lq_pow(grid, parts[0], q)
    for part in parts[1:]:
        total += _lq_pow(grid, part, q)
    return total


def _qth_root(total_pow: np.ndarray, q: float) -> np.ndarray:
    # scalar pow per frame: numpy's vectorized pow can differ from it in the
    # last bit, and the E1 norm (hence kappa) is kept bit for bit
    return np.array([t ** (1.0 / q) for t in total_pow.tolist()])


def frame_norms(grid: Grid, stack: np.ndarray, kind: str, q: float) -> np.ndarray:
    """Lq, H1q or H2q norm of every frame of a stack (leading frame axis).

    The frames go through in ``frame_chunks``; the values equal the ones of
    each frame taken on its own.
    """
    _check_norm(kind, q)
    total = np.empty(len(stack))
    for sl in frame_chunks(grid, len(stack), int(np.prod(stack.shape[1:]))):
        total[sl] = _norm_pow(grid, _norm_parts(grid, stack[sl], kind), q)
    return _qth_root(total, q)


def spatial_norm(grid: Grid, values: np.ndarray, kind: str, q: float) -> float:
    """Norm of one frame; the one-frame case of :func:`frame_norms`."""
    return float(frame_norms(grid, values[None], kind, q)[0])


def time_lp_norm(times: np.ndarray, norms: np.ndarray, p: float) -> float:
    """L^p-in-time norm from per-frame spatial norms (trapezoid in time)."""
    if p <= 1:
        raise FieldError(f"time exponent p must exceed 1, got {p}")
    norms = np.asarray(norms, float)
    if len(times) < 2:
        return 0.0
    return float(np.trapezoid(norms**p, times) ** (1.0 / p))


def _half_q_pow(x: np.ndarray, q: float) -> np.ndarray:
    """x ** (q/2), using repeated multiplication when q/2 is a small integer."""
    half = q / 2.0
    if half == int(half) and 1 <= half <= 16:
        out = x
        for _ in range(int(half) - 1):
            out = out * x
        return out
    return x ** half


class SlobodeckijWindow:
    """Running discrete H^(theta,p)(0, t_n; X) norm, X = Lq, H1q or H2q.

    The norm on [0, t_n] is the L^p-in-time part plus the Gagliardo sum

        sum_{i != j <= n} |f(t_i) - f(t_j)|_X^p dt^2 / |t_i - t_j|^(1 + theta p).

    ``load`` stores the next frames with their derivatives, flattened to
    (frame, node, component), in buffers sized for ``times``; ``advance``
    adds the next stored frame's row of pair terms to the running sum and
    returns the norm up to that frame.  The stencils are linear, so a pair
    norm comes from differences of stored values and derivatives: derivative
    work is O(L), and only the pair rows, one vectorized pass over the
    history each, are O(L^2).  ``pair_pow[n]`` keeps row n,
    |f_n - f_i|_X^p for i < n, and ``frame_pow[n]`` is |f_n|_X^p from the
    kernel of :func:`frame_norms`.
    """

    def __init__(self, grid: Grid, times: np.ndarray, theta: float, p: float,
                 kind: str = "H1q", q: float = 2.0):
        if not (0.0 < theta < 1.0):
            raise FieldError(f"theta must lie in (0, 1), got {theta}")
        if p <= 1:
            raise FieldError(f"p must exceed 1, got {p}")
        _check_norm(kind, q)
        self.grid = grid
        self.times = np.asarray(times, float)
        if not _is_uniform(self.times):
            raise FieldError("non-uniform time grids are not supported")
        self.theta, self.p, self.kind, self.q = theta, p, kind, q
        self.w_flat = grid.quad_weights.ravel()
        self.parts: list[np.ndarray] = []
        self.frame_pow = np.empty(len(self.times))   # |f_n|_X^p
        self.pair_pow: list[np.ndarray] = []
        self.sem = 0.0
        self.loaded = 0

    def load(self, frames: np.ndarray) -> None:
        """Store a stack of the next frames and their derivatives."""
        parts = _norm_parts(self.grid, frames, self.kind)
        k, m = self.loaded, len(frames)
        npts = self.grid.n_nodes
        if not self.parts:
            self.parts = [np.empty((len(self.times), npts, a[0].size // npts))
                          for a in parts]
        for buf, a in zip(self.parts, parts):
            buf[k:k + m] = a.reshape(m, npts, -1)
        norm_pow = _norm_pow(self.grid, parts, self.q)
        self.frame_pow[k:k + m] = norm_pow ** (self.p / self.q)
        self.loaded = k + m

    def advance(self) -> float:
        """Take in the next loaded frame; the norm on [0, t_n] (0 for n = 0)."""
        n = len(self.pair_pow)
        if n >= self.loaded:
            raise FieldError("no loaded frame left to advance to")
        if n == 0:
            self.pair_pow.append(np.zeros(0))
            return 0.0
        m = 0.0
        for buf in self.parts:
            d = buf[:n] - buf[n]
            m = m + _half_q_pow(np.einsum("npc,npc->np", d, d), self.q)
        row = ((m @ self.w_flat) ** (1 / self.q)) ** self.p
        self.pair_pow.append(row)
        t = self.times
        gaps = t[n] - t[:n]
        self.sem += 2.0 * np.sum(row * (t[1] - t[0]) ** 2
                                 / gaps ** (1.0 + self.theta * self.p))
        lp_pow = np.trapezoid(self.frame_pow[:n + 1], t[:n + 1])
        return float((lp_pow + self.sem) ** (1.0 / self.p))


def slobodeckij_time_seminorm(
    ts: TimeSeries,
    theta: float,
    p: float,
    spatial_kind: str = "H1q",
    q: float = 2.0,
) -> float:
    """Discrete H^(theta,p)-in-time norm with spatial norms per frame.

    The value of :class:`SlobodeckijWindow` on the whole series: the
    L^p-in-time part plus the Gagliardo double sum, both built from the
    requested spatial norm.  Requires a uniform time step; zero iff all
    frames vanish.
    """
    win = SlobodeckijWindow(ts.grid, ts.times, theta, p, spatial_kind, q)
    for sl in frame_chunks(ts.grid, len(ts), int(np.prod(ts.values.shape[1:]))):
        win.load(ts.values[sl])
    value = 0.0
    for _ in range(len(ts)):
        value = win.advance()
    return value
