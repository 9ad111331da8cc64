"""Structured box grid, discrete differential operators, and norm surrogates.

The reference domain is an axis-aligned box discretized with a uniform node
grid per axis.  Fields are numpy arrays indexed by node, with trailing
component axes for vectors (dim) and matrices (dim x dim).  All derivative
stencils are second order: centered in the interior, one-sided at the
boundary.  Norms are trapezoidal-quadrature surrogates of the L^q /
Sobolev / Sobolev-Slobodeckij norms used by the run monitors; the discrete
H^(theta,p)-in-time norm has one owner, :func:`htheta_time_norm`.  The first
derivative has the arithmetic of ``np.gradient(..., edge_order=2)`` on a
uniform spacing, in numpy's own expressions, written straight into the
caller's output: the gradient and the Hessian allocate their result once
and fill it one derivative axis (or axis pair) at a time.  ``lame``'s
sparse stencil matrices are ``_d1`` and ``_d2_pure`` applied to the identity.
The interior rows of both have one owner, ``_centered_d1`` and
``_compact_d2``, which ``interior_gradient`` and ``interior_hessian`` run
alone: they give the rows of ``gradient_values`` and ``hessian_values`` at
the interior nodes bit for bit, with no one-sided row, for the
interior-only F_u of ``nonlinear.assemble_window``.  The norms and the
label flow take the full-grid kernels.

Frame stacks.  The derivative and norm kernels take one frame
(``extent + components``) or a stack of frames with one leading frame axis
(``(L,) + extent + components``), as ``TimeSeries.values`` holds them.
Component axes have length dim and every extent is at least 9, so the two
layouts never coincide.  The kernels are elementwise over frames: a frame of
a stack gets the same derivatives and norms, bit for bit, as the frame on its
own.  Callers that loop over a window take it in ``frame_chunks`` (the map
assembly in passes of its own, ``nonlinear._PASS_NODES``) so that no pass
holds whole-window derivative temporaries.  The flow window
(``flow.FlowWindow``) follows the same convention: X, grad X, Z and J are
level stacks with the level axis first.  The index sums on the trailing
component axes go through :func:`contract`, which gives einsum's bits on one
frame and on a stack alike, so the map assembles a whole chunk per call.
It works component-major: an operand whose components are read more than
once is copied once per call into rows with the component axes first
(reduced labels, then output labels) and the leading axes contiguous last;
each term of the sum is then one broadcast product over every output
component, added in einsum's order into a component-major scratch sum, a
block of leading axes at a time.  The label flow's variational sums
(``flow.integrate_label_flow``) do not call it: they keep grad Y
component-major across the flow's steps and add all terms of a sum by one
reduction over a scratch array, in einsum's order.  The Slobodeckij
window's pair rows (:class:`SlobodeckijWindow`) do not mirror einsum: they
sum a pair's squared components in storage order, left to right, as the
fused norm kernel of :func:`frame_norms` sums each derivative's.
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
    "htheta_time_norm",
    "interior_gradient",
    "interior_hessian",
    "slobodeckij_time_seminorm",
    "spatial_norm",
    "step_count",
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
        # every bound is written so that NaN fails it
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if np.isscalar(self.extent):
            self.extent = (self.extent,) * self.dim
        if not all(float(n).is_integer() for n in self.extent):
            raise ValueError(f"extent must be integral, got {self.extent}")
        self.extent = tuple(int(n) for n in self.extent)
        if len(self.extent) != self.dim:
            raise ValueError("extent length must match dim")
        if any(n < 9 for n in self.extent):
            raise ValueError(f"need >= 9 nodes per axis, got {self.extent}")
        if not self.box:
            self.box = ((0.0, 1.0),) * self.dim
        self.box = tuple((float(a), float(b)) for a, b in self.box)
        if not np.all(np.isfinite(self.box)):
            raise ValueError(f"box corners must be finite, got {self.box}")
        if not all(b > a for a, b in self.box):
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

def _is_uniform(times: np.ndarray) -> bool:
    if len(times) < 3:
        return True
    d = np.diff(times)
    return bool(np.all(np.abs(d - d[0]) <= 1e-9 * abs(d[0])))


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

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass
class TimeSeries:
    """Uniformly sampled time series of fields sharing one grid.

    ``values`` is stacked with the leading axis running over instants.  The
    times start at 0 and are strictly increasing and uniform (to
    ``_is_uniform``'s rounding), since every reader takes one step from
    ``times[1] - times[0]``; ``ValueError`` otherwise.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or len(self.times) != self.values.shape[0]:
            raise ValueError("times and frame count disagree")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("time series must start with a frame at t = 0")
        # written ``not x > 0`` so that a NaN time fails it
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not _is_uniform(self.times):
            raise ValueError("times must be uniformly spaced")

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


def step_count(T: float, dt: float) -> int:
    """The steps of dt in T, where dt > 0 must divide the finite T > 0 up
    to rounding; ``ValueError`` otherwise, NaN included."""
    if not dt > 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if not 0 < T < np.inf:
        raise ValueError(f"need a finite horizon T > 0, got {T}")
    n = round(T / dt)
    if n < 1 or abs(n * dt - T) > 1e-12 * max(T, 1.0):
        raise ValueError(f"dt = {dt} does not divide T = {T}")
    return n


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def _at(axis: int, i) -> tuple:
    """The index tuple of ``i`` (an index or slice) on ``axis``."""
    return (slice(None),) * axis + (i,)


def _centered_d1(values: np.ndarray, axis: int, h: float,
                 out: np.ndarray) -> np.ndarray:
    """(f[i+1] - f[i-1]) / (2h) along ``axis`` into ``out``, which is two
    shorter on that axis: the interior rows of ``_d1``."""
    diff = values[_at(axis, slice(2, None))] - values[_at(axis, slice(None, -2))]
    return np.divide(diff, 2.0 * h, out=out)


def _compact_d2(values: np.ndarray, axis: int, h: float,
                out: np.ndarray) -> np.ndarray:
    """(f[i+1] - 2 f[i] + f[i-1]) / h^2 along ``axis`` into ``out``, which
    is two shorter on that axis: the interior rows of ``_d2_pure``."""
    def v(i):
        return values[_at(axis, i)]
    num = v(slice(2, None)) - 2.0 * v(slice(1, -1)) + v(slice(None, -2))
    return np.divide(num, h**2, out=out)


def _d1(values: np.ndarray, axis: int, h: float,
        out: np.ndarray | None = None) -> np.ndarray:
    """First derivative: centered interior, one-sided 3-point at the ends.

    The arithmetic of ``np.gradient(values, h, axis=axis, edge_order=2)``
    on a uniform spacing h, in its own expressions and order: interior
    (f[2:] - f[:-2]) / (2h), first row (-1.5/h) f0 + (2/h) f1 + (-0.5/h) f2,
    last row (0.5/h) f[-3] + (-2/h) f[-2] + (1.5/h) f[-1].  The rows are
    index tuples on ``axis``, and the result is written into ``out`` (any
    view of the values' shape, by default a new array), so a caller that
    collects derivatives of several axes writes each into its slice of one
    array.  The interior difference is the one temporary: a strided ``out``
    is written once, by the division.
    """
    if out is None:
        out = np.empty_like(values)
    _centered_d1(values, axis, h, out[_at(axis, slice(1, -1))])
    for row, first, coefs in ((0, 0, (-1.5 / h, 2.0 / h, -0.5 / h)),
                              (-1, -3, (0.5 / h, -2.0 / h, 1.5 / h))):
        o = out[_at(axis, row)]
        np.multiply(coefs[0], values[_at(axis, first)], out=o)
        o += coefs[1] * values[_at(axis, first + 1)]
        o += coefs[2] * values[_at(axis, first + 2)]
    return out


def _d2_pure(values: np.ndarray, axis: int, h: float,
             out: np.ndarray) -> np.ndarray:
    """Second derivative along one axis into ``out``: compact interior,
    4-point one-sided at the ends."""
    def v(i):
        return values[_at(axis, i)]
    _compact_d2(values, axis, h, out[_at(axis, slice(1, -1))])
    out[_at(axis, 0)] = (2.0 * v(0) - 5.0 * v(1) + 4.0 * v(2) - v(3)) / h**2
    out[_at(axis, -1)] = (2.0 * v(-1) - 5.0 * v(-2) + 4.0 * v(-3) - v(-4)) / h**2
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
    """All first derivatives of a frame or frame stack; new derivative axis last.

    The result is allocated once; the derivative along each axis is
    written into its slice ``out[..., ax]``.
    """
    lead = _frame_axes(grid, values.shape)
    out = np.empty(values.shape + (grid.dim,))
    for ax in range(grid.dim):
        _d1(values, lead + ax, grid.spacing[ax], out[..., ax])
    return out


def hessian_values(grid: Grid, values: np.ndarray,
                   grad: np.ndarray) -> np.ndarray:
    """All second derivatives; two new trailing axes (k, l) for d_k d_l.

    ``grad`` is ``gradient_values(grid, values)``, which the callers hold
    already: the mixed derivative d_l d_k is the first derivative along l
    of its slice ``grad[..., k]``, written straight into ``out[..., k, l]``
    and copied to ``out[..., l, k]``.
    """
    lead = _frame_axes(grid, values.shape)
    dim = grid.dim
    out = np.empty(values.shape + (dim, dim))
    for k in range(dim):
        _d2_pure(values, lead + k, grid.spacing[k], out[..., k, k])
        for l in range(k + 1, dim):
            _d1(grad[..., k], lead + l, grid.spacing[l], out[..., k, l])
            out[..., l, k] = out[..., k, l]
    return out


def _interior(lead: int, dim: int, whole: int = -1) -> tuple:
    """Index of the interior nodes (1 .. n-2 on every node axis) of a frame
    or stack with ``lead`` frame axes; the node axis ``whole`` is kept whole."""
    return (slice(None),) * lead + tuple(
        slice(None) if ax == whole else slice(1, -1) for ax in range(dim))


def interior_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The rows of ``gradient_values`` at the interior nodes, bit for bit.

    Only the centered stencil runs: the result has extent - 2 on every node
    axis, each derivative taken from the values that are interior on the
    other node axes.
    """
    lead = _frame_axes(grid, values.shape)
    dim = grid.dim
    out = np.empty(values[_interior(lead, dim)].shape + (dim,))
    for ax in range(dim):
        _centered_d1(values[_interior(lead, dim, ax)], lead + ax,
                     grid.spacing[ax], out[..., ax])
    return out


def interior_hessian(grid: Grid, values: np.ndarray,
                     grad: np.ndarray) -> np.ndarray:
    """The rows of ``hessian_values`` at the interior nodes, bit for bit.

    ``grad`` is the full-grid ``gradient_values(grid, values)``: a mixed
    derivative d_l d_k is the centered difference along l of ``grad[..., k]``,
    whose rows there are centered along k.  Pure derivatives use the compact
    stencil only.
    """
    lead = _frame_axes(grid, values.shape)
    dim = grid.dim
    out = np.empty(values[_interior(lead, dim)].shape + (dim, dim))
    for k in range(dim):
        _compact_d2(values[_interior(lead, dim, k)], lead + k,
                    grid.spacing[k], out[..., k, k])
        for l in range(k + 1, dim):
            _centered_d1(grad[..., k][_interior(lead, dim, l)], lead + l,
                         grid.spacing[l], out[..., k, l])
            out[..., l, k] = out[..., k, l]
    return out


# ---------------------------------------------------------------------------
# index contractions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)   # one entry per literal call site and dim
def _contract_plan(subscripts: str, order: str, dim: int) -> tuple:
    """How ``contract`` lays out its operands and visits its terms.

    Per operand: the einsum signature of its component-major view (its
    reduced labels in ``order``, then its output labels in output order,
    a repeated label as one diagonal axis, the leading axes last), its
    rank, its count of reduced labels, the index that spreads it over the
    output labels it lacks, and whether it is staged (copied into that
    layout): an operand is staged when some component of it is read by
    more than one term or for more than one output component, and read in
    place through the view otherwise.  Per operand after the first:
    whether the operands up to it carry every output label.  Per term, in
    summation order: the reduced-label index of every operand.
    """
    ins, out = subscripts.replace("...", "").split("->")
    ins = ins.split(",")
    labels = order + out
    layouts = []
    for s in ins:
        axes = "".join(c for c in labels if c in s)
        spread = tuple(slice(None) if c in s else None for c in out)
        layouts.append((f"...{s}->{axes}...", len(s),
                        sum(c in s for c in order), spread,
                        len(axes) < len(labels)))
    covers = tuple(set(out) <= set("".join(ins[:k + 1]))
                   for k in range(1, len(ins)))
    terms = tuple(tuple(tuple(r[order.index(c)] for c in order if c in s)
                        for s in ins)
                  for r in np.ndindex((dim,) * len(order)))
    return tuple(layouts), covers, len(out), terms


def contract(subscripts: str, order: str, *ops: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *ops)`` on trailing label axes, bit for bit.

    ``subscripts`` prefixes every operand and the output with ``...``; the
    labelled axes are the trailing component axes (length dim), and the
    leading axes (nodes, frames) broadcast.  The sum has einsum's own
    rounding: every output component visits the reduced labels in
    ``order``, the first label outermost; each term multiplies the
    operands' components left to right and is added to a sum that starts
    at zero (the first term is ``term + 0.0``, which turns -0.0 into +0.0
    as einsum does).

    The kernel works component-major (see ``_contract_plan``): component
    axes first, reduced labels before output labels, leading axes last.
    An operand whose components are read more than once is copied into
    that layout once per call; the others are read in place through a
    strided view in the same axis order.  A term is then one broadcast
    product over every output component at once, and the sum runs term by
    term over all of them in a component-major scratch array (``term +
    0.0`` first, the later terms added in place), which is copied into the
    ``(lead..., components)`` result through a strided view at the end.
    So every output element gets the same operations in the same order as
    in einsum, in a few contiguous passes per term instead of a few
    strided passes per term and output component.  The leading axes go
    through in blocks of the first one, each with about ``_CHUNK_BYTES``
    of result, so a whole level stack needs no whole-stack scratch.

    ``order`` is the loop order numpy's einsum takes for the signature; it
    is found by search, not derived, and bit-equality with einsum is pinned
    by a test against the installed numpy.  Should a numpy release change
    einsum's loop order, that test fails while the physics stays correct to
    round-off.  Signatures that einsum sends to its SIMD dot kernel cannot
    be reproduced this way and stay ``np.einsum``.
    """
    dim = ops[0].shape[-1]
    plan = _contract_plan(subscripts, order, dim)
    leads = [op.shape[:op.ndim - lay[1]] for op, lay in zip(ops, plan[0])]
    lead = (leads[0] if leads.count(leads[0]) == len(leads)
            else np.broadcast_shapes(*leads))
    res = np.empty(lead + (dim,) * plan[2])
    if not lead:    # one point: give it a leading axis of one
        _contract_block(plan, [op[None] for op in ops], res[None])
        return res
    # blocks of the first leading axis keep the scratch near _CHUNK_BYTES
    step = max(1, _CHUNK_BYTES // max(res[0].nbytes, 1))
    for s in range(0, lead[0], step):
        sl = slice(s, s + step)
        _contract_block(plan, [op[sl] if len(l) == len(lead) and l[0] == lead[0]
                               else op for op, l in zip(ops, leads)], res[sl])
    return res


def _contract_block(plan: tuple, ops: list[np.ndarray], out: np.ndarray) -> None:
    """The sum of one block of ``contract`` into ``out``, (lead..., comps)."""
    layouts, covers, n_out, terms = plan
    lead = out.shape[:out.ndim - n_out]
    leads = [op.shape[:op.ndim - lay[1]] for op, lay in zip(ops, layouts)]
    views = []
    for op, op_lead, (view, _, n_red, spread, staged) in zip(ops, leads, layouts):
        a = np.einsum(view, op)
        if staged:
            a = a.copy()
        views.append(a[(slice(None),) * n_red + spread
                       + (None,) * (len(lead) - len(op_lead))])
    acc = np.empty(out.shape[len(lead):] + lead) if n_out else out
    # a product that spans the sum's whole shape goes to one scratch array
    bufs, buf, full = [], None, leads[0] == lead
    for op_lead, covered in zip(leads[1:], covers):
        full = full or op_lead == lead
        if full and covered and buf is None:
            buf = np.empty_like(acc)
        bufs.append(buf)
    for n, idx in enumerate(terms):
        term = views[0][idx[0]]
        for a, i, into in zip(views[1:], idx[1:], bufs):
            term = np.multiply(term, a[i], out=into)
        if n == 0:
            np.add(term, 0.0, out=acc)
        else:
            np.add(acc, term, out=acc)
    if n_out:
        np.copyto(out.transpose(tuple(range(len(lead), out.ndim))
                                + tuple(range(len(lead)))), acc)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

# sizes the derivative and norm passes (the label flow's drift gradient,
# the flow window's and the monitor's norms, the validator's passes; the
# map assembly's passes are nonlinear._PASS_NODES) and one block of a
# contract sum.  frame_chunks gives a pass dim^2 frames' worth of values
# per _CHUNK_BYTES, the size its second-derivative stack would have; no
# solver pass holds one (frame_norms holds one or two scratch copies of its
# frames, the largest pass stack is a gradient), so a pass holds at most
# about _CHUNK_BYTES / dim.  Whole-window temporaries would raise a path's peak memory,
# one frame per pass would leave numpy call overhead in charge on small
# grids
_CHUNK_BYTES = 1 << 19

_ORDER = {"Lq": 0, "H1q": 1, "H2q": 2}


def frame_chunks(grid: Grid, n_frames: int, frame_size: int) -> list[slice]:
    """Slices of ``n_frames`` frames of ``frame_size`` values each, one per pass.

    A pass has about ``_CHUNK_BYTES / dim^2`` bytes of frame values (at
    least one frame), the size a second-derivative stack of the pass would
    have in ``_CHUNK_BYTES``; the passes hold at most a gradient stack.
    """
    step = max(1, _CHUNK_BYTES // (8 * frame_size * grid.dim**2))
    return [slice(i, min(i + step, n_frames)) for i in range(0, n_frames, step)]


def _check_norm(kind: str, q: float):
    if not 1 < q < np.inf:      # NaN fails it
        raise FieldError(f"integrability exponent q must be finite and "
                         f"exceed 1, got {q}")
    if kind not in _ORDER:
        raise FieldError(f"unknown norm kind {kind!r}")


def _norm_parts(grid: Grid, stack: np.ndarray, kind: str) -> list[np.ndarray]:
    """A frame stack and the derivative stacks its norm ``kind`` integrates."""
    parts = [stack]
    if _ORDER[kind] >= 1:
        parts.append(gradient_values(grid, stack))
    if _ORDER[kind] >= 2:
        parts.append(hessian_values(grid, stack, parts[1]))
    return parts


def _sq_sum(grid: Grid, a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|a|^2 per node of the frame stack ``a``, flat: its components are
    squared into ``scratch`` (``a`` itself or another array of its shape)
    and added in storage order, sq_0 + sq_1 + ..., into a new array."""
    sq = np.multiply(a, a, out=scratch).reshape(len(a) * grid.n_nodes, -1)
    total = sq[:, 0].copy()
    for c in range(1, sq.shape[1]):
        total += sq[:, c]
    return total


def _quadrature_pow(grid: Grid, sums: list[np.ndarray], q: float) -> np.ndarray:
    """Per frame: the node quadrature of the sum over ``sums`` (each
    (frames, nodes) squared magnitudes |part|^2) of |part|^q, every power
    by ``_half_q_pow``, added node by node in the order of ``sums``."""
    acc = _half_q_pow(sums[0], q, np.empty_like(sums[0]))
    power = np.empty_like(acc)
    for sq in sums[1:]:
        acc += _half_q_pow(sq, q, power)
    acc *= grid.quad_weights.reshape(-1)
    return np.add.reduce(acc, axis=1)


def _frame_pow(grid: Grid, f: np.ndarray, order: int, q: float) -> np.ndarray:
    """|f_k|^q of the Lq (order 0), H1q (1) or H2q (2) norm of every frame
    f_k of a stack, with no stack of derivatives.

    Each derivative is written by ``_d1`` or ``_d2_pure`` into a reused
    scratch stack and squared there, and its components are added in
    storage order (``_sq_sum``) straight away, into running sums from +0.0
    per node: |grad f|^2 = sum_k |d_k f|^2 and |D^2 f|^2 = sum_k (|d_kk f|^2
    + 2 sum_{l>k} |d_l d_k f|^2), k outermost.  The mixed derivative
    d_l d_k f is ``_d1`` along l of d_k f, so H2q holds a second scratch.
    """
    h = grid.spacing
    d1 = np.empty(f.shape)
    d2 = np.empty(f.shape) if order >= 2 else None
    sums = [_sq_sum(grid, f, d1)]
    sums += [np.zeros_like(sums[0]) for _ in range(order)]
    for k in range(grid.dim if order else 0):
        _d1(f, 1 + k, h[k], d1)
        if order >= 2:
            sums[2] += _sq_sum(grid, _d2_pure(f, 1 + k, h[k], d2), d2)
            for l in range(k + 1, grid.dim):
                sums[2] += 2.0 * _sq_sum(grid, _d1(d1, 1 + l, h[l], d2), d2)
        sums[1] += _sq_sum(grid, d1, d1)
    return _quadrature_pow(grid, [s.reshape(len(f), -1) for s in sums], q)


def _qth_root(total_pow: np.ndarray, q: float) -> np.ndarray:
    # scalar pow per frame: numpy's vectorized pow can differ from it in the
    # last bit, and a frame's norm is the same alone and in a stack
    return np.array([t ** (1.0 / q) for t in total_pow.tolist()])


def frame_norms(grid: Grid, stack: np.ndarray, kind: str, q: float) -> np.ndarray:
    """Lq, H1q or H2q norm of every frame of a stack (leading frame axis).

    One fused pass per ``frame_chunks`` slice (``_frame_pow``): the
    quadrature of (|f|^2)^(q/2), plus (sum_k |d_k f|^2)^(q/2) for H1q and
    H2q, plus (sum_k |d_kk f|^2 + 2 sum_{k<l} |d_l d_k f|^2)^(q/2) for H2q,
    |.| the Euclidean (Frobenius) norm over the components.  No gradient or
    Hessian stack is built: a pass holds one or two scratch copies of its
    frames and a few per-node rows.  The values equal the ones of each
    frame taken on its own, bit for bit.
    """
    _check_norm(kind, q)
    total = np.empty(len(stack))
    for sl in frame_chunks(grid, len(stack), int(np.prod(stack.shape[1:]))):
        total[sl] = _frame_pow(grid, stack[sl], _ORDER[kind], q)
    return _qth_root(total, q)


def spatial_norm(grid: Grid, values: np.ndarray, kind: str, q: float) -> float:
    """Norm of one frame; the one-frame case of :func:`frame_norms`."""
    return float(frame_norms(grid, values[None], kind, q)[0])


def time_lp_norm(times: np.ndarray, norms: np.ndarray, p: float) -> float:
    """L^p-in-time norm from per-frame spatial norms: the L^p part of
    :func:`htheta_time_norm`, with no pair terms."""
    if not 1 < p < np.inf:      # NaN fails it
        raise FieldError(f"time exponent p must be finite and exceed 1, got {p}")
    return htheta_time_norm(times, np.asarray(norms, float) ** p, (), 0.0,
                            0.0, p)[0]


def htheta_time_norm(times: np.ndarray, frame_pow: np.ndarray,
                     pair_pow: np.ndarray, sem: float, theta: float,
                     p: float) -> tuple[float, float]:
    """Discrete H^(theta,p)(0, t_n) norm of a series f on uniform ``times``
    t_0 .. t_n, and the Gagliardo sum through level n.  ``frame_pow`` is
    |f_k|^p, k <= n; ``pair_pow`` is |f_n - f_i|^p, i < n (empty: the L^p
    part alone); ``sem`` is the sum through level n - 1, to which level n
    adds twice its row weighted dt^2 / (t_n - t_i)^(1 + theta p).  The
    norm is the p-th root of the trapezoid of the frame powers plus it."""
    if len(pair_pow):
        sem += 2.0 * np.sum(pair_pow * (times[1] - times[0]) ** 2
                            / (times[-1] - times[:-1]) ** (1.0 + theta * p))
    return float((np.trapezoid(frame_pow, times) + sem) ** (1.0 / p)), sem


def _half_q_pow(x: np.ndarray, q: float, out: np.ndarray) -> np.ndarray:
    """x ** (q/2) into ``out``, by repeated multiplication when q/2 is a small
    integer (x * x * ... from the left)."""
    half = q / 2.0
    if half == 1:
        out[...] = x
        return out
    if half == int(half) and 2 <= half <= 16:
        np.multiply(x, x, out=out)
        for _ in range(int(half) - 2):
            np.multiply(out, x, out=out)
        return out
    return np.power(x, half, out=out)


def _pair_sq(buf: np.ndarray, n: int, diff: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """|f_i - f_n|^2 for i < n of a (frame, component, node) buffer.

    The squared components are summed in storage order, d_0^2 + d_1^2 +
    ..., by one ``np.add.reduce`` over the component axis.  The history's
    rows go through the flat scratch ``diff`` a chunk at a time (subtract,
    square, reduce); the result is the (n, node) rows of ``out``.
    """
    n_comp, npts = buf.shape[1:]
    rows = max(1, min(n, len(diff) // (n_comp * npts)))
    out = out[:n]
    for s in range(0, n, rows):
        e = min(s + rows, n)
        d = diff[:(e - s) * n_comp * npts].reshape(e - s, n_comp, npts)
        np.subtract(buf[s:e], buf[n], out=d)
        np.multiply(d, d, out=d)
        np.add.reduce(d, axis=1, out=out[s:e])
    return out


class SlobodeckijWindow:
    """Running discrete H^(theta,p)(0, t_n; X) norms, X = Lq, H1q or H2q, of
    one or more series on one time grid, each by :func:`htheta_time_norm`.

    ``load`` takes the next frames of every series, one stack per series
    (the stopping monitor's Z - I and J - 1, or the one series of
    :func:`slobodeckij_time_seminorm`), and stores them with their
    derivatives in buffers sized for ``times``, component-major: per series
    one (frame, component, node) buffer per part (values, gradient,
    Hessian), the components in their storage order, so every component of
    a frame is a contiguous node row.  ``advance`` adds the next stored
    frame's row of pair powers to each series' Gagliardo sum and returns
    the norms up to that frame, one per series.  The stencils are linear,
    so a pair norm comes from differences of stored values and derivatives:
    derivative work is O(L), and only the pair rows are O(L^2).  The series
    share one pair-row scratch, taken in turn: a series forms its whole row
    in it by :func:`_pair_sq`, which sums the squared components in storage
    order, then through ``_half_q_pow`` and the node quadrature
    ``m @ w_flat``, before the next series starts, so each series has the
    arithmetic of a window of its own.
    ``pair_pow[n]`` (series, n) keeps row n, |f_n - f_i|_X^p for i < n, and
    ``frame_pow[s, n]`` is |f_n|_X^p of series s, taken at ``load`` from the
    stored rows with the pair rows' component sum and ``_half_q_pow``, by
    the quadrature of :func:`frame_norms` (``_quadrature_pow``); ``norms``
    gives both as norms.
    """

    def __init__(self, grid: Grid, times: np.ndarray, theta: float, p: float,
                 kind: str = "H1q", q: float = 2.0):
        if not (0.0 < theta < 1.0):
            raise FieldError(f"theta must lie in (0, 1), got {theta}")
        if not 1 < p < np.inf:
            raise FieldError(f"time exponent p must be finite and exceed 1, got {p}")
        _check_norm(kind, q)
        self.grid = grid
        self.times = np.asarray(times, float)
        if not _is_uniform(self.times):
            raise FieldError("non-uniform time grids are not supported")
        self.theta, self.p, self.kind, self.q = theta, p, kind, q
        self.w_flat = grid.quad_weights.ravel()
        self.parts: list[list[np.ndarray]] = []     # per series, per part
        self.frame_pow = np.empty((0, len(self.times)))   # |f_n|_X^p
        self.pair_pow: list[np.ndarray] = []
        self.loaded = 0

    def _allocate_scratch(self) -> None:
        """The pair-row scratch the series share: a chunk of differences of
        about ``_CHUNK_BYTES`` (at least one row of the widest part), a
        part's squared pair norms, their power (the first part's power is m
        itself) and the row sum m."""
        L, npts = len(self.times), self.grid.n_nodes
        comps = [len(buf[0]) for parts in self.parts for buf in parts]
        self._diff = np.empty(max(max(1, _CHUNK_BYTES // (8 * c * npts)) * c
                                  for c in comps) * npts)
        self._rows = [np.empty((max(L - 1, 0), npts)) for _ in range(3)]

    def load(self, *series: np.ndarray) -> None:
        """Store the next frames of every series and their derivatives.

        The series come in the order of the first call, with equal frame
        counts.  A series' buffers are allocated with its first frames, and
        the shared scratch after every series has them.
        """
        k, m = self.loaded, len(series[0])
        L, npts = len(self.times), self.grid.n_nodes
        first = not self.parts
        if not first and len(series) != len(self.parts):
            raise FieldError(f"the window holds {len(self.parts)} series, "
                             f"got {len(series)}")
        if any(len(frames) != m for frames in series):
            raise FieldError("every series needs the same frames")
        if first:
            self.frame_pow = np.empty((len(series), L))
            self.sem = [0.0] * len(series)
        for s, frames in enumerate(series):
            parts = _norm_parts(self.grid, frames, self.kind)
            if first:
                self.parts.append([np.empty((L, a[0].size // npts, npts))
                                   for a in parts])
            for buf, a in zip(self.parts[s], parts):
                buf[k:k + m] = a.reshape(m, npts, -1).transpose(0, 2, 1)
            del parts
            # the stored rows' squares, added over the components in
            # storage order as in _pair_sq
            sums = [np.add.reduce(np.square(buf[k:k + m]), axis=1)
                    for buf in self.parts[s]]
            norm_pow = _quadrature_pow(self.grid, sums, self.q)
            self.frame_pow[s, k:k + m] = norm_pow ** (self.p / self.q)
        if first:
            self._allocate_scratch()
        self.loaded = k + m

    def advance(self) -> tuple[float, ...]:
        """Take in the next loaded frame; the norm of each series on
        [0, t_n] (0 for n = 0)."""
        n = len(self.pair_pow)
        if n >= self.loaded:
            raise FieldError("no loaded frame left to advance to")
        sq, power, m = (rows[:n] for rows in self._rows)
        rows = np.empty((len(self.parts), n))
        values = []
        for s, parts in enumerate(self.parts):
            for i, buf in enumerate(parts):
                _pair_sq(buf, n, self._diff, sq)
                if i == 0:
                    _half_q_pow(sq, self.q, m)
                else:
                    m += _half_q_pow(sq, self.q, power)
            rows[s] = ((m @ self.w_flat) ** (1 / self.q)) ** self.p
            value, self.sem[s] = htheta_time_norm(
                self.times[:n + 1], self.frame_pow[s, :n + 1], rows[s],
                self.sem[s], self.theta, self.p)
            values.append(value)
        self.pair_pow.append(rows)
        return tuple(values)

    def norms(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair and frame norms of the n frames taken in: (series, n, n),
        whose row k holds |f_i - f_k|_X for i < k (zero elsewhere), and
        (series, n), |f_k|_X."""
        n = len(self.pair_pow)
        pair = np.zeros((len(self.parts), n, n))
        for k, row in enumerate(self.pair_pow):
            pair[:, k, :k] = row ** (1.0 / self.p)
        return pair, self.frame_pow[:, :n] ** (1.0 / self.p)


def slobodeckij_time_seminorm(
    ts: TimeSeries,
    theta: float,
    p: float,
    spatial_kind: str = "H1q",
    q: float = 2.0,
) -> float:
    """Discrete H^(theta,p)-in-time norm with spatial norms per frame.

    The value of a one-series :class:`SlobodeckijWindow` on the whole
    series: the L^p-in-time part plus the Gagliardo double sum, both built
    from the requested spatial norm.  Requires a uniform time step; zero iff
    all frames vanish.
    """
    win = SlobodeckijWindow(ts.grid, ts.times, theta, p, spatial_kind, q)
    for sl in frame_chunks(ts.grid, len(ts), int(np.prod(ts.values.shape[1:]))):
        win.load(ts.values[sl])
    for _ in range(len(ts)):
        (value,) = win.advance()
    return value
