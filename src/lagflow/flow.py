"""Stochastic Lagrangian transformation and its run-time monitors.

The flow map X(t, y) splits into a noise-only flow psi driven by the
transport fields and a label ODE Y driven by the transformed velocity,
X = psi o Y.  All Stratonovich integrals use the Heun predictor-corrector,
and the variational (gradient) equations are integrated with the same
staging so that composed quantities stay consistent.  A stopping monitor
watches the deformation norms

    |grad X - I|_{Linf H^{1,q}} + |Z - I|_{H^{theta,p} H^{1,q}} + |J - 1|_{H^{theta,p} H^{1,q}}

and the inversion guard (|grad X - I| <= eps_star, J > 0); its record owns
the usable window, which ends at a crossing of delta or before a level the
guard rejects.

The noise flow holds its level stacks on the nodes within one cell of the
box, n + 2 per axis, where the label flow reads them; that block is its
tracked region, and a label that leaves it raises ``FlowEscapeError``.
The nodes are taken from a lattice, the node grid padded by ``PAD_CELLS``
cells per side, which is the coordinate frame only: the first node and
the step of every interpolation plan are the lattice's (``NoiseFlow``).

The composed map data of a window (X, grad X, Z = grad X^{-1} and
J = det grad X) is one ``FlowWindow`` of level stacks, laid out like the
frame stacks of ``fields``: the density, the monitor norms and the
nonlinearity assembly all read it as stacks.  The label flow samples Dpsi,
and psi where its caller reads X, on Y with the interpolation plans of its
own Heun stages (``LabelFlow``), so the composition only contracts and
inverts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .fields import (
    Grid,
    SlobodeckijWindow,
    TimeSeries,
    contract,
    frame_chunks,
    frame_norms,
    gradient_values,
)
from .interp import InterpAxes, InterpPlan
from .noise import BrownianBundle, TransportField

if TYPE_CHECKING:
    from .fixedpoint import SolveConfig

__all__ = [
    "NoiseFlow",
    "FlowWindow",
    "MonitorResult",
    "integrate_noise_flow",
    "identity_noise_flow",
    "LabelFlow",
    "integrate_label_flow",
    "compose_flow",
    "stopping_monitor",
]


# ---------------------------------------------------------------------------
# small dense linear algebra on trailing (d, d) axes
# ---------------------------------------------------------------------------

def mat_det(A: np.ndarray) -> np.ndarray:
    d = A.shape[-1]
    if d == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    return (
        A[..., 0, 0] * (A[..., 1, 1] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 1])
        - A[..., 0, 1] * (A[..., 1, 0] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 0])
        + A[..., 0, 2] * (A[..., 1, 0] * A[..., 2, 1] - A[..., 1, 1] * A[..., 2, 0])
    )


def mat_inv(A: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """Closed-form (adjugate) inverse of 2x2 / 3x3 matrix fields."""
    d = A.shape[-1]
    if det is None:
        det = mat_det(A)
    out = np.empty_like(A)
    if d == 2:
        out[..., 0, 0] = A[..., 1, 1]
        out[..., 0, 1] = -A[..., 0, 1]
        out[..., 1, 0] = -A[..., 1, 0]
        out[..., 1, 1] = A[..., 0, 0]
        out /= det[..., None, None]
        return out
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            minor = (A[..., r[0], c[0]] * A[..., r[1], c[1]]
                     - A[..., r[0], c[1]] * A[..., r[1], c[0]])
            out[..., i, j] = (-1.0) ** (i + j) * minor
    out /= det[..., None, None]     # in place: no second stack on the peak
    return out


# ---------------------------------------------------------------------------
# noise-only flow
# ---------------------------------------------------------------------------

@dataclass
class NoiseFlow:
    """Noise-only flow psi on the lattice nodes within one cell of the box.

    The lattice (``lattice``, a list of axes) is the node grid padded by
    ``PAD_CELLS``, the coordinate frame of every plan: its first node and
    step give the cells and fractions.  The level stacks hold the lattice
    nodes ``nodes`` (a slice per axis), the core of n + 2 nodes per axis
    around the box: ``psi`` (L, *ext, d), which only a label flow that
    samples X reads (the solve's rebuild), ``Dpsi`` and ``Dpsi_inv``
    (L, *ext, d, d), and ``grad_Dpsi_inv`` (L, *ext, d, d, d), the spatial
    derivatives of the inverse gradient, needed by the label-ODE chain rule.
    ``axes`` are the lattice axes on those nodes.  ``interp_axes`` holds
    the interpolation constants of the lattice and the core, shared by
    every plan; the core's faces are the escape bounds, so a plan raises
    ``FlowEscapeError`` for a point more than one cell outside the box.
    The arrays do not change after construction.
    """

    lattice: list[np.ndarray]
    nodes: tuple[slice, ...]
    times: np.ndarray
    psi: np.ndarray
    Dpsi: np.ndarray
    Dpsi_inv: np.ndarray
    grad_Dpsi_inv: np.ndarray
    interp_axes: InterpAxes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.interp_axes = InterpAxes(self.lattice, self.nodes)

    @property
    def axes(self) -> list[np.ndarray]:
        return [ax[s] for ax, s in zip(self.lattice, self.nodes)]

    @property
    def n_levels(self) -> int:
        return len(self.times)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def plan(self, pts: np.ndarray, time=None) -> InterpPlan:
        return InterpPlan(self.interp_axes, pts, time=time)


PAD_CELLS = 4  # cells of the noise flow's coordinate frame past the box per side


def _padded_axes(grid: Grid) -> list[np.ndarray]:
    return [np.linspace(a - PAD_CELLS * h, b + PAD_CELLS * h, n + 2 * PAD_CELLS)
            for (a, b), n, h in zip(grid.box, grid.extent, grid.spacing)]


def _core_nodes(grid: Grid) -> tuple[slice, ...]:
    """The lattice nodes within one cell of the box, n + 2 per axis."""
    return tuple(slice(PAD_CELLS - 1, PAD_CELLS + n + 1) for n in grid.extent)


def _transport_sums(Q: TransportField, pts, dW):
    """sum_k Q_k(pts) dW_k and sum_k DQ_k(pts) dW_k."""
    vec = np.zeros(pts.shape)
    mat = np.zeros(pts.shape[:-1] + (pts.shape[-1],) * 2)
    for k in range(Q.K):
        val, jac = Q.value_and_jacobian(k, pts)
        mat += jac * dW[k]
        vec += val * dW[k]
    return vec, mat


def _heun_step(Q: TransportField, x: np.ndarray, D: np.ndarray,
               dW: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Heun step of psi and Dpsi; the product G0 D serves both stages.

    The stage temporaries end with the step, so none of them stays alive
    into the level's inversion.
    """
    b0, G0 = _transport_sums(Q, x, dW)
    x_pred = x + b0
    G0D = contract("...ij,...jk->...ik", "j", G0, D)
    D_pred = D + G0D
    b1, G1 = _transport_sums(Q, x_pred, dW)
    return (x + 0.5 * (b0 + b1),
            D + 0.5 * (G0D + contract("...ij,...jk->...ik", "j", G1, D_pred)))


def _inner_gradient(f: np.ndarray, ax: np.ndarray, run: slice, dim: int,
                    axis: int) -> np.ndarray:
    """``np.gradient(F, ax, axis=axis, edge_order=2)`` inside a block of F.

    ``f`` holds F, with trailing component axes, on a block of lattice nodes
    one node wider per side than the nodes wanted; along ``axis`` the block
    is the nodes ``run`` of the lattice axis ``ax``.  np.gradient takes one
    step for the whole axis when every spacing of ``ax`` is equal, and
    non-uniform weights otherwise.  That choice is made here on the whole
    lattice axis, not on the block's, and the weights are np.gradient's own
    expressions, so the result has its bits.
    """
    spacing = np.diff(ax)
    lo, mid, hi = (tuple(slice(a, b) if k == axis else slice(1, -1)
                         for k in range(dim))
                   for a, b in ((None, -2), (1, -1), (2, None)))
    if (spacing == spacing[0]).all():
        return (f[hi] - f[lo]) / (2. * spacing[0])
    dx = spacing[run.start:run.stop - 1]
    dx1, dx2 = dx[:-1], dx[1:]
    shape = (-1,) + (1,) * (f.ndim - axis - 1)
    a = (-(dx2) / (dx1 * (dx1 + dx2))).reshape(shape)
    b = ((dx2 - dx1) / (dx1 * dx2)).reshape(shape)
    c = (dx1 / (dx2 * (dx1 + dx2))).reshape(shape)
    return a * f[lo] + b * f[mid] + c * f[hi]


def _noise_stacks(Q: TransportField, bundle: BrownianBundle,
                  lattice: list[np.ndarray], nodes: tuple[slice, ...]
                  ) -> tuple[np.ndarray, ...]:
    """psi, Dpsi, Dpsi_inv and grad Dpsi_inv on the lattice nodes ``nodes``.

    ``nodes`` is a block inside the lattice, one node short of its faces at
    least.  The Heun steps run on the block and a one-node halo, each level
    is inverted there, and grad Dpsi_inv is taken on the block with
    ``_inner_gradient``; the halo is dropped level by level.  Every step,
    inversion and difference acts node by node, so the values on a node do
    not depend on the block.  The determinant blow-up check covers the
    nodes integrated.
    """
    dim = len(lattice)
    run = tuple(slice(s.start - 1, s.stop + 1) for s in nodes)
    keep = (slice(1, -1),) * dim
    pts0 = np.stack(np.meshgrid(*(ax[r] for ax, r in zip(lattice, run)),
                                indexing="ij"), axis=-1)
    ext = pts0[keep].shape[:-1]
    L = bundle.n_steps + 1
    psi = np.empty((L,) + ext + (dim,))
    Dpsi = np.empty((L,) + ext + (dim, dim))
    Dpsi_inv = np.empty(Dpsi.shape)
    grad_inv = np.empty(Dpsi.shape + (dim,))

    def store(level, x, D):
        psi[level] = x[keep]
        Dpsi[level] = D[keep]
        inv = mat_inv(D)
        Dpsi_inv[level] = inv[keep]
        for d, ax in enumerate(lattice):
            grad_inv[level, ..., d] = _inner_gradient(inv, ax, run[d], dim, d)

    x = pts0
    D = np.empty(pts0.shape + (dim,))
    D[...] = np.eye(dim)
    store(0, x, D)
    dWs = bundle.transport_increments()
    for n in range(bundle.n_steps):
        x, D = _heun_step(Q, x, D, dWs[:, n])
        det = mat_det(D)
        # written to fail on NaN, which every comparison lets through
        if not np.all(np.abs(det - 1.0) <= 0.5):
            what = ("drifted past 0.5" if np.all(np.isfinite(det))
                    else "is not finite")
            raise RuntimeError(
                f"noise-flow gradient determinant {what} at "
                f"t = {bundle.times[n + 1]:.6g} (scheme blow-up)")
        store(n + 1, x, D)
    return psi, Dpsi, Dpsi_inv, grad_inv


def integrate_noise_flow(Q: TransportField, bundle: BrownianBundle,
                         grid: Grid) -> NoiseFlow:
    """Integrate d psi = sum_k Q_k(psi) o dW_k on the core of the lattice.

    The gradient flow d Dpsi = sum_k DQ_k(psi) Dpsi o dW_k is advanced with
    the same Heun staging; Dpsi_inv comes from per-point closed-form
    inversion, which keeps Dpsi . Dpsi_inv = I exactly at every level.
    The stacks hold the core, the lattice nodes within one cell of the box
    (see ``_noise_stacks``), and nothing else (see ``NoiseFlow``).  The
    bundle must carry one transport path per field (``ValueError``
    otherwise).
    """
    if bundle.K != Q.K:
        raise ValueError(f"{Q.K} transport fields need as many Brownian "
                         f"paths, the bundle has {bundle.K}")
    lattice, nodes = _padded_axes(grid), _core_nodes(grid)
    return NoiseFlow(lattice, nodes, bundle.times.copy(),
                     *_noise_stacks(Q, bundle, lattice, nodes))


def identity_noise_flow(grid: Grid, times: np.ndarray) -> NoiseFlow:
    """The K = 0 noise flow: psi = id at every level, held on the core of
    the lattice like ``integrate_noise_flow``'s."""
    lattice, nodes = _padded_axes(grid), _core_nodes(grid)
    dim, L = grid.dim, len(times)
    pts0 = np.stack(np.meshgrid(*(ax[s] for ax, s in zip(lattice, nodes)),
                                indexing="ij"), axis=-1)
    psi = np.broadcast_to(pts0, (L,) + pts0.shape).copy()
    Dpsi = np.broadcast_to(np.eye(dim), (L,) + pts0.shape[:-1] + (dim, dim)).copy()
    grad_inv = np.zeros((L,) + pts0.shape[:-1] + (dim, dim, dim))
    return NoiseFlow(lattice, nodes, np.asarray(times, float), psi, Dpsi,
                     Dpsi.copy(), grad_inv)


# ---------------------------------------------------------------------------
# label ODE  Y_t(y) = y + int_0^t Dpsi_s(Y_s)^{-1} ubar(s, y) ds
# ---------------------------------------------------------------------------

@dataclass
class LabelFlow:
    """The label flow of a window and the noise flow sampled on it.

    Level stacks: ``Y`` (L, *ext, d), ``gradY`` (L, *ext, d, d), and
    ``X`` = psi(Y) and ``Dpsi_Y`` = Dpsi(Y), interpolated with the plan the
    label flow built on Y at each level; ``times`` (L,).  ``X`` is None
    when the flow was integrated without it (``with_X``).  ``grad_ubar``
    (L, *ext, d, d) is the gradient of the drift frames the flow was
    driven by, which the nonlinearity assembly of the same drift reads.
    """

    times: np.ndarray
    Y: np.ndarray
    gradY: np.ndarray
    X: np.ndarray | None
    Dpsi_Y: np.ndarray
    grad_ubar: np.ndarray


def integrate_label_flow(ubar: TimeSeries, nf: NoiseFlow,
                         with_X: bool = True) -> LabelFlow:
    """Heun integration of the label ODE, with Dpsi and psi sampled on Y.

    X = psi(Y) is sampled only ``with_X`` (else ``LabelFlow.X`` is None):
    the solve's rebuild reads it, a Picard iterate does not, and no other
    output depends on it.  ``ubar`` may cover a window prefix of the noise
    grid: the first ``len(ubar)`` levels are integrated, and they do not
    depend on the levels after them.  grad Y solves the variational
    equation obtained by differentiating the integrand with the
    product/chain rule, using the tracked derivatives of Dpsi^{-1}
    interpolated at the moving points.

    Stage 0 of step n builds the interpolation plan on Y[n] at
    ``nf.times[n]``; the same plan samples Dpsi (and psi) there for the
    composition, and one more plan does so on the last level, so a window
    of L levels builds 2L - 1 plans either way.

    The variational sums dg = dA_ijl g_lm u_j + A_ij (grad u)_jm (A the
    sampled Dpsi^{-1}, dA its gradient) run component-major, with the node
    axis last.  g = grad Y is carried as (d, d, n) rows across the steps
    and written node-major into ``gradY`` at each level; u and grad u are
    copied into component rows once per level, into two reused slots (a
    step reads its level and the next), dA into (j, l, i, n) rows once per
    stage, and A is read through a strided view.  The terms of
    each sum are formed by one broadcast product per operand, left to right
    (dA g, then u; A grad u), into a reused (j, l, i, m, n) or (j, i, m, n)
    scratch array, and added over the leading axes from zero, j outermost:
    the order and the rounding of einsum's loop over those labels, so a
    -0.0 term sum turns into +0.0 as there.  The outputs are the
    node-major einsum ones, bit for bit.
    """
    if len(ubar) > nf.n_levels or abs(ubar.step - nf.step) > 1e-12:
        raise ValueError("velocity frames must be aligned with the noise grid")
    grid = ubar.grid
    dim = grid.dim
    dt = nf.step
    pts0 = grid.coords()
    L = len(ubar)
    N = grid.n_nodes
    Y = np.empty((L,) + pts0.shape)
    G = np.empty((L,) + pts0.shape[:-1] + (dim, dim))
    X = np.empty(Y.shape) if with_X else None
    DY = np.empty(G.shape)
    Y[0] = pts0
    G[0] = np.eye(dim)
    ub = ubar.values
    gub = gradient_values(grid, ub)
    # the drift and its gradient of two levels as component rows, (j, n)
    # and (j, m, n): level n in slot n % 2, copied when a stage first reads it
    u_rows = np.empty((2, dim, N))
    gu_rows = np.empty((2, dim, dim, N))
    dA_rows = np.empty((dim,) * 3 + (N,))       # (j, l, i, n)
    terms1 = np.empty((dim,) * 4 + (N,))        # (j, l, i, m, n)
    terms2 = np.empty((dim,) * 3 + (N,))        # (j, i, m, n)
    terms1_jl = terms1.reshape(dim * dim, dim, dim, N)  # (j, l) in sum order

    def sample(level, y):
        """The plan on y at the level's time, which also samples Dpsi (and
        psi)."""
        plan = nf.plan(y, time=nf.times[level])
        if with_X:
            X[level] = plan.apply(nf.psi[level])
        DY[level] = plan.apply(nf.Dpsi[level])
        return plan

    def load_rows(level):
        np.copyto(u_rows[level % 2], ub[level].reshape(N, dim).T)
        np.copyto(gu_rows[level % 2],
                  gub[level].reshape(N, dim, dim).transpose(1, 2, 0))

    def rhs(level, plan, g):
        A = plan.apply(nf.Dpsi_inv[level])
        dA = plan.apply(nf.grad_Dpsi_inv[level])
        f = np.einsum("...ij,...j->...i", A, ub[level])
        # dA_ijl g_lm u_j: rows (j, l, i, m, n)
        np.copyto(dA_rows, dA.reshape(N, dim, dim, dim).transpose(2, 3, 1, 0))
        np.multiply(dA_rows[:, :, :, None], g[None, :, None], out=terms1)
        np.multiply(terms1, u_rows[level % 2][:, None, None, None], out=terms1)
        dg = np.add.reduce(terms1_jl, axis=0, initial=0.0)
        # A_ij (grad u)_jm: rows (j, i, m, n)
        np.multiply(A.reshape(N, dim, dim).transpose(2, 1, 0)[:, :, None],
                    gu_rows[level % 2][:, None], out=terms2)
        dg += np.add.reduce(terms2, axis=0, initial=0.0)
        return f, dg

    y = Y[0].copy()
    g = np.broadcast_to(np.eye(dim)[:, :, None], (dim, dim, N)).copy()
    load_rows(0)
    for n in range(L - 1):
        f0, dg0 = rhs(n, sample(n, y), g)
        y_pred = y + dt * f0
        g_pred = g + dt * dg0
        plan1 = nf.plan(y_pred, time=nf.times[n + 1])
        load_rows(n + 1)
        f1, dg1 = rhs(n + 1, plan1, g_pred)
        y = y + 0.5 * dt * (f0 + f1)
        g = g + 0.5 * dt * (dg0 + dg1)
        Y[n + 1] = y
        G[n + 1].reshape(N, dim, dim)[...] = g.transpose(2, 0, 1)
    sample(L - 1, y)
    return LabelFlow(nf.times[:L].copy(), Y, G, X, DY, gub)


# ---------------------------------------------------------------------------
# composition and the flow window
# ---------------------------------------------------------------------------

@dataclass
class FlowWindow:
    """Lagrangian map data on the levels of a window, as level stacks.

    ``times`` (L,), ``X`` (L, *ext, d), ``gradX`` and ``Z`` (L, *ext, d, d)
    and ``J`` (L, *ext).  ``X`` is None on a window whose label flow did not
    sample it, a Picard iterate's: only the solve's rebuild reads X.  Which
    levels are usable is the stopping monitor's verdict
    (``stopping_monitor``), not the window's.
    """

    times: np.ndarray
    X: np.ndarray | None
    gradX: np.ndarray
    Z: np.ndarray
    J: np.ndarray

    @classmethod
    def from_map(cls, times: np.ndarray, X: np.ndarray | None,
                 gradX: np.ndarray) -> "FlowWindow":
        """J and Z of the level stacks X and grad X.

        Z is the closed-form inverse; a level with |J| <= 1e-14 somewhere
        gets a NaN Z (the inversion guard of the monitor rejects it).
        """
        J = mat_det(gradX)
        with np.errstate(divide="ignore", invalid="ignore"):
            Z = mat_inv(gradX, J)       # the singular levels are reset below
        Z[np.any(np.abs(J.reshape(len(times), -1)) <= 1e-14, axis=1)] = np.nan
        return cls(np.array(times, float), X, gradX, Z, J)

    def __len__(self) -> int:
        return len(self.times)

    def restrict(self, n_frames: int) -> "FlowWindow":
        """First ``n_frames`` levels, as views."""
        return FlowWindow(*(None if a is None else a[:n_frames]
                            for a in (getattr(self, f.name)
                                      for f in fields(self))))


def compose_flow(label: LabelFlow) -> FlowWindow:
    """The window of a label flow: grad X = Dpsi(Y) grad Y, then Z and J.

    X = psi(Y) (None when not sampled) and Dpsi(Y) come from the label
    flow, which sampled them with its own plans on Y; the contraction runs
    on the whole stacks (its
    bits are the per-level ones), and ``FlowWindow.from_map`` takes the rest.
    """
    gradX = contract("...ij,...jk->...ik", "j", label.Dpsi_Y, label.gradY)
    return FlowWindow.from_map(label.times, label.X, gradX)


# ---------------------------------------------------------------------------
# stopping monitor
# ---------------------------------------------------------------------------

def _valid_levels(window: FlowWindow, eps_star: float,
                  grid: Grid) -> np.ndarray:
    """The inversion guard, (L,) bool: a level is valid when every node has
    |grad X - I| <= eps_star (Frobenius) and J > 0, which NaN fails; a chunk
    of frames at a time (``frame_chunks``)."""
    eye, valid = np.eye(grid.dim), np.empty(len(window), bool)
    for sl in frame_chunks(grid, len(window), window.Z[0].size):
        dev = window.gradX[sl] - eye    # squared in place
        dev = np.sqrt(np.sum(np.square(dev, out=dev), axis=(-2, -1)))
        valid[sl] = ((dev.reshape(len(dev), -1).max(axis=1) <= eps_star)
                     & np.all(window.J[sl].reshape(len(dev), -1) > 0, axis=1))
    return valid


@dataclass(frozen=True)
class MonitorResult:
    """The record of an exact monitor run on a window W0.

    ``times`` are the n levels the run took in, the usable window.  Besides
    the running norms, for f = Z - I (index 0) and f = J - 1 (index 1),
    with X = H^{1,q}: ``pair`` (2, n, n), whose row k
    holds the pair norms a_ik = |f_i - f_k|_X for i < k (zero elsewhere);
    ``frame`` (2, n), the frame norms |f_k|_X; and ``Z`` and ``J``, the
    level stacks of W0, the only ones ``bound`` reads: the record keeps
    neither X nor grad X of W0 alive.  With e_k = |f_k(W) - f_k(W0)|_X, the
    triangle inequality bounds every pair norm of a later window W by
    a_ik + e_i + e_k, and every frame norm by |f_k|_X + e_k.
    """

    fired: bool
    fired_index: int | None
    times: np.ndarray
    sup_gradX: np.ndarray      # running Linf-in-time H1q of gradX - I
    htheta_Z: np.ndarray       # running H^{theta,p} H^{1,q} of Z - I
    htheta_J: np.ndarray       # same for J - 1
    total: np.ndarray
    pair: np.ndarray
    frame: np.ndarray
    Z: np.ndarray = field(repr=False, compare=False)
    J: np.ndarray = field(repr=False, compare=False)

    def bound(self, window: FlowWindow, cfg: SolveConfig,
              grid: Grid) -> np.ndarray:
        """Upper bounds of the monitor totals of ``window``.

        On the levels 0 .. len(window) - 2, which must lie in ``times``:
        e_k is the H^{1,q} norm of the level difference of Z and J against
        W0, the bounded pair and frame norms go through the L^p-in-time and
        Gagliardo sums of ``SlobodeckijWindow`` as whole arrays, and the
        window's exact |grad X - I|_X enter as a running sup.  The cost is
        three H^{1,q} frame norms per level and O(L^2) scalars, against the
        O(L^2) pair rows of an exact run.
        """
        m = len(window) - 1
        eye = np.eye(grid.dim)
        gnorms, e = np.empty(m), np.empty((2, m))
        for sl in frame_chunks(grid, m, window.Z[0].size):
            gnorms[sl] = frame_norms(grid, window.gradX[sl] - eye, "H1q", cfg.q)
            e[0, sl] = frame_norms(grid, window.Z[sl] - self.Z[sl], "H1q", cfg.q)
            e[1, sl] = frame_norms(grid, window.J[sl] - self.J[sl], "H1q", cfg.q)
        t = self.times[:m]
        lower = np.tri(m, k=-1, dtype=bool)
        w = np.zeros((m, m))
        if m > 1:
            gaps = t[:, None] - t[None, :]
            w[lower] = (t[1] - t[0]) ** 2 / gaps[lower] ** (1.0 + cfg.theta * cfg.p)
        pair = self.pair[:, :m, :m] + e[:, :, None] + e[:, None, :]
        sem = np.cumsum(2.0 * np.sum(pair ** cfg.p * w, axis=2), axis=1)
        frame_pow = (self.frame[:, :m] + e) ** cfg.p
        lp_pow = np.zeros((2, m))
        lp_pow[:, 1:] = np.cumsum(
            0.5 * np.diff(t) * (frame_pow[:, 1:] + frame_pow[:, :-1]), axis=1)
        htheta = (lp_pow + sem) ** (1.0 / cfg.p)
        return np.maximum.accumulate(gnorms) + htheta[0] + htheta[1]

    def certifies(self, window: FlowWindow, cfg: SolveConfig,
                  grid: Grid) -> bool:
        """Whether the monitor provably keeps every level of ``window``.

        It does when every level passes the inversion guard, the last
        included, and the levels 0 .. len - 2 lie in ``times`` and have
        (1 + 1e-9) * bound < delta: no total reaches delta before the last
        level, and a crossing at the last level keeps every frame as well.
        """
        if (len(window) - 1 > len(self.times)
                or not _valid_levels(window, cfg.eps_star, grid).all()):
            return False
        return bool(np.all((1.0 + 1e-9) * self.bound(window, cfg, grid)
                           < cfg.delta))


def stopping_monitor(window: FlowWindow, cfg: SolveConfig,
                     grid: Grid) -> MonitorResult:
    """The usable window: the levels up to the first one where the
    deformation norm sum reaches delta, or before the first one the
    inversion guard (``_valid_levels``) rejects; else the whole window.

    delta, eps_star, theta, p and q are the solver configuration's.  The
    guard runs first, before any norm buffer.  The norms are taken over the
    levels before the first rejected one, on slices of the window's stacks
    a chunk of frames at a time (``frame_chunks``).  Z - I and J - 1 are the
    two series of one ``SlobodeckijWindow``, which holds one pair-row
    scratch for both; their H^{theta,p} sums advance frame by frame and stop
    at the crossing.  The result's ``times`` are the levels taken in; it
    also keeps the run's pair and frame norms (``SlobodeckijWindow.norms``)
    and its window's Z and J, for ``MonitorResult.certifies``.
    """
    eye = np.eye(grid.dim)
    times = window.times
    valid = _valid_levels(window, cfg.eps_star, grid)
    n_valid = len(window) if valid.all() else int(np.argmin(valid))
    win = SlobodeckijWindow(grid, times[:n_valid], cfg.theta, cfg.p, "H1q",
                            cfg.q)
    sup_run, hZ_run, hJ_run, tot_run = [], [], [], []
    sup_gradX = 0.0
    fired_index = None
    for sl in frame_chunks(grid, n_valid, window.Z[0].size):
        gnorms = frame_norms(grid, window.gradX[sl] - eye, "H1q", cfg.q)
        win.load(window.Z[sl] - eye, window.J[sl] - 1.0)
        for n, gnorm in enumerate(gnorms, sl.start):
            sup_gradX = max(sup_gradX, float(gnorm))
            hZ, hJ = win.advance()
            total = sup_gradX + hZ + hJ
            sup_run.append(sup_gradX)
            hZ_run.append(hZ)
            hJ_run.append(hJ)
            tot_run.append(total)
            if total >= cfg.delta:
                fired_index = n
                break
        if fired_index is not None:
            break
    if fired_index is None and n_valid < len(window):
        fired_index = n_valid
    pair, frame = win.norms()
    return MonitorResult(
        fired_index is not None, fired_index, times[:len(tot_run)],
        np.array(sup_run), np.array(hZ_run), np.array(hJ_run), np.array(tot_run),
        pair, frame, window.Z, window.J)
