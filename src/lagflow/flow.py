"""Stochastic Lagrangian transformation and its run-time monitors.

The flow map X(t, y) splits into a noise-only flow psi driven by the
transport fields and a label ODE Y driven by the transformed velocity,
X = psi o Y.  All Stratonovich integrals use the Heun predictor-corrector,
and the variational (gradient) equations are integrated with the same
staging so that composed quantities stay consistent.  A stopping monitor
watches the deformation norms

    |grad X - I|_{Linf H^{1,q}} + |Z - I|_{H^{theta,p} H^{1,q}} + |J - 1|_{H^{theta,p} H^{1,q}}

and freezes the usable window at their first crossing of delta.

The noise flow holds its level stacks on the nodes within one cell of the
box, n + 2 per axis, where the label flow reads them; that block is its
tracked region, and a label that leaves it raises ``FlowEscapeError``.
The nodes are taken from a lattice, the node grid padded by ``PAD_CELLS``
cells per side, which is the coordinate frame only: the first node and
the step of every interpolation plan are the lattice's (``NoiseFlow``).

The composed map data of a window (X, grad X, Z = grad X^{-1}, J = det grad X
and the inversion guard) is one ``FlowWindow`` of level stacks, laid out
like the frame stacks of ``fields``: the density, the monitor norms and the
nonlinearity assembly all read it as stacks.  The label flow samples psi
and Dpsi on Y with the interpolation plans of its own Heun stages
(``LabelFlow``), so the composition only contracts and inverts.
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
    "MonitorAnchor",
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
    around the box: ``psi`` (L, *ext, d), ``Dpsi`` and ``Dpsi_inv``
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
    label flow built on Y at each level; ``times`` (L,).  ``grad_ubar``
    (L, *ext, d, d) is the gradient of the drift frames the flow was
    driven by, which the nonlinearity assembly of the same drift reads.
    """

    times: np.ndarray
    Y: np.ndarray
    gradY: np.ndarray
    X: np.ndarray
    Dpsi_Y: np.ndarray
    grad_ubar: np.ndarray


def integrate_label_flow(ubar: TimeSeries, nf: NoiseFlow) -> LabelFlow:
    """Heun integration of the label ODE, with psi and Dpsi sampled on Y.

    ``ubar`` may cover a window prefix of the noise grid: the first
    ``len(ubar)`` levels are integrated, and they do not depend on the levels
    after them.  grad Y solves the variational equation obtained by differentiating the
    integrand with the product/chain rule, using the tracked derivatives of
    Dpsi^{-1} interpolated at the moving points.

    Stage 0 of step n builds the interpolation plan on Y[n] at
    ``nf.times[n]``; the same plan samples psi and Dpsi there for the
    composition, and one more plan does so on the last level, so a window
    of L levels builds 2L - 1 plans.

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
    X = np.empty(Y.shape)
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
        """The plan on y at the level's time, which also samples psi and Dpsi."""
        plan = nf.plan(y, time=nf.times[level])
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

    ``times`` (L,), ``X`` (L, *ext, d), ``gradX`` and ``Z`` (L, *ext, d, d),
    ``J`` (L, *ext) and ``valid`` (L,) bool, the verdict of the inversion
    guard and the sign of J per level.
    """

    times: np.ndarray
    X: np.ndarray
    gradX: np.ndarray
    Z: np.ndarray
    J: np.ndarray
    valid: np.ndarray

    @classmethod
    def from_map(cls, times: np.ndarray, X: np.ndarray, gradX: np.ndarray,
                 eps_star: float) -> "FlowWindow":
        """J, Z and the inversion guard of the level stacks X and grad X.

        The closed-form inversion is guarded by |grad X - I| <= eps_star in
        the nodewise Frobenius surrogate; a level that violates it or has
        J <= 0 somewhere is invalid (the stopping monitor fires there).  A
        level with |J| <= 1e-14 somewhere gets a NaN Z.
        """
        L = len(times)
        eye = np.eye(gradX.shape[-1])
        dev = gradX - eye               # squared in place, like the inverse
        dev = np.sqrt(np.sum(np.square(dev, out=dev), axis=(-2, -1)))
        dev = dev.reshape(L, -1).max(axis=1)
        J = mat_det(gradX)
        J_levels = J.reshape(L, -1)
        valid = (dev <= eps_star) & np.all(J_levels > 0, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            Z = mat_inv(gradX, J)       # the singular levels are reset below
        Z[np.any(np.abs(J_levels) <= 1e-14, axis=1)] = np.nan
        return cls(np.array(times, float), X, gradX, Z, J, valid)

    def __len__(self) -> int:
        return len(self.times)

    def restrict(self, n_frames: int) -> "FlowWindow":
        """First ``n_frames`` levels, as views."""
        return FlowWindow(*(getattr(self, f.name)[:n_frames]
                            for f in fields(self)))


def compose_flow(label: LabelFlow, eps_star: float) -> FlowWindow:
    """The window of a label flow: grad X = Dpsi(Y) grad Y, then Z, J, guard.

    X = psi(Y) and Dpsi(Y) come from the label flow, which sampled them
    with its own plans on Y; the contraction runs on the whole stacks (its
    bits are the per-level ones), and ``FlowWindow.from_map`` takes the rest.
    """
    gradX = contract("...ij,...jk->...ik", "j", label.Dpsi_Y, label.gradY)
    return FlowWindow.from_map(label.times, label.X, gradX, eps_star)


# ---------------------------------------------------------------------------
# stopping monitor
# ---------------------------------------------------------------------------

@dataclass
class MonitorAnchor:
    """The state an exact monitor run leaves to certify later windows.

    On the n levels the run took in, for f = Z - I (index 0) and f = J - 1
    (index 1), with X = H^{1,q}: ``pair`` (2, n, n), whose row k holds the
    pair norms a_ik = |f_i - f_k|_X for i < k (zero elsewhere); ``frame``
    (2, n), the frame norms |f_k|_X; ``drift`` (2, n), e_k, the sum of
    |f_k(W) - f_k(W')|_X over the windows W certified since, each against
    the reference window W' before it; and ``Z`` and ``J``, the level
    stacks of the reference window (the run's, then the last one
    certified), the only ones ``bound`` reads: the anchor keeps neither X
    nor grad X of a window alive.  By the triangle inequality
    a_ik + e_i + e_k bounds every pair norm of the latest window, and
    |f_k|_X + e_k every frame norm.
    """

    times: np.ndarray
    pair: np.ndarray
    frame: np.ndarray
    drift: np.ndarray
    Z: np.ndarray
    J: np.ndarray

    @classmethod
    def from_sums(cls, sums: tuple[SlobodeckijWindow, ...],
                  window: FlowWindow) -> "MonitorAnchor":
        """The anchor of the sums of Z - I and J - 1 of a run on ``window``."""
        n = len(sums[0].pair_pow)
        pair = np.zeros((2, n, n))
        for s, acc in enumerate(sums):
            for k, row in enumerate(acc.pair_pow):
                pair[s, k, :k] = row ** (1.0 / acc.p)
        frame = np.array([acc.frame_pow[:n] ** (1.0 / acc.p) for acc in sums])
        return cls(sums[0].times[:n].copy(), pair, frame, np.zeros((2, n)),
                   window.Z, window.J)

    def bound(self, window: FlowWindow, cfg: SolveConfig,
              grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Upper bounds of the monitor totals of ``window`` and its drift.

        On the levels 0 .. len(window) - 2, which must lie in the anchor:
        e_k grows by the H^{1,q} norms of the level differences of Z and J
        against the reference window, the bounded pair and frame norms go
        through the L^p-in-time and Gagliardo sums of ``SlobodeckijWindow``
        as whole arrays, and the window's exact |grad X - I|_X enter as a
        running sup.  The cost is three H^{1,q} frame norms per level and
        O(L^2) scalars, against the O(L^2) pair rows of an exact run.
        """
        m = len(window) - 1
        eye = np.eye(grid.dim)
        gnorms, step = np.empty(m), np.empty((2, m))
        for sl in frame_chunks(grid, m, window.Z[0].size):
            gnorms[sl] = frame_norms(grid, window.gradX[sl] - eye, "H1q", cfg.q)
            step[0, sl] = frame_norms(grid, window.Z[sl] - self.Z[sl], "H1q", cfg.q)
            step[1, sl] = frame_norms(grid, window.J[sl] - self.J[sl], "H1q", cfg.q)
        drift = self.drift[:, :m] + step
        t = self.times[:m]
        lower = np.tri(m, k=-1, dtype=bool)
        w = np.zeros((m, m))
        if m > 1:
            gaps = t[:, None] - t[None, :]
            w[lower] = (t[1] - t[0]) ** 2 / gaps[lower] ** (1.0 + cfg.theta * cfg.p)
        pair = self.pair[:, :m, :m] + drift[:, :, None] + drift[:, None, :]
        sem = np.cumsum(2.0 * np.sum(pair ** cfg.p * w, axis=2), axis=1)
        frame_pow = (self.frame[:, :m] + drift) ** cfg.p
        lp_pow = np.zeros((2, m))
        lp_pow[:, 1:] = np.cumsum(
            0.5 * np.diff(t) * (frame_pow[:, 1:] + frame_pow[:, :-1]), axis=1)
        htheta = (lp_pow + sem) ** (1.0 / cfg.p)
        return np.maximum.accumulate(gnorms) + htheta[0] + htheta[1], drift

    def certify(self, window: FlowWindow, cfg: SolveConfig,
                grid: Grid) -> bool:
        """Whether the monitor provably keeps every level of ``window``.

        The window is certified when its levels 0 .. len - 2 are valid, lie
        in the anchor and have (1 + 1e-9) * bound < delta: no total reaches
        delta before the last level, and a crossing or an invalid level at
        the last level keeps every frame as well.  Then the drift and the
        reference Z and J move to ``window``'s and the anchor keeps those
        levels only (so the reference stacks always cover them); a
        declined window leaves the anchor as it was.
        """
        m = len(window) - 1
        if m > len(self.times) or not window.valid[:m].all():
            return False
        bound, drift = self.bound(window, cfg, grid)
        if not np.all((1.0 + 1e-9) * bound < cfg.delta):
            return False
        self.times, self.pair = self.times[:m], self.pair[:, :m, :m]
        self.frame, self.drift = self.frame[:, :m], drift
        self.Z, self.J = window.Z, window.J
        return True


@dataclass
class MonitorResult:
    sigma: float
    fired: bool
    fired_index: int | None
    times: np.ndarray
    sup_gradX: np.ndarray      # running Linf-in-time H1q of gradX - I
    htheta_Z: np.ndarray       # running H^{theta,p} H^{1,q} of Z - I
    htheta_J: np.ndarray       # same for J - 1
    total: np.ndarray
    # the pair and frame norms of the run, for certifying later windows
    anchor: MonitorAnchor = field(repr=False, compare=False)


def stopping_monitor(window: FlowWindow, cfg: SolveConfig,
                     grid: Grid) -> MonitorResult:
    """First time the deformation norm sum reaches delta (else the horizon).

    delta, theta, p and q are the solver configuration's.  An invalid level
    of the window (inversion guard violated or J <= 0) also fires the
    monitor there.  The norms are taken over the levels before the first
    invalid one, on slices of the window's stacks a chunk of frames at a
    time (``frame_chunks``); the H^{theta,p} sums advance frame by frame
    and stop at the crossing.

    The result's ``anchor`` keeps the run's pair and frame norms and its
    window's Z and J.  The Picard loop of ``fixedpoint.picard_solve`` runs
    this exact monitor on its first iterate and on the rebuild; a later
    iterate whose window the anchor certifies (``MonitorAnchor.certify``)
    keeps every level without a run and carries no monitor result, and one
    it declines runs this monitor, whose anchor then replaces the old one.
    """
    eye = np.eye(grid.dim)
    times = window.times
    invalid = np.flatnonzero(~window.valid)
    n_valid = int(invalid[0]) if len(invalid) else len(window)
    accZ, accJ = (SlobodeckijWindow(grid, times[:n_valid], cfg.theta, cfg.p,
                                    "H1q", cfg.q) for _ in range(2))
    sup_run, hZ_run, hJ_run, tot_run = [], [], [], []
    sup_gradX = 0.0
    fired_index = None
    for sl in frame_chunks(grid, n_valid, window.Z[0].size):
        gnorms = frame_norms(grid, window.gradX[sl] - eye, "H1q", cfg.q)
        accZ.load(window.Z[sl] - eye)
        accJ.load(window.J[sl] - 1.0)
        for n, gnorm in enumerate(gnorms, sl.start):
            sup_gradX = max(sup_gradX, float(gnorm))
            hZ = accZ.advance()
            hJ = accJ.advance()
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
    fired = fired_index is not None
    n_kept = len(tot_run)
    sigma = float(times[fired_index]) if fired else float(times[-1])
    return MonitorResult(
        sigma, fired, fired_index, times[:n_kept],
        np.array(sup_run), np.array(hZ_run), np.array(hJ_run), np.array(tot_run),
        MonitorAnchor.from_sums((accZ, accJ), window))
