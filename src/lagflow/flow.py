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

The noise flow takes the transport increments on the caller's time grid
(K = 0 is the zero-increment case, psi = id) and holds its level stacks,
without times, on one set of axes: the nodes within one cell of the box,
n + 2 per axis, where the label flow reads them.  They are its tracked
region, the axes of every interpolation plan, and their one step per axis,
ax[1] - ax[0], is the step of the differences of grad Dpsi^{-1}
(``NoiseFlow``); a label that leaves them raises ``FlowEscapeError``.

The composed map data of a window (X, grad X, Z = grad X^{-1} and
J = det grad X) is one ``FlowWindow`` of level stacks, laid out like the
frame stacks of ``fields``: the density, the monitor norms and the
nonlinearity assembly all read it as stacks.  The label flow samples Dpsi,
and psi where its caller reads X, on Y with the interpolation plans of its
own Heun stages and forms grad X = Dpsi(Y) grad Y there: it returns the
map it composes (``LabelFlow``), so the composition only inverts.  What
the monitor reads of grad X, two values per level, is taken at the
composition; grad X itself stays on the window only with X.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .fields import (
    Grid,
    SlobodeckijWindow,
    TimeSeries,
    _centered_d1,
    contract,
    frame_chunks,
    frame_norms,
    gradient_values,
    htheta_time_norm,
)
from .interp import InterpAxes, InterpPlan
from .noise import TransportField

if TYPE_CHECKING:
    from .fixedpoint import SolveConfig

__all__ = [
    "NoiseFlow",
    "FlowWindow",
    "MonitorResult",
    "integrate_noise_flow",
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
    """Noise-only flow psi on the nodes within one cell of the box.

    Plain level stacks, one per time of the increments' grid, which they do
    not record: a label flow reads level n at its drift's time n, so both
    must be on one grid (the solve's ``cfg.times``).  ``axes`` (a list of
    n + 2 nodes per axis) are the nodes of every stack: ``psi``
    (L, *ext, d), which only a label flow that samples X reads (the solve's
    rebuild), ``Dpsi`` and ``Dpsi_inv`` (L, *ext, d, d), and
    ``grad_Dpsi_inv`` (L, *ext, d, d, d), the spatial derivatives of the
    inverse gradient, needed by the label-ODE chain rule.  For a family
    whose Jacobians are constant (``TransportField.constant_jacobian``)
    each level of ``Dpsi`` and ``Dpsi_inv`` is one matrix on every node:
    ``_noise_stacks`` integrates and inverts that matrix alone and
    broadcasts it, with the bits of the node-by-node run.  There and with
    K = 0 every difference of Dpsi^{-1} is +0.0, so ``grad_Dpsi_inv`` is
    None and the label flow skips its chain-rule term.  ``interp_axes``
    holds the interpolation constants of ``axes``, shared by every plan;
    their faces are the escape bounds, so a plan raises
    ``FlowEscapeError`` for a point more than one cell outside the box.
    The arrays do not change after construction.
    """

    axes: list[np.ndarray]
    psi: np.ndarray
    Dpsi: np.ndarray
    Dpsi_inv: np.ndarray
    grad_Dpsi_inv: np.ndarray | None
    interp_axes: InterpAxes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.interp_axes = InterpAxes(self.axes)

    def plan(self, pts: np.ndarray, time=None) -> InterpPlan:
        return InterpPlan(self.interp_axes, pts, time=time)


def _transport_sums(Q: TransportField, pts, dW):
    """sum_k Q_k(pts) dW_k and sum_k DQ_k(pts) dW_k; the second is one
    (d, d) matrix, taken at the first point, where every DQ_k is the same
    at every point (``TransportField.constant_jacobian``)."""
    d = pts.shape[-1]
    at = pts[(0,) * (pts.ndim - 1)] if Q.constant_jacobian else None
    vec = np.zeros(pts.shape)
    mat = np.zeros(pts.shape + (d,) if at is None else (d, d))
    for k in range(Q.K):
        if at is None:
            val, jac = Q.value_and_jacobian(k, pts)
        else:
            val, jac = Q.value(k, pts), Q.jacobian(k, at)
        mat += jac * dW[k]
        vec += val * dW[k]
    return vec, mat


def _heun_step(Q: TransportField, x: np.ndarray, D: np.ndarray,
               dW: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Heun step of psi and Dpsi; the product G0 D serves both stages.

    D is (..., d, d) on the points of x, or one (d, d) matrix for all of
    them where the field's Jacobians are constant (``_transport_sums``
    then gives one matrix too); the same arithmetic runs on either shape.
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


def _noise_stacks(Q: TransportField, dW: np.ndarray,
                  run_axes: list[np.ndarray]
                  ) -> tuple[np.ndarray, ...]:
    """psi, Dpsi, Dpsi_inv and grad Dpsi_inv on the inner nodes of
    ``run_axes``, each axis less its first and last node.

    The Heun steps run on every node of ``run_axes``, each level is
    inverted there, and grad Dpsi_inv is the centred difference on the
    inner nodes at their one step, ax[2] - ax[1] (the inner axes'
    ax[1] - ax[0], the step of every plan), whatever the last bits of the
    other spacings; the outer nodes are dropped level by level.  Every
    step, inversion and difference acts node by node, so the values on a
    node do not depend on the others, and a level whose Dpsi_inv is the
    same on every node (level 0) has a zero gradient, exactly.  Column n of
    ``dW`` drives step n.

    Where every DQ_k is one matrix (``TransportField.constant_jacobian``:
    the constant, rotation and linear_test families), Dpsi is the same on
    every node, so the Dpsi half of each Heun step, the determinant check
    and the inversion run on one (d, d) matrix per level; the stacks keep
    their shapes and are written by broadcast, with the bits of the
    node-by-node run.  With no field (K = 0) the steps leave D = I, stored
    as its own inverse.  In both cases no difference is taken, and
    grad Dpsi_inv, whose differences would all be +0.0, is None.  The
    blow-up check covers the nodes integrated.
    """
    dim = len(run_axes)
    keep = (slice(1, -1),) * dim
    pts0 = np.stack(np.meshgrid(*run_axes, indexing="ij"), axis=-1)
    ext = pts0[keep].shape[:-1]
    L = dW.shape[1] + 1
    psi = np.empty((L,) + ext + (dim,))
    Dpsi = np.empty((L,) + ext + (dim, dim))
    Dpsi_inv = np.empty(Dpsi.shape)
    nodal = not Q.constant_jacobian
    differenced = nodal and Q.K > 0     # else each (a - a) / 2h is +0.0
    grad_inv = np.empty(Dpsi.shape + (dim,)) if differenced else None

    def store(level, x, D):
        psi[level] = x[keep]
        Dpsi[level] = D[keep] if nodal else D
        # with no field D = I, its own inverse: the adjugate of I writes
        # -0.0 off the diagonal, where I holds +0.0
        inv = mat_inv(D) if Q.K else D
        Dpsi_inv[level] = inv[keep] if nodal else inv
        if not differenced:
            return
        for d, ax in enumerate(run_axes):
            block = tuple(slice(None) if k == d else slice(1, -1)
                          for k in range(dim))
            _centered_d1(inv[block], d, ax[2] - ax[1], grad_inv[level, ..., d])

    x = pts0
    D = np.empty(pts0.shape + (dim,) if nodal else (dim, dim))
    D[...] = np.eye(dim)
    store(0, x, D)
    for n in range(L - 1):
        x, D = _heun_step(Q, x, D, dW[:, n])
        det = mat_det(D)
        # written to fail on NaN, which every comparison lets through
        if not np.all(np.abs(det - 1.0) <= 0.5):
            what = ("drifted past 0.5" if np.all(np.isfinite(det))
                    else "is not finite")
            raise RuntimeError(
                f"noise-flow gradient determinant {what} at step {n + 1} "
                f"(scheme blow-up)")
        store(n + 1, x, D)
    return psi, Dpsi, Dpsi_inv, grad_inv


def integrate_noise_flow(Q: TransportField, dW: np.ndarray,
                         grid: Grid) -> NoiseFlow:
    """Integrate d psi = sum_k Q_k(psi) o dW_k on the box and one cell.

    ``dW`` holds the increments on the caller's time grid, (Q.K, steps)
    (``ValueError`` otherwise); K = 0 gives psi = id, Dpsi = Dpsi_inv = I
    and no grad Dpsi_inv (None) at every level, bit for bit.  The
    gradient flow d Dpsi = sum_k DQ_k(psi) Dpsi o dW_k is advanced with the
    same Heun staging; Dpsi_inv comes from per-point closed-form inversion,
    which keeps Dpsi . Dpsi_inv = I exactly at every level.  The steps run
    on the box padded by two cells, ``np.linspace(a - 2h, b + 2h, n + 4)``
    per axis; the stacks hold its inner n + 2 nodes, the ``NoiseFlow``
    axes (see ``_noise_stacks``), and nothing else.
    """
    dW = np.asarray(dW, float)
    if dW.ndim != 2 or len(dW) != Q.K:
        raise ValueError(f"{Q.K} transport fields need (K, steps) "
                         f"increments, got shape {dW.shape}")
    run_axes = [np.linspace(a - 2 * h, b + 2 * h, n + 4)
                for (a, b), n, h in zip(grid.box, grid.extent, grid.spacing)]
    return NoiseFlow([ax[1:-1] for ax in run_axes],
                     *_noise_stacks(Q, dW, run_axes))


# ---------------------------------------------------------------------------
# label ODE  Y_t(y) = y + int_0^t Dpsi_s(Y_s)^{-1} ubar(s, y) ds
# ---------------------------------------------------------------------------

@dataclass
class LabelFlow:
    """The composed map of a window, as the label flow forms it.

    Level stacks: ``X`` = psi(Y) (L, *ext, d) and ``gradX`` = Dpsi(Y) grad Y
    (L, *ext, d, d), both taken with the plan the label flow built on Y at
    each level; ``times`` (L,).  ``X`` is None when the flow was integrated
    without it (``with_X``).
    """

    times: np.ndarray
    X: np.ndarray | None
    gradX: np.ndarray


def integrate_label_flow(ubar: TimeSeries, nf: NoiseFlow,
                         with_X: bool = True) -> LabelFlow:
    """Heun integration of the label ODE, returning X = psi(Y) and
    grad X = Dpsi(Y) grad Y.  X is sampled only ``with_X`` (else
    ``LabelFlow.X`` is None): the solve's rebuild reads it, a Picard iterate
    does not, and no other output depends on it.  The step and times are
    ``ubar``'s; ``nf`` must come from increments on them (``NoiseFlow``: a
    noise flow of another step is read at the wrong times unnoticed).  They
    may cover a prefix of the noise flow's levels (more frames raise
    ``ValueError``): the first ``len(ubar)`` levels are integrated, and they
    do not depend on the levels after them.  grad Y solves the variational
    equation obtained by differentiating the integrand with the
    product/chain rule, using the tracked derivatives of Dpsi^{-1}
    interpolated at the moving points.  Where the noise flow has no
    grad Dpsi^{-1} (``NoiseFlow``: None) the term dA g u is skipped, with
    the interpolation of dA: for finite g and u its sum from zero is +0.0,
    and +0.0 + x = x, so the outputs keep their bits.

    Stage 0 of step n builds the interpolation plan on Y[n] at
    ``ubar.times[n]``; the same plan samples Dpsi (and psi) there, and one
    more plan does so on the last level, so a window of L levels builds
    2L - 1 plans either way.  grad X of a level is formed there, so Y,
    grad Y and Dpsi(Y) live one level at a time.

    The variational sums dg = dA_ijl g_lm u_j + A_ij (grad u)_jm (A the
    sampled Dpsi^{-1}, dA its gradient) and the product
    grad X = Dpsi(Y)_ij g_jm run component-major, with the node
    axis last.  g = grad Y is carried as (d, d, n) rows across the steps;
    grad X is written node-major into ``gradX`` at each level.  u and grad u
    are copied into component rows once per level, into two reused slots (a
    step reads its level and the next).  grad u is taken one
    ``frame_chunks`` pass of drift frames at a time, as the steps reach
    them, so no whole-window gradient is held (a frame's derivatives do not
    depend on the frames beside it).  dA is copied into (j, l, i, n) rows
    once per stage that forms its term, and A and Dpsi(Y) are read through
    strided views.  The terms of each sum are formed by one broadcast
    product per operand, left to right (dA g, then u; A grad u; Dpsi(Y) g),
    into a reused (j, l, i, m, n) or (j, i, m, n) scratch array, and added
    over the leading axes from +0.0 (numpy's identity of add), j outermost:
    the order and the rounding of einsum's loop over those labels, so a -0.0
    term sum is +0.0 as there.  The outputs are einsum's, bit for bit.
    """
    if len(ubar) > len(nf.psi):
        raise ValueError(f"{len(ubar)} velocity frames, the noise flow has "
                         f"{len(nf.psi)} levels")
    grid = ubar.grid
    dim = grid.dim
    times, dt = ubar.times, ubar.step
    pts0 = grid.coords()
    L = len(ubar)
    N = grid.n_nodes
    X = np.empty((L,) + pts0.shape) if with_X else None
    gradX = np.empty((L,) + pts0.shape[:-1] + (dim, dim))
    ub = ubar.values
    passes = iter(frame_chunks(grid, L, ub[0].size))
    held, gub = slice(0, 0), None   # the pass of frames whose gradient is held
    # the drift and its gradient of two levels as component rows, (j, n)
    # and (j, m, n): level n in slot n % 2, copied when a stage first reads it
    u_rows = np.empty((2, dim, N))
    gu_rows = np.empty((2, dim, dim, N))
    terms2 = np.empty((dim,) * 3 + (N,))        # (j, i, m, n)
    # the dA rows (j, l, i, n) and terms (j, l, i, m, n), where dA g u is formed
    chain = (None if nf.grad_Dpsi_inv is None else
             (np.empty((dim,) * 3 + (N,)), np.empty((dim,) * 4 + (N,))))

    def product(M, rows):
        """M_ij rows_jm as (i, m, n) rows, M node-major (N, d, d) and rows
        (j, m, n): the terms go in (j, i, m, n) and are added over j."""
        np.multiply(M.reshape(N, dim, dim).transpose(2, 1, 0)[:, :, None],
                    rows[:, None], out=terms2)
        return np.add.reduce(terms2, axis=0)

    def sample(level, y, g):
        """The plan on y at the level's time, which also samples Dpsi (and
        psi) for the level's grad X = Dpsi(y) g (and X)."""
        plan = nf.plan(y, time=times[level])
        if with_X:
            X[level] = plan.apply(nf.psi[level])
        D = plan.apply(nf.Dpsi[level])
        gradX[level].reshape(N, dim, dim)[...] = product(D, g).transpose(
            2, 0, 1)
        return plan

    def load_rows(level):
        nonlocal held, gub
        if level == held.stop:      # the levels are loaded in order, once
            held = next(passes)
            gub = gradient_values(grid, ub[held])
        np.copyto(u_rows[level % 2], ub[level].reshape(N, dim).T)
        gu = gub[level - held.start].reshape(N, dim, dim)
        np.copyto(gu_rows[level % 2], gu.transpose(1, 2, 0))

    def rhs(level, plan, g):
        A = plan.apply(nf.Dpsi_inv[level])
        f = np.einsum("...ij,...j->...i", A, ub[level])
        dg = product(A, gu_rows[level % 2])        # A_ij (grad u)_jm
        if chain is None:
            return f, dg
        # dA_ijl g_lm u_j: rows (j, l, i, m, n), added second (x + y is y + x)
        dA_rows, terms1 = chain
        dA = plan.apply(nf.grad_Dpsi_inv[level])
        np.copyto(dA_rows, dA.reshape(N, dim, dim, dim).transpose(2, 3, 1, 0))
        np.multiply(dA_rows[:, :, :, None], g[None, :, None], out=terms1)
        np.multiply(terms1, u_rows[level % 2][:, None, None, None], out=terms1)
        # (j, l) flattened in sum order
        dg += np.add.reduce(terms1.reshape(-1, dim, dim, N), 0)
        return f, dg

    y = pts0
    g = np.broadcast_to(np.eye(dim)[:, :, None], (dim, dim, N)).copy()
    load_rows(0)
    for n in range(L - 1):
        f0, dg0 = rhs(n, sample(n, y, g), g)
        y_pred = y + dt * f0
        g_pred = g + dt * dg0
        plan1 = nf.plan(y_pred, time=times[n + 1])
        load_rows(n + 1)
        f1, dg1 = rhs(n + 1, plan1, g_pred)
        y = y + 0.5 * dt * (f0 + f1)
        g = g + 0.5 * dt * (dg0 + dg1)
    sample(L - 1, y, g)
    return LabelFlow(times.copy(), X, gradX)


# ---------------------------------------------------------------------------
# composition and the flow window
# ---------------------------------------------------------------------------

@dataclass
class FlowWindow:
    """Lagrangian map data on the levels of a window, as level stacks.

    ``times`` (L,), ``X`` (L, *ext, d), ``gradX`` and ``Z`` (L, *ext, d, d)
    and ``J`` (L, *ext).  ``X`` and ``gradX`` are None on a window whose
    label flow did not sample X, a Picard iterate's: only the solve's
    rebuild reads them (its record and its validation).  What the stopping
    monitor reads of grad X is kept per level, for every window:
    ``dev_max`` (L,), the inversion guard's nodal maximum of
    |grad X - I| (Frobenius), and ``dev_h1q`` (L,), the H^{1,q} norm of
    grad X - I at the exponent ``q``.  Which levels are usable is the
    stopping monitor's verdict (``stopping_monitor``), not the window's.
    """

    times: np.ndarray
    X: np.ndarray | None
    gradX: np.ndarray | None
    Z: np.ndarray
    J: np.ndarray
    dev_max: np.ndarray
    dev_h1q: np.ndarray
    q: float

    @classmethod
    def from_map(cls, times: np.ndarray, X: np.ndarray | None,
                 gradX: np.ndarray, grid: Grid, q: float) -> "FlowWindow":
        """The window of the level stacks X and grad X on ``grid``.

        ``dev_max`` and ``dev_h1q`` are taken first, a chunk of frames at a
        time (``frame_chunks``), with the bits of each frame taken alone; a
        level the guard rejects may overflow its norm, which no reader
        reads.  Z is the closed-form inverse; a level with |J| <= 1e-14
        somewhere gets a NaN Z (the inversion guard of the monitor rejects
        it).  grad X is kept only with X.
        """
        L, eye = len(times), np.eye(grid.dim)
        dev_max, dev_h1q = np.empty(L), np.empty(L)
        for sl in frame_chunks(grid, L, gradX[0].size):
            dev = gradX[sl] - eye
            with np.errstate(over="ignore", invalid="ignore"):
                dev_h1q[sl] = frame_norms(grid, dev, "H1q", q)
            dev = np.sqrt(np.sum(np.square(dev, out=dev), axis=(-2, -1)))
            dev_max[sl] = dev.reshape(len(dev), -1).max(axis=1)
        J = mat_det(gradX)
        with np.errstate(divide="ignore", invalid="ignore"):
            Z = mat_inv(gradX, J)       # the singular levels are reset below
        Z[np.any(np.abs(J.reshape(L, -1)) <= 1e-14, axis=1)] = np.nan
        return cls(np.array(times, float), X, None if X is None else gradX,
                   Z, J, dev_max, dev_h1q, q)

    def __len__(self) -> int:
        return len(self.times)

    def restrict(self, n_frames: int) -> "FlowWindow":
        """First ``n_frames`` levels, as views."""
        return FlowWindow(*(a[:n_frames] if isinstance(a, np.ndarray) else a
                            for a in (getattr(self, f.name)
                                      for f in fields(self))))


def compose_flow(label: LabelFlow, grid: Grid, q: float) -> FlowWindow:
    """The window of a label flow, ``FlowWindow.from_map`` of its X and
    grad X at the exponent ``q``.

    The label flow formed both with its own plans on Y, so nothing is
    sampled or contracted here.  A window without X keeps no grad X: the
    stack ends with this call and the label flow.
    """
    return FlowWindow.from_map(label.times, label.X, label.gradX, grid, q)


# ---------------------------------------------------------------------------
# stopping monitor
# ---------------------------------------------------------------------------

def _valid_levels(window: FlowWindow, eps_star: float,
                  grid: Grid) -> np.ndarray:
    """The inversion guard, (L,) bool: a level is valid when every node has
    |grad X - I| <= eps_star (Frobenius, ``FlowWindow.dev_max``) and J > 0,
    which NaN fails; J a chunk of frames at a time (``frame_chunks``)."""
    valid = window.dev_max <= eps_star
    for sl in frame_chunks(grid, len(window), window.Z[0].size):
        J = window.J[sl]
        valid[sl] &= np.all(J.reshape(len(J), -1) > 0, axis=1)
    return valid


def _check_exponent(window: FlowWindow, cfg: SolveConfig) -> None:
    """``ValueError`` unless the window's grad X norms are at ``cfg.q``."""
    if window.q != cfg.q:
        raise ValueError(f"the window's |grad X - I| norms are at q = "
                         f"{window.q}, the configuration's q is {cfg.q}")


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

    The three running norms have one entry per level of ``times``; their
    sum ``total`` and ``fired`` are read off them.  ``fired_index`` is None
    when the run kept the whole window, ``len(times)`` when the inversion
    guard rejected the next level, and ``len(times) - 1`` when the total
    reached delta at the last level.
    """

    fired_index: int | None
    times: np.ndarray
    sup_gradX: np.ndarray      # running Linf-in-time H1q of gradX - I
    htheta_Z: np.ndarray       # running H^{theta,p} H^{1,q} of Z - I
    htheta_J: np.ndarray       # same for J - 1
    pair: np.ndarray
    frame: np.ndarray
    Z: np.ndarray = field(repr=False, compare=False)
    J: np.ndarray = field(repr=False, compare=False)

    @property
    def total(self) -> np.ndarray:
        """The running monitor totals, summed as the run compared them."""
        return self.sup_gradX + self.htheta_Z + self.htheta_J

    @property
    def fired(self) -> bool:
        return self.fired_index is not None

    def bound(self, window: FlowWindow, cfg: SolveConfig,
              grid: Grid) -> np.ndarray:
        """Upper bounds of the monitor totals of ``window``.

        On the levels 0 .. len(window) - 2, which must lie in ``times``:
        e_k is the H^{1,q} norm of the level difference of Z and J against
        W0; the bounded pair and frame norms go level by level through the
        exact run's ``fields.htheta_time_norm``, and the window's exact
        |grad X - I|_X (``FlowWindow.dev_h1q``) enter as a running sup.  The
        cost is two H^{1,q} frame norms per level and O(L^2) scalars,
        against the O(L^2) pair rows of an exact run.
        """
        _check_exponent(window, cfg)
        m = len(window) - 1
        e = np.empty((2, m))
        for sl in frame_chunks(grid, m, window.Z[0].size):
            e[0, sl] = frame_norms(grid, window.Z[sl] - self.Z[sl], "H1q", cfg.q)
            e[1, sl] = frame_norms(grid, window.J[sl] - self.J[sl], "H1q", cfg.q)
        pair_pow = (self.pair[:, :m, :m] + e[:, :, None] + e[:, None, :]) ** cfg.p
        frame_pow = (self.frame[:, :m] + e) ** cfg.p
        htheta = np.empty((2, m))
        for s in range(2):
            sem = 0.0
            for k in range(m):
                htheta[s, k], sem = htheta_time_norm(
                    self.times[:k + 1], frame_pow[s, :k + 1],
                    pair_pow[s, k, :k], sem, cfg.theta, cfg.p)
        return (np.maximum.accumulate(window.dev_h1q[:m]) + htheta[0]
                + htheta[1])

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

    delta, eps_star, theta, p and q are the solver configuration's; the
    window's |grad X - I| norms must be at its q (``ValueError``).  The
    guard runs first, before any norm buffer, on the window's per-level
    values.  The running sup of |grad X - I|_{H^{1,q}} reads
    ``FlowWindow.dev_h1q``; the Z and J norms are taken over the levels
    before the first rejected one, on slices of the window's stacks a chunk
    of frames at a time (``frame_chunks``).  Z - I and J - 1 are the
    two series of one ``SlobodeckijWindow``, which holds one pair-row
    scratch for both; their H^{theta,p} sums advance frame by frame and stop
    at the crossing.  The result's ``times`` are the levels taken in, each
    with its three running norms, whose sum reached delta at the last level
    of a crossing; it also keeps the run's pair and frame norms
    (``SlobodeckijWindow.norms``) and its window's Z and J, for
    ``MonitorResult.certifies``.
    """
    _check_exponent(window, cfg)
    eye = np.eye(grid.dim)
    times = window.times
    valid = _valid_levels(window, cfg.eps_star, grid)
    n_valid = len(window) if valid.all() else int(np.argmin(valid))
    win = SlobodeckijWindow(grid, times[:n_valid], cfg.theta, cfg.p, "H1q",
                            cfg.q)
    sup_run, hZ_run, hJ_run = [], [], []
    sup_gradX = 0.0
    fired_index = None
    for sl in frame_chunks(grid, n_valid, window.Z[0].size):
        win.load(window.Z[sl] - eye, window.J[sl] - 1.0)
        for n, gnorm in enumerate(window.dev_h1q[sl], sl.start):
            sup_gradX = max(sup_gradX, float(gnorm))
            hZ, hJ = win.advance()
            sup_run.append(sup_gradX)
            hZ_run.append(hZ)
            hJ_run.append(hJ)
            if sup_gradX + hZ + hJ >= cfg.delta:
                fired_index = n
                break
        if fired_index is not None:
            break
    if fired_index is None and n_valid < len(window):
        fired_index = n_valid
    pair, frame = win.norms()
    return MonitorResult(
        fired_index, times[:len(sup_run)], np.array(sup_run), np.array(hZ_run),
        np.array(hJ_run), pair, frame, window.Z, window.J)
