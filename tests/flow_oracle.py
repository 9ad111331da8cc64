"""Reference forms of the flow stage's kernels, kept verbatim.

``per_level_compose`` is the composition as it was before the label flow
shared its interpolation plans: it builds its own plan on Y at every
level and samples psi and Dpsi there.  ``integrate_label_flow`` is the
label flow as it was while its variational sums went through
``contract`` on node-major arrays (and the drift gradient through
``np.gradient``, from ``derivative_oracle``); it forms the chain-rule
term on every level and returns its own record (``OracleLabelFlow``) of
Y, grad Y and psi and Dpsi sampled on Y; a noise flow without
grad Dpsi^{-1} (None) gives it all +0.0 differences.  ``loop_pair_row`` is the pair
row of ``SlobodeckijWindow`` on a (frame, node, component) layout, its
squared components summed by a plain loop in storage order.  ``csr_weights`` is
the construction of ``InterpPlan.W`` before the per-axes constants were
shared.  ``nodal_noise_stacks`` is ``flow._noise_stacks`` as it was
while every field's Jacobian was taken at every node (its Heun step
``nodal_heun_step``), before an affine family's Dpsi became one matrix
per level.  ``padded_noise_flow`` is the noise flow integrated with that
step and stored on every node of ``run_axes``, the box padded by two
cells, with np.gradient at the step of its inner nodes.  The production
code must agree with each of them bit for bit.
``zero_noise_flow`` is not an oracle: it is the K = 0 noise flow the
tests drive the label flow with.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from derivative_oracle import gradient_values
from lagflow.fields import TimeSeries, _centered_d1, contract
from lagflow.flow import (FlowWindow, NoiseFlow, integrate_noise_flow,
                          mat_det, mat_inv)
from lagflow.interp import FlowEscapeError
from lagflow.noise import make_transport_field


def zero_noise_flow(grid, times):
    """The K = 0 noise flow on ``times``: the integrator with zero-row
    increments, psi = id at every level."""
    Q = make_transport_field(grid.dim, "constant", 0)
    return integrate_noise_flow(Q, np.zeros((0, len(times) - 1)), grid)


def run_axes(grid):
    """The axes the noise flow integrates on: the box padded by two cells,
    n + 4 nodes per axis; its stacks hold the inner n + 2."""
    return [np.linspace(a - 2 * h, b + 2 * h, n + 4)
            for (a, b), n, h in zip(grid.box, grid.extent, grid.spacing)]


def per_level_compose(nf, times, Y, gradY, grid, q):
    """X = psi(Y), grad X = Dpsi(Y) grad Y, then the window of ``grid`` at
    the exponent ``q`` (``FlowWindow.from_map``), on ``times``."""
    X = np.empty(Y.shape)
    gradX = np.empty(gradY.shape)
    for n in range(len(Y)):
        plan = nf.plan(Y[n], time=times[n])
        X[n] = plan.apply(nf.psi[n])
        gradX[n] = contract("...ij,...jk->...ik", "j", plan.apply(nf.Dpsi[n]),
                            gradY[n])
    return FlowWindow.from_map(times[:len(Y)], X, gradX, grid, q)


def nodal_transport_sums(Q, pts, dW):
    """sum_k Q_k(pts) dW_k and sum_k DQ_k(pts) dW_k."""
    vec = np.zeros(pts.shape)
    mat = np.zeros(pts.shape[:-1] + (pts.shape[-1],) * 2)
    for k in range(Q.K):
        val, jac = Q.value_and_jacobian(k, pts)
        mat += jac * dW[k]
        vec += val * dW[k]
    return vec, mat


def nodal_heun_step(Q, x, D, dW):
    """One Heun step of psi and Dpsi; the product G0 D serves both stages."""
    b0, G0 = nodal_transport_sums(Q, x, dW)
    x_pred = x + b0
    G0D = contract("...ij,...jk->...ik", "j", G0, D)
    D_pred = D + G0D
    b1, G1 = nodal_transport_sums(Q, x_pred, dW)
    return (x + 0.5 * (b0 + b1),
            D + 0.5 * (G0D + contract("...ij,...jk->...ik", "j", G1, D_pred)))


def nodal_noise_stacks(Q, dW, run_axes):
    """psi, Dpsi, Dpsi_inv and grad Dpsi_inv on the inner nodes of
    ``run_axes``, every step, inversion and difference taken node by node."""
    dim = len(run_axes)
    keep = (slice(1, -1),) * dim
    pts0 = np.stack(np.meshgrid(*run_axes, indexing="ij"), axis=-1)
    ext = pts0[keep].shape[:-1]
    L = dW.shape[1] + 1
    psi = np.empty((L,) + ext + (dim,))
    Dpsi = np.empty((L,) + ext + (dim, dim))
    Dpsi_inv = np.empty(Dpsi.shape)
    grad_inv = np.empty(Dpsi.shape + (dim,))

    def store(level, x, D):
        psi[level] = x[keep]
        Dpsi[level] = D[keep]
        if not Q.K:
            Dpsi_inv[level], grad_inv[level] = Dpsi[level], 0.0
            return
        inv = mat_inv(D)
        Dpsi_inv[level] = inv[keep]
        for d, ax in enumerate(run_axes):
            block = tuple(slice(None) if k == d else slice(1, -1)
                          for k in range(dim))
            _centered_d1(inv[block], d, ax[2] - ax[1], grad_inv[level, ..., d])

    x = pts0
    D = np.empty(pts0.shape + (dim,))
    D[...] = np.eye(dim)
    store(0, x, D)
    for n in range(L - 1):
        x, D = nodal_heun_step(Q, x, D, dW[:, n])
        det = mat_det(D)
        if not np.all(np.abs(det - 1.0) <= 0.5):
            raise RuntimeError("scheme blow-up")
        store(n + 1, x, D)
    return psi, Dpsi, Dpsi_inv, grad_inv


def padded_noise_flow(Q, bundle, grid):
    """(axes, psi, Dpsi, Dpsi_inv, grad_Dpsi_inv) on every node of
    ``run_axes``, grad_Dpsi_inv with the inner nodes' one step ax[2] - ax[1]."""
    axes = run_axes(grid)
    dim = grid.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts0 = np.stack(mesh, axis=-1)
    L = bundle.n_steps + 1
    psi = np.empty((L,) + pts0.shape)
    Dpsi = np.empty((L,) + pts0.shape[:-1] + (dim, dim))
    psi[0] = pts0
    Dpsi[0] = np.eye(dim)
    dWs = bundle.transport_increments()
    x = pts0.copy()
    D = Dpsi[0].copy()
    for n in range(bundle.n_steps):
        x, D = nodal_heun_step(Q, x, D, dWs[:, n])
        if not np.all(np.abs(mat_det(D) - 1.0) <= 0.5):
            raise RuntimeError("scheme blow-up")
        psi[n + 1] = x
        Dpsi[n + 1] = D
    Dpsi_inv = mat_inv(Dpsi)
    grad_inv = np.empty(Dpsi_inv.shape + (dim,))
    for d, ax in enumerate(axes):
        grad_inv[..., d] = np.gradient(Dpsi_inv, ax[2] - ax[1], axis=1 + d,
                                       edge_order=2)
    return axes, psi, Dpsi, Dpsi_inv, grad_inv


def half_q_pow(x, q):
    """x ** (q/2), using repeated multiplication when q/2 is a small integer."""
    half = q / 2.0
    if half == int(half) and 1 <= half <= 16:
        out = x
        for _ in range(int(half) - 1):
            out = out * x
        return out
    return x ** half


def component_sum(d):
    """d[..., 0]**2 + d[..., 1]**2 + ..., added left to right."""
    total = d[..., 0] * d[..., 0]
    for c in range(1, d.shape[-1]):
        total = total + d[..., c] * d[..., c]
    return total


def loop_pair_row(parts, n, w_flat, q, p):
    """|f_n - f_i|_X^p for i < n from (frame, node, component) buffers."""
    m = 0.0
    for buf in parts:
        m = m + half_q_pow(component_sum(buf[:n] - buf[n]), q)
    return ((m @ w_flat) ** (1 / q)) ** p


def csr_weights(axes, pts, time=None):
    """(data, indices, indptr) of the weight matrix of ``pts`` on ``axes``."""
    pts = np.asarray(pts, float)
    dim = len(axes)
    flat = pts.reshape(-1, dim)
    n = flat.shape[0]
    sizes = tuple(len(ax) for ax in axes)
    idx = np.empty((dim, n), dtype=np.intp)
    frac = np.empty((dim, n))
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
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    strides = np.cumprod((1,) + sizes[:0:-1])[::-1]
    offsets = corners @ strides
    factors = np.stack([1.0 - frac, frac], axis=1)
    w = np.ones((len(corners), n))
    for d in range(dim):
        w = w * factors[d, corners[:, d]]
    cols = (strides @ idx)[:, None] + offsets
    n_nodes = int(np.prod(sizes))
    itype = np.int32 if max(n_nodes, w.size) < 2 ** 31 else np.int64
    return (w.T.ravel(), cols.ravel().astype(itype),
            np.arange(0, w.size + 1, len(corners), dtype=itype))


@dataclass
class OracleLabelFlow:
    """Level stacks of the oracle's label flow: ``Y``, ``gradY``, and
    ``X`` = psi(Y) and ``Dpsi_Y`` = Dpsi(Y); ``times`` (L,)."""

    times: np.ndarray
    Y: np.ndarray
    gradY: np.ndarray
    X: np.ndarray
    Dpsi_Y: np.ndarray


def integrate_label_flow(ubar: TimeSeries, nf: NoiseFlow) -> OracleLabelFlow:
    """Heun integration of the label ODE, with psi and Dpsi sampled on Y."""
    if len(ubar) > len(nf.psi):
        raise ValueError("more velocity frames than noise levels")
    grid = ubar.grid
    dim = grid.dim
    dt = ubar.step
    pts0 = grid.coords()
    L = len(ubar)
    Y = np.empty((L,) + pts0.shape)
    G = np.empty((L,) + pts0.shape[:-1] + (dim, dim))
    X = np.empty(Y.shape)
    DY = np.empty(G.shape)
    Y[0] = pts0
    G[0] = np.eye(dim)
    ub = ubar.values
    gub = gradient_values(grid, ub)
    grad_inv = (nf.grad_Dpsi_inv if nf.grad_Dpsi_inv is not None
                else np.zeros(nf.Dpsi_inv.shape + (dim,)))

    def sample(level, y):
        """The plan on y at the level's time, which also samples psi and Dpsi."""
        plan = nf.plan(y, time=ubar.times[level])
        X[level] = plan.apply(nf.psi[level])
        DY[level] = plan.apply(nf.Dpsi[level])
        return plan

    def rhs(level, plan, g, u, gu):
        A = plan.apply(nf.Dpsi_inv[level])
        dA = plan.apply(grad_inv[level])
        f = np.einsum("...ij,...j->...i", A, u)
        dg = (contract("...ijl,...lm,...j->...im", "jl", dA, g, u)
              + contract("...ij,...jm->...im", "j", A, gu))
        return f, dg

    y, g = Y[0].copy(), G[0].copy()
    for n in range(L - 1):
        f0, dg0 = rhs(n, sample(n, y), g, ub[n], gub[n])
        y_pred = y + dt * f0
        g_pred = g + dt * dg0
        plan1 = nf.plan(y_pred, time=ubar.times[n + 1])
        f1, dg1 = rhs(n + 1, plan1, g_pred, ub[n + 1], gub[n + 1])
        y = y + 0.5 * dt * (f0 + f1)
        g = g + 0.5 * dt * (dg0 + dg1)
        Y[n + 1] = y
        G[n + 1] = g
    sample(L - 1, y)
    return OracleLabelFlow(ubar.times.copy(), Y, G, X, DY)
