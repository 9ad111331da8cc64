"""Reference forms of the flow stage's kernels, kept verbatim.

``per_level_compose`` is the composition as it was before the label flow
shared its interpolation plans: it builds its own plan on Y at every
level and samples psi and Dpsi there.  ``integrate_label_flow`` is the
label flow as it was while its variational sums went through
``contract`` on node-major arrays (and the drift gradient through
``np.gradient``, from ``derivative_oracle``); it forms the chain-rule
term on every level.  ``loop_pair_row`` is the pair row of
``SlobodeckijWindow`` on a (frame, node, component) layout, its squared
components summed by a plain loop in storage order.  ``csr_weights`` is
the construction of ``InterpPlan.W`` before the per-axes constants were
shared.  ``padded_noise_flow`` is the noise flow integrated and stored
on the whole padded lattice, with np.gradient at the lattice's one step.
The production code must agree with each of them bit for bit.
``zero_noise_flow`` is not an oracle: it is the K = 0 noise flow the
tests drive the label flow with.
"""

import itertools

import numpy as np

from derivative_oracle import gradient_values
from lagflow.fields import TimeSeries, contract
from lagflow.flow import (FlowWindow, LabelFlow, NoiseFlow, _heun_step,
                          _padded_axes, integrate_noise_flow, mat_det, mat_inv)
from lagflow.interp import FlowEscapeError
from lagflow.noise import make_transport_field


def zero_noise_flow(grid, times):
    """The K = 0 noise flow on ``times``: the integrator with zero-row
    increments, psi = id at every level."""
    Q = make_transport_field(grid.dim, "constant", 0)
    return integrate_noise_flow(Q, np.zeros((0, len(times) - 1)), grid)


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


def padded_noise_flow(Q, bundle, grid):
    """(axes, psi, Dpsi, Dpsi_inv, grad_Dpsi_inv) on the whole padded lattice,
    grad_Dpsi_inv with the lattice's one step ax[1] - ax[0]."""
    axes = _padded_axes(grid)
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
        x, D = _heun_step(Q, x, D, dWs[:, n])
        if not np.all(np.abs(mat_det(D) - 1.0) <= 0.5):
            raise RuntimeError("scheme blow-up")
        psi[n + 1] = x
        Dpsi[n + 1] = D
    Dpsi_inv = mat_inv(Dpsi)
    grad_inv = np.empty(Dpsi_inv.shape + (dim,))
    for d, ax in enumerate(axes):
        grad_inv[..., d] = np.gradient(Dpsi_inv, ax[1] - ax[0], axis=1 + d,
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


def integrate_label_flow(ubar: TimeSeries, nf: NoiseFlow) -> LabelFlow:
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

    def sample(level, y):
        """The plan on y at the level's time, which also samples psi and Dpsi."""
        plan = nf.plan(y, time=ubar.times[level])
        X[level] = plan.apply(nf.psi[level])
        DY[level] = plan.apply(nf.Dpsi[level])
        return plan

    def rhs(level, plan, g, u, gu):
        A = plan.apply(nf.Dpsi_inv[level])
        dA = plan.apply(nf.grad_Dpsi_inv[level])
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
    return LabelFlow(ubar.times.copy(), Y, G, X, DY)
