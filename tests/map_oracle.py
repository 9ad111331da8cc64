"""Independent integrations the solver's stages are checked against.

Each is a second way to compute what a stage of the solution map computes,
and no solver code calls it.  ``apply_Psi_deterministic`` is the noise-free
solution map with the label flow integrated directly (X = Y), on the
solver's own monitor, assembly and Lame solve.  ``direct_flow_oracle``
integrates the flow map X in one Heun sweep, without the psi o Y split.
``jacobian_ode_oracle`` and ``continuity_oracle`` integrate the transport
identities of J and of the density against the window's Z.
``stratonovich_drift`` is the Ito correction of a transport family.
"""

import numpy as np

from lagflow.fields import Field, TimeSeries, gradient_values
from lagflow.fixedpoint import (
    Problem,
    PsiResult,
    _assemble_and_solve,
    _monitor_window,
)
from lagflow.flow import FlowWindow
from lagflow.noise import BrownianBundle, TransportField


def apply_Psi_deterministic(v1: TimeSeries, problem: Problem) -> PsiResult:
    """Noise-free oracle for the solution map.

    Never constructs noise objects: the label flow is integrated directly
    (dY/dt = u(t, y), Heun) and X = Y.  Inversion guard, monitor, assembly
    and solve are the ones of ``apply_Psi``, so a comparison pins down the
    flow layer's deterministic reduction.
    """
    grid, cfg = v1.grid, problem.cfg
    dim = grid.dim
    dt = v1.step
    L = len(v1)
    ub = v1.values
    gub = gradient_values(grid, ub)
    Y = np.empty((L,) + grid.extent + (dim,))
    G = np.empty((L,) + grid.extent + (dim, dim))
    Y[0] = grid.coords()
    G[0] = np.eye(dim)
    y, g = Y[0].copy(), G[0].copy()
    for n in range(L - 1):
        y = y + 0.5 * dt * (ub[n] + ub[n + 1])
        g = g + 0.5 * dt * (gub[n] + gub[n + 1])
        Y[n + 1] = y
        G[n + 1] = g
    window = FlowWindow.from_map(v1.times, Y, G, cfg.eps_star)
    monitor, n_frames = _monitor_window(window, cfg, grid)
    return _assemble_and_solve(v1, window, monitor, n_frames, gub, problem)


def direct_flow_oracle(ubar: TimeSeries, Q: TransportField,
                       bundle: BrownianBundle) -> np.ndarray:
    """One-shot Heun integration of dX = ubar(t, y) dt + sum Q_k(X) o dW.

    Cross-check only: no psi/Y factorization, no gradient tracking.
    """
    grid = ubar.grid
    if len(ubar) != bundle.n_steps + 1:
        raise ValueError("velocity frames must be aligned with the noise grid")
    dt = bundle.step
    dWs = bundle.transport_increments()
    L = bundle.n_steps + 1
    X = np.empty((L,) + grid.extent + (grid.dim,))
    X[0] = grid.coords()
    x = X[0].copy()

    def transport_sum(pts, dW):
        """sum_k Q_k(pts) dW_k."""
        vec = np.zeros(pts.shape)
        for k in range(Q.K):
            vec += Q.value(k, pts) * dW[k]
        return vec

    for n in range(L - 1):
        dW = dWs[:, n]
        b0 = transport_sum(x, dW)
        pred = x + dt * ubar.values[n] + b0
        b1 = transport_sum(pred, dW)
        x = x + 0.5 * dt * (ubar.values[n] + ubar.values[n + 1]) + 0.5 * (b0 + b1)
        X[n + 1] = x
    return X


def jacobian_ode_oracle(ubar: TimeSeries, window: FlowWindow) -> np.ndarray:
    """Independent RK2 integration of dJ/dt = J (grad ubar : Z^T)."""
    grid = ubar.grid
    L = len(window)
    dt = ubar.step
    J = np.empty((L,) + grid.extent)
    J[0] = 1.0
    rates = [
        np.einsum("...ij,...ji->...", gradient_values(grid, ubar.values[n]),
                  window.Z[n])
        for n in range(L)
    ]
    cur = J[0].copy()
    for n in range(L - 1):
        pred = cur * (1.0 + dt * rates[n])
        cur = cur + 0.5 * dt * (cur * rates[n] + pred * rates[n + 1])
        J[n + 1] = cur
    return J


def continuity_oracle(ubar: TimeSeries, window: FlowWindow,
                      rho0: Field) -> tuple[np.ndarray, float]:
    """RK2 integration of d rho/dt = -rho (grad u : Z^T) vs rho0 / J.

    Returns the integrated density stack and the max deviation from the
    Jacobian representation over all frames.
    """
    grid = ubar.grid
    L = len(window)
    dt = ubar.step
    rates = [
        -np.einsum("...ij,...ji->...", gradient_values(grid, ubar.values[n]),
                   window.Z[n])
        for n in range(L)
    ]
    out = np.empty((L,) + grid.extent)
    out[0] = rho0.values
    cur = out[0].copy()
    for n in range(L - 1):
        pred = cur * (1.0 + dt * rates[n])
        cur = cur + 0.5 * dt * (cur * rates[n] + pred * rates[n + 1])
        out[n + 1] = cur
    dev = float(np.max(np.abs(out - rho0.values / window.J)))
    return out, dev


def stratonovich_drift(Q: TransportField, x: np.ndarray) -> np.ndarray:
    """Ito-form drift correction (1/2) sum_k DQ_k(x) Q_k(x)."""
    x = np.asarray(x, float)
    out = np.zeros(x.shape)
    for k in range(Q.K):
        out += 0.5 * np.einsum("...ij,...j->...i", Q.jacobian(k, x), Q.value(k, x))
    return out
