"""Equation of state, density reconstruction, and the transformed nonlinearities.

The right-hand sides of the transformed momentum system collect every defect
of the Lagrangian change of variables: second-derivative terms weighted by
Z - I, first-derivative terms against grad Z, and the transformed pressure.
All index sums run over the contraction kernel ``fields.contract`` (einsum's
own summation order, vectorized over nodes and frames), apart from the few
that einsum sends to its SIMD dot kernel, which stay ``np.einsum``; dim 2 and
dim 3 share one code path, and the assembly functions take one frame or a
chunk of frames alike.  A plain-loop oracle lives in the test fixtures to
cross-check the contractions term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    Field,
    Grid,
    TimeSeries,
    contract,
    frame_chunks,
    frame_norms,
    gradient_values,
    hessian_values,
    slobodeckij_time_seminorm,
    spatial_norm,
    time_lp_norm,
)
from .flow import FlowWindow
from .lame import FluidParams

__all__ = [
    "EquationOfState",
    "NonlinearReport",
    "density_from_jacobian",
    "assemble_F_u",
    "assemble_F_Gamma",
    "assemble_window",
    "extended_normal_field",
    "energy_report",
    "nonlinearity_norm_report",
]


# ---------------------------------------------------------------------------
# equation of state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquationOfState:
    """Barotropic pressure p = a rho^gamma and its convex potential."""

    a: float
    gamma: float

    def __post_init__(self):
        if not (self.a > 0 and self.gamma > 1):
            raise ValueError("need a > 0 and gamma > 1")

    def p(self, rho):
        return self.a * rho ** self.gamma

    def potential(self, rho):
        # P' rho - P = p fixes P = a rho^gamma / (gamma - 1)
        return self.a * rho ** self.gamma / (self.gamma - 1.0)


# ---------------------------------------------------------------------------
# density from the flow Jacobian
# ---------------------------------------------------------------------------

def density_from_jacobian(rho0: Field, J: np.ndarray,
                          rho_min: float) -> tuple[np.ndarray, bool]:
    """rho = rho0 / J with a positivity flag (min rho >= rho_min / 2).

    ``J`` is one frame or a stack of frames (a ``FlowWindow.J``); the
    density has its shape.
    """
    if np.any(J <= 0):
        bad = np.argwhere(J <= 0)[0]
        raise RuntimeError(
            f"nonpositive Jacobian at node index {tuple(int(i) for i in bad)}; "
            "the stopping monitor should have fired")
    rho = rho0.values / J
    return rho, bool(rho.min() >= 0.5 * rho_min)


# ---------------------------------------------------------------------------
# transformed nonlinearities
# ---------------------------------------------------------------------------

def assemble_F_u(grid: Grid, G: np.ndarray, H: np.ndarray, Z: np.ndarray,
                 dZ: np.ndarray, J: np.ndarray, rho0: np.ndarray,
                 params: FluidParams) -> np.ndarray:
    """Velocity-equation nonlinearity from precomputed derivative arrays.

    G[i, m] = d_m u_i, H[i, k, l] = d_k d_l u_i, Z[k, j] inverse flow
    gradient, dZ[k, j, l] = d_l Z_{kj}.  With Z = I, J = 1 every defect
    group vanishes and only -(1/rho0) grad p(rho0) survives.  Elementwise
    over the leading axes: the arrays are one frame or a stack of frames
    (``rho0`` one frame), and a frame of a stack gets its own values.
    """
    mu, lam = params.mu, params.lam
    eos = EquationOfState(params.a, params.gamma)
    dim = grid.dim
    eye = np.eye(dim)
    Zd = Z - eye
    inv_rho = 1.0 / rho0

    lap = contract("...ikk->...i", "k", H)
    graddiv = contract("...jij->...i", "j", H)
    out = ((J - 1.0) * inv_rho)[..., None] * (mu * lap + (mu + lam) * graddiv)

    c_mu = (mu * J * inv_rho)[..., None]
    out += c_mu * (
        contract("...ikl,...kj,...lj->...i", "klj", H, Zd, Z)
        + np.einsum("...ikl,...lk->...i", H, Zd)
        + contract("...lj,...ik,...kjl->...i", "kjl", Z, G, dZ)
    )
    c_ml = ((mu + lam) * J * inv_rho)[..., None]
    out += c_ml * (
        contract("...jkl,...kj,...li->...i", "jkl", H, Zd, Z)
        + contract("...jjl,...li->...i", "jl", H, Zd)
        + contract("...li,...jk,...kjl->...i", "jkl", Z, G, dZ)
    )

    grad_p = gradient_values(grid, eos.p(rho0 / J))
    out -= (J * inv_rho)[..., None] * contract("...ji,...j->...i", "j", Z, grad_p)
    return out


def assemble_F_Gamma(G: np.ndarray, Z: np.ndarray, J: np.ndarray,
                     rho0: np.ndarray, normals: np.ndarray,
                     params: FluidParams) -> np.ndarray:
    """Boundary nonlinearity at nodes carrying the normal array ``normals``.

    Works both on the boundary node set (with the outward normals) and on
    the full grid against a fixed extension of the normal, which is how the
    surrogate norms of the boundary data are measured.  With Z = I, J = 1
    only the pressure group (p(rho0) - p_ext) N survives.  Elementwise over
    the leading axes, like ``assemble_F_u``: ``normals`` and ``rho0`` are
    one frame's, the other arrays one frame or a stack.
    """
    mu, lam = params.mu, params.lam
    eos = EquationOfState(params.a, params.gamma)
    S = J[..., None] * contract("...lj,...l->...j", "l", Z, normals)
    W = normals - S
    div = contract("...kk->...", "k", G)

    out = mu * np.einsum("...ij,...j->...i", G, W)
    out += mu * contract("...ji,...j->...i", "j", G, W)
    out += lam * div[..., None] * W
    out += mu * np.einsum("...ik,...k->...i", G,
                          S - np.einsum("...kj,...j->...k", Z, S))
    out += mu * (contract("...ji,...j->...i", "j", G, S)
                 - contract("...ki,...jk,...j->...i", "jk", Z, G, S))
    out += lam * (div - np.einsum("...lk,...kl->...", Z, G))[..., None] * S
    out += (eos.p(rho0 / J) - params.p_ext)[..., None] * S
    return out


def assemble_window(grid: Grid, u_frames: np.ndarray, grad_u: np.ndarray,
                    Z: np.ndarray, J: np.ndarray, rho0: np.ndarray,
                    params: FluidParams) -> tuple[np.ndarray, np.ndarray]:
    """F_u and the boundary F_Gamma of every frame of a window.

    ``u_frames`` holds the velocity frames, ``grad_u`` their
    ``gradient_values`` (the label flow of the same drift has them
    already), and ``Z``, ``J`` the flow stacks of the same levels.  The
    window goes through a chunk of frames at a time (``frame_chunks``):
    one pass takes the second derivatives of u and the derivatives of Z
    and makes one ``assemble_F_u`` and one ``assemble_F_Gamma`` call on the
    chunk's stacks, and a frame gets the values it gets alone.  Returns
    F_u, shape (L, *ext, d), and F_Gamma at the boundary nodes,
    (L, n_boundary, d).
    """
    idx_b, normals_b = grid.boundary_nodes()
    bsel = tuple(idx_b.T)
    L = len(u_frames)
    F_u = np.empty((L,) + grid.extent + (grid.dim,))
    F_G_b = np.empty((L, len(idx_b), grid.dim))
    for sl in frame_chunks(grid, L, u_frames[0].size):
        G = grad_u[sl]
        H = hessian_values(grid, u_frames[sl], G)
        dZ = gradient_values(grid, Z[sl])
        F_u[sl] = assemble_F_u(grid, G, H, Z[sl], dZ, J[sl], rho0, params)
        # frame-major boundary stacks: the np.einsum sums of assemble_F_Gamma
        # see each frame laid out as one frame's g[bsel] alone
        G_b, Z_b, J_b = (np.ascontiguousarray(a[(slice(None),) + bsel])
                         for a in (G, Z[sl], J[sl]))
        F_G_b[sl] = assemble_F_Gamma(G_b, Z_b, J_b, rho0[bsel], normals_b,
                                     params)
    return F_u, F_G_b


def extended_normal_field(grid: Grid) -> Field:
    """Fixed interior extension of the outward unit normal.

    Each face normal is continued inward with a cubic ramp over two cells
    and the contributions are blended; where the blended magnitude exceeds
    one (edges, corners) it is renormalized, so the trace matches the
    per-node boundary normals.
    """
    c = grid.coords()
    vals = np.zeros(grid.extent + (grid.dim,))
    for ax in range(grid.dim):
        width = 2.0 * grid.spacing[ax]
        lo, hi = grid.box[ax]
        for sign, edge in ((-1.0, lo), (1.0, hi)):
            dist = np.abs(c[..., ax] - edge)
            u = np.clip(dist / width, 0.0, 1.0)
            ramp = 1.0 - (3.0 * u**2 - 2.0 * u**3)
            vals[..., ax] += sign * ramp
    mag = np.sqrt(np.sum(vals**2, axis=-1))
    vals /= np.maximum(mag, 1.0)[..., None]
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

def energy_report(rho_stack: np.ndarray, ubar: TimeSeries,
                  window: FlowWindow, params: FluidParams) -> dict:
    """Total energy, viscous dissipation, and volume per frame.

    Everything is evaluated in the reference coordinates with the volume
    element J dy; the Eulerian velocity gradient is grad u . Z.  The
    densities are formed on the window's stacks at once (their bits are
    the per-frame ones), and each frame's quadrature is its own sum.
    """
    grid = ubar.grid
    eos = EquationOfState(params.a, params.gamma)
    w = grid.quad_weights
    L = len(window)
    rho, u, J = rho_stack[:L], ubar.values[:L], window.J
    kin = 0.5 * rho * np.sum(u * u, axis=-1)
    pot = eos.potential(rho)
    Gx = contract("...ik,...kj->...ij", "k", gradient_values(grid, u), window.Z)
    sym = Gx + np.swapaxes(Gx, -1, -2)
    dens = (params.mu * np.einsum("...ij,...ij->...", sym, Gx)
            + params.lam * np.einsum("...ii->...", Gx) ** 2)
    volume = np.array([float(np.sum(w * J[n])) for n in range(L)])
    energy = np.array([float(np.sum(w * (kin[n] + pot[n]) * J[n]))
                       for n in range(L)]) + params.p_ext * volume
    dissipation = np.array([float(np.sum(w * dens[n] * J[n])) for n in range(L)])
    return {"energy": energy, "dissipation": dissipation, "volume": volume}


# ---------------------------------------------------------------------------
# norm reports
# ---------------------------------------------------------------------------

@dataclass
class NonlinearReport:
    """Surrogate norms of the assembled nonlinearities on a stopped window."""

    F_u_norm: float           # L^p(0, sigma; L^q)
    F_Gamma_norm: float       # H^{theta,p}(0, sigma; H^{1,q}) of the extension
    M_rho0: float
    M_rho0_inv: float
    M_sto: float
    window: float


def nonlinearity_norm_report(grid: Grid, times: np.ndarray,
                             F_u_stack: np.ndarray, F_G_stack: np.ndarray,
                             rho0: Field, U: TimeSeries | None,
                             sigma: float, p: float, q: float,
                             theta: float) -> NonlinearReport:
    """Evaluate the monitored norms on [0, sigma].

    No solve computes this report; it is computed on request.  From a
    ``fixedpoint.SolutionBundle`` ``b``, with ``w = b.window``,
    ``u = b.ubar.values``, ``g = gradient_values(b.grid, u)``,
    ``rho0 = b.problem.rho0`` and ``cfg = b.problem.cfg``::

        F_u = assemble_window(b.grid, u, g, w.Z, w.J, rho0.values,
                              b.problem.params)[0]
        F_G = assemble_F_Gamma(g, w.Z, w.J, rho0.values,
                               extended_normal_field(b.grid).values,
                               b.problem.params)
        nonlinearity_norm_report(b.grid, b.times, F_u, F_G, rho0, b.U,
                                 b.tau, cfg.p, cfg.q, cfg.theta)

    F_G is F_Gamma on the full grid against the extended normal.
    """
    keep = int(np.searchsorted(times, sigma + 1e-12))
    keep = max(2, min(keep, len(times)))
    tt = times[:keep]
    fu = time_lp_norm(tt, frame_norms(grid, F_u_stack[:keep], "Lq", q), p)
    ts_g = TimeSeries(grid, tt, F_G_stack[:keep])
    fg = slobodeckij_time_seminorm(ts_g, theta, p, "H1q", q)
    m_rho = spatial_norm(grid, rho0.values, "H1q", q)
    m_rho_inv = spatial_norm(grid, 1.0 / rho0.values, "H1q", q)
    if U is None:
        m_sto = 0.0
    else:
        m_sto = time_lp_norm(tt, frame_norms(grid, U.values[:keep], "H2q", q), p)
    return NonlinearReport(fu, fg, m_rho, m_rho_inv, m_sto, float(tt[-1]))
