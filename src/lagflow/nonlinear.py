"""Density reconstruction and the transformed nonlinearities.

The right-hand sides of the transformed momentum system collect every defect
of the Lagrangian change of variables: second-derivative terms weighted by
Z - I, first-derivative terms against grad Z, and the transformed pressure.
All index sums run over the contraction kernel ``fields.contract`` (einsum's
own summation order, vectorized over nodes and frames), apart from the few
that einsum sends to its SIMD dot kernel, which stay ``np.einsum``; dim 2 and
dim 3 share one code path, and the assembly functions take one frame or a
chunk of frames alike.  A plain-loop oracle lives in the test fixtures to
cross-check the contractions term by term.

F_u is interior-only.  The linear step carries F_u in its interior
equation and only the traction data F_Gamma on its boundary rows, so
``assemble_window`` assembles F_u on the interior nodes, from the
centered and compact stencils alone, and leaves its boundary entries at
0.0; ``lame.solve_lame`` replaces those rows, and the validator's residual
reads F_u on the interior rows only.  F_Gamma is assembled on the boundary
nodes.

A window is assembled in passes of whole frames sized by grid nodes
(``_PASS_NODES``, about 8192: 4 frames at 13^3, 13 at 25^2), so a 3D pass
is several frames per numpy call, not one; F_Gamma is one call per window
on the boundary rows the passes collect.  Neither the Lame steps nor the
validator read level 0 of a window (a step reads the level it steps to),
so a Picard iterate (``fixedpoint._assemble_and_solve``) and the validator
assemble levels 1 .. L - 1 only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    Field,
    Grid,
    TimeSeries,
    contract,
    frame_norms,
    gradient_values,
    interior_gradient,
    interior_hessian,
    slobodeckij_time_seminorm,
    spatial_norm,
    time_lp_norm,
)
from .flow import FlowWindow
from .lame import FluidParams

__all__ = [
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

# grid nodes of one F_u pass of assemble_window.  With one 13^3 frame per
# pass numpy's per-call cost was in charge; passes of 5 frames and of the
# whole window raised the 13^3 solve's traced peak by 1.4 and 9.0 MB for
# no clear time gain over 4
_PASS_NODES = 8192


def _pass_frames(grid: Grid) -> int:
    """Frames of one ``assemble_window`` pass: ``_PASS_NODES`` grid nodes,
    to the nearest frame, and at least one."""
    return max(1, round(_PASS_NODES / grid.n_nodes))


def assemble_F_u(G: np.ndarray, H: np.ndarray, Z: np.ndarray,
                 dZ: np.ndarray, J: np.ndarray, rho0: np.ndarray,
                 grad_p: np.ndarray, params: FluidParams) -> np.ndarray:
    """Velocity-equation nonlinearity from precomputed derivative arrays.

    G[i, m] = d_m u_i, H[i, k, l] = d_k d_l u_i, Z[k, j] inverse flow
    gradient, dZ[k, j, l] = d_l Z_{kj}, grad_p[j] = d_j p(rho0 / J).  With
    Z = I, J = 1 every defect group vanishes and only -(1/rho0) grad p(rho0)
    survives.  Elementwise over the leading axes, which may hold any node
    set: one frame or a stack of frames (``rho0`` one frame's), on the whole
    grid or on the interior nodes alone (``assemble_window``), and a node of
    a frame of a stack gets its own values.
    """
    mu, lam = params.mu, params.lam
    eye = np.eye(Z.shape[-1])
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
    out += (params.pressure(rho0 / J) - params.p_ext)[..., None] * S
    return out


def assemble_window(grid: Grid, u_frames: np.ndarray, Z: np.ndarray,
                    J: np.ndarray, rho0: np.ndarray,
                    params: FluidParams) -> tuple[np.ndarray, np.ndarray]:
    """F_u at the interior nodes and F_Gamma at the boundary nodes of every
    frame of a window.

    ``u_frames`` holds the velocity frames and ``Z``, ``J`` the flow stacks
    of the same levels.  F_u is 0.0 at the boundary nodes: the Lame steps
    (``lame.solve_lame``) put the traction data F_Gamma on those rows, and
    the validator's residual reads F_u on the interior rows only, so no
    boundary value of F_u is read.  Its derivative inputs come from the
    interior stencils (``interior_hessian``, ``interior_gradient``), which
    give the interior rows of the full-grid ones bit for bit; the first
    derivatives of the velocity are ``gradient_values``.

    F_u goes through the window in passes of about ``_PASS_NODES`` grid
    nodes (``_pass_frames``: 4 frames at 13^3, 13 at 25^2, at least one),
    every derivative taken per pass, so no derivative stack spans the
    window: one pass makes one ``assemble_F_u`` call on its frames'
    interior nodes, with the velocity gradient's interior rows copied out
    and Z and J read in place.  A pass's full-grid velocity gradient goes
    as soon as its interior and boundary rows are copied; the boundary rows
    of every pass fill one window stack, and F_Gamma is one
    ``assemble_F_Gamma`` call on it.  Every kernel is elementwise over
    frames, so a frame gets the values it gets alone, whatever its pass.
    Returns F_u, shape (L, *ext, d), and F_Gamma at the boundary nodes,
    (L, n_boundary, d).
    """
    idx_b, normals_b = grid.boundary_nodes()
    bsel = (slice(None),) + tuple(idx_b.T)
    inner = (slice(None),) + (slice(1, -1),) * grid.dim
    rho0_in = np.ascontiguousarray(rho0[inner[1:]])
    L = len(u_frames)
    F_u = np.zeros((L,) + grid.extent + (grid.dim,))
    # frame-major boundary stacks (a[bsel] alone is node-major): the
    # np.einsum sums of assemble_F_Gamma see each frame laid out as one
    # frame's g[bsel] alone
    G_b = np.empty((L, len(idx_b), grid.dim, grid.dim))
    step = _pass_frames(grid)
    for start in range(0, L, step):
        sl = slice(start, start + step)
        G = gradient_values(grid, u_frames[sl])
        H = interior_hessian(grid, u_frames[sl], G)
        G_in = np.ascontiguousarray(G[inner])
        G_b[sl] = G[bsel]
        del G
        dZ = interior_gradient(grid, Z[sl])
        grad_p = interior_gradient(grid, params.pressure(rho0 / J[sl]))
        F_u[sl][inner] = assemble_F_u(G_in, H, Z[sl][inner], dZ,
                                      J[sl][inner], rho0_in, grad_p, params)
    Z_b, J_b = (np.ascontiguousarray(a[bsel]) for a in (Z, J))
    return F_u, assemble_F_Gamma(G_b, Z_b, J_b, rho0[bsel[1:]], normals_b,
                                 params)


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
    w = grid.quad_weights
    L = len(window)
    rho, u, J = rho_stack[:L], ubar.values[:L], window.J
    kin = 0.5 * rho * np.sum(u * u, axis=-1)
    pot = params.pressure_potential(rho)
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
    """Surrogate norms of the assembled nonlinearities on a stopped window
    [0, tau]."""

    F_u_norm: float           # L^p(0, tau; L^q)
    F_Gamma_norm: float       # H^{theta,p}(0, tau; H^{1,q}) of the extension
    M_rho0: float
    M_rho0_inv: float
    M_sto: float
    window: float


def nonlinearity_norm_report(grid: Grid, times: np.ndarray,
                             F_u_stack: np.ndarray, F_G_stack: np.ndarray,
                             rho0: Field, U: TimeSeries | None,
                             p: float, q: float,
                             theta: float) -> NonlinearReport:
    """Evaluate the monitored norms on the window ``times``.

    The window is the first ``len(times)`` frames of each stack, which may
    be longer.  No solve computes this report; it is computed on request.  From a
    ``fixedpoint.SolutionBundle`` ``b``, with ``w = b.window``,
    ``u = b.ubar.values``, ``g = gradient_values(b.grid, u)``,
    ``rho0 = b.problem.rho0`` and ``cfg = b.problem.cfg``::

        F_u = assemble_window(b.grid, u, w.Z, w.J, rho0.values,
                              b.problem.params)[0]
        F_G = assemble_F_Gamma(g, w.Z, w.J, rho0.values,
                               extended_normal_field(b.grid).values,
                               b.problem.params)
        nonlinearity_norm_report(b.grid, b.times, F_u, F_G, rho0, b.U,
                                 cfg.p, cfg.q, cfg.theta)

    F_G is F_Gamma on the full grid against the extended normal.  This F_u
    is 0.0 at the boundary nodes, so its norm covers the interior nodes, the
    ones the Lame steps read.  The full-grid F_u is ``assemble_F_u`` on
    ``hessian_values(b.grid, u, g)``, ``gradient_values(b.grid, w.Z)`` and
    the full-grid gradient of ``b.problem.params.pressure(rho0.values /
    w.J)``.
    """
    L = len(times)
    fu = time_lp_norm(times, frame_norms(grid, F_u_stack[:L], "Lq", q), p)
    fg = slobodeckij_time_seminorm(TimeSeries(grid, times, F_G_stack[:L]),
                                   theta, p, "H1q", q)
    m_rho = spatial_norm(grid, rho0.values, "H1q", q)
    m_rho_inv = spatial_norm(grid, 1.0 / rho0.values, "H1q", q)
    m_sto = (0.0 if U is None else
             time_lp_norm(times, frame_norms(grid, U.values[:L], "H2q", q), p))
    return NonlinearReport(fu, fg, m_rho, m_rho_inv, m_sto, float(times[-1]))
