"""Reference evaluations of the transformed nonlinearities.

``f_u_point`` and ``f_gamma_point`` write every sum out exactly as the
formulas read, one point at a time, with no vectorization; the production
kernel must agree with them to roundoff.  ``einsum_F_u`` and
``einsum_F_Gamma`` are the per-frame ``np.einsum`` assembly that the
contraction kernel replaced, kept verbatim: the production assembly must
agree with them bit for bit.  ``per_frame_energy_report`` is the energy
report as it was while it took its densities one frame at a time, kept
verbatim as well.
"""

import numpy as np

from lagflow.fields import Grid, TimeSeries, contract, gradient_values
from lagflow.flow import FlowWindow
from lagflow.lame import FluidParams


def f_u_point(G, H, Z, dZ, J, rho0, grad_p, mu, lam):
    d = G.shape[0]
    F = np.zeros(d)
    for i in range(d):
        acc = mu * sum(H[i, k, k] for k in range(d))
        acc += (mu + lam) * sum(H[j, i, j] for j in range(d))
        F[i] += (J - 1.0) / rho0 * acc

        t1 = sum(H[i, k, l] * (Z[k, j] - (k == j)) * Z[l, j]
                 for j in range(d) for k in range(d) for l in range(d))
        t2 = sum(H[i, k, l] * (Z[l, k] - (l == k))
                 for k in range(d) for l in range(d))
        t3 = sum(Z[l, j] * G[i, k] * dZ[k, j, l]
                 for j in range(d) for k in range(d) for l in range(d))
        F[i] += mu * J / rho0 * (t1 + t2 + t3)

        s1 = sum(H[j, k, l] * (Z[k, j] - (k == j)) * Z[l, i]
                 for j in range(d) for k in range(d) for l in range(d))
        s2 = sum(H[j, j, l] * (Z[l, i] - (l == i))
                 for j in range(d) for l in range(d))
        s3 = sum(Z[l, i] * G[j, k] * dZ[k, j, l]
                 for j in range(d) for k in range(d) for l in range(d))
        F[i] += (mu + lam) * J / rho0 * (s1 + s2 + s3)

        F[i] -= J / rho0 * sum(Z[j, i] * grad_p[j] for j in range(d))
    return F


def f_gamma_point(G, Z, J, N, p_val, p_ext, mu, lam):
    d = G.shape[0]
    F = np.zeros(d)
    S = [J * sum(Z[l, j] * N[l] for l in range(d)) for j in range(d)]
    for i in range(d):
        F[i] += mu * sum(G[i, j] * (N[j] - S[j]) for j in range(d))
        F[i] += mu * sum(G[j, i] * (N[j] - S[j]) for j in range(d))
        F[i] += lam * sum(G[k, k] for k in range(d)) * (N[i] - S[i])
        F[i] += mu * sum(((k == j) - Z[k, j]) * G[i, k] * S[j]
                         for j in range(d) for k in range(d))
        F[i] += mu * sum(((k == i) - Z[k, i]) * G[j, k] * S[j]
                         for j in range(d) for k in range(d))
        F[i] += lam * (sum(G[k, k] for k in range(d))
                       - sum(Z[l, k] * G[k, l]
                             for k in range(d) for l in range(d))) * S[i]
        F[i] += (p_val - p_ext) * S[i]
    return F


# the per-frame einsum assembly, verbatim

def einsum_F_u(grid: Grid, G: np.ndarray, H: np.ndarray, Z: np.ndarray,
               dZ: np.ndarray, J: np.ndarray, rho0: np.ndarray,
               params: FluidParams) -> np.ndarray:
    """Velocity-equation nonlinearity from precomputed derivative arrays.

    G[i, m] = d_m u_i, H[i, k, l] = d_k d_l u_i, Z[k, j] inverse flow
    gradient, dZ[k, j, l] = d_l Z_{kj}.  With Z = I, J = 1 every defect
    group vanishes and only -(1/rho0) grad p(rho0) survives.
    """
    mu, lam = params.mu, params.lam
    dim = grid.dim
    eye = np.eye(dim)
    Zd = Z - eye
    inv_rho = 1.0 / rho0

    lap = np.einsum("...ikk->...i", H)
    graddiv = np.einsum("...jij->...i", H)
    out = ((J - 1.0) * inv_rho)[..., None] * (mu * lap + (mu + lam) * graddiv)

    c_mu = (mu * J * inv_rho)[..., None]
    out += c_mu * (
        np.einsum("...ikl,...kj,...lj->...i", H, Zd, Z)
        + np.einsum("...ikl,...lk->...i", H, Zd)
        + np.einsum("...lj,...ik,...kjl->...i", Z, G, dZ)
    )
    c_ml = ((mu + lam) * J * inv_rho)[..., None]
    out += c_ml * (
        np.einsum("...jkl,...kj,...li->...i", H, Zd, Z)
        + np.einsum("...jjl,...li->...i", H, Zd)
        + np.einsum("...li,...jk,...kjl->...i", Z, G, dZ)
    )

    grad_p = gradient_values(grid, params.pressure(rho0 / J))
    out -= (J * inv_rho)[..., None] * np.einsum("...ji,...j->...i", Z, grad_p)
    return out


def einsum_F_Gamma(G: np.ndarray, Z: np.ndarray, J: np.ndarray,
                   rho0: np.ndarray, normals: np.ndarray,
                   params: FluidParams) -> np.ndarray:
    """Boundary nonlinearity at nodes carrying the normal array ``normals``.

    Works both on the boundary node set (with the outward normals) and on
    the full grid against a fixed extension of the normal, which is how the
    surrogate norms of the boundary data are measured.  With Z = I, J = 1
    only the pressure group (p(rho0) - p_ext) N survives.
    """
    mu, lam = params.mu, params.lam
    S = J[..., None] * np.einsum("...lj,...l->...j", Z, normals)
    W = normals - S
    div = np.einsum("...kk->...", G)

    out = mu * np.einsum("...ij,...j->...i", G, W)
    out += mu * np.einsum("...ji,...j->...i", G, W)
    out += lam * div[..., None] * W
    out += mu * np.einsum("...ik,...k->...i", G,
                          S - np.einsum("...kj,...j->...k", Z, S))
    out += mu * (np.einsum("...ji,...j->...i", G, S)
                 - np.einsum("...ki,...jk,...j->...i", Z, G, S))
    out += lam * (div - np.einsum("...lk,...kl->...", Z, G))[..., None] * S
    out += (params.pressure(rho0 / J) - params.p_ext)[..., None] * S
    return out


def per_frame_energy_report(rho_stack: np.ndarray, ubar: TimeSeries,
                            window: FlowWindow, params: FluidParams) -> dict:
    """Total energy, viscous dissipation, and volume per frame.

    Everything is evaluated in the reference coordinates with the volume
    element J dy; the Eulerian velocity gradient is grad u . Z.
    """
    grid = ubar.grid
    w = grid.quad_weights
    E, D, vol = [], [], []
    for n, (Z, J) in enumerate(zip(window.Z, window.J)):
        rho = rho_stack[n]
        u = ubar.values[n]
        kin = 0.5 * rho * np.sum(u * u, axis=-1)
        pot = params.pressure_potential(rho)
        volume = float(np.sum(w * J))
        E.append(float(np.sum(w * (kin + pot) * J)) + params.p_ext * volume)
        Gx = contract("...ik,...kj->...ij", "k", gradient_values(grid, u), Z)
        sym = Gx + np.swapaxes(Gx, -1, -2)
        dens = (params.mu * np.einsum("...ij,...ij->...", sym, Gx)
                + params.lam * np.einsum("...ii->...", Gx) ** 2)
        D.append(float(np.sum(w * dens * J)))
        vol.append(volume)
    return {"energy": np.array(E), "dissipation": np.array(D),
            "volume": np.array(vol)}
