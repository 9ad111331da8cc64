"""Eulerian reconstruction of the moving-domain solution and output writing.

Markers are the images of the grid labels under the flow map; on markers the
Eulerian density and velocity are direct read-offs of the Lagrangian values.
The moving domain is the image of the markers' piecewise-linear interpolant
on the Kuhn triangulation of the grid cells: one certificate, in 2D and 3D
alike, bounds its distance from injectivity and gives its volume.
All delimited outputs carry 17 significant digits so a reload reproduces the
in-memory values exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import permutations
from math import factorial
from pathlib import Path

import numpy as np

from .fields import Grid, frame_norms, gradient_values
from .fixedpoint import SolutionBundle
from .flow import mat_det
from .lame import FluidParams
from .nonlinear import assemble_window
from .noise import BrownianBundle, TransportField

__all__ = [
    "MovingDomainSnapshot",
    "reconstruct",
    "kinematic_residual",
    "validate_solution",
    "write_outputs",
]


@dataclass
class MovingDomainSnapshot:
    """Marker-based picture of the moving domain at one instant."""

    t: float
    labels: np.ndarray            # grid labels, shape extent + (dim,)
    markers: np.ndarray           # images X(t, labels)
    rho: np.ndarray               # density at markers
    u: np.ndarray                 # velocity at markers
    J: np.ndarray
    volume_markers: float         # volume of the PL image of the grid cells
    volume_jacobian: float        # integral of J over the labels


def _kuhn_certificate(grid: Grid, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Injectivity margin and piecewise-linear image volume of marker frames.

    ``X`` is a stack of marker frames, shape ``(L,) + extent + (dim,)``.  Each
    grid cell splits into the dim! Kuhn (Freudenthal) simplices, one per axis
    order pi: the simplex walks from the cell's low corner along e_pi(0),
    e_pi(1), ...  The gradient D of the markers' linear interpolant on it
    has as column pi(k) the forward difference of X along axis pi(k) at the
    walk's k-th vertex.  Returns per frame the margin 1 - max ||D - I||_F
    over all simplices and the image volume sum det(D) prod(h) / dim!.

    A positive margin makes X - id a contraction of the convex box, so the
    piecewise-linear map is injective and the image of the boundary (a loop
    in 2D, a surface in 3D) is embedded.  The axis orders are reduced one at
    a time into a running max and a running sum, so no pass holds all dim!
    gradient stacks.
    """
    L, dim = len(X), grid.dim
    diffs = [np.diff(X, axis=1 + a) / h for a, h in enumerate(grid.spacing)]
    eye = np.eye(dim)
    worst = np.zeros(L)
    volume = np.zeros(L)
    for order in permutations(range(dim)):
        cols = [None] * dim
        corner = [0] * dim
        for a in order:
            cells = tuple(slice(c, c + n - 1) for c, n in zip(corner, grid.extent))
            cols[a] = diffs[a][(slice(None),) + cells]
            corner[a] = 1
        D = np.stack(cols, axis=-1)
        dev = np.sum((D - eye) ** 2, axis=(-2, -1)).reshape(L, -1)
        worst = np.maximum(worst, np.sqrt(dev.max(axis=1)))
        volume += mat_det(D).reshape(L, -1).sum(axis=1)
    return 1.0 - worst, volume * np.prod(grid.spacing) / factorial(dim)


def _window_certificate(bundle: SolutionBundle) -> tuple[np.ndarray, np.ndarray]:
    """``_kuhn_certificate`` of the bundle's whole window, computed once.

    The result is kept on the bundle with the window it was taken on, so a
    bundle whose window is swapped gets a new certificate.
    """
    cached = bundle.certificate
    if cached is None or cached[0] is not bundle.window:
        cached = (bundle.window,) + _kuhn_certificate(bundle.grid, bundle.window.X)
        bundle.certificate = cached
    return cached[1], cached[2]


def reconstruct(bundle: SolutionBundle) -> list[MovingDomainSnapshot]:
    """Marker snapshots for every frame of the usable window."""
    grid = bundle.grid
    labels = grid.coords()
    w = grid.quad_weights
    window = bundle.window
    _, volumes = _window_certificate(bundle)
    return [MovingDomainSnapshot(
                float(window.times[n]), labels, X, bundle.rho[n],
                bundle.ubar.values[n], J, float(volumes[n]),
                float(np.sum(w * J)))
            for n, (X, J) in enumerate(zip(window.X, window.J))]


def kinematic_residual(bundle: SolutionBundle, Q: TransportField,
                       brownian: BrownianBundle | None) -> np.ndarray:
    """Per-step max mismatch of the boundary-marker update law.

    residual = dx - u dt - sum_k Q_k(x_mid) dW_k per marker per step, with
    the velocity averaged over the step endpoints and the transport field
    taken at the position midpoint (the Stratonovich reading).  Without a
    Brownian bundle the transport term is left out; a bundle must carry one
    transport path per field (``ValueError`` otherwise).
    """
    if brownian is not None and brownian.K != Q.K:
        raise ValueError(f"{Q.K} transport fields need as many Brownian "
                         f"paths, the bundle has {brownian.K}")
    sel = tuple(bundle.grid.boundary_nodes()[0].T)
    times = bundle.times
    dt = times[1] - times[0]
    out = np.zeros(len(times) - 1)
    dWs = (brownian.transport_increments()
           if brownian is not None and Q.K > 0 else None)
    X = bundle.window.X
    for n in range(len(times) - 1):
        x0 = X[n][sel]
        x1 = X[n + 1][sel]
        u_mid = 0.5 * (bundle.ubar.values[n][sel] + bundle.ubar.values[n + 1][sel])
        res = x1 - x0 - dt * u_mid
        if dWs is not None:
            x_mid = 0.5 * (x0 + x1)
            for k in range(Q.K):
                res -= Q.value(k, x_mid) * dWs[k, n]
        out[n] = np.max(np.linalg.norm(res, axis=-1))
    return out


# ---------------------------------------------------------------------------
# solution-definition validation
# ---------------------------------------------------------------------------

PDE_TOL = 1e-6             # bound on the discrete residual of (iii)


def validate_solution(bundle: SolutionBundle, params: FluidParams) -> dict:
    """Three-part validation report.

    (i)  diffeomorphism proxy: positive Jacobian, consistent inverse
         gradient, and a positive injectivity margin 1 - max ||D - I||_F
         of the markers' piecewise-linear interpolant, taken over the
         frames before the first J <= 0;
    (ii) regularity proxy: finite solution norms and frame-to-frame gaps in
         the intermediate-smoothness surrogate;
    (iii) discrete residual of the transformed system along the window,
         against the operator and rho0 of the bundle's problem.

    Raises ``ValueError`` when ``params`` differ from the problem's: the
    residual would then be that of another system.
    """
    problem = bundle.problem
    if params != problem.params:
        raise ValueError(f"params {params} differ from the solved problem's "
                         f"{problem.params}")
    grid, window = bundle.grid, bundle.window
    report = {}

    # (i) invertibility and geometry, on the frames before the first J <= 0
    j_where = None
    n_ok = len(window)
    bad = np.argwhere(window.J <= 0)
    if len(bad):
        n_ok = int(bad[0, 0])
        j_where = {"frame": n_ok, "t": float(window.times[n_ok]),
                   "node": tuple(int(i) for i in bad[0, 1:])}
    j_ok = j_where is None
    prod = np.einsum("...ij,...jk->...ik", window.gradX[:n_ok], window.Z[:n_ok])
    inv_res = float(np.max(np.abs(prod - np.eye(grid.dim)), initial=0.0))
    # the certificate is per frame: its first n_ok frames are the checked ones
    margins, _ = _window_certificate(bundle)
    margin = float(np.min(margins[:n_ok], initial=1.0))
    report["diffeomorphism"] = {
        "passed": bool(j_ok and inv_res <= 1e-10 and margin > 0.0),
        "jacobian_positive": j_ok,
        "jacobian_failure": j_where,
        "inverse_residual": inv_res,
        "injectivity_margin": margin,
    }

    # (ii) finite norms and time continuity surrogate
    p, q = problem.cfg.p, problem.cfg.q
    s_frac = 2.0 - 2.0 / p
    dv = np.diff(bundle.v.values, axis=0)
    gaps = (frame_norms(grid, dv, "Lq", q) ** (1 - s_frac / 2)
            * frame_norms(grid, dv, "H2q", q) ** (s_frac / 2))
    max_gap = float(np.max(gaps)) if len(gaps) else 0.0
    norms_finite = bool(np.all(np.isfinite(bundle.v.values))
                        and np.all(np.isfinite(bundle.rho)))
    report["regularity"] = {
        "passed": norms_finite,
        "max_frame_gap": max_gap,
    }

    # (iii) residual of the transformed system at the recorded velocity
    op = problem.op
    dt = bundle.times[1] - bundle.times[0]
    worst = 0.0
    mask = op.boundary_row_mask
    steps = slice(1, len(bundle.v))
    u_steps = bundle.ubar.values[steps]
    F_u, F_G_b = assemble_window(grid, u_steps, gradient_values(grid, u_steps),
                                 window.Z[steps], window.J[steps],
                                 problem.rho0.values, params)
    for n, (fu, fg) in enumerate(zip(F_u, F_G_b)):
        v0 = op.to_flat(bundle.v.values[n])
        v1 = op.to_flat(bundle.v.values[n + 1])
        interior = (v1 - v0) / dt + op.A @ v1 - op.to_flat(fu)
        worst = max(worst, float(np.max(np.abs(interior[~mask]))))
        bres = op.B @ v1 - op.boundary_values_to_rows(fg)
        worst = max(worst, float(np.max(np.abs(bres[mask]))))
    report["pde_residual"] = {
        "passed": bool(worst <= PDE_TOL),
        "max_residual": worst,
        "tolerance": PDE_TOL,
    }
    report["passed"] = bool(report["diffeomorphism"]["passed"]
                            and report["regularity"]["passed"]
                            and report["pde_residual"]["passed"])
    return report


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------

def write_outputs(bundle: SolutionBundle, snapshots: list[MovingDomainSnapshot],
                  out_dir, kin_residuals: np.ndarray | None = None) -> dict:
    """diagnostics.csv, snapshot_<k>.csv of every tenth frame, and last
    summary.json, which lists the snapshot files and the problem's
    ``SolveConfig`` and ``FluidParams``; returns the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mon = bundle.monitor
    n_rows = len(bundle.times)
    kin = np.zeros(n_rows)
    if kin_residuals is not None:
        kin[1:1 + len(kin_residuals)] = kin_residuals[: n_rows - 1]

    summary = {
        "seed": bundle.seed,
        "config": {"solve": asdict(bundle.problem.cfg),
                   "fluid": asdict(bundle.problem.params)},
        "tau": bundle.tau,
        "kappa": bundle.kappa,
        "iterations": bundle.iterations,
        "min_density": float(bundle.rho.min()),
        "energy_initial": float(bundle.energy["energy"][0]),
        "energy_final": float(bundle.energy["energy"][-1]),
        "monitor_norms_at_tau": {
            "gradX_sup": float(mon.sup_gradX[-1]) if len(mon.sup_gradX) else 0.0,
            "Z_theta": float(mon.htheta_Z[-1]) if len(mon.htheta_Z) else 0.0,
            "J_theta": float(mon.htheta_J[-1]) if len(mon.htheta_J) else 0.0,
        },
        "status": "ok",
    }

    def pad(arr, fill=0.0):
        a = np.full(n_rows, fill)
        a[: len(arr)] = arr[:n_rows]
        return a

    rows = np.column_stack([
        bundle.times,
        pad(mon.sup_gradX), pad(mon.htheta_Z), pad(mon.htheta_J),
        bundle.window.J.reshape(n_rows, -1).min(axis=1),
        bundle.window.J.reshape(n_rows, -1).max(axis=1),
        bundle.energy["energy"], bundle.energy["dissipation"], kin,
    ])
    header = ("t,normGradXminusI,normZminusI_theta,normJminus1_theta,"
              "J_min,J_max,energy,dissipation,kinematic_residual_max")
    np.savetxt(out / "diagnostics.csv", rows, delimiter=",", header=header,
               comments="", fmt="%.17g")

    dim = bundle.grid.dim
    label_cols = [f"label_y{i + 1}" for i in range(dim)]
    x_cols = [f"x{i + 1}" for i in range(dim)]
    u_cols = [f"u{i + 1}" for i in range(dim)]
    snap_header = ",".join(label_cols + x_cols + ["rho"] + u_cols + ["J"])
    written = []
    for k in range(0, len(snapshots), 10):
        s = snapshots[k]
        flat = np.column_stack([
            s.labels.reshape(-1, dim), s.markers.reshape(-1, dim),
            s.rho.reshape(-1, 1), s.u.reshape(-1, dim), s.J.reshape(-1, 1),
        ])
        path = out / f"snapshot_{k}.csv"
        np.savetxt(path, flat, delimiter=",", header=snap_header,
                   comments="", fmt="%.17g")
        written.append(path.name)
    summary["snapshots"] = written
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary
