"""Workload definitions: the inputs one benchmark run hands to ``lagflow``.

Every workload uses rho0 = 1, ``FluidParams()``, the default ``SolveConfig``
apart from the horizon T, one ``default_modes`` forcing mode and
u0 = 1e-3 prod_d sin^2(pi x_d) in the first velocity component.  The
workload seed only chooses the Brownian seed of each path (see
``path_seed``); grids and fields are fixed per workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n: int                  # nodes per axis
    transport: str          # make_transport_field kind
    K: int                  # transport paths
    transport_amplitude: float
    T: float = 0.05

    M = 1                   # forcing modes
    dt = 1e-3


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("stopped2d", dim=2, n=25, transport="stream", K=2,
                 transport_amplitude=5e-4),
        Workload("solid3d", dim=3, n=13, transport="rotation", K=1,
                 transport_amplitude=1e-3, T=0.01),
    )
}


def path_seed(workload_seed: int, index: int) -> int:
    """Brownian seed of path ``index`` in a run with ``workload_seed``."""
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Inputs:
    grid: object
    rho0: object
    u0: object
    params: object
    cfg: object
    Q: object
    forcing: object


def build_inputs(lf, w: Workload) -> Inputs:
    """Grid, rho0, u0, transport field and forcing of workload ``w``.

    ``lf`` is the namespace of imported ``lagflow`` modules (see ``run.py``).
    """
    np = lf.np
    grid = lf.fields.Grid(w.dim, w.n)
    rho0 = lf.fields.Field(grid, np.ones(grid.extent))
    c = grid.coords()
    u = np.zeros(grid.extent + (w.dim,))
    u[..., 0] = 1e-3 * np.prod(
        [np.sin(np.pi * c[..., d]) ** 2 for d in range(w.dim)], axis=0)
    u0 = lf.fields.Field(grid, u)
    Q = lf.noise.make_transport_field(w.dim, w.transport, w.K,
                                      w.transport_amplitude)
    forcing = lf.noise.StochasticForcing.default_modes(grid, w.M, 1e-3)
    cfg = lf.fixedpoint.SolveConfig(T=w.T, dt=w.dt)
    return Inputs(grid, rho0, u0, lf.lame.FluidParams(), cfg, Q, forcing)
