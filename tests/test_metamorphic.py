"""Metamorphic gates: the whole pipeline under time truncation and reflection.

The solution on [0, T'] is the solution on [0, T] restricted to [0, T'],
and the problem on the unit box commutes with the reflection x -> 1 - x.
The discrete pipeline keeps the first bit for bit, because every stage is
adapted to the Brownian filtration: the noise flow, the label flow, the
stopping monitor and the Lame steps at a level read no later level.  It
keeps the second to round-off, because the grid, the one-sided stencils at
both ends, the traction rows and the interpolation are mirror images.
Neither gate needs an oracle, and each runs every layer of a path at once,
from the stochastic convolution to the certified Picard iterates and the
rebuild.  The contraction factor kappa is not compared: it is a ratio of
differences near the Picard tolerance and moves by round-off.
"""

import numpy as np
import pytest

from lagflow.fields import Field, Grid
from lagflow.fixedpoint import SolveConfig, picard_solve
from lagflow.lame import FluidParams
from lagflow.noise import (
    BrownianBundle,
    StochasticForcing,
    make_transport_field,
    sample_brownian,
)

GRID = Grid(2, (17, 17))
PARAMS = FluidParams()
CFG = SolveConfig(T=0.05)
CUT = 26                    # levels of the truncated run: T = 0.025


def initial_velocity(second_amplitude=0.0):
    """The benchmark's u0, 1e-3 sin^2(pi x) sin^2(pi y) in the first
    component, and a second component odd about x = 1/2,
    second_amplitude sin^2(pi x) sin(2 pi x) sin^2(pi y)."""
    c = GRID.coords()
    bump = np.sin(np.pi * c[..., 0]) ** 2 * np.sin(np.pi * c[..., 1]) ** 2
    u0 = np.stack([1e-3 * bump,
                   second_amplitude * bump * np.sin(2 * np.pi * c[..., 0])],
                  axis=-1)
    return Field(GRID, u0)


def solve(u0, cfg, amplitude, bundle):
    """One path from rho0 = 1 with K = 2 stream modes and one forcing mode."""
    rho0 = Field(GRID, np.ones(GRID.extent))
    Q = make_transport_field(2, "stream", K=2, amplitude=amplitude)
    forcing = StochasticForcing.default_modes(GRID, 1, 1e-3)
    # the one-sided traction stencils of u0 are O(h^2) off zero at 17^2
    with pytest.warns(UserWarning, match="compatibility"):
        return picard_solve(rho0, u0, PARAMS, cfg, Q, bundle, forcing)


# ---------------------------------------------------------------------------
# time truncation
# ---------------------------------------------------------------------------

# amplitude, seed, and whether the full run stops at or before the cut
TRUNCATION_PATHS = {
    "runs-past-the-cut": (5e-4, 0, False),
    "fires-past-the-cut": (5e-4, 3, False),
    "fires-before-the-cut": (1e-3, 2, True),
    "fires-early": (1e-3, 0, True),
}


@pytest.mark.parametrize("case", TRUNCATION_PATHS)
def test_truncated_horizon_gives_the_prefix(case):
    # T = 0.05, and T = 0.025 on the first CUT levels of the same bundle
    amplitude, seed, stops_before_cut = TRUNCATION_PATHS[case]
    u0 = initial_velocity()
    bundle = sample_brownian(2, 1, CFG.T, CFG.dt, seed=seed)
    cut_bundle = BrownianBundle(bundle.K, bundle.mode_count, bundle.step,
                                bundle.values[:, :CUT].copy(), bundle.seed)
    cut_cfg = SolveConfig(T=(CUT - 1) * CFG.dt)
    full = solve(u0, CFG, amplitude, bundle)
    cut = solve(u0, cut_cfg, amplitude, cut_bundle)
    t_cut = cut_cfg.times[-1]
    assert (full.tau <= t_cut) == stops_before_cut, (
        f"{case}: the full run stops at tau = {full.tau}, the cut is {t_cut}")
    # tau is a stopping time of the discrete filtration
    assert cut.tau == min(full.tau, t_cut)
    assert cut.iterations == full.iterations
    # with equal iteration counts, the iterates agree bit for bit on the
    # common levels, and so do the rebuild's window and monitor totals
    k = len(cut.times)
    assert np.array_equal(cut.v.values, full.v.values[:k])
    assert np.array_equal(cut.window.X, full.window.X[:k])
    n = min(len(cut.monitor.total), len(full.monitor.total))
    assert np.array_equal(cut.monitor.total[:n], full.monitor.total[:n])


# ---------------------------------------------------------------------------
# reflection x -> 1 - x
# ---------------------------------------------------------------------------

def mirror(values, axis, shift=0.0):
    """Vector frames under x -> 1 - x: the x axis of the nodes (``axis``)
    reversed and the first component c replaced by shift - c."""
    out = np.flip(values, axis).copy()
    out[..., 0] = shift - out[..., 0]
    return out


REFLECTION_PATHS = {
    "open": (5e-4, 0),
    "fires": (1e-3, 2),
    "fires-early": (1e-3, 0),
}


@pytest.mark.parametrize("case", REFLECTION_PATHS)
def test_reflected_data_give_the_reflected_path(case):
    # stream mode (1,1) and the forcing mode change sign under the
    # reflection, mode (2,1) does not: the reflected run negates the
    # Brownian paths of the first two
    amplitude, seed = REFLECTION_PATHS[case]
    u0 = initial_velocity(second_amplitude=5e-4)
    bundle = sample_brownian(2, 1, CFG.T, CFG.dt, seed=seed)
    signs = np.array([[-1.0], [1.0], [-1.0]])     # rows: (1,1), (2,1), forcing
    mirrored = BrownianBundle(bundle.K, bundle.mode_count, bundle.step,
                              signs * bundle.values, bundle.seed)
    a = solve(u0, CFG, amplitude, bundle)
    b = solve(Field(GRID, mirror(u0.values, 0)), CFG, amplitude, mirrored)
    assert (b.tau, b.iterations, b.monitor.fired_index) == (
        a.tau, a.iterations, a.monitor.fired_index)
    assert np.max(np.abs(mirror(b.window.X, 1, shift=1.0) - a.window.X)) <= 1e-14
    assert np.max(np.abs(np.flip(b.window.J, 1) - a.window.J)) <= 1e-14
    assert np.max(np.abs(np.flip(b.rho, 1) - a.rho)) <= 1e-14
    scale = np.max(np.abs(a.v.values))
    assert np.max(np.abs(mirror(b.v.values, 1) - a.v.values)) <= 1e-12 * scale
