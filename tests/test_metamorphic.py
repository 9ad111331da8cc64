"""Metamorphic gates: the whole pipeline under time truncation, reflection
and the axis swap.

The solution on [0, T'] is the solution on [0, T] restricted to [0, T'],
and the problem on the unit box commutes with the reflections x -> 1 - x
and y -> 1 - y and with the swap of x and y.
The discrete pipeline keeps the first bit for bit, because every stage is
adapted to the Brownian filtration: the noise flow, the label flow, the
stopping monitor and the Lame steps at a level read no later level.  It
keeps the second to round-off, because the grid, the one-sided stencils at
both ends, the traction rows and the interpolation are mirror images (or,
for the swap, the same stencils on the other axis).
Neither gate needs an oracle, and each runs every layer of a path at once,
from the stochastic convolution to the certified Picard iterates and the
rebuild.  The contraction factor kappa is not compared: it is a ratio of
differences near the Picard tolerance and moves by round-off.
"""

import functools

import numpy as np
import pytest

from lagflow.fields import Field, Grid
from lagflow.fixedpoint import SolveConfig, picard_solve
from lagflow.lame import FluidParams
from lagflow.noise import (
    BrownianBundle,
    StochasticForcing,
    TransportField,
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


def solve(u0, cfg, amplitude, bundle, Q=None, forcing=None):
    """One path from rho0 = 1 with K = 2 stream modes and one forcing mode,
    by default modes (1,1) and (2,1) and ``default_modes``' first mode."""
    rho0 = Field(GRID, np.ones(GRID.extent))
    if Q is None:
        Q = make_transport_field(2, "stream", K=2, amplitude=amplitude)
    if forcing is None:
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

def mirror(values, axis, shift=0.0, comp=0):
    """Vector frames under x_comp -> 1 - x_comp: the node axis ``axis``
    reversed and the component ``comp`` replaced by shift - it."""
    out = np.flip(values, axis).copy()
    out[..., comp] = shift - out[..., comp]
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


# ---------------------------------------------------------------------------
# reflection y -> 1 - y and the swap x <-> y
# ---------------------------------------------------------------------------

# one open and one fired path of the x-reflection gate
OPEN_AND_FIRED = {"open": (5e-4, 0), "fires": (1e-3, 2)}


@functools.cache
def base_run(amplitude, seed):
    """The unmapped run of a case: the x-reflection gate's data and noise."""
    bundle = sample_brownian(2, 1, CFG.T, CFG.dt, seed=seed)
    return solve(initial_velocity(second_amplitude=5e-4), CFG, amplitude,
                 bundle), bundle


def negate_transport(bundle):
    """The bundle with its transport paths negated and its mode path kept."""
    values = bundle.values.copy()
    values[:bundle.K] *= -1.0
    return BrownianBundle(bundle.K, bundle.mode_count, bundle.step, values,
                          bundle.seed)


def swap(values, axis):
    """Vector frames under x <-> y: node axes ``axis`` and ``axis + 1``
    exchanged, and the first two components."""
    comps = [1, 0] + list(range(2, values.shape[-1]))
    return np.swapaxes(values, axis, axis + 1)[..., comps]


def assert_mapped(a, b, node_map, vector_map):
    """Run b is run a mapped, with the x-reflection gate's tolerances:
    ``node_map(frames)`` maps scalar frames, ``vector_map(frames, shift)``
    vector frames, with shift 1.0 for the positions X and 0.0 for v."""
    assert (b.tau, b.iterations, b.monitor.fired_index) == (
        a.tau, a.iterations, a.monitor.fired_index)
    assert np.max(np.abs(vector_map(b.window.X, 1.0) - a.window.X)) <= 1e-14
    assert np.max(np.abs(node_map(b.window.J) - a.window.J)) <= 1e-14
    assert np.max(np.abs(node_map(b.rho) - a.rho)) <= 1e-14
    scale = np.max(np.abs(a.v.values))
    assert np.max(np.abs(vector_map(b.v.values, 0.0) - a.v.values)) <= (
        1e-12 * scale)


@pytest.mark.parametrize("case", OPEN_AND_FIRED)
def test_y_reflected_data_give_the_reflected_path(case):
    # both stream modes, (1,1) and (2,1), change sign under y -> 1 - y, and
    # the forcing mode, even in y and polarized along x, does not
    amplitude, seed = OPEN_AND_FIRED[case]
    a, bundle = base_run(amplitude, seed)
    u0 = initial_velocity(second_amplitude=5e-4)
    b = solve(Field(GRID, mirror(u0.values, 1, comp=1)), CFG, amplitude,
              negate_transport(bundle))
    assert_mapped(a, b, lambda s: np.flip(s, 2),
                  lambda vec, shift: mirror(vec, 2, shift, comp=1))


@pytest.mark.parametrize("case", OPEN_AND_FIRED)
def test_swapped_data_give_the_swapped_path(case):
    # the swap maps the stream function of mode (m, n) to that of (n, m)
    # and reverses orientation: modes (1,1) and (2,1) become (1,1) and (1,2)
    # with both transport paths negated; the forcing mode and u0 trade
    # their components
    amplitude, seed = OPEN_AND_FIRED[case]
    a, bundle = base_run(amplitude, seed)
    Q = TransportField(2, "stream", {"K": 2, "a": np.full(2, amplitude),
                                     "modes": [(1, 1), (1, 2)]})
    mode = StochasticForcing.default_modes(GRID, 1, 1e-3)
    forcing = StochasticForcing([Field(GRID, swap(mode.modes[0].values, 0))],
                                mode.amplitudes)
    u0 = initial_velocity(second_amplitude=5e-4)
    b = solve(Field(GRID, swap(u0.values, 0)), CFG, amplitude,
              negate_transport(bundle), Q, forcing)
    assert_mapped(a, b, lambda s: np.swapaxes(s, 1, 2),
                  lambda vec, shift: swap(vec, 1))


# ---------------------------------------------------------------------------
# 3D at 9^3: the assembly, stencils and traction rows at both ends of every
# axis
# ---------------------------------------------------------------------------

GRID3 = Grid(3, 9)
CFG3 = SolveConfig(T=0.01)
CUT3 = 6                    # levels of the truncated run: T = 0.005

# rotation amplitude and seed; the rigid rotation fires the monitor on none
# of them, so the fired 3D case waits for a spatially varying 3D transport
# family (ROADMAP direction 13)
PATHS3 = {"small": (1e-3, 0), "mid": (5e-3, 1), "large": (2e-2, 2)}


def solve3(cfg, amplitude, bundle, comp=0):
    """One solid3d-like path at 9^3: rho0 = 1, the benchmark's u0 (even in
    every axis, in component ``comp`` only), one rotation about the z axis
    and ``default_modes``' first mode moved to component ``comp``."""
    c = GRID3.coords()
    u0 = np.zeros(GRID3.extent + (3,))
    u0[..., comp] = 1e-3 * np.prod([np.sin(np.pi * c[..., d]) ** 2
                                    for d in range(3)], axis=0)
    rho0 = Field(GRID3, np.ones(GRID3.extent))
    Q = make_transport_field(3, "rotation", K=1, amplitude=amplitude)
    mode = StochasticForcing.default_modes(GRID3, 1, 1e-3)
    forcing = StochasticForcing(
        [Field(GRID3, np.roll(mode.modes[0].values, comp, axis=-1))],
        mode.amplitudes)
    with pytest.warns(UserWarning, match="compatibility"):
        return picard_solve(rho0, Field(GRID3, u0), PARAMS, cfg, Q, bundle,
                            forcing)


@pytest.mark.parametrize("case", PATHS3)
def test_truncated_horizon_gives_the_prefix_in_3d(case):
    # T = 0.01, and T = 0.005 on the first CUT3 levels of the same bundle
    amplitude, seed = PATHS3[case]
    bundle = sample_brownian(1, 1, CFG3.T, CFG3.dt, seed=seed)
    cut_bundle = BrownianBundle(bundle.K, bundle.mode_count, bundle.step,
                                bundle.values[:, :CUT3].copy(), bundle.seed)
    cut_cfg = SolveConfig(T=(CUT3 - 1) * CFG3.dt)
    full = solve3(CFG3, amplitude, bundle)
    cut = solve3(cut_cfg, amplitude, cut_bundle)
    assert full.tau == CFG3.T and full.monitor.fired_index is None
    assert cut.tau == cut_cfg.times[-1]
    assert cut.iterations == full.iterations
    k = len(cut.times)
    assert np.array_equal(cut.v.values, full.v.values[:k])
    assert np.array_equal(cut.window.X, full.window.X[:k])


@pytest.mark.parametrize("case", PATHS3)
def test_solution_is_even_in_z(case):
    # the rotation acts in the (x, y) plane and u0 and the forcing mode are
    # even in z, so z -> 1 - z maps one run onto itself: v is even in z with
    # its z component negated
    amplitude, seed = PATHS3[case]
    a = solve3(CFG3, amplitude, sample_brownian(1, 1, CFG3.T, CFG3.dt,
                                                seed=seed))
    scale = np.max(np.abs(a.v.values))
    assert np.max(np.abs(mirror(a.v.values, 3, comp=2) - a.v.values)) <= (
        1e-12 * scale)
    assert np.max(np.abs(mirror(a.window.X, 3, shift=1.0, comp=2)
                         - a.window.X)) <= 1e-14


@pytest.mark.parametrize("case", PATHS3)
def test_swapped_data_give_the_swapped_path_in_3d(case):
    # the swap x <-> y fixes the rotation's centre (1/2, 1/2, 1/2) and
    # reverses the rotation about the z axis: the swapped run negates the
    # transport path and moves u0's bump and the forcing mode to the second
    # component
    amplitude, seed = PATHS3[case]
    bundle = sample_brownian(1, 1, CFG3.T, CFG3.dt, seed=seed)
    a = solve3(CFG3, amplitude, bundle)
    b = solve3(CFG3, amplitude, negate_transport(bundle), comp=1)
    assert_mapped(a, b, lambda s: np.swapaxes(s, 1, 2),
                  lambda vec, shift: swap(vec, 1))
