import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lagflow.fixedpoint
import lagflow.interp
from flow_oracle import integrate_label_flow as contract_label_flow
from flow_oracle import padded_noise_flow, per_level_compose
from map_oracle import direct_flow_oracle, jacobian_ode_oracle
from lagflow.fields import (Field, Grid, SlobodeckijWindow, TimeSeries,
                            gradient_values, spatial_norm)
from lagflow.fixedpoint import SolveConfig, _flow_stage, _monitor_window, picard_solve
from lagflow.flow import (
    PAD_CELLS,
    FlowWindow,
    LabelFlow,
    compose_flow,
    identity_noise_flow,
    integrate_label_flow,
    integrate_noise_flow,
    mat_det,
    mat_inv,
    _valid_levels,
    stopping_monitor,
)
from lagflow.interp import FlowEscapeError
from lagflow.lame import FluidParams
from lagflow.noise import (StochasticForcing, make_transport_field, refine_bridge,
                           sample_brownian)

GRID = Grid(2, (33, 33))
T, DT = 0.05, 1e-3
TIMES = np.linspace(0.0, T, 51)


def zero_velocity(grid=GRID, times=TIMES):
    return TimeSeries(grid, times, np.zeros((len(times),) + grid.extent + (grid.dim,)))


def constant_velocity(c, grid=GRID, times=TIMES):
    vals = np.broadcast_to(np.asarray(c, float), grid.extent + (grid.dim,))
    return TimeSeries(grid, times, np.broadcast_to(vals, (len(times),) + vals.shape).copy())


def linear_velocity(alpha, grid=GRID, times=TIMES):
    vals = alpha * grid.coords()
    return TimeSeries(grid, times, np.broadcast_to(vals, (len(times),) + vals.shape).copy())


# ---------------------------------------------------------------------------
# noise-only flow
# ---------------------------------------------------------------------------

def test_constant_field_translates_exactly():
    Q = make_transport_field(2, "constant", K=1, amplitude=0.7)
    b = sample_brownian(1, 0, T, DT, seed=2)
    nf = integrate_noise_flow(Q, b, GRID)
    pts = np.stack(np.meshgrid(*nf.axes, indexing="ij"), axis=-1)
    exact = pts[None] + np.array([0.7, 0.0]) * b.values[0][:, None, None, None]
    assert np.max(np.abs(nf.psi - exact)) <= 1e-13
    assert np.max(np.abs(nf.Dpsi - np.eye(2))) == 0.0


@pytest.mark.parametrize("K_bundle", [1, 3])
def test_noise_flow_needs_one_path_per_field(K_bundle):
    Q = make_transport_field(2, "stream", K=2, amplitude=0.1)
    b = sample_brownian(K_bundle, 0, T, DT, seed=2)
    with pytest.raises(ValueError, match="transport fields"):
        integrate_noise_flow(Q, b, GRID)


def test_noise_flow_blow_up_to_nan_raises():
    # the first Heun step overflows the gradient's determinant to NaN; a
    # blow-up check that compares with NaN used to return the flow
    Q = make_transport_field(2, "stream", K=1, amplitude=1e150)
    b = sample_brownian(1, 0, 0.01, 1e-3, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="not finite at t = 0.001"):
            integrate_noise_flow(Q, b, Grid(2, 9))


def test_no_noise_keeps_identity():
    nf = identity_noise_flow(GRID, TIMES)
    pts = np.stack(np.meshgrid(*nf.axes, indexing="ij"), axis=-1)
    assert np.max(np.abs(nf.psi - pts[None])) == 0.0
    prod = np.einsum("...ij,...jk->...ik", nf.Dpsi, nf.Dpsi_inv)
    assert np.max(np.abs(prod - np.eye(2))) == 0.0


def test_rotation_flow_matches_matrix_exponential():
    # psi_t(x) = c + exp(A W_t)(x - c) with A = [[0,1],[-1,0]]
    Q = make_transport_field(2, "rotation", K=1, amplitude=1.0)
    b = sample_brownian(1, 0, T, DT, seed=1)
    nf = integrate_noise_flow(Q, b, GRID)
    pts = np.stack(np.meshgrid(*nf.axes, indexing="ij"), axis=-1)
    c = np.array([0.5, 0.5])
    worst = 0.0
    for n in (10, 25, 50):
        th = b.values[0][n]
        R = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        exact = c + (pts - c) @ R.T
        worst = max(worst, float(np.max(np.abs(nf.psi[n] - exact))))
    assert worst <= 0.5 * DT  # strong error C*dt for a single noise


def test_gradient_inverse_consistency():
    Q = make_transport_field(2, "stream", K=2, amplitude=0.1)
    b = sample_brownian(2, 0, T, DT, seed=4)
    nf = integrate_noise_flow(Q, b, GRID)
    prod = np.einsum("...ij,...jk->...ik", nf.Dpsi, nf.Dpsi_inv)
    assert np.max(np.abs(prod - np.eye(2))) <= 1e-8


def test_divergence_free_volume_error_small_and_converging():
    Q = make_transport_field(2, "stream", K=1, amplitude=0.2)
    errs = []
    b = sample_brownian(1, 0, T, DT, seed=3)
    for _ in range(2):
        nf = integrate_noise_flow(Q, b, GRID)
        errs.append(np.max(np.abs(mat_det(nf.Dpsi) - 1.0)))
        b = refine_bridge(b)
    assert errs[0] <= 5e-3
    assert errs[1] <= errs[0]


# ---------------------------------------------------------------------------
# the core: the lattice nodes within one cell of the box
# ---------------------------------------------------------------------------

STACKS = ("psi", "Dpsi", "Dpsi_inv", "grad_Dpsi_inv")


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def core_of(grid):
    """The lattice nodes within one cell of the box, per axis."""
    return tuple(slice(PAD_CELLS - 1, PAD_CELLS + n + 1) for n in grid.extent)


def lattice_corner(nf):
    """A point in the lattice's first cell, outside the core on every axis."""
    return np.array([[ax[0] + 0.5 * (ax[1] - ax[0]) for ax in nf.lattice]])


CORE_GRIDS = {
    # every lattice spacing equal: np.gradient's uniform step
    (2, "unit"): Grid(2, (9, 17)),
    (3, "unit"): Grid(3, (9, 9, 17)),
    # unequal spacings; on axis 0 of the 2D box the spacings around the core
    # are equal while the lattice's are not, so the weights follow the lattice
    (2, "box"): Grid(2, (10, 11), box=((-1.0, 0.1), (-0.3, 0.7))),
    (3, "box"): Grid(3, (9, 10, 9), box=((0.0, 1.0), (-0.5, 0.5), (0.2, 1.4))),
}


@pytest.mark.parametrize("dim, kind", [(2, "constant"), (2, "rotation"),
                                       (2, "linear_test"), (2, "stream"),
                                       (3, "constant"), (3, "rotation"),
                                       (3, "linear_test")])
@pytest.mark.parametrize("shape", ["unit", "box"])
def test_core_stacks_are_the_whole_lattice_on_the_core(dim, kind, shape):
    # the stacks on the core hold the bits the whole lattice holds there,
    # and a point in the lattice's first cell escapes without touching them
    g = CORE_GRIDS[dim, shape]
    Q = make_transport_field(dim, kind, K=2, amplitude=0.3)
    b = sample_brownian(2, 0, 0.004, DT, seed=11)
    nf = integrate_noise_flow(Q, b, g)
    axes, *want = padded_noise_flow(Q, b, g)
    core = core_of(g)
    assert [len(ax) for ax in nf.axes] == [n + 2 for n in g.extent]
    for got_ax, ax, s in zip(nf.axes, axes, core):
        assert same_bits(got_ax, ax[s])
    for name, ref in zip(STACKS, want):
        assert same_bits(getattr(nf, name), ref[(slice(None),) + core]), name
    with pytest.raises(FlowEscapeError):
        nf.plan(lattice_corner(nf))
    for name, ref in zip(STACKS, want):
        assert same_bits(getattr(nf, name), ref[(slice(None),) + core]), name
    assert np.max(np.abs(want[1] - np.eye(dim))) > 0 or kind == "constant"


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_flow_core_is_the_whole_lattice_on_the_core(dim):
    g = CORE_GRIDS[dim, "box"]
    nf = identity_noise_flow(g, TIMES[:4])
    pts = np.stack(np.meshgrid(*nf.lattice, indexing="ij"), axis=-1)[core_of(g)]
    assert pts.shape[:-1] == tuple(n + 2 for n in g.extent)
    assert same_bits(nf.psi, np.broadcast_to(pts, (4,) + pts.shape).copy())
    eye = np.broadcast_to(np.eye(dim), nf.Dpsi.shape).copy()
    assert same_bits(nf.Dpsi, eye) and same_bits(nf.Dpsi_inv, eye)
    assert same_bits(nf.grad_Dpsi_inv, np.zeros(eye.shape + (dim,)))


@pytest.mark.parametrize("dim", [2, 3])
def test_label_flow_leaving_the_core_escapes(dim):
    # a drift that spreads Y past one cell of the box in the second half of
    # the window: the plan of the first level that leaves the core raises,
    # with that level's time and the escaping point
    g = Grid(dim, 9)
    if dim == 2:
        Q = make_transport_field(2, "stream", K=2, amplitude=0.1)
    else:
        Q = make_transport_field(3, "rotation", K=1, amplitude=1.0)
    cfg = SolveConfig(T=0.02, dt=DT)
    ubar = linear_velocity(16.0, g, cfg.times)
    ubar.values[...] -= 8.0
    nf = integrate_noise_flow(Q, sample_brownian(Q.K, 0, cfg.T, DT, seed=3), g)
    with pytest.raises(FlowEscapeError) as exc:
        integrate_label_flow(ubar, nf)
    k = int(np.flatnonzero(nf.times == exc.value.time)[0])
    assert k > len(ubar) // 2
    assert str(exc.value).endswith(f"at t = {nf.times[k]}")
    h = g.spacing[0]
    lower, upper = -h - 1e-9, 1.0 + h + 1e-9
    assert np.any((exc.value.point < lower) | (exc.value.point > upper))
    # the levels before it stay in the core and do not depend on it
    Y = integrate_label_flow(ubar.restrict(k), nf).Y
    assert Y.min() >= lower and Y.max() <= upper
    with pytest.raises(FlowEscapeError) as again:
        integrate_label_flow(ubar.restrict(k + 1), nf)
    assert again.value.time == exc.value.time
    assert np.array_equal(again.value.point, exc.value.point)


def test_escape_bounds_are_the_core_s():
    # a point past the core's face by more than the slack raises and leaves
    # the stacks as they were; one on the face or within the slack does not
    g = Grid(2, 9)
    Q = make_transport_field(2, "stream", K=2, amplitude=0.1)
    nf = integrate_noise_flow(Q, sample_brownian(2, 0, T, DT, seed=2), g)
    held = [getattr(nf, name).copy() for name in STACKS]
    h = g.spacing[0]
    pts = np.full((3, 2), 0.5)
    for bad in (1.0 + h + 1e-3, -h - 1e-3):
        pts[1, 1] = bad
        with pytest.raises(FlowEscapeError) as exc:
            nf.plan(pts, time=0.002)
        assert str(exc.value) == f"query point {pts[1]} outside tracked box on axis 1 at t = 0.002"
        assert np.array_equal(exc.value.point, pts[1]) and exc.value.time == 0.002
    for name, ref in zip(STACKS, held):
        assert same_bits(getattr(nf, name), ref), name
    for good in ((-h, 1.0 + h), (-h - 1e-12, 1.0 + h + 1e-12)):
        pts[1] = good
        plan = nf.plan(pts, time=0.002)
        assert np.all(np.isfinite(plan.apply(nf.psi[2])))
    pts[1] = (-h, 1.0 + h)          # the core's corner node
    assert same_bits(nf.plan(pts).apply(nf.psi[2])[1], nf.psi[2][0, -1])
    assert nf.psi.shape[1:3] == (11, 11)


def test_core_footprint_at_13_cubed():
    # the solid3d setting: 15^3 nodes per level
    g = Grid(3, 13)
    Q = make_transport_field(3, "rotation", K=1, amplitude=1e-3)
    nf = integrate_noise_flow(Q, sample_brownian(1, 0, 0.01, DT, seed=0), g)
    h = g.spacing[0]
    for pts in (g.coords(), g.coords() - 0.9 * h, g.coords() + 0.9 * h):
        nf.plan(pts)
        assert [a.shape for a in (nf.psi, nf.Dpsi, nf.Dpsi_inv, nf.grad_Dpsi_inv)] == [
            (11, 15, 15, 15) + (3,) * r for r in (1, 2, 2, 3)]
    assert sum(getattr(nf, name).nbytes for name in STACKS) == 11 * 15 ** 3 * 48 * 8


# ---------------------------------------------------------------------------
# label ODE
# ---------------------------------------------------------------------------

def test_zero_velocity_fixes_labels():
    nf = identity_noise_flow(GRID, TIMES)
    lf = integrate_label_flow(zero_velocity(), nf)
    assert np.max(np.abs(lf.Y - GRID.coords()[None])) == 0.0
    assert np.max(np.abs(lf.gradY - np.eye(2))) == 0.0


def test_constant_velocity_translates_labels():
    nf = identity_noise_flow(GRID, TIMES)
    Y = integrate_label_flow(constant_velocity([0.3, -0.1]), nf).Y
    exact = GRID.coords()[None] + TIMES[:, None, None, None] * np.array([0.3, -0.1])
    assert np.max(np.abs(Y - exact)) <= 1e-14


def test_linear_velocity_exact_with_gradient():
    alpha = 0.5
    nf = identity_noise_flow(GRID, TIMES)
    lf = integrate_label_flow(linear_velocity(alpha), nf)
    c = GRID.coords()
    scale = 1.0 + alpha * TIMES
    assert np.max(np.abs(lf.Y - scale[:, None, None, None] * c[None])) <= 1e-10
    assert np.max(np.abs(lf.gradY - scale[:, None, None, None, None] * np.eye(2))) <= 1e-10


def test_label_flow_on_window_prefix_matches_full_run():
    # a stopped window integrates a prefix of the noise grid: its levels do
    # not depend on the velocity frames after it
    Q = make_transport_field(2, "stream", K=2, amplitude=0.1)
    nf = integrate_noise_flow(Q, sample_brownian(2, 0, T, DT, seed=4), GRID)
    c = GRID.coords()
    bump = 0.3 * np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1])
    ubar = TimeSeries(GRID, TIMES, (1.0 + TIMES)[:, None, None, None]
                      * np.stack([bump, -0.5 * bump], axis=-1)[None])
    lf = integrate_label_flow(ubar, nf)
    full = compose_flow(lf)
    k = 7
    lk = integrate_label_flow(ubar.restrict(k), nf)
    for name in ("times", "Y", "gradY", "X", "Dpsi_Y"):
        assert np.array_equal(getattr(lk, name), getattr(lf, name)[:k])
    window = compose_flow(lk)
    assert len(window) == k
    assert np.array_equal(window.X, full.X[:k])
    assert np.array_equal(window.gradX, full.gradX[:k])
    assert np.array_equal(window.J, full.J[:k])
    longer = zero_velocity(times=np.linspace(0.0, T + DT, 52))
    with pytest.raises(ValueError, match="aligned"):
        integrate_label_flow(longer, nf)
    with pytest.raises(ValueError, match="aligned"):
        integrate_label_flow(zero_velocity(times=TIMES[::2]), nf)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_initial_state_is_identity():
    nf = identity_noise_flow(GRID, TIMES)
    lf = integrate_label_flow(linear_velocity(0.4), nf)
    w = compose_flow(lf)
    assert np.max(np.abs(w.X[0] - GRID.coords())) == 0.0
    assert np.max(np.abs(w.Z[0] - np.eye(2))) == 0.0
    assert np.max(np.abs(w.J[0] - 1.0)) == 0.0


def test_linear_drift_jacobian_closed_form():
    alpha = 0.5
    nf = identity_noise_flow(GRID, TIMES)
    lf = integrate_label_flow(linear_velocity(alpha), nf)
    w = compose_flow(lf)
    scale = 1.0 + alpha * T
    assert np.max(np.abs(w.J[-1] - scale**2)) <= 1e-10
    assert np.max(np.abs(w.Z[-1] - np.eye(2) / scale)) <= 1e-10


def test_pure_transport_volume_within_tolerance():
    Q = make_transport_field(2, "stream", K=1, amplitude=0.03)
    b = sample_brownian(1, 0, T, DT, seed=3)
    nf = integrate_noise_flow(Q, b, GRID)
    lf = integrate_label_flow(zero_velocity(), nf)
    assert np.max(np.abs(compose_flow(lf).J - 1.0)) <= 1e-6


def test_jacobian_transport_identity():
    # independently integrated dJ/dt = J grad(u):Z^T matches det grad X
    Q = make_transport_field(2, "rotation", K=1, amplitude=1.0)
    gaps = []
    b = sample_brownian(1, 0, T, DT, seed=11)
    for _ in range(2):
        steps = b.n_steps
        times = np.linspace(0, T, steps + 1)
        ub = linear_velocity(0.4, GRID, times)
        nf = integrate_noise_flow(Q, b, GRID)
        lf = integrate_label_flow(ub, nf)
        window = compose_flow(lf)
        J_ode = jacobian_ode_oracle(ub, window)
        gaps.append(np.max(np.abs(J_ode - window.J)))
        b = refine_bridge(b)
    assert gaps[0] <= 0.2 * DT
    assert gaps[1] <= gaps[0]


def count_plans(monkeypatch):
    """A list that grows by one per ``InterpPlan`` construction."""
    built = []
    init = lagflow.interp.InterpPlan.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(lagflow.interp.InterpPlan, "__init__", counting_init)
    return built


def plan_reach(monkeypatch, grid):
    """A list that grows, per ``InterpPlan`` construction, by the farthest
    any of its points lies outside ``grid``'s box, in cells (0 inside)."""
    reach = []
    init = lagflow.interp.InterpPlan.__init__
    lo, hi = np.array(grid.box).T

    def reaching_init(self, axes, pts, *args, **kwargs):
        flat = np.asarray(pts).reshape(-1, grid.dim)
        past = np.maximum(np.maximum(lo - flat, flat - hi), 0.0)
        reach.append(float(np.max(past / np.array(grid.spacing))))
        init(self, axes, pts, *args, **kwargs)

    monkeypatch.setattr(lagflow.interp.InterpPlan, "__init__", reaching_init)
    return reach


@pytest.mark.parametrize("dim, n, kind, K, amplitude, horizon", [
    (2, 17, "stream", 2, 5e-4, 0.05), (3, 9, "rotation", 1, 1e-3, 0.01)])
def test_workload_labels_stay_far_inside_the_core(dim, n, kind, K, amplitude,
                                                  horizon, monkeypatch):
    # the noise flow holds one cell around the box and raises past it; the
    # benchmark's settings on smaller grids keep every query point within
    # 0.01 cells of the box, so a change that drives the labels out shows
    # here before a benchmark path raises
    g = Grid(dim, n)
    c = g.coords()
    u0 = np.zeros(g.extent + (dim,))
    u0[..., 0] = 1e-3 * np.prod([np.sin(np.pi * c[..., d]) ** 2 for d in range(dim)],
                                axis=0)
    cfg = SolveConfig(T=horizon, dt=DT)
    forcing = StochasticForcing.default_modes(g, 1, 1e-3)
    Q = make_transport_field(dim, kind, K, amplitude)
    b = sample_brownian(K, 1, cfg.T, cfg.dt, seed=0)
    reach = plan_reach(monkeypatch, g)
    with pytest.warns(UserWarning, match="compatibility"):
        sol = picard_solve(Field(g, np.ones(g.extent)), Field(g, u0), FluidParams(),
                           cfg, Q, b, forcing)
    assert sol.converged and len(reach) >= 2 * len(sol.times) - 1
    assert 0.0 < max(reach) < 0.01


@pytest.mark.parametrize("dim", [2, 3])
def test_flow_stage_matches_per_level_compose_oracle(dim, monkeypatch):
    # the stage samples psi and Dpsi with the label flow's stage-0 plans:
    # its window equals the per-level composition bit for bit, on the whole
    # window and on a stopped prefix, and it builds 2L - 1 plans
    if dim == 2:
        g, Q = Grid(2, (17, 19)), make_transport_field(2, "stream", K=2, amplitude=0.1)
    else:
        g, Q = Grid(3, (9, 10, 11)), make_transport_field(3, "rotation", K=1, amplitude=1.0)
    cfg = SolveConfig(T=0.02, dt=DT)
    times = cfg.times
    nf = integrate_noise_flow(Q, sample_brownian(Q.K, 0, cfg.T, DT, seed=7), g)
    c = g.coords()
    bump = 0.3 * np.prod([np.sin(np.pi * c[..., d]) for d in range(dim)], axis=0)
    scale = (1.0 + 10.0 * times).reshape((-1,) + (1,) * (dim + 1))
    ubar = TimeSeries(g, times, scale * np.stack([bump] + [-0.5 * bump] * (dim - 1), axis=-1))
    for u, with_X in ((ubar, True), (ubar.restrict(6), True), (ubar, False)):
        built = count_plans(monkeypatch)
        window, grad_u = _flow_stage(u, nf, with_X)
        assert len(built) == 2 * len(u) - 1
        assert np.array_equal(grad_u, gradient_values(g, u.values))
        monkeypatch.undo()
        lf = integrate_label_flow(u, nf)
        want = per_level_compose(nf, lf.Y, lf.gradY)
        assert len(window) == len(u)
        # an iterate's window (with_X False) samples no X
        assert (window.X is None) is not with_X
        for name in ("times", "X", "gradX", "Z", "J") if with_X else (
                "times", "gradX", "Z", "J"):
            assert np.array_equal(getattr(window, name), getattr(want, name)), name
    assert np.max(np.abs(window.gradX - np.eye(dim))) > 1e-3   # a nontrivial map


def test_only_the_rebuild_samples_x(monkeypatch):
    # no iterate's window holds X (apply_Psi's results), and the returned
    # window, the rebuild's, is the per-level composition of the converged
    # drift bit for bit, X included
    g = Grid(2, 17)
    c = g.coords()
    u0 = np.zeros(g.extent + (2,))
    u0[..., 0] = 1e-2 * np.prod([np.sin(np.pi * c[..., d]) ** 2 for d in range(2)],
                                axis=0)
    cfg = SolveConfig(T=0.02, dt=DT)
    Q = make_transport_field(2, "stream", 2, 1e-2)
    b = sample_brownian(2, 1, cfg.T, cfg.dt, seed=3)
    fp = lagflow.fixedpoint
    integrate, apply = fp.integrate_noise_flow, fp.apply_Psi
    flows, iterate_X = [], []

    def kept_noise_flow(*args):
        flows.append(integrate(*args))
        return flows[-1]

    def watched_apply(*args):
        res = apply(*args)
        iterate_X.append(res.window.X)
        return res

    monkeypatch.setattr(fp, "integrate_noise_flow", kept_noise_flow)
    monkeypatch.setattr(fp, "apply_Psi", watched_apply)
    with pytest.warns(UserWarning, match="compatibility"):
        sol = picard_solve(Field(g, np.ones(g.extent)), Field(g, u0), FluidParams(),
                           cfg, Q, b, StochasticForcing.default_modes(g, 1, 1e-3))
    assert sol.converged and len(iterate_X) == sol.iterations >= 2
    assert all(X is None for X in iterate_X)
    lf = integrate_label_flow(sol.ubar, flows[0])
    want = per_level_compose(flows[0], lf.Y, lf.gradY)
    for name in ("times", "X", "gradX", "Z", "J"):
        assert np.array_equal(getattr(sol.window, name), getattr(want, name)), name
    assert np.max(np.abs(sol.window.X - g.coords())) > 1e-4    # X moved


@pytest.mark.parametrize("dim", [2, 3])
def test_label_flow_matches_contract_oracle(dim):
    # the component-major variational sums hold the bits of the node-major
    # contract sums in every output, on the whole window and a stopped one
    if dim == 2:
        g, Q = Grid(2, (17, 19)), make_transport_field(2, "stream", K=2, amplitude=0.1)
    else:
        g, Q = Grid(3, (9, 10, 11)), make_transport_field(3, "rotation", K=1, amplitude=1.0)
    cfg = SolveConfig(T=0.02, dt=DT)
    times = cfg.times
    nf = integrate_noise_flow(Q, sample_brownian(Q.K, 0, cfg.T, DT, seed=5), g)
    if dim == 3:
        # a rigid rotation has grad Dpsi^{-1} = 0; a smooth made-up gradient
        # puts every term of the chain-rule sum to work
        pts = np.stack(np.meshgrid(*nf.axes, indexing="ij"), axis=-1)
        bumps = np.sin(np.pi * pts[..., :, None, None] - pts[..., None, :, None]
                       + 2.0 * pts[..., None, None, :])
        nf = dataclasses.replace(nf, grad_Dpsi_inv=nf.grad_Dpsi_inv + 0.5 * bumps)
    c = g.coords()
    waves = [np.sin((d + 1) * np.pi * c[..., d] + 0.3) * np.cos(np.pi * c[..., -1 - d])
             for d in range(dim)]
    scale = (1.0 + 20.0 * times).reshape((-1,) + (1,) * dim)
    values = np.stack([0.4 * (1 - 2 * (d % 2)) * scale * waves[d] for d in range(dim)],
                      axis=-1)
    values[:, 0] = -0.0                 # a face of signed zeros in the drift
    ubar = TimeSeries(g, times, values)
    for u in (ubar, ubar.restrict(7)):
        got, want = integrate_label_flow(u, nf), contract_label_flow(u, nf)
        for name in ("times", "Y", "gradY", "X", "Dpsi_Y", "grad_ubar"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and np.array_equal(a, b), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name
    assert np.max(np.abs(got.gradY - np.eye(dim))) > 1e-3    # a nontrivial map


def test_singular_level_gets_nan_inverse():
    # one singular level of grad Y (Dpsi(Y) = I, so grad X = grad Y): it
    # gets a NaN Z and the monitor's guard marks it invalid, without a
    # warning; the inverses of the other levels are left alone
    times = TIMES[:5]
    rng = np.random.default_rng(5)
    Y = np.broadcast_to(GRID.coords(), (5,) + GRID.extent + (2,)).copy()
    gradY = np.eye(2) + 0.05 * rng.normal(size=(5,) + GRID.extent + (2, 2))
    gradY[2] = 0.0
    eye = np.broadcast_to(np.eye(2), gradY.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = compose_flow(LabelFlow(times, Y, gradY, Y, eye, 0.0 * eye))
        valid = _valid_levels(w, 0.25, GRID)
    assert np.all(np.isnan(w.Z[2]))
    assert valid.tolist() == [True, True, False, True, True]
    for n in (0, 1, 3, 4):
        assert np.all(np.isfinite(w.Z[n]))
        assert np.array_equal(w.Z[n], mat_inv(w.gradX[n]))


# ---------------------------------------------------------------------------
# direct oracle and factorization consistency
# ---------------------------------------------------------------------------

def test_direct_oracle_no_noise_quadrature():
    # time-affine velocity: Heun time integration is exact
    c = GRID.coords()
    vals = np.stack([(1 + 2 * t) * np.stack([0.2 + 0 * c[..., 0],
                                             0.1 + 0 * c[..., 1]], axis=-1)
                     for t in TIMES])
    ub = TimeSeries(GRID, TIMES, vals)
    Q = make_transport_field(2, "constant", K=0)
    b = sample_brownian(0, 0, T, DT, seed=0)
    X = direct_flow_oracle(ub, Q, b)
    exact = c[None] + np.stack([(t + t**2) * np.array([0.2, 0.1]) for t in TIMES])[
        :, None, None, :]
    assert np.max(np.abs(X - exact)) <= 1e-13


def test_direct_oracle_constant_noise_exact():
    Q = make_transport_field(2, "constant", K=1, amplitude=0.5)
    b = sample_brownian(1, 0, T, DT, seed=6)
    X = direct_flow_oracle(zero_velocity(), Q, b)
    exact = GRID.coords()[None] + np.array([0.5, 0.0]) * b.values[0][:, None, None, None]
    assert np.max(np.abs(X - exact)) <= 1e-13


def smooth_drift_series(grid, times, amp=0.3):
    c = grid.coords()
    base = np.stack([np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]),
                     0.1 + 0.0 * c[..., 0]], axis=-1)
    return TimeSeries(grid, times,
                      np.stack([amp * (1 + t) * base for t in times]))


def test_factorization_matches_direct_oracle():
    Q = make_transport_field(2, "rotation", K=1, amplitude=1.0)
    gaps = []
    b = sample_brownian(1, 0, T, DT, seed=11)
    for _ in range(3):
        times = np.linspace(0, T, b.n_steps + 1)
        ub = smooth_drift_series(GRID, times)
        nf = integrate_noise_flow(Q, b, GRID)
        lf = integrate_label_flow(ub, nf)
        Xc = compose_flow(lf).X
        Xd = direct_flow_oracle(ub, Q, b)
        gaps.append(np.max(np.abs(Xc - Xd)))
        b = refine_bridge(b)
    assert gaps[0] <= 0.05 * DT            # fitted constant, generous
    assert gaps[0] / gaps[1] >= 1.8        # halves under dt halving
    assert gaps[1] / gaps[2] >= 1.8


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def test_invert_translation_flow():
    c = [0.25, -0.15]
    nf = identity_noise_flow(GRID, TIMES)
    lf = integrate_label_flow(constant_velocity(c), nf)
    w = compose_flow(lf)
    assert np.allclose(w.X[-1], GRID.coords() + T * np.array(c), atol=1e-10)


# ---------------------------------------------------------------------------
# stopping monitor
# ---------------------------------------------------------------------------

def test_monitor_stays_open_without_motion():
    nf = identity_noise_flow(GRID, TIMES)
    lf = integrate_label_flow(zero_velocity(), nf)
    mon = stopping_monitor(compose_flow(lf), SolveConfig(), GRID)
    assert not mon.fired
    assert mon.times[-1] == T
    assert np.all(mon.total == 0.0)


# a strong linear drift whose labels stay within one cell of the box
DRIFT_GRID = Grid(2, 9)


def test_monitor_first_crossing_semantics():
    # strong linear drift inflates grad X; tiny delta fires before T
    nf = identity_noise_flow(DRIFT_GRID, TIMES)
    ub = linear_velocity(1.5, DRIFT_GRID)
    lf = integrate_label_flow(ub, nf)
    window = compose_flow(lf)
    cfg = SolveConfig(delta=0.02)
    mon = stopping_monitor(window, cfg, DRIFT_GRID)
    assert mon.fired and mon.times[-1] < T and mon.times[-1] > 0
    k = mon.fired_index
    assert mon.total[k] >= cfg.delta
    assert mon.total[k - 1] < cfg.delta
    one_step = mon.total[k] - mon.total[k - 1]
    assert mon.total[k] <= cfg.delta + one_step + 1e-12


def test_monitor_sigma_monotone_in_delta():
    nf = identity_noise_flow(DRIFT_GRID, TIMES)
    lf = integrate_label_flow(linear_velocity(1.5, DRIFT_GRID), nf)
    window = compose_flow(lf)
    sigmas = []
    for delta in (0.08, 0.04, 0.02, 0.01):
        cfg = SolveConfig(delta=delta)
        sigmas.append(stopping_monitor(window, cfg, DRIFT_GRID).times[-1])
    assert all(s2 <= s1 for s1, s2 in zip(sigmas, sigmas[1:]))


def test_monitor_fires_on_invalid_state():
    nf = identity_noise_flow(DRIFT_GRID, TIMES)
    lf = integrate_label_flow(linear_velocity(1.5, DRIFT_GRID), nf)
    window = compose_flow(lf)
    # delta <= eps_star, so on this spatially constant map the threshold
    # fires first; test_window_ends_before_the_level_the_guard_rejects
    # fires the guard alone
    cfg = SolveConfig(delta=0.05, eps_star=0.05)
    valid = _valid_levels(window, cfg.eps_star, DRIFT_GRID)
    assert not valid.all()
    mon = stopping_monitor(window, cfg, DRIFT_GRID)
    assert mon.fired
    assert len(mon.times) <= np.argmin(valid)


def resummed_window_value(win, n, theta, p, series=0):
    """The O(L^2) sum the monitor used to redo on every frame (oracle).

    Re-adds every stored row of pair terms of frames 0..n-1 of one series,
    in row order, after the L^p-in-time part.
    """
    t = win.times[:n]
    if n < 2:
        return 0.0
    dt = t[1] - t[0]
    lp_pow = np.trapezoid(np.array(win.frame_pow[series, :n]), t)
    sem = 0.0
    for j in range(1, n):
        gaps = t[j] - t[:j]
        sem += 2.0 * np.sum(win.pair_pow[j][series] * dt**2
                            / gaps ** (1.0 + theta * p))
    return (lp_pow + sem) ** (1.0 / p)


@pytest.mark.parametrize("comp", [(), (2, 2)])
def test_window_norm_running_sum_equals_resum(comp):
    rng = np.random.default_rng(11)
    g = Grid(2, (17, 17))
    n = 23
    frames = 1e-2 * np.cumsum(rng.normal(size=(n,) + g.extent + comp), axis=0)
    theta, p = 0.4375, 4.0
    win = SlobodeckijWindow(g, TIMES[:n], theta, p, "H1q", 8.0)
    start = 0
    for size in (1, 5, 2, 7, 8):             # uneven chunks of frames
        win.load(frames[start:start + size])
        for k in range(start, start + size):
            (value,) = win.advance()
            assert value == resummed_window_value(win, k + 1, theta, p)
        start += size
    assert start == n


def series_pair(dim, L, rng):
    """A (d, d) series and a scalar series on one grid, the shapes of the
    monitor's Z - I and J - 1; the first is the larger."""
    g = Grid(dim, (17, 19) if dim == 2 else (9, 10, 11))
    walk = np.cumsum(rng.normal(size=(L,) + g.extent + (dim, dim)), axis=0)
    return g, 3e-2 * walk, 1e-2 * np.cumsum(rng.normal(size=(L,) + g.extent), axis=0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("stop_first", [False, True])
def test_window_series_match_one_series_windows(dim, stop_first):
    # two series through one window (one shared pair-row scratch) get the
    # pair rows, frame powers, running norms and record norms of a window of
    # their own, bit for bit, over uneven loads; with ``stop_first`` both
    # stop where the first series alone reaches delta, mid-load, as the
    # monitor stops at its crossing
    L = 13 if dim == 2 else 9
    g, A, B = series_pair(dim, L, np.random.default_rng(dim))
    times, theta, p, q = TIMES[:L], 0.4375, 4.0, 8.0
    both = SlobodeckijWindow(g, times, theta, p, "H1q", q)
    alone = [SlobodeckijWindow(g, times, theta, p, "H1q", q) for _ in range(2)]
    delta = np.inf
    if stop_first:
        probe = SlobodeckijWindow(g, times, theta, p, "H1q", q)
        probe.load(A)
        delta = [probe.advance()[0] for _ in range(L)][L // 2]
    taken = 0
    for sl in (slice(0, 3), slice(3, 4), slice(4, L)):
        both.load(A[sl], B[sl])
        for win, series in zip(alone, (A, B)):
            win.load(series[sl])
        for _ in range(sl.start, sl.stop):
            values = both.advance()
            assert values == tuple(win.advance()[0] for win in alone)
            taken += 1
            if values[0] >= delta:
                break
        if values[0] >= delta:
            break
    assert taken == (L // 2 + 1 if stop_first else L)
    if stop_first:
        assert values[1] < delta <= values[0]
    for s, win in enumerate(alone):
        assert np.array_equal(both.frame_pow[s], win.frame_pow[0])
        assert all(np.array_equal(a[s], b[0])
                   for a, b in zip(both.pair_pow, win.pair_pow, strict=True))
        pair, frame = win.norms()
        assert np.array_equal(both.norms()[0][s], pair[0])
        assert np.array_equal(both.norms()[1][s], frame[0])
    assert both._diff.size == max(win._diff.size for win in alone)


def test_window_refuses_a_changed_series_count():
    g, A, B = series_pair(2, 4, np.random.default_rng(0))
    win = SlobodeckijWindow(g, TIMES[:4], 0.4375, 4.0, "H1q", 8.0)
    win.load(A[:2], B[:2])
    with pytest.raises(ValueError, match="holds 2 series"):
        win.load(A[2:])
    with pytest.raises(ValueError, match="same frames"):
        win.load(A[2:], B[2:3])


def brute_force_monitor(window, cfg, grid):
    """Monitor totals from per-frame norms and the double-loop H^theta sum."""
    eye = np.eye(grid.dim)
    t = window.times
    dt = t[1] - t[0]

    def htheta(frames, n):
        if n < 2:
            return 0.0
        lp = np.trapezoid(np.array([spatial_norm(grid, f, "H1q", cfg.q) ** cfg.p
                                    for f in frames[:n]]), t[:n])
        sem = sum(2.0 * spatial_norm(grid, frames[j] - frames[i], "H1q", cfg.q) ** cfg.p
                  * dt**2 / (t[j] - t[i]) ** (1.0 + cfg.theta * cfg.p)
                  for j in range(n) for i in range(j))
        return (lp + sem) ** (1.0 / cfg.p)

    Zs = [Z - eye for Z in window.Z]
    Js = [J - 1.0 for J in window.J]
    totals, sup = [], 0.0
    valid = _valid_levels(window, cfg.eps_star, grid)
    for n, gradX in enumerate(window.gradX):
        if not valid[n]:
            return totals, n
        sup = max(sup, spatial_norm(grid, gradX - eye, "H1q", cfg.q))
        totals.append(sup + htheta(Zs, n + 1) + htheta(Js, n + 1))
        if totals[-1] >= cfg.delta:
            return totals, n
    return totals, None


def linear_flow_window():
    """A linear velocity's window: Z and J are constant in space."""
    g = Grid(2, (17, 17))
    times = TIMES[:21]
    nf = identity_noise_flow(g, times)
    lf = integrate_label_flow(linear_velocity(1.5, g, times), nf)
    return g, compose_flow(lf)


def smooth_flow_window(dim):
    """A window whose Z and J vary in space (see ``smooth_window``)."""
    g = Grid(dim, (17, 17) if dim == 2 else (9, 10, 9))
    times = TIMES[:21 if dim == 2 else 11]
    gradX, X = smooth_window(g, times, np.random.default_rng(dim), 1e-2)
    return g, window_of(times, X, gradX)


@pytest.mark.parametrize("make_window, delta, fires", [
    pytest.param(linear_flow_window, 0.02, True, id="0.02-True"),
    pytest.param(linear_flow_window, 1.0, False, id="1.0-False"),
    # these fire mid-window, at level 8 of 21 and level 6 of 11
    pytest.param(lambda: smooth_flow_window(2), 0.26, True, id="smooth-2d"),
    pytest.param(lambda: smooth_flow_window(3), 0.43, True, id="smooth-3d"),
])
def test_monitor_matches_brute_force(make_window, delta, fires):
    g, window = make_window()
    cfg = SolveConfig(delta=delta, eps_star=1.0)   # the guard never fires here
    mon = stopping_monitor(window, cfg, g)
    totals, fired_index = brute_force_monitor(window, cfg, g)
    assert mon.fired == fires
    assert mon.fired_index == fired_index
    np.testing.assert_allclose(mon.total, totals, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# certified windows: the monitor record's bound of the monitor totals
# ---------------------------------------------------------------------------

OPEN = SolveConfig(delta=1e9, eps_star=1e9)      # a monitor that never fires


def smooth_window(grid, times, rng, scale):
    """grad X = I + a(t) B(x) with a(0) = 0 and smooth random B; X = id."""
    c = grid.coords()
    dim = grid.dim
    base = np.zeros(grid.extent + (dim, dim))
    for i in range(dim):
        for j in range(dim):
            k = rng.integers(1, 3, size=dim)
            base[..., i, j] = rng.normal() * np.prod(
                [np.sin(np.pi * k[d] * c[..., d]) for d in range(dim)], axis=0)
    s = times / times[-1]
    amps = scale * (s + 0.3 * np.sin(7.0 * s))
    gradX = np.eye(dim) + amps.reshape((-1,) + (1,) * (dim + 2)) * base
    X = np.broadcast_to(c, (len(times),) + c.shape).copy()
    return gradX, X


def window_of(times, X, gradX):
    return FlowWindow.from_map(times, X, gradX)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]),
       L=st.integers(2, 9), scale=st.sampled_from([1e-3, 1e-2, 5e-2]),
       steps=st.lists(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
                      min_size=1, max_size=3))
def test_record_bound_dominates_exact_totals(seed, dim, L, scale, steps):
    # for a random window W0 and a chain of perturbed windows, each checked
    # against the exact record of W0, the bound stays above the exact
    # monitor totals at every level it covers
    rng = np.random.default_rng(seed)
    grid = Grid(dim, (9, 10, 9)[:dim])
    times = 1e-3 * np.arange(L)
    gradX, X = smooth_window(grid, times, rng, scale)
    record = stopping_monitor(window_of(times, X, gradX), OPEN, grid)
    moved = False
    for size in steps:
        moved = moved or size > 0.0
        gradX = gradX + size * rng.normal(size=gradX.shape) * (
            times / times[-1]).reshape((-1,) + (1,) * (dim + 2))
        window = window_of(times, X, gradX)
        bound = record.bound(window, OPEN, grid)
        exact = stopping_monitor(window, OPEN, grid).total[:L - 1]
        assert np.all(exact <= (1.0 + 1e-9) * bound)
        if not moved:           # no motion: the bound is the exact total
            np.testing.assert_allclose(bound, exact, rtol=1e-12, atol=1e-300)
        assert record.certifies(window, OPEN, grid)


def lifted_windows(lift):
    """A smooth 21-level window on 17^2 and a copy with every level after
    the first lifted by ``lift`` * I."""
    g = Grid(2, (17, 17))
    times = TIMES[:21]
    gradX, X = smooth_window(g, times, np.random.default_rng(4), 5e-2)
    lifted = gradX.copy()
    lifted[1:] += lift * np.eye(2)
    return g, times, window_of(times, X, gradX), window_of(times, X, lifted)


def test_lifted_bound_falls_back_to_the_exact_monitor():
    # a perturbation that lifts the bound to delta is declined: the exact
    # monitor decides the window length, and its record replaces the old one
    g, times, w0, w1 = lifted_windows(2e-3)
    m = len(times) - 1
    mon0 = stopping_monitor(w0, OPEN, g)
    before = mon0.total[:m]
    exact = stopping_monitor(w1, OPEN, g).total[:m]
    bound = mon0.bound(w1, OPEN, g)
    assert before.max() < exact.max() < bound.max()
    # delta between the exact totals and the bound: the window stays whole
    delta = 0.5 * (exact.max() + bound.max())
    cfg = SolveConfig(delta=delta, eps_star=1e9)
    record = stopping_monitor(w0, cfg, g)
    mon, n_frames = _monitor_window(w1, cfg, g, record)
    assert mon is not None and n_frames == len(times)
    assert mon.fired_index in (None, m)         # no crossing before the last level
    assert mon is not record and len(mon.times) == len(times)
    # delta between the record's totals and the perturbed ones: it fires
    delta = 0.5 * (before[-1] + exact[-1])
    cfg = SolveConfig(delta=delta, eps_star=1e9)
    record = stopping_monitor(w0, cfg, g)
    mon, n_frames = _monitor_window(w1, cfg, g, record)
    want = stopping_monitor(w1, cfg, g)
    assert want.fired and want.fired_index < m
    assert mon is not None and mon.fired_index == want.fired_index
    assert n_frames == want.fired_index + 1 < len(times)
    # an unperturbed window is certified without a monitor run
    assert _monitor_window(w0, cfg, g, record) == (None, len(times))


def identity_window_with(level, bad):
    """An 8-level identity window on 17^2 whose level ``level`` the
    inversion guard rejects: J = -1 there (``bad`` "folded"), or
    grad X = 1.3 I, beyond eps_star = 0.25 (``bad`` "stretched")."""
    g = Grid(2, (17, 17))
    times = 1e-3 * np.arange(8)
    gradX = np.broadcast_to(np.eye(2), (8,) + g.extent + (2, 2)).copy()
    gradX[level] = np.diag([1.0, -1.0]) if bad == "folded" else 1.3 * np.eye(2)
    X = np.broadcast_to(g.coords(), (8,) + g.extent + (2,)).copy()
    return g, FlowWindow.from_map(times, X, gradX)


@pytest.mark.parametrize("bad", ["folded", "stretched"])
def test_window_ends_before_the_level_the_guard_rejects(bad):
    # the exact run takes in the 4 levels before the rejected one, and the
    # window keeps those 4, with or without an earlier record: no level the
    # guard rejected reaches the assembly, where a singular J gives a NaN Z
    g, window = identity_window_with(4, bad)
    cfg = SolveConfig()
    assert _valid_levels(window, cfg.eps_star, g).tolist() == [
        True] * 4 + [False] + [True] * 3
    record = stopping_monitor(identity_window_with(7, bad)[1].restrict(7),
                              cfg, g)
    assert not record.fired and len(record.times) == 7
    for earlier in (None, record):
        mon, n_frames = _monitor_window(window, cfg, g, earlier)
        assert mon.fired and mon.fired_index == 4
        assert len(mon.times) == n_frames == 4


@pytest.mark.parametrize("bad", ["folded", "stretched"])
def test_record_declines_a_window_whose_last_level_is_rejected(bad):
    # the bound covers the levels before the last, but the guard covers
    # every level: a window whose only rejected level is its last is
    # declined, and the exact monitor keeps the 7 levels before it
    g, window = identity_window_with(7, bad)
    cfg = SolveConfig()
    record = stopping_monitor(identity_window_with(7, bad)[1].restrict(7),
                              cfg, g)
    assert np.all(record.bound(window, cfg, g) == 0.0)
    assert not record.certifies(window, cfg, g)
    assert record.certifies(window.restrict(7), cfg, g)
    mon, n_frames = _monitor_window(window, cfg, g, record)
    assert mon.fired_index == 7 and n_frames == len(mon.times) == 7


def test_a_window_rejected_at_its_first_step_is_refused():
    # fewer than two usable levels leave no window: the iterates raise the
    # rebuild's error
    g, window = identity_window_with(1, "stretched")
    with pytest.raises(RuntimeError, match="no usable window"):
        _monitor_window(window, SolveConfig(), g)


def test_certifies_leaves_the_record_unchanged():
    # the lifted window of the test above is declined and a slightly moved
    # window is certified; neither verdict changes a field or a bit of the
    # record, and no field of it can be assigned
    g, times, w0, w1 = lifted_windows(2e-3)
    m = len(times) - 1
    exact = stopping_monitor(w1, OPEN, g).total[:m]
    bound = stopping_monitor(w0, OPEN, g).bound(w1, OPEN, g)
    cfg = SolveConfig(delta=0.5 * (exact.max() + bound.max()), eps_star=1e9)
    record = stopping_monitor(w0, cfg, g)
    assert record.Z is w0.Z and record.J is w0.J
    before = {f.name: getattr(record, f.name)
              for f in dataclasses.fields(record)}
    bits = {name: np.array(value).tobytes() for name, value in before.items()}
    w2 = lifted_windows(1e-7)[3]
    assert not record.certifies(w1, cfg, g)
    assert record.certifies(w2, cfg, g)
    for name, value in before.items():
        assert getattr(record, name) is value, name
        assert np.array(value).tobytes() == bits[name], name
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.Z = w2.Z
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.times = record.times[:m]


def test_record_keeps_only_its_window_z_and_j_alive():
    # bound reads the exact run's Z and J, so the record holds no other
    # stack of its window: X and grad X go with the window
    g, times, w0, w1 = lifted_windows(2e-3)
    stacks = {name: weakref.ref(getattr(w0, name))
              for name in ("X", "gradX", "Z", "J")}
    record = stopping_monitor(w0, OPEN, g)
    del w0, w1
    gc.collect()
    alive = {name for name, ref in stacks.items() if ref() is not None}
    assert alive == {"Z", "J"}
    assert record.Z is stacks["Z"]() and record.J is stacks["J"]()


# ---------------------------------------------------------------------------
# auxiliary estimates
# ---------------------------------------------------------------------------

def fit_inverse_det_constant(grid, n_frames, seed):
    """Fitted Lipschitz constant of A -> (A^{-1}, det A) near the identity."""
    rng = np.random.default_rng(seed)
    c = grid.coords()
    base = np.zeros(grid.extent + (2, 2))
    for i in range(2):
        for j in range(2):
            k = rng.integers(1, 3, size=2)
            base[..., i, j] = np.sin(np.pi * k[0] * c[..., 0]) * np.sin(
                np.pi * k[1] * c[..., 1])
    times = np.linspace(0, 1, n_frames)
    amps = 0.02 * np.sin(2 * np.pi * times) + 0.03 * times
    A = np.eye(2) + amps[:, None, None, None, None] * base[None]
    Z = mat_inv(A)
    J = mat_det(A)
    thetap, q = 0.4375, 4.0
    ts_A = TimeSeries(grid, times, A - np.eye(2))
    ts_Z = TimeSeries(grid, times, Z - np.eye(2))
    ts_J = TimeSeries(grid, times, J - 1.0)
    from lagflow.fields import slobodeckij_time_seminorm
    num = (slobodeckij_time_seminorm(ts_Z, thetap, 4, "H1q", q)
           + slobodeckij_time_seminorm(ts_J, thetap, 4, "H1q", q))
    den = (slobodeckij_time_seminorm(ts_A, thetap, 4, "H1q", q)
           + max(spatial_norm(grid, f, "H1q", q) for f in ts_A.values))
    return num / den


def test_inverse_determinant_stability_constant():
    # fitted constant stable within 20% under time refinement
    g = Grid(2, (17, 17))
    c1 = fit_inverse_det_constant(g, 9, seed=1)
    c2 = fit_inverse_det_constant(g, 17, seed=1)
    assert abs(c2 / c1 - 1.0) <= 0.2


def test_composition_estimate_fitted_constant():
    # |F(Y)|_{H2q} <= C (1 + |Y-id| + |Y-id|^2) |F| with one workable C
    g = Grid(2, (17, 17))
    Q = make_transport_field(2, "stream", K=1, amplitude=0.3)
    rng = np.random.default_rng(8)
    c = g.coords()

    def random_label_map(amp):
        disp = np.zeros(g.extent + (2,))
        for d in range(2):
            k = rng.integers(1, 3, size=2)
            disp[..., d] = amp * np.sin(np.pi * k[0] * c[..., 0]) * np.sin(
                np.pi * k[1] * c[..., 1])
        return c + disp

    fnorm = 1.0  # closed-form family, absorbed into the fitted constant
    ratios = []
    for amp in (0.0, 0.01, 0.05, 0.1, 0.2):
        Y = random_label_map(amp)
        dev = spatial_norm(g, Y - c, "H2q", 4)
        comp = spatial_norm(g, Q.value(0, Y), "H2q", 4)
        ratios.append(comp / (fnorm * (1 + dev + dev**2)))
    c_fit = max(ratios[:3])
    assert max(ratios[3:]) <= 1.5 * c_fit


def test_smalltime_label_bound():
    # calibrated beta <= 1/8 implies |Y - id| <= 7 beta (1 + slack)
    g = Grid(2, (17, 17))
    times = np.linspace(0, T, 26)
    nf = identity_noise_flow(g, times)
    p, q = 4.0, 4.0
    L_a = 1.0 + np.sqrt(2.0)  # identity coefficient in the Frobenius surrogate
    rng = np.random.default_rng(21)
    c = g.coords()

    def random_drift():
        base = np.zeros(g.extent + (2,))
        for d in range(2):
            k = rng.integers(1, 3, size=2)
            base[..., d] = rng.normal() * np.sin(np.pi * k[0] * c[..., 0]) * np.sin(
                np.pi * k[1] * c[..., 1])
        amp = rng.uniform(0.2, 1.0)
        return TimeSeries(g, times, np.stack([amp * (1 + 0.5 * t) * base for t in times]))

    def measure(ub):
        Y = integrate_label_flow(ub, nf).Y
        ystar = max(spatial_norm(g, Y[n] - c, "H2q", q) for n in range(len(times)))
        hnorms = np.array([spatial_norm(g, v, "H2q", q) for v in ub.values])
        B_b = np.trapezoid(hnorms**p, times) ** (1 / p)
        return ystar, L_a * T ** (1 - 1 / p) * B_b

    # calibrate the collapsed constant on one batch, verify on a fresh batch
    cs = []
    for _ in range(10):
        ystar, bare = measure(random_drift())
        if ystar > 0:
            cs.append(ystar / (bare * (1 + ystar + ystar**2)))
    c_fit = max(cs)
    for _ in range(10):
        ystar, bare = measure(random_drift())
        beta = c_fit * bare
        if beta <= 1.0 / 8.0:
            assert ystar <= 7.0 * beta * 1.2
