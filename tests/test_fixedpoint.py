import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import lagflow.fixedpoint
import lagflow.flow
import lagflow.lame
from lagflow.eulerian import validate_solution
from lagflow.fields import Field, Grid, TimeSeries, spatial_norm
from lagflow.fixedpoint import (
    PicardDivergence,
    SolveConfig,
    apply_Psi,
    compatibility_check,
    contraction_probe,
    e1_norm,
    picard_solve,
    problem_for,
    solve_reference,
)
from lagflow.flow import identity_noise_flow, integrate_noise_flow
from lagflow.lame import FluidParams, LameOperator, apply_B, solve_stoch_convolution
from lagflow.noise import StochasticForcing, make_transport_field, sample_brownian
from map_oracle import apply_Psi_deterministic

GRID = Grid(2, (33, 33))
PARAMS = FluidParams()  # p(rho_min) = p_ext: equilibrium density is 1


def equilibrium_data():
    return Field(GRID, np.ones(GRID.extent)), Field.zeros(GRID, rank=1)


def perturbed_data(amp=1e-3):
    c = GRID.coords()
    u0 = amp * np.stack(
        [np.sin(np.pi * c[..., 0]) ** 2 * np.sin(np.pi * c[..., 1]) ** 2,
         np.zeros(GRID.extent)], axis=-1)
    return Field(GRID, np.ones(GRID.extent)), Field(GRID, u0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validates_exponents():
    with pytest.raises(ValueError):
        SolveConfig(p=2.0)
    with pytest.raises(ValueError):
        SolveConfig(q=3.0)
    with pytest.raises(ValueError):
        SolveConfig(p=2.5, q=4.0)  # 2/p + 3/q = 1.55
    with pytest.raises(ValueError):
        SolveConfig(delta=0.3)
    with pytest.raises(ValueError):
        SolveConfig(T=0.05, dt=0.003)
    cfg = SolveConfig()
    assert cfg.theta == pytest.approx(0.5 - 1.0 / 16.0)


@pytest.mark.parametrize("field, bad, edge", [
    ("picard_max_iter", 0, 1), ("picard_tol", 0.0, 1e-300),
    ("picard_tol", -1e-9, 1e-300),
])
def test_config_validates_picard_settings(field, bad, edge):
    with pytest.raises(ValueError, match=field):
        SolveConfig(**{field: bad})
    assert getattr(SolveConfig(**{field: edge}), field) == edge


@pytest.mark.parametrize("field, bad", [
    ("r", float("nan")), ("R", float("nan")), ("picard_max_iter", 2.5),
    ("picard_max_iter", float("nan")), ("T", float("inf")),
])
def test_config_rejects_nan_radii_and_fractional_iteration_caps(field, bad):
    # a NaN r would turn off both ball tests of picard_solve, since every
    # comparison with NaN is False; a fractional cap would fail in range(),
    # an infinite horizon in round()
    with pytest.raises(ValueError, match="ball radii|picard_max_iter|horizon"):
        SolveConfig(**{field: bad})


@pytest.mark.parametrize("T, dt", [(-0.05, -1e-3), (0.05, 0.0), (0.05, -1e-3)])
def test_config_rejects_non_positive_time_step(T, dt):
    # a negative step with a negative horizon divides it, and would run the
    # time grid 0, -0.001, ... backwards
    with pytest.raises(ValueError, match="time step must be positive"):
        SolveConfig(T=T, dt=dt)


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------

def test_compatibility_equilibrium_zero():
    rho0, u0 = equilibrium_data()
    op = LameOperator(GRID, rho0, PARAMS)
    assert compatibility_check(op, rho0, u0, PARAMS) == 0.0


def test_compatibility_rigid_rotation_zero():
    rho0, _ = equilibrium_data()
    c = GRID.coords()
    u0 = Field(GRID, np.stack([c[..., 1], -c[..., 0]], axis=-1))
    op = LameOperator(GRID, rho0, PARAMS)
    assert compatibility_check(op, rho0, u0, PARAMS) <= 1e-11


def test_compatibility_shear_hand_value():
    params = FluidParams(mu=1.0, lam=0.0)
    rho0, _ = equilibrium_data()
    c = GRID.coords()
    u0 = Field(GRID, np.stack([c[..., 0], np.zeros(GRID.extent)], axis=-1))
    op = LameOperator(GRID, rho0, params)
    # S(grad u0) N on the x1-faces is (+-2, 0)
    assert compatibility_check(op, rho0, u0, params) == pytest.approx(
        2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# reference solution
# ---------------------------------------------------------------------------

def test_reference_equilibrium_is_zero():
    rho0, u0 = equilibrium_data()
    cfg = SolveConfig()
    op = LameOperator(GRID, rho0, PARAMS)
    v = solve_reference(op, rho0, u0, PARAMS, cfg)
    assert np.max(np.abs(v.values)) == 0.0


def test_reference_tracks_boundary_data():
    # constant pressure mismatch: the traction of v_ref matches the data
    params = FluidParams(p_ext=0.9)
    rho0 = Field(GRID, np.ones(GRID.extent))
    u0 = Field.zeros(GRID, rank=1)
    cfg = SolveConfig()
    op = LameOperator(GRID, rho0, params)
    v = solve_reference(op, rho0, u0, params, cfg)
    idx, normals = GRID.boundary_nodes()
    target = (1.0 - 0.9) * normals
    for n in (10, 50):
        got = apply_B(op, Field(GRID, v.values[n]))
        assert np.max(np.abs(got - target)) <= 1e-9
    assert np.max(np.abs(v.values)) > 0


def test_reference_window_norm_shrinks_with_horizon():
    params = FluidParams(p_ext=0.9)
    rho0 = Field(GRID, np.ones(GRID.extent))
    u0 = Field.zeros(GRID, rank=1)
    op = LameOperator(GRID, rho0, params)
    # One dt for every horizon: it must divide each T (SolveConfig rejects
    # it otherwise), and E1 of the reference solution is not dt-converged
    # with incompatible traction data, so norms taken at different time
    # steps are not comparable. At a shared dt the shorter run is a prefix
    # of the longer one, which is why its norm must not be larger.
    runs, norms = [], []
    for T in (0.05, 0.025, 0.0125):
        cfg = SolveConfig(T=T, dt=1.25e-3)
        v = solve_reference(op, rho0, u0, params, cfg)
        runs.append(v)
        norms.append(e1_norm(v, cfg.p, cfg.q))
    for longer, shorter in zip(runs, runs[1:]):
        assert np.array_equal(shorter.times, longer.times[:len(shorter)])
        assert np.array_equal(shorter.values, longer.values[:len(shorter)])
    assert norms[1] <= norms[0]
    assert norms[2] <= norms[1]


def per_frame_e1_norm(ts, p, q):
    """E1 norm from one spatial_norm call per frame and per difference quotient."""
    dt = ts.times[1] - ts.times[0]
    h2 = np.array([spatial_norm(ts.grid, f, "H2q", q) for f in ts.values])
    quot = np.array([spatial_norm(ts.grid, (b - a) / dt, "Lq", q)
                     for a, b in zip(ts.values, ts.values[1:])])
    return (np.trapezoid(h2**p, ts.times) ** (1 / p)
            + float(np.sum(quot**p * dt) ** (1 / p)))


def test_e1_norm_matches_per_frame_loop():
    rng = np.random.default_rng(3)
    _, u0 = perturbed_data()
    times = np.linspace(0.0, 0.05, 51)
    vals = (np.cos(40 * times)[:, None, None, None] * u0.values
            + 1e-4 * np.cumsum(rng.normal(size=(51,) + u0.values.shape), axis=0))
    ts = TimeSeries(GRID, times, vals)
    for k in (2, 17, 51):
        short = ts.restrict(k)
        assert e1_norm(short, 4.0, 8.0) == pytest.approx(
            per_frame_e1_norm(short, 4.0, 8.0), rel=1e-12)


# ---------------------------------------------------------------------------
# solution map
# ---------------------------------------------------------------------------

def test_psi_fixes_equilibrium():
    rho0, u0 = equilibrium_data()
    cfg = SolveConfig()
    problem = problem_for(rho0, u0, PARAMS, cfg)
    times = cfg.times
    zero = TimeSeries(GRID, times, np.zeros((len(times),) + GRID.extent + (2,)))
    nf = identity_noise_flow(GRID, times)
    res = apply_Psi(zero, zero, problem, nf)
    assert np.max(np.abs(res.v.values)) <= 1e-12
    assert res.monitor.times[-1] == cfg.T


def test_psi_self_map_stays_in_ball():
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    problem = problem_for(rho0, u0, PARAMS, cfg)
    v_ref = problem.v_ref
    times = cfg.times
    zeroU = TimeSeries(GRID, times, np.zeros((len(times),) + GRID.extent + (2,)))
    nf = identity_noise_flow(GRID, times)
    res = apply_Psi(v_ref, zeroU, problem, nf)
    k = len(res.v)
    gap = e1_norm(TimeSeries(GRID, times[:k],
                             res.v.values[:k] - v_ref.values[:k]), cfg.p, cfg.q)
    assert gap <= cfg.r
    assert np.max(np.abs(res.v.values[0] - u0.values)) == 0.0


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def test_picard_equilibrium_one_iteration():
    rho0, u0 = equilibrium_data()
    cfg = SolveConfig()
    Q0 = make_transport_field(2, "constant", K=0)
    b = picard_solve(rho0, u0, PARAMS, cfg, Q0, None, None)
    assert b.converged
    assert b.iterations == 1
    assert np.max(np.abs(b.v.values)) <= 1e-10
    assert b.tau == cfg.T
    assert b.rho.min() == PARAMS.rho_min
    assert b.kappa == 0.0


def test_picard_perturbed_contracts():
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    Q0 = make_transport_field(2, "constant", K=0)
    with pytest.warns(UserWarning, match="compatibility"):
        b = picard_solve(rho0, u0, PARAMS, cfg, Q0, None, None)
    assert b.converged
    ratios = [d2 / d1 for d1, d2 in zip(b.diffs, b.diffs[1:]) if d1 > 0]
    assert all(r < 1.0 for r in ratios)
    assert b.kappa < 0.5
    # every iterate keeps the initial condition
    assert np.max(np.abs(b.v.values[0] - u0.values)) == 0.0


def test_picard_sin_perturbation_with_warning():
    # incompatible initial data is reported and the run proceeds
    c = GRID.coords()
    u0 = Field(GRID, 1e-3 * np.stack(
        [np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]),
         np.zeros(GRID.extent)], axis=-1))
    rho0 = Field(GRID, np.ones(GRID.extent))
    Q0 = make_transport_field(2, "constant", K=0)
    with pytest.warns(UserWarning, match="compatibility"):
        b = picard_solve(rho0, u0, PARAMS, SolveConfig(), Q0, None, None)
    assert b.converged
    assert b.kappa < 0.5


def test_picard_deterministic_same_seed_identical():
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    Q = make_transport_field(2, "stream", K=2, amplitude=1e-4)
    forcing = StochasticForcing.default_modes(GRID, 1, 1e-3)
    runs = []
    for _ in range(2):
        bw = sample_brownian(2, 1, cfg.T, cfg.dt, seed=7)
        with pytest.warns(UserWarning, match="compatibility"):
            runs.append(picard_solve(rho0, u0, PARAMS, cfg, Q, bw, forcing))
    assert np.array_equal(runs[0].v.values, runs[1].v.values)
    assert np.array_equal(runs[0].rho, runs[1].rho)
    assert runs[0].tau == runs[1].tau
    assert runs[0].seed == 7


def test_picard_fixed_point_residual():
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    Q0 = make_transport_field(2, "constant", K=0)
    with pytest.warns(UserWarning, match="compatibility"):
        b = picard_solve(rho0, u0, PARAMS, cfg, Q0, None, None)
    # |Psi(v) - v| <= 2 tol at the converged iterate
    assert b.diffs[-1] <= 2 * cfg.picard_tol


def test_picard_noise_without_bundle_raises(monkeypatch):
    # transport fields or forcing modes with no Brownian paths to drive
    # them are an input error, not a noise-free run, refused before the
    # shared problem is looked up (so no compatibility warning is issued)
    def no_work(*args):
        raise AssertionError("the bundle was not checked up front")
    monkeypatch.setattr(lagflow.fixedpoint, "problem_for", no_work)
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    Q = make_transport_field(2, "stream", K=2, amplitude=1e-4)
    forcing = StochasticForcing.default_modes(GRID, 1, 1e-3)
    Q0 = make_transport_field(2, "constant", K=0)
    for Q_in, forcing_in, match in [(Q, None, "transport fields"),
                                    (Q0, forcing, "forcing modes")]:
        with pytest.raises(ValueError, match=match):
            picard_solve(rho0, u0, PARAMS, cfg, Q_in, None, forcing_in)


@pytest.mark.parametrize("T, dt", [(0.04, 1e-3), (0.05, 5e-4), (0.06, 1e-3)],
                         ids=["shorter", "finer", "longer"])
def test_picard_rejects_a_bundle_on_another_time_grid(T, dt, monkeypatch):
    # a shorter bundle used to fail in a broadcast, a finer one in the label
    # flow, and a longer one ran the noise flow and U on its extra levels;
    # all three are refused before the shared problem is even looked up
    def no_work(*args):
        raise AssertionError("the time grids were not compared up front")
    monkeypatch.setattr(lagflow.fixedpoint, "problem_for", no_work)
    rho0, u0 = perturbed_data()
    Q = make_transport_field(2, "stream", K=2, amplitude=5e-4)
    forcing = StochasticForcing.default_modes(GRID, 1, 1e-3)
    bw = sample_brownian(Q.K, forcing.M, T, dt, seed=3)
    with pytest.raises(ValueError, match=r"time grid .*50 steps of 0\.001"):
        picard_solve(rho0, u0, PARAMS, SolveConfig(), Q, bw, forcing)


class ProblemReached(Exception):
    pass


@pytest.mark.parametrize("forcing_grid, Q, error", [
    (Grid(2, (17, 17)), make_transport_field(2, "stream", 2, 5e-4),
     "forcing mode lives on .*17, 17.*33, 33"),
    (GRID, make_transport_field(3, "rotation", 1, 1e-3),
     "3D transport fields on a 2D grid"),
    (Grid(2, (33, 33)), make_transport_field(2, "stream", 2, 5e-4), None),
], ids=["forcing-on-another-grid", "3d-field-on-2d-grid", "equal-grid"])
def test_picard_checks_the_grid_of_every_input(forcing_grid, Q, error,
                                               monkeypatch):
    # forcing modes on another grid used to fail in a broadcast of the
    # stochastic convolution, a 3D field on a 2D grid in the noise flow; an
    # equal grid instance passes the check and reaches the shared problem
    def reached(*args):
        raise ProblemReached
    monkeypatch.setattr(lagflow.fixedpoint, "problem_for", reached)
    rho0, u0 = perturbed_data()
    forcing = StochasticForcing.default_modes(forcing_grid, 1, 1e-3)
    cfg = SolveConfig()
    bw = sample_brownian(Q.K, forcing.M, cfg.T, cfg.dt, seed=3)
    with pytest.raises(ProblemReached if error is None else ValueError,
                       match=error):
        picard_solve(rho0, u0, PARAMS, cfg, Q, bw, forcing)


@pytest.mark.parametrize("K, M, bundle_paths", [
    (0, 1, (2, 1)), (2, None, (2, 1)), (2, 1, (2, 2)),
], ids=["transport-paths", "mode-paths-without-forcing", "mode-paths"])
def test_picard_checks_the_path_counts_of_the_bundle(K, M, bundle_paths,
                                                     monkeypatch):
    # a bundle with paths no transport field reads, or mode paths without
    # forcing, used to run silently, and a mode-count mismatch failed only
    # in the stochastic convolution, after the operator's factorization
    def no_work(*args):
        raise AssertionError("the path counts were not compared up front")
    monkeypatch.setattr(lagflow.fixedpoint, "problem_for", no_work)
    rho0, u0 = perturbed_data()
    Q = make_transport_field(2, "stream", K, 5e-4)
    forcing = None if M is None else StochasticForcing.default_modes(GRID, M, 1e-3)
    cfg = SolveConfig()
    bw = sample_brownian(*bundle_paths, cfg.T, cfg.dt, seed=3)
    error = (f"{K} transport fields and {M or 0} forcing modes need as many "
             f"Brownian paths, the bundle has {bundle_paths[0]} and "
             f"{bundle_paths[1]}")
    with pytest.raises(ValueError, match=error):
        picard_solve(rho0, u0, PARAMS, cfg, Q, bw, forcing)


@pytest.mark.parametrize("which", ["u0-on-another-grid", "scalar-u0",
                                   "vector-rho0"])
def test_picard_needs_scalar_rho0_and_vector_u0_on_one_grid(which,
                                                            monkeypatch):
    # each case used to fail inside scipy with a matmul dimension mismatch
    def no_work(*args):
        raise AssertionError("the initial data were not checked up front")
    monkeypatch.setattr(lagflow.fixedpoint, "problem_for", no_work)
    rho0, u0 = perturbed_data()
    if which == "u0-on-another-grid":
        small = Grid(2, (17, 17))
        u0, match = Field.zeros(small, rank=1), r"\(17, 17, 2\) on .*17, 17"
    elif which == "scalar-u0":
        u0, match = Field(GRID, u0.values[..., 0]), r"u0 of shape \(33, 33\) "
    else:
        rho0, match = Field(GRID, u0.values + 1.0), r"rho0 of shape \(33, 33, 2\)"
    Q0 = make_transport_field(2, "constant", K=0)
    with pytest.raises(ValueError, match=match):
        picard_solve(rho0, u0, PARAMS, SolveConfig(), Q0, None, None)


@pytest.mark.parametrize("which, bad", [("rho0", np.nan), ("rho0", np.inf),
                                        ("u0", np.nan), ("u0", -np.inf)])
def test_picard_refuses_non_finite_initial_data(which, bad, monkeypatch):
    # each case used to fail only after the operator was built: SuperLU
    # found a NaN density's step matrix exactly singular, and an infinite
    # density or a NaN velocity gave a non-finite linear solve
    def no_work(*args):
        raise AssertionError("the initial data were not checked up front")
    monkeypatch.setattr(lagflow.fixedpoint, "problem_for", no_work)
    rho0, u0 = perturbed_data()
    (rho0 if which == "rho0" else u0).values[5, 7] = bad
    Q0 = make_transport_field(2, "constant", K=0)
    with pytest.raises(ValueError, match="rho0 and u0 must be finite"):
        picard_solve(rho0, u0, PARAMS, SolveConfig(), Q0, None, None)


def test_picard_ball_violation_aborts():
    rho0, u0 = perturbed_data(amp=1.0)  # far too large for the tiny ball
    cfg = SolveConfig(r=1e-8, R=5.0, picard_tol=1e-15)
    Q0 = make_transport_field(2, "constant", K=0)
    # These data are incompatible on purpose, so every run warns.
    # At R = 5 the reference solution alone is outside the iteration ball:
    # the configuration is rejected before any iterate.
    with pytest.warns(UserWarning, match="compatibility"):
        with pytest.raises(ValueError, match="ball radii"):
            picard_solve(rho0, u0, PARAMS, cfg, Q0, None, None)
    # With R admissible for this reference, the first iterate leaves the
    # centered ball of radius r and the iteration aborts.
    op = LameOperator(GRID, rho0, PARAMS)
    v_ref = solve_reference(op, rho0, u0, PARAMS, cfg)
    cfg = dataclasses.replace(cfg, R=2 * (cfg.r + e1_norm(v_ref, cfg.p, cfg.q)))
    with pytest.warns(UserWarning, match="compatibility"):
        with pytest.raises(PicardDivergence, match="centered ball") as exc:
            picard_solve(rho0, u0, PARAMS, cfg, Q0, None, None)
    assert len(exc.value.diffs) == 1


def test_picard_ball_norm_runs_only_near_r(monkeypatch):
    # The first iterate's ball norm is its difference d_1, and a later
    # iterate's is bounded by d_1 + ... + d_k, so picard_solve takes the
    # exact norm only when that sum comes within the 1e-9 margin of r.
    rho0, u0 = perturbed_data()
    Q0 = make_transport_field(2, "constant", K=0)
    iterates = []
    solution_map = lagflow.fixedpoint.apply_Psi

    def recording_map(*args, **kwargs):
        res = solution_map(*args, **kwargs)
        iterates.append((res.v.values, len(res.v)))
        return res

    def counted_solve(cfg):
        problem_for(rho0, u0, PARAMS, cfg)   # E1(v_ref) is not counted
        calls = []
        e1 = lagflow.fixedpoint.e1_norm

        def counting_e1(*args):
            calls.append(e1(*args))
            return calls[-1]

        monkeypatch.setattr(lagflow.fixedpoint, "e1_norm", counting_e1)
        monkeypatch.setattr(lagflow.fixedpoint, "apply_Psi", recording_map)
        iterates.clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return picard_solve(rho0, u0, PARAMS, cfg, Q0, None, None), calls
        except PicardDivergence:
            return None, calls
        finally:
            monkeypatch.undo()

    cfg = SolveConfig()
    b, calls = counted_solve(cfg)
    assert b.converged and b.iterations >= 3
    assert calls == b.diffs                 # no ball norm at all
    # the exact ball norms of the iterates, on their shrinking windows
    v_ref, times, n = b.problem.v_ref, cfg.times, len(cfg.times)
    balls = []
    for v, n_frames in iterates:
        n = min(n, n_frames)
        balls.append(e1_norm(TimeSeries(GRID, times[:n], v[:n] - v_ref.values[:n]),
                             cfg.p, cfg.q))
    assert balls[0] == b.diffs[0]
    bound = sum(b.diffs[:2])
    assert max(balls[1:]) < bound
    # r between the true ball norms and the bound: the exact norm runs
    # from the second iterate on, finds every iterate inside, and the
    # iteration is unchanged
    r = 0.5 * (max(balls[1:]) + bound)
    b_near, calls = counted_solve(dataclasses.replace(cfg, r=r))
    assert b_near.diffs == b.diffs and np.array_equal(b_near.v.values, b.v.values)
    assert len(calls) == 2 * b.iterations - 1
    assert calls[0] == b.diffs[0]
    assert calls[1::2] == b.diffs[1:] and calls[2::2] == balls[1:]
    # r below d_1: the first iterate leaves the ball on its difference alone
    b_out, calls = counted_solve(dataclasses.replace(cfg, r=0.5 * b.diffs[0]))
    assert b_out is None and calls == b.diffs[:1]


def test_picard_monotone_window():
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    Q = make_transport_field(2, "stream", K=2, amplitude=1e-4)
    bw = sample_brownian(2, 0, cfg.T, cfg.dt, seed=3)
    with pytest.warns(UserWarning, match="compatibility"):
        b = picard_solve(rho0, u0, PARAMS, cfg, Q, bw, None)
    assert b.tau <= b.monitor.times[-1] + 1e-15


def test_picard_stopped_window_on_noise_path():
    # The monitor fires in the first iterate; the later iterates and the
    # final rebuild run on the stopped window, a prefix of the noise grid.
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    Q = make_transport_field(2, "stream", K=2, amplitude=1e-3)
    forcing = StochasticForcing.default_modes(GRID, 2, 1e-3)
    bw = sample_brownian(2, 2, cfg.T, cfg.dt, seed=1)
    with pytest.warns(UserWarning, match="compatibility"):
        b = picard_solve(rho0, u0, PARAMS, cfg, Q, bw, forcing)
    assert b.converged
    assert b.monitor.fired
    assert b.tau == b.monitor.times[-1]
    assert len(b.times) < len(cfg.times)
    assert len(b.v) == len(b.rho) == len(b.window) == len(b.times)
    assert b.rho_positive and b.rho.min() > 0
    assert validate_solution(b, PARAMS)["passed"]


def budget_case_2d():
    # 33^2 stream noise whose monitor fires at level 2 of 51
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    return (rho0, u0, cfg, make_transport_field(2, "stream", K=2, amplitude=1e-3),
            StochasticForcing.default_modes(GRID, 2, 1e-3),
            sample_brownian(2, 2, cfg.T, cfg.dt, seed=1))


def budget_case_3d():
    # the 13^3 rotation-noise inputs of the benchmark's solid3d workload;
    # the monitor does not fire, and the iterates after the first are
    # certified
    grid = Grid(3, 13)
    c = grid.coords()
    u = np.zeros(grid.extent + (3,))
    u[..., 0] = 1e-3 * np.prod([np.sin(np.pi * c[..., d]) ** 2
                                for d in range(3)], axis=0)
    cfg = SolveConfig(T=0.01)
    return (Field(grid, np.ones(grid.extent)), Field(grid, u), cfg,
            make_transport_field(3, "rotation", K=1, amplitude=1e-3),
            StochasticForcing.default_modes(grid, 1, 1e-3),
            sample_brownian(1, 1, cfg.T, cfg.dt, seed=0))


# tracemalloc peaks of the picard_solves below, measured with these set-ups
# once each level stack is held only while a reader needs it, the monitor's
# two series share one pair-row scratch and only the rebuild samples X; both
# sit in the first iterate's exact monitor.  They were 28,028,909 B and
# 32,422,302 B with a scratch per series and X on every iterate, and the
# 13^3 solve peaked at 36,189,083 B before that, in the rebuild's monitor,
# with the noise flow, the last iterate's window and the last certified
# window still alive.  The margin of 5% (1.4 MB in
# 2D, 1.6 MB in 3D) is less than one whole-window grad X or Z stack of
# either solve.
PICARD_PEAK_MARGIN = 1.05


def solve_with_peak(case, monkeypatch):
    """picard_solve on ``case``'s inputs: the bundle, its tracemalloc peak
    and the number of exact monitor runs."""
    rho0, u0, cfg, Q, forcing, bw = case
    problem_for(rho0, u0, PARAMS, cfg)   # the noise-free work is shared
    exact_runs = []
    monitor = lagflow.fixedpoint.stopping_monitor

    def counted_monitor(*args):
        exact_runs.append(1)
        return monitor(*args)

    monkeypatch.setattr(lagflow.fixedpoint, "stopping_monitor", counted_monitor)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            b = picard_solve(rho0, u0, PARAMS, cfg, Q, bw, forcing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return b, peak, len(exact_runs)


def test_picard_allocation_budget(monkeypatch):
    b, peak, _ = solve_with_peak(budget_case_2d(), monkeypatch)
    assert b.converged and b.monitor.fired
    assert peak <= PICARD_PEAK_MARGIN * 25_306_619


def test_picard_allocation_budget_at_13_cubed(monkeypatch):
    b, peak, exact_runs = solve_with_peak(budget_case_3d(), monkeypatch)
    # the first iterate and the rebuild: the other iterates were certified
    assert b.converged and b.iterations >= 3
    assert not b.monitor.fired and exact_runs == 2
    assert peak <= PICARD_PEAK_MARGIN * 30_854_198


def test_picard_holds_each_stack_only_while_it_is_read(monkeypatch):
    # no flow stage starts with an earlier iterate's grad X alive (the
    # monitor record keeps only Z and J), only the rebuild samples X, the
    # rebuild's exact monitor runs without the noise flow and without any
    # earlier window's Z, and every exact monitor holds one pair-row scratch
    # for its two series while they advance
    rho0, u0, cfg, Q, forcing, bw = budget_case_3d()
    fp = lagflow.fixedpoint
    integrate, flow_stage, monitor = (fp.integrate_noise_flow, fp._flow_stage,
                                      fp.stopping_monitor)
    window_cls = lagflow.flow.SlobodeckijWindow
    advance = window_cls.advance
    noise, windows, last_monitor, scratch, scratch_alive = [], [], [], [], set()

    def alive(refs):
        gc.collect()
        return [ref() is not None for ref in refs]

    def noise_flow(*args):
        nf = integrate(*args)
        noise.append(weakref.ref(nf))
        return nf

    def watched_stage(*args, **kwargs):
        assert not any(alive([gx for gx, _ in windows]))
        window, grad_ubar = flow_stage(*args, **kwargs)
        windows.append((weakref.ref(window.gradX), weakref.ref(window.Z)))
        sampled.append(window.X is not None)
        return window, grad_ubar

    def watched_monitor(*args):
        last_monitor[:] = alive(noise + [z for _, z in windows[:-1]])
        return monitor(*args)

    def watched_advance(self):
        # the window's scratch rows, by identity: every one ever made, and
        # how many of them are alive at each step of the series
        if not any(ref() is self._rows[0] for ref in scratch):
            scratch.append(weakref.ref(self._rows[0]))
        scratch_alive.add(sum(ref() is not None for ref in scratch))
        return advance(self)

    sampled = []
    monkeypatch.setattr(fp, "integrate_noise_flow", noise_flow)
    monkeypatch.setattr(fp, "_flow_stage", watched_stage)
    monkeypatch.setattr(fp, "stopping_monitor", watched_monitor)
    monkeypatch.setattr(window_cls, "advance", watched_advance)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        b = picard_solve(rho0, u0, PARAMS, cfg, Q, bw, forcing)
    assert len(windows) == b.iterations + 1 >= 3
    assert last_monitor == [False] * (1 + b.iterations)    # psi, each Z
    assert sampled == [False] * b.iterations + [True]
    assert len(scratch) == 2 and scratch_alive == {1}   # first iterate, rebuild


# ---------------------------------------------------------------------------
# energy identity without noise
# ---------------------------------------------------------------------------

def noise_free_energy_residual(n, dt):
    """R = E(T) + int_0^T D dt - E(0) and int D (trapezoid rule) of the
    noise-free run of u0 = 0.1 prod sin^2(pi x_d) e_1 on n^2 to T = 0.02."""
    grid = Grid(2, (n, n))
    c = grid.coords()
    u0 = np.zeros(grid.extent + (2,))
    u0[..., 0] = 0.1 * np.prod([np.sin(np.pi * c[..., d]) ** 2
                                for d in range(2)], axis=0)
    cfg = SolveConfig(T=0.02, dt=dt, delta=0.25)
    with pytest.warns(UserWarning, match="compatibility"):
        b = picard_solve(Field(grid, np.ones(grid.extent)), Field(grid, u0),
                         FluidParams(), cfg, make_transport_field(2, "constant", K=0),
                         None, None)
    assert b.converged and b.tau == cfg.T
    energy, dissipation = b.energy["energy"], b.energy["dissipation"]
    spent = float(np.trapezoid(dissipation, b.times))
    return float(energy[-1] + spent - energy[0]), spent


def test_noise_free_run_keeps_the_energy_identity():
    # without noise dE/dt = -D: the discrete residual stays below 5% of the
    # dissipated energy on 17^2 and 33^2 (at most 3.6% measured), and at
    # 33^2 it falls with dt (by 2.86x measured), the first order of the
    # time stepping
    residuals = {}
    for n in (17, 33):
        for dt in (1e-3, 5e-4):
            R, spent = noise_free_energy_residual(n, dt)
            assert abs(R) <= 0.05 * spent, (n, dt, R, spent)
            residuals[n, dt] = R
    assert abs(residuals[33, 1e-3]) >= 1.6 * abs(residuals[33, 5e-4])


# ---------------------------------------------------------------------------
# contraction probe
# ---------------------------------------------------------------------------

def probe_setup(T=0.05, delta=0.1, seed=0):
    rho0, u0 = perturbed_data()
    problem = problem_for(rho0, u0, PARAMS, SolveConfig(T=T, delta=delta))
    cfg = problem.cfg
    Q = make_transport_field(2, "stream", K=2, amplitude=1e-4)
    forcing = StochasticForcing.default_modes(GRID, 1, 1e-3)
    bw = sample_brownian(2, 1, cfg.T, cfg.dt, seed=seed)
    U = solve_stoch_convolution(problem.op, forcing, bw)
    nf = integrate_noise_flow(Q, bw, GRID)
    return problem, U, nf


def test_probe_rejects_equal_inputs():
    problem, U, nf = probe_setup()
    with pytest.raises(ValueError):
        contraction_probe(problem.v_ref, problem.v_ref, U, problem, nf)


def test_probe_kappa_below_one_and_scales_with_T():
    kappas = {}
    for T in (0.05, 0.025):
        problem, U, nf = probe_setup(T=T)
        r1 = apply_Psi(problem.v_ref, U, problem, nf)
        kappas[T] = contraction_probe(problem.v_ref, r1.v, U, problem, nf)
    assert kappas[0.05] < 1.0
    assert kappas[0.025] < kappas[0.05]


def test_probe_kappa_monotone_in_delta():
    kappas = {}
    for delta in (0.1, 0.05):
        problem, U, nf = probe_setup(delta=delta)
        r1 = apply_Psi(problem.v_ref, U, problem, nf)
        kappas[delta] = contraction_probe(problem.v_ref, r1.v, U, problem, nf)
    assert kappas[0.05] <= kappas[0.1] + 1e-15


# ---------------------------------------------------------------------------
# deterministic reduction
# ---------------------------------------------------------------------------

def test_deterministic_path_matches_generic():
    # Two Picard sequences from v_ref, one through apply_Psi with the
    # identity noise flow and zero U, one through the label-ODE oracle, for
    # as many iterates as the generic solver takes.
    rho0, u0 = perturbed_data()
    cfg = SolveConfig()
    Q0 = make_transport_field(2, "constant", K=0)
    with pytest.warns(UserWarning, match="compatibility"):
        b_gen = picard_solve(rho0, u0, PARAMS, cfg, Q0,
                             sample_brownian(0, 0, cfg.T, cfg.dt, 0), None)
    problem = problem_for(rho0, u0, PARAMS, cfg)
    times = cfg.times
    zeroU = TimeSeries(GRID, times, np.zeros((len(times),) + GRID.extent + (2,)))
    nf = identity_noise_flow(GRID, times)
    v_gen = v_det = problem.v_ref
    for _ in range(b_gen.iterations):
        r_gen = apply_Psi(v_gen, zeroU, problem, nf)
        r_det = apply_Psi_deterministic(v_det, problem)
        assert len(r_gen.v) == len(r_det.v)
        assert np.max(np.abs(r_gen.v.values - r_det.v.values)) <= 1e-10
        w_gen, w_det = r_gen.window, r_det.window
        # an iterate samples no X; its grad X is the deterministic X's
        assert w_gen.X is None
        assert np.max(np.abs(w_gen.gradX - w_det.gradX)) <= 1e-10
        assert np.max(np.abs(w_gen.J - w_det.J)) <= 1e-10
        assert np.max(np.abs(rho0.values / w_gen.J
                             - rho0.values / w_det.J)) <= 1e-10
        v_gen, v_det = r_gen.v, r_det.v
    # the generic sequence is the one picard_solve ran
    assert np.array_equal(v_gen.values[:len(b_gen.v)], b_gen.v.values)


# ---------------------------------------------------------------------------
# one problem (operator, factorization, reference) for every path of a setup
# ---------------------------------------------------------------------------

def small_problem():
    grid = Grid(2, (13, 13))
    c = grid.coords()
    u0 = 1e-3 * np.stack(
        [np.sin(np.pi * c[..., 0]) ** 2 * np.sin(np.pi * c[..., 1]) ** 2,
         np.zeros(grid.extent)], axis=-1)
    cfg = SolveConfig(T=0.01)
    Q = make_transport_field(2, "stream", K=2, amplitude=1e-4)
    forcing = StochasticForcing.default_modes(grid, 1, 1e-3)
    return Field(grid, np.ones(grid.extent)), Field(grid, u0), cfg, Q, forcing


def solve_path(rho0, u0, cfg, Q, forcing, seed):
    bw = sample_brownian(Q.K, forcing.M, cfg.T, cfg.dt, seed=seed)
    # the one-sided traction stencils of u0 are O(h^2) off zero at 13^2
    with pytest.warns(UserWarning, match="compatibility"):
        return picard_solve(rho0, u0, PARAMS, cfg, Q, bw, forcing)


def test_picard_paths_share_one_factorization(monkeypatch):
    counts = {"splu": 0, "init": 0, "reference": 0}
    splu = lagflow.lame.spla.splu
    init = LameOperator.__init__
    reference = lagflow.fixedpoint.solve_reference

    def counting_splu(*args, **kwargs):
        counts["splu"] += 1
        return splu(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counting_reference(*args, **kwargs):
        counts["reference"] += 1
        return reference(*args, **kwargs)

    monkeypatch.setattr(lagflow.lame.spla, "splu", counting_splu)
    monkeypatch.setattr(LameOperator, "__init__", counting_init)
    monkeypatch.setattr(lagflow.fixedpoint, "solve_reference",
                        counting_reference)
    rho0, u0, cfg, Q, forcing = small_problem()
    solve_path(rho0, u0, cfg, Q, forcing, seed=1)
    b = solve_path(rho0, u0, cfg, Q, forcing, seed=2)
    assert counts == {"splu": 1, "init": 1, "reference": 1}
    # validation takes the operator of the bundle's problem
    assert validate_solution(b, PARAMS)["passed"]
    assert counts == {"splu": 1, "init": 1, "reference": 1}


def test_problem_for_shares_equal_content():
    rho0, u0, cfg, _, _ = small_problem()
    problem = problem_for(rho0, u0, PARAMS, cfg)
    # equal values, params and configuration in new objects hit the slot
    again = problem_for(rho0.copy(), u0.copy(), FluidParams(),
                        dataclasses.replace(cfg))
    assert again is problem
    assert problem.cfg == cfg and problem.cfg is not cfg
    assert problem.ref_norm == e1_norm(problem.v_ref, cfg.p, cfg.q)


def test_problem_for_rebuilds_on_other_content():
    rho0, u0, cfg, _, _ = small_problem()
    grid = rho0.grid
    problem = problem_for(rho0, u0, PARAMS, cfg)
    rho0.values[6, 6] = 1.5
    edited = problem_for(rho0, u0, PARAMS, cfg)
    assert edited is not problem
    assert problem.rho0.values[6, 6] == 1.0      # the problem holds a copy
    assert (edited.op.A != problem.op.A).nnz > 0
    u0.values[6, 6, 1] = 1e-3
    moved = problem_for(rho0, u0, PARAMS, cfg)
    assert moved is not edited
    assert not np.array_equal(moved.v_ref.values, edited.v_ref.values)
    cfg.T = 0.02                                 # edited in place
    longer = problem_for(rho0, u0, PARAMS, cfg)
    assert longer is not moved
    assert len(longer.v_ref) == 21
    other_params = FluidParams(mu=2.0)
    reparam = problem_for(rho0, u0, other_params, cfg)
    assert reparam is not longer
    fresh = Grid(2, grid.extent)
    assert problem_for(Field(fresh, rho0.values.copy()),
                       Field(fresh, u0.values.copy()),
                       other_params, cfg) is not reparam
    assert grid._cache["problem"] is reparam     # one slot per grid


def test_validate_solution_rejects_other_params():
    rho0, u0, cfg, Q, forcing = small_problem()
    b = solve_path(rho0, u0, cfg, Q, forcing, seed=1)
    with pytest.raises(ValueError, match="params"):
        validate_solution(b, FluidParams(mu=2.0))


def test_validation_gaps_use_the_problem_exponents():
    # s = 2 - 2/p with the solved problem's p and q; the default p = 4,
    # q = 8 give 7.544e-4 on this path
    rho0, u0, _, Q, forcing = small_problem()
    cfg = SolveConfig(p=6.0, q=12.0, T=0.01)
    b = solve_path(rho0, u0, cfg, Q, forcing, seed=1)
    gap = validate_solution(b, PARAMS)["regularity"]["max_frame_gap"]
    assert gap == pytest.approx(1.1656e-3, rel=1e-3)


def test_picard_warm_operator_matches_cold():
    rho0, u0, cfg, Q, forcing = small_problem()
    solve_path(rho0, u0, cfg, Q, forcing, seed=1)
    warm = solve_path(rho0, u0, cfg, Q, forcing, seed=2)
    rho0_c, u0_c, cfg, Q, forcing = small_problem()
    assert rho0_c.grid is not rho0.grid
    cold = solve_path(rho0_c, u0_c, cfg, Q, forcing, seed=2)
    assert np.array_equal(warm.v.values, cold.v.values)
    assert np.array_equal(warm.rho, cold.rho)
    assert (warm.tau, warm.kappa, warm.iterations) == (
        cold.tau, cold.kappa, cold.iterations)


# ---------------------------------------------------------------------------
# certified iterates: the exact monitor on the first iterate and the rebuild
# ---------------------------------------------------------------------------

def noise_setup(dim, kind, amplitude, T):
    grid = Grid(dim, (17, 17) if dim == 2 else (9, 9, 9))
    c = grid.coords()
    u0 = np.zeros(grid.extent + (dim,))
    u0[..., 0] = 1e-3 * np.prod([np.sin(np.pi * c[..., d]) ** 2
                                 for d in range(dim)], axis=0)
    return (Field(grid, np.ones(grid.extent)), Field(grid, u0), SolveConfig(T=T),
            make_transport_field(dim, kind, K=2 if dim == 2 else 1,
                                 amplitude=amplitude),
            StochasticForcing.default_modes(grid, 1, 1e-3))


CERTIFIED_PATHS = {
    "2d-open": ((2, "stream", 5e-4, 0.02), 0, False),
    "2d-fired": ((2, "stream", 1e-3, 0.02), 2, True),
    "3d-open": ((3, "rotation", 1e-3, 0.005), 0, False),
}


@pytest.mark.parametrize("case", CERTIFIED_PATHS)
def test_certified_iterates_match_exact_monitors(case, monkeypatch):
    # the same path with every certificate declined runs the exact monitor
    # on every iterate; the certified run must give the same bits
    args, seed, fires = CERTIFIED_PATHS[case]
    rho0, u0, cfg, Q, forcing = noise_setup(*args)
    verdicts = []
    certifies = lagflow.flow.MonitorResult.certifies

    def counting(self, *a):
        verdicts.append(certifies(self, *a))
        return verdicts[-1]

    monkeypatch.setattr(lagflow.flow.MonitorResult, "certifies", counting)
    got = solve_path(rho0, u0, cfg, Q, forcing, seed)
    assert got.monitor.fired == fires
    assert len(verdicts) == got.iterations - 1 and all(verdicts)
    monkeypatch.setattr(lagflow.flow.MonitorResult, "certifies",
                        lambda self, *a: False)
    want = solve_path(rho0, u0, cfg, Q, forcing, seed)
    assert np.array_equal(got.v.values, want.v.values)
    assert np.array_equal(got.rho, want.rho)
    assert (got.tau, got.iterations, got.kappa, got.diffs) == (
        want.tau, want.iterations, want.kappa, want.diffs)
    for f in dataclasses.fields(got.monitor):
        if f.compare:
            assert np.array_equal(getattr(got.monitor, f.name),
                                  getattr(want.monitor, f.name)), f.name


def test_converged_path_runs_two_exact_monitors(monkeypatch):
    calls = []
    monitor = lagflow.fixedpoint.stopping_monitor

    def counting(*args):
        calls.append(len(args[0]))
        return monitor(*args)

    monkeypatch.setattr(lagflow.fixedpoint, "stopping_monitor", counting)
    rho0, u0, cfg, Q, forcing = noise_setup(2, "stream", 5e-4, 0.02)
    b = solve_path(rho0, u0, cfg, Q, forcing, seed=0)
    assert b.converged and b.iterations >= 3
    assert calls == [len(cfg.times)] * 2      # the first iterate and the rebuild
