"""Reference solution, solution map, and the stopped fixed-point iteration.

One iterate of the solution map: take a velocity v, add the stochastic
convolution U, generate the Lagrangian quantities (Z, J) from the flow of
v + U, reconstruct the density rho0 / J, assemble the nonlinearities, and
solve the linear traction problem for the next velocity.  The iteration is
centered at a reference solution carrying the inhomogeneous boundary data,
and every iterate restarts the flow from t = 0 so the contraction factor is
measured on the map itself.

What a setup (rho0, u0, the fluid constants, the configuration and the
forcing) fixes for every noise path is one ``Problem``, built once per setup
by ``problem_for``: the Lame operator with its step factorization, the
forcing's impulse responses, the reference solution and its E1 norm, and the
initial compatibility residual.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .fields import (
    Field,
    Grid,
    TimeSeries,
    frame_norms,
    step_count,
    time_lp_norm,
)
from .flow import (
    FlowWindow,
    MonitorResult,
    NoiseFlow,
    compose_flow,
    integrate_label_flow,
    integrate_noise_flow,
    stopping_monitor,
)
from .lame import (
    FluidParams,
    LameOperator,
    apply_B,
    solve_lame,
    solve_stoch_convolution,
)
from .nonlinear import (
    assemble_window,
    density_from_jacobian,
    energy_report,
)
from .noise import BrownianBundle, StochasticForcing, TransportField

__all__ = [
    "SolveConfig",
    "Problem",
    "problem_for",
    "SolutionBundle",
    "PicardDivergence",
    "compatibility_check",
    "solve_reference",
    "apply_Psi",
    "picard_solve",
    "contraction_probe",
    "e1_norm",
]


@dataclass
class SolveConfig:
    """Exponents, thresholds, and horizons of one solver run; a value that
    is not finite or fails its bound raises ``ValueError``, NaN included.

    p, q: time, space exponents, 2/p + 3/q < 1; theta = 1/2 - 1/(2q)
    delta: the stopping monitor's threshold, 0 < delta <= eps_star
    eps_star: the bound of the monitor's inversion guard on |grad X - I|
    R, r: the E1 radii of the iteration and centered balls, 0 < r <= R
    T, dt: the finite horizon and a step dividing it (``fields.step_count``)
    picard_tol: the E1 tolerance on the difference of successive iterates
    picard_max_iter: the cap on the iterate count, an integer >= 1
    """

    p: float = 4.0
    q: float = 8.0
    delta: float = 0.1
    eps_star: float = 0.25
    R: float = 5.0
    r: float = 1.0
    T: float = 0.05
    dt: float = 1e-3
    picard_tol: float = 1e-9
    picard_max_iter: int = 12

    def __post_init__(self):
        if not self.p > 2:
            raise ValueError(f"need p > 2, got {self.p}")
        if not self.q > 3:
            raise ValueError(f"need q > 3, got {self.q}")
        if not 2.0 / self.p + 3.0 / self.q < 1:
            raise ValueError(
                f"need 2/p + 3/q < 1, got {2 / self.p + 3 / self.q:.3f}")
        if not 0 < self.delta <= self.eps_star:
            raise ValueError(
                f"need 0 < delta <= eps_star, got {self.delta}, {self.eps_star}")
        step_count(self.T, self.dt)
        if not (self.r > 0 and self.R >= self.r):
            raise ValueError(
                f"ball radii must satisfy 0 < r <= R, got r = {self.r}, "
                f"R = {self.R}")
        if (not isinstance(self.picard_max_iter, numbers.Integral)
                or not self.picard_max_iter >= 1):
            raise ValueError(f"need an integer picard_max_iter >= 1, got "
                             f"{self.picard_max_iter!r}")
        if not self.picard_tol > 0:
            raise ValueError(f"need picard_tol > 0, got {self.picard_tol}")
        # NaN fails a bound above, an infinite value may pass one; delta
        # and r are bounded by eps_star and R
        for name in ("p", "q", "eps_star", "R", "picard_tol"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def theta(self) -> float:
        return 0.5 - 0.5 / self.q

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(step_count(self.T, self.dt) + 1)

    def fits_step(self, step: float) -> bool:
        """Whether ``step`` times the step count is T, to ``step_count``'s
        rounding; False for NaN.  A Brownian bundle's step is checked with
        it and never used: the solve runs on ``times``."""
        reach = step * step_count(self.T, self.dt)
        return abs(reach - self.T) <= 1e-12 * max(self.T, 1.0)


class PicardDivergence(RuntimeError):
    """Iteration failed to contract; carries the measured difference norms."""

    def __init__(self, msg, diffs):
        super().__init__(msg)
        self.diffs = diffs


# ---------------------------------------------------------------------------
# norms and data checks
# ---------------------------------------------------------------------------

def e1_norm(ts: TimeSeries, p: float, q: float) -> float:
    """Solution-space norm: L^p(0,t; H^{2,q}) + W^{1,p}(0,t; L^q)."""
    if len(ts) < 2:
        return 0.0
    tt = ts.times
    dt = tt[1] - tt[0]
    part1 = time_lp_norm(tt, frame_norms(ts.grid, ts.values, "H2q", q), p)
    diff = np.diff(ts.values, axis=0)
    diff /= dt
    quot = frame_norms(ts.grid, diff, "Lq", q)
    part2 = float(np.sum(quot**p * dt) ** (1 / p))
    return part1 + part2


def compatibility_check(op: LameOperator, rho0: Field, u0: Field,
                        params: FluidParams) -> float:
    """Max boundary residual of (S(grad u0) - p(rho0) I) N + p_ext N."""
    resid = apply_B(op, u0) - reference_boundary_data(rho0, params)
    return float(np.max(np.linalg.norm(resid, axis=-1)))


def reference_boundary_data(rho0: Field, params: FluidParams) -> np.ndarray:
    idx, normals = rho0.grid.boundary_nodes()
    p_b = params.pressure(rho0.values[tuple(idx.T)])
    return (p_b[:, None] - params.p_ext) * normals


def solve_reference(op: LameOperator, rho0: Field, u0: Field,
                    params: FluidParams, cfg: SolveConfig) -> TimeSeries:
    """Homogeneous evolution with the pressure-mismatch traction data."""
    times = cfg.times
    g0 = reference_boundary_data(rho0, params)
    g = np.broadcast_to(g0, (len(times) - 1,) + g0.shape)
    return solve_lame(op, None, g, u0, times)


# ---------------------------------------------------------------------------
# the noise-free part of a setup
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """Data of one setup and the results that do not depend on the noise.

    ``rho0``, ``u0``, ``cfg`` and ``forcing`` are copies taken when the
    problem was built, out of reach of an in-place edit of the caller's.
    ``responses`` (``LameOperator.forcing_responses``, read by every path's
    U) hold M d N doubles per lag for M modes: with M = 1, 0.84 MB on
    ``solid3d`` (13^3, 11 levels), 0.64 MB on ``stopped2d`` (25^2, 51
    levels) and 16 MB at 25^2 and 1601 levels.
    """

    rho0: Field
    u0: Field
    params: FluidParams
    cfg: SolveConfig
    forcing: StochasticForcing
    op: LameOperator           # holds the step factorization once used
    responses: np.ndarray      # the forcing's impulse responses, (lags, M, N d)
    v_ref: TimeSeries          # reference solution on cfg.times
    ref_norm: float            # E1(v_ref)
    compat: float              # initial compatibility residual


def _setup_arrays(rho0: Field, u0: Field, forcing: StochasticForcing) -> list:
    """The arrays a lookup compares (the amplitudes count the modes)."""
    return [rho0.values, u0.values, forcing.amplitudes,
            *(m.values for m in forcing.modes)]


def problem_for(rho0: Field, u0: Field, params: FluidParams,
                cfg: SolveConfig, forcing: StochasticForcing) -> Problem:
    """The grid's problem for these inputs, built on a miss.

    rho0 and u0 other than a scalar and a vector field on one grid or not
    finite, and forcing modes on another grid, raise ``ValueError`` before
    any work.  The grid keeps one slot.  A lookup hits only when the params
    and the configuration compare equal and the values of rho0, u0 and the
    forcing's amplitudes and modes are equal element by element; other
    content builds a new problem, factorization included, which no
    benchmark workload or ``tests/output_digest.py`` run pays: each keeps
    one forcing per setup.  The problem lives as long as the grid (about
    34 MB of resident memory at 13^3, most of it the factorization).
    """
    grid = rho0.grid
    if (rho0.values.shape != grid.extent or u0.grid != grid
            or u0.values.shape != grid.extent + (grid.dim,)):
        raise ValueError(
            f"need a scalar rho0 and a vector u0 on one grid, got rho0 of "
            f"shape {rho0.values.shape} on {grid} and u0 of shape "
            f"{u0.values.shape} on {u0.grid}")
    if not (np.all(np.isfinite(rho0.values)) and np.all(np.isfinite(u0.values))):
        raise ValueError("rho0 and u0 must be finite")
    if forcing.M > 0 and forcing.modes[0].grid != grid:
        raise ValueError(f"a forcing mode lives on {forcing.modes[0].grid}, "
                         f"the problem on {grid}")
    hit = grid._cache.get("problem")
    if (hit is not None and hit.params == params and hit.cfg == cfg
            and all(map(np.array_equal, _setup_arrays(rho0, u0, forcing),
                        _setup_arrays(hit.rho0, hit.u0, hit.forcing)))):
        return hit
    grid._cache.pop("problem", None)  # release the old factorizations first
    rho0, u0, cfg = rho0.copy(), u0.copy(), replace(cfg)
    forcing = StochasticForcing([m.copy() for m in forcing.modes],
                                forcing.amplitudes.copy())
    op = LameOperator(grid, rho0, params)
    v_ref = solve_reference(op, rho0, u0, params, cfg)
    responses = op.forcing_responses(forcing, cfg.dt, len(cfg.times))
    problem = Problem(rho0, u0, params, cfg, forcing, op, responses, v_ref,
                      e1_norm(v_ref, cfg.p, cfg.q),
                      compatibility_check(op, rho0, u0, params))
    grid._cache["problem"] = problem
    return problem


# ---------------------------------------------------------------------------
# the solution map
# ---------------------------------------------------------------------------

@dataclass
class PsiResult:
    """One application of the solution map.

    ``v`` and ``window`` hold the usable levels only; the window holds no
    X (``FlowWindow.X`` is None), which no iterate reads.  ``monitor`` is the
    exact stopping monitor of the flow window, whose ``times`` are those
    levels.  It is None on an iterate of ``picard_solve`` whose window an
    earlier exact result certified (``flow.MonitorResult.certifies``): the
    monitor provably keeps every level there without a run.
    """

    v: TimeSeries
    window: FlowWindow
    monitor: MonitorResult | None


def _drift(v: TimeSeries, U: TimeSeries) -> TimeSeries:
    """ubar = v + U on the window of v."""
    return TimeSeries(v.grid, v.times, v.values + U.values[: len(v)])


def _monitor_window(window: FlowWindow, cfg: SolveConfig, grid: Grid,
                    record: MonitorResult | None = None,
                    ) -> tuple[MonitorResult | None, int]:
    """Stopping monitor of the flow window and the usable window length.

    With an earlier exact ``record``, a window it certifies keeps all its
    levels without a monitor run (the monitor is None); otherwise it keeps
    the exact monitor's ``times``, and fewer than 2 raise ``RuntimeError``.
    """
    if record is not None and record.certifies(window, cfg, grid):
        return None, len(window)
    monitor = stopping_monitor(window, cfg, grid)
    if len(monitor.times) < 2:
        raise RuntimeError("the flow became invalid within the first step; "
                           "no usable window")
    return monitor, len(monitor.times)


def _flow_stage(ubar: TimeSeries, nf: NoiseFlow, q: float,
                with_X: bool) -> FlowWindow:
    """Label flow and composition X = psi o Y: the window of ``ubar``.

    ``ubar`` may be shorter than the noise flow (a stopped window of an
    earlier iterate); the flow is integrated on its levels only.  The label
    flow samples Dpsi on Y with the plans of its Heun stage 0 (plus one on
    the last level) and forms grad X = Dpsi(Y) grad Y there, so the stage
    builds 2L - 1 interpolation plans for L levels, holds no stack of Y,
    grad Y or Dpsi(Y), and the composition only inverts.  It samples
    X = psi(Y) with the same plans only ``with_X``, for a caller that reads
    X: the rebuild, not an iterate, whose window keeps neither X nor grad X,
    only the per-level |grad X - I| values of the monitor at the exponent
    ``q`` (``FlowWindow``).  The label flow ends here.
    """
    return compose_flow(integrate_label_flow(ubar, nf, with_X), ubar.grid, q)


def _assemble_and_solve(ubar: TimeSeries, window: FlowWindow,
                        monitor: MonitorResult, n_frames: int,
                        problem: Problem) -> PsiResult:
    """F_u and F_Gamma on levels 1 .. ``n_frames`` - 1, then the Lame solve.

    A Lame step reads F_u and F_Gamma at the level it steps to, so they are
    the steps' data, and level 0 is not assembled.
    """
    window = window.restrict(n_frames)
    steps = slice(1, n_frames)
    F_u, F_G_b = assemble_window(ubar.grid, ubar.values[steps], window.Z[steps],
                                 window.J[steps], problem.rho0.values,
                                 problem.params)
    v = solve_lame(problem.op, F_u, F_G_b, problem.u0, ubar.times[:n_frames])
    return PsiResult(v, window, monitor)


def apply_Psi(v1: TimeSeries, U: TimeSeries, problem: Problem,
              nf: NoiseFlow, record: MonitorResult | None = None) -> PsiResult:
    """One application of the solution map on the monitored window;
    ``record`` goes to ``_monitor_window``."""
    ubar = _drift(v1, U)
    window = _flow_stage(ubar, nf, problem.cfg.q, with_X=False)
    monitor, n_frames = _monitor_window(window, problem.cfg, ubar.grid, record)
    return _assemble_and_solve(ubar, window, monitor, n_frames, problem)


# ---------------------------------------------------------------------------
# Picard driver
# ---------------------------------------------------------------------------

@dataclass
class SolutionBundle:
    """Everything one pathwise run produces; the norms of the nonlinearities
    come on request from ``nonlinear.nonlinearity_norm_report``.

    Each value is stored once: ``times`` and ``tau`` are read off the window
    (the usable levels [0, tau]), and ``iterations``, ``kappa`` and
    ``converged`` off ``diffs``, the E1 differences of successive iterates.
    """

    grid: Grid
    v: TimeSeries
    U: TimeSeries
    ubar: TimeSeries
    rho: np.ndarray            # density frames on the window
    window: FlowWindow
    monitor: MonitorResult
    diffs: list[float]
    energy: dict
    rho_positive: bool
    problem: Problem
    seed: int | None           # the Brownian bundle's (None without one)
    # (window, margins, volumes) of eulerian's injectivity certificate, set
    # on first use; ``dataclasses.replace`` starts a new bundle without it
    certificate: tuple | None = dc_field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def times(self) -> np.ndarray:
        return self.window.times

    @property
    def tau(self) -> float:
        return float(self.window.times[-1])

    @property
    def iterations(self) -> int:
        return len(self.diffs)

    @property
    def kappa(self) -> float:
        """The last ratio d_{i+1} / d_i of successive differences with
        d_i > 0; 0.0 when there is none."""
        ratios = [b / a for a, b in zip(self.diffs, self.diffs[1:]) if a > 0]
        return float(ratios[-1]) if ratios else 0.0

    @property
    def converged(self) -> bool:
        """Whether the last difference is within the Picard tolerance, the
        one way the iteration stops before its cap."""
        return bool(self.diffs[-1] <= self.problem.cfg.picard_tol)


def picard_solve(rho0: Field, u0: Field, params: FluidParams, cfg: SolveConfig,
                 Q: TransportField, bundle: BrownianBundle | None,
                 forcing: StochasticForcing | None) -> SolutionBundle:
    """Stopped fixed-point iteration of the solution map.

    Starts from the reference solution, iterates until the successive
    difference in the solution norm drops below the Picard tolerance, and
    rebuilds the flow of the converged velocity for the returned record.
    Each iterate runs on the window left by the monitor of the previous
    ones, so the window only shrinks: for the iterates and the rebuild
    alike, a window is the levels its exact stopping monitor took in
    (``MonitorResult.times``, cut by delta or by the inversion guard).
    The record's seed is the Brownian bundle's (None without a bundle); its
    times and tau are the rebuilt window's, and its iteration count, kappa
    and convergence are read off the differences (``SolutionBundle``).

    ``cfg.times`` is the solve's one time grid: U and the noise flow are
    one call each on the bundle's mode and transport increments there
    (zero-row increments without a bundle: K = 0 gives psi = id and M = 0
    gives U = 0), and the label flow reads it off the drift.  The bundle's
    step is only checked (``cfg.fits_step``), never used.

    Every iterate is one ``apply_Psi`` call.  The first runs the exact
    stopping monitor, whose result keeps the pair and frame norms of that
    window.  A later iterate's window is first put to the last exact result
    (``MonitorResult.certifies``): a certified iterate keeps all its levels,
    as the exact monitor would, and carries no monitor result; a declined
    one runs the exact monitor, whose result replaces the last.  The rebuild
    always runs the exact monitor, so the returned ``monitor`` and every
    output are those of exact monitors on every iterate.

    Each level stack is held only while something reads it, and once.  The
    whole solve holds U; the iterates and the rebuild's flow stage hold the
    noise flow (with no grad Dpsi^{-1} for an affine family or K = 0).  A
    flow stage stores grad X (and X) alone, formed level by level
    by the label flow.  Between iterates the loop carries the last velocity (as
    long as the window), the last exact monitor result (its pair and frame
    norms and the Z and J of its window) and the differences; an iterate's
    window (Z, J and the per-level |grad X - I| values: an iterate keeps
    neither X nor grad X, whose stack ends with its composition) and the
    difference stack end with it.  No stage holds a whole-window gradient
    of the drift: the label flow and the assembly each take it a chunk of
    frames at a time.  An exact monitor holds its two series and one
    pair-row scratch they share, 3(L - 1) node rows and a chunk of
    differences.  The rebuild starts without the last result and is the
    one flow stage that samples X, and keeps grad X with it; the noise flow
    goes once that stage, its last reader, has run, so the rebuild's
    monitor, density and energy run on the window, v, U and the drift
    alone.

    Forcing modes or transport fields without a Brownian bundle raise
    ``ValueError``, and so do a bundle on another time grid than
    ``cfg.times`` (another step count, or a step that fails
    ``cfg.fits_step``), a bundle whose transport or mode path count is not
    ``Q.K`` or the forcing's mode count (0 without forcing) and transport
    fields of another dimension, in that order, and then the initial data
    and the forcing's grid (``problem_for``), all before any work.  Three
    aborts: a ``ValueError`` before the first iterate when r + E1(v_ref) >
    R, a ``RuntimeError`` for a window of fewer than 2 levels, and a
    ``PicardDivergence`` carrying the iterate differences when an iterate
    leaves the centered ball of radius r around v_ref, or when the
    differences fail to contract three times in a row.
    The ball norm of the first iterate is its difference; a later iterate is
    inside the ball when (1 + 1e-9) times the sum of the differences so far
    is below r, and only otherwise is its ball norm taken.

    The noise-free part of the run is the ``Problem`` every path of one
    (rho0, u0, params, cfg, forcing) on one grid shares (``problem_for``).
    Its compatibility residual (``compatibility_check``, the one check of
    B u0 = g(0)) above 1e-8 warns on every call; Python's default filter
    shows it once per calling line, ``simplefilter("always")`` on every call.
    """
    times = cfg.times
    if bundle is not None and (bundle.n_steps != len(times) - 1
                               or not cfg.fits_step(bundle.step)):
        raise ValueError(
            f"the Brownian bundle's time grid ({bundle.n_steps} steps of "
            f"{bundle.step:g} to T = {bundle.T:g}) is not the configuration's "
            f"({len(times) - 1} steps of {cfg.dt:g} to T = {cfg.T:g})")
    forcing = StochasticForcing([], []) if forcing is None else forcing
    M = forcing.M
    if bundle is None and (M > 0 or Q.K > 0):
        raise ValueError(f"{'forcing modes' if M > 0 else 'transport fields'} "
                         f"need a Brownian bundle")
    if bundle is not None and (bundle.K, bundle.mode_count) != (Q.K, M):
        raise ValueError(f"{Q.K} transport fields and {M} forcing modes need "
                         f"as many Brownian paths, the bundle has {bundle.K} "
                         f"and {bundle.mode_count}")
    grid = rho0.grid
    if Q.dim != grid.dim:
        raise ValueError(f"{Q.dim}D transport fields on a {grid.dim}D grid")
    problem = problem_for(rho0, u0, params, cfg, forcing)
    if problem.compat > 1e-8:
        warnings.warn(f"initial compatibility residual {problem.compat:.3e}; "
                      "the run proceeds", stacklevel=2)

    if bundle is None:          # K = M = 0: zero-row increments
        dW = dbeta = np.zeros((0, len(times) - 1))
    else:
        dW, dbeta = bundle.transport_increments(), bundle.mode_increments()
    U = solve_stoch_convolution(problem.op, problem.responses, dbeta, times)
    nf = integrate_noise_flow(Q, dW, grid)

    if cfg.r + problem.ref_norm > cfg.R:
        raise ValueError(
            f"ball radii violated: r + |v_ref| = "
            f"{cfg.r + problem.ref_norm:.3g} exceeds R = {cfg.R}")
    v_ref = problem.v_ref

    v_prev = v_ref
    diffs: list[float] = []
    record: MonitorResult | None = None
    rising = 0
    for it in range(1, cfg.picard_max_iter + 1):
        res = apply_Psi(v_prev, U, problem, nf, record)
        if res.monitor is not None:
            record = res.monitor
        v = res.v       # on the iterate's window, which v_prev covers
        del res         # its window is read no more (the record keeps Z, J)
        d = e1_norm(TimeSeries(grid, v.times, v.values - v_prev.values[:len(v)]),
                    cfg.p, cfg.q)
        diffs.append(d)
        # E1 is a seminorm that grows with the window, and the windows only
        # shrink, so |v_k - v_ref| <= d_1 + ... + d_k; the exact ball norm
        # runs only where that sum nears r (the relative margin of
        # MonitorResult.certifies), and for the first iterate it is d_1
        if v_prev is v_ref:
            ball = d
        elif (1.0 + 1e-9) * sum(diffs) < cfg.r:
            ball = None
        else:
            ball = e1_norm(TimeSeries(grid, v.times,
                                      v.values - v_ref.values[:len(v)]),
                           cfg.p, cfg.q)
        if ball is not None and ball > cfg.r:
            raise PicardDivergence(
                f"iterate {it} left the centered ball (|v - v_ref| = {ball:.3g} "
                f"> r = {cfg.r})", diffs)
        v_prev = v
        if d <= cfg.picard_tol:
            break
        if len(diffs) >= 2:
            rising = rising + 1 if diffs[-1] >= diffs[-2] else 0
            if rising >= 3:
                raise PicardDivergence(
                    "successive differences failed to contract for three "
                    "iterations; reduce T or delta", diffs)

    # rebuild the Lagrangian record of the converged velocity
    del record          # the rebuild runs the exact monitor
    ubar = _drift(v_prev, U)
    window = _flow_stage(ubar, nf, cfg.q, with_X=True)
    del nf              # the flow stage was the noise flow's last reader
    monitor, keep = _monitor_window(window, cfg, grid)
    window = window.restrict(keep)
    rho_stack, positive = density_from_jacobian(problem.rho0, window.J,
                                                params.rho_min)
    v_out = v_prev.restrict(keep)
    U_out = U.restrict(keep)
    ubar_out = ubar.restrict(keep)

    energy = energy_report(rho_stack, ubar_out, window, params)
    return SolutionBundle(
        grid, v_out, U_out, ubar_out, rho_stack, window, monitor, diffs,
        energy, positive, problem, None if bundle is None else bundle.seed)


def contraction_probe(v1: TimeSeries, v2: TimeSeries, U: TimeSeries,
                      problem: Problem, nf: NoiseFlow) -> float:
    """kappa = |Psi(v1) - Psi(v2)| / |v1 - v2| on the common window."""
    cfg = problem.cfg
    denom_full = e1_norm(
        TimeSeries(v1.grid, v1.times, v1.values - v2.values), cfg.p, cfg.q)
    if denom_full == 0.0:
        raise ValueError("contraction probe needs two distinct velocities")
    r1 = apply_Psi(v1, U, problem, nf)
    r2 = apply_Psi(v2, U, problem, nf)
    k = min(len(r1.v), len(r2.v))
    num = e1_norm(TimeSeries(v1.grid, v1.times[:k],
                             r1.v.values[:k] - r2.v.values[:k]), cfg.p, cfg.q)
    if k == len(v1):
        return num / denom_full     # no frame cut: the same E1(v1 - v2)
    den = e1_norm(TimeSeries(v1.grid, v1.times[:k],
                             v1.values[:k] - v2.values[:k]), cfg.p, cfg.q)
    return num / den
