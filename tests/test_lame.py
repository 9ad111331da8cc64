import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import derivative_oracle
from convolution_oracle import recursive_stoch_convolution
import lagflow.lame
from lagflow.fields import Field, Grid
from lagflow.fixedpoint import SolveConfig, compatibility_check, picard_solve
from lagflow.lame import (
    FluidParams,
    LameOperator,
    apply_B,
    halfline_decay_rates,
    lopatinskii_check,
    nested_dissection,
    solve_lame,
    solve_stoch_convolution,
    symbol_eigenvalues,
    symbol_matrix,
    traction_eigenpair,
)
from lagflow.noise import (
    BrownianBundle,
    StochasticForcing,
    make_transport_field,
    sample_brownian,
)

GRID = Grid(2, (17, 17))
PARAMS = FluidParams(mu=1.0, lam=0.5)


@pytest.fixture(scope="module")
def op():
    return LameOperator(GRID, Field(GRID, np.ones(GRID.extent)), PARAMS)


def mms_exact(grid, t):
    c = grid.coords()
    return np.exp(-t) * np.stack(
        [np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]),
         np.zeros(grid.extent)], axis=-1)


def mms_source(grid, t, params):
    c = grid.coords()
    s1, c1 = np.sin(np.pi * c[..., 0]), np.cos(np.pi * c[..., 0])
    s2, c2 = np.sin(np.pi * c[..., 1]), np.cos(np.pi * c[..., 1])
    e = np.exp(-t)
    mu, lam = params.mu, params.lam
    f1 = e * s1 * s2 * (-1 + 2 * np.pi**2 * mu + (mu + lam) * np.pi**2)
    f2 = -(mu + lam) * e * np.pi**2 * c1 * c2
    return np.stack([f1, f2], axis=-1)


def mms_traction(grid, t, params):
    idx, N = grid.boundary_nodes()
    co = grid.coords()[tuple(idx.T)]
    s1, c1 = np.sin(np.pi * co[:, 0]), np.cos(np.pi * co[:, 0])
    s2, c2 = np.sin(np.pi * co[:, 1]), np.cos(np.pi * co[:, 1])
    e = np.exp(-t)
    mu, lam = params.mu, params.lam
    d1v1 = e * np.pi * c1 * s2
    d2v1 = e * np.pi * s1 * c2
    g1 = 2 * mu * d1v1 * N[:, 0] + mu * d2v1 * N[:, 1] + lam * d1v1 * N[:, 0]
    g2 = mu * d2v1 * N[:, 0] + lam * d1v1 * N[:, 1]
    return np.stack([g1, g2], axis=-1)


def run_mms(n, dt, T, params=PARAMS):
    grid = Grid(2, (n, n))
    o = LameOperator(grid, Field(grid, np.ones(grid.extent)), params)
    times = np.arange(round(T / dt) + 1) * dt
    f = np.stack([mms_source(grid, t, params) for t in times[1:]])
    g = np.stack([mms_traction(grid, t, params) for t in times[1:]])
    u0 = Field(grid, mms_exact(grid, 0.0))
    v = solve_lame(o, f, g, u0, times)
    return v, grid, times


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    FluidParams(mu=1.0, lam=-0.6)  # 2 mu + 3 lam > 0 still holds
    with pytest.raises(ValueError):
        FluidParams(mu=-1.0)
    with pytest.raises(ValueError):
        FluidParams(mu=0.1, lam=-0.5)
    with pytest.raises(ValueError):
        FluidParams(gamma=1.0)
    with pytest.raises(ValueError, match="rho_min"):
        FluidParams(rho_min=0.0)


@pytest.mark.parametrize("name", ["mu", "lam", "a", "gamma", "p_ext", "rho_min"])
def test_params_reject_nan(name):
    # a comparison with NaN is False, so each bound must be written to fail
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        FluidParams(**{name: float("nan")})


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("name", ["mu", "lam", "a", "gamma", "p_ext", "rho_min"])
def test_params_reject_infinite_values(name, value):
    # an infinite constant used to fail late, in the Lame factorization
    # (mu), a non-finite linear solve (p_ext, gamma) or the density bound
    # (rho_min)
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        FluidParams(**{name: value})


def test_operator_rejects_low_density():
    with pytest.raises(ValueError):
        LameOperator(GRID, Field(GRID, 0.5 * np.ones(GRID.extent)), PARAMS)


def test_operator_rejects_nan_density():
    # a comparison with NaN is False: the bound used to let a NaN rho0
    # through, and SuperLU then found the step matrix exactly singular
    rho0 = np.ones(GRID.extent)
    rho0[3, 4] = np.nan
    with pytest.raises(ValueError, match="lower bound"):
        LameOperator(GRID, Field(GRID, rho0), PARAMS)


@pytest.mark.parametrize("grid", [
    Grid(2, (13, 21), ((0.0, 2.0), (-0.5, 0.25))),
    Grid(2, (65, 9), ((1.0, 4.0), (0.0, 1.0))),
    Grid(3, (9, 11, 10)),
], ids=["13x21-box", "65x9-box", "9x11x10"])
def test_operator_matches_the_entrywise_stencil_matrices(grid, monkeypatch):
    # the operator's stencils are fields' kernels applied to the identity;
    # A and B must be the matrices of the entrywise lil stencils, bit for bit
    rho0 = Field(grid, 1.0 + 0.1 * grid.coords()[..., 0] ** 2)
    op = LameOperator(grid, rho0, PARAMS)
    monkeypatch.setattr(lagflow.lame, "_scalar_operators",
                        derivative_oracle.scalar_operators)
    ref = LameOperator(grid, rho0, PARAMS)
    for got, want in ((op.A, ref.A), (op.B, ref.B)):
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


# ---------------------------------------------------------------------------
# apply_A / apply_B
# ---------------------------------------------------------------------------

def test_apply_A_constant_vanishes(op):
    u = Field(GRID, np.broadcast_to([1.3, -0.4], GRID.extent + (2,)).copy())
    assert np.max(np.abs(op.A @ op.to_flat(u.values))) <= 1e-11


def test_apply_A_hand_value():
    o = LameOperator(GRID, Field(GRID, np.ones(GRID.extent)),
                     FluidParams(mu=1.0, lam=0.0))
    c = GRID.coords()
    u = Field(GRID, np.stack([c[..., 0] ** 2, np.zeros(GRID.extent)], axis=-1))
    out = o.from_flat(o.A @ o.to_flat(u.values))
    interior = ~GRID.boundary_mask
    assert np.allclose(out[interior][:, 0], -4.0, atol=1e-9)
    assert np.allclose(out[interior][:, 1], 0.0, atol=1e-9)


def test_apply_A_density_scaling():
    c = GRID.coords()
    u = Field(GRID, np.stack([np.sin(np.pi * c[..., 0]), c[..., 1] ** 2], axis=-1))
    o1 = LameOperator(GRID, Field(GRID, np.ones(GRID.extent)), PARAMS)
    o2 = LameOperator(GRID, Field(GRID, 2 * np.ones(GRID.extent)), PARAMS)
    assert np.allclose(o2.A @ o2.to_flat(u.values), 0.5 * (o1.A @ o1.to_flat(u.values)),
                       atol=1e-12)


def test_apply_B_constant_vanishes(op):
    u = Field(GRID, np.broadcast_to([0.7, 2.0], GRID.extent + (2,)).copy())
    assert np.max(np.abs(apply_B(op, u))) <= 1e-11


def test_apply_B_hand_value():
    o = LameOperator(GRID, Field(GRID, np.ones(GRID.extent)),
                     FluidParams(mu=1.0, lam=0.0))
    c = GRID.coords()
    u = Field(GRID, np.stack([c[..., 0], np.zeros(GRID.extent)], axis=-1))
    vals = apply_B(o, u)
    _, normals = GRID.boundary_nodes()
    right = normals[:, 0] == 1.0
    assert np.allclose(vals[right], [2.0, 0.0], atol=1e-11)


def test_apply_B_rigid_rotation_vanishes(op):
    c = GRID.coords()
    u = Field(GRID, np.stack([c[..., 1], -c[..., 0]], axis=-1))
    assert np.max(np.abs(apply_B(op, u))) <= 1e-11


def boundary_values_to_rows(op, g):
    """(n_boundary, dim) traction data scattered into a zero vector of the
    flat unknowns at rows comp * n_nodes + node (oracle: the scatter the
    Lame steps and the validator used before the mask gather)."""
    dim, N = op.grid.dim, op.grid.n_nodes
    out = np.zeros(dim * N)
    for c in range(dim):
        out[c * N + op.boundary_flat] = g[:, c]
    return out


@pytest.mark.parametrize("dim, n", [(2, 17), (3, 9), (3, (9, 14, 10))],
                         ids=["17^2", "9^3", "9x14x10"])
def test_traction_rows_are_component_major(dim, n):
    # the rows boundary_row_mask selects take g as g.T.ravel(), and apply_B
    # reads them back in boundary-node order, both bit for bit the scatter
    op = unit_density_operator(dim, n)
    mask = op.boundary_row_mask
    assert np.all(np.diff(op.boundary_flat) > 0)
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((len(op.boundary_flat), dim))
    assert np.array_equal(boundary_values_to_rows(op, g)[mask], g.T.ravel())
    u = Field(op.grid, rng.standard_normal(op.grid.extent + (dim,)))
    flat = op.B @ op.to_flat(u.values)
    N = op.grid.n_nodes
    assert np.array_equal(apply_B(op, u), np.stack(
        [flat[c * N + op.boundary_flat] for c in range(dim)], axis=-1))


def test_quadratic_form_nonnegative_on_traction_kernel(op):
    # eigenfields of the homogeneous-traction realization and rigid
    # translations are the accessible test fields with B u = 0
    lam, phi = traction_eigenpair(op)
    w = GRID.quad_weights
    rho = np.ones(GRID.extent)
    Aphi = op.from_flat(op.A @ op.to_flat(phi.values))
    quad = np.sum(w * rho * np.sum(Aphi * phi.values, axis=-1))
    assert quad >= 0.0
    const = Field(GRID, np.broadcast_to([1.0, -2.0], GRID.extent + (2,)).copy())
    Ac = op.from_flat(op.A @ op.to_flat(const.values))
    assert abs(np.sum(w * rho * np.sum(Ac * const.values, axis=-1))) <= 1e-10


# ---------------------------------------------------------------------------
# deterministic solve
# ---------------------------------------------------------------------------

def test_zero_data_zero_solution(op):
    times = np.linspace(0, 0.02, 21)
    v = solve_lame(op, None, None, Field(GRID, np.zeros(GRID.extent + (2,))), times)
    assert np.max(np.abs(v.values)) == 0.0


def test_steady_state_fixed_point(op):
    # w linear: A w = 0, so f = 0, g = B w, u0 = w stays put
    c = GRID.coords()
    w = Field(GRID, np.stack([0.3 * c[..., 0] + 0.1 * c[..., 1],
                              -0.2 * c[..., 0]], axis=-1))
    gvals = apply_B(op, w)
    times = np.linspace(0, 0.02, 21)
    g = np.broadcast_to(gvals, (20,) + gvals.shape)
    v = solve_lame(op, None, g, w, times)
    assert np.max(np.abs(v.values[-1] - w.values)) <= 1e-9


def test_mms_convergence_orders():
    e_coarse = np.max(np.abs(run_mms(17, 4e-3, 0.02)[0].values[-1]
                             - mms_exact(Grid(2, (17, 17)), 0.02)))
    e_fine = np.max(np.abs(run_mms(33, 1e-3, 0.02)[0].values[-1]
                           - mms_exact(Grid(2, (33, 33)), 0.02)))
    order = np.log2(e_coarse / e_fine)
    assert order == pytest.approx(2.0, abs=0.3)


def test_mms_temporal_order_from_self_differences():
    sols = [run_mms(17, dt, 0.04)[0].values[-1] for dt in (4e-3, 2e-3, 1e-3)]
    d1 = np.max(np.abs(sols[0] - sols[1]))
    d2 = np.max(np.abs(sols[1] - sols[2]))
    assert np.log2(d1 / d2) == pytest.approx(1.0, abs=0.25)


def test_dissipativity_weighted_energy(op):
    rng = np.random.default_rng(4)
    c = GRID.coords()
    vals = np.zeros(GRID.extent + (2,))
    for d in range(2):
        for _ in range(3):
            k = rng.integers(1, 4, size=2)
            vals[..., d] += rng.normal() * np.sin(np.pi * k[0] * c[..., 0]) * \
                np.sin(np.pi * k[1] * c[..., 1])
    times = np.linspace(0, 0.02, 21)
    v = solve_lame(op, None, None, Field(GRID, vals), times)
    w = GRID.quad_weights
    energies = [np.sum(w * np.sum(f**2, axis=-1)) for f in v.values]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_compatibility_is_checked_by_fixedpoint_alone(op):
    # B u0 != g(0): the linear solve proceeds silently, the residual is
    # fixedpoint's to report, and picard_solve warns once per call, also
    # when the second call shares the first one's problem
    c = GRID.coords()
    u0 = Field(GRID, 1e-3 * np.stack([c[..., 0], np.zeros(GRID.extent)], axis=-1))
    rho0 = Field(GRID, np.ones(GRID.extent))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_lame(op, None, None, u0, np.linspace(0, 0.01, 11))
    assert caught == []
    assert compatibility_check(op, rho0, u0, PARAMS) > 1e-8
    Q0 = make_transport_field(2, "constant", K=0)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            picard_solve(rho0, u0, PARAMS, SolveConfig(T=0.01), Q0, None, None)
        assert [w.category for w in caught] == [UserWarning]
        assert "compatibility residual" in str(caught[0].message)


@pytest.mark.parametrize("frames", [6, 11, 16],
                         ids=["shorter", "one-per-level", "longer"])
def test_solve_lame_rejects_source_frames_off_the_time_grid(frames,
                                                            monkeypatch):
    # a shorter source used to fail with an IndexError after some solves,
    # and a longer one had its extra frames ignored; source and boundary
    # data take one frame per step, so one per level is refused too, all
    # before any factorization
    o = LameOperator(GRID, Field(GRID, np.ones(GRID.extent)), PARAMS)
    calls = counted_solves(monkeypatch)
    times = np.linspace(0, 0.01, 11)
    u0 = Field(GRID, np.zeros(GRID.extent + (2,)))
    f = np.zeros((frames,) + GRID.extent + (2,))
    g = np.zeros((frames, len(o.boundary_flat), 2))
    for data in ((f, None), (None, g)):
        with pytest.raises(ValueError, match="data on 11 levels need one "
                                             "frame per step, 10"):
            solve_lame(o, *data, u0, times)
    assert calls == [] and not o._steppers


@pytest.mark.parametrize("fill", [np.nan, 1e300], ids=["nan", "huge"])
def test_source_is_not_read_at_boundary_nodes(op, fill):
    # the traction rows replace the source's boundary rows, so the source
    # at the boundary nodes (which nonlinear.assemble_window leaves at 0.0)
    # cannot reach v
    rng = np.random.default_rng(4)
    times = np.linspace(0, 0.01, 11)
    vals = rng.normal(size=(10,) + GRID.extent + (2,))
    g = rng.normal(size=(10, len(op.boundary_flat), 2))
    u0 = Field(GRID, 1e-2 * rng.normal(size=GRID.extent + (2,)))
    mask = GRID.boundary_mask
    zeroed, filled = vals.copy(), vals.copy()
    zeroed[:, mask] = 0.0
    filled[:, mask] = fill
    want = solve_lame(op, zeroed, g, u0, times)
    got = solve_lame(op, filled, g, u0, times)
    assert np.array_equal(got.values, want.values)
    assert np.all(np.isfinite(got.values))


# ---------------------------------------------------------------------------
# symbol and Lopatinskii-Shapiro
# ---------------------------------------------------------------------------

def test_symbol_closed_form_values():
    assert np.allclose(
        symbol_eigenvalues(FluidParams(mu=1.0, lam=0.0), 2.0, np.array([0, 0, 1.0])),
        [0.5, 0.5, 1.0])
    assert np.allclose(
        symbol_eigenvalues(FluidParams(mu=1.0, lam=1.0), 1.0, np.array([0, 2.0, 0])),
        [4.0, 4.0, 12.0])


def test_symbol_eigenvector_along_xi():
    params = FluidParams(mu=0.7, lam=1.3)
    xi = np.array([1.0, -2.0, 0.5])
    lhs = symbol_matrix(params, 1.4, xi) @ xi
    rhs = (2 * params.mu + params.lam) / 1.4 * np.dot(xi, xi) * xi
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_symbol_numeric_agreement_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        params = FluidParams(mu=rng.uniform(0.1, 3),
                             lam=rng.uniform(-0.06, 3))
        rho = rng.uniform(1.0, 2.0)
        xi = rng.normal(size=3)
        if np.dot(xi, xi) < 1e-6:
            continue
        closed = symbol_eigenvalues(params, rho, xi)
        numeric = np.sort(np.linalg.eigvalsh(symbol_matrix(params, rho, xi)))
        assert np.max(np.abs(closed - numeric)) <= 1e-12 * max(1, closed[-1])
        assert np.all(closed > 0)


def test_symbol_rejects_zero_frequency():
    with pytest.raises(ValueError):
        symbol_eigenvalues(PARAMS, 1.0, np.zeros(3))


def test_halfline_decay_rates_decoupled():
    params = FluidParams(mu=1.0, lam=0.0)
    rates = halfline_decay_rates(params, 1.0, np.zeros(2), 1.0 + 0j)
    assert np.allclose(rates, [1 / np.sqrt(2), 1.0, 1.0], atol=1e-12)


def test_lopatinskii_positive_on_sweep():
    rng = np.random.default_rng(7)
    worst = 1.0
    for _ in range(200):
        params = FluidParams(mu=rng.uniform(0.2, 3), lam=rng.uniform(-0.1, 3))
        xi = rng.normal(size=1) * rng.uniform(0.1, 10)
        eta = complex(rng.uniform(1e-2, 1e2), rng.uniform(-30, 30))
        worst = min(worst, lopatinskii_check(params, rng.uniform(1, 2), xi, eta))
    assert worst > 1e-8


def test_lopatinskii_parabolic_scaling():
    params = FluidParams(mu=0.8, lam=0.9)
    xi = np.array([1.3])
    eta = 2.0 + 0.7j
    d1 = lopatinskii_check(params, 1.2, xi, eta)
    for s in (0.3, 2.0, 7.0):
        d2 = lopatinskii_check(params, 1.2, s * xi, s**2 * eta)
        assert d2 == pytest.approx(d1, abs=1e-8)


def test_lopatinskii_schur_fallback_positive():
    # the invariant-subspace fallback certifies the same nonsingularity,
    # up to the (basis-dependent) normalization of the determinant
    params = FluidParams(mu=1.1, lam=0.4)
    xi = np.array([0.9])
    eta = 1.5 + 0.2j
    d_eig = lopatinskii_check(params, 1.0, xi, eta, method="eig")
    d_schur = lopatinskii_check(params, 1.0, xi, eta, method="schur")
    assert d_schur > 1e-8
    assert 0.2 <= d_schur / d_eig <= 5.0


def test_lopatinskii_rejects_bad_eta():
    with pytest.raises(ValueError):
        lopatinskii_check(PARAMS, 1.0, np.array([1.0]), -1.0 + 0j)


# ---------------------------------------------------------------------------
# stochastic convolution
# ---------------------------------------------------------------------------

def convolution(op, forcing, dbeta, times):
    """U of ``forcing`` on ``times``, from its responses under their step."""
    R = op.forcing_responses(forcing, times[1] - times[0], len(times))
    return solve_stoch_convolution(op, R, dbeta, times)


def test_no_modes_gives_zero(op):
    forcing = StochasticForcing([], np.zeros(0))
    b = sample_brownian(0, 0, 0.02, 1e-3, seed=0)
    U = convolution(op, forcing, b.mode_increments(), b.times)
    assert np.max(np.abs(U.values)) == 0.0


@pytest.mark.parametrize("M, shape", [(1, (0, 20)), (1, (2, 20)), (1, (1, 19)),
                                      (1, (1, 21)), (1, (20,)), (0, (1, 20))])
def test_convolution_refuses_increments_of_another_shape(op, M, shape):
    forcing = StochasticForcing.default_modes(GRID, M, 1e-3)
    times = 1e-3 * np.arange(21)
    with pytest.raises(ValueError, match=rf"{M} forcing modes on 21 levels "
                                         rf"need increments of shape \({M}, 20\)"):
        convolution(op, forcing, np.zeros(shape), times)


def unequal_forcing(grid, M):
    """M default modes with unequal amplitudes of both signs."""
    forcing = StochasticForcing.default_modes(grid, M, 1.0)
    forcing.amplitudes[:] = [0.7, -0.3][:M]
    return forcing


def counted_solves(monkeypatch):
    """A list that grows by one at every ``StepFactor.solve`` call."""
    calls = []
    solve = lagflow.lame.StepFactor.solve

    def counted(self, rhs):
        calls.append(rhs.shape)
        return solve(self, rhs)

    monkeypatch.setattr(lagflow.lame.StepFactor, "solve", counted)
    return calls


@pytest.mark.parametrize("grid", [Grid(2, 17), Grid(3, 9)],
                         ids=["17^2", "9^3"])
@pytest.mark.parametrize("M", [1, 2])
def test_convolution_matches_the_step_recursion(grid, M):
    # the impulse-response form is the recursion, to round-off
    op = unit_density_operator(grid.dim, grid.extent[0])
    forcing = unequal_forcing(grid, M)
    b = sample_brownian(0, M, 0.02, 1e-3, seed=4 + M)
    U = convolution(op, forcing, b.mode_increments(), b.times)
    want = recursive_stoch_convolution(op, forcing, b.mode_increments(), b.times)
    assert np.array_equal(U.times, want.times)
    scale = np.max(np.abs(want.values))
    assert scale > 0
    assert np.max(np.abs(U.values - want.values)) <= 1e-13 * scale
    assert not np.any(U.values[0])


@pytest.mark.parametrize("grid", [Grid(2, 17), Grid(3, 9)],
                         ids=["17^2", "9^3"])
def test_convolution_is_adapted_bit_for_bit(grid):
    # levels 0 .. n keep their bits when the increments of steps n, n + 1,
    # ... change, and level n + 1 moves; a shorter horizon gives the prefix,
    # from the responses of the longer one or from its own
    op = unit_density_operator(grid.dim, grid.extent[0])
    forcing = unequal_forcing(grid, 2)
    b = sample_brownian(0, 2, 0.04, 1e-3, seed=8)
    dbeta = b.mode_increments()
    R = op.forcing_responses(forcing, 1e-3, 41)
    U = solve_stoch_convolution(op, R, dbeta, b.times).values
    rng = np.random.default_rng(1)
    for n in (0, 1, 7, 16, 39):
        other = dbeta.copy()
        other[:, n:] = rng.normal(0.0, 0.03, size=other[:, n:].shape)
        V = solve_stoch_convolution(op, R, other, b.times).values
        assert V[:n + 1].tobytes() == U[:n + 1].tobytes()
        assert np.any(V[n + 1] != U[n + 1])
    for levels in (2, 16, 17, 18, 26, 33):
        for V in (solve_stoch_convolution(op, R, dbeta[:, :levels - 1],
                                          b.times[:levels]),
                  convolution(op, forcing, dbeta[:, :levels - 1],
                              b.times[:levels])):
            assert V.values.tobytes() == U[:levels].tobytes()


@pytest.mark.parametrize("dbeta, times, lags, match", [
    (np.zeros((2, 19)), 1e-3 * np.arange(21), 32, "need increments of shape"),
    (np.zeros((1, 20)), 1e-3 * np.arange(21), 32, "need increments of shape"),
    (np.zeros((2, 20)), 1e-3 * np.arange(21), 16,
     "responses of 32 lags, got .* and 16"),
    (np.zeros((2, 2)), [0.0, 1e-3, 3e-3], 32, "uniformly spaced"),
    (np.zeros((2, 2)), [1e-3, 2e-3, 3e-3], 32, "start with a frame at t = 0"),
], ids=["steps", "modes", "lags", "non-uniform", "late-start"])
def test_convolution_checks_its_inputs_before_any_solve(monkeypatch, dbeta,
                                                        times, lags, match):
    # the convolution makes no step solve at all: the responses are made
    # before it, and a refused call does no work on them
    op = unit_density_operator(2, 9)
    R = op.forcing_responses(unequal_forcing(op.grid, 2), 1e-3, 21)[:lags]
    before = R.copy()
    calls = counted_solves(monkeypatch)
    monkeypatch.setattr(op, "_steppers", {})
    with pytest.raises(ValueError, match=match):
        solve_stoch_convolution(op, R, dbeta, times)
    assert calls == [] and not op._steppers
    assert R.tobytes() == before.tobytes()


def test_forcing_responses_of_no_modes_take_no_step_solve(monkeypatch):
    # zero modes or one level: the zero-padded (lags, M, N d) array alone
    op = unit_density_operator(2, 9)
    calls = counted_solves(monkeypatch)
    none = StochasticForcing([], np.zeros(0))
    assert op.forcing_responses(none, 1e-3, 21).shape == (32, 0, 2 * 81)
    one = op.forcing_responses(unequal_forcing(op.grid, 2), 1e-3, 1)
    assert one.shape == (0, 2, 2 * 81)
    assert calls == [] and not op._steppers


def test_solve_lame_refuses_non_uniform_times(monkeypatch):
    # it used to return the values of the uniform 1e-3 run under these
    # times, and then raised only after factoring the step and making every
    # step solve; it refuses them before any work
    o = LameOperator(GRID, Field(GRID, np.ones(GRID.extent)), PARAMS)
    calls = counted_solves(monkeypatch)
    with pytest.raises(ValueError, match="uniformly spaced"):
        solve_lame(o, None, None, Field(GRID, np.zeros(GRID.extent + (2,))), [0.0, 1e-3, 3e-3])
    assert calls == [] and not o._steppers


def test_solve_lame_on_one_level_returns_u0(monkeypatch):
    # it used to raise IndexError at times[1]; the convolution returns its
    # one frame there, and the solve returns u0 without a factorization
    o = LameOperator(GRID, Field(GRID, np.ones(GRID.extent)), PARAMS)
    calls = counted_solves(monkeypatch)
    u0 = Field(GRID, np.random.default_rng(3).normal(size=GRID.extent + (2,)))
    f = np.ones((0,) + GRID.extent + (2,))      # no step, no frame
    for source in (None, f):
        v = solve_lame(o, source, None, u0, [0.0])
        assert v.times.tolist() == [0.0] and v.values.shape == (1,) + u0.values.shape
        assert v.values[0].tobytes() == u0.values.tobytes()
    assert calls == [] and not o._steppers
    g = np.zeros((1, len(o.boundary_flat), 2))
    with pytest.raises(ValueError, match="need one frame per step"):
        solve_lame(o, None, g, u0, [0.0])


def test_debug_increments_match_deterministic_convolution(op):
    # constant unit increments with amplitude a equal an f = a*mode/dt source
    c = GRID.coords()
    mode = Field(GRID, np.stack(
        [np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]),
         np.zeros(GRID.extent)], axis=-1))
    forcing = StochasticForcing([mode], np.array([0.3]))
    dt, steps = 1e-3, 20
    b = BrownianBundle(0, 1, dt, np.arange(steps + 1.0)[None], seed=5)
    assert np.array_equal(b.mode_increments(), np.ones((1, steps)))
    U = convolution(op, forcing, b.mode_increments(), b.times)
    times = b.times
    f = np.broadcast_to(0.3 * mode.values / dt, (steps,) + mode.values.shape)
    v = solve_lame(op, f, None, Field(GRID, np.zeros(GRID.extent + (2,))), times)
    assert np.max(np.abs(U.values - v.values)) <= 1e-12


def test_modal_ou_variance(op):
    lam, phi = traction_eigenpair(op)
    forcing = StochasticForcing([phi], np.array([1.0]))
    dt, steps = 1e-3, 50
    w = GRID.quad_weights
    phin = np.sum(w * np.sum(phi.values**2, axis=-1))
    n_paths = 600
    coef = np.zeros(n_paths)
    R = op.forcing_responses(forcing, dt, steps + 1)
    for s in range(n_paths):
        b = sample_brownian(0, 1, dt * steps, dt, seed=s)
        U = solve_stoch_convolution(op, R, b.mode_increments(), b.times)
        coef[s] = np.sum(w * np.sum(U.values[-1] * phi.values, axis=-1)) / phin
    t = dt * steps
    exact = (1 - np.exp(-2 * lam * t)) / (2 * lam)
    assert coef.var() == pytest.approx(exact, rel=0.25)


def test_da_prato_debussche_consistency(op):
    # v from the deterministic solve plus U solves the combined system
    rng = np.random.default_rng(9)
    c = GRID.coords()
    dt, steps = 1e-3, 20
    times = np.arange(steps + 1) * dt
    f = np.stack([np.stack(
        [np.sin(np.pi * c[..., 0]) * (1 + t), np.cos(np.pi * c[..., 1])],
        axis=-1) for t in times[1:]])
    gvals = rng.normal(size=(len(op.boundary_flat), 2)) * 0.1
    g = np.broadcast_to(gvals, (steps,) + gvals.shape)
    mode = Field(GRID, np.stack(
        [np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]),
         np.zeros(GRID.extent)], axis=-1))
    forcing = StochasticForcing([mode], np.array([0.5]))
    b = sample_brownian(0, 1, dt * steps, dt, seed=3)
    v = solve_lame(op, f, g, Field(GRID, np.zeros(GRID.extent + (2,))), times)
    U = convolution(op, forcing, b.mode_increments(), b.times)
    ubar = v.values + U.values
    dbeta = b.mode_increments()
    mask = op.boundary_row_mask
    worst = 0.0
    for n in range(steps):
        lhs = (op.to_flat(ubar[n + 1]) - op.to_flat(ubar[n])) / dt \
            + op.A @ op.to_flat(ubar[n + 1])
        rhs = op.to_flat(f[n]) \
            + 0.5 * op.to_flat(mode.values) * dbeta[0, n] / dt
        worst = max(worst, np.max(np.abs((lhs - rhs)[~mask])))
        bres = (op.B @ op.to_flat(ubar[n + 1]))[mask] - g[n].T.ravel()
        worst = max(worst, np.max(np.abs(bres)))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# nested-dissection step factorization
# ---------------------------------------------------------------------------

def stepping_matrix(op, dt):
    """I + dt A with its traction rows replaced by those of B, unpermuted."""
    n = op.A.shape[0]
    M = (sp.identity(n, format="csr") + dt * op.A).tolil()
    B = op.B.tolil()
    for r in np.flatnonzero(op.boundary_row_mask):
        M.rows[r], M.data[r] = B.rows[r], B.data[r]
    return M.tocsc()


def unit_density_operator(dim, n):
    grid = Grid(dim, n)
    return LameOperator(grid, Field(grid, np.ones(grid.extent)), PARAMS)


@pytest.mark.parametrize("dim, n", [(2, 25), (3, 9), (3, (9, 14, 10))],
                         ids=["25^2", "9^3", "9x14x10"])
def test_step_order_is_node_major_nested_dissection(dim, n):
    op = unit_density_operator(dim, n)
    extent, N = op.grid.extent, op.grid.n_nodes
    order = op.step_order
    assert np.array_equal(np.sort(order), np.arange(dim * N))
    # the components of a node sit next to each other, in component order
    per_node = order.reshape(N, dim)
    nodes = per_node[:, 0]
    assert np.all(nodes < N)
    assert np.array_equal(per_node, nodes[:, None] + N * np.arange(dim))
    assert np.array_equal(nodes, nested_dissection(extent))
    # lower half, upper half, then the middle plane of the longest axis
    ax = int(np.argmax(extent))
    mid = extent[ax] // 2
    position = np.unravel_index(nodes, extent)[ax]
    n_plane = N // extent[ax]
    n_low = mid * n_plane
    assert np.all(position[:n_low] < mid)
    assert np.all(position[n_low:N - n_plane] > mid)
    assert np.array_equal(nodes[N - n_plane:],
                          np.flatnonzero(np.indices(extent)[ax] == mid))


def test_small_blocks_stay_in_c_order():
    assert np.array_equal(nested_dissection((8, 8)), np.arange(64))
    assert np.array_equal(nested_dissection((4, 4, 4)), np.arange(64))
    # 65 nodes split once, at row 6 of 13: both halves are leaves
    assert np.array_equal(nested_dissection((13, 5)), np.concatenate(
        [np.arange(30), np.arange(35, 65), np.arange(30, 35)]))


@pytest.mark.parametrize("dim, n", [(2, 25), (3, 9)], ids=["25^2", "9^3"])
def test_step_solves_match_the_unpermuted_matrix(dim, n):
    op = unit_density_operator(dim, n)
    dt = 1e-3
    rhs = np.random.default_rng(3).standard_normal(op.A.shape[0])
    expected = spla.spsolve(stepping_matrix(op, dt), rhs)
    x = op.stepper(dt).solve(rhs)
    assert op.stepper(dt) is op.stepper(dt)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_nested_dissection_keeps_the_fill_low():
    # against SuperLU's default COLAMD order and partial pivoting; the gain
    # grows with the grid (0.57 at 9^3, 0.45 at 10^3, 0.35 at 13^3)
    op = unit_density_operator(3, 10)
    dt = 1e-3
    colamd = spla.splu(stepping_matrix(op, dt))
    nested = op.stepper(dt)
    assert nested.L.nnz + nested.U.nnz < 0.5 * (colamd.L.nnz + colamd.U.nnz)
