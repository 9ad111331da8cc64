import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import derivative_oracle
import lagflow.lame
from lagflow.fields import Field, Grid, TimeSeries
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
    f = TimeSeries(grid, times,
                   np.stack([mms_source(grid, t, params) for t in times]))
    g = np.stack([mms_traction(grid, t, params) for t in times])
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
    with pytest.raises(ValueError):
        FluidParams(**{name: float("nan")})


def test_operator_rejects_low_density():
    with pytest.raises(ValueError):
        LameOperator(GRID, Field(GRID, 0.5 * np.ones(GRID.extent)), PARAMS)


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
    v = solve_lame(op, None, None, Field.zeros(GRID, rank=1), times)
    assert np.max(np.abs(v.values)) == 0.0


def test_steady_state_fixed_point(op):
    # w linear: A w = 0, so f = 0, g = B w, u0 = w stays put
    c = GRID.coords()
    w = Field(GRID, np.stack([0.3 * c[..., 0] + 0.1 * c[..., 1],
                              -0.2 * c[..., 0]], axis=-1))
    gvals = apply_B(op, w)
    times = np.linspace(0, 0.02, 21)
    g = np.broadcast_to(gvals, (21,) + gvals.shape).copy()
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


@pytest.mark.parametrize("n_source", [6, 16], ids=["shorter", "longer"])
def test_solve_lame_rejects_source_frames_off_the_time_grid(op, n_source):
    # a shorter source used to fail with an IndexError after some solves,
    # and a longer one had its extra frames ignored
    times = np.linspace(0, 0.01, 11)
    src_times = 1e-3 * np.arange(n_source)
    f = TimeSeries(GRID, src_times, np.zeros((n_source,) + GRID.extent + (2,)))
    with pytest.raises(ValueError, match="frames must match the time grid"):
        solve_lame(op, f, None, Field.zeros(GRID, rank=1), times)


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

def test_no_modes_gives_zero(op):
    forcing = StochasticForcing([], np.zeros(0))
    b = sample_brownian(0, 0, 0.02, 1e-3, seed=0)
    U = solve_stoch_convolution(op, forcing, b)
    assert np.max(np.abs(U.values)) == 0.0


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
    U = solve_stoch_convolution(op, forcing, b)
    times = b.times
    f = TimeSeries(GRID, times, np.broadcast_to(
        0.3 * mode.values / dt, (steps + 1,) + mode.values.shape).copy())
    v = solve_lame(op, f, None, Field.zeros(GRID, rank=1), times)
    assert np.max(np.abs(U.values - v.values)) <= 1e-12


def test_modal_ou_variance(op):
    lam, phi = traction_eigenpair(op)
    forcing = StochasticForcing([phi], np.array([1.0]))
    dt, steps = 1e-3, 50
    w = GRID.quad_weights
    phin = np.sum(w * np.sum(phi.values**2, axis=-1))
    n_paths = 600
    coef = np.zeros(n_paths)
    for s in range(n_paths):
        b = sample_brownian(0, 1, dt * steps, dt, seed=s)
        U = solve_stoch_convolution(op, forcing, b)
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
    fvals = np.stack([np.stack(
        [np.sin(np.pi * c[..., 0]) * (1 + t), np.cos(np.pi * c[..., 1])],
        axis=-1) for t in times])
    f = TimeSeries(GRID, times, fvals)
    gvals = rng.normal(size=(len(op.boundary_flat), 2)) * 0.1
    g = np.broadcast_to(gvals, (steps + 1,) + gvals.shape).copy()
    mode = Field(GRID, np.stack(
        [np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]),
         np.zeros(GRID.extent)], axis=-1))
    forcing = StochasticForcing([mode], np.array([0.5]))
    b = sample_brownian(0, 1, dt * steps, dt, seed=3)
    v = solve_lame(op, f, g, Field.zeros(GRID, rank=1), times)
    U = solve_stoch_convolution(op, forcing, b)
    ubar = v.values + U.values
    dbeta = b.mode_increments()
    mask = op.boundary_row_mask
    worst = 0.0
    for n in range(steps):
        lhs = (op.to_flat(ubar[n + 1]) - op.to_flat(ubar[n])) / dt \
            + op.A @ op.to_flat(ubar[n + 1])
        rhs = op.to_flat(f.values[n + 1]) \
            + 0.5 * op.to_flat(mode.values) * dbeta[0, n] / dt
        worst = max(worst, np.max(np.abs((lhs - rhs)[~mask])))
        bres = op.B @ op.to_flat(ubar[n + 1]) - op.boundary_values_to_rows(g[n + 1])
        worst = max(worst, np.max(np.abs(bres[mask])))
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
