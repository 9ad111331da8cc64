import numpy as np
import pytest

import lagflow.fields

from lagflow.fields import Field, Grid, TimeSeries, gradient_values, hessian_values
from lagflow.flow import FlowWindow, compose_flow, identity_noise_flow, integrate_label_flow
from lagflow.lame import FluidParams
from lagflow.nonlinear import (
    EquationOfState,
    assemble_F_Gamma,
    assemble_F_u,
    assemble_window,
    density_from_jacobian,
    energy_report,
    extended_normal_field,
    nonlinearity_norm_report,
)

from map_oracle import continuity_oracle
from term_oracle import (einsum_F_Gamma, einsum_F_u, f_gamma_point, f_u_point,
                         per_frame_energy_report)

GRID = Grid(2, (17, 17))
PARAMS = FluidParams(mu=1.0, lam=0.5, a=1.0, gamma=2.0, p_ext=1.0)


def identity_window(grid, times):
    L = len(times)
    eye = np.broadcast_to(np.eye(grid.dim), (L,) + grid.extent + (grid.dim,) * 2)
    X = np.broadcast_to(grid.coords(), (L,) + grid.extent + (grid.dim,))
    return FlowWindow(np.asarray(times, float), X.copy(), eye.copy(), eye.copy(),
                      np.ones((L,) + grid.extent), np.ones(L, bool))


# ---------------------------------------------------------------------------
# equation of state
# ---------------------------------------------------------------------------

def test_pressure_values():
    eos = EquationOfState(1.0, 2.0)
    assert eos.p(3.0) == 9.0
    assert eos.potential(3.0) == 9.0
    eos2 = EquationOfState(1.0, 1.4)
    assert eos2.p(1.0) == pytest.approx(1.0)
    assert eos2.potential(1.0) == pytest.approx(2.5)


@pytest.mark.parametrize("a, gamma", [(float("nan"), 2.0), (1.0, float("nan"))])
def test_equation_of_state_rejects_nan(a, gamma):
    with pytest.raises(ValueError):
        EquationOfState(a, gamma)


def test_pressure_potential_identity():
    rng = np.random.default_rng(0)
    eos = EquationOfState(0.7, 1.7)
    rho = rng.uniform(0.2, 5.0, size=1000)
    dP = eos.a * eos.gamma * rho ** (eos.gamma - 1) / (eos.gamma - 1)
    assert np.max(np.abs(dP * rho - eos.potential(rho) - eos.p(rho))) <= 1e-12 * np.max(eos.p(rho))


def test_pressure_field_positive():
    eos = EquationOfState(1.0, 2.0)
    rho = 0.5 + np.random.default_rng(1).uniform(0, 1, GRID.extent)
    assert np.all(eos.p(rho) > 0)
    assert np.all(eos.potential(rho) > 0)


# ---------------------------------------------------------------------------
# density reconstruction
# ---------------------------------------------------------------------------

def test_density_unit_jacobian():
    rho0 = Field(GRID, 1.0 + 0.2 * GRID.coords()[..., 0])
    rho, ok = density_from_jacobian(rho0, np.ones(GRID.extent), rho_min=1.0)
    assert np.array_equal(rho, rho0.values)
    assert ok


def test_density_linear_drift_jacobian():
    alpha, t = 0.5, 0.05
    J = np.full(GRID.extent, (1 + alpha * t) ** 2)
    rho0 = Field(GRID, np.ones(GRID.extent))
    rho, _ = density_from_jacobian(rho0, J, rho_min=0.1)
    assert np.allclose(rho, (1 + alpha * t) ** (-2), atol=1e-15)


def test_density_positivity_flag():
    rho0 = Field(GRID, np.ones(GRID.extent))
    J = np.ones(GRID.extent)
    J[4, 4] = 2.1
    _, ok = density_from_jacobian(rho0, J, rho_min=1.0)
    assert not ok


def test_density_rejects_nonpositive_jacobian():
    rho0 = Field(GRID, np.ones(GRID.extent))
    J = np.ones(GRID.extent)
    J[1, 1] = -0.5
    with pytest.raises(RuntimeError, match=r"\(1, 1\)"):
        density_from_jacobian(rho0, J, rho_min=1.0)


def test_mass_identity_bit_exact():
    rng = np.random.default_rng(2)
    rho0 = Field(GRID, rng.uniform(1.0, 2.0, GRID.extent))
    J = rng.uniform(0.9, 1.1, GRID.extent)
    rho, _ = density_from_jacobian(rho0, J, rho_min=0.5)
    err = np.max(np.abs(rho * J - rho0.values))
    assert err <= 4 * np.finfo(float).eps * np.max(rho0.values)


# ---------------------------------------------------------------------------
# continuity oracle
# ---------------------------------------------------------------------------

def test_continuity_zero_velocity():
    times = np.linspace(0, 0.05, 26)
    ub = TimeSeries(GRID, times, np.zeros((26,) + GRID.extent + (2,)))
    rho0 = Field(GRID, 1.0 + 0.1 * GRID.coords()[..., 1])
    stack, dev = continuity_oracle(ub, identity_window(GRID, times), rho0)
    assert dev == 0.0
    assert np.array_equal(stack[-1], rho0.values)


def test_continuity_linear_drift_matches_closed_form():
    alpha, T = 0.5, 0.05
    times = np.linspace(0, T, 51)
    c = GRID.coords()
    ub = TimeSeries(GRID, times,
                    np.broadcast_to(alpha * c, (51,) + c.shape).copy())
    nf = identity_noise_flow(GRID, times)
    lf = integrate_label_flow(ub, nf)
    window = compose_flow(lf, 0.25)
    rho0 = Field(GRID, np.ones(GRID.extent))
    stack, dev = continuity_oracle(ub, window, rho0)
    exact = (1 + alpha * times[-1]) ** (-2)
    assert np.max(np.abs(stack[-1] - exact)) <= 1e-6  # RK2 on a known ODE
    assert dev <= 1e-6


def test_continuity_trace_free_shear_is_constant():
    times = np.linspace(0, 0.05, 26)
    c = GRID.coords()
    shear = np.stack([c[..., 1], np.zeros(GRID.extent)], axis=-1)
    ub = TimeSeries(GRID, times, np.broadcast_to(shear, (26,) + shear.shape).copy())
    rho0 = Field(GRID, 1.0 + 0.3 * c[..., 0])
    stack, _ = continuity_oracle(ub, identity_window(GRID, times), rho0)
    assert np.max(np.abs(stack - rho0.values[None])) <= 1e-10


# ---------------------------------------------------------------------------
# F_u assembly
# ---------------------------------------------------------------------------

def derivative_pack(grid, u_vals):
    G = gradient_values(grid, u_vals)
    return G, hessian_values(grid, u_vals, G)


def test_f_u_vanishes_at_identity():
    c = GRID.coords()
    u = np.stack([np.sin(np.pi * c[..., 0]), c[..., 0] * c[..., 1]], axis=-1)
    G, H = derivative_pack(GRID, u)
    eye = np.broadcast_to(np.eye(2), GRID.extent + (2, 2)).copy()
    out = assemble_F_u(GRID, G, H, eye, np.zeros(GRID.extent + (2, 2, 2)),
                       np.ones(GRID.extent), np.ones(GRID.extent), PARAMS)
    assert np.max(np.abs(out)) <= 1e-12


def test_f_u_synthetic_defect_group():
    # J = 2, Z = I, Hess(u1) = I, Hess(u2) = 0, mu = 1, lam = 0 -> F = (3, 0)
    params = FluidParams(mu=1.0, lam=0.0)
    shape = GRID.extent
    G = np.zeros(shape + (2, 2))
    H = np.zeros(shape + (2, 2, 2))
    H[..., 0, 0, 0] = 1.0
    H[..., 0, 1, 1] = 1.0
    eye = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    out = assemble_F_u(GRID, G, H, eye, np.zeros(shape + (2, 2, 2)),
                       2.0 * np.ones(shape), np.ones(shape), params)
    assert np.allclose(out[..., 0], 3.0, atol=1e-12)
    assert np.allclose(out[..., 1], 0.0, atol=1e-12)


def test_f_u_pressure_group_first_order():
    # small (Z, J) defects perturb the pressure group at first order only
    c = GRID.coords()
    rho0 = 1.0 + 0.2 * np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1])
    eos = EquationOfState(PARAMS.a, PARAMS.gamma)
    base = -gradient_values(GRID, eos.p(rho0)) / rho0[..., None]
    rng = np.random.default_rng(3)
    delta = 1e-3
    Z = np.broadcast_to(np.eye(2), GRID.extent + (2, 2)).copy()
    Z += delta * rng.normal(size=Z.shape) * 0.1
    J = 1.0 + delta * rng.normal(size=GRID.extent) * 0.1
    G = np.zeros(GRID.extent + (2, 2))
    H = np.zeros(GRID.extent + (2, 2, 2))
    dZ = gradient_values(GRID, Z)
    out = assemble_F_u(GRID, G, H, Z, dZ, J, rho0, PARAMS)
    assert np.max(np.abs(out - base)) <= 50 * delta


def test_f_u_matches_loop_oracle():
    rng = np.random.default_rng(7)
    c = GRID.coords()
    u = np.stack([np.sin(np.pi * c[..., 0]) * np.cos(np.pi * c[..., 1]),
                  c[..., 0] ** 2 * c[..., 1]], axis=-1)
    G, H = derivative_pack(GRID, u)
    Z = np.broadcast_to(np.eye(2), GRID.extent + (2, 2)).copy()
    Z += 0.05 * rng.normal(size=Z.shape)
    J = 1.0 + 0.05 * rng.normal(size=GRID.extent)
    rho0 = rng.uniform(1.0, 2.0, GRID.extent)
    dZ = gradient_values(GRID, Z)
    eos = EquationOfState(PARAMS.a, PARAMS.gamma)
    grad_p = gradient_values(GRID, eos.p(rho0 / J))
    out = assemble_F_u(GRID, G, H, Z, dZ, J, rho0, PARAMS)
    for idx in [(3, 4), (0, 0), (16, 16), (8, 12)]:
        ref = f_u_point(G[idx], H[idx], Z[idx], dZ[idx], J[idx], rho0[idx],
                        grad_p[idx], PARAMS.mu, PARAMS.lam)
        assert np.max(np.abs(out[idx] - ref)) <= 1e-12 * max(1, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# F_Gamma assembly
# ---------------------------------------------------------------------------

def boundary_pack(grid, u_vals):
    idx, normals = grid.boundary_nodes()
    G = gradient_values(grid, u_vals)[tuple(idx.T)]
    return idx, normals, G


def test_f_gamma_identity_reduces_to_pressure():
    c = GRID.coords()
    u = np.stack([np.sin(np.pi * c[..., 0]), np.zeros(GRID.extent)], axis=-1)
    idx, normals, G = boundary_pack(GRID, u)
    nb = len(idx)
    eye = np.broadcast_to(np.eye(2), (nb, 2, 2)).copy()
    rho0 = np.full(nb, 1.3)
    out = assemble_F_Gamma(np.zeros((nb, 2, 2)), eye, np.ones(nb), rho0,
                           normals, PARAMS)
    eos = EquationOfState(PARAMS.a, PARAMS.gamma)
    expected = (eos.p(1.3) - PARAMS.p_ext) * normals
    assert np.allclose(out, expected, atol=1e-14)


def test_f_gamma_equilibrium_vanishes():
    idx, normals = GRID.boundary_nodes()
    nb = len(idx)
    eye = np.broadcast_to(np.eye(2), (nb, 2, 2)).copy()
    out = assemble_F_Gamma(np.zeros((nb, 2, 2)), eye, np.ones(nb),
                           np.ones(nb), normals, PARAMS)  # p(1) = p_ext = 1
    assert np.max(np.abs(out)) <= 1e-15


def test_f_gamma_epsilon_defect_matches_oracle():
    # J = 1, Z = I + eps E with E_{12} = 1, u = (y2, 0), mu = 1, lam = 0
    params = FluidParams(mu=1.0, lam=0.0)
    eps = 1e-3
    idx, normals = GRID.boundary_nodes()
    nb = len(idx)
    G = np.zeros((nb, 2, 2))
    G[:, 0, 1] = 1.0
    Z = np.broadcast_to(np.eye(2), (nb, 2, 2)).copy()
    Z[:, 0, 1] += eps
    J = np.ones(nb)
    rho0 = np.ones(nb)
    out = assemble_F_Gamma(G, Z, J, rho0, normals, params)
    eos = EquationOfState(params.a, params.gamma)
    for k in range(0, nb, 7):
        ref = f_gamma_point(G[k], Z[k], J[k], normals[k],
                            eos.p(rho0[k] / J[k]), params.p_ext,
                            params.mu, params.lam)
        assert np.max(np.abs(out[k] - ref)) <= 1e-12


def test_f_gamma_matches_oracle_random():
    rng = np.random.default_rng(5)
    idx, normals = GRID.boundary_nodes()
    nb = len(idx)
    G = rng.normal(size=(nb, 2, 2))
    Z = np.broadcast_to(np.eye(2), (nb, 2, 2)).copy() + 0.1 * rng.normal(size=(nb, 2, 2))
    J = 1.0 + 0.1 * rng.normal(size=nb)
    rho0 = rng.uniform(1.0, 2.0, nb)
    out = assemble_F_Gamma(G, Z, J, rho0, normals, PARAMS)
    eos = EquationOfState(PARAMS.a, PARAMS.gamma)
    for k in range(0, nb, 5):
        ref = f_gamma_point(G[k], Z[k], J[k], normals[k],
                            eos.p(rho0[k] / J[k]), PARAMS.p_ext,
                            PARAMS.mu, PARAMS.lam)
        assert np.max(np.abs(out[k] - ref)) <= 1e-12 * max(1, np.max(np.abs(ref)))


def test_joint_continuity_in_Z_J():
    # outputs move by O(eps) when (Z, J) move by eps
    rng = np.random.default_rng(11)
    c = GRID.coords()
    u = np.stack([np.sin(np.pi * c[..., 0]) * np.sin(np.pi * c[..., 1]),
                  np.cos(np.pi * c[..., 1])], axis=-1)
    G, H = derivative_pack(GRID, u)
    rho0 = np.ones(GRID.extent)
    eye = np.broadcast_to(np.eye(2), GRID.extent + (2, 2)).copy()
    base = assemble_F_u(GRID, G, H, eye, np.zeros(GRID.extent + (2, 2, 2)),
                        np.ones(GRID.extent), rho0, PARAMS)
    dZ_dir = rng.normal(size=GRID.extent + (2, 2))
    dJ_dir = rng.normal(size=GRID.extent)
    ratios = []
    for eps in (1e-3, 1e-4):
        Z = eye + eps * dZ_dir * 0.0  # spatially constant perturbation keeps dZ = 0
        Z = eye + eps * 0.3
        J = 1.0 + eps * dJ_dir * 0.0 + eps
        out = assemble_F_u(GRID, G, H, Z, gradient_values(GRID, Z), J, rho0, PARAMS)
        ratios.append(np.max(np.abs(out - base)) / eps)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.05)


def test_assemble_window_matches_per_frame_calls(monkeypatch):
    # passes of three frames split the window into several chunks; each
    # frame must get, bit for bit, what its own derivatives and assembly give
    monkeypatch.setattr(lagflow.fields, "_CHUNK_BYTES", 3 * 8 * GRID.n_nodes * 2 * 4)
    rng = np.random.default_rng(8)
    L = 7
    c = GRID.coords()
    u = np.stack([np.stack([(1 + 0.1 * n) * np.sin(np.pi * c[..., 0]) * c[..., 1],
                            (1 - 0.05 * n) * np.cos(np.pi * c[..., 1]) * c[..., 0] ** 2],
                           axis=-1) for n in range(L)])
    Z = np.eye(2) + 1e-2 * rng.normal(size=(L,) + GRID.extent + (2, 2))
    J = 1.0 + 1e-2 * rng.normal(size=(L,) + GRID.extent)
    rho0 = 1.0 + 0.1 * c[..., 0]
    F_u, F_G_b = assemble_window(GRID, u, gradient_values(GRID, u), Z, J,
                                 rho0, PARAMS)
    idx_b, normals_b = GRID.boundary_nodes()
    bsel = tuple(idx_b.T)
    for n in range(L):
        G, H = derivative_pack(GRID, u[n])
        dZ = gradient_values(GRID, Z[n])
        assert np.array_equal(
            F_u[n], assemble_F_u(GRID, G, H, Z[n], dZ, J[n], rho0, PARAMS))
        assert np.array_equal(
            F_G_b[n], assemble_F_Gamma(G[bsel], Z[n][bsel], J[n][bsel],
                                       rho0[bsel], normals_b, PARAMS))


@pytest.mark.parametrize("grid", [Grid(2, (11, 13)), Grid(3, 9)],
                         ids=["2d-11x13", "3d-9^3"])
def test_chunk_assembly_matches_per_frame_einsum_oracle(monkeypatch, grid):
    # the chunk assembly must give, bit for bit, the per-frame einsum
    # assembly it replaced; passes of three frames split 8 frames 3/3/2
    dim = grid.dim
    monkeypatch.setattr(lagflow.fields, "_CHUNK_BYTES",
                        3 * 8 * grid.n_nodes * dim * dim**2)
    rng = np.random.default_rng(11)
    L = 8
    u = rng.normal(size=(L,) + grid.extent + (dim,))
    Z = np.eye(dim) + 1e-2 * rng.normal(size=(L,) + grid.extent + (dim, dim))
    J = 1.0 + 1e-2 * rng.normal(size=(L,) + grid.extent)
    rho0 = 1.0 + 0.1 * rng.random(grid.extent)
    N_ext = extended_normal_field(grid).values
    F_u, F_G_b = assemble_window(grid, u, gradient_values(grid, u), Z, J,
                                 rho0, PARAMS)
    F_G_ext = assemble_F_Gamma(gradient_values(grid, u), Z, J, rho0, N_ext,
                               PARAMS)
    idx_b, normals_b = grid.boundary_nodes()
    bsel = tuple(idx_b.T)
    for n in range(L):
        G, H = derivative_pack(grid, u[n])
        dZ = gradient_values(grid, Z[n])
        assert np.array_equal(
            F_u[n], einsum_F_u(grid, G, H, Z[n], dZ, J[n], rho0, PARAMS))
        assert np.array_equal(
            F_G_b[n], einsum_F_Gamma(G[bsel], Z[n][bsel], J[n][bsel],
                                     rho0[bsel], normals_b, PARAMS))
        assert np.array_equal(
            F_G_ext[n], einsum_F_Gamma(G, Z[n], J[n], rho0, N_ext, PARAMS))


# ---------------------------------------------------------------------------
# normal extension
# ---------------------------------------------------------------------------

def test_extended_normal_trace_matches_boundary():
    # away from the 2-cell corner blend the trace is the face normal,
    # and at corners it is the averaged corner normal
    ext = extended_normal_field(GRID)
    idx, normals = GRID.boundary_nodes()
    vals = ext.values[tuple(idx.T)]
    n1, n2 = GRID.extent
    face_dists = np.sort(np.stack([idx[:, 0], n1 - 1 - idx[:, 0],
                                   idx[:, 1], n2 - 1 - idx[:, 1]]), axis=0)
    corner = ((idx[:, 0] % (n1 - 1)) == 0) & ((idx[:, 1] % (n2 - 1)) == 0)
    flat_face = face_dists[1] >= 2  # tangential distance to the nearest corner
    assert np.max(np.abs(vals[flat_face] - normals[flat_face])) <= 1e-12
    assert np.max(np.abs(vals[corner] - normals[corner])) <= 1e-12
    # the whole boundary trace stays unit length
    assert np.allclose(np.linalg.norm(vals, axis=1), 1.0, atol=1e-12)


def test_extended_normal_bounded_and_interior_zero():
    ext = extended_normal_field(GRID)
    mags = np.sqrt(np.sum(ext.values**2, axis=-1))
    assert np.max(mags) <= 1.0 + 1e-12
    center = tuple(n // 2 for n in GRID.extent)
    assert mags[center] == 0.0


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_rest_state():
    times = np.linspace(0, 0.02, 11)
    rho0 = 1.2 * np.ones(GRID.extent)
    ub = TimeSeries(GRID, times, np.zeros((11,) + GRID.extent + (2,)))
    rep = energy_report(np.broadcast_to(rho0, (11,) + GRID.extent).copy(),
                        ub, identity_window(GRID, times), PARAMS)
    eos = EquationOfState(PARAMS.a, PARAMS.gamma)
    expected = eos.potential(1.2) + PARAMS.p_ext * 1.0
    assert np.allclose(rep["energy"], expected, rtol=1e-12)
    assert np.allclose(rep["dissipation"], 0.0)
    assert np.allclose(rep["volume"], 1.0)


def test_energy_nonnegative_dissipation():
    rng = np.random.default_rng(13)
    times = np.linspace(0, 0.02, 11)
    c = GRID.coords()
    u = np.stack([np.sin(np.pi * c[..., 0]), rng.normal() * np.sin(np.pi * c[..., 1])],
                 axis=-1)
    ub = TimeSeries(GRID, times, np.broadcast_to(u, (11,) + u.shape).copy())
    rep = energy_report(np.ones((11,) + GRID.extent), ub,
                        identity_window(GRID, times), PARAMS)
    assert np.all(rep["dissipation"] >= 0.0)
    assert np.all(rep["energy"] >= 0.0)


@pytest.mark.parametrize("grid", [GRID, Grid(3, (9, 10, 11))])
def test_energy_report_matches_per_frame_oracle(grid):
    # the densities are formed on the whole window, on a window shorter than
    # the velocity and density stacks; every reported number keeps the bits
    # of the per-frame report
    rng = np.random.default_rng(grid.dim)
    times = np.linspace(0, 0.02, 11)
    c = grid.coords()
    waves = np.stack([np.sin(np.pi * (d + 1) * c[..., d] + rng.normal())
                      for d in range(grid.dim)], axis=-1)
    scale = (1.0 + 30.0 * times).reshape((-1,) + (1,) * (grid.dim + 1))
    ub = TimeSeries(grid, times, 0.2 * scale * waves)
    gradX = (np.eye(grid.dim) + 0.05 * scale[..., None]
             * np.sin(3.0 * waves[..., :, None] - waves[..., None, :]))
    window = FlowWindow.from_map(times[:8], ub.values[:8], gradX[:8], 0.25)
    rho = 1.0 + 0.1 * np.cos(scale[..., 0] * waves[..., 0])
    got = energy_report(rho, ub, window, PARAMS)
    want = per_frame_energy_report(rho, ub, window, PARAMS)
    assert got.keys() == want.keys()
    for key in want:
        assert len(got[key]) == 8
        assert np.array_equal(got[key].view(np.int64), want[key].view(np.int64)), key


# ---------------------------------------------------------------------------
# norm report
# ---------------------------------------------------------------------------

def test_norm_report_equilibrium_zero():
    times = np.linspace(0, 0.05, 26)
    L = len(times)
    fu = np.zeros((L,) + GRID.extent + (2,))
    fg = np.zeros((L,) + GRID.extent + (2,))
    rho0 = Field(GRID, np.ones(GRID.extent))
    rep = nonlinearity_norm_report(GRID, times, fu, fg, rho0, None,
                                   sigma=times[-1], p=4, q=8, theta=0.4375)
    assert rep.F_u_norm <= 1e-10
    assert rep.F_Gamma_norm <= 1e-10
    assert rep.M_sto == 0.0
    assert rep.M_rho0 > 0 and rep.M_rho0_inv > 0


def test_norm_report_window_monotone():
    rng = np.random.default_rng(17)
    times = np.linspace(0, 0.05, 26)
    L = len(times)
    fu = rng.normal(size=(L,) + GRID.extent + (2,))
    fg = rng.normal(size=(L,) + GRID.extent + (2,))
    rho0 = Field(GRID, np.ones(GRID.extent))
    full = nonlinearity_norm_report(GRID, times, fu, fg, rho0, None,
                                    sigma=times[-1], p=4, q=8, theta=0.4375)
    half = nonlinearity_norm_report(GRID, times, fu, fg, rho0, None,
                                    sigma=times[12], p=4, q=8, theta=0.4375)
    assert half.F_u_norm <= full.F_u_norm + 1e-12
