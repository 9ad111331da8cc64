import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import lagflow.eulerian
from lagflow.eulerian import (
    _kuhn_certificate,
    kinematic_residual,
    reconstruct,
    validate_solution,
    write_outputs,
)
from lagflow.fields import Field, Grid
from lagflow.fixedpoint import SolveConfig, picard_solve
from lagflow.lame import FluidParams
from lagflow.noise import StochasticForcing, make_transport_field, sample_brownian


def folded(y):
    """X_1 = 0.5 - |y_1 - 0.5|, the other components the identity."""
    X = y.copy()
    X[..., 0] = 0.5 - np.abs(y[..., 0] - 0.5)
    return X


def simplex_by_simplex(grid, X):
    """Margin and volume of one frame, one Kuhn simplex at a time (oracle).

    Each simplex's gradient solves D (v_k - v_0) = X(v_k) - X(v_0) over its
    edges from the first vertex; its image volume is det D times its own.
    """
    y, steps = grid.coords(), np.eye(grid.dim, dtype=int)
    worst, volume = 0.0, 0.0
    for cell in np.ndindex(*(n - 1 for n in grid.extent)):
        for order in itertools.permutations(range(grid.dim)):
            walk = list(itertools.accumulate(
                (steps[a] for a in order), initial=np.array(cell)))
            E_y = np.array([y[tuple(v)] - y[cell] for v in walk[1:]]).T
            E_x = np.array([X[tuple(v)] - X[cell] for v in walk[1:]]).T
            D = E_x @ np.linalg.inv(E_y)
            worst = max(worst, np.linalg.norm(D - np.eye(grid.dim)))
            volume += (np.linalg.det(D) * abs(np.linalg.det(E_y))
                       / math.factorial(grid.dim))
    return 1.0 - worst, volume


def test_unit_square_is_simple():
    # the identity markers of the unit square: full margin, unit area
    grid = Grid(2, 9)
    margin, volume = _kuhn_certificate(grid, grid.coords()[None])
    assert margin[0] == 1.0
    assert abs(volume[0] - 1.0) <= 1e-15


def test_bow_tie_is_not_simple():
    # the bilinear map sending the corners (0,0), (1,0), (1,1), (0,1) to
    # (0,0), (1,1), (1,0), (0,1): its boundary image is a bow tie, whose
    # two lobes have opposite orientation and cancel in the signed area
    grid = Grid(2, 9)
    y = grid.coords()
    X = y.copy()
    X[..., 1] = y[..., 1] + y[..., 0] - 2.0 * y[..., 0] * y[..., 1]
    margin, volume = _kuhn_certificate(grid, X[None])
    assert margin[0] < 0.0
    assert abs(volume[0]) <= 1e-15


@pytest.mark.parametrize("dim", [2, 3])
def test_certificate_of_affine_and_folded_maps(dim):
    box = ((0.0, 1.0), (-0.5, 1.5), (0.25, 1.0))[:dim]
    grid = Grid(dim, (9, 11, 10)[:dim], box)
    y = grid.coords()
    rng = np.random.default_rng(dim)
    A = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim))
    frames = np.stack([y, y @ A.T + rng.standard_normal(dim)])
    margin, volume = _kuhn_certificate(grid, frames)
    size = np.prod([hi - lo for lo, hi in box])
    assert abs(margin[0] - 1.0) <= 1e-14 and abs(volume[0] - size) <= 1e-14
    assert 0.0 < margin[1] < 1.0
    assert abs(margin[1] - (1.0 - np.linalg.norm(A - np.eye(dim)))) <= 1e-14
    assert abs(volume[1] - np.linalg.det(A) * size) <= 1e-14
    # the fold reverses the first axis on the cells past y_1 = 0.5
    margin, _ = _kuhn_certificate(grid, folded(y)[None])
    assert margin[0] < 0.0
    # a smooth map whose differences along one axis vary along the others
    # pins the vertex of every column
    X = y + 0.1 * np.sin(3.0 * y * np.roll(y, 1, axis=-1))
    margin, volume = _kuhn_certificate(grid, X[None])
    oracle = simplex_by_simplex(grid, X)
    assert abs(margin[0] - oracle[0]) <= 1e-12
    assert abs(volume[0] - oracle[1]) <= 1e-12


# ---------------------------------------------------------------------------
# reconstruction, kinematic residual and output files of one path
# ---------------------------------------------------------------------------

# per dim: nodes per axis, horizon, transport kind, paths and amplitude;
# the 3D path has the inputs of the benchmark's solid3d workload
NOISE_PATHS = {
    2: (13, 0.01, "stream", 2, 5e-4),
    3: (13, 0.01, "rotation", 1, 1e-3),
}


@pytest.fixture(scope="module", params=sorted(NOISE_PATHS), ids=lambda d: f"{d}d")
def noise_path(request):
    dim = request.param
    n, T, kind, K, amplitude = NOISE_PATHS[dim]
    grid = Grid(dim, n)
    c = grid.coords()
    u0 = np.zeros(grid.extent + (dim,))
    u0[..., 0] = 1e-3 * np.prod(np.sin(np.pi * c) ** 2, axis=-1)
    cfg = SolveConfig(T=T)
    Q = make_transport_field(dim, kind, K=K, amplitude=amplitude)
    brownian = sample_brownian(K, 1, cfg.T, cfg.dt, seed=5)
    forcing = StochasticForcing.default_modes(grid, 1, 1e-3)
    with pytest.warns(UserWarning, match="compatibility"):
        sol = picard_solve(Field(grid, np.ones(grid.extent)), Field(grid, u0),
                           FluidParams(), cfg, Q, brownian, forcing)
    return sol, Q, brownian


def test_noise_path_converges_with_positive_density(noise_path):
    sol, _, _ = noise_path
    cfg = sol.problem.cfg
    assert sol.converged and sol.rho_positive
    assert sol.tau == cfg.T
    assert sol.diffs[-1] <= cfg.picard_tol
    assert np.all(sol.rho > 0.0)


def test_certificate_is_taken_once_per_window(noise_path, monkeypatch):
    sol, _, _ = noise_path
    grid, X = sol.grid, sol.window.X
    margins, volumes = _kuhn_certificate(grid, X)
    calls = []

    def counting(*args):
        calls.append(args)
        return _kuhn_certificate(*args)

    monkeypatch.setattr(lagflow.eulerian, "_kuhn_certificate", counting)
    fresh = dataclasses.replace(sol)
    report = validate_solution(fresh, fresh.problem.params)
    snaps = reconstruct(fresh)
    assert len(calls) == 1
    # frames are certified independently, so a prefix of the window's
    # certificate is bit for bit the certificate of the prefix
    head = _kuhn_certificate(grid, X[:4])
    assert np.array_equal(head[0], margins[:4])
    assert np.array_equal(head[1], volumes[:4])
    assert report["diffeomorphism"]["injectivity_margin"] == np.min(margins)
    assert [s.volume_markers for s in snaps] == volumes.tolist()
    # a swapped window is certified anew
    fresh.window = fresh.window.restrict(3)
    assert len(reconstruct(fresh)) == 3 and len(calls) == 2


def test_reconstruct_reads_off_the_window(noise_path):
    sol, _, _ = noise_path
    snaps = reconstruct(sol)
    cfg = sol.problem.cfg
    assert len(snaps) == len(sol.times) == round(cfg.T / cfg.dt) + 1
    for n, s in enumerate(snaps):
        assert s.t == sol.times[n]
        assert np.array_equal(s.labels, sol.grid.coords())
        assert np.array_equal(s.markers, sol.window.X[n])
        assert np.array_equal(s.rho, sol.rho[n])
        assert np.array_equal(s.u, sol.ubar.values[n])
        assert np.array_equal(s.J, sol.window.J[n])
        # the PL image of the cells and the integral of J both give the volume
        assert abs(s.volume_markers - s.volume_jacobian) <= 1e-11
    assert snaps[0].volume_markers == pytest.approx(1.0, abs=1e-14)


def test_folded_markers_fail_the_diffeomorphism_check(noise_path):
    sol, _, _ = noise_path
    report = validate_solution(sol, sol.problem.params)
    assert report["passed"]
    assert 0.99 < report["diffeomorphism"]["injectivity_margin"] <= 1.0
    # fold the last frame only: every frame of the window is checked
    X = sol.window.X.copy()
    X[-1] = folded(X[-1])
    window = dataclasses.replace(sol.window, X=X)
    report = validate_solution(dataclasses.replace(sol, window=window),
                               sol.problem.params)
    diffeo = report["diffeomorphism"]
    assert diffeo["jacobian_positive"]
    assert diffeo["injectivity_margin"] < 0.0
    assert not diffeo["passed"] and not report["passed"]


def test_kinematic_residual_is_small_on_the_noise_path(noise_path):
    sol, Q, brownian = noise_path
    kin = kinematic_residual(sol, Q, brownian)
    assert kin.shape == (len(sol.times) - 1,)
    assert np.all(np.isfinite(kin)) and np.all(kin >= 0.0)
    assert np.max(kin) <= 1e-8
    if sol.grid.dim == 3:
        # rotation noise is linear in x, so the flow's Heun step and the
        # midpoint law differ only at third order in the small increments:
        # the residual is round-off (about 5e-13)
        assert np.max(kin) <= 1e-11
    # without the transport term the same markers miss the update law by
    # the size of the noise increments
    assert np.max(kinematic_residual(sol, Q, None)) > 1e3 * np.max(kin)


def test_kinematic_residual_needs_one_path_per_field(noise_path):
    sol, Q, brownian = noise_path
    for K in (Q.K - 1, Q.K + 1):
        other = sample_brownian(K, 1, brownian.T, brownian.step, seed=5)
        with pytest.raises(ValueError, match="transport fields"):
            kinematic_residual(sol, Q, other)


def test_written_outputs_reload_exactly(noise_path, tmp_path):
    sol, Q, brownian = noise_path
    snaps = reconstruct(sol)
    kin = kinematic_residual(sol, Q, brownian)
    summary = write_outputs(sol, snaps, tmp_path, kin)

    diag = np.loadtxt(tmp_path / "diagnostics.csv", delimiter=",", skiprows=1)
    mon, n_rows = sol.monitor, len(sol.times)
    assert diag.shape == (n_rows, 9)
    assert np.array_equal(diag[:, 0], sol.times)
    assert np.array_equal(diag[:len(mon.sup_gradX), 1], mon.sup_gradX)
    assert np.array_equal(diag[:len(mon.htheta_Z), 2], mon.htheta_Z)
    assert np.array_equal(diag[:len(mon.htheta_J), 3], mon.htheta_J)
    J = sol.window.J.reshape(n_rows, -1)
    assert np.array_equal(diag[:, 4], J.min(axis=1))
    assert np.array_equal(diag[:, 5], J.max(axis=1))
    assert np.array_equal(diag[:, 6], sol.energy["energy"])
    assert np.array_equal(diag[:, 7], sol.energy["dissipation"])
    assert diag[0, 8] == 0.0
    assert np.array_equal(diag[1:, 8], kin)

    last = len(snaps) - 1 - (len(snaps) - 1) % 10
    snap = np.loadtxt(tmp_path / f"snapshot_{last}.csv", delimiter=",",
                      skiprows=1)
    s, dim = snaps[last], sol.grid.dim
    assert np.array_equal(snap, np.column_stack([
        s.labels.reshape(-1, dim), s.markers.reshape(-1, dim),
        s.rho.reshape(-1, 1), s.u.reshape(-1, dim), s.J.reshape(-1, 1)]))

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    assert on_disk["snapshots"] == [f"snapshot_{k}.csv"
                                    for k in range(0, last + 1, 10)]
    assert all((tmp_path / name).is_file() for name in on_disk["snapshots"])
    problem = sol.problem
    assert on_disk["config"] == {"solve": dataclasses.asdict(problem.cfg),
                                 "fluid": dataclasses.asdict(problem.params)}
    assert on_disk["config"]["solve"]["T"] == NOISE_PATHS[dim][1]
    assert (on_disk["tau"], on_disk["kappa"]) == (sol.tau, sol.kappa)
