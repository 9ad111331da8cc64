import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagflow.eulerian import (
    _polygon_is_simple,
    kinematic_residual,
    reconstruct,
    write_outputs,
)
from lagflow.fields import Field, Grid
from lagflow.fixedpoint import SolveConfig, picard_solve
from lagflow.lame import FluidParams
from lagflow.noise import StochasticForcing, make_transport_field, sample_brownian


def double_loop_is_simple(loop):
    """Pairwise segment scan, one pair at a time (the oracle)."""
    n = len(loop)
    a = loop
    b = np.roll(loop, -1, axis=0)
    for i in range(n):
        d1 = b[i] - a[i]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            d2 = b[j] - a[j]
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if den == 0.0:
                continue
            r = a[j] - a[i]
            t = (r[0] * d2[1] - r[1] * d2[0]) / den
            s = (r[0] * d1[1] - r[1] * d1[0]) / den
            if 1e-12 < t < 1 - 1e-12 and 1e-12 < s < 1 - 1e-12:
                return False
    return True


def test_unit_square_is_simple():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert _polygon_is_simple(square)


def test_bow_tie_is_not_simple():
    bow_tie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert not _polygon_is_simple(bow_tie)


def test_segments_sharing_a_vertex_do_not_cross():
    # adjacent segments, the closing pair among them, meet only at vertices;
    # a collinear run of markers along one edge is parallel, not crossing
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _polygon_is_simple(triangle)
    edge_run = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0],
                         [0.0, 1.0]])
    assert _polygon_is_simple(edge_run)


coords = st.one_of(
    st.integers(-3, 3).map(float),   # collinear and shared-vertex cases
    st.floats(-1.0, 1.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=0, max_size=14))
def test_vectorized_check_matches_double_loop(points):
    loop = np.array(points, dtype=float).reshape(-1, 2)
    assert _polygon_is_simple(loop) == double_loop_is_simple(loop)


# ---------------------------------------------------------------------------
# reconstruction, kinematic residual and output files of one path
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noise_path():
    grid = Grid(2, 13)
    c = grid.coords()
    u0 = np.zeros(grid.extent + (2,))
    u0[..., 0] = 1e-3 * np.sin(np.pi * c[..., 0]) ** 2 * np.sin(np.pi * c[..., 1]) ** 2
    cfg = SolveConfig(T=0.01)
    Q = make_transport_field(2, "stream", K=2, amplitude=5e-4)
    brownian = sample_brownian(2, 1, cfg.T, cfg.dt, seed=5)
    forcing = StochasticForcing.default_modes(grid, 1, 1e-3)
    with pytest.warns(UserWarning, match="compatibility"):
        sol = picard_solve(Field(grid, np.ones(grid.extent)), Field(grid, u0),
                           FluidParams(), cfg, Q, brownian, forcing)
    return sol, Q, brownian


def test_reconstruct_reads_off_the_window(noise_path):
    sol, _, _ = noise_path
    snaps = reconstruct(sol)
    assert len(snaps) == len(sol.times) == 11
    loop = tuple(sol.grid.boundary_loop().T)
    for n, s in enumerate(snaps):
        assert s.t == sol.times[n]
        assert np.array_equal(s.labels, sol.grid.coords())
        assert np.array_equal(s.markers, sol.window.X[n])
        assert np.array_equal(s.boundary_loop, sol.window.X[n][loop])
        assert np.array_equal(s.rho, sol.rho[n])
        assert np.array_equal(s.u, sol.ubar.values[n])
        assert np.array_equal(s.J, sol.window.J[n])
        assert s.loop_is_simple
        # the marker polygon and the integral of J both give the area
        assert abs(s.volume_markers - s.volume_jacobian) <= 1e-11
    assert snaps[0].volume_markers == pytest.approx(1.0, abs=1e-14)


def test_kinematic_residual_is_small_on_the_noise_path(noise_path):
    sol, Q, brownian = noise_path
    kin = kinematic_residual(sol, Q, brownian)
    assert kin.shape == (len(sol.times) - 1,)
    assert np.all(np.isfinite(kin)) and np.all(kin >= 0.0)
    assert np.max(kin) <= 1e-8
    # without the transport term the same markers miss the update law by
    # the size of the noise increments
    assert np.max(kinematic_residual(sol, Q, None)) > 1e3 * np.max(kin)


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

    snap = np.loadtxt(tmp_path / "snapshot_10.csv", delimiter=",", skiprows=1)
    s = snaps[10]
    assert np.array_equal(snap, np.column_stack([
        s.labels.reshape(-1, 2), s.markers.reshape(-1, 2),
        s.rho.reshape(-1, 1), s.u.reshape(-1, 2), s.J.reshape(-1, 1)]))

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    assert on_disk["snapshots"] == ["snapshot_0.csv", "snapshot_10.csv"]
    assert all((tmp_path / name).is_file() for name in on_disk["snapshots"])
    problem = sol.problem
    assert on_disk["config"] == {"solve": dataclasses.asdict(problem.cfg),
                                 "fluid": dataclasses.asdict(problem.params)}
    assert on_disk["config"]["solve"]["T"] == 0.01
    assert (on_disk["tau"], on_disk["kappa"]) == (sol.tau, sol.kappa)
