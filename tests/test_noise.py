import dataclasses

import numpy as np
import pytest

from lagflow.fields import Field, Grid
from lagflow.noise import (
    StochasticForcing,
    TransportField,
    check_divergence_free,
    make_transport_field,
    refine_bridge,
    sample_brownian,
)

from map_oracle import stratonovich_drift


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic():
    a = sample_brownian(2, 1, 1.0, 0.01, seed=42)
    b = sample_brownian(2, 1, 1.0, 0.01, seed=42)
    assert np.array_equal(a.values, b.values)
    c = sample_brownian(2, 1, 1.0, 0.01, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_w0_is_zero_and_shapes():
    b = sample_brownian(3, 2, 0.5, 0.005, seed=1)
    assert b.values.shape == (5, 101)
    assert np.all(b.values[:, 0] == 0.0)
    assert b.transport_increments().shape == (3, 100)
    assert b.mode_increments().shape == (2, 100)


def test_sampling_rejects_bad_step():
    with pytest.raises(ValueError):
        sample_brownian(1, 0, 1.0, -0.1, seed=0)
    with pytest.raises(ValueError):
        sample_brownian(1, 0, 1.0, 0.3, seed=0)


@pytest.mark.parametrize("T, dt, error", [
    (0.01, np.nan, "time step must be positive"),
    (np.inf, 0.01, "finite horizon"),
], ids=["nan-step", "infinite-horizon"])
def test_sampling_shares_the_solver_step_rule(T, dt, error):
    # a NaN step used to fail in round() with "cannot convert float NaN to
    # integer", an infinite horizon with an OverflowError
    with pytest.raises(ValueError, match=error):
        sample_brownian(1, 0, T, dt, seed=0)


def test_terminal_moments():
    T, n = 1.0, 10_000
    finals = np.array([
        sample_brownian(1, 0, T, 0.25, seed=s).values[0, -1] for s in range(n)
    ])
    assert abs(finals.mean()) <= 4 * np.sqrt(T / n)
    assert abs(finals.var() - T) <= 0.1 * T


def test_path_independence():
    n = 10_000
    finals = np.array([
        sample_brownian(2, 0, 1.0, 0.5, seed=s).values[:, -1] for s in range(n)
    ])
    corr = np.corrcoef(finals.T)[0, 1]
    assert abs(corr) <= 0.05


# ---------------------------------------------------------------------------
# bridge refinement
# ---------------------------------------------------------------------------

def test_refine_preserves_coarse_values_exactly():
    b = sample_brownian(2, 1, 1.0, 0.1, seed=7)
    r = refine_bridge(b)
    assert r.step == b.step / 2
    assert np.array_equal(r.values[:, ::2], b.values)


def test_double_refinement_quarters_step():
    b = sample_brownian(1, 0, 1.0, 0.2, seed=3)
    rr = refine_bridge(refine_bridge(b))
    assert rr.step == pytest.approx(0.05)
    assert np.array_equal(rr.values[:, ::4], b.values)


def test_midpoint_variance():
    dt = 0.5
    devs = []
    for s in range(10_000):
        b = sample_brownian(1, 0, dt, dt, seed=s)
        r = refine_bridge(b)
        devs.append(r.values[0, 1] - 0.5 * (b.values[0, 0] + b.values[0, 1]))
    v = np.var(devs)
    assert abs(v - dt / 4) <= 0.1 * dt / 4


def test_refinement_is_reproducible():
    b = sample_brownian(2, 0, 1.0, 0.1, seed=5)
    assert np.array_equal(refine_bridge(b).values, refine_bridge(b).values)


@pytest.mark.parametrize("edit, error", [
    ({"step": -1e-3}, "time step must be positive and finite, got -0.001"),
    ({"step": 0.0}, "time step must be positive and finite, got 0.0"),
    ({"step": np.nan}, "time step must be positive and finite, got nan"),
    ({"level": -2}, r"level must be integers >= 0, got \(2, 1, -2\)"),
    ({"K": -1}, r"level must be integers >= 0, got \(-1, 1, 0\)"),
    ({"mode_count": 2}, r"K \+ M = 4 paths need .* got \(3, 5\)"),
], ids=["negative-step", "zero-step", "nan-step", "negative-level",
        "negative-count", "row-count"])
def test_load_rejects_a_bad_step_or_level(edit, error):
    # the checks of the former binary reader, made by every construction;
    # sample_brownian(-1, 2, ...) used to return K = -1 with one value row
    with pytest.raises(ValueError, match=error):
        dataclasses.replace(sample_brownian(2, 1, 0.004, 1e-3, seed=9), **edit)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bundle_rejects_non_finite_values(bad):
    # a NaN path value used to end in the noise flow's "determinant is not
    # finite ... (scheme blow-up)", which does not name the bad input
    b = sample_brownian(2, 1, 0.004, 1e-3, seed=9)
    values = b.values.copy()
    values[2, 3] = bad
    with pytest.raises(ValueError, match="values must be finite"):
        dataclasses.replace(b, values=values)


# ---------------------------------------------------------------------------
# transport fields and Stratonovich drift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim, kind, error", [
    (2, "bogus", "unknown transport field kind"),
    (3, "stream", "require dim 2"),
], ids=["unknown-kind", "3d-stream"])
def test_transport_field_kind_is_checked_for_every_K(dim, kind, error):
    for K in (0, 1):
        with pytest.raises(ValueError, match=error):
            make_transport_field(dim, kind, K)
    assert make_transport_field(dim, "constant", 0).K == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_constant_field_is_its_vector_bit_for_bit(dim):
    # the constant family is the linear one with A = 0 and c = 0: (pts - c)
    # @ 0 may be -0.0 at points with negative coordinates, as the matmul
    # kernel sums the products, and -0.0 + b gives b, +0.0 where b = 0
    K = dim + 1
    Q = make_transport_field(dim, "constant", K, amplitude=0.7)
    pts = np.random.default_rng(dim).uniform(-1.3, 1.3, size=(7, 5, dim))
    pts[0] = -np.abs(pts[0])
    for k in range(K):
        b = np.zeros(dim)
        b[k % dim] = 0.7
        want = np.broadcast_to(b, pts.shape).tobytes()
        zero = np.zeros(pts.shape + (dim,)).tobytes()
        val, jac = Q.value_and_jacobian(k, pts)
        assert val.tobytes() == want and Q.value(k, pts).tobytes() == want
        assert jac.tobytes() == zero and Q.jacobian(k, pts).tobytes() == zero


def test_transport_field_kind_is_checked_at_construction():
    with pytest.raises(ValueError, match="unknown transport kind 'constant'"):
        TransportField(2, "constant", {"K": 1, "b": np.ones((1, 2))})
    # a 3D stream family would read as divergence-free and fail only in
    # the noise flow, on a (..., 3, 3) against (..., 2, 2) broadcast
    with pytest.raises(ValueError, match="require dim 2"):
        TransportField(3, "stream", {"K": 1, "a": np.ones(1),
                                     "modes": [(1, 1)]})


@pytest.mark.parametrize("dim, kind, bad", [
    (2, "constant", np.nan), (2, "constant", np.inf), (3, "rotation", np.nan),
    (3, "rotation", -np.inf), (2, "stream", np.nan), (2, "stream", np.inf),
    (3, "linear_test", np.nan), (2, "linear_test", np.inf),
    (3, "linear_test", np.inf), (2, "linear_test", -np.inf),
    (3, "linear_test", -np.inf),
])
def test_transport_field_rejects_non_finite_parameters(dim, kind, bad):
    # a NaN constant amplitude used to construct, and picard_solve then
    # returned a window whose X was mostly NaN; a NaN stream or rotation
    # amplitude ended in the noise flow's "scheme blow-up" error
    with pytest.raises(ValueError, match="is not finite"):
        make_transport_field(dim, kind, 2, bad)
    A, b = np.zeros((1, dim, dim)), np.zeros((1, dim))
    with pytest.raises(ValueError, match="'c' is not finite"):
        TransportField(dim, "linear", {"K": 1, "A": A, "b": b,
                                       "c": np.full((1, dim), bad)})


def test_constant_field_drift_vanishes():
    Q = make_transport_field(2, "constant", K=2, amplitude=0.7)
    x = np.array([0.3, 0.4])
    assert np.allclose(stratonovich_drift(Q, x), 0.0)


def test_linear_test_field_drift():
    # Q(x) = x has DQ = I, so the correction is x/2
    Q = make_transport_field(2, "linear_test", K=1)
    x = np.array([0.2, -0.5])
    assert np.allclose(stratonovich_drift(Q, x), 0.5 * x)


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_test_field_scales_with_amplitude(dim):
    # A = amplitude I: the amplitude used to be ignored
    pts = np.random.default_rng(dim).uniform(-0.3, 1.3, size=(7, 5, dim))
    one, scaled = (make_transport_field(dim, "linear_test", K=2, amplitude=a)
                   for a in (1.0, 0.3))
    for k in range(2):
        assert np.array_equal(scaled.value(k, pts), 0.3 * one.value(k, pts))
        assert np.array_equal(scaled.jacobian(k, pts), 0.3 * one.jacobian(k, pts))
    assert np.array_equal(one.jacobian(0, pts), np.broadcast_to(np.eye(dim), (7, 5, dim, dim)))


def test_rotation_drift():
    # Q(x) = (x2 - 1/2, 1/2 - x1): DQ Q = 1/2 - x
    Q = make_transport_field(2, "rotation", K=1, amplitude=1.0)
    x = np.array([0.3, 0.7])
    assert np.allclose(stratonovich_drift(Q, x), -0.5 * (x - 0.5))


def test_divergence_free_closed_forms():
    g = Grid(2, (17, 17))
    for kind in ("constant", "rotation", "stream"):
        Q = make_transport_field(2, kind, K=2, amplitude=0.4)
        assert check_divergence_free(Q, g) <= 1e-12


def test_divergence_of_linear_test_field_reported():
    g = Grid(2, (9, 9))
    Q = make_transport_field(2, "linear_test", K=1)
    assert check_divergence_free(Q, g) == pytest.approx(2.0)


def test_stream_jacobian_hessian_consistent():
    # finite-difference check of the closed-form Jacobian, and symmetry of
    # the Hessian its differences give (d_l d_j Q_i = d_j d_l Q_i)
    Q = make_transport_field(2, "stream", K=2, amplitude=0.3)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.2, 0.8, size=(50, 2))
    eps = 1e-6
    for k in range(2):
        J = Q.jacobian(k, pts)
        H = np.empty(pts.shape[:-1] + (2, 2, 2))
        for d in range(2):
            e = np.zeros(2)
            e[d] = eps
            dJ = (Q.value(k, pts + e) - Q.value(k, pts - e)) / (2 * eps)
            assert np.max(np.abs(dJ - J[..., :, d])) <= 1e-7
            H[..., d] = (Q.jacobian(k, pts + e) - Q.jacobian(k, pts - e)) / (2 * eps)
        assert np.max(np.abs(H - np.swapaxes(H, -1, -2))) <= 1e-6


@pytest.mark.parametrize("dim, kind", [(2, "constant"), (2, "rotation"),
                                       (2, "linear_test"), (2, "stream"),
                                       (3, "constant"), (3, "rotation")])
def test_value_and_jacobian_match_separate_calls(dim, kind):
    # the noise flow takes both from one call; they keep the bits of the
    # separate evaluators, on a frame of points and on a flat point list
    Q = make_transport_field(dim, kind, K=3 if kind != "stream" else 4,
                             amplitude=0.7)
    rng = np.random.default_rng(dim)
    for pts in (rng.uniform(-0.3, 1.3, size=(7, 5, dim)),
                rng.uniform(-0.3, 1.3, size=(11, dim))):
        for k in range(Q.K):
            val, jac = Q.value_and_jacobian(k, pts)
            assert np.array_equal(val, Q.value(k, pts))
            assert np.array_equal(jac, Q.jacobian(k, pts))
            assert val.shape == pts.shape and jac.shape == pts.shape + (dim,)


def test_tabulated_divergence_second_order():
    # stream field sampled on a grid: FD divergence of the table is O(h^2)
    from lagflow.fields import gradient_values

    errs = []
    for n in (17, 33):
        g = Grid(2, (n, n))
        Q = make_transport_field(2, "stream", K=1, amplitude=0.5)
        vals = Q.value(0, g.coords())
        jac = gradient_values(g, vals)
        div = np.trace(jac, axis1=-2, axis2=-1)
        # centered stencils commute, so the interior divergence is exact
        assert np.max(np.abs(div[1:-1, 1:-1])) <= 1e-12
        errs.append(np.max(np.abs(div)))
    assert errs[0] / errs[1] >= 3.0  # boundary rows converge at about h^2


# ---------------------------------------------------------------------------
# Ito vs Stratonovich consistency
# ---------------------------------------------------------------------------

def heun_stratonovich_scalar(x0, W):
    """dX = X o dW via Heun predictor-corrector."""
    x = x0
    for dw in np.diff(W):
        pred = x + x * dw
        x = x + 0.5 * (x + pred) * dw
    return x


def euler_maruyama_ito_scalar(x0, W, dt):
    """dX = X/2 dt + X dW via Euler-Maruyama."""
    x = x0
    for dw in np.diff(W):
        x = x + 0.5 * x * dt + x * dw
    return x


def test_ito_stratonovich_consistency_rate():
    T = 1.0
    errs = []
    steps = [0.02, 0.01, 0.005, 0.0025]
    bundles = {s: sample_brownian(1, 0, T, steps[0], seed=s) for s in range(200)}
    for dt in steps:
        gaps = []
        for s, b in bundles.items():
            while b.step > dt * 1.0000001:
                b = refine_bridge(b)
                bundles[s] = b
            W = b.values[0]
            gaps.append(abs(heun_stratonovich_scalar(1.0, W)
                            - euler_maruyama_ito_scalar(1.0, W, b.step)))
        errs.append(np.mean(gaps))
    slope, _ = np.polyfit(np.log(steps), np.log(errs), 1)
    assert slope >= 0.45


# ---------------------------------------------------------------------------
# forcing
# ---------------------------------------------------------------------------

def test_forcing_modes_finite_and_counted():
    g = Grid(2, (17, 17))
    f = StochasticForcing.default_modes(g, 2, 0.3)
    assert f.M == 2
    assert all(np.all(np.isfinite(m.values)) for m in f.modes)
    empty = StochasticForcing([], np.zeros(0))
    assert empty.M == 0


@pytest.mark.parametrize("shape, error", [
    ((), "vector fields"),
    ((2, 2), "vector fields"),
    ((3,), "vector fields"),
], ids=["scalar", "matrix", "3-vector-on-2d"])
def test_forcing_rejects_modes_that_are_not_vector_fields(shape, error):
    # a scalar or matrix mode used to pass every check of picard_solve and
    # fail in a broadcast of the stochastic convolution
    g = Grid(2, (17, 17))
    mode = Field(g, np.zeros(g.extent + shape))
    with pytest.raises(ValueError, match=error):
        StochasticForcing([mode], [0.3])


def test_forcing_rejects_modes_on_two_grids():
    first = StochasticForcing.default_modes(Grid(2, (17, 17)), 1, 0.3).modes
    other = StochasticForcing.default_modes(Grid(2, (9, 9)), 1, 0.3).modes
    with pytest.raises(ValueError, match="mode lives on .*9, 9.*17, 17"):
        StochasticForcing(first + other, [0.3, 0.3])
    # equal grids in two instances are one grid
    same = StochasticForcing.default_modes(Grid(2, (17, 17)), 1, 0.3).modes
    assert StochasticForcing(first + same, [0.3, 0.3]).M == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forcing_rejects_non_finite_amplitudes(bad):
    # a NaN amplitude would surface only in picard_solve, as a label flow
    # escape at the first step
    modes = StochasticForcing.default_modes(Grid(2, (9, 9)), 2, 0.3).modes
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        StochasticForcing(modes, [0.3, bad])
