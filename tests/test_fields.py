import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import derivative_oracle
import lagflow.fields
from flow_oracle import component_sum, loop_pair_row
from lagflow.fields import (
    Field,
    FieldError,
    Grid,
    SlobodeckijWindow,
    TimeSeries,
    _norm_parts,
    _pair_sq,
    contract,
    frame_norms,
    gradient_values,
    hessian_values,
    slobodeckij_time_seminorm,
    spatial_norm,
    step_count,
)


@pytest.fixture
def grid():
    return Grid(2, (33, 33))


def random_smooth(grid, rng, amp=1.0):
    """Random low-frequency trig combination (smooth on the unit box)."""
    c = grid.coords()
    vals = np.zeros(grid.extent)
    for _ in range(4):
        k = rng.integers(1, 4, size=grid.dim)
        a = amp * rng.normal()
        phase = rng.uniform(0, 2 * np.pi)
        vals += a * np.prod(
            [np.sin(np.pi * k[d] * c[..., d] + phase) for d in range(grid.dim)],
            axis=0,
        )
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# grid invariants
# ---------------------------------------------------------------------------

def test_grid_spacing_matches_box(grid):
    for h, n, (a, b) in zip(grid.spacing, grid.extent, grid.box):
        assert h * (n - 1) == pytest.approx(b - a, abs=1e-15)


def test_grid_rejects_small_extent():
    with pytest.raises(ValueError):
        Grid(2, (8, 33))


@pytest.mark.parametrize("extent, box, error", [
    (9, ((0.0, np.nan), (0.0, 1.0)), "finite"),
    (9, ((np.nan, 1.0), (0.0, 1.0)), "finite"),
    (9, ((0.0, 1.0), (-np.inf, 1.0)), "finite"),
    (9, ((0.0, 1.0), (0.0, np.inf)), "finite"),
    (9.7, (), "integral"),
    ((9, 12.5), (), "integral"),
    ((9, np.nan), (), "integral"),
], ids=["nan-upper", "nan-lower", "inf-lower", "inf-upper", "scalar-9.7",
        "axis-12.5", "axis-nan"])
def test_grid_rejects_non_finite_corners_and_non_integral_extents(extent, box,
                                                                  error):
    # a NaN corner used to construct with a NaN spacing, and an extent of
    # 9.7 to become 9 nodes per axis without a word
    with pytest.raises(ValueError, match=error):
        Grid(2, extent, box)


def test_grid_takes_integral_floats_as_extents():
    assert Grid(2, 9.0).extent == (9, 9)
    assert Grid(3, (np.int64(9), 10.0, 9)).extent == (9, 10, 9)


def test_boundary_normals_unit_and_partition(grid):
    idx, normals = grid.boundary_nodes()
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    n_boundary = len(idx)
    assert n_boundary + np.sum(~grid.boundary_mask) == grid.n_nodes


def test_boundary_count_box():
    # 4(n-1) boundary nodes on an n x n square grid
    for n in (9, 17, 33):
        g = Grid(2, (n, n))
        idx, _ = g.boundary_nodes()
        assert len(idx) == 4 * (n - 1)


def test_corner_normal_is_averaged():
    g = Grid(2, (9, 9))
    idx, normals = g.boundary_nodes()
    corner = np.all(idx == 0, axis=1)
    assert np.allclose(normals[corner], [-1 / np.sqrt(2), -1 / np.sqrt(2)])


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def hessian(grid, values):
    return hessian_values(grid, values, gradient_values(grid, values))


def test_gradient_of_linear_field(grid):
    f = Field(grid, grid.coords()[..., 0])
    g = gradient_values(grid, f.values)
    assert np.allclose(g[..., 0], 1.0, atol=1e-12)
    assert np.allclose(g[..., 1], 0.0, atol=1e-12)


def test_constant_field_derivatives_vanish(grid):
    f = Field(grid, np.full(grid.extent, 3.7))
    assert np.allclose(gradient_values(grid, f.values), 0.0, atol=1e-13)
    assert np.allclose(hessian(grid, f.values), 0.0, atol=1e-12)


def test_second_derivative_exact_on_quadratic():
    g = Grid(2, (33, 33))
    f = Field(g, g.coords()[..., 0] ** 2)
    h = hessian(g, f.values)
    interior = (slice(1, -1), slice(1, -1))
    assert np.max(np.abs(h[interior + (0, 0)] - 2.0)) <= 1e-12
    assert np.max(np.abs(h[interior + (1, 1)])) <= 1e-12
    # one-sided boundary stencils are quadratic-exact as well
    assert np.max(np.abs(h[..., 0, 0] - 2.0)) <= 1e-10


def test_mixed_second_derivative_on_product():
    g = Grid(2, (33, 33))
    f = Field(g, g.coords()[..., 0] * g.coords()[..., 1])
    h = hessian(g, f.values)
    assert np.max(np.abs(h[..., 0, 1] - 1.0)) <= 1e-12


@pytest.mark.parametrize("grid", [Grid(2, (9, 9)), Grid(2, (11, 13)),
                                  Grid(3, (9, 10, 11))])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_stacked_derivatives_equal_per_frame(grid, rank):
    # nine frames on a 9 x 9 grid: the frame count equals an extent
    rng = np.random.default_rng(rank)
    stack = rng.normal(size=(9,) + grid.extent + (grid.dim,) * rank)
    assert np.array_equal(gradient_values(grid, stack),
                          np.stack([gradient_values(grid, f) for f in stack]))
    assert np.array_equal(hessian(grid, stack),
                          np.stack([hessian(grid, f) for f in stack]))


@pytest.mark.parametrize("grid", [Grid(2, (11, 13)), Grid(3, (9, 10, 11))])
def test_hessian_mixed_terms_are_nested_first_derivatives(grid):
    # the mixed terms come from the caller's gradient; they must equal the
    # first derivative of the first derivative taken afresh, bit for bit
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(4,) + grid.extent + (grid.dim,))
    h = hessian(grid, stack)
    for k in range(grid.dim):
        for l in range(k + 1, grid.dim):
            d = np.gradient(np.gradient(stack, grid.spacing[k], axis=1 + k,
                                        edge_order=2),
                            grid.spacing[l], axis=1 + l, edge_order=2)
            assert np.array_equal(h[..., k, l], d)
            assert np.array_equal(h[..., l, k], d)


def signed_zero_values(rng, shape):
    """Normal values with about half the entries +0.0 or -0.0."""
    a = rng.normal(size=shape)
    zero = np.abs(a) < 0.7
    a[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    return a


def layouts(a):
    """``a`` as it is, and as non-contiguous views with the same values."""
    yield a
    yield np.asfortranarray(a)
    if a.ndim >= 2:
        yield np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)
    spread = np.zeros((2,) + a.shape)
    spread[0] = a
    yield spread[0]                         # every other value of a buffer
    yield np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


@pytest.mark.parametrize("grid", [Grid(2, (11, 13), ((0.0, 1.3), (-0.5, 0.2))),
                                  Grid(3, (9, 10, 11))])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["frame", "stack"])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_derivatives_match_np_gradient_oracle(grid, lead, rank):
    # the derivative kernels write np.gradient's uniform-spacing arithmetic
    # into one result array; their bits, signed zeros included, are those
    # of np.gradient and np.stack, on frames, stacks and strided inputs
    rng = np.random.default_rng(10 * grid.dim + rank)
    values = signed_zero_values(rng, lead + grid.extent + (grid.dim,) * rank)
    want_g = derivative_oracle.gradient_values(grid, values)
    want_h = derivative_oracle.hessian_values(grid, values, want_g)
    assert np.signbit(want_g[want_g == 0]).any()
    for a in layouts(values):
        got_g = gradient_values(grid, a)
        assert bit_equal(got_g, want_g)
        assert bit_equal(hessian_values(grid, a, got_g), want_h)
        assert bit_equal(hessian_values(grid, a, np.asfortranarray(got_g)), want_h)


@pytest.mark.parametrize("grid", [Grid(2, (11, 13), ((0.0, 1.3), (-0.5, 0.2))),
                                  Grid(3, (9, 10, 11), ((0.0, 2.0), (-1.0, 0.5),
                                                        (0.25, 0.75)))],
                         ids=["2d", "3d"])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["frame", "stack"])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_interior_stencils_equal_the_full_grid_interior(grid, lead, rank):
    # the centered and compact stencils alone give the interior rows of
    # gradient_values and hessian_values, signed zeros included
    rng = np.random.default_rng(20 * grid.dim + rank)
    values = signed_zero_values(rng, lead + grid.extent + (grid.dim,) * rank)
    inner = (slice(None),) * len(lead) + (slice(1, -1),) * grid.dim
    g = gradient_values(grid, values)
    got_g = lagflow.fields.interior_gradient(grid, values)
    got_h = lagflow.fields.interior_hessian(grid, values, g)
    assert got_g.shape == g[inner].shape
    assert bit_equal(got_g, g[inner])
    assert bit_equal(got_h, hessian_values(grid, values, g)[inner])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_first_derivative_writes_into_a_strided_view(axis):
    # _d1 into a slice of a larger array (the caller's out[..., ax]) leaves
    # the rest of it alone and holds np.gradient's bits
    rng = np.random.default_rng(axis)
    values = signed_zero_values(rng, (9, 10, 11, 2))[..., 1]
    buf = np.full(values.shape + (3,), 7.0)
    got = lagflow.fields._d1(values, axis, 0.125, out=buf[..., 1])
    assert got.base is buf
    assert bit_equal(buf[..., 1], derivative_oracle._d1(values, axis, 0.125))
    assert np.all(buf[..., [0, 2]] == 7.0)
    assert bit_equal(lagflow.fields._d1(values, axis, 0.125),
                     derivative_oracle._d1(values, axis, 0.125))


def test_derivatives_reject_foreign_shape(grid):
    with pytest.raises(FieldError):
        gradient_values(grid, np.zeros((2, 3) + grid.extent))
    with pytest.raises(FieldError):
        hessian_values(grid, np.zeros((32, 33)), np.zeros((32, 33, 2)))


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_differentiate_is_linear(a, b):
    g = Grid(2, (9, 9))
    rng = np.random.default_rng(7)
    f1 = random_smooth(g, rng)
    f2 = random_smooth(g, rng)
    lhs = gradient_values(g, a * f1.values + b * f2.values)
    rhs = a * gradient_values(g, f1.values) + b * gradient_values(g, f2.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (1 + abs(a) + abs(b)) * 100


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_unit_constant_lq_norm(grid):
    f = Field(grid, np.ones(grid.extent))
    assert spatial_norm(grid, f.values, "Lq", 4) == pytest.approx(1.0, abs=1e-12)


def test_zero_field_all_norms(grid):
    f = Field.zeros(grid)
    for kind in ("Lq", "H1q", "H2q"):
        assert spatial_norm(grid, f.values, kind, 3) == 0.0


def test_sin_l2_norm_closed_form():
    # integral of sin^2(pi y1) over the unit square is 1/2
    g = Grid(2, (65, 65))
    f = Field(g, np.sin(np.pi * g.coords()[..., 0]))
    assert spatial_norm(g, f.values, "Lq", 2) == pytest.approx(1 / np.sqrt(2),
                                                        abs=1e-3)


def test_norm_rejects_small_q(grid):
    with pytest.raises(FieldError):
        spatial_norm(grid, np.zeros(grid.extent), "Lq", 1.0)


def test_norm_homogeneous_degree_one(grid):
    rng = np.random.default_rng(3)
    f = random_smooth(grid, rng)
    for kind in ("Lq", "H1q", "H2q"):
        n1 = spatial_norm(grid, f.values, kind, 4)
        n3 = spatial_norm(grid, 3.0 * f.values, kind, 4)
        assert n3 == pytest.approx(3.0 * n1, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_norm_triangle_inequality(seed):
    g = Grid(2, (9, 9))
    rng = np.random.default_rng(seed)
    f1 = random_smooth(g, rng)
    f2 = random_smooth(g, rng)
    for kind in ("Lq", "H1q"):
        lhs = spatial_norm(g, f1.values + f2.values, kind, 4)
        rhs = (spatial_norm(g, f1.values, kind, 4)
               + spatial_norm(g, f2.values, kind, 4))
        assert lhs <= rhs + 1e-12 * (1 + rhs)


def test_timeseries_norm_monotone_in_window(grid):
    rng = np.random.default_rng(11)
    frames = np.stack([random_smooth(grid, rng).values for _ in range(6)])
    ts = TimeSeries(grid, np.linspace(0, 0.5, 6), frames)
    full = np.max(frame_norms(grid, ts.values, "H1q", 4))
    short = np.max(frame_norms(grid, ts.restrict(3).values, "H1q", 4))
    assert short <= full + 1e-15


def test_banach_algebra_constant_stable_under_refinement():
    # fitted product-norm constant changes by < 10% from n=17 to n=33
    def fitted_constant(g, n_pairs=12):
        rng = np.random.default_rng(42)
        ratios = []
        for _ in range(n_pairs):
            f = random_smooth(g, rng)
            h = random_smooth(g, rng)
            num = spatial_norm(g, f.values * h.values, "H1q", 4)
            den = (spatial_norm(g, f.values, "H1q", 4)
                   * spatial_norm(g, h.values, "H1q", 4))
            ratios.append(num / den)
        return max(ratios)

    c_coarse = fitted_constant(Grid(2, (17, 17)))
    c_fine = fitted_constant(Grid(2, (33, 33)))
    assert abs(c_fine / c_coarse - 1.0) <= 0.10


# ---------------------------------------------------------------------------
# fractional time norm
# ---------------------------------------------------------------------------

def brute_force_htheta(ts, theta, p, kind, q):
    """Independent double-loop evaluation of the discrete H^(theta,p) norm."""
    g = [spatial_norm(ts.grid, v, kind, q) for v in ts.values]
    lp = np.trapezoid(np.array(g) ** p, ts.times) ** (1 / p)
    dt = ts.times[1] - ts.times[0]
    sem = 0.0
    for i in range(len(ts)):
        for j in range(len(ts)):
            if i == j:
                continue
            d = spatial_norm(ts.grid, ts.values[i] - ts.values[j], kind, q)
            sem += d**p * dt**2 / abs(ts.times[i] - ts.times[j]) ** (1 + theta * p)
    return (lp**p + sem) ** (1 / p)


def test_slobodeckij_constant_series_is_zero(grid):
    vals = np.broadcast_to(np.ones(grid.extent), (5,) + grid.extent).copy()
    ts = TimeSeries(grid, np.linspace(0, 1, 5), vals)
    # constant-in-time: seminorm part vanishes, Lp part is that of the constant
    full = slobodeckij_time_seminorm(ts, 0.3, 4, "Lq", 2)
    lp_only = np.trapezoid(np.ones(5), ts.times) ** (1 / 4)
    assert full == pytest.approx(lp_only, rel=1e-12)
    zero = TimeSeries(grid, np.linspace(0, 1, 5), np.zeros((5,) + grid.extent))
    assert slobodeckij_time_seminorm(zero, 0.3, 4) == 0.0


def test_slobodeckij_single_frame_degenerate(grid):
    ts = TimeSeries(grid, np.array([0.0]), np.ones((1,) + grid.extent))
    assert slobodeckij_time_seminorm(ts, 0.4, 4) == 0.0


def test_slobodeckij_matches_brute_force():
    # every norm kind, on a 2D and a 3D grid
    for grid, n_frames in ((Grid(2, (9, 9)), 65), (Grid(3, (9, 9, 9)), 17)):
        c = grid.coords()
        base = np.sin(np.pi * c[..., 0])
        bump = np.prod([np.sin(np.pi * c[..., d]) ** 2 for d in range(grid.dim)],
                       axis=0)
        times = np.linspace(0.0, 1.0, n_frames)
        vals = (times[:, None] * base.reshape(1, -1)
                + np.cos(3 * times)[:, None] * bump.reshape(1, -1))
        ts = TimeSeries(grid, times, vals.reshape((n_frames,) + grid.extent))
        for kind in ("Lq", "H1q", "H2q"):
            ours = slobodeckij_time_seminorm(ts, 0.4, 4, kind, 2)
            ref = brute_force_htheta(ts, 0.4, 4, kind, 2)
            assert ours == pytest.approx(ref, rel=1e-12), (grid.dim, kind)


def test_slobodeckij_nondecreasing_in_frames(grid):
    rng = np.random.default_rng(5)
    vals = np.stack([random_smooth(grid, rng).values for _ in range(8)])
    ts = TimeSeries(grid, np.linspace(0, 0.7, 8), vals)
    prev = 0.0
    for k in range(2, 9):
        cur = slobodeckij_time_seminorm(ts.restrict(k), 0.4, 4)
        assert cur >= prev - 1e-12
        prev = cur


def test_slobodeckij_rejects_nonuniform(grid):
    ts = TimeSeries(grid, np.array([0.0, 0.1, 0.3]), np.zeros((3,) + grid.extent))
    with pytest.raises(FieldError):
        slobodeckij_time_seminorm(ts, 0.4, 4)


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan],
                                   [0.0, 0.5, 0.5]],
                         ids=["nan-inside", "nan-last", "repeated"])
def test_timeseries_times_must_increase(grid, times):
    # every comparison with NaN is False, so a NaN time used to pass a
    # check written as "no step <= 0"
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeries(grid, times, np.zeros((3,) + grid.extent))


def test_timeseries_needs_a_frame(grid):
    # an empty series used to fail with an IndexError on its first time
    with pytest.raises(ValueError, match="frame at t = 0"):
        TimeSeries(grid, np.zeros(0), np.zeros((0,) + grid.extent))


@pytest.mark.parametrize("T, dt, error", [
    (0.05, np.nan, "time step must be positive"),
    (0.05, 0.0, "time step must be positive"),
    (np.nan, 1e-3, "finite horizon"),
    (np.inf, 1e-3, "finite horizon"),
    (0.0, 1e-3, "finite horizon"),
    (0.05, 0.03, "does not divide"),
])
def test_step_count_rejects_a_step_that_does_not_divide_the_horizon(T, dt,
                                                                    error):
    with pytest.raises(ValueError, match=error):
        step_count(T, dt)


def test_step_count_allows_rounding():
    # 0.3 / 0.1 is 2.9999999999999996 and 0.043 / 1e-3 is 42.99999999999999
    # in floating point
    assert step_count(0.3, 0.1) == 3
    assert step_count(0.043, 1e-3) == 43


@pytest.mark.parametrize("n_comp", [1, 2, 3, 4, 6, 8, 9, 27])
def test_pair_sq_matches_einsum_component_sum(n_comp):
    # the squared components add up in storage order, left to right, as in
    # a plain loop.  A scratch of two frames' differences takes the history
    # in chunks of two rows.
    rng = np.random.default_rng(n_comp)
    L, npts = 7, 50
    vals = rng.standard_normal((L, npts, n_comp)) * 10.0 ** rng.uniform(-4, 4, (L, npts, n_comp))
    buf = vals.transpose(0, 2, 1).copy()
    diff = np.empty(2 * n_comp * npts)
    out = np.empty((L - 1, npts))
    for n in range(1, L):
        got = _pair_sq(buf, n, diff, out)
        assert np.array_equal(got, component_sum(vals[:n] - vals[n]))


@pytest.mark.parametrize("q", [8.0, 5.0, 2.0])
@pytest.mark.parametrize("dim, comp", [(2, ()), (2, (2, 2)), (3, ()), (3, (3, 3))])
def test_window_pair_rows_match_einsum_oracle(dim, comp, q):
    # H1q parts of 1 + 2, 4 + 8, 1 + 3 and 9 + 27 components: every row of
    # pair terms equals the storage-order loop on the node-major layout bit
    # for bit (q = 8 also catches a power taken in place on the squared sums)
    rng = np.random.default_rng(dim + len(comp))
    g = Grid(dim, (9, 10, 11)[:dim])
    L = 9
    frames = 1e-2 * np.cumsum(rng.normal(size=(L,) + g.extent + comp), axis=0)
    theta, p = 0.4375, 4.0
    win = SlobodeckijWindow(g, np.linspace(0.0, 0.008, L), theta, p, "H1q", q)
    win.load(frames[:4])
    win.load(frames[4:])
    parts = [a.reshape(L, g.n_nodes, -1) for a in _norm_parts(g, frames, "H1q")]
    for n in range(L):
        win.advance()
        if n:
            want = loop_pair_row(parts, n, g.quad_weights.ravel(), q, p)
            assert np.array_equal(win.pair_pow[n][0], want)


# ---------------------------------------------------------------------------
# index contractions
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "lagflow"


def calls_named(tree, name):
    """Calls of ``name`` or ``<module>.name`` in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                yield node


def literal_args(call, n, where):
    args = call.args[:n]
    assert len(args) == n and all(
        isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args), (
        f"{where}:{call.lineno}: subscripts and order must be string literals")
    return tuple(a.value for a in args)


def spread_operands(rng, subscripts, lead, dim):
    """Random operands of a ``...`` signature, magnitudes over 1e-3 .. 1e3."""
    ins = subscripts.split("->")[0].replace("...", "").split(",")
    shapes = [lead + (dim,) * len(s) for s in ins]
    return [rng.standard_normal(s) * 10.0 ** rng.uniform(-3, 3, s) for s in shapes]


LEADS = {2: (11, 13), 3: (9, 9, 9)}


def contract_sites():
    """{(subscripts, order): file} of every ``contract`` call in the package."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for call in calls_named(ast.parse(path.read_text()), "contract"):
            sites.setdefault(literal_args(call, 2, path.name), path.name)
    assert len(sites) >= 10, sites
    return sites


def bit_equal(a, b):
    """Same shape and the same bits (so -0.0 differs from +0.0)."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64),
        np.ascontiguousarray(b).view(np.int64))


def test_contract_matches_einsum_at_every_call_site():
    # contract's order strings reproduce einsum's loop order on the
    # installed numpy; a wrong order or a numpy that changes einsum's loop
    # fails here, at the call site's own signature
    sites = contract_sites()
    rng = np.random.default_rng(5)
    for (subscripts, order), where in sites.items():
        for dim, ext in LEADS.items():
            for lead in ((), ext, (5,) + ext):
                ops = spread_operands(rng, subscripts, lead, dim)
                assert np.array_equal(contract(subscripts, order, *ops),
                                      np.einsum(subscripts, *ops)), (
                    f"{where}: contract({subscripts!r}, {order!r}) in "
                    f"{dim}D, leading shape {lead}")


@pytest.mark.parametrize("chunk_bytes", [1 << 19, 1], ids=["one-block", "row-blocks"])
def test_contract_one_frame_operand_against_a_stack(monkeypatch, chunk_bytes):
    # rho0 and the normals come as one frame against frame stacks: each
    # operand in turn is one frame, the others are 4-frame stacks; the
    # kernel's blocks of the first leading axis (here one frame each, or
    # the whole stack) slice the stacks and leave the one frame whole
    monkeypatch.setattr(lagflow.fields, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(7)
    for (subscripts, order), where in contract_sites().items():
        for dim, ext in LEADS.items():
            ops = spread_operands(rng, subscripts, (4,) + ext, dim)
            for k in range(len(ops)):
                mixed = list(ops)
                mixed[k] = ops[k][1]
                assert bit_equal(contract(subscripts, order, *mixed),
                                 np.einsum(subscripts, *mixed)), (
                    f"{where}: {subscripts!r} in {dim}D, operand {k} one frame")


def test_contract_reads_non_contiguous_operands():
    # slices of a stack (Z[sl]), boundary gathers that keep the frame axis
    # and transposed views reach the kernel as they are; its bits are those
    # of einsum on contiguous copies (einsum itself changes its loop order
    # on some transposed component layouts, the kernel does not)
    rng = np.random.default_rng(8)
    for (subscripts, order), where in contract_sites().items():
        for dim, ext in LEADS.items():
            idx = np.argwhere(np.ones(ext, bool))[::3]
            bsel = (slice(None),) + tuple(idx.T)
            for make in (lambda a: a[1::2],                      # every other frame
                         lambda a: a[bsel],                       # gathered nodes
                         lambda a: np.swapaxes(a, -1, -2).copy().swapaxes(-1, -2),
                         lambda a: np.moveaxis(np.ascontiguousarray(
                             np.moveaxis(a, 0, -1)), -1, 0)):    # frame axis last in memory
                ops = [make(a) for a in
                       spread_operands(rng, subscripts, (6,) + ext, dim)]
                assert not any(a.flags.c_contiguous for a in ops)
                want = np.einsum(subscripts, *map(np.ascontiguousarray, ops))
                assert bit_equal(contract(subscripts, order, *ops), want), (
                    f"{where}: {subscripts!r} in {dim}D, strides {ops[0].strides}")


def test_contract_keeps_signed_zeros():
    # einsum's sum starts at +0.0, so a sum of -0.0 terms is +0.0 (the
    # first frame is all -0.0); the kernel's term + 0.0 must give the same
    rng = np.random.default_rng(9)
    for (subscripts, order), where in contract_sites().items():
        for dim, ext in LEADS.items():
            ops = spread_operands(rng, subscripts, (3,) + ext, dim)
            for a in ops:
                a[rng.random(a.shape) < 0.3] = 0.0
                a[rng.random(a.shape) < 0.3] = -0.0
                a[0] = -0.0
            assert bit_equal(contract(subscripts, order, *ops),
                             np.einsum(subscripts, *ops)), (
                f"{where}: {subscripts!r} in {dim}D")


@pytest.mark.parametrize("dim, lead", [(3, (21, 21, 21)), (3, (11, 13, 13, 13)),
                                       (2, (33, 33)), (2, (51, 25, 25))],
                         ids=["3d-padded-21^3", "3d-11-levels-13^3",
                              "2d-padded-33^2", "2d-51-levels-25^2"])
def test_contract_on_workload_shapes(dim, lead):
    # the noise flow's padded grid and a whole window's level stack
    rng = np.random.default_rng(10)
    for (subscripts, order), where in contract_sites().items():
        ops = spread_operands(rng, subscripts, lead, dim)
        assert bit_equal(contract(subscripts, order, *ops),
                         np.einsum(subscripts, *ops)), (
            f"{where}: {subscripts!r}, leading shape {lead}")


def test_assembly_einsums_stack_like_frames():
    # the sums the kernel cannot reproduce stay np.einsum on chunk stacks;
    # a frame of a stack must get what it gets alone
    tree = ast.parse((SRC / "nonlinear.py").read_text())
    sigs = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("assemble_"):
            sigs.update(literal_args(call, 1, fn.name)[0]
                        for call in calls_named(fn, "einsum"))
    assert sigs
    rng = np.random.default_rng(6)
    for subscripts in sorted(sigs):
        for dim, ext in LEADS.items():
            ops = spread_operands(rng, subscripts, (5,) + ext, dim)
            frames = [np.einsum(subscripts, *(op[n] for op in ops)) for n in range(5)]
            assert np.array_equal(np.einsum(subscripts, *ops), np.stack(frames)), (
                f"np.einsum({subscripts!r}) in {dim}D")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_constant(grid):
    idx, _ = grid.boundary_nodes()
    vals = np.full(grid.extent, 2.5)[tuple(idx.T)]
    assert np.allclose(vals, 2.5)


def test_trace_coordinate(grid):
    f = Field(grid, grid.coords()[..., 0])
    idx, _ = grid.boundary_nodes()
    vals = f.values[tuple(idx.T)]
    on_boundary = np.any((idx == 0) | (idx == np.array(grid.extent) - 1), axis=1)
    assert np.all(on_boundary)
    assert np.allclose(vals, grid.coords()[tuple(idx.T)][:, 0])


def test_trace_count(grid):
    idx, _ = grid.boundary_nodes()
    assert len(idx) == 4 * (grid.extent[0] - 1)
