import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagflow.fields import (
    Field,
    FieldError,
    Grid,
    TimeSeries,
    contract,
    frame_norms,
    gradient_values,
    hessian_values,
    slobodeckij_time_seminorm,
    spatial_norm,
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

def test_gradient_of_linear_field(grid):
    f = Field.from_function(grid, lambda c: c[..., 0])
    g = gradient_values(grid, f.values)
    assert np.allclose(g[..., 0], 1.0, atol=1e-12)
    assert np.allclose(g[..., 1], 0.0, atol=1e-12)


def test_constant_field_derivatives_vanish(grid):
    f = Field(grid, np.full(grid.extent, 3.7))
    assert np.allclose(gradient_values(grid, f.values), 0.0, atol=1e-13)
    assert np.allclose(hessian_values(grid, f.values), 0.0, atol=1e-12)


def test_second_derivative_exact_on_quadratic():
    g = Grid(2, (33, 33))
    f = Field.from_function(g, lambda c: c[..., 0] ** 2)
    h = hessian_values(g, f.values)
    interior = (slice(1, -1), slice(1, -1))
    assert np.max(np.abs(h[interior + (0, 0)] - 2.0)) <= 1e-12
    assert np.max(np.abs(h[interior + (1, 1)])) <= 1e-12
    # one-sided boundary stencils are quadratic-exact as well
    assert np.max(np.abs(h[..., 0, 0] - 2.0)) <= 1e-10


def test_mixed_second_derivative_on_product():
    g = Grid(2, (33, 33))
    f = Field.from_function(g, lambda c: c[..., 0] * c[..., 1])
    h = hessian_values(g, f.values)
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
    assert np.array_equal(hessian_values(grid, stack),
                          np.stack([hessian_values(grid, f) for f in stack]))


def test_derivatives_reject_foreign_shape(grid):
    with pytest.raises(FieldError):
        gradient_values(grid, np.zeros((2, 3) + grid.extent))
    with pytest.raises(FieldError):
        hessian_values(grid, np.zeros((32, 33)))


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
    f = Field.from_function(g, lambda c: np.sin(np.pi * c[..., 0]))
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


def test_contract_matches_einsum_at_every_call_site():
    # contract's order strings reproduce einsum's loop order on the
    # installed numpy; a wrong order or a numpy that changes einsum's loop
    # fails here, at the call site's own signature
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for call in calls_named(ast.parse(path.read_text()), "contract"):
            sites.setdefault(literal_args(call, 2, path.name), path.name)
    assert len(sites) >= 10, sites
    rng = np.random.default_rng(5)
    for (subscripts, order), where in sites.items():
        for dim, ext in LEADS.items():
            for lead in (ext, (5,) + ext):
                ops = spread_operands(rng, subscripts, lead, dim)
                assert np.array_equal(contract(subscripts, order, *ops),
                                      np.einsum(subscripts, *ops)), (
                    f"{where}: contract({subscripts!r}, {order!r}) in "
                    f"{dim}D, leading shape {lead}")


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
    f = Field.from_function(grid, lambda c: c[..., 0])
    idx, _ = grid.boundary_nodes()
    vals = f.values[tuple(idx.T)]
    on_boundary = np.any((idx == 0) | (idx == np.array(grid.extent) - 1), axis=1)
    assert np.all(on_boundary)
    assert np.allclose(vals, grid.coords()[tuple(idx.T)][:, 0])


def test_trace_count(grid):
    idx, _ = grid.boundary_nodes()
    assert len(idx) == 4 * (grid.extent[0] - 1)
