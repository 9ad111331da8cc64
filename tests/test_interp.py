import itertools
import re

import numpy as np
import pytest

from flow_oracle import csr_weights
from lagflow.interp import FlowEscapeError, InterpAxes, InterpPlan


def per_corner_sum(axes, pts, arr):
    """Multilinear interpolation as a sum over the 2^dim cell corners.

    Every corner gathers ``arr`` with a tuple index and adds weight times
    value to a sum that starts at zero, corners in ``itertools.product``
    order (the oracle of the sparse weight matrix).
    """
    dim = len(axes)
    flat = np.asarray(pts, float).reshape(-1, dim)
    n = len(flat)
    idx, frac = [], []
    for d, ax in enumerate(axes):
        t = (flat[:, d] - ax[0]) / (ax[1] - ax[0])
        i = np.clip(np.floor(t).astype(np.intp), 0, len(ax) - 2)
        idx.append(i)
        frac.append(t - i)
    comp_shape = arr.shape[dim:]
    out = np.zeros((n,) + comp_shape)
    for offs in itertools.product((0, 1), repeat=dim):
        w = np.ones(n)
        ind = []
        for d, o in enumerate(offs):
            w = w * (frac[d] if o else (1.0 - frac[d]))
            ind.append(idx[d] + o)
        out += w.reshape((n,) + (1,) * len(comp_shape)) * arr[tuple(ind)]
    return out.reshape(np.shape(pts)[:-1] + comp_shape)


def box_axes(dim):
    # unequal node counts per axis, so a stride mix-up cannot cancel out
    return [np.linspace(-0.25, 1.25, 7 + 2 * d) for d in range(dim)]


def query_points(axes, rng, n=40):
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    pts = rng.uniform(lo, hi, size=(n, len(axes)))
    pts[0] = hi                          # far corner: clipped cell, frac 1
    pts[1] = lo
    pts[2, 0] = hi[0]                    # far face on one axis only
    pts[3] = [ax[3] for ax in axes]      # a node, frac 0
    return pts.reshape(4, n // 4, len(axes))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("comp", ["scalar", "vector", "matrix", "rank3"])
def test_apply_matches_per_corner_sum(dim, comp):
    rng = np.random.default_rng(dim)
    axes = box_axes(dim)
    comp_shape = {"scalar": (), "vector": (dim,), "matrix": (dim, dim),
                  "rank3": (dim, dim, dim)}[comp]
    arr = rng.standard_normal(tuple(len(ax) for ax in axes) + comp_shape)
    pts = query_points(axes, rng)
    got = InterpPlan(axes, pts).apply(arr)
    want = per_corner_sum(axes, pts, arr)
    assert got.shape == pts.shape[:-1] + comp_shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_affine_data_reproduced(dim):
    axes = box_axes(dim)
    grid_pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    A = np.arange(1.0, 1.0 + dim * dim).reshape(dim, dim) / dim
    b = np.linspace(-1.0, 1.0, dim)
    arr = grid_pts @ A.T + b
    pts = query_points(axes, np.random.default_rng(30 + dim))
    got = InterpPlan(axes, pts).apply(arr)
    assert np.allclose(got, pts @ A.T + b, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_escape_error_carries_time_and_point(dim):
    axes = box_axes(dim)
    pts = np.full((5, dim), 0.5)
    pts[3, dim - 1] = 1.25 + 1e-3        # past the far face on the last axis
    with pytest.raises(FlowEscapeError, match=f"axis {dim - 1} at t = 0.125") as exc:
        InterpPlan(axes, pts, time=0.125)
    assert exc.value.time == 0.125
    assert np.array_equal(exc.value.point, pts[3])
    # within the slack of the box edge no error is raised
    pts[3, dim - 1] = 1.25 + 1e-12
    InterpPlan(axes, pts, time=0.125)


@pytest.mark.parametrize("dim", [2, 3])
def test_nan_query_point_escapes(dim):
    # every comparison with NaN is False, so an escape mask of the form
    # t < lower | t > upper let a NaN point through with NaN weights
    axes = box_axes(dim)
    pts = np.full((4, dim), 0.5)
    pts[1, dim - 1] = np.nan
    with pytest.raises(FlowEscapeError, match=f"axis {dim - 1} at t = 0.25") as exc:
        InterpPlan(axes, pts, time=0.25)
    assert np.array_equal(exc.value.point, pts[1], equal_nan=True)


@pytest.mark.parametrize("dim", [2, 3])
def test_weights_match_reference_construction(dim):
    # shared per-axes constants, reused for query sets of other sizes,
    # give the weight matrix of the self-contained construction bit for bit
    rng = np.random.default_rng(40 + dim)
    axes = box_axes(dim)
    shared = InterpAxes(axes)
    for n in (40, 12, 40):
        pts = query_points(axes, rng, n)
        want = csr_weights(axes, pts)
        for W in (InterpPlan(axes, pts).W, InterpPlan(shared, pts).W):
            for got, ref in zip((W.data, W.indices, W.indptr), want):
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("case", ["axis-1-only", "every-axis", "within-slack"])
def test_escape_error_matches_reference_construction(dim, case):
    axes = box_axes(dim)
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    pts = np.full((6, dim), 0.5)
    if case == "within-slack":
        pts[2], pts[4] = lo - 1e-10, hi + 1e-10
        W = InterpPlan(InterpAxes(axes), pts).W
        for got, ref in zip((W.data, W.indices, W.indptr), csr_weights(axes, pts)):
            assert np.array_equal(got, ref)
        return
    pts[2, 1] = lo[1] - 1e-3                 # outside on axis 1 only
    axis, j = 1, 2
    if case == "every-axis":
        pts[4] = hi + 1e-3                   # outside on every axis
        axis, j = 0, 4
    for build in (InterpPlan, csr_weights):
        with pytest.raises(FlowEscapeError, match=f"axis {axis} at t = 0.5") as exc:
            build(InterpAxes(axes) if build is InterpPlan else axes, pts, time=0.5)
        assert exc.value.time == 0.5
        assert np.array_equal(exc.value.point, pts[j])


@pytest.mark.parametrize("dim", [2, 3])
def test_apply_rejects_an_array_off_the_plan_nodes(dim):
    # an array whose size the node count divides used to be read as if it
    # lay on the nodes
    ext = (9,) * dim
    plan = InterpPlan([np.linspace(0.0, 1.0, 9)] * dim, np.full((2, dim), 0.3))
    for shape in ((3, 27), (9 ** dim,), (3,) + ext[1:], ext[::-1][:-1] + (27, 3)):
        arr = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}") + ".*"
                           + re.escape(f"extent {ext}")):
            plan.apply(arr)
    assert plan.apply(np.ones(ext + (2, dim))).shape == (2, 2, dim)


def dyadic_axes(dim):
    # unequal node counts and exact nodes: a node's cell coordinate
    # (x - first node) / step is an integer, with no rounding
    return [np.linspace(-1.0, -1.0 + 0.25 * (n - 1), n) for n in (9, 11, 13)[:dim]]


@pytest.mark.parametrize("dim", [2, 3])
def test_points_on_the_held_block_faces_use_its_edge_cells(dim):
    # a point exactly on the far face of the axes used to fall in the cell
    # past the last node; on either face it now uses the edge cell, gives
    # the node's value bit for bit and does not raise
    rng = np.random.default_rng(70 + dim)
    axes = dyadic_axes(dim)
    shared = InterpAxes(axes)
    arr = rng.normal(size=shared.extent + (dim,))
    # every corner of the axes' box, and the middle node of every face
    faces = [(0, e - 1) for e in shared.extent]
    index = list(itertools.product(*faces))
    for d in range(dim):
        for side in faces[d]:
            index.append(tuple(side if k == d else shared.extent[k] // 2
                               for k in range(dim)))
    index = np.array(index)
    pts = np.array([[axes[d][i] for d, i in enumerate(row)] for row in index])
    plan = InterpPlan(shared, pts)
    assert np.array_equal(plan.apply(arr), arr[tuple(index.T)])
    cells = np.minimum(index, np.array(shared.extent) - 2)
    cols = np.repeat(cells @ shared.strides, 2 ** dim) + np.tile(
        list(itertools.product((0, 1), repeat=dim)) @ shared.strides, len(pts))
    assert np.array_equal(plan.W.indices, cols)
