import itertools

import numpy as np
import pytest

from lagflow.interp import FlowEscapeError, InterpPlan


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
