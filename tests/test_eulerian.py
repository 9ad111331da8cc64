import numpy as np
from hypothesis import given, settings, strategies as st

from lagflow.eulerian import _polygon_is_simple


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
