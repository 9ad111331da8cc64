"""The frame norms as they were taken from materialized derivative stacks.

``frame_norms`` below is ``fields.frame_norms`` as it was before its fused
kernel: the whole gradient stack (``gradient_values``) and, for H2q, the
whole Hessian stack (``hessian_values``) of the frames, each squared and
summed over its component axes by ``np.sum``, raised by ``**`` and
integrated by its own node quadrature.  The fused kernel sums in another
order and takes its powers by ``_half_q_pow``, so the two agree to
round-off, not bit for bit.
"""

import numpy as np

from lagflow.fields import Grid, gradient_values, hessian_values

ORDER = {"Lq": 0, "H1q": 1, "H2q": 2}


def lq_pow(grid: Grid, stack: np.ndarray, q: float) -> np.ndarray:
    """Per frame of a stack: quadrature of |f|^q, Euclidean/Frobenius |.|."""
    node_axes = tuple(range(1, 1 + grid.dim))
    comp_axes = tuple(range(1 + grid.dim, stack.ndim))
    mag2 = np.sum(stack * stack, axis=comp_axes) if comp_axes else stack * stack
    return np.sum(grid.quad_weights * mag2 ** (q / 2.0), axis=node_axes)


def frame_norms(grid: Grid, stack: np.ndarray, kind: str, q: float) -> np.ndarray:
    """Lq, H1q or H2q norm of every frame of a stack (leading frame axis)."""
    parts = [stack]
    if ORDER[kind] >= 1:
        parts.append(gradient_values(grid, stack))
    if ORDER[kind] >= 2:
        parts.append(hessian_values(grid, stack, parts[1]))
    total = sum(lq_pow(grid, part, q) for part in parts)
    return total ** (1.0 / q)
