"""Reference form of the stochastic convolution, kept verbatim.

``recursive_stoch_convolution`` is ``lame.solve_stoch_convolution`` as it
was before the convolution was taken from the operator's impulse
responses: the semi-implicit Euler-Maruyama recursion, one step solve per
level with every mode's increment added to the right-hand side.  The
production code agrees with it to round-off, not bit for bit.
"""

import numpy as np

from lagflow.fields import TimeSeries


def recursive_stoch_convolution(op, forcing, dbeta, times):
    """Semi-implicit Euler-Maruyama for dU + A U dt = sum_m amp_m f_m d beta_m."""
    times = np.asarray(times, float)
    L = len(times)
    if np.shape(dbeta) != (forcing.M, L - 1):
        raise ValueError(f"{forcing.M} forcing modes on {L} levels need "
                         f"increments of shape ({forcing.M}, {L - 1}), got "
                         f"{np.shape(dbeta)}")
    out = np.zeros((L,) + op.grid.extent + (op.grid.dim,))
    if forcing.M == 0:
        return TimeSeries(op.grid, times, out)
    lu = op.stepper(times[1] - times[0])
    mask = op.boundary_row_mask
    mode_flat = [op.to_flat(m.values) for m in forcing.modes]
    v = np.zeros(op.A.shape[0])
    for n in range(L - 1):
        rhs = v.copy()
        for m in range(forcing.M):
            rhs += forcing.amplitudes[m] * mode_flat[m] * dbeta[m, n]
        rhs[mask] = 0.0
        v = lu.solve(rhs)
        out[n + 1] = op.from_flat(v)
    return TimeSeries(op.grid, times, out)
