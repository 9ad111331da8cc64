"""Host-speed calibration: a fixed kernel timed between benchmark paths.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds to minutes, with the load of its neighbours.  Both the program's
paths and this kernel slow down together, so a path's wall time times
``NOMINAL_S`` over the kernel's time around it is the path's time at the
speed where the kernel takes ``NOMINAL_S``.  The kernel uses only numpy and
scipy, never ``lagflow``, so no change to the program can move it.  It mixes
the three kinds of work the paths do: interpreted Python, many small numpy
operations, and a sparse LU factorization and solve.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 0.03            # kernel time at the reference speed
REPEATS = 3                 # kernel runs per calibration, median taken


class HostSpeed:
    """Times the kernel; ``scale`` converts the last segment to reference speed."""

    def __init__(self, np):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        self._np, self._splu = np, spla.splu
        rng = np.random.default_rng(0)
        self._x = rng.random(1000)
        n = 11
        d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        lap = (sp.kron(sp.kron(d, eye), eye) + sp.kron(sp.kron(eye, d), eye)
               + sp.kron(sp.kron(eye, eye), d))
        self._lap = (lap + 0.1 * sp.identity(n ** 3)).tocsc()
        self._rhs = np.ones(n ** 3)
        self.last = self.measure()

    def _kernel(self) -> None:
        np, x = self._np, self._x
        s = 0
        for i in range(60000):
            s += i % 7
        y = x
        for _ in range(500):
            y = np.sin(y) * 0.5 + y.mean()
            y = np.einsum("i,i->i", y, x)
        self._splu(self._lap).solve(self._rhs)

    def measure(self) -> float:
        """Median wall time of ``REPEATS`` kernel runs."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def scale(self) -> float:
        """Reference-speed factor of the segment since the previous call.

        ``NOMINAL_S`` over the mean kernel time just before and just after
        the segment; multiply the segment's wall time by it.
        """
        before, self.last = self.last, self.measure()
        return NOMINAL_S / ((before + self.last) / 2)
