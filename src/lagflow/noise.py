"""Driving randomness: Brownian bundles, transport vector fields, forcing modes.

A bundle carries K transport paths (driving the advective noise) and M extra
paths (scalar coefficients of the finite-rank additive forcing).  Paths are
stored as values on the time grid, so bridge refinement keeps already-sampled
instants bit-for-bit.  A bundle is reproduced, bit for bit, from (K, M, T,
dt, seed) by ``sample_brownian`` and its level of ``refine_bridge`` calls.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .fields import Field, Grid, step_count

__all__ = [
    "BrownianBundle",
    "TransportField",
    "StochasticForcing",
    "sample_brownian",
    "refine_bridge",
    "check_divergence_free",
    "make_transport_field",
]


# ---------------------------------------------------------------------------
# Brownian bundle
# ---------------------------------------------------------------------------

@dataclass
class BrownianBundle:
    """K + M independent Brownian paths sampled on a uniform grid.

    ``values`` has shape (K + M, n_steps + 1) with W(0) = 0; rows 0..K-1 are
    the transport paths, rows K.. are the forcing-mode paths.  The bundle of
    (K, M, T, dt, seed) at level l is ``sample_brownian``'s refined l times
    by ``refine_bridge``.  Construction checks the shape, that K, M and the
    level are integers >= 0 (a bool is not), the step finite and > 0 and the
    values finite (``ValueError``, NaN included).
    """

    K: int
    mode_count: int
    step: float
    values: np.ndarray
    seed: int
    level: int = 0

    def __post_init__(self):
        counts = (self.K, self.mode_count, self.level)
        if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool)
                   and c >= 0 for c in counts):
            raise ValueError(f"K, M and the level must be integers >= 0, "
                             f"got {counts}")
        shape = np.shape(self.values)
        if not (len(shape) == 2 and shape[0] == self.K + self.mode_count
                and shape[1] >= 1):
            raise ValueError(f"K + M = {self.K + self.mode_count} paths need "
                             f"values of shape (K + M, n_steps + 1), got {shape}")
        if not 0 < self.step < np.inf:
            raise ValueError(f"the time step must be positive and finite, "
                             f"got {self.step}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("the Brownian path values must be finite")

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1

    @property
    def T(self) -> float:
        return self.step * self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.n_steps + 1)

    def transport_increments(self) -> np.ndarray:
        return np.diff(self.values[: self.K], axis=1)

    def mode_increments(self) -> np.ndarray:
        return np.diff(self.values[self.K:], axis=1)


def _check_count(name: str, value) -> None:
    """``ValueError`` unless ``value`` is an integer >= 0 (a bool is not)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def _check_transport_shape(dim, K) -> None:
    """``ValueError`` unless ``dim`` is 2 or 3 and ``K`` an integer >= 0."""
    if dim not in (2, 3):
        raise ValueError(f"transport fields need dim 2 or 3, got {dim!r}")
    _check_count("K", K)


def sample_brownian(K: int, M: int, T: float, dt: float, seed: int) -> BrownianBundle:
    """Sample a reproducible bundle of K + M independent paths on [0, T].

    K, M and the seed must be integers >= 0 (``ValueError`` before any
    sampling)."""
    for name, value in (("K", K), ("M", M), ("seed", seed)):
        _check_count(name, value)
    n_steps = step_count(T, dt)
    n_paths = K + M
    values = np.zeros((n_paths, n_steps + 1))
    root = np.random.SeedSequence(entropy=int(seed))
    for k, child in enumerate(root.spawn(n_paths)):
        rng = np.random.default_rng(child)
        inc = rng.normal(0.0, np.sqrt(dt), size=n_steps)
        values[k, 1:] = np.cumsum(inc)
    return BrownianBundle(K, M, dt, values, int(seed))


def refine_bridge(b: BrownianBundle) -> BrownianBundle:
    """Insert Brownian-bridge midpoints, halving the step.

    Values at the original instants are copied unchanged; each midpoint is
    drawn from N((W_a + W_b)/2, dt/4) using a stream keyed by (seed, level),
    so repeated refinement is reproducible.
    """
    n_paths, n_old = b.values.shape
    new = np.zeros((n_paths, 2 * (n_old - 1) + 1))
    new[:, ::2] = b.values
    ss = np.random.SeedSequence(entropy=int(b.seed), spawn_key=(1000 + b.level,))
    for k, child in enumerate(ss.spawn(n_paths)):
        rng = np.random.default_rng(child)
        mean = 0.5 * (b.values[k, :-1] + b.values[k, 1:])
        new[k, 1::2] = mean + rng.normal(0.0, np.sqrt(b.step / 4.0), size=n_old - 1)
    return BrownianBundle(b.K, b.mode_count, b.step / 2.0, new, b.seed, b.level + 1)


# ---------------------------------------------------------------------------
# transport vector fields
# ---------------------------------------------------------------------------

class TransportField:
    """Family of K transport vector fields with closed-form derivatives.

    Supported kinds:

    * ``linear`` -- Q_k(x) = A_k (x - c_k) + b_k (covers constant fields,
      rotations and the linear test field; divergence-free iff tr A_k = 0)
    * ``stream`` -- dim 2, Q_k = (d2 phi_k, -d1 phi_k) for products of sines

    Linear fields are unbounded on R^dim; they are admissible here because
    every evaluation happens on a bounded neighborhood of the domain.  An
    unknown kind, a dim other than 2 or 3 (2 for a stream family), a K that
    is not an integer >= 0, a parameter that is not finite, NaN included,
    or a per-field parameter ("A", "b", "c"; "a", "modes") without K rows
    raises ``ValueError``.
    """

    def __init__(self, dim: int, kind: str, params: dict):
        if kind not in ("linear", "stream"):
            raise ValueError(f"unknown transport kind {kind!r}")
        if kind == "stream" and dim != 2:
            raise ValueError("stream-function transport fields require dim 2")
        K = params["K"]
        _check_transport_shape(dim, K)
        for key, value in params.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"transport parameter {key!r} is not finite: {value}")
        for key in ("A", "b", "c") if kind == "linear" else ("a", "modes"):
            if len(params[key]) != K:
                raise ValueError(f"{K} transport fields need {K} rows of "
                                 f"{key!r}, got {len(params[key])}")
        self.dim, self.kind, self.params = dim, kind, params
        self.K = K

    @property
    def constant_jacobian(self) -> bool:
        """Whether each DQ_k is one (dim, dim) matrix, the same at every
        point: the linear kind."""
        return self.kind == "linear"

    def value(self, k: int, pts: np.ndarray) -> np.ndarray:
        """Q_k at pts of shape (..., dim); the linear kind forms no
        Jacobian for it."""
        if self.kind == "linear":
            A, b, c = (self.params[key][k] for key in ("A", "b", "c"))
            return (np.asarray(pts, float) - c) @ A.T + b
        return self.value_and_jacobian(k, pts)[0]

    def jacobian(self, k: int, pts: np.ndarray) -> np.ndarray:
        """DQ_k, shape (..., dim, dim) with entries d_j Q_i."""
        if self.kind == "linear":
            A = self.params["A"][k]
            return np.broadcast_to(A, np.shape(pts)[:-1] + A.shape).copy()
        return self.value_and_jacobian(k, pts)[1]

    def value_and_jacobian(self, k: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Q_k and DQ_k at pts of shape (..., dim), in closed form; the
        stream kind takes its sines and cosines once for both."""
        pts = np.asarray(pts, float)
        if self.kind == "linear":
            return self.value(k, pts), self.jacobian(k, pts)
        # phi_k(y) = a_k sin(pi m_k y1) sin(pi n_k y2),  Q_k = (d2 phi, -d1 phi)
        a = self.params["a"][k]
        m, n = self.params["modes"][k]
        km, kn = np.pi * m, np.pi * n
        x, y = pts[..., 0], pts[..., 1]
        sx, cx = np.sin(km * x), np.cos(km * x)
        sy, cy = np.sin(kn * y), np.cos(kn * y)
        val = np.stack([a * kn * sx * cy, -a * km * cx * sy], axis=-1)
        jac = np.empty(sx.shape + (2, 2))
        jac[..., 0, 0] = a * kn * km * cx * cy
        jac[..., 0, 1] = -a * kn * kn * sx * sy
        jac[..., 1, 0] = a * km * km * sx * sy
        jac[..., 1, 1] = -a * km * kn * cx * cy
        return val, jac


def make_transport_field(dim: int, kind: str, K: int,
                         amplitude: float = 1.0) -> TransportField:
    """K fields of one family: ``constant`` (amplitude e_(k mod dim)),
    ``rotation`` (in the (x, y) plane about the centre 0.5 + 0.1 k on every
    axis, which the 3D benchmark workload runs), ``linear_test`` (amplitude
    x: not divergence-free, for calculus tests only) or ``stream`` (2D sine
    modes (1,1), (2,1), (1,2), (2,2), which the 2D benchmark workload runs).
    A dim other than 2 or 3, a K that is not an integer >= 0 or a
    non-finite amplitude raises ``ValueError`` before any arithmetic."""
    if kind not in ("constant", "rotation", "linear_test", "stream"):
        raise ValueError(f"unknown transport field kind {kind!r}")
    _check_transport_shape(dim, K)
    if not np.all(np.isfinite(amplitude)):
        raise ValueError(f"transport amplitude is not finite: {amplitude}")
    if kind == "stream":
        if K > 4:
            raise ValueError("at most 4 stream modes are predefined")
        modes = [(1, 1), (2, 1), (1, 2), (2, 2)][:K]
        return TransportField(dim, "stream", {
            "K": K, "a": np.full(K, amplitude), "modes": modes})
    A = np.zeros((K, dim, dim))
    b = np.zeros((K, dim))
    c = np.zeros((K, dim))
    if kind == "constant":
        for k in range(K):
            b[k, k % dim] = amplitude
    elif kind == "rotation":
        for k in range(K):
            A[k, 0, 1] = amplitude
            A[k, 1, 0] = -amplitude
            # shifted rotation centres keep the family divergence-free
            c[k] = 0.5 + 0.1 * k
    else:
        A[:] = amplitude * np.eye(dim)
    return TransportField(dim, "linear", {"K": K, "A": A, "b": b, "c": c})


# ---------------------------------------------------------------------------
# transport field checks
# ---------------------------------------------------------------------------

def check_divergence_free(Q: TransportField, grid: Grid) -> float:
    """Max |div Q_k| over grid nodes (trace of the Jacobian)."""
    pts = grid.coords()
    worst = 0.0
    for k in range(Q.K):
        div = np.trace(Q.jacobian(k, pts), axis1=-2, axis2=-1)
        worst = max(worst, float(np.max(np.abs(div))))
    return worst


# ---------------------------------------------------------------------------
# additive forcing
# ---------------------------------------------------------------------------

@dataclass
class StochasticForcing:
    """Finite-rank additive forcing: M spatial modes with scalar Brownian paths.

    Construction checks one amplitude per mode, finite amplitudes and mode
    values, and modes that are vector fields on one grid (``ValueError``,
    NaN included).
    """

    modes: list  # list of vector Fields
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, float)
        if len(self.modes) != len(self.amplitudes):
            raise ValueError("one amplitude per mode is required")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError(f"forcing amplitudes must be finite, got "
                             f"{self.amplitudes}")
        for m in self.modes:
            if not np.all(np.isfinite(m.values)):
                raise ValueError("forcing modes must be finite")
            if m.grid != self.modes[0].grid:
                raise ValueError(f"a forcing mode lives on {m.grid}, the "
                                 f"first on {self.modes[0].grid}")
            if m.values.shape != m.grid.extent + (m.grid.dim,):
                raise ValueError(f"forcing modes must be vector fields, got "
                                 f"values of shape {m.values.shape}")

    @property
    def M(self) -> int:
        return len(self.modes)

    @classmethod
    def default_modes(cls, grid: Grid, M: int, amplitude: float) -> "StochasticForcing":
        """Smooth sine-product modes polarized along alternating axes.

        M must be an integer >= 0 (``ValueError`` before any arithmetic)."""
        _check_count("M", M)
        modes = []
        c = grid.coords()
        for m in range(M):
            vals = np.zeros(grid.extent + (grid.dim,))
            shape = np.prod(
                [np.sin(np.pi * (1 + m) * c[..., d]) for d in range(grid.dim)],
                axis=0,
            )
            vals[..., m % grid.dim] = shape
            modes.append(Field(grid, vals))
        return cls(modes, np.full(M, amplitude))
