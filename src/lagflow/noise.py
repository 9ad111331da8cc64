"""Driving randomness: Brownian bundles, transport vector fields, forcing modes.

A bundle carries K transport paths (driving the advective noise) and M extra
paths (scalar coefficients of the finite-rank additive forcing).  Paths are
stored as values on the time grid, so bridge refinement keeps already-sampled
instants bit-for-bit and restriction back to the coarse grid is a slice.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .fields import Field, Grid

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

_HEADER = "<qqqdqq"         # K, M, step count, dt, seed, level


@dataclass
class BrownianBundle:
    """K + M independent Brownian paths sampled on a uniform grid.

    ``values`` has shape (K + M, n_steps + 1) with W(0) = 0; rows 0..K-1 are
    the transport paths, rows K.. are the forcing-mode paths.
    """

    K: int
    mode_count: int
    step: float
    values: np.ndarray
    seed: int
    level: int = 0

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1

    @property
    def T(self) -> float:
        return self.step * self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.n_steps + 1)

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=1)

    def transport_increments(self) -> np.ndarray:
        return self.increments[: self.K]

    def mode_increments(self) -> np.ndarray:
        return self.increments[self.K:]

    def restrict_to_coarse(self) -> "BrownianBundle":
        """Drop the bridge midpoints of the last refinement level."""
        if self.level == 0:
            raise ValueError("bundle is already at its base resolution")
        return BrownianBundle(
            self.K, self.mode_count, 2 * self.step,
            self.values[:, ::2].copy(), self.seed, self.level - 1,
        )

    # -- binary replay format ------------------------------------------------

    def dump(self, path) -> None:
        """Little-endian binary dump: header (K, M, step count, dt, seed,
        refinement level), values."""
        header = struct.pack(_HEADER, self.K, self.mode_count,
                             self.n_steps, self.step, self.seed, self.level)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.values.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "BrownianBundle":
        """Read a ``dump``; a malformed file raises ``ValueError``."""
        with open(path, "rb") as fh:
            data = fh.read()
        size = struct.calcsize(_HEADER)
        if len(data) < size:
            raise ValueError(f"{path}: a Brownian bundle header needs {size} "
                             f"bytes, the file has {len(data)}")
        K, M, n_steps, step, seed, level = struct.unpack_from(_HEADER, data)
        want = (K + M) * (n_steps + 1) * 8
        if min(K, M, n_steps) < 0 or len(data) - size != want:
            raise ValueError(f"{path}: K = {K}, M = {M} and {n_steps} steps need "
                             f"{want} value bytes, found {len(data) - size}")
        if not (np.isfinite(step) and step > 0):
            raise ValueError(f"{path}: the time step must be positive and "
                             f"finite, got {step}")
        if level < 0:
            raise ValueError(f"{path}: the refinement level must be >= 0, "
                             f"got {level}")
        raw = np.frombuffer(data, dtype="<f8", offset=size)
        values = raw.reshape(K + M, n_steps + 1).astype(float)
        return cls(K, M, step, values, seed, level)


def sample_brownian(K: int, M: int, T: float, dt: float, seed: int) -> BrownianBundle:
    """Sample a reproducible bundle of K + M independent paths on [0, T]."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-12 * max(T, 1.0):
        raise ValueError(f"dt = {dt} does not divide T = {T}")
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

    * ``constant`` -- Q_k(x) = b_k
    * ``linear``   -- Q_k(x) = A_k (x - c_k) + b_k (covers rotations and the
      linear test field; divergence-free iff tr A_k = 0)
    * ``stream``   -- dim 2, Q_k = (d2 phi_k, -d1 phi_k) for products of sines

    Linear/rotation kinds are unbounded on R^dim; they are admissible here
    because every evaluation happens on a bounded neighborhood of the domain.
    """

    def __init__(self, dim: int, kind: str, params: dict):
        self.dim = dim
        self.kind = kind
        self.params = params
        self.K = params["K"]

    # each evaluator maps pts of shape (..., dim) per path index k

    def value(self, k: int, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        if self.kind == "constant":
            return np.broadcast_to(self.params["b"][k], pts.shape).copy()
        if self.kind == "linear":
            A, b, c = (self.params[key][k] for key in ("A", "b", "c"))
            return (pts - c) @ A.T + b
        if self.kind == "stream":
            return self._stream_value(self._stream_terms(k, pts))
        raise ValueError(f"unknown transport kind {self.kind!r}")

    def jacobian(self, k: int, pts: np.ndarray) -> np.ndarray:
        """DQ_k, shape (..., dim, dim) with entries d_j Q_i."""
        pts = np.asarray(pts, float)
        d = self.dim
        if self.kind == "constant":
            return np.zeros(pts.shape[:-1] + (d, d))
        if self.kind == "linear":
            A = self.params["A"][k]
            return np.broadcast_to(A, pts.shape[:-1] + (d, d)).copy()
        if self.kind == "stream":
            return self._stream_jacobian(self._stream_terms(k, pts))
        raise ValueError(f"unknown transport kind {self.kind!r}")

    def value_and_jacobian(self, k: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Q_k and DQ_k with the bits of ``value`` and ``jacobian``; the
        stream kind takes its sines and cosines once for both."""
        if self.kind == "stream":
            terms = self._stream_terms(k, np.asarray(pts, float))
            return self._stream_value(terms), self._stream_jacobian(terms)
        return self.value(k, pts), self.jacobian(k, pts)

    # -- stream-function family (dim 2) --------------------------------------
    #
    # phi_k(y) = a_k sin(pi m_k y1) sin(pi n_k y2),  Q_k = (d2 phi, -d1 phi)

    def _stream_terms(self, k, pts):
        a = self.params["a"][k]
        m, n = self.params["modes"][k]
        x, y = pts[..., 0], pts[..., 1]
        sx, cx = np.sin(np.pi * m * x), np.cos(np.pi * m * x)
        sy, cy = np.sin(np.pi * n * y), np.cos(np.pi * n * y)
        return a, np.pi * m, np.pi * n, sx, cx, sy, cy

    @staticmethod
    def _stream_value(terms):
        a, km, kn, sx, cx, sy, cy = terms
        return np.stack([a * kn * sx * cy, -a * km * cx * sy], axis=-1)

    @staticmethod
    def _stream_jacobian(terms):
        a, km, kn, sx, cx, sy, cy = terms
        out = np.empty(sx.shape + (2, 2))
        out[..., 0, 0] = a * kn * km * cx * cy
        out[..., 0, 1] = -a * kn * kn * sx * sy
        out[..., 1, 0] = a * km * km * sx * sy
        out[..., 1, 1] = -a * km * kn * cx * cy
        return out


def make_transport_field(dim: int, kind: str, K: int, amplitude: float = 1.0,
                         center=None) -> TransportField:
    """Standard field families used by the experiment driver."""
    if kind not in ("constant", "rotation", "linear_test", "stream"):
        raise ValueError(f"unknown transport field kind {kind!r}")
    if kind == "stream" and dim != 2:
        raise ValueError("stream-function transport fields require dim 2")
    if K == 0:
        return TransportField(dim, "constant", {"K": 0, "b": np.zeros((0, dim))})
    if kind == "constant":
        b = np.zeros((K, dim))
        for k in range(K):
            b[k, k % dim] = amplitude
        return TransportField(dim, "constant", {"K": K, "b": b})
    if kind == "rotation":
        c = np.full(dim, 0.5) if center is None else np.asarray(center, float)
        A = np.zeros((K, dim, dim))
        b = np.zeros((K, dim))
        cs = np.zeros((K, dim))
        for k in range(K):
            A[k, 0, 1] = amplitude
            A[k, 1, 0] = -amplitude
            # shifted rotation centers keep the family divergence-free
            cs[k] = c + 0.1 * k
        return TransportField(dim, "linear", {"K": K, "A": A, "b": b, "c": cs})
    if kind == "linear_test":
        # Q(x) = amplitude x; not divergence-free, for calculus tests only
        A = np.broadcast_to(amplitude * np.eye(dim), (K, dim, dim)).copy()
        return TransportField(dim, "linear", {
            "K": K, "A": A, "b": np.zeros((K, dim)), "c": np.zeros((K, dim))})
    if K > 4:
        raise ValueError("at most 4 stream modes are predefined")
    modes = [(1, 1), (2, 1), (1, 2), (2, 2)][:K]
    return TransportField(dim, "stream", {
        "K": K, "a": np.full(K, amplitude), "modes": modes})


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
    """Finite-rank additive forcing: M spatial modes with scalar Brownian paths."""

    modes: list  # list of vector Fields
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, float)
        if len(self.modes) != len(self.amplitudes):
            raise ValueError("one amplitude per mode is required")
        for m in self.modes:
            if not np.all(np.isfinite(m.values)):
                raise ValueError("forcing modes must be finite")

    @property
    def M(self) -> int:
        return len(self.modes)

    @classmethod
    def default_modes(cls, grid: Grid, M: int, amplitude: float) -> "StochasticForcing":
        """Smooth sine-product modes polarized along alternating axes."""
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
