"""Linearized momentum operator with traction boundary rows.

The interior operator is A u = -(mu/rho0) Lap u - ((mu+lambda)/rho0) grad div u
on second-order stencils; boundary rows replace the evolution equation by the
traction condition S(grad u) N = g, discretized with one-sided second-order
stencils (ghost-node elimination).  The stencils are ``fields``' kernels
``_d1`` and ``_d2_pure`` applied to the identity.  Time stepping is implicit
Euler with one sparse factorization per step size, shared by the deterministic
solve and the additive stochastic convolution.

The stepping matrix is factored in a geometric nested-dissection order of the
node grid (George 1973): the grid is bisected recursively along its longest
axis at the middle index, each separator plane is ordered after both halves,
blocks of at most ``ND_LEAF`` nodes stay in C order, and the components of a
node are adjacent.  SuperLU keeps that column order and pivots off the
diagonal only below ``DIAG_PIVOT_THRESH`` times the column maximum, so the
traction rows' small diagonals do not undo the ordering's low fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import Field, Grid, TimeSeries, _d1, _d2_pure
from .noise import BrownianBundle, StochasticForcing

__all__ = [
    "FluidParams",
    "LameOperator",
    "apply_B",
    "solve_lame",
    "solve_stoch_convolution",
    "symbol_matrix",
    "symbol_eigenvalues",
    "lopatinskii_check",
    "halfline_decay_rates",
    "traction_eigenpair",
]


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the barotropic model."""

    mu: float = 1.0
    lam: float = 0.5
    a: float = 1.0
    gamma: float = 2.0
    p_ext: float = 1.0
    rho_min: float = 1.0       # lower admissible density bound

    def __post_init__(self):
        # every bound is written ``not x > bound`` so that NaN fails it
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 2 * self.mu + 3 * self.lam > 0:
            raise ValueError(f"2 mu + 3 lambda must be positive, got "
                             f"{2 * self.mu + 3 * self.lam}")
        if not self.a > 0:
            raise ValueError(f"pressure constant a must be positive, got {self.a}")
        if not self.gamma > 1:
            raise ValueError(f"adiabatic exponent must exceed 1, got {self.gamma}")
        if not self.p_ext >= 0:
            raise ValueError(f"exterior pressure must be nonnegative, got {self.p_ext}")
        if not self.rho_min > 0:
            raise ValueError(f"rho_min must be positive, got {self.rho_min}")


ND_LEAF = 64              # largest nested-dissection block kept in C order
DIAG_PIVOT_THRESH = 0.01  # SuperLU's threshold for keeping the diagonal pivot


def _scalar_operators(grid: Grid):
    """Per-axis first/second derivative operators on the flattened node set."""
    eyes = [sp.identity(n, format="csr") for n in grid.extent]
    d1, d2 = [], []
    for ax, (n, h) in enumerate(zip(grid.extent, grid.spacing)):
        mats1, mats2 = list(eyes), list(eyes)
        mats1[ax] = sp.csr_matrix(_d1(np.eye(n), 0, h))
        mats2[ax] = sp.csr_matrix(_d2_pure(np.eye(n), 0, h, np.empty((n, n))))
        acc1, acc2 = mats1[0], mats2[0]
        for m1, m2 in zip(mats1[1:], mats2[1:]):
            acc1 = sp.kron(acc1, m1, format="csr")
            acc2 = sp.kron(acc2, m2, format="csr")
        d1.append(acc1)
        d2.append(acc2)
    return d1, d2


def nested_dissection(extent: tuple[int, ...]) -> np.ndarray:
    """Flat C-order node indices of a grid in nested-dissection order.

    A block of more than ``ND_LEAF`` nodes is split at the middle index of
    its longest axis (the first, on ties): the lower half, then the upper
    half, then the separator plane between them.
    """
    out = []

    def visit(block: np.ndarray) -> None:
        if block.size <= ND_LEAF:
            out.append(block.reshape(-1))
            return
        ax = int(np.argmax(block.shape))
        mid = block.shape[ax] // 2
        head = (slice(None),) * ax
        visit(block[head + (slice(None, mid),)])
        visit(block[head + (slice(mid + 1, None),)])
        out.append(block[head + (mid,)].reshape(-1))

    visit(np.arange(prod(extent)).reshape(extent))
    return np.concatenate(out)


class StepFactor:
    """LU factors of a stepping matrix in a symmetric permutation.

    ``lu`` factors M[perm][:, perm]; ``solve`` takes and returns vectors in
    the unpermuted layout.  ``L`` and ``U`` are the permuted factors.
    """

    def __init__(self, lu: spla.SuperLU, perm: np.ndarray):
        self.lu = lu
        self.perm = perm

    @property
    def L(self) -> sp.csc_matrix:
        return self.lu.L

    @property
    def U(self) -> sp.csc_matrix:
        return self.lu.U

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        out[self.perm] = self.lu.solve(rhs[self.perm])
        return out


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

class LameOperator:
    """Assembled interior operator and traction rows for one (grid, rho0).

    Unknowns are stored component-major: flat index = comp * n_nodes + node.
    ``step_order`` is the symmetric permutation the stepping matrices are
    factored in: the nested-dissection node order, node-major.
    """

    def __init__(self, grid: Grid, rho0: Field, params: FluidParams):
        if rho0.values.min() < params.rho_min - 1e-12:
            raise ValueError("initial density falls below its lower bound")
        self.grid = grid
        dim, N = grid.dim, grid.n_nodes
        d1, d2 = _scalar_operators(grid)
        inv_rho = sp.diags(1.0 / rho0.values.reshape(-1))
        mu, lam = params.mu, params.lam
        lap = sum(d2[1:], start=d2[0])
        blocks = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                block = sp.csr_matrix((N, N))
                if i == j:
                    block = block - mu * inv_rho @ lap - (mu + lam) * inv_rho @ d2[i]
                else:
                    block = block - (mu + lam) * inv_rho @ (d1[i] @ d1[j])
                blocks[i][j] = block
        self.A = sp.bmat(blocks, format="csr")

        # traction rows: (B u)_i = sum_j [mu (d_j u_i + d_i u_j) + lam d_ij div u] N_j
        bidx, normals = grid.boundary_nodes()
        bflat = np.ravel_multi_index(bidx.T, grid.extent)
        self.boundary_flat = bflat
        n_field = np.zeros((dim, N))
        for d in range(dim):
            n_field[d, bflat] = normals[:, d]
        diagN = [sp.diags(n_field[d]) for d in range(dim)]
        bblocks = [[sp.csr_matrix((N, N)) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    for k in range(dim):
                        bblocks[i][j] = bblocks[i][j] + mu * diagN[k] @ d1[k]
                bblocks[i][j] = (bblocks[i][j] + mu * diagN[j] @ d1[i]
                                 + lam * diagN[i] @ d1[j])
        self.B = sp.bmat(bblocks, format="csr")

        # selector of the traction rows of the square stepping system
        mask = np.zeros((dim, N), dtype=bool)
        mask[:, bflat] = True
        self.boundary_row_mask = mask.reshape(-1)
        nodes = nested_dissection(grid.extent)
        self.step_order = (nodes[:, None] + N * np.arange(dim)).reshape(-1)
        self._steppers: dict[float, StepFactor] = {}

    # -- flat layout helpers ---------------------------------------------------

    def to_flat(self, values: np.ndarray) -> np.ndarray:
        return np.moveaxis(values, -1, 0).reshape(-1)

    def from_flat(self, flat: np.ndarray) -> np.ndarray:
        dim = self.grid.dim
        return np.moveaxis(flat.reshape((dim,) + self.grid.extent), 0, -1)

    def stepper(self, dt: float) -> StepFactor:
        """Factorized implicit-Euler matrix with traction rows enforced,
        permuted to ``step_order``; one factorization per step size."""
        key = round(dt, 15)
        if key not in self._steppers:
            n = self.A.shape[0]
            ident = sp.identity(n, format="csr")
            # row r of [I + dt A; B] is r's evolution row, n + r its traction row
            rows = np.arange(n) + n * self.boundary_row_mask
            p = self.step_order
            M = sp.vstack([ident + dt * self.A, self.B], format="csr")
            M = M[rows[p]].tocsc()[:, p]
            lu = spla.splu(M, permc_spec="NATURAL",
                           diag_pivot_thresh=DIAG_PIVOT_THRESH)
            self._steppers[key] = StepFactor(lu, p)
        return self._steppers[key]

    def boundary_values_to_rows(self, g: np.ndarray) -> np.ndarray:
        """(n_boundary, dim) traction data -> right-hand side entries."""
        dim, N = self.grid.dim, self.grid.n_nodes
        out = np.zeros(dim * N)
        for c in range(dim):
            out[c * N + self.boundary_flat] = g[:, c]
        return out


def apply_B(op: LameOperator, u: Field) -> np.ndarray:
    """Traction values at the boundary nodes, shape (n_boundary, dim)."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("non-finite velocity field")
    flat = op.B @ op.to_flat(u.values)
    dim, N = op.grid.dim, op.grid.n_nodes
    return np.stack([flat[c * N + op.boundary_flat] for c in range(dim)], axis=-1)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def solve_lame(op: LameOperator, f: TimeSeries | None, g: np.ndarray,
               u0: Field, times: np.ndarray) -> TimeSeries:
    """Implicit Euler for dv/dt + A v = f with traction rows B v = g.

    ``g`` holds boundary data per frame, shape (len(times), n_boundary, dim),
    and ``f`` one frame per level; other frame counts raise ``ValueError``.
    B u0 = g(0) is not checked here (``fixedpoint.compatibility_check``).
    """
    times = np.asarray(times, float)
    dt = times[1] - times[0]
    L = len(times)
    g = np.zeros((L, len(op.boundary_flat), op.grid.dim)) if g is None else np.asarray(g, float)
    if g.shape[0] != L or (f is not None and len(f.values) != L):
        raise ValueError("source and boundary data frames must match the time grid")
    lu = op.stepper(dt)
    mask = op.boundary_row_mask
    out = np.empty((L,) + op.grid.extent + (op.grid.dim,))
    out[0] = u0.values
    v = op.to_flat(u0.values)
    for n in range(L - 1):
        rhs = v + dt * (op.to_flat(f.values[n + 1]) if f is not None else 0.0)
        rhs[mask] = op.boundary_values_to_rows(g[n + 1])[mask]
        v = lu.solve(rhs)
        if not np.all(np.isfinite(v)):
            raise RuntimeError(f"linear solve produced non-finite values at "
                               f"t = {times[n + 1]:.6g}")
        out[n + 1] = op.from_flat(v)
    return TimeSeries(op.grid, times, out)


def solve_stoch_convolution(op: LameOperator, forcing: StochasticForcing,
                            bundle: BrownianBundle) -> TimeSeries:
    """Semi-implicit Euler-Maruyama for dU + A U dt = sum_m amp_m f_m d beta_m.

    Homogeneous traction rows are enforced at every step and U(0) = 0; each
    step uses only increments up to its own level, so the discrete solution
    is adapted by construction.
    """
    times = bundle.times
    dt = bundle.step
    L = len(times)
    out = np.zeros((L,) + op.grid.extent + (op.grid.dim,))
    if forcing.M == 0:
        return TimeSeries(op.grid, times, out)
    dbeta = bundle.mode_increments()
    if dbeta.shape != (forcing.M, L - 1):
        raise ValueError("one increment row per forcing mode is required")
    lu = op.stepper(dt)
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


# ---------------------------------------------------------------------------
# principal symbol and Lopatinskii-Shapiro verification
# ---------------------------------------------------------------------------

def symbol_matrix(params: FluidParams, rho0_value: float, xi: np.ndarray) -> np.ndarray:
    """Principal symbol (1/rho0)(mu |xi|^2 I + (mu+lambda) xi (x) xi)."""
    xi = np.asarray(xi, float)
    d = len(xi)
    return (params.mu * np.dot(xi, xi) * np.eye(d)
            + (params.mu + params.lam) * np.outer(xi, xi)) / rho0_value


def symbol_eigenvalues(params: FluidParams, rho0_value: float,
                       xi: np.ndarray) -> np.ndarray:
    """Closed-form spectrum: mu|xi|^2/rho0 (dim-1 fold) and (2mu+lam)|xi|^2/rho0."""
    xi = np.asarray(xi, float)
    if np.dot(xi, xi) == 0.0:
        raise ValueError("frequency xi must be nonzero")
    if rho0_value < params.rho_min:
        raise ValueError("density below its admissible lower bound")
    s = np.dot(xi, xi) / rho0_value
    return np.sort(np.array([params.mu * s] * (len(xi) - 1)
                            + [(2 * params.mu + params.lam) * s]))


def _halfline_companion(params: FluidParams, rho0_value: float,
                        xi_t: np.ndarray, eta: complex) -> np.ndarray:
    """First-order companion matrix of the boundary-frozen half-line system.

    Tangential frequencies xi_t (length dim-1, real), normal direction last.
    """
    mu, lam = params.mu, params.lam
    d = len(xi_t) + 1
    xi2 = float(np.dot(xi_t, xi_t))
    base = mu * xi2 + eta * rho0_value
    A0 = np.zeros((d, d), dtype=complex)
    A1 = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        A0[i, i] = base
        for j in range(d - 1):
            A0[i, j] -= (mu + lam) * xi_t[i] * xi_t[j]
        A1[i, d - 1] = 1j * (mu + lam) * xi_t[i]
        A1[d - 1, i] = -1j * (mu + lam) * xi_t[i]
    A0[d - 1, d - 1] = base
    P2_inv = np.diag([1.0 / mu] * (d - 1) + [1.0 / (2 * mu + lam)])
    comp = np.zeros((2 * d, 2 * d), dtype=complex)
    comp[:d, d:] = np.eye(d)
    comp[d:, :d] = P2_inv @ A0
    comp[d:, d:] = P2_inv @ A1
    return comp


def _boundary_symbol_apply(params: FluidParams, xi_t: np.ndarray,
                           v0: np.ndarray, dv0: np.ndarray) -> np.ndarray:
    """Principal traction operator on a half-line solution at y = 0."""
    mu, lam = params.mu, params.lam
    d = len(xi_t) + 1
    out = np.zeros(d, dtype=complex)
    div = 1j * np.dot(xi_t, v0[: d - 1]) + dv0[d - 1]
    for i in range(d - 1):
        out[i] = mu * (1j * xi_t[i] * v0[d - 1] + dv0[i])
    out[d - 1] = 2 * mu * dv0[d - 1] + lam * div
    return out


def lopatinskii_check(params: FluidParams, rho0_value: float,
                      xi_t: np.ndarray, eta: complex,
                      method: str = "eig") -> float:
    """Normalized |det| of the stable-subspace boundary map.

    Builds the dim-dimensional stable subspace of the half-line companion
    system; eigen-decomposition by default, ordered Schur when the
    eigenbasis is defective (or ``method="schur"``).  A value comfortably
    above zero certifies solvability of the frozen boundary problem at this
    frequency pair.
    """
    xi_t = np.asarray(xi_t, float)
    if eta.real <= 0:
        raise ValueError("need Re eta > 0")
    if np.dot(xi_t, xi_t) == 0.0 and abs(eta) == 0.0:
        raise ValueError("need |xi| + |eta| > 0")
    d = len(xi_t) + 1
    comp = _halfline_companion(params, rho0_value, xi_t, eta)
    basis = None
    if method == "eig":
        vals, vecs = np.linalg.eig(comp)
        stable = vals.real < 0
        if np.count_nonzero(stable) == d:
            cand = vecs[:, stable]
            if np.linalg.matrix_rank(cand, tol=1e-10) == d:
                basis = cand
    if basis is None:
        # repeated eigenvalues: ordered Schur gives the invariant subspace
        T, Z, sdim = scipy.linalg.schur(comp, output="complex",
                                        sort=lambda z: z.real < 0)
        if sdim != d:
            raise RuntimeError(
                f"stable subspace has dimension {sdim}, expected {d}")
        basis = Z[:, :d]
    cols = np.empty((d, d), dtype=complex)
    for k in range(d):
        v0, dv0 = basis[:d, k], basis[d:, k]
        col = _boundary_symbol_apply(params, xi_t, v0, dv0)
        nrm = np.linalg.norm(col)
        cols[:, k] = col / nrm if nrm > 0 else col
    return float(abs(np.linalg.det(cols)))


def halfline_decay_rates(params: FluidParams, rho0_value: float,
                         xi_t: np.ndarray, eta: complex) -> np.ndarray:
    """|Re| of the stable companion eigenvalues (exponential decay rates)."""
    comp = _halfline_companion(params, rho0_value, np.asarray(xi_t, float), eta)
    vals = np.linalg.eigvals(comp)
    return np.sort(np.abs(vals.real[vals.real < 0]))


# ---------------------------------------------------------------------------
# discrete eigenpair of the homogeneous-traction operator
# ---------------------------------------------------------------------------

def traction_eigenpair(op: LameOperator) -> tuple[float, Field]:
    """Smallest nontrivial eigenpair of A with B u = 0 boundary rows.

    Solves the generalized problem (interior rows of A, traction rows of B)
    against the interior-row selector; returns the smallest eigenvalue above
    a rigid-motion cutoff with an L2-normalized real eigenfield.
    """
    n = op.A.shape[0]
    mask = op.boundary_row_mask
    A_dense = op.A.toarray()
    B_dense = op.B.toarray()
    lhs = np.where(mask[:, None], B_dense, A_dense)
    rhs = np.where(mask[:, None], 0.0, np.eye(n))
    vals, vecs = scipy.linalg.eig(lhs, rhs)
    finite = np.isfinite(vals)
    vals, vecs = vals[finite], vecs[:, finite]
    ok = (np.abs(vals.imag) < 1e-8 * (1 + np.abs(vals.real))) & (vals.real > 1e-6)
    vals, vecs = vals.real[ok], vecs[:, ok].real
    k = int(np.argmin(vals))
    lam = float(vals[k])
    field_vals = op.from_flat(vecs[:, k])
    w = op.grid.quad_weights
    nrm = np.sqrt(np.sum(w * np.sum(field_vals**2, axis=-1)))
    return lam, Field(op.grid, field_vals / nrm)
