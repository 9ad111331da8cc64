"""Linearized momentum operator with traction boundary rows.

The interior operator is A u = -(mu/rho0) Lap u - ((mu+lambda)/rho0) grad div u
on second-order stencils; boundary rows replace the evolution equation by the
traction condition S(grad u) N = g, discretized with one-sided second-order
stencils (ghost-node elimination).  The stencils are ``fields``' kernels
``_d1`` and ``_d2_pure`` applied to the identity.  Time stepping is implicit
Euler with one sparse factorization per step size, shared by the deterministic
solve and the additive stochastic convolution.  The convolution is linear in
the Brownian increments, so a path's U is the product of the Toeplitz matrix
of its increments with the forcing modes' impulse responses under that step
(``forcing_responses``, once per setup: ``fixedpoint.Problem.responses``),
taken in blocks of levels (``solve_stoch_convolution``).

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
from .noise import StochasticForcing

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
    """Physical constants of the barotropic model and its pressure law; a
    constant that is not finite or fails its bound raises ``ValueError``."""

    mu: float = 1.0
    lam: float = 0.5
    a: float = 1.0
    gamma: float = 2.0
    p_ext: float = 1.0
    rho_min: float = 1.0       # lower admissible density bound

    def __post_init__(self):
        for name in ("mu", "lam", "a", "gamma", "p_ext", "rho_min"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
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

    def pressure(self, rho):
        """The barotropic pressure p = a rho^gamma."""
        return self.a * rho ** self.gamma

    def pressure_potential(self, rho):
        """The convex potential P = a rho^gamma / (gamma - 1): P' rho - P = p."""
        return self.a * rho ** self.gamma / (self.gamma - 1.0)


ND_LEAF = 64              # largest nested-dissection block kept in C order
DIAG_PIVOT_THRESH = 0.01  # SuperLU's threshold for keeping the diagonal pivot
CONV_BLOCK = 16           # levels per product of the stochastic convolution


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
    ``boundary_flat`` lists the boundary nodes in ``Grid.boundary_nodes``
    order, which is ascending, so the rows ``boundary_row_mask`` selects take
    traction data g of shape (n_boundary, dim) as ``g.T.ravel()``.
    ``step_order`` is the symmetric permutation the stepping matrices are
    factored in: the nested-dissection node order, node-major.  A rho0
    below ``params.rho_min`` somewhere raises ``ValueError``, NaN included.

    Beside the assembled matrices the operator holds one step
    factorization per step size (``stepper``), which every path of one
    setup shares; the forcing's impulse responses under a step
    (``forcing_responses``) belong to the forcing and are held by
    ``fixedpoint.Problem``.
    """

    def __init__(self, grid: Grid, rho0: Field, params: FluidParams):
        if not np.all(rho0.values >= params.rho_min - 1e-12):
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

    def forcing_responses(self, forcing: StochasticForcing, dt: float,
                          levels: int) -> np.ndarray:
        """Impulse responses of the forcing modes under the step ``dt``.

        Entry [k - 1, m] holds R_{m,k} = (solve o mask)^k (a_m f_m), node-major
        (the layout of a frame's values), for k = 1 .. levels - 1; the lag
        axis is padded with zeros to a multiple of ``CONV_BLOCK``, so the
        array is (lags, M, N dim).  It takes levels - 1 step solves of M
        right-hand sides, and none for M = 0 or one level.
        """
        dim, N, M = self.grid.dim, self.grid.n_nodes, forcing.M
        lags = -(-(levels - 1) // CONV_BLOCK) * CONV_BLOCK
        R = np.zeros((lags, M, N * dim))
        if M == 0 or levels == 1:
            return R
        lu = self.stepper(dt)
        v = np.stack([a * self.to_flat(m.values) for a, m in
                      zip(forcing.amplitudes, forcing.modes)], axis=1)
        for k in range(levels - 1):
            v[self.boundary_row_mask] = 0.0
            v = lu.solve(v)
            R[k] = v.reshape(dim, N, M).transpose(2, 1, 0).reshape(M, -1)
        return R


def apply_B(op: LameOperator, u: Field) -> np.ndarray:
    """Traction values at the boundary nodes, shape (n_boundary, dim)."""
    if not np.all(np.isfinite(u.values)):
        raise ValueError("non-finite velocity field")
    flat = op.B @ op.to_flat(u.values)
    return flat[op.boundary_row_mask].reshape(op.grid.dim, -1).T


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def solve_lame(op: LameOperator, f: np.ndarray | None, g: np.ndarray | None,
               u0: Field, times: np.ndarray) -> TimeSeries:
    """Implicit Euler for dv/dt + A v = f with traction rows B v = g.

    ``f`` (L - 1, *ext, dim) and ``g`` (L - 1, n_boundary, dim) hold step
    data for the L levels of ``times``, as the Brownian increments do: frame
    n drives the step n -> n + 1, at the level it steps to.  Each is an
    array or None (zero); another frame count raises ``ValueError``, and
    so do ``times`` not uniform from 0 (``TimeSeries``), before any work.
    ``f`` is read at the interior nodes only: the traction rows replace its
    boundary rows, which is why ``nonlinear.assemble_window`` assembles F_u
    on the interior nodes alone.  B u0 = g(0) is not checked here
    (``fixedpoint.compatibility_check``).  A one-level grid gives u0 as a
    one-frame series, with no factorization.
    """
    times = np.asarray(times, float)
    L = len(times)
    if any(a is not None and len(a) != L - 1 for a in (f, g)):
        raise ValueError(f"source and boundary data on {L} levels need one "
                         f"frame per step, {L - 1}")
    # the series checks the times before any work
    out = TimeSeries(op.grid, times,
                     np.empty((L,) + op.grid.extent + (op.grid.dim,)))
    out.values[0] = u0.values
    if L == 1:
        return out
    dt = times[1] - times[0]
    lu = op.stepper(dt)
    mask = op.boundary_row_mask
    v = op.to_flat(u0.values)
    for n in range(L - 1):
        rhs = v + dt * (op.to_flat(f[n]) if f is not None else 0.0)
        rhs[mask] = g[n].T.ravel() if g is not None else 0.0
        v = lu.solve(rhs)
        if not np.all(np.isfinite(v)):
            raise RuntimeError(f"linear solve produced non-finite values at "
                               f"t = {times[n + 1]:.6g}")
        out.values[n + 1] = op.from_flat(v)
    return out


def solve_stoch_convolution(op: LameOperator, R: np.ndarray,
                            dbeta: np.ndarray, times: np.ndarray) -> TimeSeries:
    """Semi-implicit Euler-Maruyama for dU + A U dt = sum_m amp_m f_m d beta_m.

    ``R`` holds the M modes' impulse responses under the step of ``times``
    (``LameOperator.forcing_responses`` for at least len(times) levels) and
    ``dbeta`` their increments on ``times``, as ``solve_lame`` takes step
    data: (M, len(times) - 1).  Other shapes raise ``ValueError``, and so
    do ``times`` not uniform from 0 (``TimeSeries``), before any work.
    Homogeneous traction rows are enforced at every step and U(0) = 0.

    The step recursion v_{n+1} = solve(mask(v_n + sum_m a_m f_m dbeta_{m,n}))
    is linear, so it is taken in its convolution form

        U_n = sum_m sum_{j<n} dbeta_{m,j} R_{m,n-j},

    with R_{m,k} = (solve o mask)^k (a_m f_m) the modes' impulse responses,
    which every path of one setup shares (``fixedpoint.Problem.responses``).
    A path then costs, with no step solve, per block of ``CONV_BLOCK``
    levels, one product of the block's rows of the lower-triangular Toeplitz
    matrix of its increments with the responses up to the block's last lag,
    in place of the recursion's L - 1 step solves per path.  Its temporaries
    are one block's coefficients, (CONV_BLOCK, M lags), and its product.
    With one BLAS thread and M = 1, U took 0.2 ms against the recursion's
    22 ms on 13^3 and 11 levels, and 102 ms against 163 ms on 25^2 and 1601
    levels.

    A row holds the increments before its level and zeros after them, so U
    up to a level does not depend on the increments after it, bit for bit:
    the discrete solution is adapted by construction.  Each product's shape
    is fixed by its block's place, not by L (a BLAS sum's rounding depends
    on its length), so a shorter horizon gives the prefix of a longer one,
    bit for bit.  U agrees with the recursion to round-off, not bit for bit.
    These bit-for-bit claims hold at a fixed BLAS thread count, and are
    checked at one: a product's rounding may depend on how BLAS splits it,
    and with two OpenBLAS threads the 13^3 benchmark paths' U moved by up
    to 4.2e-22 (4.7e-18 of max |U|).
    """
    times = np.asarray(times, float)
    L = len(times)
    M, lags = R.shape[1], -(-(L - 1) // CONV_BLOCK) * CONV_BLOCK
    if np.shape(dbeta) != (M, L - 1) or len(R) < lags:
        raise ValueError(f"{M} forcing modes on {L} levels need increments of "
                         f"shape ({M}, {L - 1}) and responses of {lags} lags, "
                         f"got {np.shape(dbeta)} and {len(R)}")
    dbeta = np.asarray(dbeta, float)
    U = TimeSeries(op.grid, times, np.zeros((L,) + op.grid.extent + (op.grid.dim,)))
    if M == 0 or L == 1:
        return U
    steps = L - 1
    flat = U.values[1:].reshape(steps, -1)
    for start in range(0, steps, CONV_BLOCK):
        stop = start + CONV_BLOCK
        coef = np.zeros((CONV_BLOCK, stop, M))
        for row, n in enumerate(range(start, min(stop, steps))):
            coef[row, :n + 1] = dbeta[:, n::-1].T   # level n + 1, latest first
        block = coef.reshape(CONV_BLOCK, -1) @ R[:stop].reshape(stop * M, -1)
        flat[start:stop] = block[:steps - start]
    return U


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
