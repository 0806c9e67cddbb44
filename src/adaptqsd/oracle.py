"""Independent d = 1 cross-check on a sparse sub-Markov grid generator.

The truncated process on B(0, L) x [y_min, L] is discretized on the cell
centers of the same histogram grid the particle estimators use (so every
comparison is bin-for-bin): nonuniform central differences for the (1/2) d2/dy2
term, first-order upwind for the y-drift and the -v x-transport, and a banded
jump stencil with targets rounded to cell centers. Probability flux through
any edge of the box, and jump mass landing outside it, feed an implicit kill
state, making row sums nonpositive (sub-Markov). Cells are numbered j * nx + i
(x fastest). The jump rates are f(y_j) times one (nx, offsets) table, so Q's
CSR arrays, diagonal included, are counted and then written one grid row at a
time, with no copy of the entries: the traced peak of a 120x90 build is
1.1x the bytes of the Q it returns.

Every solve goes through one factorization of I - 2Q per generator: a block
LDU over the grid's y rows (GridGenerator.lu), nx + 2 floats per cell, that
applies the resolvent (I - 2Q)^{-1} in two sweeps of ny dense matvecs. A decay rate
lambda of Q is an eigenvalue 1/(1 + 2 lambda) of the resolvent, which puts the
leading two (0.79 and 1.21 at 80x60) a ratio 0.75 apart. One Arnoldi basis
(_arnoldi) serves every Krylov solve. leading_vector (qsd.estimate_eta calls
it too) stops it once the top Ritz pair converges and takes one power step:
on forward solves for eta, then transpose solves for alpha, that gives the
eigentriple (lambda0, alpha, eta). The consistency checks apply e^{tQ} and its
adjoint from the same basis: no time steps, any stiffness, exact to round-off.

Q need not be irreducible: every cell must reach its largest strongly
connected component (the main one), on which alpha then lives; a BFS on the
graph of the components checks it. Cells outside it are transient, as where
advantageous-only jumps cannot climb back to large x.

Everything here is deliberately disjoint from the simulation code path: no
thinning, no random numbers, no shared stepping logic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, schur
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import DomainError, NumericError
from .measure import EmpiricalMeasure, HistGrid
from .model import ModelParams, drift_y, fixation_integral

__all__ = ["GridGenerator", "OracleTriple", "build_generator", "leading_vector",
           "leading_triple", "survival_consistency", "oracle_q_kernel", "QKernelCheck"]

_ROUNDOFF = 1e-12  # largest negative eigenvector entry clipped, relative to max |v|
_TOL = 1e-10  # leading_triple's bound on both eigenvector residuals, checked once
_SHIFT = 2.0  # every solve is with the resolvent (I - _SHIFT Q)^{-1}
_BLOCK = 64  # _inverse hands blocks at most this wide to LAPACK
# _arnoldi's cap on steps (operator calls) and relative breakdown level; leading_vector's
# Ritz residual target (of the Ritz value), steps between its checks (a check every step
# took 3.6x the time on a 600-node W1 at 200 steps), and restarts at the cap
_KRYLOV_MAX, _BREAKDOWN, _RITZ_RTOL, _RITZ_EVERY, _RESTARTS = 200, 1e-14, 1e-14, 4, 50
# steps _arnoldi's basis is first allocated for, 2.5 MB at 80x60: numpy backs arrays of
# 4 MiB and more with 2 MiB huge pages, so the cap's 7.7 MB faulted a run's ~37 rows in whole
_BASIS_STEPS = 64
# relative distance from a Ritz modulus within which a restart's median cut counts as on it
_RESTART_CUT_RTOL = 1e-10
# _expm_action: agreement tolerances (of the iterate; of ||v||, and _arnoldi's absolute
# breakdown level), run of agreeing steps
_KRYLOV_RTOL, _KRYLOV_ATOL, _KRYLOV_STREAK = 1e-10, 1e-15, 3


def _inverse(S: np.ndarray) -> np.ndarray:
    """S^{-1} of an M-matrix S = [[A, B], [C, D]] from A^{-1} and the inverse of
    its Schur complement D - C A^{-1} B (M-matrices too), found the same way down
    to blocks at most _BLOCK wide, which LAPACK getrf/getri invert: numpy `@`
    gives the same bytes on any number of BLAS threads, getri on wider blocks does not."""
    if S.shape[0] <= _BLOCK:
        return dgetri(*dgetrf(S)[:2])[0]
    h = S.shape[0] // 2
    a_inv = _inverse(S[:h, :h])
    a_inv_b = a_inv @ S[:h, h:]
    out = np.empty_like(S)
    out[h:, h:] = _inverse(S[h:, h:] - S[h:, :h] @ a_inv_b)
    out[h:, :h] = -out[h:, h:] @ (S[h:, :h] @ a_inv)
    out[:h, h:] = -a_inv_b @ out[h:, h:]
    out[:h, :h] = a_inv - a_inv_b @ out[h:, :h]
    return out


@dataclass(frozen=True)
class RowBlockLDU:
    """Block LDU factors of a matrix A, block tridiagonal over ny grid rows of
    nx cells with diagonal blocks A_{j,j-1} = diag(down[j]) and A_{j,j+1} =
    diag(up[j]) (down[0] and up[ny-1] are 0): `inv[j]` is S_j^{-1}, for the Schur
    complements S_0 = A_00 and S_j = A_jj - diag(down[j]) S_{j-1}^{-1} diag(up[j-1]).
    The fill of L and U is applied through the S_j^{-1}, never stored."""

    inv: np.ndarray  # (ny, nx, nx)
    down: np.ndarray  # (ny, nx)
    up: np.ndarray  # (ny, nx)

    def solve(self, v: np.ndarray, trans: str = "N") -> np.ndarray:
        """A^{-1} v, or A^{-T} v if trans == "T"."""
        inv, into, back = self.inv, self.down[1:], self.up[:-1]  # coupling across each row pair
        if trans == "T":  # A^T's Schur complements are the S_j^T, its couplings swap
            inv, into, back = inv.transpose(0, 2, 1), back, into
        x = np.array(v, dtype=float).reshape(inv.shape[:2])
        rows, inv, into, back = list(x), list(inv), list(into), list(back)  # row views
        rows[0][:] = np.dot(inv[0], rows[0])  # BLAS gemv, with less overhead than `@`
        for j in range(1, len(rows)):
            np.dot(inv[j], rows[j] - into[j - 1] * rows[j - 1], out=rows[j])
        for j in range(len(rows) - 2, -1, -1):
            rows[j] -= np.dot(inv[j], back[j] * rows[j + 1])
        return x.ravel()


@dataclass
class GridGenerator:
    """Assembled sub-Markov generator and its grid."""

    grid: HistGrid
    params: ModelParams
    Q: sp.csr_matrix
    kill_rate: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return self.Q.shape[0]

    def vec_to_grid(self, v: np.ndarray) -> np.ndarray:
        """Internal flat order (x fastest) -> (nx, ny) array."""
        return v.reshape(self.grid.ny, self.grid.nx).T

    def grid_to_vec(self, m: np.ndarray) -> np.ndarray:
        return np.asarray(m).T.ravel()

    @cached_property
    def lu(self) -> RowBlockLDU:
        """Block LDU of A = I - 2Q over the grid's y rows, which every oracle
        solve uses: jumps and x transport stay in a row, y diffusion couples one
        x cell of adjacent rows, so row blocks are read from Q's CSR arrays in
        turn and their Schur complements inverted. No pivoting: Q's off-diagonals
        are >= 0, its row sums <= 0, so A and every Schur complement are strictly
        row diagonally dominant. A row of A that is not, or a Q entry coupling
        grid rows otherwise, raises NumericError naming the first such row."""
        Q = self.Q if self.Q.has_canonical_format else self.Q.tocoo().tocsr()  # sorted, summed
        nx, ny = self.grid.nx, self.grid.ny
        inv, down, up = np.empty((ny, nx, nx)), np.zeros((ny, nx)), np.zeros((ny, nx))
        cells = np.arange(nx, dtype=np.int32)  # as Q's indices, so no cast per entry
        for j, start in enumerate(range(0, nx * ny, nx)):
            lo, hi = Q.indptr[start], Q.indptr[start + nx]
            row = np.repeat(cells, np.diff(Q.indptr[start:start + nx + 1]))
            col, a = Q.indices[lo:hi] - start, -_SHIFT * Q.data[lo:hi]
            inside, below, above = (col >= 0) & (col < nx), col == row - nx, col == row + nx
            stray = np.flatnonzero(~(inside | below | above))
            if stray.size:
                raise NumericError("Q couples two grid rows other than at one x cell of adjacent "
                                   "rows", diagnostics={"first_row": start + int(row[stray[0]])})
            block = np.zeros((nx, nx))  # written through flat views: ndarray.flat is ~4x slower
            block.reshape(-1)[(row * nx + col)[inside]] = a[inside]
            block.reshape(-1)[::nx + 1] += 1.0
            down[j, row[below]], up[j, row[above]] = a[below], a[above]
            diagonal = np.abs(block.diagonal())
            off_sum = np.abs(block).sum(axis=1) - diagonal + np.abs(down[j]) + np.abs(up[j])
            weak = np.flatnonzero(~(diagonal > off_sum))[:1]
            if weak.size:
                raise NumericError("I - 2Q is not strictly row diagonally dominant", diagnostics={
                    "first_row": start + int(weak[0]), "diagonal": float(diagonal[weak[0]]),
                    "off_diagonal": float(off_sum[weak[0]])})
            if j:
                block -= down[j, :, None] * inv[j - 1] * up[j - 1]
            inv[j] = _inverse(block)
        return RowBlockLDU(inv=inv, down=down, up=up)

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """Strongly connected components of Q (it stores no zeros): their
        number, and the mask of the largest, the main one."""
        n_comp, labels = connected_components(self.Q, directed=True, connection="strong")
        return n_comp, labels == np.bincount(labels).argmax()


@dataclass
class OracleTriple:
    """Leading eigentriple of a GridGenerator."""

    lambda0: float
    alpha: EmpiricalMeasure
    eta: np.ndarray
    res_alpha: float
    res_eta: float
    iterations: int

    def beta(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(grid=self.alpha.grid, masses=self.alpha.masses * self.eta)


def build_generator(params: ModelParams, L: float, y_min: float = 1e-3,
                    nx: int = 80, ny: int = 60) -> GridGenerator:
    """Assemble the generator for the box B(0, L) x [y_min, L]."""
    if params.dim != 1:
        raise DomainError("grid oracle is implemented for d = 1")
    if not (0.0 < y_min < L):
        raise DomainError("need 0 < y_min < L")
    grid = HistGrid.for_box(L, y_lo=y_min, nx=nx, ny=ny, dim=1)
    xc = grid.x_centers
    yc = grid.y_centers
    hx = xc[1] - xc[0]
    N = nx * ny
    # flux leaving the box adds to kill
    kill = np.zeros((ny, nx))

    # --- y diffusion (coefficient 1/2) plus upwinded y drift
    dy = np.diff(yc)
    h_minus = np.concatenate((dy[:1], dy))[:, None]
    h_plus = np.concatenate((dy, dy[-1:]))[:, None]
    psi = drift_y(xc[None, :, None], yc[:, None], params)  # (ny, nx)
    up = 1.0 / (h_plus * (h_minus + h_plus)) + np.maximum(psi, 0.0) / h_plus
    down = 1.0 / (h_minus * (h_minus + h_plus)) + np.maximum(-psi, 0.0) / h_minus
    kill[-1] += up[-1]
    kill[0] += down[0]

    # --- x transport at speed v toward -L
    transport = params.v / hx
    kill[:, 0] += transport

    # --- jumps: banded stencil in the x direction, separable in (i, j),
    # reaching 8 mutation standard deviations; off-grid targets are killed
    fy = np.asarray(params.f(yc))[:, None]  # (ny, 1)
    band = int(math.ceil(8.0 * params.tau / hx))
    reach = min(band, nx - 1)  # the farthest offset with a target on the grid
    total_int = np.array([fixation_integral(np.array([x0]), params) for x0 in xc])  # (nx,)
    in_grid = np.zeros(nx)  # discrete integral per source column, summed in offset order
    # jump rate / f(y) from column i to i + di at [i, reach + di]; 0 off the grid and at di = 0
    gnu_ok = np.zeros((nx, 2 * reach + 1))
    for di in range(-band, band + 1):
        if di == 0:
            gv0 = params.g(xc[:, None], np.zeros((nx, 1)))
            nu0 = float(params.mutation_density(np.zeros((1, 1)))[0])
            in_grid += gv0 * nu0 * hx  # sub-cell self band, dynamically inert
            continue
        w = np.full((nx, 1), di * hx)
        gnu = params.g(xc[:, None], w) * params.mutation_density(w) * hx  # (nx,)
        tgt = np.arange(nx) + di
        ok = (tgt >= 0) & (tgt < nx)
        on = np.where(ok, gnu, 0.0)
        in_grid += on
        if abs(di) <= reach:
            gnu_ok[:, reach + di] = on
        kill[:, ~ok] += fy * gnu[~ok]

    # jump mass unresolved by the band or the midpoint rule:
    # reconcile rows against the exact quadrature so the total outflow is
    # trapezoid-consistent (routed to kill; it is the beyond-box tail)
    kill += fy * np.maximum(total_int - in_grid, 0.0)

    # Q's CSR arrays, written one grid row at a time. A cell's entries, in
    # column order, sit in slots: y down, the x offsets -reach..reach (the
    # diagonal at 0), y up; an off-diagonal slot is stored where its rate is
    # positive (zero jump rates are not stored)
    offsets = np.concatenate(([-nx], np.arange(-reach, reach + 1), [nx])).astype(np.int32)
    diag = reach + 1

    def slots(j: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid row j's rates by cell and slot (0 at the diagonal), and which are stored."""
        rates = np.zeros((nx, len(offsets)))
        np.multiply(fy[j], gnu_ok, out=rates[:, 1:-1])
        rates[1:, diag - 1] += transport
        if j:
            rates[:, 0] = down[j]
        if j < ny - 1:
            rates[:, -1] = up[j]
        return rates, rates > 0.0

    # the entries of each cell, its diagonal included, counted before any is written
    counts = np.concatenate([slots(j)[1].sum(axis=1) + 1 for j in range(ny)])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    idx = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    indptr = indptr.astype(idx)
    indices, data = np.empty(indptr[-1], idx), np.empty(indptr[-1])
    out_rate = np.empty((ny, nx))
    cells = np.arange(nx, dtype=idx)
    for j in range(ny):
        rates, stored = slots(j)
        # the off-diagonal sum as csr.sum(axis=1) takes it: reduceat over the row in column order
        starts = np.concatenate(([0], np.cumsum(stored.sum(axis=1))[:-1]))
        out_rate[j] = np.add.reduceat(rates[stored], starts) + kill[j]
        rates[:, diag], stored[:, diag] = 0.0 - out_rate[j], True
        lo, hi = indptr[j * nx], indptr[(j + 1) * nx]
        data[lo:hi] = rates[stored]
        indices[lo:hi] = (j * nx + cells[:, None] + offsets)[stored]
    kill = kill.ravel()
    Q = sp.csr_matrix((data, indices, indptr), shape=(N, N))
    genr = GridGenerator(grid=grid, params=params, Q=Q, kill_rate=kill)

    n_comp, main = genr.components
    frac = main.sum() / N
    if n_comp > 1 and (unreached := _unreached(Q, nx)):
        raise NumericError("generator has cells that cannot reach its main component",
                           diagnostics={"n_components": int(n_comp),
                                        "largest_frac": float(frac), "unreached": unreached})

    genr.diagnostics = {"nnz": int(Q.nnz), "bandwidth_x": band, "scc_frac": float(frac),
                        "min_row_deficit": float(kill.min()), "max_rate": float(out_rate.max())}
    return genr


def _unreached(Q: sp.csr_matrix, nx: int) -> int:
    """The number of cells of Q that cannot reach its largest strongly
    connected component: a BFS back from it on the graph of the components,
    whose edges are read from Q one grid row of nx cells at a time."""
    n_comp, labels = connected_components(Q, directed=True, connection="strong")
    sizes = np.bincount(labels)
    pairs = np.empty(0, np.int64)  # the distinct (source, target) pairs so far, src * n_comp + dst
    for start in range(0, Q.shape[0], nx):
        lo, hi = Q.indptr[start], Q.indptr[start + nx]
        src = np.repeat(labels[start:start + nx], np.diff(Q.indptr[start:start + nx + 1]))
        dst = labels[Q.indices[lo:hi]]
        cross = src != dst
        # sorted and deduplicated by hand: np.unique takes ~4x as long
        pairs = np.sort(np.concatenate((pairs, src[cross].astype(np.int64) * n_comp + dst[cross])))
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    src, dst = np.divmod(pairs, n_comp)
    back = sp.csr_matrix((np.ones(src.size), (dst, src)), shape=(n_comp, n_comp))
    reached = breadth_first_order(back, int(sizes.argmax()), return_predecessors=False)
    return int(Q.shape[0] - sizes[reached].sum())


def _nonnegative(v: np.ndarray, name: str) -> np.ndarray:
    """v scaled to max |v| = 1 (fixing its sign or phase), round-off negatives clipped."""
    v = v / v[np.argmax(np.abs(v))]
    bad = ~np.isfinite(v) | (v.real < -_ROUNDOFF) | (np.abs(v.imag) > _ROUNDOFF)
    if bad.any():
        raise NumericError(f"{name} eigenvector is not nonnegative beyond round-off", diagnostics={
            "bad_entries": int(bad.sum()), "min_entry": float(np.nanmin(v.real))})
    return np.maximum(v.real, 0.0)


def _arnoldi(apply, v: np.ndarray, steps: int, H0: np.ndarray = np.zeros((1, 0))):
    """Arnoldi on the map `apply` (which returns a new array) from the k + 1 =
    len(H0) rows of v: a finite nonzero vector if k = 0 (else DomainError), else
    orthonormal rows with apply(v[:k].T) = v.T H0. After each step m <= min(steps,
    n), the views V[:m + 1], orthonormal rows, and H[:m + 1, :m], with
    apply(V[:m].T) = V.T H. Classical Gram-Schmidt, twice; numpy forms the n-long
    sums, which BLAS splits by thread. A remainder of round-off (at most
    _BREAKDOWN of the image's part in the basis, or _KRYLOV_ATOL), as at step n,
    is a breakdown: H[m, m - 1] = 0, the end. The basis is allocated for
    _BASIS_STEPS steps (or the cap, if k is that many) and grown once to the cap,
    its rows copied, by a run that goes past them."""
    V0 = np.reshape(v, (len(H0), -1))
    if not (math.isfinite(norm := _norm(V0[-1])) and norm > 0.0):
        raise DomainError("Krylov start vector must be finite and nonzero")
    k, n = len(H0) - 1, V0.shape[1]
    last = min(steps, n)
    size = min(last, steps if k >= _BASIS_STEPS else _BASIS_STEPS)
    V, H = np.empty((size + 1, n)), np.zeros((size + 1, size))
    V[:k + 1], V[k], H[:k + 1, :k] = V0, V0[-1] / norm, H0
    for m in range(k + 1, last + 1):
        if m == len(V):  # the first step past the allocation
            V, H = np.pad(V, ((0, last - size), (0, 0))), np.pad(H, (0, last - size))
        w = apply(V[m - 1])
        for _ in range(2):
            c = np.einsum("ij,j->i", V[:m], w)
            w -= c @ V[:m]
            H[:m, m - 1] += c
        h = _norm(w)
        floor = max(_BREAKDOWN * _norm(H[:m, m - 1]), _KRYLOV_ATOL)
        H[m, m - 1] = h if h > floor and m < n else 0.0
        V[m] = w / h if H[m, m - 1] else 0.0
        yield V[:m + 1], H[:m + 1, :m]
        if not H[m, m - 1]:
            return


def _norm(w: np.ndarray) -> float:
    return math.sqrt(float((w * w).sum()))


def leading_vector(apply, n: int, name: str) -> tuple[np.ndarray, int]:
    """apply(v) for v the nonnegative leading eigenvector (max entry 1) of the
    map `apply` on R^n, and the `apply` calls, that one included: _arnoldi from
    the ones vector until the top Ritz pair (theta, y) of H_m has |h_{m+1,m} y_m|
    <= _RITZ_RTOL |theta| (checked every _RITZ_EVERY steps, at a breakdown and at
    the cap). The last call damps the fast modes a resolvent's Krylov space left,
    and keeps a zero row at exactly 0. At the cap of _KRYLOV_MAX steps, up to
    _RESTARTS times, _arnoldi goes on from the Schur vectors of the Ritz values
    above their median modulus, or above the midpoint between it and the next lower
    modulus when it is one (Krylov-Schur restart); then NumericError naming `name`,
    as for a LinAlgError of the Ritz eig or of the restart's sorted Schur form."""
    v, H0, solves = np.ones(n), np.zeros((1, 0)), 0
    for _ in range(_RESTARTS + 1):
        for V, H in _arnoldi(apply, v, _KRYLOV_MAX, H0):
            solves += 1
            if (len(V) - 1) % _RITZ_EVERY and H[-1, -1] and len(V) <= _KRYLOV_MAX:
                continue
            try:
                theta, Y = np.linalg.eig(H[:-1])
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"Ritz values of {name} did not converge",
                                   diagnostics={"solves": solves}) from exc
            k = np.argmax(moduli := np.abs(theta))
            residual, top = abs(H[-1, -1] * Y[-1, k]), moduli[k]
            if residual <= _RITZ_RTOL * top:
                y = Y[:, k] if theta[k].imag else Y[:, k].real
                return apply(_nonnegative(y @ V[:-1], name)), solves + 1
        # a cut on a modulus, as a complex pair's in the middle, would split the
        # pair once LAPACK reorders it: cut halfway to the next distinct one below
        cut = np.median(moduli)
        tol = _RESTART_CUT_RTOL * cut
        lower = moduli[moduli < cut - tol]
        if len(lower) and np.any(np.abs(moduli - cut) <= tol):
            cut = 0.5 * (cut + lower.max())
        try:
            T, U, keep = schur(H[:-1], sort=lambda re, im: math.hypot(re, im) > cut)
        except np.linalg.LinAlgError as exc:  # as when the cut splits a complex pair
            near = sorted(map(float, moduli[np.argsort(np.abs(moduli - cut))[:4]]))
            raise NumericError(f"Krylov-Schur restart failed for {name}", diagnostics={
                "solves": solves, "cut": float(cut), "moduli_near_cut": near}) from exc
        v = np.vstack([U[:, :keep].T @ V[:-1], V[-1]])
        H0 = np.vstack([T[:keep, :keep], H[-1] @ U[:, :keep]])
    raise NumericError(f"Arnoldi did not converge for {name}", diagnostics={
        "solves": solves, "ritz_residual": float(residual), "ritz_value": float(top)})


def leading_triple(genr: GridGenerator) -> OracleTriple:
    """Leading eigentriple from the resolvent (I - 2Q)^{-1}, in the calling
    process: leading_vector on forward solves (eta), then on transpose solves
    (alpha); NumericError unless ||alpha Q + lambda alpha||_1 with ||alpha||_1 = 1
    and ||Q eta + lambda eta||_inf with ||eta||_inf = 1 are both below _TOL. The
    same on any number of CPUs and of BLAS threads. `iterations` counts both
    runs' resolvent solves. alpha's mass outside the main component must be round-off."""
    Q, lu, n = genr.Q, genr.lu, genr.n_cells
    eta, eta_solves = leading_vector(partial(lu.solve, trans="N"), n, "eta")
    alpha, alpha_solves = leading_vector(partial(lu.solve, trans="T"), n, "alpha")
    eta, alpha = _nonnegative(eta, "eta"), _nonnegative(alpha, "alpha")
    alpha /= alpha.sum()
    # numpy's sums, not BLAS ddot's (`@` on vectors), which change with the BLAS thread count
    qe = Q @ eta
    lam = -float((eta * qe).sum()) / float((eta * eta).sum())
    res_eta = float(np.abs(qe + lam * eta).max())
    qa = Q.T @ alpha
    lam_a = -float((alpha * qa).sum()) / float((alpha * alpha).sum())
    res_alpha = float(np.abs(qa + lam_a * alpha).sum())
    if not (res_eta < _TOL and res_alpha < _TOL):
        raise NumericError("eigentriple residuals are not below the tolerance", diagnostics={
            "solves": eta_solves + alpha_solves, "res_eta": res_eta, "res_alpha": res_alpha})

    outside = float(alpha[~genr.components[1]].sum())
    if outside > _ROUNDOFF:
        raise NumericError("alpha has mass outside the main component",
                           diagnostics={"outside_mass": outside})
    inner = float((alpha * eta).sum())
    if inner <= 0.0:
        raise NumericError("degenerate alpha-eta pairing")
    return OracleTriple(lambda0=0.5 * (lam + lam_a),
                        alpha=EmpiricalMeasure(grid=genr.grid, masses=genr.vec_to_grid(alpha)),
                        eta=genr.vec_to_grid(eta / inner), res_alpha=res_alpha,
                        res_eta=res_eta, iterations=eta_solves + alpha_solves)


def _expm_action(genr: GridGenerator, v: np.ndarray, ts: tuple[float, ...],
                 adjoint: bool = False) -> np.ndarray:
    """Columns e^{tQ} v (e^{tQ^T} v if adjoint), one per t in ts: _arnoldi on
    the resolvent A = (I - 2Q)^{-1} gives V_m^T A V_m = H_m, so Q ~ V_m S V_m^T
    with S = (I - H_m^{-1}) / 2 and e^{tQ} v ~ ||v|| V_m expm(t S) e_1, whatever
    the stiffness of Q. Stops on _arnoldi's breakdown, or when successive
    iterates agree on _KRYLOV_STREAK consecutive steps, as a point mass on a
    killing edge has zero first iterates. Agreement is relative to the
    iterate, whose round-off floor is ~1e-12 ||v|| for a spread-out v, plus an
    absolute 1e-15 ||v||, as a killed point mass maps to ~1e-9 ||v||. Raises DomainError unless ts is a nonempty
    set of finite, positive horizons and v a finite, nonzero vector.
    """
    if not (len(ts) and all(math.isfinite(t) and t > 0.0 for t in ts)):
        raise DomainError(f"horizons must be finite and positive, and at least one: {ts}")
    prev, streak = np.zeros((0, len(ts))), 0
    for V, H in _arnoldi(partial(genr.lu.solve, trans="T" if adjoint else "N"), v, _KRYLOV_MAX):
        S = (np.eye(len(H) - 1) - np.linalg.inv(H[:-1])) / _SHIFT
        coef = np.stack([expm(t * S)[:, 0] for t in ts], axis=1)
        change = np.linalg.norm(coef - np.pad(prev, ((0, 1), (0, 0))), axis=0)
        agree = np.all(change <= _KRYLOV_RTOL * np.linalg.norm(coef, axis=0) + _KRYLOV_ATOL)
        streak = streak + 1 if agree else 0
        if not H[-1, -1] or streak >= _KRYLOV_STREAK:
            return _norm(v) * (V[:-1].T @ coef)
        prev = coef
    raise NumericError("shift-and-invert Krylov exponential did not converge", diagnostics={
        "solves": len(V) - 1, "last_change": float(change.max()), "subdiagonal": float(H[-1, -1]),
        "adjoint": adjoint, "t_max": float(max(ts))})


def survival_consistency(genr: GridGenerator, triple: OracleTriple,
                         ts: tuple[float, ...] = (1.0, 2.0, 5.0)) -> dict[float, float]:
    """Relative error of alpha-started survival against e^{-lambda0 t}, every t
    read from one Krylov basis; ts are finite and positive, at least one."""
    alpha = genr.grid_to_vec(triple.alpha.masses)
    mass = _expm_action(genr, alpha, ts, adjoint=True).sum(axis=0)
    expected = np.exp(-triple.lambda0 * np.asarray(ts))
    return {t: float(abs(m - e) / e) for t, m, e in zip(ts, mass, expected)}


@dataclass
class QKernelCheck:
    """Consistency report for the conditioned kernel at horizon t."""

    t: float
    row_sum_max_err: float
    beta_invariance_l1: float
    rows: dict[int, np.ndarray] = field(default_factory=dict)


def oracle_q_kernel(genr: GridGenerator, triple: OracleTriple, t: float,
                    rows: tuple[int, ...] = ()) -> QKernelCheck:
    """Checks of q_t = e^{lambda0 t} eta(end)/eta(start) p_t on the grid.

    Row sums are checked for every cell via one forward evolution of eta;
    beta-invariance via one adjoint evolution of alpha. Explicit kernel rows
    (flat internal indexing, each in [0, n_cells)) are computed on request,
    one adjoint evolution of a point mass each, and returned normalized. t is
    finite and positive.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be finite and positive, not {t}")
    bad = [i for i in rows if not 0 <= i < genr.n_cells]
    if bad:
        raise DomainError(f"kernel rows must be cell indices in [0, {genr.n_cells}): {bad}")
    eta = genr.grid_to_vec(triple.eta)
    alpha = genr.grid_to_vec(triple.alpha.masses)
    growth = math.exp(triple.lambda0 * t)

    row_sums = growth * _expm_action(genr, eta, (t,))[:, 0] / np.maximum(eta, 1e-300)
    # row sums are only meaningful where eta is resolvable above round-off
    mask = eta > 1e-9 * eta.max()
    row_err = float(np.abs(row_sums[mask] - 1.0).max())
    beta_t = growth * eta * _expm_action(genr, alpha, (t,), adjoint=True)[:, 0]
    inv_err = float(np.abs(beta_t - alpha * eta).sum())
    out_rows = {}
    for i in rows:
        p_row = _expm_action(genr, np.eye(1, genr.n_cells, i)[0], (t,), adjoint=True)[:, 0]
        q_row = growth * p_row * eta / max(eta[i], 1e-300)
        out_rows[i] = q_row / max(q_row.sum(), 1e-300)
    return QKernelCheck(t=t, row_sum_max_err=row_err, beta_invariance_l1=inv_err, rows=out_rows)
