"""Independent d = 1 cross-check on a sparse sub-Markov grid generator.

The truncated process on B(0, L) x [y_min, L] is discretized on the cell
centers of the same histogram grid the particle estimators use (so every
comparison is bin-for-bin): nonuniform central differences for the (1/2) d2/dy2
term, first-order upwind for the y-drift and the -v x-transport, and a banded
jump stencil with targets rounded to cell centers. Probability flux through
any edge of the box, and jump mass landing outside it, feed an implicit kill
state, making row sums nonpositive (sub-Markov). Each term is assembled as one
array expression over the (ny, nx) array of flat cell indices j * nx + i (an
order that keeps the LU banded); only the jump offsets are looped over.

Every solve goes through one banded LU per generator, of (I - 2Q)^T, i.e. the
resolvent (I - 2Q)^{-1}: the flat cell order bands Q by nx, so the band is
written straight from Q's entries. I - 2Q is strictly row diagonally dominant
(Q's off-diagonals are >= 0, its row sums <= 0), so its transpose is strictly
column diagonally dominant and LAPACK gbtrf's partial pivoting swaps no row
of it; a solve in either direction is then two BLAS tbsv sweeps over the
factors' bands, with no zero fill. A decay rate
lambda of Q is an eigenvalue 1/(1 + 2 lambda) of the resolvent, which puts the
leading two (0.79 and 1.21 at 80x60) a ratio 0.75 apart. The leading
eigentriple (lambda0, alpha, eta) comes from two independent ARPACK runs on
it (leading_vector, the package's one ARPACK routine, which qsd.estimate_eta
also calls), forward solves for eta and transpose solves for alpha, which run
in parallel on two CPUs over the one LU (shard.sharded), then from power
steps that polish both together. The consistency checks apply e^{tQ} and its
adjoint by a shift-and-invert Krylov method on the same resolvent: no time
steps, any stiffness, and exact to round-off on the eigenvectors.

Q need not be irreducible: every cell must reach its largest strongly
connected component (the main one), on which alpha then lives. Cells outside
it are transient, as where advantageous-only jumps cannot climb back to large
x.

Everything here is deliberately disjoint from the simulation code path: no
thinning, no random numbers, no shared stepping logic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from .errors import DomainError, NumericError
from .measure import EmpiricalMeasure, HistGrid
from .model import ModelParams, drift_y, fixation_integral
from .shard import sharded

__all__ = ["GridGenerator", "OracleTriple", "build_generator", "leading_vector",
           "leading_triple", "survival_consistency", "oracle_q_kernel", "QKernelCheck"]

_ROUNDOFF = 1e-12  # largest negative eigenvector entry clipped, relative to max |v|
# leading_triple's eigen-residual target; the cap on leading_vector's ARPACK
# restarts and on leading_triple's resolvent polish steps
_TOL = 1e-10
_MAX_ITER = 20_000
_SHIFT = 2.0  # every solve is with the resolvent (I - _SHIFT Q)^{-1}
# _expm_action: agreement tolerances (of the iterate, of ||v||), the number of
# consecutive agreeing steps, and the cap on resolvent solves
_KRYLOV_RTOL, _KRYLOV_ATOL, _KRYLOV_STREAK, _KRYLOV_MAX = 1e-10, 1e-15, 3, 200


@dataclass(frozen=True)
class BandedLU:
    """Pivot-free LU factors L U = A^T of a matrix A with kl sub- and ku
    superdiagonals, as LAPACK gbtrf leaves them in its band storage.

    `upper` and `lower` are two F-contiguous views of that one buffer, offset
    so that each reads as the band a BLAS tbsv sweep expects: U's kl
    superdiagonals, and L's ku subdiagonals under its unit diagonal. Since no
    row was swapped, A = U^T L^T, and a solve in either direction is two
    sweeps."""

    upper: np.ndarray
    lower: np.ndarray
    kl: int
    ku: int

    def solve(self, v: np.ndarray, trans: str = "N") -> np.ndarray:
        """A^{-1} v, or A^{-T} v if trans == "T"."""
        if trans == "N":  # U^T y = v, then L^T x = y
            y = dtbsv(self.kl, self.upper, v, lower=0, trans=1)
            return dtbsv(self.ku, self.lower, y, lower=1, trans=1, diag=1, overwrite_x=1)
        y = dtbsv(self.ku, self.lower, v, lower=1, diag=1)  # L y = v, then U x = y
        return dtbsv(self.kl, self.upper, y, lower=0, overwrite_x=1)


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
    def lu(self) -> BandedLU:
        """Banded LU of (I - 2Q)^T: the one factorization every oracle solve
        uses.

        The band storage is written straight from Q's entries, and so are its
        bandwidths: nx, the y-diffusion offset, on a built grid. Q's
        off-diagonals are >= 0 and its row sums <= 0, so I - 2Q is strictly row
        diagonally dominant and its transpose strictly column diagonally
        dominant, where partial pivoting swaps no row. A zero pivot, or a swap
        all the same (Q is then no sub-Markov generator), raises NumericError
        with LAPACK's info or the first swapped row."""
        Q = self.Q.tocoo()
        Q.sum_duplicates()  # a no-op on assembled generators, which are canonical
        offset = Q.row - Q.col
        kl, ku = max(int(offset.max()), 0), max(int(-offset.min()), 0)
        # A^T has ku sub- and kl superdiagonals, and A[i, j] = A^T[j, i] sits
        # at ab[kl + ku + j - i, i]; the top ku rows are room for the fill of
        # row swaps. Column-major, so gbtrf factors it in place; the kl + ku
        # slack keeps the shifted views of BandedLU inside the buffer
        rows, n = 2 * ku + kl + 1, self.n_cells
        buf = np.zeros(rows * n + kl + ku)
        ab = buf[:rows * n].reshape((rows, n), order="F")
        ab[kl + ku - offset, Q.row] = -_SHIFT * Q.data
        ab[kl + ku] += 1.0
        _, ipiv, info = dgbtrf(ab, ku, kl, overwrite_ab=True)
        if info != 0:
            raise NumericError("banded LU of (I - 2Q)^T has a zero pivot", diagnostics={
                "info": int(info), "kl": kl, "ku": ku})
        swapped = np.flatnonzero(ipiv != np.arange(n))
        if swapped.size:
            raise NumericError("banded LU of (I - 2Q)^T swapped a row: I - 2Q is not "
                               "diagonally dominant", diagnostics={
                                   "kl": kl, "ku": ku, "first_swapped_row": int(swapped[0])})

        def view(start):  # the band from storage row `start` on, leading dimension `rows`
            return buf[start:start + rows * n].reshape((rows, n), order="F")

        return BandedLU(upper=view(ku), lower=view(kl + ku), kl=kl, ku=ku)

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
    cell = np.arange(N).reshape(ny, nx)  # flat index j * nx + i of cell (i, j)
    kill = np.zeros((ny, nx))
    # each generator term is one (source cells, target cells, rates) triple;
    # flux leaving the box adds to kill instead
    terms = []

    # --- y diffusion (coefficient 1/2) plus upwinded y drift
    dy = np.diff(yc)
    h_minus = np.concatenate((dy[:1], dy))[:, None]
    h_plus = np.concatenate((dy, dy[-1:]))[:, None]
    psi = drift_y(xc[None, :, None], yc[:, None], params)  # (ny, nx)
    up = 1.0 / (h_plus * (h_minus + h_plus)) + np.maximum(psi, 0.0) / h_plus
    down = 1.0 / (h_minus * (h_minus + h_plus)) + np.maximum(-psi, 0.0) / h_minus
    terms += [(cell[:-1], cell[1:], up[:-1]), (cell[1:], cell[:-1], down[1:])]
    kill[-1] += up[-1]
    kill[0] += down[0]

    # --- x transport at speed v toward -L
    terms.append((cell[:, 1:], cell[:, :-1], np.full((ny, nx - 1), params.v / hx)))
    kill[:, 0] += params.v / hx

    # --- jumps: banded stencil in the x direction, separable in (i, j),
    # reaching 8 mutation standard deviations; off-grid targets are killed
    fy = np.asarray(params.f(yc))[:, None]  # (ny, 1)
    band = int(math.ceil(8.0 * params.mutation.tau / hx))
    total_int = np.array([fixation_integral(np.array([x0]), params) for x0 in xc])  # (nx,)
    in_grid = np.zeros(nx)  # discrete integral per source column, summed in offset order
    for di in range(-band, band + 1):
        if di == 0:
            gv0 = params.g(xc[:, None], np.zeros((nx, 1)))
            nu0 = float(params.mutation.density(np.zeros((1, 1)))[0])
            in_grid += gv0 * nu0 * hx  # sub-cell self band, dynamically inert
            continue
        w = np.full((nx, 1), di * hx)
        gnu = params.g(xc[:, None], w) * params.mutation.density(w) * hx  # (nx,)
        tgt = np.arange(nx) + di
        ok = (tgt >= 0) & (tgt < nx)
        in_grid += np.where(ok, gnu, 0.0)
        rate = fy * gnu
        keep = ok & (rate > 0.0)  # zero rates are not stored
        terms.append((cell[keep], cell[keep] + di, rate[keep]))
        kill[:, ~ok] += rate[:, ~ok]

    # jump mass unresolved by the band or the midpoint rule:
    # reconcile rows against the exact quadrature so the total outflow is
    # trapezoid-consistent (routed to kill; it is the beyond-box tail)
    kill += fy * np.maximum(total_int - in_grid, 0.0)
    kill = kill.ravel()

    src, dst, rates = (np.concatenate([np.ravel(a) for a in part]) for part in zip(*terms))
    Q = sp.coo_matrix((rates, (src, dst)), shape=(N, N)).tocsr()
    out_rate = np.asarray(Q.sum(axis=1)).ravel() + kill
    Q = (Q - sp.diags(out_rate)).tocsr()
    genr = GridGenerator(grid=grid, params=params, Q=Q, kill_rate=kill)

    # every cell must reach the main component: a BFS on Q^T from one of its
    # cells visits exactly the cells that reach it
    n_comp, main = genr.components
    frac = main.sum() / N
    if n_comp > 1:
        unreached = N - breadth_first_order(Q.T, int(np.argmax(main)),
                                            return_predecessors=False).size
        if unreached:
            raise NumericError("generator has cells that cannot reach its main component",
                               diagnostics={"n_components": int(n_comp),
                                            "largest_frac": float(frac), "unreached": unreached})

    genr.diagnostics = {"nnz": int(Q.nnz), "bandwidth_x": band, "scc_frac": float(frac),
                        "min_row_deficit": float(kill.min()), "max_rate": float(out_rate.max())}
    return genr


def _nonnegative(v: np.ndarray, name: str) -> np.ndarray:
    """v scaled to max |v| = 1 (fixing ARPACK's phase), round-off negatives clipped."""
    v = v / v[np.argmax(np.abs(v))]
    bad = ~np.isfinite(v) | (v.real < -_ROUNDOFF) | (np.abs(v.imag) > _ROUNDOFF)
    if bad.any():
        raise NumericError(f"{name} eigenvector is not nonnegative beyond round-off", diagnostics={
            "bad_entries": int(bad.sum()), "min_entry": float(np.nanmin(v.real))})
    return np.maximum(v.real, 0.0)


def leading_vector(apply, n: int, name: str) -> tuple[np.ndarray, int]:
    """Nonnegative leading eigenvector of the map `apply` on R^n (n >= 3), and
    the number of `apply` calls: ARPACK (eigs, k = 1, at most _MAX_ITER
    restarts) from the ones vector, then _nonnegative. ARPACK's failure raises
    NumericError naming `name`."""
    count = 0

    def counted(v):
        nonlocal count
        count += 1
        return apply(v)

    try:
        v = eigs(LinearOperator((n, n), counted, dtype=float), k=1, v0=np.ones(n),
                 maxiter=_MAX_ITER)[1][:, 0]
    except ArpackError as exc:  # typed here: scipy's error does not cross a pipe
        raise NumericError(f"ARPACK did not converge for {name}",
                           diagnostics={"solves": count, "arpack": str(exc)}) from exc
    return _nonnegative(v, name), count


def leading_triple(genr: GridGenerator) -> OracleTriple:
    """Leading eigentriple: ARPACK on the resolvent (I - 2Q)^{-1}, then
    power-step polish.

    Two leading_vector runs start eta and alpha; they are independent, so
    they run in parallel over the one LU, factored here, and the result is
    the same on any number of CPUs and of BLAS threads. Then 1 to _MAX_ITER
    resolvent steps polish both until ||alpha Q + lambda alpha||_1 with
    ||alpha||_1 = 1 and ||Q eta + lambda eta||_inf with ||eta||_inf = 1 are
    both below _TOL. `iterations` counts resolvent solves: the operator calls
    of both ARPACK runs plus two per polish step. alpha's mass outside the
    main component must be round-off.
    """
    Q = genr.Q
    lu = genr.lu  # factored before the fork, so the worker shares it

    def top_vectors(units):
        return [leading_vector(partial(lu.solve, trans=trans), genr.n_cells,
                               "eta" if trans == "N" else "alpha") for trans in units]

    (eta, eta_solves), (alpha, alpha_solves) = sharded(top_vectors, ["N", "T"])
    solves = eta_solves + alpha_solves

    def resolvent(v, trans="N"):
        nonlocal solves
        solves += 1
        return lu.solve(v, trans=trans)

    for _ in range(_MAX_ITER):
        eta = _nonnegative(resolvent(eta), "eta")
        alpha = _nonnegative(resolvent(alpha, "T"), "alpha")
        alpha /= alpha.sum()
        # products are summed by numpy, not by BLAS ddot (what `@` calls on
        # vectors), whose threaded sum changes with the BLAS thread count
        qe = Q @ eta
        lam = -float((eta * qe).sum()) / float((eta * eta).sum())
        res_eta = float(np.abs(qe + lam * eta).max())
        qa = Q.T @ alpha
        lam_a = -float((alpha * qa).sum()) / float((alpha * alpha).sum())
        res_alpha = float(np.abs(qa + lam_a * alpha).sum())
        if res_eta < _TOL and res_alpha < _TOL:
            break
    else:
        raise NumericError("resolvent polish did not reach the residual tolerance",
                           diagnostics={"polish_steps": _MAX_ITER, "solves": solves,
                                        "res_eta": res_eta, "res_alpha": res_alpha})

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
                        res_eta=res_eta, iterations=solves)


def _expm_action(genr: GridGenerator, v: np.ndarray, ts: tuple[float, ...],
                 adjoint: bool = False) -> np.ndarray:
    """Columns e^{tQ} v (e^{tQ^T} v if adjoint), one per t in ts, from one
    shift-and-invert Krylov basis.

    Arnoldi (classical Gram-Schmidt, twice) on the resolvent A = (I - 2Q)^{-1}
    gives V_m^T A V_m = H_m, so Q ~ V_m S V_m^T with S = (I - H_m^{-1}) / 2 and
    e^{tQ} v ~ ||v|| V_m expm(t S) e_1, whatever the stiffness of Q. Stops on
    happy breakdown (a subdiagonal below _KRYLOV_ATOL), or when successive
    iterates agree on _KRYLOV_STREAK consecutive steps, as a point mass on a
    killing edge has zero first iterates. Agreement is relative to the iterate,
    whose round-off floor is ~1e-12 ||v|| for a spread-out v, plus an absolute
    1e-15 ||v||, as a killed point mass maps to ~1e-9 ||v||.
    """
    norm = float(np.linalg.norm(v))
    trans = "T" if adjoint else "N"
    V = np.empty((_KRYLOV_MAX + 1, v.size))  # rows are the basis; pages are touched as they fill
    H = np.zeros((_KRYLOV_MAX + 1, _KRYLOV_MAX))
    V[0] = v / norm
    prev, streak = np.zeros((0, len(ts))), 0
    for m in range(1, _KRYLOV_MAX + 1):
        w = genr.lu.solve(V[m - 1], trans=trans)
        for _ in range(2):
            c = V[:m] @ w
            w -= c @ V[:m]
            H[:m, m - 1] += c
        H[m, m - 1] = np.linalg.norm(w)
        S = (np.eye(m) - np.linalg.inv(H[:m, :m])) / _SHIFT
        coef = np.stack([expm(t * S)[:, 0] for t in ts], axis=1)
        change = np.linalg.norm(coef - np.pad(prev, ((0, 1), (0, 0))), axis=0)
        agree = np.all(change <= _KRYLOV_RTOL * np.linalg.norm(coef, axis=0) + _KRYLOV_ATOL)
        streak = streak + 1 if agree else 0
        if H[m, m - 1] <= _KRYLOV_ATOL or streak >= _KRYLOV_STREAK:
            return norm * (V[:m].T @ coef)
        V[m] = w / H[m, m - 1]
        prev = coef
    raise NumericError("shift-and-invert Krylov exponential did not converge", diagnostics={
        "solves": _KRYLOV_MAX, "last_change": float(change.max()), "subdiagonal": float(H[m, m - 1]),
        "adjoint": adjoint, "t_max": float(max(ts))})


def survival_consistency(genr: GridGenerator, triple: OracleTriple,
                         ts: tuple[float, ...] = (1.0, 2.0, 5.0)) -> dict[float, float]:
    """Relative error of alpha-started survival against e^{-lambda0 t}, every t
    read from one Krylov basis."""
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
    (flat internal indexing) are computed on request, one adjoint evolution of
    a point mass each, and returned normalized.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
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
