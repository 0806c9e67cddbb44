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

The leading eigentriple (lambda0, alpha, eta) comes from ARPACK on the resolvent
(I - Q/2)^{-1} (one sparse LU, forward solves for eta, transpose solves for
alpha), polished by power steps on the same LU. The consistency checks propagate
by Crank-Nicolson substeps sized for 5e-7 relative accuracy, one solve per step.

Everything here is deliberately disjoint from the simulation code path: no
thinning, no random numbers, no shared stepping logic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu

from .errors import DomainError, NumericError
from .measure import EmpiricalMeasure, HistGrid
from .model import ModelParams, drift_y, fixation_integral

__all__ = ["GridGenerator", "OracleTriple", "build_generator", "leading_triple",
           "survival_consistency", "oracle_q_kernel", "QKernelCheck"]

# the flat cell order j * nx + i is already banded by nx; reordering only
# costs factorization time
_PERMC_SPEC = "NATURAL"
_ROUNDOFF = 1e-12  # largest negative eigenvector entry clipped, relative to max |v|
# leading_triple: eigen-residual target, and the cap on ARPACK restarts and on
# resolvent polish steps
_TOL = 1e-10
_MAX_ITER = 20_000
_CN_REL_TARGET = 5e-7  # Crank-Nicolson steps are sized for this relative error


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

    # reachability scan (Q stores no zeros): the largest strongly connected
    # component must hold 90% of the cells
    n_comp, labels = connected_components(Q, directed=True, connection="strong")
    frac = np.bincount(labels).max() / N
    if frac < 0.9:
        raise NumericError("generator not irreducible on its main component",
                           diagnostics={"n_components": int(n_comp), "largest_frac": float(frac)})

    diag = {"nnz": int(Q.nnz), "bandwidth_x": band, "scc_frac": float(frac),
            "min_row_deficit": float(kill.min()), "max_rate": float(out_rate.max())}
    return GridGenerator(grid=grid, params=params, Q=Q, kill_rate=kill, diagnostics=diag)


def _factor(Q: sp.spmatrix, scale: float):
    """Sparse LU of I - scale * Q."""
    return splu(sp.identity(Q.shape[0], format="csc") - scale * Q.tocsc(),
                permc_spec=_PERMC_SPEC)


def _nonnegative(v: np.ndarray, name: str) -> np.ndarray:
    """v scaled to max |v| = 1 (fixing ARPACK's phase), round-off negatives clipped."""
    v = v / v[np.argmax(np.abs(v))]
    bad = ~np.isfinite(v) | (v.real < -_ROUNDOFF) | (np.abs(v.imag) > _ROUNDOFF)
    if bad.any():
        raise NumericError(f"{name} eigenvector is not nonnegative beyond round-off", diagnostics={
            "bad_entries": int(bad.sum()), "min_entry": float(np.nanmin(v.real))})
    return np.maximum(v.real, 0.0)


def leading_triple(genr: GridGenerator) -> OracleTriple:
    """Leading eigentriple: ARPACK on the resolvent (I - Q/2)^{-1}, then
    power-step polish.

    ARPACK (at most _MAX_ITER restarts) starts both vectors; 1 to _MAX_ITER
    resolvent steps polish them until ||alpha Q + lambda alpha||_1 with
    ||alpha||_1 = 1 and ||Q eta + lambda eta||_inf with ||eta||_inf = 1 are
    both below _TOL. `iterations` counts resolvent solves: ARPACK operator
    calls plus two per polish step.
    """
    Q = genr.Q
    N = Q.shape[0]
    lu = _factor(Q, 0.5)
    solves = 0

    def resolvent(v, trans="N"):
        nonlocal solves
        solves += 1
        return lu.solve(v, trans=trans)

    def top_vector(trans, name):
        op = LinearOperator((N, N), lambda v: resolvent(v, trans), dtype=float)
        return _nonnegative(eigs(op, k=1, v0=np.ones(N), maxiter=_MAX_ITER)[1][:, 0], name)

    try:
        eta, alpha = top_vector("N", "eta"), top_vector("T", "alpha")
    except ArpackError as exc:
        raise NumericError("ARPACK did not converge on the resolvent",
                           diagnostics={"solves": solves, "arpack": str(exc)}) from exc
    for _ in range(_MAX_ITER):
        eta = _nonnegative(resolvent(eta), "eta")
        alpha = _nonnegative(resolvent(alpha, "T"), "alpha")
        alpha /= alpha.sum()
        qe = Q @ eta
        lam = -float(eta @ qe) / float(eta @ eta)
        res_eta = float(np.abs(qe + lam * eta).max())
        qa = Q.T @ alpha
        lam_a = -float(alpha @ qa) / float(alpha @ alpha)
        res_alpha = float(np.abs(qa + lam_a * alpha).sum())
        if res_eta < _TOL and res_alpha < _TOL:
            break
    else:
        raise NumericError("resolvent polish did not reach the residual tolerance",
                           diagnostics={"polish_steps": _MAX_ITER, "solves": solves,
                                        "res_eta": res_eta, "res_alpha": res_alpha})

    inner = float(alpha @ eta)
    if inner <= 0.0:
        raise NumericError("degenerate alpha-eta pairing")
    alpha_meas = EmpiricalMeasure(grid=genr.grid, masses=genr.vec_to_grid(alpha),
                                  n_samples=float("inf"))
    return OracleTriple(lambda0=0.5 * (lam + lam_a), alpha=alpha_meas,
                        eta=genr.vec_to_grid(eta / inner), res_alpha=res_alpha,
                        res_eta=res_eta, iterations=solves)


# ---------------------------------------------------------------------------
# Crank-Nicolson propagation


class _Propagator:
    """v -> v after n steps of CN for dv/dt = Qv (or the adjoint flow); v may
    hold columns. With K = I - hQ/2 a step K^{-1}(2I - K) v is 2 K^{-1} v - v."""

    def __init__(self, Q: sp.spmatrix, h: float):
        self.lu = _factor(Q, 0.5 * h)

    def forward(self, v: np.ndarray, n: int) -> np.ndarray:
        for _ in range(n):
            v = 2.0 * self.lu.solve(v) - v
        return v

    def adjoint(self, v: np.ndarray, n: int) -> np.ndarray:
        for _ in range(n):
            v = 2.0 * self.lu.solve(v, trans="T") - v
        return v


def _step_count(t: float, lam: float) -> int:
    # CN relative error ~ t lam^3 h^2 / 12
    lam = max(abs(lam), 1e-6)
    h = math.sqrt(12.0 * _CN_REL_TARGET / (t * lam**3)) if t > 0 else 1.0
    return max(int(math.ceil(t / min(h, t))), 1)


def survival_consistency(genr: GridGenerator, triple: OracleTriple,
                         ts: tuple[float, ...] = (1.0, 2.0, 5.0)) -> dict[float, float]:
    """Relative error of alpha-started survival against e^{-lambda0 t}."""
    t_max = max(ts)
    h = t_max / _step_count(t_max, triple.lambda0)
    prop = _Propagator(genr.Q, h)
    out, v, done = {}, genr.grid_to_vec(triple.alpha.masses), 0
    for t in sorted(ts):
        n_t = int(round(t / h))
        v, done = prop.adjoint(v, n_t - done), n_t
        expected = math.exp(-triple.lambda0 * (h * n_t))
        out[t] = abs(float(v.sum()) - expected) / expected
    return out


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
    (flat internal indexing) are computed on request via one multi-column
    adjoint evolution and returned normalized. That evolution starts from
    point masses, whose stiff modes CN keeps (amplification near -1) and the
    division by eta at the start cell magnifies, so its first step is two
    backward-Euler half-steps (Rannacher start-up) with the same factorization.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    lam = triple.lambda0
    eta = genr.grid_to_vec(triple.eta)
    alpha = genr.grid_to_vec(triple.alpha.masses)
    n = _step_count(t, lam)
    prop = _Propagator(genr.Q, t / n)
    growth = math.exp(lam * t)

    pe = prop.forward(eta, n)
    row_sums = growth * pe / np.maximum(eta, 1e-300)
    # row sums are only meaningful where eta is resolvable above round-off
    mask = eta > 1e-9 * eta.max()
    row_err = float(np.abs(row_sums[mask] - 1.0).max())

    ap = prop.adjoint(alpha, n)
    beta = alpha * eta
    beta_t = growth * eta * ap
    inv_err = float(np.abs(beta_t - beta).sum())

    out_rows = {}
    if rows:
        p_rows = sp.identity(genr.n_cells, format="csr")[list(rows)].T.toarray()
        p_rows = prop.adjoint(prop.lu.solve(prop.lu.solve(p_rows, trans="T"), trans="T"), n - 1)
        for k, i in enumerate(rows):
            q_row = growth * p_rows[:, k] * eta / max(eta[i], 1e-300)
            out_rows[i] = q_row / max(q_row.sum(), 1e-300)
    return QKernelCheck(t=t, row_sum_max_err=row_err, beta_invariance_l1=inv_err, rows=out_rows)
