"""Shared histogram grid, empirical measures, and total-variation distance.

The same HistGrid drives the particle histograms and the grid generator's
state space, so cross-comparisons (TV, per-cell ratios) are exact bin-for-bin
with no resampling step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = ["HistGrid", "EmpiricalMeasure", "tv_distance", "tv_noise_floor"]


@dataclass(frozen=True)
class HistGrid:
    """Product grid: uniform cells in each x-coordinate on [-L, L], and
    log-spaced cells in y on [y_lo, y_hi]."""

    dim: int
    x_lo: float
    x_hi: float
    nx: int
    y_lo: float
    y_hi: float
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise DomainError("need at least 2 cells per axis")
        if not (self.x_lo < self.x_hi):
            raise DomainError("x_lo must be below x_hi")
        if not (0.0 < self.y_lo < self.y_hi):
            raise DomainError("need 0 < y_lo < y_hi")

    @classmethod
    def for_box(cls, L: float, y_lo: float, y_hi: float | None = None,
                nx: int = 80, ny: int = 60, dim: int = 1) -> "HistGrid":
        return cls(dim=dim, x_lo=-L, x_hi=L, nx=nx,
                   y_lo=y_lo, y_hi=(L if y_hi is None else y_hi), ny=ny)

    @cached_property
    def x_edges(self) -> np.ndarray:
        return _read_only(np.linspace(self.x_lo, self.x_hi, self.nx + 1))

    @cached_property
    def y_edges(self) -> np.ndarray:
        return _read_only(np.geomspace(self.y_lo, self.y_hi, self.ny + 1))

    @property
    def x_centers(self) -> np.ndarray:
        e = self.x_edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def y_centers(self) -> np.ndarray:
        e = self.y_edges
        return np.sqrt(e[:-1] * e[1:])

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nx,) * self.dim + (self.ny,)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def histogram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Point counts over cells (binned by cell_index); points outside
        the box are dropped.

        x: (n, dim), y: (n,). Returns an array of self.shape.
        """
        idx = self.cell_index(x, y)
        return np.bincount(idx[idx >= 0], minlength=self.n_cells).astype(float).reshape(self.shape)

    def cell_index(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat cell index per point, -1 if outside the box (or NaN).

        Cells are [e_i, e_i+1), the last one closed. Each coordinate's cell
        is guessed in O(1) from the uniform x or log-uniform y spacing, then
        corrected by one comparison against each neighbouring edge.
        """
        x = np.asarray(x, dtype=float).reshape(len(np.atleast_1d(y)), self.dim)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        x_scale = self.nx / (self.x_hi - self.x_lo)
        idx = np.zeros(len(y), dtype=np.int64)
        ok = np.ones(len(y), dtype=bool)
        for k in range(self.dim):
            xk = x[:, k]
            ok &= (xk >= self.x_lo) & (xk <= self.x_hi)
            idx = idx * self.nx + _bin(xk, (xk - self.x_lo) * x_scale, self.x_edges)
        # the log guess sees y clamped to y_lo, so y <= 0 needs no log
        log_y = np.log(np.maximum(y, self.y_lo))
        y_scale = self.ny / np.log(self.y_hi / self.y_lo)
        ok &= (y >= self.y_lo) & (y <= self.y_hi)
        idx = idx * self.ny + _bin(y, (log_y - np.log(self.y_lo)) * y_scale, self.y_edges)
        return np.where(ok, idx, -1)

    def same_edges(self, other: "HistGrid") -> bool:
        return (self.dim == other.dim and self.shape == other.shape
                and np.allclose(self.x_edges, other.x_edges)
                and np.allclose(self.y_edges, other.y_edges))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bin(v: np.ndarray, guess: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Cell of each v from a guess within one cell of it. The outer edges
    count as -inf and +inf, so the top edge falls in the last cell and
    values outside (or NaN) get some cell, which the caller masks."""
    n = len(edges) - 1
    inner = np.concatenate(([-np.inf], edges[1:-1], [np.inf]))
    i = np.fmin(np.fmax(guess, 0.0), n - 1).astype(np.int64)  # NaN -> 0
    i -= v < inner[i]
    i += v >= inner[i + 1]
    return i


@dataclass
class EmpiricalMeasure:
    """Normalized mass-per-cell measure on a HistGrid."""

    grid: HistGrid
    masses: np.ndarray

    MIN_TOTAL = 1e-12

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != self.grid.shape:
            raise DomainError(f"mass array shape {self.masses.shape} != grid shape {self.grid.shape}")
        if np.any(self.masses < 0.0) or not np.all(np.isfinite(self.masses)):
            raise DomainError("cell masses must be finite and >= 0")
        total = float(self.masses.sum())
        if total < self.MIN_TOTAL:
            raise DomainError(f"total mass {total:g} below normalizable threshold")
        self.masses = self.masses / total

    def marginal_y(self) -> np.ndarray:
        return self.masses.reshape(-1, self.grid.ny).sum(axis=0)

    def marginal_x1(self) -> np.ndarray:
        m = self.masses.reshape(self.grid.nx, -1)
        return m.sum(axis=1)

    def mean_x1(self) -> float:
        return float(np.dot(self.marginal_x1(), self.grid.x_centers))

    def sample(self, gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw points: cells by mass, uniform placement within each cell."""
        flat = self.masses.ravel()
        cells = gen.choice(len(flat), size=size, p=flat)
        unraveled = np.unravel_index(cells, self.grid.shape)
        xe, ye = self.grid.x_edges, self.grid.y_edges
        x = np.empty((size, self.grid.dim))
        for k in range(self.grid.dim):
            i = unraveled[k]
            x[:, k] = xe[i] + (xe[i + 1] - xe[i]) * gen.random(size)
        j = unraveled[-1]
        y = ye[j] + (ye[j + 1] - ye[j]) * gen.random(size)
        return x, y

    def coarsen(self, fx: int, fy: int) -> "EmpiricalMeasure":
        """Aggregate cells in blocks of fx (per x-axis) by fy (y-axis)."""
        if self.grid.nx % fx or self.grid.ny % fy:
            raise DomainError("coarsening factors must divide the grid shape")
        m = self.masses
        for axis in range(self.grid.dim):
            m = m.reshape(m.shape[:axis] + (self.grid.nx // fx, fx) + m.shape[axis + 1:]).sum(axis=axis + 1)
        m = m.reshape(m.shape[:-1] + (self.grid.ny // fy, fy)).sum(axis=-1)
        sub = HistGrid(dim=self.grid.dim, x_lo=self.grid.x_lo, x_hi=self.grid.x_hi,
                       nx=self.grid.nx // fx, y_lo=self.grid.y_lo, y_hi=self.grid.y_hi,
                       ny=self.grid.ny // fy)
        return EmpiricalMeasure(grid=sub, masses=m)

    def to_rows(self):
        """Iterate (x_center..., y_center, mass) over cells, C order."""
        centers = [self.grid.x_centers] * self.grid.dim + [self.grid.y_centers]
        flat = self.masses.ravel()
        for flat_idx, mass in enumerate(flat):
            multi = np.unravel_index(flat_idx, self.grid.shape)
            yield tuple(float(c[i]) for c, i in zip(centers, multi)) + (float(mass),)


def tv_distance(a, b) -> float:
    """Total variation distance between two measures on the same grid.

    Accepts EmpiricalMeasure or plain arrays (normalized first); half the L1
    difference of cell masses.
    """
    if isinstance(a, EmpiricalMeasure) and isinstance(b, EmpiricalMeasure):
        if not a.grid.same_edges(b.grid):
            raise DomainError("measures live on different grids")
        pa, pb = a.masses.ravel(), b.masses.ravel()
    else:
        pa = np.asarray(a, dtype=float).ravel()
        pb = np.asarray(b, dtype=float).ravel()
        if pa.shape != pb.shape:
            raise DomainError("mass arrays have different shapes")
        if pa.sum() < EmpiricalMeasure.MIN_TOTAL or pb.sum() < EmpiricalMeasure.MIN_TOTAL:
            raise DomainError("cannot normalize an (almost) zero measure")
        pa = pa / pa.sum()
        pb = pb / pb.sum()
    return 0.5 * float(np.abs(pa - pb).sum())


def tv_noise_floor(reference, n_samples: float) -> float:
    """Expected TV between the reference and an n-sample multinomial draw.

    First-order half-normal approximation per cell:
    E TV ~ (1/2) sum_b sqrt(2 p_b (1 - p_b) / (pi n)).
    """
    p = reference.masses.ravel() if isinstance(reference, EmpiricalMeasure) else np.asarray(reference, float).ravel()
    p = p / p.sum()
    if n_samples <= 0:
        raise DomainError("n_samples must be positive")
    return 0.5 * float(np.sum(np.sqrt(2.0 * p * (1.0 - p) / (np.pi * n_samples))))
