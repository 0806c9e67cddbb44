"""Quasi-stationary estimators built on the vectorized cohort engine.

The stack, bottom to top:

- fleming_viot: interacting ensemble run through a burn-in (fixed, or
  until chunk-to-chunk occupation TV plateaus), then a window whose
  time-averaged occupation estimates the quasi-stationary law alpha and
  whose kill flux estimates the decay rate lambda0;
- estimate_lambda0_survival: independent lambda0 estimate from the survival
  curve of a plain (non-interacting) cohort started from alpha;
- estimate_eta: survival capacity eta on a coarse node grid, the Perron
  vector of per-node cohort endpoints, normalized to <alpha, eta> = 1;
- beta_from: the conditioned-process law beta = eta * alpha;
- conditioned_marginal: ensemble of never-absorbed walkers evolved by
  rejection against eta (the h-transform of the time-discretized kernel);
- convergence_curve, balance_residual, truncation_family: diagnostics for
  the relaxation rate, the speed/flux balance identity, and the truncation
  family consistency.

estimate_eta and balance_residual compute in d = 1 only and raise
UnsupportedModelError otherwise (beta_from and conditioned_marginal take
their eta); fleming_viot, the survival regression, convergence_curve and
truncation_family run in any dimension.

estimate_eta (node batches), convergence_curve (replicates) and
truncation_family (boxes) deal their independently keyed units round-robin
to one process per usable CPU (shard.sharded). Each unit draws only from
its own keys, so the results are bit-identical to a serial run on any CPU
count. fleming_viot, balance_residual and the survival regression are each
one coupled ensemble or one key and stay in the calling process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .cohort import Engine, SimConfig, WindowEvents
from .errors import DomainError, MassExtinctionError, NumericError, UnsupportedModelError
from .measure import EmpiricalMeasure, HistGrid, tv_distance
from .model import ModelParams, fixation_integral, reference_set, y_equilibrium
from .oracle import leading_vector
from .rng import StreamKey, rewind, stream
from .shard import sharded

__all__ = [
    "QsdEstimate", "SurvivalEstimate", "EtaEstimate",
    "CohortResult", "fleming_viot", "run_cohort", "estimate_lambda0_survival",
    "estimate_eta", "beta_from", "convergence_curve", "balance_residual",
    "truncation_family", "conditioned_marginal", "tv_distance",
    "default_hist_grid", "relaxed_start",
]


def default_hist_grid(config: SimConfig, nx: int = 80, ny: int = 60,
                      dim: int = 1) -> HistGrid:
    """Histogram grid covering the truncation box (shared with the oracle)."""
    if config.truncation is None:
        raise DomainError("untruncated runs need an explicit histogram grid")
    return HistGrid.for_box(config.truncation, y_lo=config.y_floor, nx=nx, ny=ny, dim=dim)


def _init_states(init, size: int, gen: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Resolve an initial-condition spec into (x (n, d), y (n,)) arrays.

    Accepts a law with sample(gen, size), such as an EmpiricalMeasure or
    model.reference_set(params), or an (x, y) point, which needs no gen; a
    run without a gen (gen None) starts from a point, so a law raises
    DomainError.
    """
    if hasattr(init, "sample"):
        if gen is None:
            raise DomainError("this run starts from an (x, y) point, not a law")
        return init.sample(gen, size)
    x0, y0 = init
    return (np.tile(np.atleast_1d(np.asarray(x0, dtype=float)), (size, 1)),
            np.full(size, float(y0)))


# ---------------------------------------------------------------------------
# Fleming-Viot

# burn_in="auto": occupation chunk length, plateau TV and burn-in time cap
_FV_CHUNK = 2.0
_PLATEAU_TOL = 0.05
_BURN_IN_CAP = 100.0


class _Stepper:
    """The one driver of Engine.window: row groups stepped in lockstep.

    Group g owns rows [groups[g], groups[g + 1]) (one group of all rows by
    default) and draws its window k from keys[g].child("w", k), so grouping
    is bit-identical to stepping each group alone (see Engine.window); a
    group with no live row at a window's start gets no stream. Each group,
    and the donor draws, keep one generator, rewound to each new stream
    (rng.rewind), which draws exactly what a fresh stream would. t and k count
    the time and windows stepped; bound_exceeded sums the thinning-bound
    violations. exit_time and exit_code are each row's exit record (inf and
    -1 until killed), written from every window's kills before any
    resampling. With a `resample` name, killed particles are replaced at the
    window end by the end-of-window state of a uniformly chosen survivor of
    their own group (Fleming-Viot); group g's donors of window k come from
    keys[g].child(resample, k) in kill-time order, and kills logs the
    (kill times, killed, donors) of each window with kills, after an empty
    entry; a slot's exit record is then its latest kill, which nothing reads.
    Mutates x and y in place. Its callers step on one of two window
    schedules, advance or to_horizon.

    The start check of every run: DomainError, naming how many and the
    first, unless every row has y_floor < y < y_top and |x| below the box
    half-width (x_guard when untruncated).
    """

    def __init__(self, params: ModelParams, config: SimConfig, x: np.ndarray,
                 y: np.ndarray, keys: list[StreamKey], groups=None, resample: str | None = None):
        lo, hi, edge = config.y_floor, config.y_top or math.inf, config.truncation or config.x_guard
        out = ~((y > lo) & (y < hi) & (np.linalg.norm(x, axis=1) < edge))
        if out.any():
            i = int(out.argmax())
            raise DomainError(f"{out.sum()} of {len(y)} start states lie outside {lo:g} < y < "
                              f"{hi:g}, |x| < {edge:g}; the first, row {i}: "
                              f"x {x[i].tolist()}, y {float(y[i])!r}")
        self.engine = Engine(params, config)
        self.x, self.y = x, y
        self.alive = np.ones(len(y), dtype=bool)
        self.exit_time = np.full(len(y), np.inf)
        self.exit_code = np.full(len(y), -1, dtype=np.int8)
        self.keys = list(keys)
        self.groups = (0, len(y)) if groups is None else tuple(int(b) for b in groups)
        if len(self.groups) != len(self.keys) + 1:
            raise DomainError("groups must be G + 1 row offsets for G keys")
        self.resample = resample
        # one generator per group and one for the donors, rewound to each
        # window's streams (None until a first stream is opened)
        self._gens = [None] * len(self.keys)
        self._donor_gen = None
        self.t = 0.0
        self.k = 0
        self.bound_exceeded = 0
        self.kills = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]

    def step(self, dt: float | None = None, t0: float | None = None) -> WindowEvents:
        """One window of length dt (default dt_max) from t0 (default: where
        the last one ended); returns its events."""
        x, y, alive, groups = self.x, self.y, self.alive, self.groups
        dt = self.engine.config.dt_max if dt is None else dt
        t0 = self.t if t0 is None else t0
        gens = [None] * len(self.keys)
        for g, key in enumerate(self.keys):
            if np.count_nonzero(alive[groups[g]:groups[g + 1]]):
                gens[g] = self._gens[g] = rewind(self._gens[g], key.child("w", self.k))
        ev = self.engine.window(x, y, alive, t0, dt, gens, groups)
        self.bound_exceeded += ev.bound_exceeded
        kill_ids = ev.kill_ids
        self.exit_time[kill_ids], self.exit_code[kill_ids] = ev.kill_times, ev.kill_codes
        if self.resample and len(kill_ids):
            donors = np.empty(len(kill_ids), dtype=np.int64)
            for g, key in enumerate(self.keys):
                lo, hi = groups[g], groups[g + 1]
                mine = ((kill_ids >= lo) & (kill_ids < hi)).nonzero()[0]
                if not len(mine):
                    continue
                surv = lo + alive[lo:hi].nonzero()[0]
                if len(surv) == 0:
                    raise MassExtinctionError(f"all particles of group {g} died in one window",
                                              time=t0, group=g)
                gen = self._donor_gen = rewind(self._donor_gen, key.child(self.resample, self.k))
                donors[mine] = surv[gen.integers(0, len(surv), len(mine))]
            x[kill_ids] = x[donors]
            y[kill_ids] = y[donors]
            alive[kill_ids] = True
            self.kills.append((ev.kill_times, kill_ids, donors))
        self.t = t0 + dt
        self.k += 1
        return ev

    def advance(self, t_end: float, grid: HistGrid | None = None) -> np.ndarray | None:
        """Step dt_max windows until t >= t_end - 1e-12 (none if it already
        is); with a grid, return each group's occupation over them (G, n_cells),
        added in row order, so a group sums exactly as it would alone."""
        dt = self.engine.config.dt_max
        if grid is not None:
            n_groups, n_cells = len(self.keys), grid.n_cells
            occ = np.zeros(n_groups * n_cells)
            cell0 = np.repeat(np.arange(n_groups) * n_cells, np.diff(self.groups))
        while self.t < t_end - 1e-12:
            self.step()
            if grid is not None:
                idx = grid.cell_index(self.x, self.y)
                inside = idx >= 0
                np.add.at(occ, cell0[inside] + idx[inside], dt)
        return None if grid is None else occ.reshape(n_groups, n_cells)

    def to_horizon(self, horizon: float):
        """Yield (length, events) of ceil(horizon / dt_max - 1e-9) windows
        from t = 0, each dt_max long but the last, which ends at horizon;
        stop early after a window that leaves no row alive."""
        dt = self.engine.config.dt_max
        for _ in range(int(math.ceil(horizon / dt - 1e-9))):
            length = min(dt, horizon - self.t)
            yield length, self.step(length)
            if not np.count_nonzero(self.alive):
                return


@dataclass
class QsdEstimate:
    """Output of a Fleming-Viot run."""

    alpha: EmpiricalMeasure
    lambda0: float
    lambda0_stderr: float
    kills_in_window: int
    n_particles: int
    burn_in_time: float
    window: tuple[float, float]
    kill_log: dict
    diagnostics: dict = field(default_factory=dict)


def fleming_viot(params: ModelParams, config: SimConfig, key: StreamKey,
                 n_particles: int = 2000, window: float = 50.0,
                 burn_in: float | str = "auto",
                 hist_grid: HistGrid | None = None) -> QsdEstimate:
    """Fleming-Viot estimate of (alpha, lambda0) on the truncated domain.

    The particles start uniform on the reference set (model.reference_set).
    Killed particles are replaced at window ends by the end-of-window state
    of a uniformly chosen survivor (see _Stepper; donors come from the
    "resample" streams). A burn-in runs first, then a window whose
    occupation over `window` time units estimates alpha and whose kills
    estimate lambda0; the kill log covers both. A numeric burn_in, finite
    and >= 0, steps that long. burn_in="auto" tracks the TV between
    consecutive _FV_CHUNK occupations (diagnostics["tv_series"], which ends
    at the burn-in and is empty for a numeric one) and declares the
    transient over when that series stops improving: two chunks in a row
    with either TV below _PLATEAU_TOL or less than a 10% drop while already
    in the low-TV regime, or at _BURN_IN_CAP (diagnostics["burn_in_capped"]).
    """
    if n_particles < 2:
        raise DomainError("need at least 2 particles")
    if not window > 0.0:
        raise DomainError(f"fleming_viot needs window > 0, got {window}")
    if burn_in != "auto" and not 0.0 <= float(burn_in) < math.inf:
        raise DomainError(f"fleming_viot needs a finite burn_in >= 0 or 'auto', got {burn_in}")
    grid = hist_grid if hist_grid is not None else default_hist_grid(config, dim=params.dim)
    x, y = _init_states(reference_set(params), n_particles, stream(key.child("init")))
    fv = _Stepper(params, config, x, y, [key], resample="resample")

    tv_series: list[tuple[float, float]] = []
    if burn_in == "auto":
        prev, plateau_hits = None, 0
        # the rule decides at chunk ends only, from the second chunk on
        while len(tv_series) < 2 or (plateau_hits < 2 and tv_series[-1][0] < _BURN_IN_CAP):
            chunk = fv.advance((len(tv_series) + 1) * _FV_CHUNK, grid)[0]
            cur = chunk / max(chunk.sum(), 1e-300)
            tv = 1.0 if prev is None else 0.5 * float(np.abs(cur - prev).sum())
            # stall test: no 10% improvement while already low (the first TV, 1.0, never is)
            stalled = tv < 0.35 and tv > 0.9 * tv_series[-1][1]
            plateau_hits = plateau_hits + 1 if (tv < _PLATEAU_TOL or stalled) else 0
            tv_series.append((fv.t, tv))
            prev = cur
        burn_time = fv.t
    else:
        fv.advance(float(burn_in))
        burn_time = float(burn_in)

    window_t0, burn_kills = fv.t, len(fv.kills)
    occ = fv.advance(window_t0 + window, grid)[0]
    kills_window = sum(len(donors) for *_, donors in fv.kills[burn_kills:])

    duration = fv.t - window_t0
    times, killed, donors = (np.concatenate(part) for part in zip(*fv.kills))
    diag = {
        "tv_series": tv_series,
        "bound_exceeded": fv.bound_exceeded,
        "plateau_tol": _PLATEAU_TOL,
        "burn_in_capped": burn_in == "auto" and burn_time >= _BURN_IN_CAP,
    }
    return QsdEstimate(alpha=EmpiricalMeasure(grid=grid, masses=occ.reshape(grid.shape)),
                       lambda0=kills_window / (n_particles * duration),
                       lambda0_stderr=math.sqrt(max(kills_window, 1)) / (n_particles * duration),
                       kills_in_window=kills_window, n_particles=n_particles,
                       burn_in_time=float(burn_time), window=(float(window_t0), float(fv.t)),
                       kill_log={"times": times, "killed": killed, "donors": donors},
                       diagnostics=diag)


# ---------------------------------------------------------------------------
# plain cohorts


@dataclass
class CohortResult:
    """Death times and optional snapshots / jump logs of a plain cohort.

    death_times is the driver's exit record (inf for a survivor), and
    total_time_alive the rows' summed time alive, min(death time, horizon).
    slices maps a snapshot time to (live_idx, x_live, y_live): the particle
    indices still alive at that time and their states. end_x/end_y hold the
    kill point of every particle that died. With collect_jumps, the jump log
    holds jump_ids (the particle of each jump) and the kernel's jump arrays.
    bound_exceeded counts the thinning-bound violations over all windows.
    """

    death_times: np.ndarray
    end_x: np.ndarray
    end_y: np.ndarray
    slices: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=dict)
    jump_ids: np.ndarray | None = None
    jump_times: np.ndarray | None = None
    jump_w: np.ndarray | None = None
    jump_x_before: np.ndarray | None = None
    total_time_alive: float = 0.0
    bound_exceeded: int = 0

    def survival(self, t: float) -> float:
        return float(np.mean(self.death_times > t))


# the kernel's jump log (cohort.WindowEvents), as Trajectory and CohortResult hold it
_JUMP_LOG = ("jump_times", "jump_w", "jump_x_before")


def _jump_log(picks, dim: int, names=_JUMP_LOG) -> dict:
    """The arrays `names` of each (WindowEvents, rows) pick's rows, concatenated."""
    picks = [*picks, (WindowEvents.empty(dim), ...)]
    return {name: np.concatenate([getattr(ev, name)[rows] for ev, rows in picks])
            for name in names}


def run_cohort(x0: np.ndarray, y0: np.ndarray, params: ModelParams, config: SimConfig,
               horizon: float, key, record_slices=(), collect_jumps: bool = False,
               groups=None) -> CohortResult:
    """Advance a non-interacting cohort to the horizon, recording death times.

    record_slices: times at which the alive states are snapshotted (snapped
    to the next window end).

    key is one StreamKey, or a sequence of G keys with `groups`, G + 1
    ascending row offsets from 0 to n: group g owns rows [groups[g],
    groups[g + 1]) and draws its window k from keys[g].child("w", k), as a
    run_cohort on those rows alone would (see _Stepper). Every field of the
    result indexes all n rows, so each group's deaths, slices and jumps are
    exactly those of its own run.
    """
    if not horizon > 0.0:
        raise DomainError(f"run_cohort needs a positive horizon, got {horizon}")
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    y = np.asarray(y0, dtype=float).copy()
    st = _Stepper(params, config, x, y, [key] if groups is None else key, groups)
    alive = st.alive
    slices = sorted(float(s) for s in record_slices)
    out_slices: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    jumps = []
    si = 0
    for _, ev in st.to_horizon(horizon):
        if collect_jumps and len(ev.jump_ids):
            jumps.append((ev, ...))
        # once every row is dead, the later slices are empty too
        reached = st.t + 1e-12 if alive.any() else math.inf
        while si < len(slices) and reached >= slices[si]:
            live = alive.nonzero()[0]
            out_slices[slices[si]] = (live, x[live].copy(), y[live].copy())
            si += 1
    logs = _jump_log(jumps, params.dim, ("jump_ids", *_JUMP_LOG)) if collect_jumps else {}
    return CohortResult(death_times=st.exit_time, end_x=x, end_y=y,
                        slices=out_slices, bound_exceeded=st.bound_exceeded, **logs,
                        total_time_alive=float(np.minimum(st.exit_time, horizon).sum()))


# ---------------------------------------------------------------------------
# lambda0 from the survival curve

# bootstrap resamples of the death times behind the slope's standard error
_N_BOOTSTRAP = 200
# first time of the geometric fit grid, which ends at the horizon
_FIT_T0 = 0.25


@dataclass
class SurvivalEstimate:
    lambda0: float
    stderr: float
    ci95: tuple[float, float]
    r_squared: float
    t_grid: np.ndarray
    survivors: np.ndarray
    n_paths: int
    fit_mask: np.ndarray
    flags: list[str] = field(default_factory=list)


def _survival_sizes(n_paths: int, horizon: float) -> None:
    """DomainError for a survival curve with no path or no fit time."""
    if not (n_paths >= 1 and horizon > _FIT_T0):
        raise DomainError(f"the survival curve needs n_paths >= 1 and a horizon above {_FIT_T0}")


def estimate_lambda0_survival(init, params: ModelParams, config: SimConfig, key: StreamKey,
                              n_paths: int = 5000, horizon: float = 8.0) -> SurvivalEstimate:
    """lambda0 from weighted log-linear regression of the survival curve.

    init, a law with sample(gen, size) or an (x, y) point (see _init_states),
    should be (close to) the quasi-stationary law; started there the survival
    probability is exponential from t = 0, which is what makes the whole
    curve usable for the fit.
    """
    _survival_sizes(n_paths, horizon)
    if n_paths < 1000:
        flags = ["n_paths below the recommended 1000"]
    else:
        flags = []
    gen = stream(key.child("init"))
    x0, y0 = _init_states(init, n_paths, gen)
    res = run_cohort(x0, y0, params, config, horizon, key.child("cohort"))
    death = res.death_times
    t_grid = np.geomspace(_FIT_T0, horizon, 24)

    def fit(death_times):
        surv = np.array([np.count_nonzero(death_times > tt) for tt in t_grid], dtype=float)
        s = surv / len(death_times)
        mask = surv >= 10  # fewer survivors make the log-survival too noisy
        if mask.sum() < 4:
            raise NumericError("too few usable survival points",
                               diagnostics={"usable": int(mask.sum())})
        ts, ss = t_grid[mask], s[mask]
        var = np.maximum((1.0 - ss) + 1.0 / len(death_times), 1e-12) / (len(death_times) * ss)
        wts = 1.0 / var
        coef = np.polyfit(ts, np.log(ss), 1, w=np.sqrt(wts))
        return coef, mask, s, surv

    coef, mask, s, surv = fit(death)
    lam = -float(coef[0])
    pred = np.polyval(coef, t_grid[mask])
    resid = np.log(s[mask]) - pred
    ss_tot = float(np.sum((np.log(s[mask]) - np.log(s[mask]).mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / max(ss_tot, 1e-300)

    boot_gen = stream(key.child("bootstrap"))
    slopes = []
    for _ in range(_N_BOOTSTRAP):
        sample = death[boot_gen.integers(0, n_paths, n_paths)]
        try:
            c, *_ = fit(sample)
            slopes.append(-float(c[0]))
        except NumericError:
            continue
    se = float(np.std(slopes)) if len(slopes) > 10 else float("nan")
    return SurvivalEstimate(lambda0=lam, stderr=se,
                            ci95=(lam - 1.96 * se, lam + 1.96 * se),
                            r_squared=r2, t_grid=t_grid, survivors=surv,
                            n_paths=n_paths, fit_mask=mask, flags=flags)


# ---------------------------------------------------------------------------
# survival capacity eta


def _bilinear_weights(x_nodes: np.ndarray, y_nodes: np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat node indices i * len(y_nodes) + j (n, 4) and weights (n, 4) of the
    bilinear interpolant in (x, log y), clamped at the node hull."""
    x1 = np.atleast_2d(np.asarray(x, dtype=float))[:, 0]
    ly = np.log(np.maximum(np.asarray(y, dtype=float), 1e-300))
    lyn = np.log(y_nodes)
    i = np.clip(np.searchsorted(x_nodes, x1) - 1, 0, len(x_nodes) - 2)
    j = np.clip(np.searchsorted(lyn, ly) - 1, 0, len(lyn) - 2)
    wx = np.clip((x1 - x_nodes[i]) / (x_nodes[i + 1] - x_nodes[i]), 0.0, 1.0)
    wy = np.clip((ly - lyn[j]) / (lyn[j + 1] - lyn[j]), 0.0, 1.0)
    k = i * len(y_nodes) + j
    return (np.stack([k, k + len(y_nodes), k + 1, k + len(y_nodes) + 1], axis=1),
            np.stack([(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy], axis=1))


def _interpolate(idx: np.ndarray, w: np.ndarray, values: np.ndarray) -> np.ndarray:
    t = w * values.ravel()[idx]
    return t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]


def _bilinear(x_nodes: np.ndarray, y_nodes: np.ndarray, values: np.ndarray,
              x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation in (x, log y), clamped at the node hull."""
    return _interpolate(*_bilinear_weights(x_nodes, y_nodes, x, y), values)


def _resolved(values: np.ndarray, survivors: np.ndarray) -> np.ndarray:
    """For each node with a survivor, whether its value exceeds 1e-9 of the max."""
    return values[survivors > 0] > 1e-9 * values.max()


@dataclass
class EtaEstimate:
    """Survival capacity on a coarse node grid, callable via bilinear
    interpolation in (x, log y).

    values / values_t2 hold the Perron-vector estimate and its independent-leg
    second-horizon counterpart.
    """

    x_nodes: np.ndarray
    y_nodes: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    survivors_t1: np.ndarray
    survivors_t2: np.ndarray
    values_t2: np.ndarray
    stderr_t2: np.ndarray
    iterations_used: int = 0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _bilinear(self.x_nodes, self.y_nodes, self.values, x, y)

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def resolved_share(self) -> float:
        """Share of the sampled nodes (at least one t_eval survivor) whose
        value exceeds 1e-9 of the max. Near 1 when W1 is well sampled; low
        when too few replicates leave W1 reducible and its Perron vector sits
        on a few nodes, with the other sampled nodes at round-off."""
        resolved = _resolved(self.values, self.survivors_t1)
        return float(resolved.mean()) if len(resolved) else 0.0

    def consistency_z(self) -> np.ndarray:
        """Two-horizon z-scores |eta_t1 - eta_t2| / combined SE per node."""
        se = np.sqrt(self.stderr**2 + self.stderr_t2**2)
        return np.abs(self.values - self.values_t2) / np.maximum(se, 1e-300)


def eta_node_grid(grid: HistGrid, nx: int = 30, ny: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Node locations: cell centers of an (nx, ny) coarsening of the box."""
    sub = HistGrid(dim=grid.dim, x_lo=grid.x_lo, x_hi=grid.x_hi, nx=nx,
                   y_lo=grid.y_lo, y_hi=grid.y_hi, ny=ny)
    return sub.x_centers, sub.y_centers


def _eta_sizes(replicates: int, t_eval: float, dt_max: float) -> None:
    """DomainError for an eta run with no replicate, or a t_eval that is not a
    whole number of dt_max windows."""
    if replicates < 1:
        raise DomainError("estimate_eta needs replicates >= 1")
    _whole_steps(t_eval, dt_max, "t_eval in dt_max windows")


# nodes per batch, and rows per grouped cohort call
_ETA_BATCH_NODES = 60
_ETA_CALL_ROWS = 60_000


def estimate_eta(alpha: EmpiricalMeasure, lambda0: float, params: ModelParams,
                 config: SimConfig, key: StreamKey, t_eval: float = 2.0,
                 replicates: int = 3000, nodes: tuple[int, int] = (30, 20)) -> EtaEstimate:
    """Survival capacity eta(x, y) = lim e^{lambda0 t} P_{x,y}(alive at t).

    Per node, `replicates` paths run to 2 t_eval, both horizons a whole number of
    dt_max windows, recording survival and the survivor endpoints at both. Nodes run
    in batches of _ETA_BATCH_NODES; batch b0 (its first node) draws window k from
    key.child("batch", b0).child("w", k). The batches are dealt round-robin to one
    process per CPU (shard.sharded); within a process, as many whole batches as fit
    in _ETA_CALL_ROWS rows (at least one) step as the groups of one run_cohort, which
    draws exactly what separate runs would, and the survivor endpoints are gathered
    in ascending batch order, so the result does not depend on the CPU count. eta is
    the fixed point of eta(node) ~ mean(alive * eta(endpoint at t_eval)), eta read
    between nodes by the bilinear interpolant: the Perron vector of the node-to-node
    matrix W1 from oracle.leading_vector (Arnoldi), whose last W1 product keeps a
    node without survivors at exactly 0; iterations_used counts the W1 applications.
    <alpha, eta> = 1 fixes its scale whatever lambda0 is, which only scales the
    t_eval SEs by e^{lambda0 t_eval}. The t2 fields apply the final interpolant
    through the 2 t_eval endpoints as a second-horizon consistency leg. Implemented
    for d = 1.
    """
    if params.dim != 1:
        raise UnsupportedModelError("estimate_eta is implemented for d = 1 only")
    _eta_sizes(replicates, t_eval, config.dt_max)
    xn, yn = eta_node_grid(alpha.grid, *nodes)
    gx, gy = len(xn), len(yn)
    n_nodes = gx * gy
    R = replicates
    t2 = 2.0 * t_eval
    call_batches = max(1, _ETA_CALL_ROWS // (_ETA_BATCH_NODES * R))

    def run_batches(batches):
        # per batch: (owner node, x, y) of its survivors at t_eval and at t2
        out = []
        for c in range(0, len(batches), call_batches):
            call = batches[c:c + call_batches]
            nodes = np.concatenate([np.arange(b0, min(b0 + _ETA_BATCH_NODES, n_nodes))
                                    for b0 in call])
            bounds = R * np.searchsorted(nodes, call + [n_nodes])
            i, j = np.divmod(np.repeat(nodes, R), gy)
            x0 = np.zeros((len(i), params.dim))
            x0[:, 0] = xn[i]
            res = run_cohort(x0, yn[j], params, config, t2,
                             [key.child("batch", b0) for b0 in call],
                             record_slices=(t_eval, t2), groups=bounds)
            per_t = []
            for snap_t in (t_eval, t2):
                live, lx, ly = res.slices[snap_t]
                cut = np.searchsorted(live, bounds)
                per_t.append([(nodes[live[a:b] // R], lx[a:b], ly[a:b])
                              for a, b in zip(cut, cut[1:])])
            out += zip(*per_t)
        return out

    def endpoints(chunks):
        owner, lx, ly = (np.concatenate(part) for part in zip(*chunks))
        return (owner, *_bilinear_weights(xn, yn, lx, ly))

    per_batch = sharded(run_batches, list(range(0, n_nodes, _ETA_BATCH_NODES)))
    (own1, idx1, w1), (own2, idx2, w2) = (endpoints(ends) for ends in zip(*per_batch))
    sv1, sv2 = np.bincount(own1, minlength=n_nodes), np.bincount(own2, minlength=n_nodes)

    alpha_w = alpha.masses.ravel()
    cell_x, cell_y = alpha.grid.cell_centers()

    # node-to-node weights: row n sums the interpolation weights of node n's endpoints
    W1 = sp.csr_matrix((w1.ravel(), (np.repeat(own1, 4), idx1.ravel())),
                       shape=(n_nodes, n_nodes))
    w1_perron, applied = leading_vector(lambda v: W1 @ v, n_nodes, "eta")

    def normalized(v_flat):
        # numpy's sum, not BLAS ddot's, which changes with the BLAS thread count
        inner = float((alpha_w * _bilinear(xn, yn, v_flat.reshape(gx, gy), cell_x, cell_y)).sum())
        if inner <= 0.0:
            # a reducible W1 puts its Perron vector on a few nodes, which alpha can miss
            raise NumericError("alpha-eta inner product not positive: the node matrix is too "
                               f"sparsely sampled ({R} replicates per node)", diagnostics={
                                   "sampled_nodes": int(np.count_nonzero(sv1)), "replicates": R,
                                   "resolved_nodes": int(_resolved(w1_perron, sv1).sum())})
        return v_flat / inner, inner

    vals, _ = normalized(w1_perron)

    def mean_sd(owner, idx, w):
        # per-node mean of eta at the endpoints, and its SE (interpolant held fixed)
        ev = _interpolate(idx, w, vals)
        m, m2 = (np.bincount(owner, v, n_nodes) / R for v in (ev, ev**2))
        return m, np.sqrt(np.maximum(m2 - m * m, (0.5 / R) ** 2) / R)

    se = math.exp(lambda0 * t_eval) * mean_sd(own1, idx1, w1)[1]
    mean_t2, sd_t2 = mean_sd(own2, idx2, w2)
    vals_t2, norm2 = normalized(mean_t2)

    return EtaEstimate(x_nodes=xn, y_nodes=yn,
                       values=vals.reshape(gx, gy), stderr=se.reshape(gx, gy),
                       survivors_t1=sv1.reshape(gx, gy), survivors_t2=sv2.reshape(gx, gy),
                       values_t2=vals_t2.reshape(gx, gy), stderr_t2=(sd_t2 / norm2).reshape(gx, gy),
                       iterations_used=applied)


def beta_from(alpha: EmpiricalMeasure, eta: EtaEstimate) -> EmpiricalMeasure:
    """beta = eta * alpha, renormalized on alpha's grid."""
    g = alpha.grid
    weights = eta(*g.cell_centers()).reshape(g.shape)
    masses = alpha.masses * weights
    if masses.sum() <= EmpiricalMeasure.MIN_TOTAL:
        raise DomainError("beta degenerate: alpha and eta have disjoint support")
    return EmpiricalMeasure(grid=g, masses=masses)


# ---------------------------------------------------------------------------
# convergence diagnostics


@dataclass
class ConvergenceCurve:
    t: np.ndarray
    tv_mean: np.ndarray
    tv_se: np.ndarray
    gamma_hat: float
    gamma_se: float
    r_squared: float
    floor: float
    bound_exceeded: int = 0

    def decay_end(self) -> int:
        """Index of the first slice at the plateau (floor + 1 SE), inclusive.

        Past this point the curve is stationary sampling noise around the
        floor, not decay, so monotonicity checks stop here.
        """
        at_floor = self.tv_mean <= self.floor + self.tv_se
        hits = at_floor.nonzero()[0]
        return int(hits[0]) if len(hits) else len(self.tv_mean) - 1

    def monotone_violation_rate(self) -> float:
        """Fraction of adjacent pairs on the decaying segment that rise by
        more than one joint standard error."""
        end = self.decay_end()
        if end < 1:
            return 0.0
        tv = self.tv_mean[:end + 1]
        se = self.tv_se[:end + 1]
        diffs = np.diff(tv)
        tol = np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
        return float(np.mean(diffs > tol))


def convergence_curve(init, reference: EmpiricalMeasure, params: ModelParams,
                      config: SimConfig, key: StreamKey, n_replicates: int = 8,
                      n_particles: int = 500, t_max: float = 12.0,
                      slice_dt: float = 1.0) -> ConvergenceCurve:
    """TV(conditioned law at t, reference alpha) via replicate FV ensembles.

    Each replicate is an independent Fleming-Viot population from `init`
    (replicate r draws from key.child("rep", r)). The replicates are dealt
    round-robin to one process per CPU (shard.sharded), and those of one
    process step in lockstep as the groups of one ensemble, so the result
    does not depend on the CPU count. Each histograms its occupation
    slice by slice (_Stepper.advance, whole dt_max windows, so slice_dt must
    be a whole number of them); the conditioned law at slice midpoints is
    compared to the reference in TV. The decay rate gamma_hat comes from a
    log-linear fit above the plateau floor.
    """
    if n_replicates < 2 or n_particles < 2:
        raise DomainError("convergence_curve needs at least 2 replicates of 2 particles")
    if not config.dt_max <= slice_dt <= t_max:
        raise DomainError(f"convergence_curve needs dt_max ({config.dt_max}) <= slice_dt <= t_max")
    _whole_steps(slice_dt, config.dt_max, "slice_dt in dt_max windows")
    grid = reference.grid
    ts = np.arange(slice_dt, t_max + 1e-9, slice_dt)

    def run_replicates(reps):
        # per replicate: its TV curve, and the shard's bound_exceeded on the first
        curves = np.zeros((len(reps), len(ts)))
        starts = [_init_states(init, n_particles, stream(key.child("rep", rep, "init")))
                  for rep in reps]
        x = np.concatenate([s[0] for s in starts])
        y = np.concatenate([s[1] for s in starts])
        fv = _Stepper(params, config, x, y, [key.child("rep", rep) for rep in reps],
                      groups=np.arange(len(reps) + 1) * n_particles, resample="rs")
        try:
            for si, t_slice in enumerate(ts):
                for r, masses in enumerate(fv.advance(t_slice, grid)):
                    curves[r, si] = tv_distance(masses, reference.masses)
        except MassExtinctionError as err:  # name the replicate, not its place in the shard
            rep = reps[err.group]
            raise MassExtinctionError(f"all particles of group {rep} died in one window",
                                      time=err.time, group=rep) from None
        return [(curve, fv.bound_exceeded if r == 0 else 0) for r, curve in enumerate(curves)]

    per_rep = sharded(run_replicates, list(range(n_replicates)))
    curves = np.array([curve for curve, _ in per_rep])
    bound_exceeded = sum(count for _, count in per_rep)
    tv_mean = curves.mean(axis=0)
    tv_se = curves.std(axis=0, ddof=1) / math.sqrt(n_replicates)
    floor = float(tv_mean[-2:].mean())
    usable = tv_mean > 2.0 * floor
    if usable.sum() >= 3:
        lt = np.log(tv_mean[usable] - floor)
        coef, cov = np.polyfit(ts[usable], lt, 1, cov=True)
        gamma = -float(coef[0])
        gamma_se = float(np.sqrt(cov[0, 0]))
        pred = np.polyval(coef, ts[usable])
        ss_tot = float(np.sum((lt - lt.mean()) ** 2))
        r2 = 1.0 - float(np.sum((lt - pred) ** 2)) / max(ss_tot, 1e-300)
    else:
        gamma, gamma_se, r2 = float("nan"), float("nan"), float("nan")
    return ConvergenceCurve(t=ts, tv_mean=tv_mean, tv_se=tv_se, gamma_hat=gamma,
                            gamma_se=gamma_se, r_squared=r2, floor=floor,
                            bound_exceeded=bound_exceeded)


# ---------------------------------------------------------------------------
# balance identity


@dataclass
class BalanceReport:
    v: float
    rhs: float
    residual: float
    mc_stderr: float
    n_samples: int
    n_blocks: int
    bound_exceeded: int = 0

    @property
    def sigmas(self) -> float:
        return abs(self.residual) / max(self.mc_stderr, 1e-300)


# time blocks whose means give the balance residual's MC error, the
# sampling interval of the time average, and the x1 rounding of the J1 cache
_BALANCE_BLOCKS = 20
_BALANCE_EVERY = 0.5
_J1_DECIMALS = 3


def balance_residual(params: ModelParams, config: SimConfig, key: StreamKey,
                     n_particles: int = 400, burn: float = 30.0,
                     collect: float = 100.0) -> BalanceReport:
    """Residual of the speed/flux identity v = E_alpha[f(y) J1(x)].

    J1(x) = integral of w1 g(x, w) nu(dw). The expectation is a time average,
    sampled every _BALANCE_EVERY time units from burn (at window ends), over
    a stationary ensemble started from relaxed_start; the MC error comes from
    block means over time, which absorbs the autocorrelation, so `collect`
    must span two samples. The run stops at its last sample, so bound_exceeded
    counts the thinning-bound violations up to it. Needs n_particles >= 2 and
    a finite burn >= 0. Implemented for d = 1 (J1 is cached by x1).
    """
    if params.dim != 1:
        raise UnsupportedModelError("balance_residual is implemented for d = 1 only")
    if not collect > _BALANCE_EVERY:
        raise DomainError(f"balance_residual needs collect > {_BALANCE_EVERY} (two samples)")
    if n_particles < 2 or not 0.0 <= burn < math.inf:
        raise DomainError(f"balance_residual needs n_particles >= 2 and a finite burn >= 0, "
                          f"got {n_particles} and {burn}")
    # capped below any ceiling; the raw equilibrium may sit outside a
    # truncated box, where _Stepper would reject the point start
    x, y = _init_states(relaxed_start(params, config), n_particles, None)
    fv = _Stepper(params, config, x, y, [key], resample="rs")
    horizon = burn + collect
    next_sample = burn
    samples: list[float] = []
    j1_cache: dict[float, float] = {}
    while next_sample < horizon:
        fv.advance(next_sample)
        fy = np.asarray(params.f(y))
        j1 = np.array([_j1_cached(float(xi[0]), params, j1_cache) for xi in x])
        samples.append(float(np.mean(fy * j1)))
        next_sample += _BALANCE_EVERY
    samples_arr = np.asarray(samples)
    blocks = np.array_split(samples_arr, _BALANCE_BLOCKS)
    block_means = np.array([b.mean() for b in blocks if len(b)])
    rhs = float(samples_arr.mean())
    se = float(block_means.std(ddof=1) / math.sqrt(len(block_means)))
    return BalanceReport(v=params.v, rhs=rhs, residual=params.v - rhs,
                         mc_stderr=se,
                         n_samples=len(samples_arr) * n_particles,
                         n_blocks=len(block_means), bound_exceeded=fv.bound_exceeded)


def _j1_cached(x1: float, params: ModelParams, cache: dict) -> float:
    keyv = round(x1, _J1_DECIMALS)
    if keyv not in cache:
        cache[keyv] = fixation_integral(np.array([keyv]), params, weight="w1")
    return cache[keyv]


def relaxed_start(params: ModelParams, config: SimConfig) -> tuple[np.ndarray, float]:
    """Point start for a zero-lag population at its stable size.

    Returns (x0, y0) with x0 = 0 and y0 the stable equilibrium of the size
    drift at full growth rate. A truncated domain may place that equilibrium
    at or above the absorbing ceiling, outside the domain a run may start
    in; in that case y0 is capped at 0.9 times the ceiling.
    """
    ystar = y_equilibrium(params.r0, params.gamma)
    if ystar is None:
        raise DomainError("no stable bulk equilibrium for these parameters")
    top = config.y_top
    if top is not None:
        ystar = min(ystar, 0.9 * top)
    return np.zeros(params.dim), ystar


# ---------------------------------------------------------------------------
# truncation family


@dataclass
class TruncationFamily:
    L: np.ndarray
    lambda_hat: np.ndarray
    lambda_se: np.ndarray
    tv_to_largest: np.ndarray


def truncation_family(params: ModelParams, base_config: SimConfig, key: StreamKey,
                      Ls=(2.5, 3.0, 4.0, 5.0), n_particles: int = 2000,
                      window: float = 50.0, burn_in: float | str = "auto",
                      nx: int = 80, ny: int = 60) -> TruncationFamily:
    """Fleming-Viot across a family of truncation boxes on one shared grid.

    All runs are histogrammed on the largest box's grid, so the TV column is
    directly comparable. Every box burns in by `burn_in`, as fleming_viot
    reads it. The y floor follows the base config's convention.
    Box L draws from key.child("L", str(L)); the boxes are dealt round-robin
    to one process per CPU (shard.sharded).
    """
    Ls = sorted(float(v) for v in Ls)
    if not Ls:
        raise DomainError("truncation_family needs at least one box L")
    grid = HistGrid.for_box(Ls[-1], y_lo=base_config.y_floor, nx=nx, ny=ny, dim=params.dim)

    def run_boxes(boxes):
        runs = [fleming_viot(params, replace(base_config, truncation=L), key.child("L", str(L)),
                             n_particles=n_particles, window=window, burn_in=burn_in,
                             hist_grid=grid)
                for L in boxes]
        return [(est.alpha, est.lambda0, est.lambda0_stderr) for est in runs]

    alphas, lams, ses = zip(*sharded(run_boxes, Ls))
    return TruncationFamily(
        L=np.asarray(Ls),
        lambda_hat=np.array(lams),
        lambda_se=np.array(ses),
        tv_to_largest=np.array([tv_distance(a, alphas[-1]) for a in alphas]),
    )


# ---------------------------------------------------------------------------
# conditioned ensemble (vectorized h-transform rejection)

# candidate segments simulated per pending walker and rejection round; the
# attempt budget per walker and macro step; the cap on ceiling / eta(start)
_BATCH_SLOTS = 16
_MAX_ATTEMPTS = 2000
_RATIO_CAP = 50.0


def conditioned_marginal(start: EmpiricalMeasure, eta: EtaEstimate, params: ModelParams,
                         config: SimConfig, key: StreamKey, n_walkers: int = 500,
                         horizon: float = 20.0) -> tuple[np.ndarray, np.ndarray, dict]:
    """Evolve never-absorbed walkers by h-transform rejection; returns the
    terminal states (x, y) and attempt statistics.

    Walkers start from `start` (drawn from key.child("init")) and run
    horizon / config.qprocess_delta macro steps of _h_transform.
    """
    n_steps = _q_steps(horizon, config, n_walkers)
    x, y = _init_states(start, n_walkers, stream(key.child("init")))
    stats = _h_transform(x, y, eta, eta.max_value, params, config, key, n_steps)
    return x, y, stats


def _whole_steps(span: float, step: float, what: str) -> int:
    """span / step, within 1e-9 (relative) of a whole number n >= 1, else DomainError."""
    n = round(span / step) if math.isfinite(span / step) else 0
    if n < 1 or abs(span / step - n) > 1e-9 * n:
        raise DomainError(f"{what}: {span:g} / {step:g} is not a whole number >= 1")
    return n


def _q_steps(horizon: float, config: SimConfig, n_walkers: int = 1) -> int:
    """Macro steps in horizon; DomainError for a run that would step nothing or a part."""
    if n_walkers < 1:
        raise DomainError("a Q-process run needs n_walkers >= 1")
    return _whole_steps(horizon, config.qprocess_delta, "Q-process horizon in macro steps")


def _h_transform(x: np.ndarray, y: np.ndarray, eta, eta_max: float, params: ModelParams,
                 config: SimConfig, key: StreamKey, n_steps: int, on_step=None) -> dict:
    """Advance walkers (x, y) in place by n_steps h-transform macro steps.

    Per macro step of length config.qprocess_delta each pending walker draws
    unconditioned candidate segments; candidates that die are rejected,
    survivors are accepted with probability eta(endpoint)/ceiling. The
    per-attempt acceptance equals eta(start)/ceiling, so the ceiling is the
    state-dependent min(eta_max, _RATIO_CAP * eta(start)): low-eta walkers
    keep a bounded expected attempt count (~_RATIO_CAP) instead of stalling.
    Candidate endpoints above the ceiling are accepted outright and counted
    in stats["ceiling_violations"] (candidate-level count); thinning-bound
    violations over all candidate windows are summed in
    stats["bound_exceeded"]. stats["max_attempt_rounds"] and ["mean_attempt_rounds"]
    are the most and the mean, over macro steps, of the rounds each step took.

    _BATCH_SLOTS candidates per pending walker are simulated per round; the
    accepted one is the first accepting slot in slot order, which reproduces
    sequential-attempt semantics while amortizing the per-call overhead.
    Round r of step s steps its candidates in ceil(delta / dt_max) windows of
    one length dt, as one _Stepper group keyed key.child("s", s, "r", r), from
    the absolute time s * delta + k * dt for window k, and draws its acceptance
    uniforms from key.child("s", s, "r", r, "acc").

    on_step(step, accepted), when given, runs after each macro step;
    accepted lists (events, owner) per candidate window, where owner maps
    each logged jump to the walker that accepted its candidate (-1 for
    rejected candidates).

    DomainError unless eta_max > 0 and eta > 0 at every start; later starts
    are accepted endpoints, where eta > 0.
    """
    if not (eta_max > 0.0 and np.all(np.asarray(eta(x, y)) > 0.0)):
        raise DomainError("a Q-process needs eta_max > 0 and eta > 0 at every walker's start")
    delta = config.qprocess_delta
    n_win = max(math.ceil(delta / config.dt_max - 1e-9), 1)
    dt = delta / n_win
    attempts_hist: list[int] = []
    violations = bound_exceeded = 0
    K = _BATCH_SLOTS
    max_rounds = max(_MAX_ATTEMPTS // K, 1)
    for step in range(n_steps):
        pending = np.arange(len(y))
        ceiling_all = np.minimum(eta_max, _RATIO_CAP * eta(x, y))
        rounds = 0
        accepted = []
        while len(pending) and rounds < max_rounds:
            m = len(pending)
            st = _Stepper(params, config, np.tile(x[pending], (K, 1)), np.tile(y[pending], K),
                          [key.child("s", step, "r", rounds)])
            events = [st.step(dt, step * delta + k * dt) for k in range(n_win)]
            bound_exceeded += st.bound_exceeded
            cx, cy, calive = st.x, st.y, st.alive
            hv = np.zeros(K * m)
            live = calive.nonzero()[0]
            if len(live):
                hv[live] = eta(cx[live], cy[live])
            ceil = np.tile(ceiling_all[pending], K)
            violations += int(np.count_nonzero(calive & (hv > ceil)))
            u = stream(key.child("s", step, "r", rounds, "acc")).random(K * m)
            ok = (calive & (hv > 0.0) & (u * ceil <= hv)).reshape(K, m)
            any_ok = ok.any(axis=0)
            if any_ok.any():
                first_slot = np.argmax(ok, axis=0)
                cols = any_ok.nonzero()[0]
                sel = first_slot[cols] * m + cols
                ids = pending[cols]
                x[ids] = cx[sel]
                y[ids] = cy[sel]
                if on_step is not None:
                    owner = np.full(K * m, -1, dtype=np.int64)
                    owner[sel] = ids
                    accepted += [(ev, owner[ev.jump_ids]) for ev in events]
            pending = pending[~any_ok]
            rounds += 1
        attempts_hist.append(rounds)
        if len(pending):
            raise NumericError("conditioned walkers exhausted the retry budget",
                               diagnostics={"step": step, "stuck": len(pending)})
        if on_step is not None:
            on_step(step, accepted)
    return {"max_attempt_rounds": int(max(attempts_hist, default=0)),
            "mean_attempt_rounds": float(np.mean(attempts_hist)) if attempts_hist else 0.0,
            "ceiling_violations": violations, "bound_exceeded": bound_exceeded}
