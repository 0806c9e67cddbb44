"""The path-stepping kernel: thinned jump-diffusion windows over particle arrays.

Engine.window advances every live particle of an array by one window with
the package's single discretization of the process:

- x is affine between mutations (x(t) = x0 - v t e1), so exits from the
  truncation box and the explosion guard are located exactly;
- y takes Euler-Maruyama substeps dt_sub <= _SUBSTEP_ALPHA * y^2, which
  resolve the singular drift near the extinction boundary, plus a
  Brownian-bridge crossing correction at the kill levels, so absorbed
  functionals converge at first order in dt rather than half order;
- mutation proposals arrive from a per-window Poisson clock at the rate
  ceiling _SLACK * f(y0) * sup_g * nu_mass; each is kept with probability
  [f(y_t)/ceiling_f] * [g(x_t, w)/sup_g], which reproduces the target
  accepted intensity f(y_t) g(x_t, w) nu(dw) exactly whenever the ceiling
  holds (violations are counted in WindowEvents.bound_exceeded, never
  silently absorbed). A particle may accept several jumps inside one window;
  the ceiling stays a valid bound because accepted jumps never raise it
  (stock families: constant in x; rescaled family: jumps shrink ||x||).

A window runs in segments that end at each particle's next proposal,
box-crossing time or the window end. Each segment steps a compacted,
ascending copy of its pending rows in substep rounds; the copy shrinks as
rows finish their segment or die, so late rounds cost only the few rows near
the extinction boundary. An all-alive array (every Fleming-Viot window) is
stepped in place; otherwise the live rows are gathered and scattered back.

A substep evaluates the floor bridge on every stepping row, and the ceiling
bridge only on rows within 20 sqrt(dt) of the ceiling: further down, with
h <= dt, its exponent is below -800, where exp is 0. A bridge kills when a
uniform u < exp(e). u comes from Generator.random, so it is a multiple of
2^-53, and 2^-53 > e^-40: for u > 0 that test equals u < exp(max(e, -40)),
which keeps exp off its slow underflow and denormal range; the rare u == 0
is tested against exp(e) itself. The decisions are those of exp on every
row, bit for bit.

Every estimator (Fleming-Viot, survival cohorts, eta, the conditioned
ensemble) and the single-path front ends in pathsim run on this kernel
through one driver, qsd._Stepper, the only caller of Engine.window; it draws
window k of a run keyed K from K.child("w", k). It owns the window schedules
but the h-transform's macro steps: advance steps dt_max windows up to a time,
binning each row group's occupation if asked; to_horizon steps from t = 0 to
a horizon, the last window cut short, until no row is alive. A Fleming-Viot
stepper logs each window's kill times, killed rows and donors. The draws of
a window come in a fixed order, so runs are bit-reproducible and individual
windows replayable: at window start one Poisson count per live row and an
(m, kmax) block of proposal times; per substep round one normal and
then 2n bridge uniforms (floor half, ceiling half) for the n stepping rows;
per segment round the mutation effects, then u_f, then u_g of the rows at a
proposal; rows ascending throughout.

One call may step G independent row groups, each with its own generator:
group g owns rows [groups[g], groups[g + 1]). Its pending rows are a
contiguous slice of the ascending pending rows, and at every draw site each
group with rows there draws from its own generator exactly what a call on that
group alone would, so grouping is bit-identical to G separate calls. A group
with no rows at a draw site draws nothing; a single generator is the G = 1
case.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .model import ModelParams, drift_y

__all__ = ["ExitReason", "SimConfig", "WindowEvents", "Engine", "REASON_CODES",
           "reason_from_code"]


class ExitReason(enum.Enum):
    SURVIVED_HORIZON = "survived_horizon"
    EXTINCT = "extinct"
    LEFT_TRUNCATION = "left_truncation"
    EXPLOSION_GUARD = "explosion_guard"


@dataclass(frozen=True)
class SimConfig:
    """Numerical controls for path simulation.

    truncation: half-width L of the box B(0, L) x [y_floor, L], or None for
    the untruncated process. truncation_y_low overrides the default lower
    edge 1/L of the truncated domain (the acceptance configs pin it to y_ext
    so simulator and grid oracle absorb on the identical region).
    """

    dt_max: float = 0.01
    y_ext: float = 1e-3
    horizon: float = 50.0
    truncation: float | None = None
    truncation_y_low: float | None = None
    qprocess_delta: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.dt_max < math.inf):
            raise DomainError("dt_max must be positive and finite")
        if not (0.0 <= self.y_ext < math.inf):
            raise DomainError("y_ext must be >= 0 and finite")
        if not (0.0 < self.horizon < math.inf):
            raise DomainError("horizon must be positive and finite")
        if self.truncation is not None and not (0.0 < self.truncation < math.inf):
            raise DomainError("truncation must be positive and finite when set")
        if self.truncation is not None and self.y_ext >= self.truncation:
            raise DomainError("y_ext must sit below the truncation ceiling")
        if not (0.0 < self.qprocess_delta < math.inf):
            raise DomainError("qprocess_delta must be positive and finite")
        low, top = self.truncation_y_low, self.truncation or math.inf
        if low is not None and not (0.0 <= low < top):
            raise DomainError("truncation_y_low must be >= 0, finite and below the truncation")

    @property
    def y_floor(self) -> float:
        if self.truncation is None:
            return self.y_ext
        low = self.truncation_y_low
        if low is None:
            low = 1.0 / self.truncation
        return max(self.y_ext, low)

    @property
    def floor_reason(self) -> ExitReason:
        if self.truncation is not None and self.y_floor > self.y_ext:
            return ExitReason.LEFT_TRUNCATION
        return ExitReason.EXTINCT

    @property
    def y_top(self) -> float | None:
        return self.truncation

    @property
    def x_guard(self) -> float:
        """|x| of the explosion guard: 10 L in a box, 40 without one."""
        return 10.0 * self.truncation if self.truncation is not None else 40.0


REASON_CODES = {
    "extinct": 0,
    "trunc_y_low": 1,
    "trunc_y_top": 2,
    "trunc_x": 3,
    "x_guard": 4,
}

_CODE_TO_REASON = {
    0: ExitReason.EXTINCT,
    1: ExitReason.LEFT_TRUNCATION,
    2: ExitReason.LEFT_TRUNCATION,
    3: ExitReason.LEFT_TRUNCATION,
    4: ExitReason.EXPLOSION_GUARD,
}

_MAX_ITER = 10_000

# substep cap dt_sub <= _SUBSTEP_ALPHA * y^2, and the factor by which the
# per-window proposal ceiling exceeds f(y0) at window start
_SUBSTEP_ALPHA = 0.5
_SLACK = 1.5


def reason_from_code(code: int) -> ExitReason:
    return _CODE_TO_REASON[int(code)]


@dataclass
class WindowEvents:
    """Event log of one cohort window; timestamps are absolute.

    Kills are in kill-time order; jumps carry the particle's position just
    before and just after the jump.
    """

    kill_ids: np.ndarray
    kill_times: np.ndarray
    kill_codes: np.ndarray
    jump_ids: np.ndarray
    jump_times: np.ndarray
    jump_w: np.ndarray
    jump_x_before: np.ndarray
    jump_x_after: np.ndarray
    n_proposals: int
    bound_exceeded: int

    @classmethod
    def empty(cls, dim: int) -> "WindowEvents":
        return cls(kill_ids=np.empty(0, dtype=np.int64), kill_times=np.empty(0),
                   kill_codes=np.empty(0, dtype=np.int8),
                   jump_ids=np.empty(0, dtype=np.int64), jump_times=np.empty(0),
                   jump_w=np.empty((0, dim)), jump_x_before=np.empty((0, dim)),
                   jump_x_after=np.empty((0, dim)), n_proposals=0, bound_exceeded=0)


class _GroupDraws:
    """Draws of one window's row groups: group g owns the compact rows
    [cuts[g], cuts[g + 1]) and draws only from gens[g]; one group needs no
    cuts."""

    def __init__(self, gens, cuts):
        self.gens = gens
        self.cuts = cuts

    def spans(self, rows) -> list:
        """(gen, lo, hi) per group with rows in `rows` (ascending compact
        rows): its rows are rows[lo:hi]."""
        if self.cuts is None:  # one group: the searchsorted below gives (0, len(rows))
            return [(self.gens[0], 0, len(rows))]
        pos = np.searchsorted(rows, self.cuts).tolist()
        return [(g, lo, hi) for g, lo, hi in zip(self.gens, pos, pos[1:]) if hi > lo]


def _joined(parts: list, axis: int = 0) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _bridge(u, e):
    """u < exp(e), exactly, for uniforms u from Generator.random: a u > 0
    is a multiple of 2^-53 > e^-40 (see the module docstring)."""
    hit = u < np.exp(np.maximum(e, -40.0))
    if not u.all():
        zero = (u == 0.0).nonzero()[0]
        hit[zero] = np.exp(e[zero]) > 0.0
    return hit


class Engine:
    """Stateless stepping kernels over caller-owned particle arrays."""

    def __init__(self, params: ModelParams, config: SimConfig):
        self.params = params
        self.config = config
        self.m_nu = params.mutation_mass()
        self.dim = params.dim
        self._floor_code = (REASON_CODES["extinct"]
                           if config.floor_reason is ExitReason.EXTINCT
                           else REASON_CODES["trunc_y_low"])
        # the |x| exit level: the box edge, which lies inside the guard, or
        # the guard of an untruncated run
        if config.truncation is not None:
            self._x_level, self._x_code = config.truncation, REASON_CODES["trunc_x"]
        else:
            self._x_level, self._x_code = config.x_guard, REASON_CODES["x_guard"]

    # -- substep kernel ----------------------------------------------------

    def _advance(self, xa, ya, live, off, kill_code, rows, rem, draws, dt):
        """Drive the pending rows `rows` (ascending) through their segment
        times `rem`.

        Steps a compacted copy of the rows that still have time left, which
        is written back to xa/ya/off and shrunk in each round where rows
        finish or die. Each substep round draws, per group, one normal and
        then two bridge uniforms per stepping row; kills interpolate the time
        within the crossing substep and leave the particle at its kill point
        (x and off moved to the kill time, y on the level it crossed).
        """
        floor, top = self.config.y_floor, self.config.y_top
        v = self.params.v
        # rows further than 20 sqrt(dt) below the ceiling cannot reach it:
        # with h <= dt the bridge exponent is below -800, where exp is 0
        top_reach = None if top is None else top - 20.0 * math.sqrt(dt)
        step = rem > 1e-15 * dt
        rows, rem = rows[step], rem[step]
        x, y, o = xa[rows], ya[rows], off[rows]
        guard = 0
        while len(rows):
            guard += 1
            if guard > _MAX_ITER:
                raise NumericError("substep iteration limit exceeded",
                                   diagnostics={"min_y": float(y.min())})
            h = np.minimum(rem, _SUBSTEP_ALPHA * y * y)
            spans = draws.spans(rows)
            xi = _joined([g.standard_normal(hi - lo) for g, lo, hi in spans])
            # bridge uniforms: per group a floor half, then a ceiling half
            u = _joined([g.random(2 * (hi - lo)).reshape(2, -1) for g, lo, hi in spans], axis=1)
            psi = drift_y(x, y, self.params)
            y1 = y + psi * h + np.sqrt(h) * xi
            if not np.isfinite(y1).all():
                raise NumericError("y became non-finite in cohort advance")

            # a level is hit at the substep end, or crossed and back inside
            # with the Brownian-bridge probability
            killed = (y1 <= floor) | ((y > floor) & _bridge(
                u[0], -2.0 * (y - floor) * np.maximum(y1 - floor, 0.0) / h))
            at_top = None
            if top is not None:
                near = (np.maximum(y, y1) > top_reach).nonzero()[0]
                if len(near):
                    yn, y1n = y[near], y1[near]
                    e_top = -2.0 * (top - yn) * np.maximum(top - y1n, 0.0) / h[near]
                    up = near[~killed[near] & ((y1n >= top)
                                               | ((yn < top) & _bridge(u[1, near], e_top)))]
                    if len(up):
                        at_top = np.zeros(len(y), dtype=bool)
                        at_top[up] = True
                        killed[up] = True

            dead = killed.nonzero()[0]
            if len(dead):
                yd, y1d, di = y[dead], y1[dead], rows[dead]
                frac = np.where(y1d <= floor,
                                np.clip((yd - floor) / np.maximum(yd - y1d, 1e-300), 0.0, 1.0),
                                0.5)
                y1[dead] = floor
                kill_code[di] = self._floor_code
                if at_top is not None:
                    up = at_top[dead]
                    frac = np.where(up, np.where(y1d >= top, np.clip(
                        (top - yd) / np.maximum(y1d - yd, 1e-300), 0.0, 1.0), 0.5), frac)
                    y1[dead[up]] = top
                    kill_code[di[up]] = REASON_CODES["trunc_y_top"]
                h[dead] = frac * h[dead]  # the dead step only to their kill time
                live[di] = False

            x[:, 0] -= v * h
            y = y1
            o = o + h
            rem = rem - h
            done = killed | (rem <= 1e-15 * dt)
            if done.any():
                xa[rows], ya[rows], off[rows] = x, y, o
                keep = (~done).nonzero()[0]
                if not len(keep):
                    return
                rows, x, y, o, rem = rows[keep], x[keep], y[keep], o[keep], rem[keep]

    def _crossings(self, x, o):
        """First time each row's affine x path reaches the |x| exit level;
        x is (k, d) at segment offsets o."""
        level = self._x_level
        room = level * level - np.square(x[:, 1:]).sum(axis=1)
        t_hit = np.where(room > 0.0, (x[:, 0] + np.sqrt(np.maximum(room, 0.0))) / self.params.v, 0.0)
        return o + np.maximum(t_hit, 0.0)

    # -- one full window ---------------------------------------------------

    def window(self, x, y, alive, t0: float, dt: float, gen,
               groups=None) -> WindowEvents:
        """Advance every live particle by dt from absolute time t0.

        Mutates the float arrays x (n, d), y (n,) and the bool array alive
        (n,) in place; returns the event log. Particles dead at t0 are left
        untouched; particles killed in the window are left at their kill
        point. An all-alive array is stepped in place, so a NumericError can
        leave it part-way through the window.

        gen is one Generator, or a sequence of G generators with `groups`,
        G + 1 ascending row offsets from 0 to n: rows [groups[g],
        groups[g + 1]) draw only from gen[g], exactly as a call on them alone
        would. A group with no live row draws nothing, so its gen[g] may be
        None. The event log covers all groups (kills in kill-time order).
        """
        p = self.params
        v = p.v
        gens = [gen] if groups is None else list(gen)
        bounds = (0, len(y)) if groups is None else tuple(int(b) for b in groups)
        if (len(bounds) != len(gens) + 1 or bounds[0] != 0 or bounds[-1] != len(y)
                or any(a > b for a, b in zip(bounds, bounds[1:]))):
            raise DomainError("groups must be G + 1 ascending row offsets from 0 to n")
        ev = WindowEvents.empty(self.dim)
        idx_all = alive.nonzero()[0]
        m = len(idx_all)
        if m == 0:
            return ev
        draws = _GroupDraws(gens, np.searchsorted(idx_all, bounds) if len(gens) > 1 else None)

        # an all-alive array (every Fleming-Viot window) steps in place
        whole = m == len(y)
        if whole:
            xa, ya, live = x, y, alive
        else:
            xa, ya, live = x[idx_all], y[idx_all], np.ones(m, dtype=bool)
        off = np.zeros(m)  # time reached in the window; for the dead, their kill time
        kill_code = np.full(m, -1, dtype=np.int8)

        g_sup = p.g_bound(np.linalg.norm(xa, axis=1) + v * dt)
        f_ceil = _SLACK * p.f(ya)
        lam_bar = f_ceil * g_sup * self.m_nu

        spans = draws.spans(np.arange(m))
        lam_dt = lam_bar * dt
        n_prop = _joined([g.poisson(lam_dt[lo:hi]) for g, lo, hi in spans])
        kmax = int(n_prop.max())
        # sorted proposal times per row, inf-padded with one spare column so
        # that prop_times[r, ptr[r]] is the next one (inf once exhausted);
        # each group draws an (m_g, kmax_g) block
        prop_times = np.full((m, kmax + 1), np.inf)
        if kmax > 0:
            for g, lo, hi in spans:
                n_g = n_prop[lo:hi]
                k_g = int(n_g.max())
                if k_g > 0:
                    raw = g.random((hi - lo, k_g)) * dt
                    prop_times[lo:hi, :k_g] = np.where(np.arange(k_g) < n_g[:, None],
                                                       raw, np.inf)
            multi = (n_prop > 1).nonzero()[0]  # other rows are sorted already
            prop_times[multi] = np.sort(prop_times[multi], axis=1)
        ptr = np.zeros(m, dtype=np.int64)

        jacc: dict[str, list] = {k: [] for k in ("ids", "t", "w", "xb", "xa")}
        exceeded = 0
        total_props = 0
        rows = np.arange(m)  # pending rows, ascending; once done, never pending again

        for _round in range(2 * kmax + 16):
            if _round:
                rows = rows[live[rows] & (off[rows] < dt * (1.0 - 1e-15))]
                if not len(rows):
                    break
                o, nxt_prop, xr = off[rows], prop_times[rows, ptr[rows]], xa[rows]
            else:  # at window start every row is pending
                o, nxt_prop, xr = np.zeros(m), prop_times[:, 0], xa
            cross = self._crossings(xr, o)
            nxt = np.minimum(np.minimum(nxt_prop, cross), dt)
            self._advance(xa, ya, live, off, kill_code, rows,
                          np.maximum(nxt - o, 0.0), draws, dt)
            arrived = live[rows]

            evt_cross = arrived & (cross <= np.minimum(nxt_prop, dt))
            ei = evt_cross.nonzero()[0]
            if len(ei):
                gone = rows[ei]
                live[gone] = False
                off[gone] = cross[ei]
                kill_code[gone] = self._x_code

            pi = rows[arrived & ~evt_cross & (nxt_prop <= dt)]
            if len(pi):
                total_props += len(pi)
                spans = draws.spans(pi)  # per group: effects, then u_f, then u_g
                w = _joined([p.mutation.sample(g, hi - lo, self.dim) for g, lo, hi in spans])
                u_f = _joined([g.random(hi - lo) for g, lo, hi in spans])
                u_g = _joined([g.random(hi - lo) for g, lo, hi in spans])
                fy = p.f(ya[pi])
                ratio_f = np.where(f_ceil[pi] > 0.0, fy / f_ceil[pi], 0.0)
                exceeded += int(np.count_nonzero(ratio_f > 1.0))
                stage1 = u_f < np.minimum(ratio_f, 1.0)
                gv = np.zeros(len(pi))
                si = stage1.nonzero()[0]
                if len(si):
                    gv[si] = p.g(xa[pi[si]], w[si])
                ratio_g = np.where(g_sup[pi] > 0.0, gv / g_sup[pi], 0.0)
                exceeded += int(np.count_nonzero(ratio_g > 1.0))
                acc = stage1 & (u_g < np.minimum(ratio_g, 1.0))
                ai = pi[acc.nonzero()[0]]
                if len(ai):
                    wa = w[acc]
                    x_before = xa[ai]
                    xa[ai] += wa
                    x_after = xa[ai]
                    na = np.linalg.norm(x_after, axis=1)
                    jacc["ids"].append(idx_all[ai])
                    jacc["t"].append(t0 + off[ai])
                    jacc["w"].append(wa)
                    jacc["xb"].append(x_before)
                    jacc["xa"].append(x_after)
                    oi = (na >= self._x_level).nonzero()[0]
                    if len(oi):
                        gone = ai[oi]
                        live[gone] = False
                        kill_code[gone] = np.where(na[oi] >= self.config.x_guard,
                                                   REASON_CODES["x_guard"],
                                                   REASON_CODES["trunc_x"]).astype(np.int8)
                ptr[pi] += 1
        else:
            raise NumericError("window round limit exceeded")

        dead = (~live).nonzero()[0]
        if len(dead):
            order = dead[np.argsort(off[dead], kind="stable")]
            ev.kill_ids = idx_all[order]
            ev.kill_times = t0 + off[order]
            ev.kill_codes = kill_code[order]
        if jacc["ids"]:
            ev.jump_ids = np.concatenate(jacc["ids"])
            ev.jump_times = np.concatenate(jacc["t"])
            ev.jump_w = np.concatenate(jacc["w"], axis=0)
            ev.jump_x_before = np.concatenate(jacc["xb"], axis=0)
            ev.jump_x_after = np.concatenate(jacc["xa"], axis=0)
        ev.n_proposals = total_props
        ev.bound_exceeded = exceeded

        if not whole:
            x[idx_all], y[idx_all], alive[idx_all] = xa, ya, live
        return ev
