"""The path-stepping kernel: thinned jump-diffusion windows over particle arrays.

Engine.window advances every live particle of an array by one window with
the package's single discretization of the process:

- x is affine between mutations (x(t) = x0 - v t e1), so exits from the
  truncation box and the explosion guard are located exactly;
- y takes Euler-Maruyama substeps dt_sub <= substep_alpha * y^2, which
  resolve the singular drift near the extinction boundary, plus a
  Brownian-bridge crossing correction at the kill levels, so absorbed
  functionals converge at first order in dt rather than half order;
- mutation proposals arrive from a per-window Poisson clock at the rate
  ceiling slack * f(y0) * sup_g * nu_mass; each is kept with probability
  [f(y_t)/ceiling_f] * [g(x_t, w)/sup_g], which reproduces the target
  accepted intensity f(y_t) g(x_t, w) nu(dw) exactly whenever the ceiling
  holds (violations are counted in WindowEvents.bound_exceeded, never
  silently absorbed). A particle may accept several jumps inside one window;
  the ceiling stays a valid bound because accepted jumps never raise it
  (stock families: constant in x; rescaled family: jumps shrink ||x||).

Every estimator (Fleming-Viot, survival cohorts, eta, the conditioned
ensemble) and the single-path front ends in pathsim run on this kernel. All
draws of a window come from one generator with a fixed draw order, so runs
are bit-reproducible and individual windows replayable.
"""
from __future__ import annotations

import enum
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
    x_max: float | None = None
    horizon: float = 50.0
    truncation: float | None = None
    truncation_y_low: float | None = None
    substep_alpha: float = 0.5
    slack: float = 1.5
    qprocess_delta: float = 0.05
    record_every: int = 1

    def __post_init__(self):
        if not (self.dt_max > 0.0):
            raise DomainError("dt_max must be positive")
        if self.y_ext < 0.0:
            raise DomainError("y_ext must be >= 0")
        if not (self.horizon > 0.0):
            raise DomainError("horizon must be positive")
        if self.truncation is not None and not (self.truncation > 0.0):
            raise DomainError("truncation must be positive when set")
        if self.truncation is not None and self.y_ext >= self.truncation:
            raise DomainError("y_ext must sit below the truncation ceiling")
        if not (0.0 < self.substep_alpha <= 1.0):
            raise DomainError("substep_alpha must be in (0, 1]")
        if not (self.slack > 1.0):
            raise DomainError("thinning slack must exceed 1")
        if not (self.qprocess_delta > 0.0):
            raise DomainError("qprocess_delta must be positive")
        if self.record_every < 1:
            raise DomainError("record_every must be >= 1")

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
        if self.x_max is not None:
            return self.x_max
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

    @property
    def jump_norm_before(self) -> np.ndarray:
        return np.linalg.norm(self.jump_x_before, axis=1)

    @property
    def jump_norm_after(self) -> np.ndarray:
        return np.linalg.norm(self.jump_x_after, axis=1)

    @classmethod
    def empty(cls, dim: int) -> "WindowEvents":
        return cls(kill_ids=np.empty(0, dtype=np.int64), kill_times=np.empty(0),
                   kill_codes=np.empty(0, dtype=np.int8),
                   jump_ids=np.empty(0, dtype=np.int64), jump_times=np.empty(0),
                   jump_w=np.empty((0, dim)), jump_x_before=np.empty((0, dim)),
                   jump_x_after=np.empty((0, dim)), n_proposals=0, bound_exceeded=0)


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

    # -- substep kernel ----------------------------------------------------

    def _advance(self, xa, ya, rem, live, gen, off, kill_off, kill_code, dt_scale):
        """Drive each particle through its remaining segment time.

        Mutates xa/ya/rem/live/off/kill_* in place. Each substep draws one
        normal and two bridge uniforms per active particle; kills interpolate
        the time within the crossing substep and leave the particle at its
        kill point (x moved to the kill time, y on the level it crossed).
        """
        cfg = self.config
        floor = cfg.y_floor
        top = cfg.y_top
        v = self.params.v
        guard = 0
        while True:
            idx = np.flatnonzero(live & (rem > 1e-15 * dt_scale))
            if len(idx) == 0:
                return
            guard += 1
            if guard > _MAX_ITER:
                raise NumericError("substep iteration limit exceeded",
                                   diagnostics={"min_y": float(ya[idx].min())})
            yv = ya[idx]
            h = np.minimum(rem[idx], cfg.substep_alpha * yv * yv)
            xi = gen.standard_normal(len(idx))
            u_bot = gen.random(len(idx))
            u_top = gen.random(len(idx))
            psi = drift_y(xa[idx], yv, self.params)
            y1 = yv + psi * h + np.sqrt(h) * xi
            if not np.all(np.isfinite(y1)):
                raise NumericError("y became non-finite in cohort advance")

            hit_floor = y1 <= floor
            can_bridge = (yv > floor) & ~hit_floor
            with np.errstate(over="ignore", invalid="ignore"):
                p_bot = np.exp(-2.0 * (yv - floor) * np.maximum(y1 - floor, 0.0) / h)
            killed = hit_floor | (can_bridge & (u_bot < p_bot))
            frac = np.where(hit_floor,
                            np.clip((yv - floor) / np.maximum(yv - y1, 1e-300), 0.0, 1.0),
                            0.5)
            code = np.full(len(idx), self._floor_code, dtype=np.int8)
            if top is not None:
                hit_top = (y1 >= top) & ~killed
                below = (yv < top) & ~killed & ~hit_top
                with np.errstate(over="ignore", invalid="ignore"):
                    p_top = np.exp(-2.0 * (top - yv) * np.maximum(top - y1, 0.0) / h)
                top_kill = hit_top | (below & (u_top < p_top))
                frac = np.where(top_kill,
                                np.where(hit_top,
                                         np.clip((top - yv) / np.maximum(y1 - yv, 1e-300), 0.0, 1.0),
                                         0.5),
                                frac)
                code = np.where(top_kill, REASON_CODES["trunc_y_top"], code).astype(np.int8)
                killed = killed | top_kill

            dead_local = np.flatnonzero(killed)
            if len(dead_local):
                di = idx[dead_local]
                to_kill = frac[dead_local] * h[dead_local]
                live[di] = False
                kill_off[di] = off[di] + to_kill
                kill_code[di] = code[dead_local]
                xa[di, 0] -= v * to_kill
                ya[di] = floor
                if top is not None:
                    ya[di[code[dead_local] == REASON_CODES["trunc_y_top"]]] = top

            ok = np.flatnonzero(~killed)
            oi = idx[ok]
            ya[oi] = y1[ok]
            xa[oi, 0] -= v * h[ok]
            rem[oi] -= h[ok]
            off[oi] += h[ok]

    # -- one full window ---------------------------------------------------

    def window(self, x, y, alive, t0: float, dt: float,
               gen: np.random.Generator) -> WindowEvents:
        """Advance every live particle by dt from absolute time t0.

        Mutates x (n, d), y (n,), alive (n,) in place; returns the event log.
        Particles dead at t0 are left untouched; particles killed in the
        window are left at their kill point.
        """
        cfg = self.config
        p = self.params
        v = p.v
        ev = WindowEvents.empty(self.dim)
        idx_all = np.flatnonzero(alive)
        if len(idx_all) == 0:
            return ev

        xa = np.array(x[idx_all], dtype=float)
        ya = np.array(y[idx_all], dtype=float)
        m = len(idx_all)
        live = np.ones(m, dtype=bool)
        off = np.zeros(m)
        kill_off = np.full(m, np.nan)
        kill_code = np.full(m, -1, dtype=np.int8)

        g_sup = p.g_bound(np.linalg.norm(xa, axis=1) + v * dt)
        f_ceil = cfg.slack * p.f(ya)
        lam_bar = f_ceil * g_sup * self.m_nu

        n_prop = gen.poisson(lam_bar * dt)
        kmax = int(n_prop.max())
        if kmax > 0:
            raw = gen.random((m, kmax)) * dt
            raw[np.arange(kmax)[None, :] >= n_prop[:, None]] = np.inf
            prop_times = np.sort(raw, axis=1)
        else:
            prop_times = np.full((m, 1), np.inf)
        ptr = np.zeros(m, dtype=np.int64)

        def crossings():
            out = np.full(m, np.inf)
            codes = np.full(m, -1, dtype=np.int8)
            rest = np.sum(np.square(xa[:, 1:]), axis=1)
            for level, code in ((cfg.truncation, REASON_CODES["trunc_x"]),
                                (cfg.x_guard, REASON_CODES["x_guard"])):
                if level is None:
                    continue
                room = level * level - rest
                t_hit = np.where(room > 0.0,
                                 (xa[:, 0] + np.sqrt(np.maximum(room, 0.0))) / v,
                                 0.0)
                cand = off + np.maximum(t_hit, 0.0)
                better = cand < out
                out = np.where(better, cand, out)
                codes = np.where(better, code, codes).astype(np.int8)
            return out, codes

        jacc: dict[str, list] = {k: [] for k in ("ids", "t", "w", "xb", "xa")}
        exceeded = 0
        total_props = 0

        for _round in range(2 * kmax + 16):
            pending = live & (off < dt * (1.0 - 1e-15))
            if not pending.any():
                break
            safe = np.minimum(ptr, prop_times.shape[1] - 1)
            nxt_prop = prop_times[np.arange(m), safe]
            nxt_prop = np.where(ptr >= n_prop, np.inf, nxt_prop)
            cross, cross_code = crossings()
            nxt = np.minimum(np.minimum(nxt_prop, cross), dt)

            rem = np.where(pending, np.maximum(nxt - off, 0.0), 0.0)
            self._advance(xa, ya, rem, live, gen, off, kill_off, kill_code, dt)
            arrived = pending & live

            evt_cross = arrived & np.isfinite(cross) & (cross <= np.minimum(nxt_prop, dt))
            ei = np.flatnonzero(evt_cross)
            if len(ei):
                live[ei] = False
                kill_off[ei] = cross[ei]
                kill_code[ei] = cross_code[ei]

            evt_prop = arrived & ~evt_cross & np.isfinite(nxt_prop) & (nxt_prop <= dt)
            pi = np.flatnonzero(evt_prop)
            if len(pi):
                total_props += len(pi)
                w = p.mutation.sample(gen, len(pi), self.dim)
                u_f = gen.random(len(pi))
                u_g = gen.random(len(pi))
                fy = p.f(ya[pi])
                ratio_f = np.where(f_ceil[pi] > 0.0, fy / f_ceil[pi], 0.0)
                exceeded += int(np.count_nonzero(ratio_f > 1.0))
                stage1 = u_f < np.minimum(ratio_f, 1.0)
                gv = np.zeros(len(pi))
                si = np.flatnonzero(stage1)
                if len(si):
                    gv[si] = p.g(xa[pi[si]], w[si])
                ratio_g = np.where(g_sup[pi] > 0.0, gv / g_sup[pi], 0.0)
                exceeded += int(np.count_nonzero(ratio_g > 1.0))
                acc = stage1 & (u_g < np.minimum(ratio_g, 1.0))
                ai = pi[np.flatnonzero(acc)]
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
                    lvl = cfg.truncation if cfg.truncation is not None else np.inf
                    outside = na >= np.minimum(lvl, cfg.x_guard)
                    oi = np.flatnonzero(outside)
                    if len(oi):
                        gone = ai[oi]
                        live[gone] = False
                        kill_off[gone] = off[gone]
                        kill_code[gone] = np.where(na[oi] >= cfg.x_guard,
                                                   REASON_CODES["x_guard"],
                                                   REASON_CODES["trunc_x"]).astype(np.int8)
                ptr[pi] += 1
        else:
            raise NumericError("window round limit exceeded")

        dead = np.flatnonzero(~live)
        if len(dead):
            order = dead[np.argsort(kill_off[dead], kind="stable")]
            ev.kill_ids = idx_all[order]
            ev.kill_times = t0 + kill_off[order]
            ev.kill_codes = kill_code[order]
        if jacc["ids"]:
            ev.jump_ids = np.concatenate(jacc["ids"])
            ev.jump_times = np.concatenate(jacc["t"])
            ev.jump_w = np.concatenate(jacc["w"], axis=0)
            ev.jump_x_before = np.concatenate(jacc["xb"], axis=0)
            ev.jump_x_after = np.concatenate(jacc["xa"], axis=0)
        ev.n_proposals = total_props
        ev.bound_exceeded = exceeded

        x[idx_all] = xa
        y[idx_all] = ya
        alive[idx_all] = live
        return ev
