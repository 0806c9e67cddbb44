"""Single-path front ends over the cohort kernel.

simulate_path is a one-row run of qsd._Stepper, the driver of every
cohort.Engine.window call, on its to_horizon schedule (dt_max windows from
t = 0, the last one cut at the horizon, ending with the window that kills
the path), and keeps its state at every window end, jump log and exit
record; it resamples nothing, so it keeps no kill log. simulate_q_path runs
one walker of the h-transform rejection loop behind
qsd.conditioned_marginal. Both return a Trajectory, whose jump log is
enough to rebuild x between samples.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohort import ExitReason, SimConfig, reason_from_code
from .errors import DomainError
# drift_y stays: perfbench/workload.py's traced runs wrap pathsim.drift_y
from .model import ModelParams, drift_y  # noqa: F401
from .qsd import _h_transform, _jump_log, _q_steps, _Stepper
from .rng import StreamKey

__all__ = [
    "ExitReason",
    "SimConfig",
    "Trajectory",
    "simulate_path",
    "simulate_q_path",
]


@dataclass
class Trajectory:
    """Sampled path with its exit record and the kernel's jump log, in time
    order: jump i, at jump_times[i], moved x from jump_x_before[i] by jump_w[i]."""

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    jump_times: np.ndarray
    jump_w: np.ndarray
    jump_x_before: np.ndarray
    jump_x_after: np.ndarray
    exit_reason: ExitReason
    exit_time: float
    sigma: float
    v: float
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> np.ndarray:
        """Raw population-size coordinate at the sample times."""
        return self.sigma**2 * np.square(self.y) / 4.0

    def reconstruct_x(self, t: float) -> np.ndarray:
        """x(t) rebuilt from the initial point and the jump log alone."""
        x = self.x[0].copy()
        x[0] += self.v * self.times[0]
        for tj, w in zip(self.jump_times, self.jump_w):
            if tj <= t:
                x = x + w
        x[0] -= self.v * t
        return x


def _coerce_init(init) -> tuple[np.ndarray, float]:
    x, y = init
    return np.atleast_1d(np.asarray(x, dtype=float)).copy(), float(y)


def _check_in_bounds(x: np.ndarray, y: float, config: SimConfig) -> None:
    if y <= config.y_floor:
        raise DomainError(f"initial y {y} not above the kill floor {config.y_floor}")
    if config.y_top is not None and y >= config.y_top:
        raise DomainError("initial y at or above the truncation ceiling")
    xn = float(np.linalg.norm(x))
    if config.truncation is not None and xn >= config.truncation:
        raise DomainError("initial x outside the truncation box")
    if xn >= config.x_guard:
        raise DomainError("initial x outside the explosion guard")


def simulate_path(init, params: ModelParams, config: SimConfig, key: StreamKey) -> Trajectory:
    """Simulate one path to absorption, truncation exit, or the horizon.

    A one-row _Stepper run on its to_horizon schedule (dt_max windows, the
    last one cut at the horizon). Window k draws from key.child("w", k), the
    rule of every estimator, so any window can be replayed in isolation and
    trajectories are bit-reproducible from (params, config, key). Rows are
    the initial state and the engine state at every window end; the last row
    is the exit (or horizon) state, at the exit time.
    """
    x0, y0 = _coerce_init(init)
    _check_in_bounds(x0, y0, config)
    st = _Stepper(params, config, x0[None, :].copy(), np.array([y0]), [key])
    times, xs, ys = [0.0], [x0], [y0]
    picks = []
    exit_reason = ExitReason.SURVIVED_HORIZON
    exit_time = config.horizon
    for _, ev in st.to_horizon(config.horizon):
        picks.append((ev, ...))
        if not st.alive[0]:
            exit_reason = reason_from_code(ev.kill_codes[0])
            exit_time = float(ev.kill_times[0])
        times.append(st.t)
        xs.append(st.x[0].copy())
        ys.append(float(st.y[0]))
    times[-1] = exit_time
    return Trajectory(times=np.asarray(times), x=np.asarray(xs), y=np.asarray(ys),
                      **_jump_log(picks, params.dim), exit_reason=exit_reason,
                      exit_time=exit_time, sigma=params.sigma, v=params.v)


def simulate_q_path(init, params: ModelParams, config: SimConfig, key: StreamKey,
                    eta, eta_max: float, horizon: float | None = None) -> Trajectory:
    """Simulate the conditioned (never-absorbed) process by rejection.

    One walker of the rejection loop behind qsd.conditioned_marginal: over
    each macro step of length config.qprocess_delta, candidate segments are
    drawn from the unconditioned dynamics; absorbed candidates are rejected
    and survivors are accepted with probability eta(endpoint)/ceiling, where
    ceiling = min(eta_max, qsd._RATIO_CAP * eta(start)) bounds the expected
    attempts by ~qsd._RATIO_CAP everywhere. Endpoint values above the ceiling are
    accepted outright and counted in meta["q_ceiling_violations"] (never
    silently absorbed); meta["q_bound_exceeded"] sums the thinning-bound
    violations of all candidate windows. Rows are the macro-step endpoints;
    the jump log holds the jumps of the accepted candidates.

    eta: callable (x (n, d), y (n,)) -> values; eta_max: its ceiling on the
    simulation region (EtaEstimate.max_value for an estimated eta).
    """
    x0, y0 = _coerce_init(init)
    _check_in_bounds(x0, y0, config)
    horizon = config.horizon if horizon is None else horizon
    n_steps = _q_steps(horizon, config)
    if not (eta_max > 0.0):
        raise DomainError("eta_max must be positive")
    x, y = x0[None, :].copy(), np.array([y0])
    if float(np.asarray(eta(x, y)).ravel()[0]) <= 0.0:
        raise DomainError("initial state has nonpositive survival weight")

    delta = config.qprocess_delta
    times, xs, ys = [0.0], [x0], [y0]
    picks = []

    def record(step, accepted):
        picks.extend((ev, owner >= 0) for ev, owner in accepted)
        times.append((step + 1) * delta)
        xs.append(x[0].copy())
        ys.append(float(y[0]))

    stats = _h_transform(x, y, eta, eta_max, params, config, key, n_steps, on_step=record)
    return Trajectory(times=np.asarray(times), x=np.asarray(xs), y=np.asarray(ys),
                      **_jump_log(picks, params.dim), exit_reason=ExitReason.SURVIVED_HORIZON,
                      exit_time=horizon, sigma=params.sigma, v=params.v,
                      meta={"q_ceiling_violations": stats["ceiling_violations"],
                            "q_bound_exceeded": stats["bound_exceeded"],
                            "q_attempt_rounds_max": stats["max_attempt_rounds"]})
