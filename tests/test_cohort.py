from __future__ import annotations

import hashlib

import numpy as np
import pytest

from adaptqsd import cli, cohort
from adaptqsd.cohort import Engine, REASON_CODES, _bridge, reason_from_code
from adaptqsd.model import default_params, drift_y
from adaptqsd.oracle import build_generator, leading_triple, survival_consistency
from adaptqsd.pathsim import ExitReason, SimConfig
from adaptqsd.qsd import run_cohort
from adaptqsd.rng import StreamKey, stream


def _run_window(engine, x, y, alive, t0, dt, key):
    return engine.window(x, y, alive, t0, dt, stream(key))


def test_window_is_deterministic_and_in_place():
    params = default_params()
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3)
    engine = Engine(params, config)
    key = StreamKey(seed=1, lineage=("win",))
    gen0 = stream(key.child("init"))
    x0 = gen0.uniform(-2.0, 2.0, size=(300, 1))
    y0 = gen0.uniform(0.5, 3.0, size=300)

    xa, ya, aa = x0.copy(), y0.copy(), np.ones(300, dtype=bool)
    xb, yb, ab = x0.copy(), y0.copy(), np.ones(300, dtype=bool)
    eva = _run_window(Engine(params, config), xa, ya, aa, 0.0, 0.5, key.child("w"))
    evb = _run_window(Engine(params, config), xb, yb, ab, 0.0, 0.5, key.child("w"))
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)
    np.testing.assert_array_equal(aa, ab)
    np.testing.assert_array_equal(eva.kill_ids, evb.kill_ids)
    np.testing.assert_array_equal(eva.jump_times, evb.jump_times)
    assert not np.array_equal(xa, x0)  # drift moved the first coordinate


def test_dead_particles_stay_frozen():
    params = default_params()
    config = SimConfig()
    engine = Engine(params, config)
    x = np.zeros((10, 1))
    y = np.full(10, 2.0)
    alive = np.ones(10, dtype=bool)
    alive[3] = False
    alive[7] = False
    x_before = x.copy()
    y_before = y.copy()
    _run_window(engine, x, y, alive, 0.0, 0.3, StreamKey(seed=2, lineage=("dead",)))
    for i in (3, 7):
        assert x[i] == x_before[i] and y[i] == y_before[i]
    assert not alive[3] and not alive[7]


def test_kills_match_floor_semantics():
    # y_floor == y_ext: kills report extinction, not truncation
    params = default_params(r0=-4.0)
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3)
    engine = Engine(params, config)
    key = StreamKey(seed=3, lineage=("kill",))
    x = np.zeros((500, 1))
    y = np.full(500, 0.05)
    alive = np.ones(500, dtype=bool)
    t = 0.0
    kills = []
    for k in range(200):
        ev = _run_window(engine, x, y, alive, t, 0.01, key.child(k))
        kills.extend(ev.kill_codes.tolist())
        t += 0.01
        if not alive.any():
            break
    assert len(kills) == 500
    assert all(reason_from_code(c) is ExitReason.EXTINCT for c in kills)
    assert not alive.any()


def test_ceiling_kills_are_truncation():
    params = default_params()
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3)
    engine = Engine(params, config)
    key = StreamKey(seed=4, lineage=("top",))
    x = np.zeros((200, 1))
    y = np.full(200, 3.95)
    alive = np.ones(200, dtype=bool)
    ev = _run_window(engine, x, y, alive, 0.0, 0.2, key)
    assert len(ev.kill_ids) > 0
    reasons = {reason_from_code(c) for c in ev.kill_codes}
    assert reasons == {ExitReason.LEFT_TRUNCATION}
    # survivors still inside the box
    assert np.all(y[alive] < 4.0)


def _first_exit(params, config, x0, y0, key, dt=0.01):
    """Step one particle in dt windows to its kill: (reason code, kill time)."""
    engine = Engine(params, config)
    x, y, alive = np.array([x0]), np.array([y0]), np.ones(1, dtype=bool)
    for k in range(int(round(config.horizon / dt))):
        ev = _run_window(engine, x, y, alive, k * dt, dt, key.child("w", k))
        if len(ev.kill_ids):
            return int(ev.kill_codes[0]), float(ev.kill_times[0])
    return None


def test_nearer_x_level_names_the_exit():
    # no mutations, so x(t) = -1.5 - v t; strong growth and damping hold y
    # near its equilibrium 2, so only the |x| levels can end the path
    params = default_params(m_nu=0.0, r0=20.0, a=0.0, gamma_n=19.75)
    key = StreamKey(seed=6, lineage=("xexit",))
    # untruncated, the explosion guard at |x| = 40 ends the path
    free = SimConfig(horizon=20.0)
    code, t = _first_exit(params, free, [-38.5], 2.0, key)
    assert code == REASON_CODES["x_guard"]
    assert t == pytest.approx(1.5 / params.v, abs=1e-9)
    # in a box the guard sits at 10 L, so the box edge ends the path
    boxed = SimConfig(truncation=4.0, horizon=20.0)
    code, t = _first_exit(params, boxed, [-1.5], 2.0, key)
    assert code == REASON_CODES["trunc_x"]
    assert t == pytest.approx(2.5 / params.v, abs=1e-9)


def test_jump_log_norms():
    # engine windows are meant to be dt_max-sized; the dominating rate is
    # frozen at window start, so short windows keep it valid
    params = default_params(fixation_family="advantageous_only")
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3)
    engine = Engine(params, config)
    key = StreamKey(seed=5, lineage=("jm",))
    gen0 = stream(key.child("init"))
    x = gen0.uniform(-2.5, -0.5, size=(2000, 1))
    y = np.full(2000, 2.5)
    alive = np.ones(2000, dtype=bool)
    n_jumps = 0
    exceeded = 0
    t = 0.0
    for k in range(100):
        ev = _run_window(engine, x, y, alive, t, 0.01, key.child("w", k))
        n_jumps += len(ev.jump_ids)
        exceeded += ev.bound_exceeded
        if len(ev.jump_ids):
            assert np.all(np.linalg.norm(ev.jump_x_after, axis=1)
                          < np.linalg.norm(ev.jump_x_before, axis=1))
            assert ev.jump_w.shape == (len(ev.jump_ids), 1)
            assert np.all((ev.jump_times >= t) & (ev.jump_times <= t + 0.01))
        assert ev.n_proposals >= len(ev.jump_ids)
        t += 0.01
    assert n_jumps > 50
    assert exceeded == 0


def test_engine_survival_matches_oracle():
    # independent reference: started from the grid oracle's alpha, survival
    # is exp(-lambda0 t); the oracle side is checked by its own propagator
    params = default_params()
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3)
    genr = build_generator(params, L=4.0, y_min=1e-3, nx=80, ny=60)
    triple = leading_triple(genr)
    ts = (1.0, 2.0)
    assert max(survival_consistency(genr, triple, ts).values()) <= 1e-6

    n = 2000
    key = StreamKey(seed=6, lineage=("surv_oracle",))
    x0, y0 = triple.alpha.sample(stream(key.child("init")), n)
    res = run_cohort(x0, y0, params, config, horizon=2.0, key=key.child("cohort"))
    for t in ts:
        p = np.exp(-triple.lambda0 * t)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(res.survival(t) - p) < 3.5 * se, t


def test_reason_code_round_trip():
    for name, code in REASON_CODES.items():
        assert reason_from_code(code) in (ExitReason.EXTINCT,
                                          ExitReason.LEFT_TRUNCATION,
                                          ExitReason.EXPLOSION_GUARD)
    with pytest.raises(KeyError):
        reason_from_code(99)


# Frozen draws. Any change to the kernel's draw sizes, draw order or
# arithmetic moves these digests; a speed-up that keeps them keeps every
# estimate in the package bit for bit. Pinned on numpy 2.4.6 (Philox and
# Generator.poisson streams may differ on other numpy versions).
_FROZEN_WINDOWS = {
    # truncated d = 1: floor (trunc_y_low), ceiling and x-box kills
    "truncated_d1": (dict(), dict(truncation=3.0), 0.01, (-2.99, 2.99),
                     "bd469e8cad191b78a19bae00dc556fa0baf85f35138d9060593628c8c0047de0",
                     {"trunc_y_low", "trunc_y_top", "trunc_x"}),
    # untruncated d = 2 from |x| in [38.2, 39.9], drifting out to the guard at
    # 40; a = 0 keeps the growth rate from collapsing that far from the optimum
    "guarded_d2": (dict(dim=2, a=0.0), dict(), 0.05, (-28.2, -27.0),
                   "212f77ea54b0697f52e81db960fbf78fff17f5b8d307c96101c5e3c9dba7dfdf",
                   {"extinct", "x_guard"}),
    # the rescaled fixation family, whose jumps shrink ||x||
    "rescaled": (dict(fixation_family="rescaled_advantageous"),
                 dict(truncation=4.0, truncation_y_low=1e-3), 0.02, (-3.99, 3.99),
                 "ff8482540ddd8f4d972a2d967d83b50f8cac7dc5e7362aaadeffaccf78319906",
                 {"extinct", "trunc_y_top", "trunc_x"}),
}


def _frozen_run(name):
    """SHA-256 of 200 windows' event logs and the end state at fixed keys,
    and the kill codes seen.

    300 particles start log-uniform in y; after each window the killed
    particles with even index restart from their initial state, so every
    window mixes fresh, long-lived and dead-at-t0 rows.
    """
    pkw, ckw, dt, x_range, _, _ = _FROZEN_WINDOWS[name]
    params = default_params(**pkw)
    config = SimConfig(**ckw)
    engine = Engine(params, config)
    key = StreamKey(seed=606, lineage=("frozen", name))
    n = 300
    gen0 = stream(key.child("init"))
    top = config.y_top or 5.0
    x0 = gen0.uniform(*x_range, size=(n, params.dim))
    y0 = np.exp(gen0.uniform(np.log(1.01 * config.y_floor), np.log(0.99 * top), size=n))
    x, y, alive = x0.copy(), y0.copy(), np.ones(n, dtype=bool)
    h = hashlib.sha256()
    seen = set()
    for k in range(200):
        ev = _run_window(engine, x, y, alive, k * dt, dt, key.child("w", k))
        for a in (ev.kill_ids, ev.kill_times, ev.kill_codes, ev.jump_ids, ev.jump_times,
                  ev.jump_w, ev.jump_x_before, ev.jump_x_after,
                  np.array([ev.n_proposals, ev.bound_exceeded])):
            h.update(np.ascontiguousarray(a).tobytes())
        seen.update(int(c) for c in ev.kill_codes)
        back = ~alive & (np.arange(n) % 2 == 0)
        x[back], y[back], alive[back] = x0[back], y0[back], True
    for a in (x, y, alive):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest(), seen


@pytest.mark.parametrize("name", sorted(_FROZEN_WINDOWS))
def test_window_draws_are_frozen(name):
    digest, seen = _frozen_run(name)
    assert seen == {REASON_CODES[c] for c in _FROZEN_WINDOWS[name][5]}
    assert digest == _FROZEN_WINDOWS[name][4]


def test_frozen_windows_substep_work(monkeypatch):
    """The kernel calls drift_y through the cohort module once per substep
    round, on the stepping rows (perfbench's traced substep counters wrap it
    there); over the truncated_d1 windows that is 354 calls on 37 651 rows."""
    counts = [0, 0]

    def counted(x, y, params):
        counts[0] += 1
        counts[1] += len(y)
        return drift_y(x, y, params)

    monkeypatch.setattr(cohort, "drift_y", counted)
    digest, _ = _frozen_run("truncated_d1")
    assert digest == _FROZEN_WINDOWS["truncated_d1"][4]
    assert counts == [354, 37651]


@pytest.mark.parametrize("e", [0.0, -0.0, -39.9, -40.0, -40.1, -708.5, -745.0, -745.2,
                               -800.0, -1e5])
def test_bridge_decision_is_exact(e):
    """The kernel's bridge test agrees with u < exp(e) at and around its
    -40 clamp, in exp's denormal range and past its underflow to 0."""
    u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    np.testing.assert_array_equal(_bridge(u, np.full(4, e)), u < np.exp(e))


def test_bridge_uniforms_are_multiples_of_two_to_the_minus_53():
    """The premise of the -40 clamp: Generator.random draws k 2^-53."""
    u = stream(StreamKey(seed=35, lineage=("bridge",))).random(100_000)
    scaled = u * 2.0**53
    np.testing.assert_array_equal(scaled, np.floor(scaled))


def test_fv_artifacts_are_frozen(tmp_path):
    """SHA-256 of a small `adaptqsd fv` run's artifacts (numpy 2.4.6)."""
    argv = ["fv", "--seed", "6", "--out", str(tmp_path), "--set", "particles=200",
            "--set", "window=2.0", "--set", "burn_in=1.0", "--set", "nx=10", "--set", "ny=8"]
    assert cli.main(argv) == 0
    h = hashlib.sha256()
    for name in ("alpha.csv", "lambda0.json"):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == "3e852f591903321a8a6202306d46d1ca34e9d001d8b1f23b7ab68d29c2c79c21"
