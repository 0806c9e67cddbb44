from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from adaptqsd import cohort, oracle, qsd
from adaptqsd.cohort import Engine
from adaptqsd.errors import DomainError, MassExtinctionError, NumericError, UnsupportedModelError
from adaptqsd.measure import EmpiricalMeasure, HistGrid
from adaptqsd.model import default_params
from adaptqsd.pathsim import SimConfig
from adaptqsd.qsd import (
    ConvergenceCurve,
    EtaEstimate,
    _bilinear,
    balance_residual,
    beta_from,
    conditioned_marginal,
    convergence_curve,
    estimate_eta,
    estimate_lambda0_survival,
    eta_node_grid,
    fleming_viot,
    relaxed_start,
    run_cohort,
    truncation_family,
)
from adaptqsd.rng import StreamKey


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _boxed_config(**kw):
    return SimConfig(truncation=4.0, truncation_y_low=1e-3, **kw)


@pytest.fixture(scope="module")
def params():
    return default_params()


@pytest.fixture(scope="module")
def tiny_fv(params):
    grid = HistGrid.for_box(4.0, y_lo=1e-3, nx=16, ny=12, dim=1)
    return fleming_viot(params, _boxed_config(), StreamKey(seed=41, lineage=("tinyfv",)),
                        n_particles=120, window=6.0, burn_in=4.0, hist_grid=grid)


def test_fleming_viot_contract(tiny_fv):
    est = tiny_fv
    assert est.alpha.masses.sum() == pytest.approx(1.0)
    assert np.all(est.alpha.masses >= 0.0)
    assert est.lambda0 > 0.0
    assert est.lambda0_stderr > 0.0
    assert est.kills_in_window > 0
    assert est.burn_in_time == pytest.approx(4.0)
    t0, t1 = est.window
    assert t1 - t0 == pytest.approx(6.0, abs=0.02)
    log = est.kill_log
    assert len(log["times"]) == len(log["killed"]) == len(log["donors"])
    assert np.all(np.diff(log["times"]) >= 0.0)


def test_fleming_viot_auto_burn(params, monkeypatch):
    monkeypatch.setattr(qsd, "_FV_CHUNK", 1.0)
    monkeypatch.setattr(qsd, "_BURN_IN_CAP", 12.0)
    grid = HistGrid.for_box(4.0, y_lo=1e-3, nx=12, ny=10, dim=1)
    est = fleming_viot(params, _boxed_config(), StreamKey(seed=42, lineage=("auto",)),
                       n_particles=80, window=4.0, burn_in="auto", hist_grid=grid)
    assert 0.0 < est.burn_in_time <= 12.0
    assert len(est.diagnostics["tv_series"]) >= 2
    t0, t1 = est.window
    assert t0 == pytest.approx(est.burn_in_time)
    assert t1 - t0 == pytest.approx(4.0, abs=0.02)


def test_fleming_viot_burn_in_diagnostics(params, monkeypatch):
    # the auto rule first decides at the second 1.0 chunk, where it has at
    # most one plateau hit, so the cap at 2.5 stops it at the third; a
    # numeric burn-in past the cap is not capped
    monkeypatch.setattr(qsd, "_FV_CHUNK", 1.0)
    monkeypatch.setattr(qsd, "_BURN_IN_CAP", 2.5)
    grid = HistGrid.for_box(4.0, y_lo=1e-3, nx=12, ny=10, dim=1)
    auto, fixed = (fleming_viot(params, _boxed_config(), StreamKey(seed=46, lineage=("cap",)),
                                n_particles=40, window=0.5, burn_in=burn, hist_grid=grid)
                   for burn in ("auto", 3.0))
    assert auto.burn_in_time == pytest.approx(3.0) and auto.diagnostics["burn_in_capped"]
    assert [t for t, _ in auto.diagnostics["tv_series"]] == pytest.approx([1.0, 2.0, 3.0])
    assert fixed.burn_in_time == 3.0 and not fixed.diagnostics["burn_in_capped"]
    assert fixed.diagnostics["tv_series"] == []


def _fv_digest(est) -> str:
    log = est.kill_log
    return _digest(est.alpha.masses,
                   np.array([est.lambda0, est.lambda0_stderr, est.burn_in_time, *est.window]),
                   np.array([est.kills_in_window]), log["times"], log["killed"], log["donors"])


@pytest.mark.parametrize("seed,burn_in,digest", [
    (48, 2.0, "aab3a51ae520ce83bea2979b9cfbda354bae522c5150e3a31eb6e9364b2851f8"),
    (49, "auto", "74348310c5253ceb8a2ca609f8be7ec54a9d9a28fd216f6bbc27e7787fe17f78"),
])
def test_fleming_viot_is_frozen(params, monkeypatch, seed, burn_in, digest):
    """SHA-256 of a 200-particle Fleming-Viot run (numpy 2.4.6): alpha,
    lambda0 and its SE, kills, burn-in, window and kill log. The auto rule
    runs on 1.0 chunks under a cap of 12 (it stops at 10 by plateau)."""
    monkeypatch.setattr(qsd, "_FV_CHUNK", 1.0)
    monkeypatch.setattr(qsd, "_BURN_IN_CAP", 12.0)
    grid = HistGrid.for_box(4.0, y_lo=1e-3, nx=16, ny=12, dim=1)
    est = fleming_viot(params, _boxed_config(), StreamKey(seed=seed, lineage=("fv_frozen",)),
                       n_particles=200, window=3.0, burn_in=burn_in, hist_grid=grid)
    assert 0.0 < est.burn_in_time < 12.0 and est.kills_in_window > 0
    assert _fv_digest(est) == digest


def test_fleming_viot_needs_two_particles(params):
    with pytest.raises(DomainError):
        fleming_viot(params, _boxed_config(), StreamKey(seed=1, lineage=("bad",)),
                     n_particles=1)


@pytest.mark.parametrize("burn_in", [math.inf, math.nan, -3.0])
def test_fleming_viot_rejects_a_burn_in_that_is_not_finite_and_nonnegative(params, burn_in):
    # inf would step forever; NaN and -3 would end at once and report that time
    with pytest.raises(DomainError, match="burn_in"):
        fleming_viot(params, _boxed_config(), StreamKey(seed=1, lineage=("bad",)),
                     n_particles=40, window=1.0, burn_in=burn_in)


def test_fleming_viot_mass_extinction(params):
    # every particle starts just above the floor where the size drift is
    # steeply negative, so the whole population dies inside window one
    with pytest.raises(MassExtinctionError):
        fleming_viot(params, _boxed_config(), StreamKey(seed=2, lineage=("die",)),
                     n_particles=40, window=2.0, burn_in=0.0,
                     init=(np.zeros(1), 1.002e-3))


def test_run_cohort_slices_and_jumps(params):
    config = _boxed_config()
    gen = np.random.default_rng(7)
    n = 200
    x0 = gen.uniform(-2.0, 0.0, size=(n, 1))
    y0 = gen.uniform(1.0, 3.0, size=n)
    res = run_cohort(x0, y0, params, config, 2.0, StreamKey(seed=8, lineage=("coh",)),
                     record_slices=(1.0, 2.0), collect_jumps=True)
    assert res.death_times.shape == (n,)
    assert set(res.slices) == {1.0, 2.0}
    live1, lx1, ly1 = res.slices[1.0]
    assert len(live1) == np.count_nonzero(res.death_times > 1.0)
    assert lx1.shape == (len(live1), 1) and ly1.shape == (len(live1),)
    live2 = res.slices[2.0][0]
    assert set(live2) <= set(live1)
    assert res.jump_times is not None and len(res.jump_times) > 0
    assert res.total_time_alive > 0.0
    # survival() agrees with the death-time census
    assert res.survival(1.0) == pytest.approx(len(live1) / n)


@pytest.mark.parametrize("sizes,doomed", [((30, 20, 25), 1), ((1, 40), 0), ((25, 15, 10, 30), 3)])
def test_grouped_cohort_equals_separate_cohorts(params, monkeypatch, sizes, doomed):
    """A grouped run_cohort gives each group exactly its own run's deaths,
    slices, jumps and thinning-bound count. The doomed group starts just
    above the floor and dies out in window one; after that it gets no stream,
    so the grouped run makes exactly the stream calls of the separate runs."""
    config = _boxed_config()
    gen = np.random.default_rng(len(sizes))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    x0 = gen.uniform(-2.0, 0.5, size=(bounds[-1], 1))
    y0 = gen.uniform(0.5, 3.5, size=bounds[-1])
    y0[bounds[doomed]:bounds[doomed + 1]] = 1.002e-3
    keys = [StreamKey(seed=17, lineage=("grp", g)) for g in range(len(sizes))]
    calls = []
    real_stream = qsd.stream
    monkeypatch.setattr(qsd, "stream", lambda key: calls.append(key) or real_stream(key))
    kw = dict(record_slices=(0.05, 0.5, 1.25), collect_jumps=True)
    grouped = run_cohort(x0, y0, params, config, 1.25, keys, groups=bounds, **kw)
    grouped_calls = calls[:]
    calls.clear()
    solo = [run_cohort(x0[lo:hi], y0[lo:hi], params, config, 1.25, key, **kw)
            for key, lo, hi in zip(keys, bounds, bounds[1:])]
    assert grouped_calls == sorted(calls, key=lambda k: (k.lineage[3], k.lineage[1]))
    assert [k for k in grouped_calls if k.lineage[1] == doomed] == [keys[doomed].child("w", 0)]
    assert len(grouped.jump_ids) > 0
    assert grouped.bound_exceeded == sum(r.bound_exceeded for r in solo)
    for (lo, hi), res in zip(zip(bounds, bounds[1:]), solo):
        for name in ("death_times", "end_x", "end_y", "alive"):
            np.testing.assert_array_equal(getattr(grouped, name)[lo:hi], getattr(res, name))
        for t, (live, lx, ly) in grouped.slices.items():
            mine = (live >= lo) & (live < hi)
            for a, b in zip((live[mine] - lo, lx[mine], ly[mine]), res.slices[t]):
                np.testing.assert_array_equal(a, b)
        mine = (grouped.jump_ids >= lo) & (grouped.jump_ids < hi)
        np.testing.assert_array_equal(grouped.jump_ids[mine] - lo, res.jump_ids)
        for name in ("jump_w", "jump_norm_before", "jump_norm_after", "jump_times"):
            np.testing.assert_array_equal(getattr(grouped, name)[mine], getattr(res, name))
    assert np.all(grouped.death_times[bounds[doomed]:bounds[doomed + 1]] <= config.dt_max)
    assert len(solo[doomed].slices[0.05][0]) == 0


def test_run_cohort_rejects_groups_without_a_key_each(params):
    keys = [StreamKey(seed=18, lineage=("grp", g)) for g in range(2)]
    with pytest.raises(DomainError):
        run_cohort(np.zeros((4, 1)), np.full(4, 2.0), params, _boxed_config(), 0.05, keys,
                   groups=(0, 1, 2, 4))


def test_survival_estimate_small_n_flag(params, monkeypatch):
    monkeypatch.setattr(qsd, "_N_BOOTSTRAP", 40)
    config = _boxed_config()
    est = estimate_lambda0_survival((np.zeros(1), 1.5), params, config,
                                    StreamKey(seed=9, lineage=("surv",)),
                                    n_paths=400, horizon=4.0)
    assert est.flags and "1000" in est.flags[0]
    assert est.lambda0 > 0.0
    assert np.all(np.diff(est.survivors) <= 0)
    assert est.ci95[0] < est.lambda0 < est.ci95[1]
    assert 0.0 < est.r_squared <= 1.0
    assert est.n_paths == 400


def test_estimate_eta_refined(tiny_fv, params):
    config = _boxed_config()
    eta = estimate_eta(tiny_fv.alpha, tiny_fv.lambda0, params, config,
                       StreamKey(seed=11, lineage=("eta1",)), t_eval=1.0,
                       replicates=150, nodes=(5, 4))
    assert eta.iterations_used >= 2
    assert eta.values.shape == (5, 4)
    assert np.all(np.isfinite(eta.values))
    assert np.all(eta.values >= 0.0)
    assert eta.max_value > 0.0
    assert np.all(eta.stderr >= 0.0)
    # normalization: <alpha, eta> == 1 under the same interpolant
    g = tiny_fv.alpha.grid
    xc = np.repeat(g.x_centers, g.ny)[:, None]
    yc = np.tile(g.y_centers, g.nx)
    inner = float(np.dot(tiny_fv.alpha.masses.ravel(), eta(xc, yc)))
    assert inner == pytest.approx(1.0, rel=1e-9)
    # nodes at the hostile far edge have no survivors and eta pinned to zero
    zero_nodes = eta.survivors_t1 == 0
    assert zero_nodes.shape == (5, 4)
    assert zero_nodes.any()
    assert np.all(eta.values[zero_nodes] == 0.0)
    z = eta.consistency_z()
    assert z.shape == (5, 4)
    assert np.all(np.isfinite(z))
    # interpolation clamps at the node hull
    far = eta(np.array([[99.0]]), np.array([2.0]))
    edge = eta(np.array([[eta.x_nodes[-1]]]), np.array([2.0]))
    assert far == pytest.approx(edge)


def test_estimate_eta_and_balance_reject_what_they_cannot_compute(tiny_fv, params):
    config = _boxed_config()
    args = (tiny_fv.alpha, tiny_fv.lambda0)
    key = StreamKey(seed=12, lineage=("eta_guard",))
    # the node interpolant and the J1 cache read only the first x coordinate
    planar = default_params(dim=2)
    with pytest.raises(UnsupportedModelError):
        estimate_eta(*args, planar, config, key)
    with pytest.raises(UnsupportedModelError):
        balance_residual(planar, SimConfig(), key)


_EMPTY_SIZES = {
    "cohort_horizon": lambda a, p, c, k: run_cohort(np.zeros((2, 1)), np.full(2, 2.0), p, c,
                                                     0.0, k),
    "eta_t_eval": lambda a, p, c, k: estimate_eta(a.alpha, a.lambda0, p, c, k, t_eval=-1.0),
    "eta_replicates": lambda a, p, c, k: estimate_eta(a.alpha, a.lambda0, p, c, k,
                                                      replicates=0),
    "survival_paths": lambda a, p, c, k: estimate_lambda0_survival("reference", p, c, k,
                                                                   n_paths=0),
    "survival_horizon": lambda a, p, c, k: estimate_lambda0_survival("reference", p, c, k,
                                                                     horizon=0.0),
    # the fit grid starts at t = 0.25; a shorter run would fit past its end
    "survival_short_horizon": lambda a, p, c, k: estimate_lambda0_survival(
        "reference", p, c, k, horizon=0.25),
    "q_walkers": lambda a, p, c, k: conditioned_marginal(a.alpha, _flat_eta(), p, c, k,
                                                         n_walkers=0),
    # 0.02 rounds to zero macro steps of qprocess_delta 0.05
    "q_horizon": lambda a, p, c, k: conditioned_marginal(a.alpha, _flat_eta(), p, c, k,
                                                         horizon=0.02),
    "slice_dt": lambda a, p, c, k: convergence_curve(relaxed_start(p, c), a.alpha, p, c, k,
                                                     slice_dt=0.0),
    "t_max": lambda a, p, c, k: convergence_curve(relaxed_start(p, c), a.alpha, p, c, k,
                                                  t_max=0.0),
    "collect": lambda a, p, c, k: balance_residual(p, SimConfig(), k, collect=0.5),
    "fv_window": lambda a, p, c, k: fleming_viot(p, c, k, window=0.0),
    "family_boxes": lambda a, p, c, k: truncation_family(p, c, k, Ls=()),
}


@pytest.mark.parametrize("name", sorted(_EMPTY_SIZES))
def test_estimators_reject_sizes_that_leave_nothing_to_compute(tiny_fv, params, monkeypatch,
                                                               name):
    def stepper(*args, **kwargs):
        raise AssertionError("the estimator stepped before rejecting its size")

    monkeypatch.setattr(qsd, "_Stepper", stepper)
    with pytest.raises(DomainError):
        _EMPTY_SIZES[name](tiny_fv, params, _boxed_config(), StreamKey(seed=21, lineage=(name,)))


def _per_node_eta(alpha, lambda0, params, config, key, t_eval, replicates, nodes):
    """estimate_eta written node by node, with a dense eigensolve: the
    node-to-node matrix column by column, its Perron vector from
    np.linalg.eig (reference for the sparse matrix and ARPACK)."""
    xn, yn = eta_node_grid(alpha.grid, *nodes)
    gx, gy = len(xn), len(yn)
    n, R, t2 = gx * gy, replicates, 2.0 * t_eval
    ends = {t_eval: [None] * n, t2: [None] * n}
    for b0 in range(0, n, qsd._ETA_BATCH_NODES):
        batch = range(b0, min(b0 + qsd._ETA_BATCH_NODES, n))
        x0 = np.zeros((len(batch) * R, params.dim))
        y0 = np.empty(len(batch) * R)
        for bi, node in enumerate(batch):
            x0[bi * R:(bi + 1) * R, 0] = xn[node // gy]
            y0[bi * R:(bi + 1) * R] = yn[node % gy]
        res = run_cohort(x0, y0, params, config, t2, key.child("batch", b0),
                         record_slices=(t_eval, t2))
        for t, store in ends.items():
            live, lx, ly = res.slices[t]
            for bi, node in enumerate(batch):
                sel = live // R == bi
                store[node] = (lx[sel], ly[sel])
    g = alpha.grid
    cx, cy = np.repeat(g.x_centers, g.ny)[:, None], np.tile(g.y_centers, g.nx)

    def normalized(v):
        inner = float(np.sum(alpha.masses.ravel() * _bilinear(xn, yn, v.reshape(gx, gy), cx, cy)))
        return v / inner, inner

    def node_sums(v, store, power=1):
        vals = v.reshape(gx, gy)
        return np.array([np.sum(_bilinear(xn, yn, vals, lx, ly) ** power) for lx, ly in store])

    # column m: every node's endpoint sum of the interpolant of node m's indicator
    W = np.column_stack([node_sums(np.eye(1, n, m)[0], ends[t_eval]) for m in range(n)])
    w, right = np.linalg.eig(W)
    perron = right[:, np.argmax(w.real)].real
    vals = normalized(W @ (perron / perron[np.argmax(np.abs(perron))]))[0]
    out = {"values": vals, "survivors_t1": np.array([len(ly) for _, ly in ends[t_eval]])}
    for name, t in (("stderr", t_eval), ("stderr_t2", t2)):
        m, m2 = node_sums(vals, ends[t]) / R, node_sums(vals, ends[t], 2) / R
        out[name] = np.sqrt(np.maximum(m2 - m * m, (0.5 / R) ** 2) / R)
    out["stderr"] *= np.exp(lambda0 * t_eval)
    out["values_t2"], inner2 = normalized(m)  # m of the last horizon, t2
    out["stderr_t2"] = out["stderr_t2"] / inner2
    return out


# 64 nodes: a full batch and a partial one, which share one cohort call,
# against the reference's one run per batch; 2 x 2, the smallest node grid,
# is an eigenproblem of size 4 for ARPACK
@pytest.mark.parametrize("nodes", [(8, 8), (2, 2)])
def test_estimate_eta_perron_vector_matches_dense_per_node_reference(tiny_fv, params, nodes):
    config = _boxed_config()
    args = (tiny_fv.alpha, tiny_fv.lambda0, params, config,
            StreamKey(seed=11, lineage=("eta1",)))
    kw = dict(t_eval=1.0, replicates=150, nodes=nodes)
    assert qsd._ETA_BATCH_NODES < 64 <= qsd._ETA_CALL_ROWS // 150
    eta = estimate_eta(*args, **kw)
    ref = _per_node_eta(*args, **kw)
    assert eta.iterations_used >= 2  # ARPACK's applications of W1, and the last one
    np.testing.assert_array_equal(eta.survivors_t1.ravel(), ref["survivors_t1"])
    for name in ("values", "stderr", "values_t2", "stderr_t2"):
        want = ref[name]
        np.testing.assert_allclose(getattr(eta, name).ravel(), want, rtol=1e-9,
                                   atol=1e-9 * want.max(), err_msg=name)


def test_estimate_eta_arpack_failure_raises_numeric_error(tiny_fv, params, monkeypatch):
    # the node matrices here are too small to exhaust ARPACK's restarts
    def stalled(A, k, v0, maxiter):
        A.matvec(v0)
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((A.shape[0], 0)))

    monkeypatch.setattr(oracle, "eigs", stalled)
    with pytest.raises(NumericError, match="ARPACK .* for eta") as info:
        estimate_eta(tiny_fv.alpha, tiny_fv.lambda0, params, _boxed_config(),
                     StreamKey(seed=11, lineage=("eta1",)), t_eval=1.0, replicates=150,
                     nodes=(5, 4))
    assert info.value.diagnostics["solves"] == 1


def test_estimate_eta_multi_batch_is_frozen(tiny_fv, params):
    """SHA-256 of a two-batch estimate_eta at a fixed key (numpy 2.4.6).

    120 nodes of 30 replicates are two batches, which share one cohort call;
    any change to their draws, owners or Perron solve moves the digest.
    """
    eta = estimate_eta(tiny_fv.alpha, tiny_fv.lambda0, params, _boxed_config(),
                       StreamKey(seed=47, lineage=("eta_frozen",)), t_eval=0.5,
                       replicates=30, nodes=(12, 10))
    h = hashlib.sha256()
    for a in (eta.values, eta.stderr, eta.values_t2, eta.stderr_t2, eta.survivors_t1,
              eta.survivors_t2, np.array([eta.iterations_used])):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == "ee89b9e8d618788b51d63753edcc799ed8c10369bfb5e35edcd148ede779ffae"


def _flat_eta(level=1.0):
    xn = np.array([-4.0, 4.0])
    yn = np.array([1e-3, 4.0])
    vals = np.full((2, 2), level)
    zeros = np.zeros((2, 2))
    return EtaEstimate(x_nodes=xn, y_nodes=yn, values=vals, stderr=zeros,
                       survivors_t1=np.ones((2, 2), dtype=np.int64),
                       survivors_t2=np.ones((2, 2), dtype=np.int64),
                       values_t2=vals, stderr_t2=zeros)


def test_beta_from_flat_eta_is_alpha(tiny_fv):
    beta = beta_from(tiny_fv.alpha, _flat_eta(2.0))
    np.testing.assert_allclose(beta.masses, tiny_fv.alpha.masses, rtol=1e-12)


def test_beta_from_disjoint_support_raises(tiny_fv):
    eta = _flat_eta(0.0)
    with pytest.raises(DomainError):
        beta_from(tiny_fv.alpha, eta)


def test_relaxed_start_caps_at_ceiling(params):
    x0, y0 = relaxed_start(params, _boxed_config())
    assert x0.shape == (1,) and np.all(x0 == 0.0)
    assert y0 == pytest.approx(0.9 * 4.0)
    x0u, y0u = relaxed_start(params, SimConfig())
    assert y0u == pytest.approx(8.916099781646, abs=1e-6)


def _curve(tv, se=0.01, floor=None):
    tv = np.asarray(tv, dtype=float)
    if floor is None:
        floor = float(tv[-2:].mean())
    return ConvergenceCurve(t=np.arange(1.0, len(tv) + 1.0),
                            tv_mean=tv, tv_se=np.full(len(tv), se),
                            gamma_hat=0.5, gamma_se=0.05, r_squared=0.95,
                            floor=floor)


def test_convergence_decay_end():
    c = _curve([0.8, 0.4, 0.2, 0.1, 0.05, 0.05, 0.06, 0.05])
    # first slice within one SE of the floor
    assert c.decay_end() == 4
    # never reaches the floor: falls back to the last index
    c2 = _curve([0.8, 0.6, 0.4, 0.3], floor=0.01)
    assert c2.decay_end() == 3


def test_monotone_violation_rate_ignores_plateau_noise():
    clean = _curve([0.8, 0.4, 0.2, 0.1, 0.05, 0.06, 0.05, 0.06])
    assert clean.monotone_violation_rate() == 0.0
    # a genuine rise during the decay counts
    bumpy = _curve([0.8, 0.9, 0.4, 0.2, 0.05, 0.05])
    assert bumpy.monotone_violation_rate() == pytest.approx(0.25)
    # a rise after the plateau started does not
    late = _curve([0.8, 0.4, 0.1, 0.05, 0.2, 0.05], floor=0.05)
    assert late.decay_end() == 3
    assert late.monotone_violation_rate() == 0.0


def test_convergence_curve_is_frozen(tiny_fv, params):
    """SHA-256 of a small convergence curve at a fixed key (numpy 2.4.6).

    Three 60-particle replicates from relaxed_start against the tiny FV
    alpha; any change to the replicates' draws moves the digest.
    """
    curve = convergence_curve(relaxed_start(params, _boxed_config()), tiny_fv.alpha, params,
                              _boxed_config(), StreamKey(seed=43, lineage=("conv",)),
                              n_replicates=3, n_particles=60, t_max=8.0)
    h = hashlib.sha256()
    for a in (curve.tv_mean, curve.tv_se,
              np.array([curve.gamma_hat, curve.r_squared, curve.floor]),
              np.array([curve.bound_exceeded])):
        h.update(np.ascontiguousarray(a).tobytes())
    assert np.isfinite(curve.gamma_hat)
    assert h.hexdigest() == "a57f1bda9e4dfbcdb45c79a9e60d23fa6bb5c410a7f6bd28b67daed963c54a80"


@pytest.mark.parametrize("n_replicates,n_particles", [(1, 60), (3, 1)])
def test_convergence_curve_needs_two_replicates_of_two(tiny_fv, params, n_replicates,
                                                       n_particles):
    with pytest.raises(DomainError):
        convergence_curve(relaxed_start(params, _boxed_config()), tiny_fv.alpha, params,
                          _boxed_config(), StreamKey(seed=44, lineage=("conv",)),
                          n_replicates=n_replicates, n_particles=n_particles, t_max=2.0)


def test_stepper_extinction_names_the_group(params):
    # group 1 starts just above the floor, where the size drift is steeply
    # negative, so it dies out inside window one while group 0 lives on
    x = np.zeros((60, 1))
    y = np.where(np.arange(60) < 40, 2.0, 1.002e-3)
    key = StreamKey(seed=2, lineage=("die",))
    fv = qsd._Stepper(params, _boxed_config(), x, y, [key.child("g", 0), key.child("g", 1)],
                      groups=(0, 40, 60), resample="rs")
    with pytest.raises(MassExtinctionError, match="group 1") as err:
        fv.step()
    assert err.value.group == 1 and err.value.time == 0.0


def test_balance_report_contract(params, monkeypatch):
    monkeypatch.setattr(qsd, "_BALANCE_BLOCKS", 4)
    rep = balance_residual(params, SimConfig(), StreamKey(seed=13, lineage=("bal",)),
                           n_particles=40, burn=2.0, collect=6.0)
    assert rep.v == pytest.approx(params.v)
    assert rep.rhs > 0.0
    assert rep.mc_stderr > 0.0
    assert np.isfinite(rep.sigmas)
    assert rep.n_samples == 12 * 40
    assert 1 <= rep.n_blocks <= 4


def test_balance_residual_is_frozen(params):
    """SHA-256 of a small untruncated balance run at a fixed key (numpy 2.4.6).

    40 particles from relaxed_start, 12 samples; any change to the
    ensemble's draws or resampling moves the digest.
    """
    rep = balance_residual(params, SimConfig(), StreamKey(seed=15, lineage=("bal_frozen",)),
                           n_particles=40, burn=2.0, collect=6.0)
    assert _digest(np.array([rep.rhs, rep.residual, rep.mc_stderr]),
                   np.array([rep.n_samples, rep.n_blocks, rep.bound_exceeded])) == (
        "5f3d8d9d56eab05f9d2d5740f3091d916365e0659b3ee92cc7e27b5971daeee9")


def test_balance_zero_flux_control(params, monkeypatch):
    # without mutation the jump flux vanishes identically, so the identity
    # residual equals the environment speed exactly
    monkeypatch.setattr(qsd, "_BALANCE_BLOCKS", 3)
    quiet = default_params(m_nu=0.0)
    rep = balance_residual(quiet, SimConfig(), StreamKey(seed=14, lineage=("bal0",)),
                           n_particles=30, burn=1.0, collect=3.0)
    assert rep.rhs == 0.0
    assert rep.residual == quiet.v


def test_conditioned_marginal_flat_eta(params):
    config = _boxed_config()
    grid = HistGrid.for_box(4.0, y_lo=1e-3, nx=6, ny=5, dim=1)
    masses = np.zeros(grid.shape)
    masses[2, 3] = 1.0
    start = EmpiricalMeasure(grid=grid, masses=masses)
    eta = _flat_eta(1.0)
    key = StreamKey(seed=12, lineage=("cm",))
    x1, y1, stats1 = conditioned_marginal(start, eta, params, config, key,
                                          n_walkers=30, horizon=1.0)
    x2, y2, stats2 = conditioned_marginal(start, eta, params, config, key,
                                          n_walkers=30, horizon=1.0)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert stats1 == stats2
    # flat weight never exceeds its own ceiling
    assert stats1["ceiling_violations"] == 0
    assert stats1["max_attempt_rounds"] >= 1
    assert x1.shape == (30, 1) and y1.shape == (30,)
    assert np.all((y1 > 1e-3) & (y1 < 4.0))
    assert np.all(np.abs(x1[:, 0]) < 4.0)


def _sloped_eta():
    """A 3 x 3 eta that falls toward the floor and the box edges, so some
    surviving candidates are rejected."""
    xn = np.array([-4.0, 0.0, 4.0])
    yn = np.array([1e-3, 1.0, 4.0])
    vals = np.array([[0.1, 0.4, 0.2], [0.3, 1.0, 0.5], [0.1, 0.4, 0.2]])
    zeros = np.zeros((3, 3))
    return EtaEstimate(x_nodes=xn, y_nodes=yn, values=vals, stderr=zeros,
                       survivors_t1=np.ones((3, 3), dtype=np.int64),
                       survivors_t2=np.ones((3, 3), dtype=np.int64),
                       values_t2=vals, stderr_t2=zeros)


def test_conditioned_marginal_is_frozen(params):
    """SHA-256 of a small conditioned ensemble at a fixed key (numpy 2.4.6).

    40 walkers, 20 macro steps against a sloped eta; any change to the
    candidates' window draws or acceptance uniforms moves the digest.
    """
    grid = HistGrid.for_box(4.0, y_lo=1e-3, nx=6, ny=5, dim=1)
    masses = np.zeros(grid.shape)
    masses[1:5, 1:4] = 1.0
    start = EmpiricalMeasure(grid=grid, masses=masses / masses.sum())
    x, y, stats = conditioned_marginal(start, _sloped_eta(), params, _boxed_config(),
                                       StreamKey(seed=16, lineage=("cm_frozen",)),
                                       n_walkers=40, horizon=1.0)
    assert stats["max_attempt_rounds"] >= 32  # some walker needed a second round
    assert _digest(x, y, np.frombuffer(json.dumps(stats, sort_keys=True).encode(),
                                       dtype=np.uint8)) == (
        "757ea21d995aa69a551a1fdc4812ff2fd486bc3fe8d5e8d96c6aafcf591af91d")


def test_conditioned_marginal_sums_bound_exceeded(params, monkeypatch):
    # a thinning slack just above 1 lets the jump-rate bound be exceeded
    monkeypatch.setattr(cohort, "_SLACK", 1.01)
    config = _boxed_config()
    grid = HistGrid.for_box(4.0, y_lo=1e-3, nx=6, ny=5, dim=1)
    masses = np.zeros(grid.shape)
    masses[2, 3] = 1.0
    start = EmpiricalMeasure(grid=grid, masses=masses)
    key = StreamKey(seed=12, lineage=("cm",))
    x0, y0, stats0 = conditioned_marginal(start, _flat_eta(1.0), params, config, key,
                                          n_walkers=30, horizon=1.0)
    seen = []
    window = Engine.window

    def counting(self, *args):
        ev = window(self, *args)
        seen.append(ev.bound_exceeded)
        return ev

    monkeypatch.setattr(Engine, "window", counting)
    x1, y1, stats1 = conditioned_marginal(start, _flat_eta(1.0), params, config, key,
                                          n_walkers=30, horizon=1.0)
    assert stats1["bound_exceeded"] == sum(seen) > 0
    assert stats1 == stats0
    np.testing.assert_array_equal(x1, x0)
    np.testing.assert_array_equal(y1, y0)
