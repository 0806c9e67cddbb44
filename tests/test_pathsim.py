from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from adaptqsd.errors import DomainError
from adaptqsd.model import default_params
from adaptqsd.pathsim import ExitReason, SimConfig, simulate_path, simulate_q_path
from adaptqsd.rng import StreamKey


def test_simconfig_domain_checks():
    with pytest.raises(DomainError):
        SimConfig(dt_max=0.0)
    with pytest.raises(DomainError):
        SimConfig(y_ext=-0.1)
    with pytest.raises(DomainError):
        SimConfig(truncation=-1.0)
    with pytest.raises(DomainError):
        SimConfig(truncation=4.0, y_ext=5.0)
    with pytest.raises(DomainError):
        SimConfig(slack=1.0)
    with pytest.raises(DomainError):
        SimConfig(record_every=0)


def test_simconfig_derived_fields():
    free = SimConfig()
    assert free.y_top is None
    assert free.y_floor == free.y_ext
    assert free.x_guard == 40.0
    assert free.floor_reason is ExitReason.EXTINCT

    boxed = SimConfig(truncation=4.0)
    assert boxed.y_top == 4.0
    assert boxed.y_floor == 0.25  # default lower edge 1/L
    assert boxed.x_guard == 40.0
    assert boxed.floor_reason is ExitReason.LEFT_TRUNCATION

    pinned = SimConfig(truncation=4.0, truncation_y_low=1e-3)
    assert pinned.y_floor == 1e-3
    assert pinned.floor_reason is ExitReason.EXTINCT


def test_same_key_is_bit_reproducible():
    params = default_params()
    config = SimConfig(horizon=5.0)
    key = StreamKey(seed=17, lineage=("path",))
    a = simulate_path((np.zeros(1), 2.0), params, config, key)
    b = simulate_path((np.zeros(1), 2.0), params, config, key)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    assert len(a.jumps) == len(b.jumps)


def test_horizon_exit_records_endpoint():
    params = default_params()
    config = SimConfig(horizon=2.0)
    traj = simulate_path((np.zeros(1), 2.5), params, config,
                         StreamKey(seed=1, lineage=("hz",)))
    if traj.exit_reason is ExitReason.SURVIVED_HORIZON:
        assert traj.exit_time == 2.0
        assert traj.times[-1] == pytest.approx(2.0)
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.all(traj.y > 0.0)


def test_collapsing_population_goes_extinct():
    params = default_params(r0=-5.0)
    config = SimConfig(horizon=50.0)
    traj = simulate_path((np.zeros(1), 0.5), params, config,
                         StreamKey(seed=2, lineage=("die",)))
    assert traj.exit_reason is ExitReason.EXTINCT
    assert 0.0 < traj.exit_time < 50.0


def test_drift_into_truncation_boundary():
    # no mutations: x(t) = x(0) - v t e1 deterministically hits the wall
    params = default_params(m_nu=0.0)
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3, horizon=20.0)
    traj = simulate_path((np.array([-3.9]), 2.0), params, config,
                         StreamKey(seed=3, lineage=("wall",)))
    assert traj.exit_reason is ExitReason.LEFT_TRUNCATION
    assert traj.exit_time == pytest.approx(0.5, abs=1e-9)  # (4 - 3.9) / 0.2


def test_jump_log_is_consistent():
    params = default_params()
    config = SimConfig(horizon=20.0)
    traj = simulate_path((np.zeros(1), 2.5), params, config,
                         StreamKey(seed=4, lineage=("jumps",)))
    assert len(traj.jumps) > 0
    last_t = 0.0
    for j in traj.jumps:
        np.testing.assert_allclose(j.x_after, j.x_before + j.w, rtol=1e-15)
        assert j.t >= last_t
        last_t = j.t


def test_reconstruction_from_jump_log():
    params = default_params()
    config = SimConfig(horizon=10.0)
    for i in range(5):
        traj = simulate_path((np.zeros(1), 2.5), params, config,
                             StreamKey(seed=5, lineage=("rec", i)))
        for k in range(0, len(traj.times), 7):
            err = np.abs(traj.reconstruct_x(traj.times[k]) - traj.x[k]).max()
            assert err < 1e-10


def test_truncated_path_is_prefix_of_untruncated():
    # identical streams: the boxed run replays the free run until its exit
    params = default_params()
    key = StreamKey(seed=6, lineage=("prefix",))
    free = simulate_path((np.zeros(1), 2.0), params, SimConfig(horizon=30.0), key)
    boxed = simulate_path((np.zeros(1), 2.0), params,
                          SimConfig(horizon=30.0, truncation=4.0,
                                    truncation_y_low=1e-3), key)
    assert boxed.exit_reason in (ExitReason.LEFT_TRUNCATION, ExitReason.EXTINCT,
                                 ExitReason.SURVIVED_HORIZON)
    n = len(boxed.times) - 1  # final row may be the forced exit record
    np.testing.assert_allclose(boxed.times[:n], free.times[:n], rtol=0, atol=0)
    np.testing.assert_allclose(boxed.x[:n], free.x[:n], rtol=0, atol=0)
    np.testing.assert_allclose(boxed.y[:n], free.y[:n], rtol=0, atol=0)


def test_init_validation():
    params = default_params()
    boxed = SimConfig(truncation=4.0, truncation_y_low=1e-3)
    with pytest.raises(DomainError):
        simulate_path((np.zeros(1), 1e-4), params, boxed, StreamKey(seed=0))
    with pytest.raises(DomainError):
        simulate_path((np.zeros(1), 4.0), params, boxed, StreamKey(seed=0))
    with pytest.raises(DomainError):
        simulate_path((np.array([4.5]), 2.0), params, boxed, StreamKey(seed=0))
    with pytest.raises(DomainError):
        simulate_path((np.array([45.0]), 2.0), params, SimConfig(), StreamKey(seed=0))


def test_record_every_thins_samples():
    params = default_params(m_nu=0.0)
    dense = simulate_path((np.zeros(1), 2.5), params,
                          SimConfig(horizon=2.0),
                          StreamKey(seed=7, lineage=("thin",)))
    sparse = simulate_path((np.zeros(1), 2.5), params,
                           SimConfig(horizon=2.0, record_every=10),
                           StreamKey(seed=7, lineage=("thin",)))
    assert len(sparse.times) < len(dense.times) / 5
    # thinned rows are a subset of the dense rows
    assert set(np.round(sparse.times, 12)) <= set(np.round(dense.times, 12))


def test_n_coordinate_transform():
    params = default_params(sigma=2.0)
    traj = simulate_path((np.zeros(1), 1.5), params, SimConfig(horizon=0.5),
                         StreamKey(seed=8, lineage=("n",)))
    np.testing.assert_allclose(traj.n, traj.y**2, rtol=1e-14)  # sigma^2/4 = 1


def test_q_path_with_flat_weight_survives_horizon():
    params = default_params()
    config = SimConfig(horizon=1.0, qprocess_delta=0.1)
    flat = lambda x, y: np.ones(len(np.atleast_1d(y)))
    traj = simulate_q_path((np.zeros(1), 2.0), params, config,
                           StreamKey(seed=9, lineage=("q",)), flat, eta_max=1.0)
    assert traj.exit_reason is ExitReason.SURVIVED_HORIZON
    np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-9)
    assert traj.meta["q_ceiling_violations"] == 0
    assert traj.meta["q_attempt_rounds_max"] >= 1
    assert traj.meta["q_bound_exceeded"] >= 0


def test_q_path_reports_bound_exceeded():
    # a thinning slack just above 1 lets the jump-rate bound be exceeded
    params = default_params()
    flat = lambda x, y: np.ones(len(np.atleast_1d(y)))
    key = StreamKey(seed=9, lineage=("q",))
    loose = simulate_q_path((np.zeros(1), 2.0), params, SimConfig(horizon=1.0, slack=1.01),
                            key, flat, eta_max=1.0)
    assert loose.meta["q_bound_exceeded"] > 0


def test_q_path_rejects_zero_weight_start():
    params = default_params()
    config = SimConfig(horizon=1.0)
    zero = lambda x, y: np.zeros(len(np.atleast_1d(y)))
    with pytest.raises(DomainError):
        simulate_q_path((np.zeros(1), 2.0), params, config,
                        StreamKey(seed=10), zero, eta_max=1.0)


def test_q_path_jump_log_reconstructs_rows():
    params = default_params()
    config = SimConfig(horizon=3.0, qprocess_delta=0.1)
    flat = lambda x, y: np.ones(len(np.atleast_1d(y)))
    traj = simulate_q_path((np.zeros(1), 2.0), params, config,
                           StreamKey(seed=12, lineage=("qrec",)), flat, eta_max=1.0)
    assert len(traj.times) == 31
    assert len(traj.jumps) > 0
    for k in range(len(traj.times)):
        err = np.abs(traj.reconstruct_x(traj.times[k]) - traj.x[k]).max()
        assert err < 1e-10


def _digest(traj) -> str:
    h = hashlib.sha256()
    for a in (traj.times, traj.x, traj.y, [j.t for j in traj.jumps],
              [j.w for j in traj.jumps], [j.x_after for j in traj.jumps]):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(json.dumps(traj.meta, sort_keys=True).encode())
    h.update(traj.exit_reason.value.encode())
    return h.hexdigest()


def test_q_path_is_frozen():
    """SHA-256 of a conditioned path at a fixed key (numpy 2.4.6).

    The weight falls off in |x| and toward the floor, so candidates are
    rejected as well as accepted; the accepted jumps pin the candidates'
    absolute window start times.
    """
    params = default_params()
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3, horizon=3.0, qprocess_delta=0.1)
    sloped = lambda x, y: np.exp(-np.atleast_2d(x)[:, 0] ** 2) * y / (1.0 + y)
    traj = simulate_q_path((np.zeros(1), 2.0), params, config,
                           StreamKey(seed=19, lineage=("q_frozen",)), sloped, eta_max=1.0)
    assert len(traj.jumps) > 0
    assert _digest(traj) == "f79dedaf46df6248e44f2fb504bbf8e13782b9fbaa277f2b69b22718d92997dc"


def test_path_is_frozen():
    """SHA-256 of a boxed path at a fixed key (numpy 2.4.6).

    Window k draws from key.child("w", k), as in every estimator; any change
    to that lineage or to the window draws moves the digest.
    """
    config = SimConfig(truncation=4.0, truncation_y_low=1e-3, horizon=20.0, record_every=7)
    traj = simulate_path((np.zeros(1), 2.5), default_params(), config,
                         StreamKey(seed=20, lineage=("path_frozen",)))
    assert len(traj.jumps) > 0
    assert _digest(traj) == "1dff351ee22ac3e958207297e808e56bda37932fdc8429ad9592ad699f73932d"
