"""Process sharding (shard.sharded): the CPU count changes no output bit,
errors cross the pipe intact, and no worker outlives a call."""
from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from adaptqsd import cli, qsd, shard
from adaptqsd.cohort import Engine
from adaptqsd.errors import MassExtinctionError, NumericError
from adaptqsd.measure import HistGrid
from adaptqsd.model import default_params
from adaptqsd.pathsim import SimConfig
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
    return qsd.fleming_viot(params, _boxed_config(), StreamKey(seed=41, lineage=("tinyfv",)),
                            n_particles=120, window=6.0, burn_in=4.0, hist_grid=grid)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(shard, "_cpu_count", lambda: n)


@pytest.fixture(autouse=True)
def no_leftover_process():
    yield
    assert mp.active_children() == []


def test_cpu_count_reads_the_affinity_mask():
    assert shard._cpu_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_back_in_unit_order_from_one_process_per_cpu(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    out = shard.sharded(lambda part: [(u, os.getpid()) for u in part], list(range(7)))
    assert [u for u, _ in out] == list(range(7))
    pids = [pid for _, pid in out]
    # the caller computes shard 0; shard s of n holds units s, s + n, ...
    assert all(pid == os.getpid() for pid in pids[::cpus])
    assert len(set(pids)) == cpus
    for s in range(cpus):
        assert len(set(pids[s::cpus])) == 1


def test_one_unit_runs_in_the_caller(monkeypatch):
    _cpus(monkeypatch, 3)
    assert shard.sharded(lambda part: [os.getpid() for _ in part], ["only"]) == [os.getpid()]


def _eta_digest(tiny_fv, params):
    eta = qsd.estimate_eta(tiny_fv.alpha, tiny_fv.lambda0, params, _boxed_config(),
                           StreamKey(seed=51, lineage=("eta_shard",)), t_eval=0.5,
                           replicates=20, nodes=(6, 5))
    return _digest(eta.values, eta.stderr, eta.values_t2, eta.stderr_t2, eta.survivors_t1,
                   eta.survivors_t2, np.array([eta.iterations_used]))


# 30 nodes in batches of 4: eight batches, the last one partial. Call rows
# 240 step three batches per run_cohort, 1 steps one batch per call.
@pytest.mark.parametrize("call_rows", [240, 1])
def test_estimate_eta_is_bit_identical_on_any_cpu_count(tiny_fv, params, monkeypatch,
                                                        call_rows):
    monkeypatch.setattr(qsd, "_ETA_BATCH_NODES", 4)
    monkeypatch.setattr(qsd, "_ETA_CALL_ROWS", call_rows)
    digests = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        digests.append(_eta_digest(tiny_fv, params))
    assert digests[1] == digests[2] == digests[0]


def test_estimate_eta_keeps_its_call_grouping_within_a_shard(tiny_fv, params, monkeypatch):
    # one CPU: every run_cohort runs in this process, so all calls are seen
    monkeypatch.setattr(qsd, "_ETA_BATCH_NODES", 4)
    monkeypatch.setattr(qsd, "_ETA_CALL_ROWS", 240)
    _cpus(monkeypatch, 1)
    groups = []
    real = qsd.run_cohort

    def recording(*args, **kwargs):
        groups.append(len(args[5]))
        return real(*args, **kwargs)

    monkeypatch.setattr(qsd, "run_cohort", recording)
    _eta_digest(tiny_fv, params)
    assert groups == [3, 3, 2]


def _curve(tiny_fv, params, config):
    return qsd.convergence_curve(qsd.relaxed_start(params, config), tiny_fv.alpha, params,
                                 config, StreamKey(seed=43, lineage=("conv",)),
                                 n_replicates=3, n_particles=60, t_max=4.0)


def test_convergence_curve_is_bit_identical_on_any_cpu_count(tiny_fv, params, monkeypatch):
    digests = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        c = _curve(tiny_fv, params, _boxed_config())
        digests.append(_digest(c.tv_mean, c.tv_se, np.array([c.gamma_hat, c.r_squared, c.floor]),
                               np.array([c.bound_exceeded])))
    assert digests[1] == digests[2] == digests[0]


def test_sharded_bound_exceeded_sum_equals_the_serial_one(tiny_fv, params, monkeypatch):
    # a thinning slack just above 1 lets the jump-rate bound be exceeded
    config = _boxed_config(slack=1.01)
    _cpus(monkeypatch, 1)
    seen = []
    window = Engine.window

    def counting(self, *args):
        ev = window(self, *args)
        seen.append(ev.bound_exceeded)
        return ev

    with monkeypatch.context() as m:
        m.setattr(Engine, "window", counting)
        serial = _curve(tiny_fv, params, config).bound_exceeded
    assert serial == sum(seen) > 0
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        assert _curve(tiny_fv, params, config).bound_exceeded == serial


def test_truncation_family_is_bit_identical_on_any_cpu_count(params, monkeypatch):
    # truncation_family always burns in "auto"; a low cap keeps the runs short
    monkeypatch.setattr(qsd, "_BURN_IN_CAP", 6.0)
    digests = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        fam = qsd.truncation_family(params, _boxed_config(), StreamKey(seed=5, lineage=("tf",)),
                                    Ls=(4.0, 3.0, 3.5), n_particles=60, window=2.0, nx=8, ny=8)
        digests.append(_digest(fam.L, fam.lambda_hat, fam.lambda_se, fam.tv_to_largest))
    assert digests[1] == digests[2] == digests[0]


def _fail_in_worker(part):
    if 1 in part:
        raise NumericError("worker failed", diagnostics={"unit": 1, "count": 3})
    return list(part)


def test_worker_numeric_error_reaches_the_caller_with_its_diagnostics(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(NumericError, match="worker failed") as err:
        shard.sharded(_fail_in_worker, [0, 1, 2, 3])
    assert err.value.diagnostics == {"unit": 1, "count": 3}


def test_worker_mass_extinction_reaches_the_caller_with_time_and_group(params, monkeypatch):
    # unit 1's group 1 starts just above the floor and dies out in window one
    def step_doomed(part):
        for unit in part:
            if unit == 1:
                x = np.zeros((60, 1))
                y = np.where(np.arange(60) < 40, 2.0, 1.002e-3)
                key = StreamKey(seed=2, lineage=("die",))
                fv = qsd._Stepper(params, _boxed_config(), x, y,
                                  [key.child("g", 0), key.child("g", 1)],
                                  groups=(0, 40, 60), resample="rs")
                fv.step(t0=1.5)
        return list(part)

    _cpus(monkeypatch, 2)
    with pytest.raises(MassExtinctionError, match="group 1") as err:
        shard.sharded(step_doomed, [0, 1])
    assert err.value.group == 1 and err.value.time == 1.5


def test_caller_error_kills_and_joins_the_workers(monkeypatch):
    def caller_fails(part):
        if 0 in part:
            raise ValueError("caller failed")
        time.sleep(60.0)
        return list(part)

    _cpus(monkeypatch, 3)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="caller failed"):
        shard.sharded(caller_fails, [0, 1, 2])
    assert time.perf_counter() - t0 < 30.0
    assert mp.active_children() == []


def test_worker_that_dies_without_a_result_is_an_error(monkeypatch):
    def worker_exits(part):
        if 0 not in part:
            os._exit(3)
        return list(part)

    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        shard.sharded(worker_exits, [0, 1])


_ETA_ARGS = ["--set", "particles=40", "--set", "window=2.0", "--set", "burn_in=1.0",
             "--set", "nx=10", "--set", "ny=8", "--set", "eta_replicates=60",
             "--set", "eta_nodes_x=4", "--set", "eta_nodes_y=3", "--set", "eta_t_eval=0.5"]
_DIAG_ARGS = ["--set", "particles=20", "--set", "window=1.5", "--set", "burn_in=1.0",
              "--set", "nx=8", "--set", "ny=8", "--set", "conv_replicates=2",
              "--set", "conv_particles=40", "--set", "t_max=1.5",
              "--set", "slice_dt=0.5", "--set", "balance_particles=20",
              "--set", "balance_burn=1.0", "--set", "balance_collect=2.0",
              "--set", "L_list=[3.0,4.0]"]


@pytest.mark.parametrize("cmd,args", [("eta", _ETA_ARGS), ("diagnose", _DIAG_ARGS)])
def test_cli_artifacts_are_byte_identical_on_one_and_two_cpus(tmp_path, monkeypatch, cmd, args):
    # batches of 4 give the 12 eta nodes three batches to deal; a low
    # burn-in cap keeps the two truncation boxes short
    monkeypatch.setattr(qsd, "_ETA_BATCH_NODES", 4)
    monkeypatch.setattr(qsd, "_BURN_IN_CAP", 6.0)
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        assert cli.main([cmd, "--out", str(out)] + args) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] == runs[1]
