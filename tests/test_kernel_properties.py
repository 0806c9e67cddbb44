"""Property tests for the path-stepping kernel and the histogram grid."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptqsd.cohort import REASON_CODES, Engine, SimConfig
from adaptqsd.errors import DomainError
from adaptqsd.measure import HistGrid
from adaptqsd.model import default_params
from adaptqsd.rng import StreamKey, stream

_PARAMS = {
    "default": default_params(),
    "advantageous": default_params(fixation_family="advantageous_only"),
    "collapsing": default_params(r0=-4.0),
    "rescaled": default_params(fixation_family="rescaled_advantageous"),
}
_CONFIGS = {
    "boxed": SimConfig(truncation=4.0, truncation_y_low=1e-3),
    "boxed_floor": SimConfig(truncation=3.0),
    "free": SimConfig(),
    # untruncated, started just inside the guard at |x| = 40 (see _x_starts)
    "guarded": SimConfig(),
}


def _x_starts(name: str, gen, n: int, dim: int) -> np.ndarray:
    """Uniform inside the nearer |x| wall, or for "guarded" on the first axis
    within 0.04 of -40, the guard that the x drift moves toward."""
    config = _CONFIGS[name]
    if name == "guarded":
        x = np.zeros((n, dim))
        x[:, 0] = -config.x_guard * gen.uniform(0.999, 1.0 - 1e-6, n)
        return x
    x_lim = 0.95 * min(config.truncation or np.inf, config.x_guard) / np.sqrt(dim)
    return gen.uniform(-x_lim, x_lim, size=(n, dim))


@st.composite
def ensembles(draw):
    params = _PARAMS[draw(st.sampled_from(sorted(_PARAMS)))]
    name = draw(st.sampled_from(sorted(_CONFIGS)))
    config = _CONFIGS[name]
    n = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**31 - 1))
    gen = stream(StreamKey(seed=seed, lineage=("prop", "init")))
    y_top = config.y_top if config.y_top is not None else 5.0
    x = _x_starts(name, gen, n, 1)
    y = np.exp(gen.uniform(np.log(config.y_floor * 1.01), np.log(0.99 * y_top), size=n))
    # a share of the particles starts next to each kill level
    edge = gen.random(n)
    y = np.where(edge < 0.2, config.y_floor * gen.uniform(1.001, 1.5, n), y)
    y = np.where(edge > 0.8, y_top * gen.uniform(0.9, 0.999, n), y)
    alive = gen.random(n) < 0.8
    t0 = draw(st.floats(0.0, 100.0))
    dt = draw(st.floats(1e-3, 0.2))
    return params, config, x, y, alive, t0, dt, StreamKey(seed=seed, lineage=("prop", "w"))


@settings(max_examples=50, deadline=None)
@given(ensembles())
def test_window_invariants(case):
    params, config, x, y, alive, t0, dt, key = case
    x0, y0, alive0 = x.copy(), y.copy(), alive.copy()
    ev = Engine(params, config).window(x, y, alive, t0, dt, stream(key))

    # the dead stay dead and frozen
    dead0 = ~alive0
    assert not np.any(alive[dead0])
    np.testing.assert_array_equal(x[dead0], x0[dead0])
    np.testing.assert_array_equal(y[dead0], y0[dead0])

    # kills: only particles alive at t0, each once, timed inside the window
    assert len(np.unique(ev.kill_ids)) == len(ev.kill_ids)
    assert np.all(alive0[ev.kill_ids])
    np.testing.assert_array_equal(np.sort(ev.kill_ids), np.flatnonzero(alive0 & ~alive))
    tol = 1e-12 * max(1.0, t0 + dt)
    assert np.all((ev.kill_times >= t0 - tol) & (ev.kill_times <= t0 + dt + tol))
    assert np.all(np.diff(ev.kill_times) >= 0.0)
    # a particle killed on a y level is left on that level
    on_floor = ev.kill_ids[np.isin(ev.kill_codes, [REASON_CODES["extinct"],
                                                   REASON_CODES["trunc_y_low"]])]
    assert np.all(y[on_floor] == config.y_floor)
    assert np.all(y[ev.kill_ids[ev.kill_codes == REASON_CODES["trunc_y_top"]]] == config.y_top)

    # survivors strictly inside the domain
    surv = alive
    assert np.all(y[surv] > config.y_floor)
    if config.y_top is not None:
        assert np.all(y[surv] < config.y_top)
    x_wall = min(config.truncation or np.inf, config.x_guard)
    assert np.all(np.linalg.norm(x[surv], axis=1) < x_wall)

    # jumps: inside the window, by particles alive at t0, never more than proposed
    assert np.all(alive0[ev.jump_ids])
    assert np.all((ev.jump_times >= t0 - tol) & (ev.jump_times <= t0 + dt + tol))
    assert ev.n_proposals >= len(ev.jump_ids)


@settings(max_examples=50, deadline=None)
@given(ensembles())
def test_all_alive_window_equals_window_among_dead_rows(case):
    """The live rows alone (all alive, stepped in place) and the same rows
    among dead ones (gathered and scattered back) end in the same states and
    log the same events, mapped by row."""
    params, config, x, y, alive, t0, dt, key = case
    live = alive.nonzero()[0]
    if not len(live):
        return
    engine = Engine(params, config)
    xs, ys, als = x[live].copy(), y[live].copy(), np.ones(len(live), dtype=bool)
    x0, y0 = x.copy(), y.copy()
    ev = engine.window(x, y, alive, t0, dt, stream(key))
    one = engine.window(xs, ys, als, t0, dt, stream(key))

    np.testing.assert_array_equal(x[live], xs)
    np.testing.assert_array_equal(y[live], ys)
    np.testing.assert_array_equal(alive[live], als)
    dead = np.ones(len(y), dtype=bool)
    dead[live] = False
    np.testing.assert_array_equal(x[dead], x0[dead])
    np.testing.assert_array_equal(y[dead], y0[dead])
    np.testing.assert_array_equal(ev.kill_ids, live[one.kill_ids])
    np.testing.assert_array_equal(ev.jump_ids, live[one.jump_ids])
    for field in ("kill_times", "kill_codes", "jump_times", "jump_w", "jump_x_before",
                  "n_proposals", "bound_exceeded"):
        np.testing.assert_array_equal(getattr(ev, field), getattr(one, field))


_GROUP_PARAMS = {**_PARAMS, "d2": default_params(dim=2)}


@st.composite
def grouped_ensembles(draw):
    """G row groups (some empty, some started on the floor so they die out)."""
    params = _GROUP_PARAMS[draw(st.sampled_from(sorted(_GROUP_PARAMS)))]
    name = draw(st.sampled_from(sorted(_CONFIGS)))
    config = _CONFIGS[name]
    seed = draw(st.integers(0, 2**31 - 1))
    sizes = draw(st.lists(st.integers(0, 24), min_size=1, max_size=5))
    doomed = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    gen = stream(StreamKey(seed=seed, lineage=("group", "init")))
    n, dim = sum(sizes), params.dim
    y_top = config.y_top if config.y_top is not None else 5.0
    x = _x_starts(name, gen, n, dim)
    y = np.exp(gen.uniform(np.log(config.y_floor * 1.01), np.log(0.99 * y_top), size=n))
    y = np.where(gen.random(n) > 0.8, y_top * gen.uniform(0.9, 0.999, n), y)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    y = np.where(np.asarray(doomed)[owner], config.y_floor * 1.002, y)
    alive = gen.random(n) < 0.9
    dt = draw(st.floats(1e-3, 0.2))
    return (params, config, x, y, alive, dt, np.concatenate([[0], np.cumsum(sizes)]),
            StreamKey(seed=seed, lineage=("group", "w")))


@settings(max_examples=60, deadline=None)
@given(grouped_ensembles())
def test_grouped_window_equals_solo_windows(case):
    """Three grouped windows equal three windows of each group alone: states
    and each group's kill and jump events, in order."""
    params, config, x, y, alive, dt, groups, key = case
    engine = Engine(params, config)
    G = len(groups) - 1
    solo = [(x[a:b].copy(), y[a:b].copy(), alive[a:b].copy()) for a, b in zip(groups, groups[1:])]
    for k in range(3):
        keys = [key.child("g", g, "w", k) for g in range(G)]
        ev = engine.window(x, y, alive, k * dt, dt, [stream(kk) for kk in keys], groups)
        props = exceeded = 0
        for g, (a, b) in enumerate(zip(groups, groups[1:])):
            xs, ys, als = solo[g]
            one = engine.window(xs, ys, als, k * dt, dt, stream(keys[g]))
            props, exceeded = props + one.n_proposals, exceeded + one.bound_exceeded
            np.testing.assert_array_equal(x[a:b], xs)
            np.testing.assert_array_equal(y[a:b], ys)
            np.testing.assert_array_equal(alive[a:b], als)
            mine = (ev.kill_ids >= a) & (ev.kill_ids < b)
            np.testing.assert_array_equal(ev.kill_ids[mine] - a, one.kill_ids)
            np.testing.assert_array_equal(ev.kill_times[mine], one.kill_times)
            np.testing.assert_array_equal(ev.kill_codes[mine], one.kill_codes)
            mine = (ev.jump_ids >= a) & (ev.jump_ids < b)
            np.testing.assert_array_equal(ev.jump_ids[mine] - a, one.jump_ids)
            for field in ("jump_times", "jump_w", "jump_x_before"):
                np.testing.assert_array_equal(getattr(ev, field)[mine], getattr(one, field))
        assert (ev.n_proposals, ev.bound_exceeded) == (props, exceeded)


def test_grouped_window_rejects_bad_offsets():
    engine = Engine(default_params(), _CONFIGS["boxed"])
    x, y, alive = np.zeros((4, 1)), np.ones(4), np.ones(4, dtype=bool)
    gens = [np.random.default_rng(0), np.random.default_rng(1)]
    for groups in [(0, 4), (0, 2, 3), (0, 5, 4), (1, 2, 4)]:
        with pytest.raises(DomainError):
            engine.window(x, y, alive, 0.0, 0.01, gens, groups)


def _searchsorted_cells(grid, x, y):
    """Reference binning: searchsorted per axis, the top edge closed."""
    idx = np.zeros(len(y), dtype=np.int64)
    ok = np.ones(len(y), dtype=bool)
    for v, edges in [(x[:, k], grid.x_edges) for k in range(grid.dim)] + [(y, grid.y_edges)]:
        n = len(edges) - 1
        i = np.searchsorted(edges, v, side="right") - 1
        i[v == edges[-1]] = n - 1
        ok &= (i >= 0) & (i < n)
        idx = idx * n + np.clip(i, 0, n - 1)
    return np.where(ok, idx, -1)


def _around(edges):
    """Every edge and its two neighbouring floats."""
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), nx=st.integers(2, 12), ny=st.integers(2, 12),
       L=st.floats(0.5, 6.0), y_lo=st.floats(1e-4, 0.5), seed=st.integers(0, 2**31 - 1))
def test_cell_index_agrees_with_histogramdd(dim, nx, ny, L, y_lo, seed):
    grid = HistGrid.for_box(L, y_lo=y_lo, y_hi=y_lo + L, nx=nx, ny=ny, dim=dim)
    gen = np.random.default_rng(seed)
    n = 400
    # points inside, outside, on every edge and one float either side of it,
    # plus y = 0, negative y and NaN in each coordinate
    x = gen.uniform(-1.2 * L, 1.2 * L, size=(n, dim))
    y = gen.uniform(0.5 * y_lo, 1.2 * (y_lo + L), size=n)
    for k in range(dim):
        special = np.append(_around(grid.x_edges), np.nan)
        x[gen.choice(n, len(special), replace=False), k] = special
    special = np.append(_around(grid.y_edges), [0.0, -0.0, -y_lo, -1.0, np.nan])
    y[gen.choice(n, len(special), replace=False)] = special

    idx = grid.cell_index(x, y)
    np.testing.assert_array_equal(idx, _searchsorted_cells(grid, x, y))
    finite = np.isfinite(y) & np.all(np.isfinite(x), axis=1)
    assert np.all(idx[~finite] == -1)
    inside = idx >= 0
    counts = np.bincount(idx[inside], minlength=grid.n_cells).reshape(grid.shape)
    reference, _ = np.histogramdd(np.column_stack([x[finite], y[finite]]),
                                  bins=[grid.x_edges] * dim + [grid.y_edges])
    np.testing.assert_array_equal(counts, reference)
    np.testing.assert_array_equal(grid.histogram(x, y), reference)


def test_grid_edges_are_read_only():
    grid = HistGrid.for_box(4.0, y_lo=1e-3, dim=2)
    assert grid.x_edges is grid.x_edges and grid.y_edges is grid.y_edges
    with pytest.raises(ValueError):
        grid.x_edges[0] = 0.0
    with pytest.raises(ValueError):
        grid.y_edges[:] = 1.0
