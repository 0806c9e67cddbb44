from __future__ import annotations

import numpy as np
import pytest

from adaptqsd.errors import DomainError
from adaptqsd.measure import EmpiricalMeasure, HistGrid, tv_distance
from adaptqsd.rng import StreamKey, stream


def _grid(nx=8, ny=6):
    return HistGrid.for_box(4.0, y_lo=1e-3, nx=nx, ny=ny, dim=1)


def _from_points(grid, x, y):
    """Empirical measure of equally weighted points, binned on grid."""
    return EmpiricalMeasure(grid=grid, masses=grid.histogram(x, y))


def test_grid_edges_and_centers():
    g = _grid()
    assert g.x_edges[0] == -4.0 and g.x_edges[-1] == 4.0
    assert g.y_edges[0] == pytest.approx(1e-3) and g.y_edges[-1] == pytest.approx(4.0)
    # log spacing: constant ratio, geometric-mean centers
    ratios = g.y_edges[1:] / g.y_edges[:-1]
    np.testing.assert_allclose(ratios, ratios[0])
    np.testing.assert_allclose(g.y_centers, np.sqrt(g.y_edges[:-1] * g.y_edges[1:]))
    assert g.shape == (8, 6) and g.n_cells == 48


def test_grid_domain_checks():
    with pytest.raises(DomainError):
        HistGrid(dim=1, x_lo=0.0, x_hi=1.0, nx=1, y_lo=0.1, y_hi=1.0, ny=4)
    with pytest.raises(DomainError):
        HistGrid(dim=1, x_lo=0.0, x_hi=1.0, nx=4, y_lo=0.0, y_hi=1.0, ny=4)
    with pytest.raises(DomainError):
        HistGrid(dim=1, x_lo=1.0, x_hi=0.0, nx=4, y_lo=0.1, y_hi=1.0, ny=4)


def test_histogram_and_cell_index_agree():
    g = _grid()
    gen = stream(StreamKey(seed=1, lineage=("hist",)))
    x = gen.uniform(-5.0, 5.0, size=(4000, 1))
    y = gen.uniform(1e-4, 5.0, size=4000)
    edges = [g.x_edges, g.y_edges]
    sample = np.column_stack([x[:, 0], y])
    hist = g.histogram(x, y)
    np.testing.assert_array_equal(hist, np.histogramdd(sample, bins=edges)[0])
    idx = g.cell_index(x, y)
    counted = np.bincount(idx[idx >= 0], minlength=g.n_cells).reshape(g.shape)
    np.testing.assert_array_equal(hist, counted)
    inside = (np.abs(x[:, 0]) <= 4.0) & (y >= 1e-3) & (y <= 4.0)
    assert hist.sum() == inside.sum()


def test_histogram_matches_histogramdd_in_2d():
    g = HistGrid.for_box(2.0, y_lo=1e-2, nx=5, ny=4, dim=2)
    gen = stream(StreamKey(seed=2, lineage=("hist2",)))
    x = gen.uniform(-2.5, 2.5, size=(3000, 2))
    y = gen.uniform(1e-3, 2.5, size=3000)
    ref, _ = np.histogramdd(np.column_stack([x, y]), bins=[g.x_edges, g.x_edges, g.y_edges])
    np.testing.assert_array_equal(g.histogram(x, y), ref)


def test_cell_index_boundary_points():
    g = _grid()
    # upper edges belong to the last cell, not outside
    idx = g.cell_index(np.array([[4.0], [-4.0]]), np.array([4.0, 1e-3]))
    assert idx[0] == g.n_cells - 1
    assert idx[1] == 0
    outside = g.cell_index(np.array([[4.0001]]), np.array([2.0]))
    assert outside[0] == -1


def test_measure_normalizes_and_validates():
    g = _grid()
    m = EmpiricalMeasure(g, np.full(g.shape, 2.0))
    assert m.masses.sum() == pytest.approx(1.0)
    with pytest.raises(DomainError):
        EmpiricalMeasure(g, np.zeros(g.shape))
    bad = np.full(g.shape, 1.0)
    bad[0, 0] = -1.0
    with pytest.raises(DomainError):
        EmpiricalMeasure(g, bad)
    with pytest.raises(DomainError):
        EmpiricalMeasure(g, np.ones((3, 3)))


def test_marginals_and_means():
    g = _grid(nx=40, ny=40)
    gen = stream(StreamKey(seed=2, lineage=("marg",)))
    x = gen.uniform(-3.0, 3.0, size=(20000, 1))
    y = gen.uniform(0.5, 3.5, size=20000)
    m = _from_points(g, x, y)
    assert m.marginal_x1().sum() == pytest.approx(1.0)
    # binned means sit near the sample means (center-of-cell bias only)
    assert m.mean_x1() == pytest.approx(x.mean(), abs=0.05)


def test_sample_round_trip():
    g = _grid()
    masses = np.zeros(g.shape)
    masses[2, 3] = 0.75
    masses[5, 1] = 0.25
    m = EmpiricalMeasure(g, masses)
    x, y = m.sample(stream(StreamKey(seed=3)), 5000)
    back = _from_points(g, x, y)
    assert tv_distance(m, back) < 0.02
    # all samples land in the two populated cells
    assert np.count_nonzero(back.masses) == 2


def test_samples_in_a_cell_that_crosses_the_ball_stay_in_it_and_in_the_ball():
    # in d = 2 the domain is |x| < 2: cell [1.5, 2) x [0.5, 1) crosses its
    # boundary, and cell [1.5, 2) x [1.5, 2) lies wholly outside it
    g = HistGrid.for_box(2.0, y_lo=0.1, nx=8, ny=2, dim=2)
    masses = np.zeros(g.shape)
    masses[7, 5, 0] = 1.0
    x, y = EmpiricalMeasure(g, masses).sample(stream(StreamKey(seed=8)), 4000)
    assert np.all((x[:, 0] >= 1.5) & (x[:, 0] < 2.0) & (x[:, 1] >= 0.5) & (x[:, 1] < 1.0))
    assert np.all(np.linalg.norm(x, axis=1) < 2.0)
    np.testing.assert_array_equal(g.cell_index(x, y), np.ravel_multi_index((7, 5, 0), g.shape))
    masses[7, 7, 1] = 1e-6
    with pytest.raises(DomainError, match="1 cells with mass lie wholly outside"):
        EmpiricalMeasure(g, masses).sample(stream(StreamKey(seed=8)), 10)


def test_coarsen_preserves_mass_blocks():
    g = _grid(nx=8, ny=6)
    gen = stream(StreamKey(seed=4, lineage=("coarse",)))
    x = gen.uniform(-4.0, 4.0, size=(3000, 1))
    y = gen.uniform(1e-3, 4.0, size=3000)
    m = _from_points(g, x, y)
    c = m.coarsen(4, 3)
    assert c.grid.shape == (2, 2)
    np.testing.assert_allclose(c.masses[0, 0],
                               m.masses[:4, :3].sum(), rtol=1e-12)
    np.testing.assert_allclose(c.masses.sum(), 1.0)
    # coarse grid keeps the outer edges
    assert c.grid.x_edges[0] == g.x_edges[0] and c.grid.x_edges[-1] == g.x_edges[-1]


def test_coarsen_requires_divisible_factors():
    g = _grid(nx=8, ny=6)
    m = EmpiricalMeasure(g, np.ones(g.shape))
    with pytest.raises(DomainError):
        m.coarsen(3, 2)


def test_tv_distance_basic_identities():
    g = _grid()
    a = np.zeros(g.shape)
    b = np.zeros(g.shape)
    a[0, 0] = 1.0
    b[1, 1] = 1.0
    ma = EmpiricalMeasure(g, a)
    mb = EmpiricalMeasure(g, b)
    assert tv_distance(ma, ma) == 0.0
    assert tv_distance(ma, mb) == pytest.approx(1.0)
    # symmetric, and equals half the L1 difference
    assert tv_distance(ma, mb) == tv_distance(mb, ma)
    mixed = EmpiricalMeasure(g, 0.5 * (a + b))
    assert tv_distance(ma, mixed) == pytest.approx(0.5)


def test_tv_distance_rejects_mismatched_grids():
    a = EmpiricalMeasure(_grid(8, 6), np.ones((8, 6)))
    b = EmpiricalMeasure(_grid(4, 6), np.ones((4, 6)))
    with pytest.raises(DomainError):
        tv_distance(a, b)


