from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from adaptqsd import oracle
from adaptqsd.errors import DomainError, NumericError
from adaptqsd.measure import HistGrid
from adaptqsd.model import ModelParams, default_params
from adaptqsd.oracle import (
    GridGenerator,
    _expm_action,
    _nonnegative,
    _unreached,
    build_generator,
    leading_triple,
    leading_vector,
    oracle_q_kernel,
    survival_consistency,
)

# 4-state toy: killing 2-chain in x Kronecker-summed with a conservative
# 2-chain in y. Leading eigenvalue in closed form.
_TOY_LAMBDA = (2.5 - math.sqrt(4.25)) / 2.0

# frozen leading eigenvalue of the default model on the 40 x 30 grid
# [DERIVED] resolvent power iteration, residuals < 1e-10
_LAMBDA_40x30 = 0.776343697925


def _toy_generator():
    grid = HistGrid(dim=1, x_lo=-1.0, x_hi=1.0, nx=2, y_lo=0.5, y_hi=2.0, ny=2)
    qx = np.array([[-1.5, 1.0], [1.0, -1.0]])
    qy = np.array([[-1.0, 1.0], [1.0, -1.0]])
    Q = sp.csr_matrix(np.kron(qy, np.eye(2)) + np.kron(np.eye(2), qx))
    kill = np.array([0.5, 0.0, 0.5, 0.0])
    return GridGenerator(grid=grid, params=default_params(), Q=Q, kill_rate=kill)


@pytest.fixture(scope="module")
def toy_triple():
    genr = _toy_generator()
    return genr, leading_triple(genr)


@pytest.fixture(scope="module")
def tiny_built():
    return build_generator(default_params(), 4.0, nx=12, ny=10)


@pytest.fixture(scope="module")
def tiny_oracle(tiny_built):
    return tiny_built, leading_triple(tiny_built)


@pytest.fixture(scope="module")
def small_oracle():
    genr = build_generator(default_params(), 4.0, nx=40, ny=30)
    return genr, leading_triple(genr)


def _factor_bytes(lu):
    """Bytes of every array the factor holds, a view counted as its base."""
    held = {}
    for a in vars(lu).values():
        if isinstance(a, np.ndarray):
            base = a if a.base is None else a.base
            held[id(base)] = base.nbytes
    return sum(held.values())


@pytest.mark.parametrize("family", ["deleterious_ok", "advantageous_only"])
def test_assembly_allocates_little_beyond_what_it_returns(family):
    """tracemalloc peaks at 120 x 90 against what stays resident: Q's CSR
    arrays plus the kill rates (11.6 MiB; advantageous_only, whose inward-only
    jumps store about half the entries, 6.1 MiB), and the factor (10.1 MiB).
    Written straight into CSR, the build reads 1.08x and 1.14x, the factor
    1.03x; a triple set, its COO conversion and a second CSR for the diagonal
    made the build 2.35x and 2.34x, and transient copies of the entries before
    that 5.96x (the factor 1.47x against the band LU of (I - 2Q)^T, 29.7 MiB)."""
    tracemalloc.start()
    try:
        genr = build_generator(default_params(fixation_family=family), 4.0, nx=120, ny=90)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        lu = genr.lu
        lu_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q = sum(a.nbytes for a in (genr.Q.indptr, genr.Q.indices, genr.Q.data, genr.kill_rate))
    assert build_peak <= 1.5 * q
    assert lu_peak <= 1.2 * (_factor_bytes(lu) + q)


def test_toy_eigenvalue_closed_form(toy_triple):
    _, triple = toy_triple
    assert triple.lambda0 == pytest.approx(_TOY_LAMBDA, abs=1e-12)
    assert triple.res_alpha < 1e-10
    assert triple.res_eta < 1e-10


def test_toy_eigenvectors(toy_triple):
    _, triple = toy_triple
    # both chains factorize; the killing factor is symmetric, so the left and
    # right eigenvectors share the component ratio 1.5 - lambda
    ratio = 1.5 - _TOY_LAMBDA
    a = triple.alpha.masses
    np.testing.assert_allclose(a[1, :] / a[0, :], ratio, rtol=1e-9)
    np.testing.assert_allclose(triple.eta[1, :] / triple.eta[0, :], ratio, rtol=1e-9)
    assert a.sum() == pytest.approx(1.0)
    assert float((a * triple.eta).sum()) == pytest.approx(1.0, rel=1e-12)


def test_toy_survival_is_exponential(toy_triple):
    genr, triple = toy_triple
    errs = survival_consistency(genr, triple, ts=(1.0, 2.0))
    assert errs[1.0] < 1e-5
    assert errs[2.0] < 1e-5


def test_toy_q_kernel(toy_triple):
    genr, triple = toy_triple
    chk = oracle_q_kernel(genr, triple, 0.7, rows=(0, 3))
    assert chk.row_sum_max_err < 1e-5
    assert chk.beta_invariance_l1 < 1e-5
    for row in chk.rows.values():
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(row > -1e-6)


def test_generator_structure(small_oracle):
    genr, _ = small_oracle
    Q = genr.Q
    assert Q.shape == (40 * 30, 40 * 30)
    # off-diagonal rates nonnegative
    off = Q.copy()
    off.setdiag(0.0)
    assert off.min() >= 0.0
    # row sums balance the explicit kill rates
    rowsum = np.asarray(Q.sum(axis=1)).ravel()
    assert np.abs(rowsum + genr.kill_rate).max() < 1e-7
    assert genr.kill_rate.min() >= 0.0
    assert genr.diagnostics["scc_frac"] >= 0.9
    assert genr.diagnostics["bandwidth_x"] >= 1


def test_vec_grid_round_trip(small_oracle):
    genr, _ = small_oracle
    v = np.arange(genr.n_cells, dtype=float)
    m = genr.vec_to_grid(v)
    assert m.shape == (40, 30)
    np.testing.assert_array_equal(genr.grid_to_vec(m), v)


def test_leading_eigenvalue_frozen(small_oracle):
    _, triple = small_oracle
    assert triple.lambda0 == pytest.approx(_LAMBDA_40x30, abs=1e-6)
    assert triple.res_alpha < 1e-10
    assert triple.res_eta < 1e-10
    assert np.all(triple.alpha.masses >= 0.0)
    assert np.all(triple.eta >= 0.0)


def test_survival_consistency_small_grid(small_oracle):
    genr, triple = small_oracle
    errs = survival_consistency(genr, triple, ts=(1.0, 2.0))
    assert all(e < 1e-4 for e in errs.values())


def test_q_kernel_small_grid(small_oracle):
    genr, triple = small_oracle
    chk = oracle_q_kernel(genr, triple, 0.5, rows=(600,))
    assert chk.row_sum_max_err < 1e-5
    assert chk.beta_invariance_l1 < 1e-5
    row = chk.rows[600]
    assert row.sum() == pytest.approx(1.0, abs=1e-9)
    # interior row: entries nonnegative up to propagator wiggle
    assert row.min() > -1e-3


def test_q_kernel_rows_from_point_masses_do_not_oscillate(acc_oracle):
    # 80x60, L = 4, t = 1. Row 5 sits on the bottom edge, where eta is ~1e-10 of
    # its max; Crank-Nicolson alone gave it an entry of -2.17 and negative mass
    # -2.60, and interior row 2440 a minimum entry of -1.2e-5
    genr, triple = acc_oracle
    chk = oracle_q_kernel(genr, triple, 1.0, rows=(5, 2440))
    row5, row2440 = chk.rows[5], chk.rows[2440]
    assert row5[row5 < 0.0].sum() >= -1e-4
    assert row2440.min() >= -1e-9
    for row in (row5, row2440):
        assert row.sum() == pytest.approx(1.0, abs=1e-9)


def test_beta_combines_alpha_and_eta(small_oracle):
    _, triple = small_oracle
    beta = triple.beta()
    assert beta.masses.sum() == pytest.approx(1.0)
    expected = triple.alpha.masses * triple.eta
    np.testing.assert_allclose(beta.masses, expected / expected.sum(), rtol=1e-12)


@pytest.mark.parametrize("overrides, box, digest", [
    ({}, (4.0, 40, 30), "6582065a8da314861961596ae99776dd016413d465987273740558609326b6a5"),
    ({"tau": 0.3, "s": 1.0}, (4.0, 40, 30),
     "88a5dd9fdc37923d762d821afdd787756e4481583957f9849287a9dc3efc13d6"),
    # the zero jump rates of inward-only jumps are not stored
    ({"fixation_family": "advantageous_only"}, (4.0, 40, 30),
     "d85e120338a0ec5538c87c9e5f8dfbf9b92669a63023588a843b2ac44ebcac28"),
    ({"fixation_family": "rescaled_advantageous"}, (4.0, 40, 30),
     "e014cc1352cb633c5ca3947b7c3572c540e20140482cf488bbbf350a54aaa00c"),
    # a jump band of 16 cells on a box 12 cells wide: some offsets reach no cell
    ({}, (1.5, 12, 10), "0413d9b95e363fc2cd54126bcd834518219bffb8b920d1b080ca6c37e9625f0b"),
    ({}, (4.0, 120, 90), "bbfd768ee789861f240fd79c666931e73f11c3cad1eaa23822be18265e28405e"),
])
def test_generator_assembly_is_frozen(overrides, box, digest):
    """SHA-256 of the generator's CSR arrays, kill rates and diagnostics on the
    box B(0, L) x [1e-3, L] of nx x ny cells, box = (L, nx, ny)."""
    L, nx, ny = box
    genr = build_generator(default_params(**overrides), L, nx=nx, ny=ny)
    h = hashlib.sha256()
    for a in (genr.Q.indptr, genr.Q.indices, genr.Q.data, genr.kill_rate):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(json.dumps(genr.diagnostics, sort_keys=True).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("overrides, digest", [
    ({}, "693c83d2d035c5cc3da3f1636592f5a81c2b72e3542af3e654b29241718e37c9"),
    ({"tau": 0.3, "s": 1.0}, "a675725a17211658859a4d00eb057f2dea594415a529219f80dfe796b6ae7063"),
    ({"fixation_family": "advantageous_only"},
     "b4b0531866fc99039ef6261d35273c584d7ac4dc9f4d0765c1f2876b9e86465f"),
])
def test_leading_triple_is_frozen(overrides, digest):
    """SHA-256 of the 40 x 30 generators' eigentriples: lambda0, the alpha
    masses, eta, res_alpha, res_eta and iterations."""
    tri = leading_triple(build_generator(default_params(**overrides), 4.0, nx=40, ny=30))
    h = hashlib.sha256()
    for a in (tri.lambda0, tri.alpha.masses, tri.eta, tri.res_alpha, tri.res_eta, tri.iterations):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("overrides, digest", [
    ({}, "77c3fa63b9ff7d74b3bfe3e940c3c0560dc1b5fd1c59289bfed2ef8085577fdd"),
    ({"tau": 0.3, "s": 1.0}, "96fdfa4b311d5bd747ec6b1c63938a93f108b7caf04b2676015069cc329e6b48"),
    ({"fixation_family": "advantageous_only"},
     "3dd99864a514c5a81c36627d9e7b640921b6792ddcb0ed630068aca9e1fe15ee"),
])
def test_row_block_ldu_is_frozen(overrides, digest):
    """SHA-256 of the 40 x 30 generators' inverse Schur blocks, then their
    down and up couplings."""
    lu = build_generator(default_params(**overrides), 4.0, nx=40, ny=30).lu
    h = hashlib.sha256()
    for a in (lu.inv, lu.down, lu.up):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


def test_advantageous_only_generator_solves_with_a_positive_eta():
    # advantageous-only jumps only shrink |x| and the band stops at 8 tau, so
    # the columns x > 2 are transient singletons that drift into the main component
    genr = build_generator(default_params(fixation_family="advantageous_only"), 4.0,
                           nx=40, ny=30)
    n_comp, main = genr.components
    assert n_comp == 10 and genr.diagnostics["scc_frac"] == 0.775
    triple = leading_triple(genr)
    assert triple.res_alpha < 1e-10 and triple.res_eta < 1e-10
    assert triple.eta.min() > 0.0
    assert genr.grid_to_vec(triple.alpha.masses)[~main].sum() < 1e-15


def test_generator_with_cells_that_cannot_reach_its_main_component_raises(monkeypatch):
    # no jumps from x < -1: those 15 columns only drift toward -L, so none of
    # them reaches the component that holds the rest of the box
    g = ModelParams.g
    monkeypatch.setattr(ModelParams, "g", lambda self, x, w: np.where(
        np.asarray(x)[..., 0] > -1.0, g(self, x, w), 0.0))
    with pytest.raises(NumericError, match="cannot reach its main component") as info:
        build_generator(default_params(), 4.0, nx=40, ny=30)
    assert info.value.diagnostics == {"n_components": 16, "largest_frac": 0.625,
                                      "unreached": 450}


def test_unreached_follows_paths_through_other_components():
    # grid rows of three cells: 0 -> 1 -> 2 -> 0 is the main component; 3
    # reaches it only through 4, and 5 reaches nothing
    A = np.zeros((6, 6))
    A[[0, 1, 2, 3, 4], [1, 2, 0, 4, 0]] = 1.0
    A[np.arange(6), np.arange(6)] = -1.0
    assert _unreached(sp.csr_matrix(A), 3) == 1


def _toy_grid(ny=2):
    return HistGrid(dim=1, x_lo=-1.0, x_hi=1.0, nx=2, y_lo=0.5, y_hi=2.0, ny=ny)


def test_alpha_outside_the_main_component_raises():
    # cells 0-2 are the main component, killed at rate 5: cell 0 swaps with
    # cell 1 in its grid row and with cell 2 above it. Cell 3 feeds cell 1,
    # below it, at rate 0.1 and is never killed, so the leading eigenpair
    # lives on cell 3
    Q = sp.csr_matrix(np.array([[-7.0, 1.0, 1.0, 0.0], [1.0, -6.0, 0.0, 0.0],
                                [1.0, 0.0, -6.0, 0.0], [0.0, 0.1, 0.0, -0.1]]))
    genr = GridGenerator(grid=_toy_grid(), params=default_params(), Q=Q,
                         kill_rate=np.array([5.0, 5.0, 5.0, 0.0]))
    with pytest.raises(NumericError, match="outside the main component") as info:
        leading_triple(genr)
    assert info.value.diagnostics["outside_mass"] > 0.9


def test_rejects_unsupported_domains():
    with pytest.raises(DomainError):
        build_generator(default_params(dim=2), 4.0, nx=8, ny=8)
    with pytest.raises(DomainError):
        build_generator(default_params(), 4.0, y_min=5.0, nx=8, ny=8)


def test_q_kernel_requires_positive_time(small_oracle):
    genr, triple = small_oracle
    with pytest.raises(DomainError):
        oracle_q_kernel(genr, triple, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_q_kernel_rejects_a_horizon_that_is_not_finite(tiny_oracle, t):
    with pytest.raises(DomainError, match="finite and positive"):
        oracle_q_kernel(*tiny_oracle, t)


@pytest.mark.parametrize("row", [-1, 12 * 10])
def test_q_kernel_rejects_rows_outside_the_grid(tiny_oracle, row):
    with pytest.raises(DomainError, match="cell indices"):
        oracle_q_kernel(*tiny_oracle, 0.5, rows=(row,))


@pytest.mark.parametrize("ts", [(), (math.nan,), (-1.0,), (1.0, math.inf)])
def test_survival_consistency_rejects_horizons_that_are_not_finite_and_positive(tiny_oracle,
                                                                                ts):
    with pytest.raises(DomainError, match="horizons"):
        survival_consistency(*tiny_oracle, ts=ts)


def test_expm_action_rejects_a_zero_start_vector(tiny_built):
    with pytest.raises(DomainError, match="nonzero"):
        _expm_action(tiny_built, np.zeros(tiny_built.n_cells), (1.0,), adjoint=True)


def test_leading_triple_matches_dense_eig(tiny_built):
    genr = tiny_built
    triple = leading_triple(genr)
    Q = genr.Q.toarray()
    w, right = np.linalg.eig(Q)
    wl, left = np.linalg.eig(Q.T)
    k, kl = np.argmax(w.real), np.argmax(wl.real)
    assert triple.lambda0 == pytest.approx(-w[k].real, rel=1e-10)
    eta = right[:, k].real / right[np.argmax(np.abs(right[:, k])), k].real
    alpha = left[:, kl].real / left[:, kl].real.sum()
    np.testing.assert_allclose(genr.grid_to_vec(triple.alpha.masses), alpha, rtol=0, atol=1e-8)
    got_eta = genr.grid_to_vec(triple.eta)
    np.testing.assert_allclose(got_eta / got_eta.max(), eta, rtol=0, atol=1e-8)
    # iterations counts resolvent solves: both leading_vector runs' calls, last power steps included
    assert triple.iterations > 2


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("which", ["toy", "built"])
def test_expm_action_matches_dense_expm(which, adjoint, tiny_built):
    genr = _toy_generator() if which == "toy" else tiny_built
    triple = leading_triple(genr)
    n, nx = genr.n_cells, genr.grid.nx
    rng = np.random.default_rng(1)
    # flat index j * nx + i; j = 0 is the killing bottom edge
    starts = {"random": rng.random(n), "signed": rng.standard_normal(n),
              "eta": genr.grid_to_vec(triple.eta),
              "alpha": genr.grid_to_vec(triple.alpha.masses),
              "centre": np.eye(1, n, genr.grid.ny // 2 * nx + nx // 2)[0],
              "bottom_edge": np.eye(1, n, nx // 2)[0],
              "corner": np.eye(1, n, 0)[0]}
    ts = (0.4, 1.5)
    dense = [expm(t * genr.Q.toarray()) for t in ts]
    for name, v in starts.items():
        got = _expm_action(genr, v, ts, adjoint=adjoint)  # both horizons from one basis
        assert got.shape == (n, 2)
        for k, (t, e) in enumerate(zip(ts, dense)):
            want = (e.T if adjoint else e) @ v
            err = np.linalg.norm(got[:, k] - want)
            # the corner is killed through two edges, so its image can be
            # ~1e-11 ||v|| and only an absolute bound measures round-off there
            bound = 1e-14 * np.linalg.norm(v) if name == "corner" else 1e-9 * np.linalg.norm(want)
            assert err <= bound, (name, t, err)


def test_eigenvector_starts_break_down_after_one_solve(small_oracle, monkeypatch):
    genr, triple = small_oracle
    lu, solves = genr.lu, []

    class Counting:
        def solve(self, v, trans="N"):
            solves.append(trans)
            return lu.solve(v, trans=trans)

    monkeypatch.setitem(genr.__dict__, "lu", Counting())  # the cached factorization
    _expm_action(genr, genr.grid_to_vec(triple.eta), (1.0,))
    _expm_action(genr, genr.grid_to_vec(triple.alpha.masses), (1.0, 2.0, 5.0), adjoint=True)
    assert solves == ["N", "T"]


def test_one_lu_per_grid(monkeypatch):
    factored, factor = [], oracle.RowBlockLDU

    def counting_factor(inv, down, up):
        factored.append(inv.shape)
        return factor(inv, down, up)

    monkeypatch.setattr(oracle, "RowBlockLDU", counting_factor)
    for nx, ny in ((12, 10), (16, 12)):
        genr = build_generator(default_params(), 4.0, nx=nx, ny=ny)
        triple = leading_triple(genr)
        oracle_q_kernel(genr, triple, 0.5, rows=(nx // 2, genr.n_cells // 2))
        survival_consistency(genr, triple, ts=(1.0, 2.0))
    assert factored == [(10, 12, 12), (12, 16, 16)]


@pytest.mark.parametrize("which", ["toy", "built", "advantageous_only"])
def test_row_block_ldu_solves_match_dense(which, tiny_built):
    if which == "toy":
        genr = _toy_generator()
    elif which == "built":
        genr = tiny_built
    else:
        genr = build_generator(default_params(fixation_family="advantageous_only"), 4.0,
                               nx=24, ny=20)
    A = np.eye(genr.n_cells) - oracle._SHIFT * genr.Q.toarray()
    b = np.random.default_rng(3).standard_normal(genr.n_cells)
    for trans, dense in (("N", A), ("T", A.T)):
        want = np.linalg.solve(dense, b)
        got = genr.lu.solve(b, trans)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), trans
    # one inverse Schur block and two couplings per grid row
    nx, ny = genr.grid.nx, genr.grid.ny
    assert genr.lu.inv.shape == (ny, nx, nx)
    assert genr.lu.down.shape == genr.lu.up.shape == (ny, nx)


def test_singular_resolvent_raises_numeric_error_naming_its_first_row():
    genr = _toy_generator()
    genr.Q = sp.identity(genr.n_cells, format="csr") / oracle._SHIFT  # I - _SHIFT Q = 0
    with pytest.raises(NumericError, match="not strictly row diagonally dominant") as info:
        genr.lu
    assert info.value.diagnostics == {"first_row": 0, "diagonal": 0.0, "off_diagonal": 0.0}


@pytest.mark.parametrize("family", ["deleterious_ok", "advantageous_only"])
def test_factor_holds_nx_plus_two_floats_per_cell(family):
    # the inverse Schur blocks and the couplings: 10.1 MiB at 120 x 90, where
    # a band LU of (I - 2Q)^T holds (3 nx + 1) floats per cell, 29.7 MiB
    genr = build_generator(default_params(fixation_family=family), 4.0, nx=120, ny=90)
    n = genr.n_cells
    assert _factor_bytes(genr.lu) <= 8 * (genr.grid.nx * n + 2 * n)


def test_resolvent_that_is_not_diagonally_dominant_raises_numeric_error():
    # a positive row sum in each y row: I - 2Q = [[1.2, -10], [0, 1.2]] per
    # row is not diagonally dominant, first in cell 0, and the elimination
    # does not pivot
    Q = np.kron(np.eye(2), np.array([[-0.1, 5.0], [0.0, -0.1]]))
    genr = GridGenerator(grid=_toy_grid(), params=default_params(), Q=sp.csr_matrix(Q),
                         kill_rate=np.zeros(4))
    with pytest.raises(NumericError, match="not strictly row diagonally dominant") as info:
        genr.lu
    assert info.value.diagnostics == {"first_row": 0, "diagonal": pytest.approx(1.2),
                                      "off_diagonal": 10.0}


@pytest.mark.parametrize("ny, source, target, first_row", [
    (2, 1, 2, 1),  # cell 1 to cell 2: the next grid row, at the other x cell
    (3, 4, 0, 4),  # cell 4 to cell 0: the same x cell, two grid rows down
])
def test_resolvent_that_couples_other_cells_across_rows_raises_numeric_error(
        ny, source, target, first_row):
    # the row-by-row elimination has no room for that fill, so it must not
    # factor such a Q at all
    Q = np.zeros((2 * ny, 2 * ny))
    Q[source, target] = 1.0
    Q[np.arange(2 * ny), np.arange(2 * ny)] -= 1.0 + Q.sum(axis=1)
    genr = GridGenerator(grid=_toy_grid(ny), params=default_params(), Q=sp.csr_matrix(Q),
                         kill_rate=np.ones(2 * ny))
    with pytest.raises(NumericError, match="couples two grid rows") as info:
        genr.lu
    assert info.value.diagnostics == {"first_row": first_row}


def test_expm_action_cap_raises_numeric_error(tiny_built, monkeypatch):
    monkeypatch.setattr(oracle, "_KRYLOV_MAX", 3)
    v = np.random.default_rng(2).random(tiny_built.n_cells)
    with pytest.raises(NumericError, match="Krylov") as info:
        _expm_action(tiny_built, v, (1.0,), adjoint=True)
    diag = info.value.diagnostics
    assert diag["solves"] == 3 and diag["adjoint"] is True
    assert diag["last_change"] > 0.0 and diag["subdiagonal"] > 0.0


def test_eigen_solve_failures_raise_numeric_error(tiny_built, monkeypatch):
    # eta's Arnoldi run comes first; only the second, alpha's, is capped at 4
    # steps, and with no restart
    calls, leading, cap = [], oracle.leading_vector, oracle._KRYLOV_MAX
    monkeypatch.setattr(oracle, "_RESTARTS", 0)

    def capped_on_its_second_call(*args):
        calls.append(None)
        if len(calls) == 2:
            monkeypatch.setattr(oracle, "_KRYLOV_MAX", 4)
        return leading(*args)

    monkeypatch.setattr(oracle, "leading_vector", capped_on_its_second_call)
    with pytest.raises(NumericError, match="Arnoldi did not converge for alpha") as info:
        leading_triple(tiny_built)
    diag = info.value.diagnostics
    assert diag["solves"] == 4 and diag["ritz_residual"] > 1e-14 * diag["ritz_value"] > 0.0
    monkeypatch.setattr(oracle, "leading_vector", leading)
    with pytest.raises(NumericError, match="Arnoldi did not converge for eta") as info:
        leading_triple(tiny_built)
    assert info.value.diagnostics["solves"] == 4
    monkeypatch.setattr(oracle, "_KRYLOV_MAX", cap)
    solves = leading_triple(tiny_built).iterations
    monkeypatch.setattr(oracle, "_TOL", 0.0)  # no residual is below 0
    with pytest.raises(NumericError, match="residuals") as info:
        leading_triple(tiny_built)
    diag = info.value.diagnostics
    assert diag["solves"] == solves
    assert diag["res_eta"] > 0.0 and diag["res_alpha"] > 0.0


@pytest.mark.parametrize("A, solves", [
    ([[5.0]], 1),  # R^1: the start vector is the answer
    ([[3.0, 1.0], [1.0, 2.0]], 2),  # step n = 2 ends the run
    ([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]], 3),  # Perron vector e_3
    ([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], 1),  # rows sum to 3: breaks down at 1
])
def test_leading_vector_on_maps_of_dimension_three_or_less(A, solves):
    A = np.array(A)
    image, calls = leading_vector(lambda v: A @ v, len(A), "v")
    w, right = np.linalg.eig(A)
    want = np.abs(right[:, np.argmax(w.real)])
    np.testing.assert_allclose(image, A @ (want / want.max()), rtol=0, atol=1e-14)
    assert calls == solves + 1  # Arnoldi's steps, then one call on the Perron vector


@pytest.mark.parametrize("n, cap", [(40, 10), (100, 20)])
def test_leading_vector_restarts_at_the_cap(monkeypatch, n, cap):
    # 2 + the path graph on n nodes: Perron vector sin(pi j / (n + 1)), and a
    # relative gap ~1e-3 to the next eigenvalue, too small for `cap` steps
    A = 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    want = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    monkeypatch.setattr(oracle, "_KRYLOV_MAX", cap)
    image, solves = leading_vector(lambda v: A @ v, n, "v")
    want = A @ (want / want.max())  # max entry ~4: today's 1e-12 of the Perron vector, scaled
    np.testing.assert_allclose(image, want, rtol=0, atol=1e-12 * want.max())
    assert solves > cap + 1
    monkeypatch.setattr(oracle, "_RESTARTS", 2)
    with pytest.raises(NumericError, match="Arnoldi did not converge for v") as info:
        leading_vector(lambda v: A @ v, n, "v")
    assert cap < info.value.diagnostics["solves"] <= 3 * cap  # a restart adds at most cap calls


def test_leading_vector_basis_stays_under_the_huge_page_threshold():
    # a 4800-long map (80 x 60 cells) with a gap that Arnoldi closes in ~25 steps;
    # its basis allocated for the 200-step cap held 7.7 MB
    d = np.random.default_rng(1).random(4800)
    d[0] = 2.0
    tracemalloc.start()
    try:
        image, solves = leading_vector(lambda v: d * v, len(d), "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solves < oracle._BASIS_STEPS
    assert peak < 4 * 2**20
    np.testing.assert_allclose(image, 2.0 * np.eye(1, len(d))[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("cap, solves", [(200, 76), (70, 88)])  # no restart; one restart
def test_leading_vector_grown_basis_gives_the_bytes_of_a_whole_one(monkeypatch, cap, solves):
    # 2 + the path graph on 150 nodes takes 75 Arnoldi steps, past the first allocation
    n = 150
    A = 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    monkeypatch.setattr(oracle, "_KRYLOV_MAX", cap)
    grown = leading_vector(lambda v: A @ v, n, "v")
    monkeypatch.setattr(oracle, "_BASIS_STEPS", cap)
    whole = leading_vector(lambda v: A @ v, n, "v")
    assert grown[1] == whole[1] == solves
    assert grown[0].tobytes() == whole[0].tobytes()


def _orthogonal_plus_rank_one(seed: int, n: int = 60) -> np.ndarray:
    """0.9 Q + 3 p p^T, Q a random orthogonal matrix and p the unit ones vector:
    one real top eigenvalue near 3 and n - 1 others of modulus near 0.9, most in
    complex pairs, so a restart's median Ritz modulus is often a pair's."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    p = np.ones(n) / math.sqrt(n)
    return 0.9 * Q + 3.0 * np.outer(p, p)


def test_leading_vector_restart_failure_raises_numeric_error(monkeypatch):
    def schur(*args, **kwargs):
        raise np.linalg.LinAlgError("sorted eigenvalues could not be reordered")

    A = _orthogonal_plus_rank_one(22)
    monkeypatch.setattr(oracle, "_KRYLOV_MAX", 6)
    monkeypatch.setattr(oracle, "schur", schur)
    with pytest.raises(NumericError, match="Krylov-Schur restart failed for v") as info:
        leading_vector(lambda v: A @ v, len(A), "v")
    diag = info.value.diagnostics
    assert len(diag["moduli_near_cut"]) == 4 and diag["solves"] == 6


@pytest.mark.parametrize("cap, seed", [(6, 22), (8, 10), (10, 37), (12, 16)])
def test_leading_vector_restart_cuts_between_two_distinct_moduli(monkeypatch, cap, seed):
    # at this cap the median Ritz modulus is a complex pair's; a cut on it split
    # the pair once LAPACK reordered the Schur form, and the restart failed
    A = _orthogonal_plus_rank_one(seed)
    monkeypatch.setattr(oracle, "_KRYLOV_MAX", cap)
    image, solves = leading_vector(lambda v: A @ v, len(A), "v")
    theta, vectors = np.linalg.eig(A)
    top = np.argmax(np.abs(theta))
    perron = np.abs(vectors[:, top].real)
    assert solves > cap
    np.testing.assert_allclose(image / image.max(), perron / perron.max(), rtol=0, atol=1e-12)


def test_leading_vector_ritz_failure_raises_numeric_error(monkeypatch):
    def eig(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", eig)
    with pytest.raises(NumericError, match="Ritz values of v did not converge") as info:
        leading_vector(lambda v: 2.0 * v, 8, "v")
    assert info.value.diagnostics == {"solves": 1}


def test_leading_vector_of_the_zero_map_breaks_down_after_one_call():
    calls = []
    image, solves = leading_vector(lambda v: calls.append(v) or np.zeros_like(v), 3, "v")
    np.testing.assert_array_equal(calls[1], np.ones(3))  # the last call is on its answer
    np.testing.assert_array_equal(image, np.zeros(3))
    assert solves == len(calls) == 2


def test_only_round_off_negatives_are_clipped():
    v = _nonnegative(np.array([-2.0, 1e-13, -1.0]) + 0j, "eta")
    np.testing.assert_array_equal(v, [1.0, 0.0, 0.5])
    with pytest.raises(NumericError) as info:
        _nonnegative(np.array([1.0, -1e-9, 0.5]), "alpha")
    assert info.value.diagnostics["bad_entries"] == 1
    with pytest.raises(NumericError):
        _nonnegative(np.array([1.0, 0.5 + 1e-6j]), "eta")
