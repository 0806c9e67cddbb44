from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from adaptqsd import oracle
from adaptqsd.errors import DomainError, NumericError
from adaptqsd.measure import HistGrid
from adaptqsd.model import default_params
from adaptqsd.oracle import (
    GridGenerator,
    _expm_action,
    _nonnegative,
    build_generator,
    leading_triple,
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
def small_oracle():
    genr = build_generator(default_params(), 4.0, nx=40, ny=30)
    return genr, leading_triple(genr)


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


@pytest.mark.parametrize("overrides, digest", [
    ({}, "6582065a8da314861961596ae99776dd016413d465987273740558609326b6a5"),
    ({"tau": 0.3, "s": 1.0}, "88a5dd9fdc37923d762d821afdd787756e4481583957f9849287a9dc3efc13d6"),
])
def test_generator_assembly_is_frozen(overrides, digest):
    """SHA-256 of the 40 x 30 generator's CSR arrays, kill rates and diagnostics."""
    genr = build_generator(default_params(**overrides), 4.0, nx=40, ny=30)
    h = hashlib.sha256()
    for a in (genr.Q.indptr, genr.Q.indices, genr.Q.data, genr.kill_rate):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(json.dumps(genr.diagnostics, sort_keys=True).encode())
    assert h.hexdigest() == digest


def test_reducible_generator_raises_with_its_components():
    # advantageous-only fixation never jumps toward lower fitness, so cells
    # split into several strongly connected components
    with pytest.raises(NumericError, match="irreducible") as info:
        build_generator(default_params(fixation_family="advantageous_only"), 4.0, nx=40, ny=30)
    assert info.value.diagnostics == {"n_components": 10, "largest_frac": 0.775}


def test_rejects_unsupported_domains():
    with pytest.raises(DomainError):
        build_generator(default_params(dim=2), 4.0, nx=8, ny=8)
    with pytest.raises(DomainError):
        build_generator(default_params(), 4.0, y_min=5.0, nx=8, ny=8)


def test_q_kernel_requires_positive_time(small_oracle):
    genr, triple = small_oracle
    with pytest.raises(DomainError):
        oracle_q_kernel(genr, triple, 0.0)


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
    # iterations counts resolvent solves: ARPACK's operator calls plus the polish
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
              "bottom_edge": np.eye(1, n, nx // 2)[0]}
    ts = (0.4, 1.5)
    dense = [expm(t * genr.Q.toarray()) for t in ts]
    for name, v in starts.items():
        got = _expm_action(genr, v, ts, adjoint=adjoint)  # both horizons from one basis
        assert got.shape == (n, 2)
        for k, (t, e) in enumerate(zip(ts, dense)):
            want = (e.T if adjoint else e) @ v
            err = np.linalg.norm(got[:, k] - want) / np.linalg.norm(want)
            assert err <= 1e-9, (name, t, err)


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
    factored = []

    def counting_splu(a, **kwargs):
        factored.append(a.shape[0])
        return splu(a, **kwargs)

    monkeypatch.setattr(oracle, "splu", counting_splu)
    for nx, ny in ((12, 10), (16, 12)):
        genr = build_generator(default_params(), 4.0, nx=nx, ny=ny)
        triple = leading_triple(genr)
        oracle_q_kernel(genr, triple, 0.5, rows=(nx // 2, genr.n_cells // 2))
        survival_consistency(genr, triple, ts=(1.0, 2.0))
    assert factored == [12 * 10, 16 * 12]


def test_expm_action_cap_raises_numeric_error(tiny_built, monkeypatch):
    monkeypatch.setattr(oracle, "_KRYLOV_MAX", 3)
    v = np.random.default_rng(2).random(tiny_built.n_cells)
    with pytest.raises(NumericError, match="Krylov") as info:
        _expm_action(tiny_built, v, (1.0,), adjoint=True)
    diag = info.value.diagnostics
    assert diag["solves"] == 3 and diag["adjoint"] is True
    assert diag["last_change"] > 0.0 and diag["subdiagonal"] > 0.0


def test_eigen_solve_failures_raise_numeric_error(tiny_built, monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_ITER", 1)
    with pytest.raises(NumericError, match="ARPACK") as info:
        leading_triple(tiny_built)
    assert info.value.diagnostics["solves"] > 0
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_MAX_ITER", 4)
    with pytest.raises(NumericError, match="polish") as info:
        leading_triple(tiny_built)
    diag = info.value.diagnostics
    assert diag["polish_steps"] == 4
    assert diag["res_eta"] > 0.0 and diag["res_alpha"] > 0.0


def test_only_round_off_negatives_are_clipped():
    v = _nonnegative(np.array([-2.0, 1e-13, -1.0]) + 0j, "eta")
    np.testing.assert_array_equal(v, [1.0, 0.0, 0.5])
    with pytest.raises(NumericError) as info:
        _nonnegative(np.array([1.0, -1e-9, 0.5]), "alpha")
    assert info.value.diagnostics["bad_entries"] == 1
    with pytest.raises(NumericError):
        _nonnegative(np.array([1.0, 0.5 + 1e-6j]), "eta")
