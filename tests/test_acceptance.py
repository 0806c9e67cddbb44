"""Acceptance suite: the twelve shipped accuracy and consistency gates.

Each test checks one numbered criterion at its stated tolerance and records
a PASS/FAIL line (printed in the terminal summary). The heavy shared runs
live in session fixtures in conftest.py; criteria with their own regimes
(balance identity, truncation ladder, jump geometry, parameterization
equivalence, discretization halving) run their own simulations here.
"""
from __future__ import annotations

import numpy as np
from scipy.stats import ks_2samp

from adaptqsd.measure import EmpiricalMeasure, tv_distance
from adaptqsd.model import default_params, rescale_jump_measure
from adaptqsd.oracle import oracle_q_kernel
from adaptqsd.pathsim import SimConfig, simulate_path
from adaptqsd.qsd import (balance_residual, convergence_curve, relaxed_start,
                          run_cohort, truncation_family, fleming_viot,
                          default_hist_grid)
from adaptqsd.rng import StreamKey


def test_criterion_01_alpha_matches_oracle(acc_fv_fine, acc_oracle, criterion_report):
    _, triple = acc_oracle
    tv = tv_distance(acc_fv_fine.alpha, triple.alpha)
    ok = tv <= 0.10
    criterion_report(1, ok, f"TV(FV alpha, oracle alpha) = {tv:.4f} (limit 0.10; "
                            f"path step refined to dt=0.0025)")
    assert ok


def test_criterion_02_lambda_matches_oracle(acc_fv_fine, acc_survival, acc_oracle,
                                            criterion_report):
    _, triple = acc_oracle
    lam_o = triple.lambda0
    rel_fv = abs(acc_fv_fine.lambda0 - lam_o) / lam_o
    rel_sv = abs(acc_survival.lambda0 - lam_o) / lam_o
    z = (abs(acc_fv_fine.lambda0 - acc_survival.lambda0)
         / np.hypot(acc_fv_fine.lambda0_stderr, acc_survival.stderr))
    ok = rel_fv <= 0.10 and rel_sv <= 0.10 and z <= 2.0
    criterion_report(2, ok, f"kill-rate {rel_fv:.1%}, survival {rel_sv:.1%} "
                            f"of oracle (limit 10%); cross z = {z:.2f} (limit 2)")
    assert ok


def test_criterion_03_oracle_eigen_identities(acc_oracle, criterion_report):
    genr, triple = acc_oracle
    chk = oracle_q_kernel(genr, triple, 1.0)
    ok = (triple.res_alpha <= 1e-8 and triple.res_eta <= 1e-8
          and chk.row_sum_max_err <= 1e-6 and chk.beta_invariance_l1 <= 1e-6)
    criterion_report(3, ok,
                     f"eigen residuals {triple.res_alpha:.1e}/{triple.res_eta:.1e} "
                     f"(limit 1e-8); q rows {chk.row_sum_max_err:.1e}, "
                     f"beta invariance {chk.beta_invariance_l1:.1e} (limit 1e-6)")
    assert ok


def test_criterion_04_survival_exponentiality(acc_fv, acc_survival, criterion_report):
    z = (abs(acc_survival.lambda0 - acc_fv.lambda0)
         / np.hypot(acc_survival.stderr, acc_fv.lambda0_stderr))
    ok = acc_survival.r_squared >= 0.98 and z <= 2.0
    criterion_report(4, ok, f"log-survival fit R^2 = {acc_survival.r_squared:.4f} "
                            f"(limit 0.98); slope z = {z:.2f} (limit 2)")
    assert ok


def test_criterion_05_eta_two_horizons_and_oracle(acc_eta, acc_oracle, criterion_report):
    _, triple = acc_oracle
    # node-wise two-horizon agreement where both horizons are well sampled;
    # 3-sigma tests over ~50 nodes get a 5% false-positive allowance
    zmask = (acc_eta.survivors_t1 >= 50) & (acc_eta.survivors_t2 >= 50)
    z = acc_eta.consistency_z()[zmask]
    frac_bad = float(np.mean(z > 3.0)) if len(z) else 1.0
    # oracle comparison under the oracle's own normalization and weighting
    g = triple.alpha.grid
    xc = np.repeat(g.x_centers, g.ny)[:, None]
    yc = np.tile(g.y_centers, g.nx)
    eta_hat = acc_eta(xc, yc).reshape(g.shape)
    w = triple.alpha.masses
    eta_hat = eta_hat / float(np.sum(w * eta_hat))
    agg = float(np.sum(w * np.abs(eta_hat - triple.eta)) / np.sum(w * triple.eta))
    ok = frac_bad <= 0.05 and agg <= 0.10
    criterion_report(5, ok, f"two-horizon frac(z>3) = {frac_bad:.3f} on "
                            f"{int(zmask.sum())} nodes (limit 0.05); "
                            f"vs oracle eta {agg:.2%} (limit 10%)")
    assert ok


def test_criterion_06_q_process_stationarity(acc_beta, acc_q_marginal, criterion_report):
    qx, qy, stats = acc_q_marginal
    grid = acc_beta.grid
    hist = grid.histogram(qx, qy)
    marginal = EmpiricalMeasure(grid, hist / hist.sum())
    tv = tv_distance(marginal.coarsen(8, 6), acc_beta.coarsen(8, 6))
    ok = tv <= 0.15
    criterion_report(6, ok, f"TV(conditioned marginal at t=20, beta) = {tv:.4f} "
                            f"on 10x10 blocks (limit 0.15); "
                            f"ceiling violations {stats['ceiling_violations']}")
    assert ok


def test_criterion_07_balance_identity(criterion_report):
    params = default_params(r0=4.0, v=0.1)
    rep = balance_residual(params, SimConfig(), StreamKey(seed=11, lineage=("bal",)),
                           n_particles=400, burn=30.0, collect=100.0)
    ok = rep.sigmas <= 3.0
    criterion_report(7, ok, f"|v - jump flux| = {abs(rep.residual):.5f} "
                            f"= {rep.sigmas:.2f} sigma (limit 3)")
    assert ok


def test_criterion_08_tv_convergence(acc_fv, acc_params, acc_config, criterion_report):
    start = relaxed_start(acc_params, acc_config)
    curve = convergence_curve(start, acc_fv.alpha.coarsen(4, 4), acc_params,
                              acc_config, StreamKey(seed=11, lineage=("conv",)),
                              n_replicates=8, n_particles=500, t_max=12.0,
                              slice_dt=1.0)
    viol = curve.monotone_violation_rate()
    ok = viol <= 0.10 and curve.r_squared >= 0.9
    criterion_report(8, ok, f"monotone violations {viol:.2f} (limit 0.10); "
                            f"exponential fit R^2 = {curve.r_squared:.3f} "
                            f"(limit 0.9), rate {curve.gamma_hat:.3f}")
    assert ok


def test_criterion_09_truncation_family(acc_params, acc_config, criterion_report):
    fam = truncation_family(acc_params, acc_config,
                            StreamKey(seed=11, lineage=("trunc",)),
                            Ls=(2.5, 3.0, 4.0, 5.0))
    lam, se = fam.lambda_hat, fam.lambda_se
    mono_ok = all(lam[i + 1] <= lam[i] + 2.0 * np.hypot(se[i], se[i + 1])
                  for i in range(len(lam) - 1))
    tv_ok = bool(np.all(np.diff(fam.tv_to_largest) < 0.0))
    ok = mono_ok and tv_ok
    lam_str = " -> ".join(f"{v:.3f}" for v in lam)
    tv_str = " -> ".join(f"{v:.3f}" for v in fam.tv_to_largest)
    criterion_report(9, ok, f"lambda {lam_str} nonincreasing (2 sigma): "
                            f"{mono_ok}; TV to largest {tv_str} decreasing: {tv_ok}")
    assert ok


def test_criterion_10_jump_geometry_and_reconstruction(criterion_report):
    params = default_params(fixation_family="advantageous_only")
    config = SimConfig()
    res = run_cohort(np.zeros((75000, 1)), np.full(75000, 2.2), params, config,
                     horizon=4.0, key=StreamKey(seed=11, lineage=("c10",)),
                     collect_jumps=True)
    n_jumps = len(res.jump_w)
    violations = int(np.count_nonzero(res.jump_norm_after >= res.jump_norm_before))

    cfg10 = SimConfig(horizon=10.0)
    max_err = 0.0
    for i in range(100):
        traj = simulate_path((np.zeros(1), 2.2), params, cfg10,
                             StreamKey(seed=11, lineage=("c10r", i)))
        for j in range(0, len(traj.times), 10):
            err = abs(traj.reconstruct_x(traj.times[j])[0] - traj.x[j, 0])
            max_err = max(max_err, err)
    ok = n_jumps >= 100_000 and violations == 0 and max_err < 1e-10
    criterion_report(10, ok, f"{n_jumps} accepted jumps, {violations} norm "
                             f"violations (limit 0); reconstruction max err "
                             f"{max_err:.1e} (limit 1e-10)")
    assert ok


def test_criterion_11_rescaled_measure_equivalence(criterion_report):
    base = default_params(fixation_family="advantageous_only")
    tilted = rescale_jump_measure(base)
    config = SimConfig()
    ca = run_cohort(np.zeros((4000, 1)), np.full(4000, 2.2), base, config,
                    horizon=3.0, key=StreamKey(seed=11, lineage=("c11", "a")),
                    collect_jumps=True)
    cb = run_cohort(np.zeros((4000, 1)), np.full(4000, 2.2), tilted, config,
                    horizon=3.0, key=StreamKey(seed=11, lineage=("c11", "b")),
                    collect_jumps=True)
    wa, wb = ca.jump_w[:, 0], cb.jump_w[:, 0]
    ks = ks_2samp(wa, wb)
    rate_a = len(wa) / ca.total_time_alive
    rate_b = len(wb) / cb.total_time_alive
    se = np.hypot(np.sqrt(len(wa)) / ca.total_time_alive,
                  np.sqrt(len(wb)) / cb.total_time_alive)
    z = abs(rate_a - rate_b) / se
    ok = ks.pvalue > 0.01 and z <= 2.0
    criterion_report(11, ok, f"jump sizes KS p = {ks.pvalue:.4f} (limit 0.01); "
                             f"rate z = {z:.2f} (limit 2) on "
                             f"{len(wa)}/{len(wb)} jumps")
    assert ok


def test_criterion_12_discretization_robustness(acc_fv, acc_params, criterion_report):
    grid = default_hist_grid(SimConfig(truncation=4.0, truncation_y_low=1e-3))
    cfg_dt = SimConfig(truncation=4.0, truncation_y_low=1e-3, dt_max=0.005)
    fv_dt = fleming_viot(acc_params, cfg_dt, StreamKey(seed=11, lineage=("fvdt",)),
                         n_particles=2000, window=50.0, hist_grid=grid)
    cfg_ye = SimConfig(truncation=4.0, truncation_y_low=5e-4, y_ext=5e-4)
    fv_ye = fleming_viot(acc_params, cfg_ye, StreamKey(seed=11, lineage=("fvye",)),
                         n_particles=2000, window=50.0, hist_grid=grid)
    details = []
    ok = True
    for name, fvx in (("dt_max/2", fv_dt), ("y_ext/2", fv_ye)):
        shift = abs(fvx.lambda0 - acc_fv.lambda0)
        allow = (2.0 * np.hypot(acc_fv.lambda0_stderr, fvx.lambda0_stderr)
                 + 0.05 * acc_fv.lambda0)
        ok = ok and shift < allow
        details.append(f"{name} shift {shift:.4f} < {allow:.4f}")
    criterion_report(12, ok, "; ".join(details))
    assert ok
