"""One benchmark workload in its own process: set-up, timed solves, checks.

run.py starts this file once per measured process; it is not meant to be
called by hand, but can be, e.g.

    python3 perfbench/workload.py --workload fv --seed 1 --solves 1 --trace 0

Set-up (imports, model parameters, a warm-up cohort window and, for the
estimator workloads, the 80x60 oracle reference) happens before any timing.
Each solve gets its own seed derived from --seed, is timed on its own, and is
then checked against the reference outside the timed region. A solve that
raises or fails a check counts as a failed operation.

Times are taken with a SpeedProbe (speed.py) running, and reported both as
wall time and rescaled to the probe's reference speed.

The last line of stdout is one JSON object: set-up time, per-solve times,
per-solve outputs and check verdicts, peak RSS, CPU time, the probe's
summary and, with --trace 1, the per-layer trace counters (see tracing.py).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"

# Workload sizes. "full" is what the benchmark measures; "toy" is the
# self-test's reduced size, with accuracy limits loosened only where the
# smaller sample needs it (the wrong-reference test must still fail them).
# nominal_s is a solve's wall time on the reference machine; with --seconds
# it fixes how many solves a run makes, so the work per run does not depend
# on how fast the code under test is.
SIZES = {
    "full": {
        "fv": dict(particles=2000, dt_max=0.01, L=4.0, burn_in=5.0, window=10.0,
                   lambda_rel_max=0.10, tv_max=0.10, nominal_s=5.0),
        "eta_q": dict(replicates=100, nodes=(30, 20), t_eval=2.0, q_horizon=1.5,
                      q_paths=2, eta_err_max=0.30, nominal_s=6.0),
        "oracle": dict(grids=((80, 60), (120, 90)), survival_ts=(1.0, 2.0),
                       nominal_s=9.0),
        "diagnose": dict(conv_replicates=4, conv_particles=500, t_max=12.0,
                         balance_particles=400, balance_burn=5.0, balance_collect=15.0,
                         r2_min=0.85, violations_max=0.10, floor_tv_max=0.25,
                         sigmas_max=4.0, nominal_s=10.0),
    },
    "toy": {
        "fv": dict(particles=1000, dt_max=0.01, L=4.0, burn_in=3.0, window=3.0,
                   lambda_rel_max=0.20, tv_max=0.60, nominal_s=1.0),
        "eta_q": dict(replicates=60, nodes=(30, 20), t_eval=2.0, q_horizon=0.5,
                      q_paths=1, eta_err_max=0.30, nominal_s=1.0),
        "oracle": dict(grids=((80, 60),), survival_ts=(0.5,), nominal_s=1.0),
        "diagnose": dict(conv_replicates=3, conv_particles=200, t_max=8.0,
                         balance_particles=100, balance_burn=2.0, balance_collect=4.0,
                         r2_min=0.5, violations_max=0.5, floor_tv_max=0.5,
                         sigmas_max=3.0, nominal_s=1.0),
    },
}

WORKLOADS = tuple(SIZES["full"])

# leading eigenvalue of the L = 4 default-parameter generator per (nx, ny),
# recorded from leading_triple at tol 1e-10
ORACLE_LAMBDA0 = {(80, 60): 0.7904266133406556, (120, 90): 0.7994230612070625}

REFERENCE_GRID = (80, 60)
WRONG_REFERENCE_FACTOR = 1.5


def solve_seed(seed: int, index: int) -> int:
    """Seed of solve `index` in a run started with `seed`."""
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, size: dict, seed: int, wrong: bool = False) -> dict:
    """Everything a solve needs that is not itself measured."""
    # every layer is imported here, so that set-up time includes loading it
    from adaptqsd import cli, cohort, measure, model, oracle, pathsim, qsd, rng  # noqa: F401

    import numpy as np

    ctx = {"size": size}
    params = model.default_params()
    sim = pathsim.SimConfig(truncation=4.0, truncation_y_low=1e-3,
                            dt_max=size.get("dt_max", 0.01))
    ctx.update(params=params, sim=sim)
    if workload == "oracle":
        # warm the sparse assembly, LU and Crank-Nicolson paths on a small grid
        small = oracle.build_generator(params, L=4.0, y_min=sim.y_floor, nx=20, ny=16)
        oracle.oracle_q_kernel(small, oracle.leading_triple(small), 0.05)
        return ctx
    engine = cohort.Engine(params, sim)
    n = 64
    engine.window(np.zeros((n, 1)), np.full(n, 1.0), np.ones(n, dtype=bool), 0.0,
                  sim.dt_max, rng.stream(rng.StreamKey(seed, ("bench", "warmup"))))
    genr = oracle.build_generator(params, L=4.0, y_min=sim.y_floor,
                                  nx=REFERENCE_GRID[0], ny=REFERENCE_GRID[1])
    ctx["ref"] = oracle.leading_triple(genr)
    if workload == "diagnose":
        ctx["start"] = qsd.relaxed_start(params, sim)
        conv_ref = ctx["ref"].alpha.coarsen(4, 4)
        if wrong:
            # a law cannot be scaled: the wrong reference is alpha mirrored in x
            conv_ref = measure.EmpiricalMeasure(conv_ref.grid, conv_ref.masses[::-1])
        ctx["conv_ref"] = conv_ref
        # criterion 07's regime: faster growth, slower optimum, untruncated
        ctx["balance_params"] = model.default_params(r0=4.0, v=0.1)
        ctx["balance_sim"] = pathsim.SimConfig()
    return ctx


# ---------------------------------------------------------------------------
# solves (timed) and checks (untimed)
#
# Solves call the package through module attributes (qsd.estimate_eta, ...)
# so that the traced run's wrappers see every call.


def solve_fv(ctx: dict, seed: int):
    from adaptqsd import cli

    s = ctx["size"]
    out_dir = ctx["work"] / f"fv{seed}"
    argv = ["fv", "--seed", str(seed), "--out", str(out_dir),
            "--set", f"particles={s['particles']}", "--set", f"dt_max={s['dt_max']}",
            "--set", f"L={s['L']}", "--set", f"burn_in={s['burn_in']}",
            "--set", f"window={s['window']}"]
    return cli.main(argv), out_dir


def check_fv(ctx: dict, result, wrong: bool) -> tuple[dict, list]:
    import csv

    import numpy as np

    s = ctx["size"]
    ref = ctx["ref"]
    rc, out_dir = result
    checks = [("exit_code", rc, 0, rc == 0)]
    with open(out_dir / "lambda0.json") as fh:
        lam = float(json.load(fh)["lambda0"])
    with open(out_dir / "alpha.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(out_dir / "manifest.json") as fh:
        listed = json.load(fh)["artifacts"]
    masses = np.array([float(r[-1]) for r in rows])
    shape = ref.alpha.masses.shape
    parsed = (listed == ["alpha.csv", "lambda0.json"] and masses.size == np.prod(shape)
              and bool(np.all(np.isfinite(masses))) and abs(masses.sum() - 1.0) < 1e-9)
    checks.append(("artifacts_parse", int(parsed), 1, parsed))
    lam_ref = ref.lambda0 * (WRONG_REFERENCE_FACTOR if wrong else 1.0)
    rel = abs(lam - lam_ref) / lam_ref
    checks.append(("lambda0_rel_err", rel, s["lambda_rel_max"], rel <= s["lambda_rel_max"]))
    tv = 0.5 * float(np.abs(masses.reshape(shape) - ref.alpha.masses).sum()) if parsed else 1.0
    checks.append(("tv_alpha", tv, s["tv_max"], tv <= s["tv_max"]))
    particle_windows = s["particles"] * int(round((s["burn_in"] + s["window"]) / s["dt_max"]))
    return {"lambda0": lam, "tv_alpha": tv, "particle_windows": particle_windows}, checks


def solve_eta_q(ctx: dict, seed: int):
    # conditioned_marginal is left out until walkers started next to an
    # absorbing edge stop exhausting its retry budget (README.md)
    from adaptqsd import pathsim, qsd, rng

    s = ctx["size"]
    params, sim, ref = ctx["params"], ctx["sim"], ctx["ref"]
    key = rng.StreamKey(seed, ("bench", "eta_q"))
    eta = qsd.estimate_eta(ref.alpha, ref.lambda0, params, sim, key.child("eta"),
                           t_eval=s["t_eval"], replicates=s["replicates"], nodes=s["nodes"])
    beta = qsd.beta_from(ref.alpha, eta)
    paths = []
    for i in range(s["q_paths"]):
        sx, sy = beta.sample(rng.stream(key.child("qpath", i, "start")), 1)
        paths.append(pathsim.simulate_q_path((sx[0], float(sy[0])), params, sim,
                                             key.child("qpath", i), eta,
                                             eta_max=eta.max_value, horizon=s["q_horizon"]))
    return eta, beta, paths


def check_eta_q(ctx: dict, result, wrong: bool) -> tuple[dict, list]:
    import numpy as np
    from adaptqsd.measure import tv_distance

    s = ctx["size"]
    ref = ctx["ref"]
    eta, beta, paths = result
    # criterion 05's comparison: oracle normalization and alpha weighting
    g = ref.alpha.grid
    xc = np.repeat(g.x_centers, g.ny)[:, None]
    yc = np.tile(g.y_centers, g.nx)
    w = ref.alpha.masses
    eta_hat = eta(xc, yc).reshape(g.shape)
    eta_hat = eta_hat / float(np.sum(w * eta_hat))
    eta_ref = ref.eta * (WRONG_REFERENCE_FACTOR if wrong else 1.0)
    err = float(np.sum(w * np.abs(eta_hat - eta_ref)) / np.sum(w * eta_ref))
    steps = int(round(s["q_horizon"] / ctx["sim"].qprocess_delta))
    paths_ok = all(len(p.times) == steps + 1 and bool(np.all(np.isfinite(p.y)))
                   and bool(np.all(p.y > 0.0)) for p in paths)
    checks = [("eta_weighted_err", err, s["eta_err_max"], err <= s["eta_err_max"]),
              ("q_paths_ok", int(paths_ok), 1, paths_ok)]
    outputs = {"eta_weighted_err": err,
               "beta_tv_to_oracle": tv_distance(beta.coarsen(8, 6),
                                                ref.beta().coarsen(8, 6)),
               "eta_iterations": int(eta.iterations_used),
               "q_path_end_y": [float(p.y[-1]) for p in paths],
               "q_path_ceiling_violations": [p.meta["q_ceiling_violations"] for p in paths]}
    return outputs, checks


def solve_oracle(ctx: dict, seed: int):
    from adaptqsd import oracle

    s = ctx["size"]
    params, sim = ctx["params"], ctx["sim"]
    out = []
    for i, (nx, ny) in enumerate(s["grids"]):
        genr = oracle.build_generator(params, L=4.0, y_min=sim.y_floor, nx=nx, ny=ny)
        tri = oracle.leading_triple(genr)
        qk = oracle.oracle_q_kernel(genr, tri, 1.0)
        # the survival check runs on the reference grid only
        surv = oracle.survival_consistency(genr, tri, s["survival_ts"]) if i == 0 else {}
        out.append((nx, ny, genr.diagnostics["nnz"], tri, qk, surv))
    return out


def check_oracle(ctx: dict, result, wrong: bool) -> tuple[dict, list]:
    outputs, checks = {}, []
    for nx, ny, nnz, tri, qk, surv in result:
        tag = f"{nx}x{ny}"
        lam_rec = ORACLE_LAMBDA0[(nx, ny)] * (WRONG_REFERENCE_FACTOR if wrong else 1.0)
        rel = abs(tri.lambda0 - lam_rec) / lam_rec
        res = max(tri.res_alpha, tri.res_eta)
        checks += [(f"{tag}.lambda0_rel_err", rel, 1e-6, rel <= 1e-6),
                   (f"{tag}.eigen_residual", res, 1e-8, res <= 1e-8),
                   (f"{tag}.q_row_err", qk.row_sum_max_err, 1e-6, qk.row_sum_max_err <= 1e-6),
                   (f"{tag}.beta_invariance", qk.beta_invariance_l1, 1e-6,
                    qk.beta_invariance_l1 <= 1e-6)]
        if surv:
            worst = max(surv.values())
            checks.append((f"{tag}.survival_err", worst, 1e-6, worst <= 1e-6))
        outputs[tag] = {"lambda0": tri.lambda0, "iterations": int(tri.iterations), "nnz": nnz,
                        "res_alpha": tri.res_alpha, "res_eta": tri.res_eta,
                        "q_row_err": qk.row_sum_max_err,
                        "beta_invariance": qk.beta_invariance_l1,
                        "survival_err": {str(t): e for t, e in surv.items()}}
    return outputs, checks


def solve_diagnose(ctx: dict, seed: int):
    from adaptqsd import qsd, rng

    s = ctx["size"]
    key = rng.StreamKey(seed, ("bench", "diagnose"))
    curve = qsd.convergence_curve(ctx["start"], ctx["conv_ref"], ctx["params"], ctx["sim"],
                                  key.child("conv"), n_replicates=s["conv_replicates"],
                                  n_particles=s["conv_particles"], t_max=s["t_max"],
                                  slice_dt=1.0)
    bal = qsd.balance_residual(ctx["balance_params"], ctx["balance_sim"], key.child("bal"),
                               n_particles=s["balance_particles"], burn=s["balance_burn"],
                               collect=s["balance_collect"])
    return curve, bal


def check_diagnose(ctx: dict, result, wrong: bool) -> tuple[dict, list]:
    s = ctx["size"]
    curve, bal = result
    viol = curve.monotone_violation_rate()
    v_ref = bal.v * (WRONG_REFERENCE_FACTOR if wrong else 1.0)
    sigmas = abs(v_ref - bal.rhs) / max(bal.mc_stderr, 1e-300)
    r2 = curve.r_squared
    checks = [("convergence_r2", r2, s["r2_min"], bool(r2 >= s["r2_min"])),
              ("monotone_violations", viol, s["violations_max"], viol <= s["violations_max"]),
              ("convergence_floor_tv", curve.floor, s["floor_tv_max"],
               curve.floor <= s["floor_tv_max"]),
              ("balance_sigmas", sigmas, s["sigmas_max"], sigmas <= s["sigmas_max"])]
    outputs = {"convergence_r2": r2, "monotone_violations": viol, "floor_tv": curve.floor,
               "gamma_hat": curve.gamma_hat, "balance_rhs": bal.rhs,
               "balance_sigmas": sigmas}
    return outputs, checks


# ---------------------------------------------------------------------------
# tracing


def install_tracer(ctx: dict):
    """Wrap the public callables of every layer at their lookup sites."""
    from adaptqsd import cli, cohort, measure, oracle, pathsim, qsd, rng
    import numpy as np
    from tracing import Tracer

    tr = Tracer()
    c = tr.counts

    def window_before(engine, x, y, alive, *rest):
        return int(np.count_nonzero(alive))

    def window_after(ev, n_alive):
        c["cohort.particle_windows"] += n_alive
        c["cohort.proposals"] += ev.n_proposals
        c["cohort.jumps_accepted"] += len(ev.jump_ids)
        c["cohort.bound_exceeded"] += ev.bound_exceeded
        c["cohort.kills"] += len(ev.kill_ids)

    def substep_before(x, y, params):
        c["cohort.substep_rounds"] += 1
        c["cohort.particle_substeps"] += len(y)

    def fv_after(est, _):
        c["qsd.fv_resamples"] += len(est.kill_log["killed"])

    def eta_after(est, _):
        c["qsd.eta_iterations"] += est.iterations_used

    def q_path_after(traj, _):
        c["pathsim.q_path_steps"] += len(traj.times) - 1

    def build_after(genr, _):
        c["oracle.nnz"] += genr.diagnostics["nnz"]

    def triple_after(tri, _):
        c["oracle.triple_iterations"] += tri.iterations

    tr.wrap(cohort.Engine, "window", "cohort.window", window_before, window_after,
            keep_durations=True)
    tr.wrap(cohort, "drift_y", "model.drift_y", before=substep_before)
    for mod in (pathsim, oracle):
        tr.wrap(mod, "drift_y", "model.drift_y")
    for mod in (qsd, oracle):
        tr.wrap(mod, "fixation_integral", "model.fixation_integral")
    tr.wrap(cli, "validate_hypotheses", "model.validate_hypotheses")
    for mod in (rng, qsd, cli):
        tr.wrap(mod, "stream", "rng.stream")
    tr.wrap(measure.HistGrid, "cell_index", "measure.cell_index")
    tr.wrap(measure.EmpiricalMeasure, "sample", "measure.sample")
    tr.wrap(qsd, "tv_distance", "measure.tv_distance")
    tr.wrap(cli, "fleming_viot", "qsd.fleming_viot", after=fv_after)
    tr.wrap(qsd, "run_cohort", "qsd.run_cohort")
    tr.wrap(qsd, "estimate_eta", "qsd.estimate_eta", after=eta_after)
    tr.wrap(qsd, "beta_from", "qsd.beta_from")
    tr.wrap(qsd, "convergence_curve", "qsd.convergence_curve")
    tr.wrap(qsd, "balance_residual", "qsd.balance_residual")
    tr.wrap(pathsim, "simulate_q_path", "pathsim.simulate_q_path", after=q_path_after)
    tr.wrap(oracle, "build_generator", "oracle.build_generator", after=build_after)
    tr.wrap(oracle, "leading_triple", "oracle.leading_triple", after=triple_after)
    tr.wrap(oracle, "oracle_q_kernel", "oracle.oracle_q_kernel")
    tr.wrap(oracle, "survival_consistency", "oracle.survival_consistency")
    tr.wrap(cli, "main", "cli.main")
    return tr


def trace_metrics(tr, total_s: float) -> dict:
    """Per-layer metrics of one traced process (see README.md for each)."""
    import numpy as np

    span, own, calls, c = tr.span_s, tr.self_s, tr.calls, tr.counts
    layers = tr.layer_self_s()
    win = np.asarray(tr.durations.get("cohort.window", []))
    pw = c["cohort.particle_windows"]
    props = c["cohort.proposals"]
    m = {
        "cohort.window_calls": calls["cohort.window"],
        "cohort.particle_windows": pw,
        "cohort.particle_windows_per_s": pw / span["cohort.window"] if pw else 0.0,
        "cohort.window_ms_p50": float(np.percentile(win, 50)) * 1e3 if win.size else 0.0,
        "cohort.window_ms_p99": float(np.percentile(win, 99)) * 1e3 if win.size else 0.0,
        "cohort.proposals": props,
        "cohort.jumps_accepted": c["cohort.jumps_accepted"],
        "cohort.jump_accept_ratio": c["cohort.jumps_accepted"] / props if props else 0.0,
        "cohort.bound_exceeded": c["cohort.bound_exceeded"],
        "cohort.kills": c["cohort.kills"],
        "cohort.substep_rounds": c["cohort.substep_rounds"],
        "cohort.particle_substeps": c["cohort.particle_substeps"],
        "model.drift_y_s": span["model.drift_y"],
        "model.fixation_integral_calls": calls["model.fixation_integral"],
        "model.fixation_integral_s": span["model.fixation_integral"],
        "model.validate_hypotheses_s": span["model.validate_hypotheses"],
        "rng.stream_calls": calls["rng.stream"],
        "rng.stream_s": span["rng.stream"],
        "rng.stream_share": span["rng.stream"] / total_s,
        "measure.cell_index_calls": calls["measure.cell_index"],
        "measure.cell_index_s": span["measure.cell_index"],
        "qsd.fleming_viot_s": span["qsd.fleming_viot"],
        "qsd.fleming_viot_self_s": own["qsd.fleming_viot"],
        "qsd.fv_resamples": c["qsd.fv_resamples"],
        "qsd.estimate_eta_s": span["qsd.estimate_eta"],
        "qsd.estimate_eta_self_s": own["qsd.estimate_eta"],
        "qsd.eta_iterations": c["qsd.eta_iterations"],
        "qsd.run_cohort_s": span["qsd.run_cohort"],
        "qsd.convergence_curve_s": span["qsd.convergence_curve"],
        "qsd.balance_residual_s": span["qsd.balance_residual"],
        "qsd.balance_residual_self_s": own["qsd.balance_residual"],
        "pathsim.simulate_q_path_s": span["pathsim.simulate_q_path"],
        "pathsim.q_path_steps": c["pathsim.q_path_steps"],
        "oracle.build_generator_s": span["oracle.build_generator"],
        "oracle.nnz": c["oracle.nnz"],
        "oracle.leading_triple_s": span["oracle.leading_triple"],
        "oracle.triple_iterations": c["oracle.triple_iterations"],
        "oracle.survival_consistency_s": span["oracle.survival_consistency"],
        "oracle.q_kernel_s": span["oracle.oracle_q_kernel"],
        "cli.main_s": span["cli.main"],
    }
    for layer, s in layers.items():
        m[f"{layer}.self_s"] = s
    m["trace.layer_share"] = sum(layers.values()) / total_s
    return m


# ---------------------------------------------------------------------------
# entry point


SOLVERS = {
    "fv": (solve_fv, check_fv),
    "eta_q": (solve_eta_q, check_eta_q),
    "oracle": (solve_oracle, check_oracle),
    "diagnose": (solve_diagnose, check_diagnose),
}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timing(probe, t0: float) -> dict:
    """Times of a solve that started at perf_counter() t0 and ends now.

    seconds: rescaled to reference speed (the reported time); wall_s: as
    measured; probe_s: the probe's share of wall_s.
    """
    t1 = time.perf_counter()
    return {"seconds": probe.rescale(t0, t1), "wall_s": t1 - t0,
            "probe_s": probe.busy(t0, t1)}


def run_solves(ctx: dict, workload: str, seed: int, n_solves: int, wrong: bool,
               tracer, probe) -> tuple[list[dict], float]:
    solve, check = SOLVERS[workload]
    ctx["work"] = WORK / str(os.getpid())
    records = []
    cpu0 = cpu_seconds()
    try:
        for i in range(n_solves):
            s_seed = solve_seed(seed, i)
            rec = {"seed": s_seed}
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = solve(ctx, s_seed)
                else:
                    result = tracer.span("bench.solve", solve, ctx, s_seed)
            except Exception as exc:  # a raising solve is a failed operation
                rec.update(timing(probe, t0), ok=False, error=f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                records.append(rec)
                continue
            rec.update(timing(probe, t0))
            try:
                outputs, checks = check(ctx, result, wrong)
            except (OSError, ValueError, KeyError) as exc:  # unreadable artifacts
                outputs, checks = {}, [("outputs_readable", 0, 1, False)]
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["outputs"] = outputs
            rec["checks"] = [[name, value, limit, bool(ok)] for name, value, limit, ok in checks]
            rec["ok"] = all(ok for *_, ok in checks)
            records.append(rec)
    finally:
        shutil.rmtree(ctx["work"], ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # absent, or in use by another run
            pass
    return records, cpu_seconds() - cpu0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--solves", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() at process spawn (default: now)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="scale each check's reference by 1.5 (self-test)")
    args = ap.parse_args(argv)
    t_spawn = time.monotonic() if args.t0 is None else args.t0

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        size = SIZES[args.size][args.workload]
        ctx = setup(args.workload, size, args.seed, args.wrong_reference)
        setup_wall_s = time.monotonic() - t_spawn
        ready = time.perf_counter()
        report = {"setup_s": probe.rescale(ready - setup_wall_s, ready),
                  "setup_wall_s": setup_wall_s}
        if not args.setup_only:
            import numpy as np
            import scipy

            tracer = None
            if args.trace:
                tracer = install_tracer(ctx)
                # probe samples are charged to no layer
                probe.run = lambda fn: tracer.span("bench.probe", fn)
            t0 = time.perf_counter()
            records, cpu_s = run_solves(ctx, args.workload, args.seed, args.solves,
                                        args.wrong_reference, tracer, probe)
            wall_s = time.perf_counter() - t0
            report.update(
                solves=records, wall_s=wall_s, cpu_s=cpu_s,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                versions={"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__})
            if tracer is not None:
                tracer.unwrap_all()
                # layer self times exclude the probe, so the solve time they
                # are a share of excludes it too
                solve_s = sum(r["wall_s"] - r["probe_s"] for r in records)
                report["trace"] = trace_metrics(tracer, solve_s)
    finally:
        probe.stop()
    report["probe"] = probe.summary()
    print(json.dumps(report, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
