"""Command-line entry point: reproducible experiment runs from a flat JSON config.

Subcommands bind the estimator stack into artifact-producing runs. Every run
writes its outputs plus a manifest.json recording the semantic config, its
sha256, the seed, and library versions; reruns with the same (config, seed)
reproduce every artifact byte for byte. Exit codes: 0 ok, 2 config error,
3 hypothesis violation, 4 numeric failure, 5 mass extinction.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import (AdaptQsdError, ConfigError, DomainError, HypothesisError,
                     MassExtinctionError, NumericError, UnsupportedModelError)
from .measure import EmpiricalMeasure, HistGrid
from .model import (ModelParams, default_params, flat_params, reference_set,
                    validate_hypotheses)
from .oracle import build_generator, leading_triple
from .pathsim import ExitReason, SimConfig, Trajectory, simulate_path, simulate_q_path
from .qsd import (_BALANCE_EVERY, _q_steps, balance_residual, beta_from, conditioned_marginal,
                  convergence_curve, default_hist_grid, estimate_eta,
                  estimate_lambda0_survival, fleming_viot, relaxed_start,
                  truncation_family)
from .rng import StreamKey, stream

EXIT_CODES = {
    ConfigError: 2,
    DomainError: 2,
    UnsupportedModelError: 2,
    HypothesisError: 3,
    NumericError: 4,
    MassExtinctionError: 5,
}

# numerics block: the SimConfig fields, with the truncation half-width under key L
_SIM_FIELDS = {("L" if f.name == "truncation" else f.name): f for f in fields(SimConfig)}

_MODEL_KEYS = frozenset(flat_params(ModelParams()))

# model block, numerics block, experiment block; the model and numerics
# defaults are the library's, except that the CLI runs on a truncation box
DEFAULT_CONFIG: dict = {
    **flat_params(ModelParams()),
    **{key: f.default for key, f in _SIM_FIELDS.items()},
    "L": 4.0,
    "truncation_y_low": 0.001,
    # experiment
    "seed": 0,
    "particles": 2000,
    "window": 50.0,
    "burn_in": "auto",
    "nx": 80,
    "ny": 60,
    "replicates": 5000,
    "lambda_horizon": 8.0,
    "eta_t_eval": 2.0,
    "eta_replicates": 3000,
    "eta_nodes_x": 30,
    "eta_nodes_y": 20,
    "walkers": 500,
    "q_horizon": 20.0,
    "q_paths": 3,
    "L_list": [2.5, 3.0, 4.0, 5.0],
    "conv_replicates": 8,
    "conv_particles": 500,
    "t_max": 12.0,
    "slice_dt": 1.0,
    "balance_particles": 400,
    "balance_burn": 30.0,
    "balance_collect": 100.0,
    "out": "out",
}

# keys that do not influence results; excluded from the manifest hash
NON_SEMANTIC_KEYS = ("out",)


def load_config(path: str | None, overrides: list[str], seed: int | None,
                out: str | None) -> dict:
    """Merge defaults <- config file <- --set overrides <- dedicated flags."""
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _merge(cfg, user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        k, _, raw = item.partition("=")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        _merge(cfg, {k: val})
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out"] = out
    return cfg


def _merge(cfg: dict, updates: dict) -> None:
    for k, v in updates.items():
        if k not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {k!r}")
        cfg[k] = v


def _number(value, kind: type):
    """value as an int or a float, refusing a cast that would change it: a
    boolean, or a non-integral number for an int (1e3 is the int 1000)."""
    if isinstance(value, bool):
        raise ValueError("need a number, not a boolean")
    if kind is int and not isinstance(value, int):
        value = float(value)
        if not value.is_integer():
            raise ValueError("need an integer")
    return kind(value)


def cast_config(cfg: dict) -> dict:
    """cfg with every value cast to the type of its default (float for a None
    default) without changing it; null stays null only where the SimConfig
    default is None, burn_in stays "auto" or becomes a finite float >= 0,
    L_list a tuple of floats."""
    typed = {}
    for key, default in DEFAULT_CONFIG.items():
        value = cfg[key]
        try:
            if key == "burn_in":
                typed[key] = value if value == "auto" else _number(value, float)
                if value != "auto" and not 0.0 <= typed[key] < math.inf:
                    raise ValueError("need a finite burn-in >= 0 or \"auto\"")
            elif key == "L_list":
                typed[key] = tuple(_number(L, float) for L in value)
            elif value is None and key in _SIM_FIELDS and _SIM_FIELDS[key].default is None:
                typed[key] = None
            elif isinstance(default, str):
                typed[key] = str(value)
            else:
                typed[key] = _number(value, float if default is None else type(default))
        except (TypeError, ValueError) as exc:
            block = ("model" if key in _MODEL_KEYS else
                     "numerics" if key in _SIM_FIELDS else "experiment")
            raise ConfigError(f"bad {block} field {key}={value!r}: {exc}") from exc
    return typed


# subcommands whose outputs rely on the existence/uniqueness guarantees;
# diagnostics and plain path simulation stay runnable on degenerate models
# (e.g. the mutation-free zero-flux control) with a warning instead
GATED_COMMANDS = frozenset({"fv", "lambda", "eta", "qprocess", "oracle"})

# subcommands on the eta node interpolant or the balance J1 cache, which read
# one lag coordinate (oracle rejects d != 1 itself, before any work)
ONE_DIM_COMMANDS = frozenset({"eta", "qprocess", "diagnose"})


def _check_hypotheses(cmd: str, params: ModelParams) -> None:
    report = validate_hypotheses(params)
    ok, missing = report.routing_ok()
    if ok:
        return
    if cmd in GATED_COMMANDS:
        raise HypothesisError(
            "required hypotheses violated: " + ", ".join(missing))
    print(f"warning: required hypotheses violated ({', '.join(missing)}); "
          f"{cmd} runs anyway", file=sys.stderr)


def _key(cfg: dict, *lineage) -> StreamKey:
    return StreamKey(seed=cfg["seed"], lineage=("cli",) + lineage)


# ---------------------------------------------------------------------------
# artifact writers (fixed float formatting so reruns are byte-identical)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_measure_csv(path: Path, m: EmpiricalMeasure) -> None:
    _write_csv(path, [f"x{k+1}" for k in range(m.grid.dim)] + ["y", "mass"],
               ([_fmt(c) for c in row] for row in m.to_rows()))


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    """Sample rows, each preceded by the jumps up to its time; the last
    sample's event is the exit reason unless the path survived the horizon."""
    def rows():
        jumps = iter(sorted(traj.jumps, key=lambda j: j.t))
        pending = next(jumps, None)
        for i, t in enumerate(traj.times):
            while pending is not None and pending.t <= t:
                yield ([_fmt(pending.t), *map(_fmt, pending.x_after), "", "", "jump",
                        *map(_fmt, pending.w)])
                pending = next(jumps, None)
            exited = (i + 1 == len(traj.times)
                      and traj.exit_reason is not ExitReason.SURVIVED_HORIZON)
            # scalar y ** 2 is pow(), which can round apart from Trajectory.n (y * y)
            n = traj.sigma**2 * traj.y[i] ** 2 / 4.0
            yield ([_fmt(t), *map(_fmt, traj.x[i]), _fmt(traj.y[i]), _fmt(n),
                    traj.exit_reason.value if exited else "sample"] + [""] * d)

    d = traj.x.shape[1]
    _write_csv(path, ["t", *(f"x_{k+1}" for k in range(d)), "y", "n", "event",
                      *(f"w_{k+1}" for k in range(d))], rows())


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out: Path, cfg: dict, artifacts: list[str]) -> None:
    semantic = {k: cfg[k] for k in sorted(cfg) if k not in NON_SEMANTIC_KEYS}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    write_json(out / "manifest.json", {
        "config": semantic,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": int(cfg["seed"]),
        "versions": {
            "adaptqsd": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "artifacts": sorted(artifacts),
    })


def _lambda_payload(est) -> dict:
    return {
        "lambda0": est.lambda0,
        "stderr": est.lambda0_stderr,
        "kills_in_window": int(est.kills_in_window),
        "n_particles": int(est.n_particles),
        "burn_in_time": est.burn_in_time,
        "window": list(est.window),
        "diagnostics": {k: v for k, v in est.diagnostics.items()
                        if isinstance(v, (int, float, str, bool))},
    }


# ---------------------------------------------------------------------------
# subcommands


def run_validate(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    report = validate_hypotheses(params)
    for line in report.lines():
        print(line)
    write_json(out / "hypotheses.json", {
        "checks": {code: {"status": chk.status, "detail": chk.detail}
                   for code, chk in sorted(report.checks.items())},
        "required": report.required_codes(),
        "ok": report.routing_ok()[0],
    })
    ok, missing = report.routing_ok()
    if not ok:
        raise HypothesisError("required hypotheses violated: " + ", ".join(missing))
    return ["hypotheses.json"]


def run_simulate(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    box = reference_set(params)
    x0, y0 = box.sample(stream(_key(cfg, "simulate", "init")), 1)
    traj = simulate_path((x0[0], float(y0[0])), params, sim, _key(cfg, "simulate"))
    _write_trajectory(out / "trajectory.csv", traj)
    write_json(out / "exit.json", {
        "exit_reason": traj.exit_reason.value,
        "exit_time": traj.exit_time,
        "n_jumps": len(traj.jumps),
    })
    return ["trajectory.csv", "exit.json"]


def _run_fv(cfg: dict, params: ModelParams, sim: SimConfig):
    grid = default_hist_grid(sim, nx=cfg["nx"], ny=cfg["ny"], dim=params.dim)
    return fleming_viot(params, sim, _key(cfg, "fv"), n_particles=cfg["particles"],
                        window=cfg["window"], burn_in=cfg["burn_in"], hist_grid=grid)


def run_fv(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    est = _run_fv(cfg, params, sim)
    write_measure_csv(out / "alpha.csv", est.alpha)
    write_json(out / "lambda0.json", _lambda_payload(est))
    return ["alpha.csv", "lambda0.json"]


def run_lambda(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    est = estimate_lambda0_survival("reference", params, sim, _key(cfg, "lambda"),
                                    n_paths=cfg["replicates"],
                                    horizon=cfg["lambda_horizon"])
    write_json(out / "survival.json", {
        "lambda0": est.lambda0,
        "stderr": est.stderr,
        "ci95": list(est.ci95),
        "r_squared": est.r_squared,
        "n_paths": int(est.n_paths),
        "flags": est.flags,
    })
    _write_csv(out / "survival_curve.csv", ["t", "survivors", "in_fit"],
               ([_fmt(t), int(n), int(used)]
                for t, n, used in zip(est.t_grid, est.survivors, est.fit_mask)))
    return ["survival.json", "survival_curve.csv"]


def _run_eta(cfg: dict, params: ModelParams, sim: SimConfig):
    if not (cfg["eta_t_eval"] > 0.0 and cfg["eta_replicates"] >= 1):
        raise ConfigError("eta needs eta_t_eval > 0 and eta_replicates >= 1")
    fv = _run_fv(cfg, params, sim)
    eta = estimate_eta(fv.alpha, fv.lambda0, params, sim, _key(cfg, "eta"),
                       t_eval=cfg["eta_t_eval"],
                       replicates=cfg["eta_replicates"],
                       nodes=(cfg["eta_nodes_x"], cfg["eta_nodes_y"]))
    return fv, eta


def run_eta(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    fv, eta = _run_eta(cfg, params, sim)
    write_measure_csv(out / "alpha.csv", fv.alpha)
    write_json(out / "lambda0.json", _lambda_payload(fv))
    _write_csv(out / "eta.csv", ["x", "y", "eta", "stderr", "survivors"],
               ([_fmt(xv), _fmt(yv), _fmt(eta.values[i, j]), _fmt(eta.stderr[i, j]),
                 int(eta.survivors_t1[i, j])]
                for i, xv in enumerate(eta.x_nodes) for j, yv in enumerate(eta.y_nodes)))
    write_measure_csv(out / "beta.csv", beta_from(fv.alpha, eta))
    return ["alpha.csv", "lambda0.json", "eta.csv", "beta.csv"]


def run_qprocess(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    _q_steps(cfg["q_horizon"], sim, cfg["walkers"])
    fv, eta = _run_eta(cfg, params, sim)
    beta = beta_from(fv.alpha, eta)
    qx, qy, stats = conditioned_marginal(beta, eta, params, sim, _key(cfg, "qmarginal"),
                                         n_walkers=cfg["walkers"],
                                         horizon=cfg["q_horizon"])
    hist = fv.alpha.grid.histogram(qx, qy)
    write_measure_csv(out / "q_marginal.csv",
                      EmpiricalMeasure(fv.alpha.grid, hist / hist.sum()))
    artifacts = ["q_marginal.csv", "beta.csv", "qprocess.json"]
    write_measure_csv(out / "beta.csv", beta)
    for i in range(cfg["q_paths"]):
        sx, sy = beta.sample(stream(_key(cfg, "qpath", i, "start")), 1)
        traj = simulate_q_path((sx[0], float(sy[0])), params, sim,
                               _key(cfg, "qpath", i), eta,
                               eta_max=eta.max_value, horizon=cfg["q_horizon"])
        name = f"qpath_{i}.csv"
        _write_trajectory(out / name, traj)
        artifacts.append(name)
    write_json(out / "qprocess.json", {"walkers": cfg["walkers"],
                                       "horizon": cfg["q_horizon"],
                                       "attempt_stats": stats})
    return artifacts


def run_oracle(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    if sim.truncation is None:
        raise ConfigError("oracle needs a truncation half-width L")
    genr = build_generator(params, L=sim.truncation, y_min=sim.y_floor,
                           nx=cfg["nx"], ny=cfg["ny"])
    tri = leading_triple(genr)
    write_json(out / "oracle.json", {
        "lambda0": tri.lambda0,
        "residual_alpha": tri.res_alpha,
        "residual_eta": tri.res_eta,
        "iterations": int(tri.iterations),
        "nx": cfg["nx"],
        "ny": cfg["ny"],
    })
    write_measure_csv(out / "oracle_alpha.csv", tri.alpha)
    grid = tri.alpha.grid
    eta = tri.eta.reshape(grid.shape)
    _write_csv(out / "oracle_eta.csv", ["x", "y", "eta"],
               ([_fmt(xv), _fmt(yv), _fmt(eta[i, j])]
                for i, xv in enumerate(grid.x_centers) for j, yv in enumerate(grid.y_centers)))
    return ["oracle.json", "oracle_alpha.csv", "oracle_eta.csv"]


def run_diagnose(cfg: dict, params: ModelParams, sim: SimConfig, out: Path) -> list[str]:
    # the convergence reference is the fv alpha coarsened 4 x 4
    if min(cfg["nx"], cfg["ny"]) < 4 or cfg["nx"] % 4 or cfg["ny"] % 4:
        raise ConfigError("diagnose needs nx and ny divisible by 4, and at least 4")
    # replicate spread needs two replicates, each ensemble a donor survivor
    if cfg["conv_replicates"] < 2 or cfg["conv_particles"] < 2:
        raise ConfigError("diagnose needs conv_replicates >= 2 and conv_particles >= 2")
    # a convergence slice, and two balance samples for the block error
    if not (0.0 < cfg["slice_dt"] <= cfg["t_max"] and cfg["balance_collect"] > _BALANCE_EVERY):
        raise ConfigError("diagnose needs 0 < slice_dt <= t_max and "
                          f"balance_collect > {_BALANCE_EVERY}")
    if not cfg["L_list"]:
        raise ConfigError("diagnose needs at least one truncation box in L_list")
    # each box's SimConfig and the shared grid, as truncation_family builds them
    try:
        for L in cfg["L_list"]:
            replace(sim, truncation=L)
        L = max(cfg["L_list"])
        HistGrid.for_box(L, y_lo=sim.y_floor, nx=cfg["nx"], ny=cfg["ny"], dim=params.dim)
    except DomainError as exc:
        raise ConfigError(f"bad experiment field L_list={list(cfg['L_list'])}: "
                          f"box L={L:g}: {exc}") from exc
    fv = _run_fv(cfg, params, sim)
    curve = convergence_curve(relaxed_start(params, sim), fv.alpha.coarsen(4, 4), params,
                              sim, _key(cfg, "convergence"),
                              n_replicates=cfg["conv_replicates"],
                              n_particles=cfg["conv_particles"],
                              t_max=cfg["t_max"], slice_dt=cfg["slice_dt"])
    # the speed/flux identity holds for the untruncated process (criterion 07)
    bal = balance_residual(params, replace(sim, truncation=None, truncation_y_low=None),
                           _key(cfg, "balance"),
                           n_particles=cfg["balance_particles"],
                           burn=cfg["balance_burn"],
                           collect=cfg["balance_collect"])
    fam = truncation_family(params, sim, _key(cfg, "truncation"),
                            Ls=cfg["L_list"],
                            n_particles=cfg["particles"], window=cfg["window"],
                            burn_in=cfg["burn_in"], nx=cfg["nx"], ny=cfg["ny"])

    _write_csv(out / "convergence.csv", ["t", "tv_mean", "tv_se"],
               ([_fmt(t), _fmt(m), _fmt(se)]
                for t, m, se in zip(curve.t, curve.tv_mean, curve.tv_se)))
    write_json(out / "balance.json", {
        "v": bal.v, "rhs": bal.rhs, "residual": bal.residual,
        "mc_stderr": bal.mc_stderr, "sigmas": bal.sigmas,
        "n_samples": int(bal.n_samples), "n_blocks": int(bal.n_blocks),
    })
    _write_csv(out / "truncation.csv", ["L", "lambda_hat", "lambda_se", "tv_to_largest"],
               ([_fmt(c) for c in row]
                for row in zip(fam.L, fam.lambda_hat, fam.lambda_se, fam.tv_to_largest)))
    write_json(out / "diagnose.json", {
        "lambda0": fv.lambda0,
        "lambda0_stderr": fv.lambda0_stderr,
        "gamma_hat": curve.gamma_hat,
        "gamma_se": curve.gamma_se,
        "convergence_r_squared": curve.r_squared,
        "monotone_violation_rate": curve.monotone_violation_rate(),
        "balance_sigmas": bal.sigmas,
        "convergence_bound_exceeded": int(curve.bound_exceeded),
        "balance_bound_exceeded": int(bal.bound_exceeded),
    })
    return ["convergence.csv", "balance.json", "truncation.csv", "diagnose.json"]


RUNNERS = {
    "validate": run_validate,
    "simulate": run_simulate,
    "fv": run_fv,
    "lambda": run_lambda,
    "eta": run_eta,
    "qprocess": run_qprocess,
    "oracle": run_oracle,
    "diagnose": run_diagnose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptqsd",
        description="Simulation and estimation for the moving-optimum "
                    "adaptation model with extinction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    descriptions = {
        "validate": "check the structural hypotheses and write a report",
        "simulate": "simulate one trajectory to absorption or the horizon",
        "fv": "Fleming-Viot estimate of (alpha, lambda0)",
        "lambda": "lambda0 from the survival-curve regression",
        "eta": "survival-capacity grid (runs fv first)",
        "qprocess": "conditioned-process marginal and sample paths",
        "oracle": "grid-generator eigentriple cross-check",
        "diagnose": "convergence curve, balance residual, truncation family",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", help="JSON config path (defaults are built in)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (default: ./out)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (JSON-parsed value)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed, args.out)
        typed = cast_config(cfg)
        params = default_params(**{k: typed[k] for k in _MODEL_KEYS})
        sim = SimConfig(**{f.name: typed[key] for key, f in _SIM_FIELDS.items()})
        if params.dim != 1 and args.cmd in ONE_DIM_COMMANDS:
            raise UnsupportedModelError(f"{args.cmd} is implemented for d = 1 only")
        if args.cmd != "validate":
            _check_hypotheses(args.cmd, params)
        out = Path(cfg["out"])
        created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output dir {out}: {exc}") from exc
        try:
            artifacts = RUNNERS[args.cmd](typed, params, sim, out)
        except BaseException:
            # a rejected run leaves no empty directory of its own behind
            for d in created:
                try:
                    d.rmdir()
                except OSError:  # not empty
                    break
            raise
        write_manifest(out, typed, artifacts)
    except AdaptQsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass in type(exc).__mro__:
            if klass in EXIT_CODES:
                return EXIT_CODES[klass]
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
