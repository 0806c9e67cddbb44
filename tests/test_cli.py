from __future__ import annotations

import dataclasses
import fnmatch
import json
import re
from pathlib import Path

import numpy as np
import pytest

from adaptqsd import cli, cohort, qsd
from adaptqsd.errors import MassExtinctionError, NumericError
from adaptqsd.model import ModelParams
from adaptqsd.pathsim import SimConfig
from adaptqsd.qsd import BalanceReport


def _tiny(*extra):
    base = ["--set", "particles=40", "--set", "window=2.0", "--set", "burn_in=1.0",
            "--set", "nx=10", "--set", "ny=8"]
    return base + list(extra)


def _read(path):
    return path.read_bytes()


def test_fv_rerun_is_byte_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert cli.main(["fv", "--out", str(d1)] + _tiny()) == 0
    assert cli.main(["fv", "--out", str(d2)] + _tiny()) == 0
    for name in ("alpha.csv", "lambda0.json", "manifest.json"):
        assert _read(d1 / name) == _read(d2 / name), name
    manifest = json.loads(_read(d1 / "manifest.json"))
    assert manifest["artifacts"] == ["alpha.csv", "lambda0.json"]
    assert "out" not in manifest["config"]
    payload = json.loads(_read(d1 / "lambda0.json"))
    assert payload["lambda0"] > 0.0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    rc = cli.main(["fv", "--out", str(tmp_path), "--set", "nope=1"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_model_value_exits_2(tmp_path):
    rc = cli.main(["fv", "--out", str(tmp_path), "--set", "sigma=-1"])
    assert rc == 2


def _dataclass_defaults() -> dict:
    """ModelParams() and SimConfig() defaults under their CLI keys."""
    model = dataclasses.asdict(ModelParams())
    numerics = {("L" if f.name == "truncation" else f.name): f.default
                for f in dataclasses.fields(SimConfig)}
    return {**model, **numerics}


def test_default_config_takes_model_and_numerics_defaults_from_the_dataclasses():
    cfg = cli.DEFAULT_CONFIG
    for key, value in _dataclass_defaults().items():
        if key not in ("L", "truncation_y_low"):
            assert cfg[key] == value and type(cfg[key]) is type(value), key
    # the CLI's own box; the library default is untruncated
    assert (cfg["L"], cfg["truncation_y_low"]) == (4.0, 0.001)


@pytest.mark.parametrize("key", sorted(_dataclass_defaults()))
def test_bad_model_or_numerics_value_exits_2(tmp_path, key):
    assert cli.main(["validate", "--out", str(tmp_path), "--set", f"{key}=nope"]) == 2


@pytest.mark.parametrize("cmd,setting", [
    ("fv", "particles=abc"), ("diagnose", "nx=abc"), ("fv", "window=[1]"),
    ("fv", "burn_in=soon"), ("diagnose", "L_list=3"), ("qprocess", "walkers=null"),
    # a burn-in that would never end, or write a non-JSON or negative time
    ("fv", "burn_in=inf"), ("fv", "burn_in=NaN"), ("eta", "burn_in=-3"),
    # an eta node grid of one node per axis, which fails only after the fv stage
    ("eta", "eta_nodes_x=1"), ("eta", "eta_nodes_y=1"), ("qprocess", "eta_nodes_y=0"),
    # a path count that would write no path and exit 0
    ("qprocess", "q_paths=-1"),
    # a balance ensemble without a donor, or sampled before t = 0 or never
    ("diagnose", "balance_particles=1"), ("diagnose", "balance_burn=-1"),
    ("diagnose", "balance_burn=NaN"), ("diagnose", "balance_burn=Infinity"),
    # a time that would never end its stage, or overflow in it
    ("fv", "window=Infinity"), ("diagnose", "balance_collect=Infinity"),
    ("eta", "eta_t_eval=Infinity"), ("lambda", "lambda_horizon=Infinity"),
    ("qprocess", "q_horizon=Infinity"), ("qprocess", "q_horizon=NaN"),
    ("diagnose", "t_max=Infinity"),
    # a box list that is not a list: a string would run one box per character
    ("diagnose", 'L_list="45"'), ("diagnose", 'L_list={"3": 1}'),
])
def test_bad_experiment_value_exits_2_before_any_run(tmp_path, capsys, monkeypatch, cmd, setting):
    monkeypatch.setattr(cli, "fleming_viot", None)  # any estimator call would raise
    assert cli.main([cmd, "--out", str(tmp_path), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad experiment field") and "Traceback" not in err


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize("key,raw", [("out", "5"), ("out", "null"), ("out", '["a"]'),
                                     ("fixation_family", "null")])
def test_a_string_key_takes_only_a_json_string(tmp_path, capsys, monkeypatch, via, key, raw):
    # str() would have made a directory named 5 or None, or the family "None"
    monkeypatch.chdir(tmp_path)
    if via == "set":
        args = ["--set", f"{key}={raw}"]
    else:
        (tmp_path / "cfg.json").write_text(f'{{"{key}": {raw}}}')
        args = ["--config", "cfg.json"]
    assert cli.main(["validate", *args]) == 2
    err = capsys.readouterr().err
    block = "model" if key == "fixation_family" else "experiment"
    assert err.startswith(f"error: bad {block} field {key}=") and "need a string" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if via == "config" else [])


def test_experiment_block_is_cast_to_default_types():
    cfg = cli.cast_config(cli.load_config(None, ['particles="40"', "window=2",
                                                 "burn_in=1", "L_list=[3, 4]"], 5, None))
    assert (cfg["particles"], cfg["window"], cfg["burn_in"], cfg["L_list"]) == (40, 2.0, 1.0,
                                                                               (3.0, 4.0))
    assert type(cfg["window"]) is float and type(cfg["seed"]) is int
    assert cli.cast_config(cli.DEFAULT_CONFIG)["burn_in"] == "auto"


@pytest.mark.parametrize("setting", [
    # a non-integral number for an integer key
    "dim=1.9", "particles=100.5", "seed=2.7", "nx=80.9", "particles=Infinity", "q_paths=NaN",
    # a boolean for a numeric key
    "q_paths=true", "a=false", "window=true", "L=true", "burn_in=true", "L_list=[4.0, true]",
    # a non-finite number, which no run ends on and manifest.json cannot hold
    "window=Infinity", "q_horizon=NaN", "dt_max=Infinity", "horizon=Infinity",
    "qprocess_delta=Infinity", "a=Infinity", "truncation_y_low=NaN", "L_list=[4.0, NaN]",
])
def test_a_cast_that_would_change_the_value_exits_2(tmp_path, capsys, setting):
    assert cli.main(["validate", "--out", str(tmp_path), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and f" field {setting.split('=')[0]}=" in err
    assert "Traceback" not in err and not (tmp_path / "manifest.json").exists()


def test_an_integral_float_casts_and_hashes_like_the_integer(tmp_path):
    for name, setting in (("float", "particles=1e3"), ("int", "particles=1000")):
        assert cli.main(["validate", "--out", str(tmp_path / name), "--set", setting]) == 0
    manifest = _read(tmp_path / "float" / "manifest.json")
    assert manifest == _read(tmp_path / "int" / "manifest.json")
    assert json.loads(manifest)["config"]["particles"] == 1000


def test_the_cast_default_config_serializes_as_the_default():
    # so manifest.json records the cast config with the default bytes
    cast = cli.cast_config(cli.DEFAULT_CONFIG)
    assert json.dumps(cast, sort_keys=True) == json.dumps(cli.DEFAULT_CONFIG, sort_keys=True)


def test_null_only_where_the_library_default_is_none(tmp_path):
    nullable = ["--set", "L=null", "--set", "truncation_y_low=null"]
    assert cli.main(["validate", "--out", str(tmp_path)] + nullable) == 0
    assert cli.main(["validate", "--out", str(tmp_path), "--set", "dt_max=null"]) == 2


def test_validate_report(tmp_path, capsys):
    rc = cli.main(["validate", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H1" in out and "H7" in out
    payload = json.loads(_read(tmp_path / "hypotheses.json"))
    assert payload["ok"] is True
    assert "H1" in payload["checks"]
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    assert manifest["artifacts"] == ["hypotheses.json"]


def test_validate_violation_exits_3(tmp_path):
    rc = cli.main(["validate", "--out", str(tmp_path), "--set", "a=0"])
    assert rc == 3
    payload = json.loads(_read(tmp_path / "hypotheses.json"))
    assert payload["ok"] is False


@pytest.mark.parametrize("settings", [["s=8"], ["r0=8", "particles=200"]])
def test_a_steep_logistic_fixation_passes_the_gate(tmp_path, settings):
    # at r0 = 8 the L = 4 box kills at rate lambda0 ~ 6.7, and 40 particles
    # at seed 0 all die in one window (exit 5)
    extra = [arg for setting in settings for arg in ("--set", setting)]
    assert cli.main(["fv", "--out", str(tmp_path)] + _tiny(*extra)) == 0


def test_gated_command_exits_3_on_degenerate_model(tmp_path):
    rc = cli.main(["fv", "--out", str(tmp_path), "--set", "m_nu=0"] + _tiny())
    assert rc == 3
    assert not (tmp_path / "alpha.csv").exists()


def test_simulate_degenerate_model_warns_but_runs(tmp_path, capsys):
    rc = cli.main(["simulate", "--out", str(tmp_path), "--set", "m_nu=0",
                   "--set", "horizon=5.0"])
    assert rc == 0
    assert "runs anyway" in capsys.readouterr().err
    assert (tmp_path / "trajectory.csv").exists()
    payload = json.loads(_read(tmp_path / "exit.json"))
    assert payload["n_jumps"] == 0


def test_exit_code_mapping(tmp_path, monkeypatch):
    def numeric(cfg, params, sim, out):
        raise NumericError("synthetic")

    def extinct(cfg, params, sim, out):
        raise MassExtinctionError("synthetic", time=1.0)

    monkeypatch.setitem(cli.RUNNERS, "simulate", numeric)
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 4
    monkeypatch.setitem(cli.RUNNERS, "simulate", extinct)
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 5


def test_manifest_hash_semantics(tmp_path):
    cfg1 = cli.load_config(None, [], seed=7, out="x")
    cfg2 = cli.load_config(None, [], seed=7, out="y")
    cfg3 = cli.load_config(None, [], seed=8, out="x")
    shas = []
    for i, cfg in enumerate((cfg1, cfg2, cfg3)):
        d = tmp_path / str(i)
        d.mkdir()
        cli.write_manifest(d, cfg, [])
        shas.append(json.loads(_read(d / "manifest.json"))["config_sha256"])
    assert shas[0] == shas[1]
    assert shas[0] != shas[2]


def test_config_file_loading(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"v": 0.35, "seed": 5}))
    d = tmp_path / "out"
    rc = cli.main(["validate", "--config", str(cfg_path), "--out", str(d)])
    assert rc == 0
    manifest = json.loads(_read(d / "manifest.json"))
    assert manifest["config"]["v"] == 0.35
    assert manifest["seed"] == 5

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert cli.main(["validate", "--config", str(bad), "--out", str(d)]) == 2
    notjson = tmp_path / "broken.json"
    notjson.write_text("{")
    assert cli.main(["validate", "--config", str(notjson), "--out", str(d)]) == 2


def test_lambda_subcommand(tmp_path):
    rc = cli.main(["lambda", "--out", str(tmp_path)]
                  + _tiny("--set", "replicates=300", "--set", "lambda_horizon=3.0"))
    assert rc == 0
    assert json.loads(_read(tmp_path / "manifest.json"))["artifacts"] == [
        "alpha.csv", "lambda0.json", "survival.json", "survival_curve.csv"]
    payload = json.loads(_read(tmp_path / "survival.json"))
    assert payload["lambda0"] > 0.0
    assert payload["flags"]  # replicate count below the recommended floor
    lines = (tmp_path / "survival_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "t,survivors,in_fit"
    assert len(lines) == 25


def test_lambda_starts_its_survival_cohort_from_the_fv_alpha(tmp_path, monkeypatch):
    # the survival fit assumes a start at alpha; the reference set carries a transient
    runs, starts = [], []

    def fleming_viot(*args, **kwargs):
        runs.append(qsd.fleming_viot(*args, **kwargs))
        return runs[-1]

    def survival(init, *args, **kwargs):
        starts.append(init)
        return qsd.estimate_lambda0_survival(init, *args, **kwargs)

    monkeypatch.setattr(cli, "fleming_viot", fleming_viot)
    monkeypatch.setattr(cli, "estimate_lambda0_survival", survival)
    assert cli.main(["lambda", "--out", str(tmp_path)]
                    + _tiny("--set", "replicates=300", "--set", "lambda_horizon=3.0")) == 0
    assert len(runs) == len(starts) == 1 and starts[0] is runs[0].alpha
    assert json.loads(_read(tmp_path / "lambda0.json"))["lambda0"] == runs[0].lambda0


def test_lambda_without_a_box_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    # the fv stage histograms on the box, which an untruncated run lacks
    _fail_if_fv_runs(monkeypatch)
    assert cli.main(["lambda", "--out", str(tmp_path), "--set", "L=null"]) == 2
    assert "histogram grid" in capsys.readouterr().err


def test_oracle_subcommand(tmp_path):
    rc = cli.main(["oracle", "--out", str(tmp_path), "--set", "nx=24", "--set", "ny=20"])
    assert rc == 0
    payload = json.loads(_read(tmp_path / "oracle.json"))
    assert 0.5 < payload["lambda0"] < 1.1
    assert payload["residual_alpha"] < 1e-8
    assert payload["residual_eta"] < 1e-8
    assert (tmp_path / "oracle_alpha.csv").exists()
    lines = (tmp_path / "oracle_eta.csv").read_text().strip().splitlines()
    assert len(lines) == 24 * 20 + 1


def test_oracle_builds_on_the_histogram_grid(tmp_path):
    # nx/ny size both the Fleming-Viot histogram and the oracle grid
    grid = ["--set", "nx=24", "--set", "ny=20"]
    assert cli.main(["fv", "--out", str(tmp_path)] + _tiny(*grid)) == 0
    assert cli.main(["oracle", "--out", str(tmp_path)] + grid) == 0

    def centres(name):
        rows = (tmp_path / name).read_text().strip().splitlines()
        return [line.rsplit(",", 1)[0] for line in rows]

    assert len(centres("alpha.csv")) == 24 * 20 + 1
    assert centres("oracle_alpha.csv") == centres("alpha.csv")


def test_eta_subcommand(tmp_path):
    rc = cli.main(["eta", "--out", str(tmp_path)] + _tiny(
        "--set", "eta_replicates=60", "--set", "eta_nodes_x=4",
        "--set", "eta_nodes_y=3", "--set", "eta_t_eval=0.5"))
    assert rc == 0
    lines = (tmp_path / "eta.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,eta,stderr,survivors"
    assert len(lines) == 4 * 3 + 1
    for name in ("alpha.csv", "lambda0.json", "beta.csv", "manifest.json"):
        assert (tmp_path / name).exists()


def test_qprocess_subcommand(tmp_path):
    rc = cli.main(["qprocess", "--out", str(tmp_path)] + _tiny(
        "--set", "eta_replicates=60", "--set", "eta_nodes_x=4",
        "--set", "eta_nodes_y=3", "--set", "eta_t_eval=0.5",
        "--set", "walkers=16", "--set", "q_horizon=0.5", "--set", "q_paths=1"))
    assert rc == 0
    payload = json.loads(_read(tmp_path / "qprocess.json"))
    stats = payload["attempt_stats"]
    assert stats["max_attempt_rounds"] >= 1
    assert "ceiling_violations" in stats
    assert stats["bound_exceeded"] >= 0
    assert (tmp_path / "q_marginal.csv").exists()
    assert (tmp_path / "qpath_0.csv").exists()


def test_fv_runs_in_two_dimensions(tmp_path):
    assert cli.main(["fv", "--out", str(tmp_path), "--set", "dim=2"] + _tiny()) == 0
    lines = (tmp_path / "alpha.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,y,mass"
    assert len(lines) == 10 * 10 * 8 + 1


def test_each_two_dimensional_alpha_row_holds_the_centre_of_its_own_cell(tmp_path):
    assert cli.main(["fv", "--out", str(tmp_path), "--set", "dim=2"] + _tiny()) == 0
    rows = np.loadtxt(tmp_path / "alpha.csv", delimiter=",", skiprows=1)
    grid = qsd.default_hist_grid(SimConfig(truncation=4.0, truncation_y_low=0.001),
                                 nx=10, ny=8, dim=2)
    np.testing.assert_array_equal(grid.cell_index(rows[:, :2], rows[:, 2]),
                                  np.arange(grid.n_cells))


def test_eta_on_a_node_matrix_too_sparse_to_normalize_exits_4_naming_eta_replicates(
        tmp_path, capsys):
    rc = cli.main(["eta", "--out", str(tmp_path), "--seed", "1"] + _tiny(
        "--set", "eta_replicates=4", "--set", "eta_nodes_x=12", "--set", "eta_nodes_y=10"))
    assert rc == 4
    err = capsys.readouterr().err
    assert "too sparsely sampled (4 replicates per node); raise eta_replicates" in err
    assert "Traceback" not in err


def _fail_if_fv_runs(monkeypatch):
    def fleming_viot(*args, **kwargs):
        raise AssertionError("fleming_viot ran before the config was rejected")

    monkeypatch.setattr(cli, "fleming_viot", fleming_viot)


def test_eta_in_two_dimensions_exits_2(tmp_path, capsys, monkeypatch):
    _fail_if_fv_runs(monkeypatch)
    rc = cli.main(["eta", "--out", str(tmp_path), "--set", "dim=2"] + _tiny(
        "--set", "eta_replicates=60", "--set", "eta_nodes_x=4",
        "--set", "eta_nodes_y=3", "--set", "eta_t_eval=0.5"))
    assert rc == 2
    assert "d = 1" in capsys.readouterr().err
    assert not (tmp_path / "eta.csv").exists()


@pytest.mark.parametrize("cmd", ["qprocess", "diagnose"])
def test_d1_commands_reject_two_dimensions_before_any_estimate(tmp_path, capsys,
                                                               monkeypatch, cmd):
    _fail_if_fv_runs(monkeypatch)
    assert cli.main([cmd, "--out", str(tmp_path), "--set", "dim=2"]) == 2
    assert "d = 1" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,setting", [
    ("eta", "eta_t_eval=0"), ("eta", "eta_t_eval=-1"), ("eta", "eta_replicates=0"),
    ("qprocess", "eta_replicates=0"), ("lambda", "lambda_horizon=0"), ("lambda", "replicates=0"),
    ("diagnose", "slice_dt=0"), ("diagnose", "balance_collect=0"), ("diagnose", "t_max=0"),
    ("lambda", "lambda_horizon=0.1"), ("lambda", "lambda_horizon=0.25"),
    ("qprocess", "q_horizon=0"), ("qprocess", "q_horizon=0.02"), ("qprocess", "walkers=0"),
    ("diagnose", "L_list=[]"),
    # a horizon that is not a whole number of its steps, dt_max 0.01 or
    # qprocess_delta 0.05, which the run would round
    ("eta", "eta_t_eval=0.015"), ("qprocess", "eta_t_eval=0.015"), ("diagnose", "slice_dt=0.015"),
    ("qprocess", "q_horizon=0.07"), ("qprocess", "q_horizon=0.124"),
    # an infinite window or horizon, on which a path stage would overflow or never end
    ("fv", "dt_max=Infinity"), ("simulate", "horizon=Infinity"),
    ("simulate", "qprocess_delta=Infinity"),
])
def test_sizes_that_leave_nothing_to_compute_exit_2_before_any_run(tmp_path, capsys,
                                                                   monkeypatch, cmd, setting):
    _fail_if_fv_runs(monkeypatch)

    def run_cohort(*args, **kwargs):
        raise AssertionError("a cohort ran before the config was rejected")

    monkeypatch.setattr(qsd, "run_cohort", run_cohort)
    assert cli.main([cmd, "--out", str(tmp_path), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_two_dimensional_lambda_run_starts_inside_the_ball(tmp_path):
    # a histogram cell of the fv alpha crosses |x| = L; its starts stay inside
    assert cli.main(["lambda", "--seed", "1", "--out", str(tmp_path), "--set", "dim=2",
                     "--set", "L=2.2", "--set", "particles=400", "--set", "window=3",
                     "--set", "burn_in=2", "--set", "replicates=3000",
                     "--set", "lambda_horizon=1", "--set", "nx=8", "--set", "ny=8"]) == 0


@pytest.mark.parametrize("cmd,setting", [("fv", "window=0"), ("fv", "window=-2.5"),
                                         ("eta", "window=0"), ("qprocess", "window=0"),
                                         ("diagnose", "window=0")])
def test_an_empty_fv_window_exits_2_before_any_window_is_stepped(tmp_path, capsys,
                                                                 monkeypatch, cmd, setting):
    # fleming_viot rejects the window itself, so every command that runs it does
    def window(*args, **kwargs):
        raise AssertionError("a window was stepped before the fv window was rejected")

    monkeypatch.setattr(cohort.Engine, "window", window)
    assert cli.main([cmd, "--out", str(tmp_path), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "window > 0" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd,setting", [("qprocess", "walkers=0"),
                                         ("lambda", "lambda_horizon=0.1")])
def test_rejected_run_removes_only_the_directories_it_created(tmp_path, monkeypatch,
                                                               cmd, setting):
    _fail_if_fv_runs(monkeypatch)
    new = tmp_path / "new" / "run"
    assert cli.main([cmd, "--out", str(new), "--set", setting]) == 2
    assert list(tmp_path.iterdir()) == []
    # a directory that existed before the call stays, even when empty
    old = tmp_path / "old"
    old.mkdir()
    assert cli.main([cmd, "--out", str(old), "--set", setting]) == 2
    assert old.is_dir() and list(old.iterdir()) == []
    # the first directory that is not empty stops the clean-up
    (old / "keep.txt").write_text("x")
    assert cli.main([cmd, "--out", str(old / "a" / "b"), "--set", setting]) == 2
    assert sorted(p.name for p in old.iterdir()) == ["keep.txt"]


@pytest.mark.parametrize("grid", ["nx=10", "ny=6", "nx=0", "nx=4", "ny=4"])
def test_diagnose_rejects_a_grid_it_cannot_coarsen(tmp_path, capsys, monkeypatch, grid):
    _fail_if_fv_runs(monkeypatch)
    assert cli.main(["diagnose", "--out", str(tmp_path), "--set", grid]) == 2
    assert "divisible by 4" in capsys.readouterr().err


@pytest.mark.parametrize("slice_dt,dt_max", [("0.005", "0.01"), ("0.5", "0.6")])
def test_diagnose_rejects_a_slice_shorter_than_a_window_before_any_stage(tmp_path, capsys,
                                                                         monkeypatch, slice_dt,
                                                                         dt_max):
    # convergence_curve steps whole windows, which would run past its slice ends
    _fail_if_fv_runs(monkeypatch)
    assert cli.main(["diagnose", "--out", str(tmp_path), "--set", f"slice_dt={slice_dt}",
                     "--set", f"dt_max={dt_max}"]) == 2
    err = capsys.readouterr().err
    assert "dt_max" in err and "slice_dt" in err and "Traceback" not in err


@pytest.mark.parametrize("setting", ["conv_replicates=1", "conv_particles=1"])
def test_diagnose_rejects_a_convergence_curve_without_spread(tmp_path, capsys, monkeypatch,
                                                              setting):
    _fail_if_fv_runs(monkeypatch)
    assert cli.main(["diagnose", "--out", str(tmp_path), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert "conv_replicates >= 2" in err and "Traceback" not in err


@pytest.mark.parametrize("boxes,bad", [("[0.0005]", "0.0005"), ("[4.0, -1.0]", "-1"),
                                       ("[0.0005, 4.0]", "0.0005"), ("[4.0, Infinity]", "inf")])
def test_diagnose_rejects_a_bad_truncation_box_before_any_stage(tmp_path, capsys, monkeypatch,
                                                                boxes, bad):
    _fail_if_fv_runs(monkeypatch)
    assert cli.main(["diagnose", "--out", str(tmp_path), "--set", f"L_list={boxes}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad experiment field L_list") and f"L={bad}" in err
    assert "Traceback" not in err


def test_an_infinite_truncation_box_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    # its grid edges would be NaN, and fv would write an alpha.csv of NaN cells
    _fail_if_fv_runs(monkeypatch)
    assert cli.main(["fv", "--out", str(tmp_path), "--set", "L=Infinity"]) == 2
    assert "positive and finite" in capsys.readouterr().err


_DIAG = ["--set", "particles=20", "--set", "window=1.5", "--set", "burn_in=1.0",
         "--set", "nx=8", "--set", "ny=8", "--set", "conv_replicates=2",
         "--set", "conv_particles=40", "--set", "t_max=1.5",
         "--set", "slice_dt=0.5", "--set", "balance_particles=20",
         "--set", "balance_burn=1.0", "--set", "balance_collect=2.0",
         "--set", "L_list=[4.0]"]


def test_diagnose_rerun_is_byte_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert cli.main(["diagnose", "--out", str(d1)] + _DIAG) == 0
    assert cli.main(["diagnose", "--out", str(d2)] + _DIAG) == 0
    for name in ("convergence.csv", "balance.json", "truncation.csv",
                 "diagnose.json", "manifest.json"):
        assert _read(d1 / name) == _read(d2 / name), name
    payload = json.loads(_read(d1 / "diagnose.json"))
    assert payload["lambda0"] > 0.0
    assert "balance_sigmas" in payload
    for name in ("convergence_bound_exceeded", "balance_bound_exceeded"):
        assert isinstance(payload[name], int) and payload[name] >= 0, name


def _strict_json(path: Path):
    """The JSON document at path; a bare NaN or Infinity (not JSON, RFC 8259) raises."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")
    return json.loads(_read(path), parse_constant=reject)


def test_diagnose_writes_strict_json(tmp_path):
    # three slices leave the convergence fit fewer than the three points above
    # its floor that it needs, so its three statistics are undefined: null
    assert cli.main(["diagnose", "--out", str(tmp_path)] + _DIAG) == 0
    payloads = {p.name: _strict_json(p) for p in tmp_path.glob("*.json")}
    assert sorted(payloads) == ["balance.json", "diagnose.json", "manifest.json"]
    for name in ("gamma_hat", "gamma_se", "convergence_r_squared"):
        assert payloads["diagnose.json"][name] is None, name
    assert payloads["diagnose.json"]["lambda0"] > 0.0


def test_write_json_writes_a_non_finite_float_as_null(tmp_path):
    nan, inf = float("nan"), float("inf")
    cli.write_json(tmp_path / "a.json", {"a": [nan, 1.5, (inf, -inf)], "b": {"c": nan}, "d": 2})
    assert _strict_json(tmp_path / "a.json") == {"a": [None, 1.5, [None, None]],
                                                 "b": {"c": None}, "d": 2}


def test_diagnose_truncation_boxes_burn_in_by_the_configured_burn_in(tmp_path):
    truncation = {}
    for burn_in in ("auto", "0.5"):
        out = tmp_path / burn_in
        assert cli.main(["diagnose", "--out", str(out)] + _DIAG
                        + ["--set", f"burn_in={burn_in}"]) == 0
        truncation[burn_in] = _read(out / "truncation.csv")
    assert truncation["auto"] != truncation["0.5"]


def test_diagnose_balance_runs_untruncated(tmp_path, monkeypatch):
    # v = E_alpha[f(y) J1(x)] holds for the untruncated process only
    seen = []

    def fake_balance(params, config, key, **kw):
        seen.append(config)
        return BalanceReport(v=params.v, rhs=params.v, residual=0.0, mc_stderr=1.0,
                             n_samples=1, n_blocks=1)

    monkeypatch.setattr(cli, "balance_residual", fake_balance)
    assert cli.main(["diagnose", "--out", str(tmp_path)] + _DIAG) == 0
    assert len(seen) == 1
    assert seen[0].truncation is None and seen[0].truncation_y_low is None
    assert seen[0].y_floor == seen[0].y_ext


_ETA = ["--set", "eta_replicates=60", "--set", "eta_nodes_x=4",
        "--set", "eta_nodes_y=3", "--set", "eta_t_eval=0.5"]

_TOY_ARGS = {
    "validate": [],
    "simulate": ["--set", "horizon=5.0"],
    "fv": _tiny(),
    "lambda": _tiny("--set", "replicates=300", "--set", "lambda_horizon=3.0"),
    "eta": _tiny(*_ETA),
    "qprocess": _tiny(*_ETA, "--set", "walkers=16", "--set", "q_horizon=0.5",
                      "--set", "q_paths=2"),
    "oracle": ["--set", "nx=24", "--set", "ny=20"],
    "diagnose": _DIAG,
}


def _readme_artifacts() -> dict[str, list[str]]:
    """Subcommand -> artifact names (globs) from the README's CLI table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in text.splitlines():
        m = re.match(r"\| `(\w+)` \| (.*) \|$", line)
        if m and m.group(1) in cli.RUNNERS:
            rows[m.group(1)] = re.findall(r"`([^`]+)`", m.group(2).split(" - ")[0])
    return rows


def test_readme_lists_every_config_key():
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    lists = text.split("Config keys")[1].split("Model constants")[1].split("Every value")[0]
    keys = [k for span in re.findall(r"`([^`]+)`", lists) for k in span.split()]
    assert sorted(keys) == sorted(cli.DEFAULT_CONFIG)


def test_readme_table_covers_every_subcommand():
    assert sorted(_readme_artifacts()) == sorted(cli.RUNNERS) == sorted(_TOY_ARGS)


@pytest.mark.parametrize("cmd", sorted(_TOY_ARGS))
def test_readme_artifact_table_matches_manifest(tmp_path, cmd):
    assert cli.main([cmd, "--out", str(tmp_path)] + _TOY_ARGS[cmd]) == 0
    listed = json.loads(_read(tmp_path / "manifest.json"))["artifacts"]
    documented = _readme_artifacts()[cmd]
    for name in listed:
        assert sum(fnmatch.fnmatchcase(name, pat) for pat in documented) == 1, name
    for pat in documented:
        assert fnmatch.filter(listed, pat), pat
