import argparse
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from pitchlab import cli, epv, pitch_control as pc, render, sim, trainer
from pitchlab.cli import main
from pitchlab.reward import ShapingConfig, ShapingMode
from pitchlab.sim import ScenarioConfig
from pitchlab.trainer import ExperimentConfig
from pitchlab.vdn import LearnerConfig, TrainConfig, VDNLearner


def micro_config_dict(weight=0.1, seeds=(1,)):
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_defenders=1, n_attackers=1, difficulty=0.95,
                                max_episode_steps=40),
        reward=ShapingConfig(mode=ShapingMode.ADDITIVE, weight=weight),
        train=TrainConfig(total_steps=60, learning_rate=1e-3, batch_size=8,
                          target_sync_period=30, buffer_capacity=64,
                          hidden=(8,), update_every=4, learn_start=8),
        seeds=seeds,
        eval_every=30,
        eval_episodes=2,
    )
    return sim.config_to_dict(cfg)


def pitch_config(tmp_path, **pitch):
    """A micro config file whose scenario plays on PitchSpec(**pitch)."""
    doc = micro_config_dict()
    doc["scenario"]["pitch"] = sim.config_to_dict(sim.PitchSpec(**pitch))
    return write_yaml(tmp_path / "config.yaml", doc)


def write_yaml(path, doc):
    with open(path, "w") as f:
        yaml.safe_dump(doc, f)
    return str(path)


def micro_run(tmp_path, **kw):
    cfg_path = write_yaml(tmp_path / "config.yaml", micro_config_dict(**kw))
    out_dir = tmp_path / "out"
    rc = main(["train", "--config", cfg_path, "--out", str(out_dir)])
    assert rc == 0
    runs = [d for d in os.listdir(out_dir) if d.startswith("run-")]
    assert len(runs) == 1
    return cfg_path, os.path.join(str(out_dir), runs[0])


# -- exit codes -------------------------------------------------------------------

def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    rc = main(["train", "--config", missing, "--out", str(tmp_path)])
    assert rc == 2
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--config", "{cfg}", "--out", "{file}"],
    ["render-field", "--what", "epv", "--out", "{file}/x.ppm"],
    ["solve-epv", "--out", "{file}/g.json"],
], ids=["train", "render-field", "solve-epv"])
def test_an_out_path_below_a_regular_file_exits_2_and_names_it(
        tmp_path, capsys, argv):
    cfg = write_yaml(tmp_path / "config.yaml", micro_config_dict())
    regular = tmp_path / "afile"
    regular.write_text("kept\n")
    # main returns the code: the OSError does not escape as a traceback
    rc = main([a.format(cfg=cfg, file=regular) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"Not a directory: '{regular}/" in err
    assert ".tmp" not in err            # the path given, not a temporary
    assert sorted(os.listdir(tmp_path)) == ["afile", "config.yaml"]
    assert regular.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["render-field", "--what", "epv", "--out", "{dir}"],
    ["solve-epv", "--out", "{dir}"],
], ids=["render-field", "solve-epv"])
def test_an_out_path_that_is_a_directory_exits_2_and_names_it(
        tmp_path, capsys, argv):
    # the temporary beside the path opens; moving it over the path fails
    out = tmp_path / "adir"
    out.mkdir()
    rc = main([a.format(dir=out) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"Is a directory: '{out}'" in err
    assert ".tmp" not in err
    assert os.listdir(tmp_path) == ["adir"]
    assert os.listdir(out) == []


def _defined_exception_classes():
    """Every exception class a pitchlab module defines."""
    import importlib
    import inspect
    import pkgutil

    import pitchlab
    found = []
    for info in pkgutil.iter_modules(pitchlab.__path__):
        module = importlib.import_module(f"pitchlab.{info.name}")
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException)
                  and cls.__module__ == module.__name__]
    return found


_PITCHLAB_ERRORS = _defined_exception_classes()


def test_every_pitchlab_error_derives_from_one_exit_base():
    assert {sim.ConfigError, sim.RunFailure, pc.NonConvergenceError,
            trainer.EmptyLogError} <= set(_PITCHLAB_ERRORS)
    for error in _PITCHLAB_ERRORS:
        assert issubclass(error, sim.ConfigError) != \
            issubclass(error, sim.RunFailure), error


@pytest.mark.parametrize("error", _PITCHLAB_ERRORS + [OSError],
                         ids=lambda error: error.__name__)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("forced")
    monkeypatch.setattr(cli, "_cmd_curve", fail)
    rc = main(["curve", "--runs", "run", "--out", "curve.csv"])
    assert rc == (3 if issubclass(error, sim.RunFailure) else 2)
    assert "forced" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("scenario: [1,\n", "line 2, column 1"),
    ("scenario: \x01\n", "position 10"),
], ids=["unclosed-list", "control-character"])
def test_a_yaml_syntax_error_exits_2_and_names_the_file(tmp_path, capsys,
                                                        text, where):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f'in "{path}", {where}' in err
    assert "<unicode string>" not in err
    assert os.listdir(tmp_path) == ["bad.yaml"]


def test_non_mapping_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


def test_unknown_config_field_exits_2(tmp_path, capsys):
    doc = micro_config_dict()
    doc["optimizer"] = "adam"
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    rc = main(["train", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 2
    assert "optimizer" in capsys.readouterr().err


def _set(*keys, value):
    def mutate(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return mutate


def _only(key):
    def mutate(doc):
        for k in set(doc) - {key}:
            del doc[k]
    return mutate


@pytest.mark.parametrize("mutate, path", [
    (_set("scenario", "pitch", "corner_flags", value=4), "scenario.pitch.corner_flags"),
    (_set("train", "hidden", value=64), "train.hidden"),
    (_set("train", "learning_rate", value="fast"), "train.learning_rate"),
    (_set("seeds", value=3), "seeds"),
    (_set("reward", value=0.1), "reward"),
    (_set("train", value=None), "train"),
    (_set("scenario", value=[2, 3]), "scenario"),
    (_set("eval_difficulties", value="0.5"), "eval_difficulties"),
    (_set("scenario", "pitch", "length", value=float("nan")),
     "scenario.pitch.length"),
    (_set("scenario", "pitch", "width", value=float("inf")),
     "scenario.pitch.width"),
    (_set("scenario", "pitch", "goal_half_width", value=10**400),
     "scenario.pitch.goal_half_width"),
    (_set("reward", "weight", value=float("nan")), "reward.weight"),
    (_set("train", "total_steps", value=1000.5), "train.total_steps"),
    (_set("scenario", "difficulty", value=True), "scenario.difficulty"),
    (_set("seeds", value=[1, 1]), "seeds"),
    # keys a config of an older version carries: the simulator's physics,
    # the shaping discount (now train.gamma) and the observation mode
    (_set("scenario", "dt", value=0.1), "scenario.dt"),
    (_set("scenario", "max_speed", value=8.0), "scenario.max_speed"),
    (_set("scenario", "pass_speed", value=16.0), "scenario.pass_speed"),
    (_set("scenario", "tackle_prob", value=0.15), "scenario.tackle_prob"),
    (_set("reward", "gamma", value=0.99), "reward.gamma"),
    (_set("obs_mode", value="global"), "obs_mode"),
    # the field stride and the epsilon schedule are no longer settable
    (_set("field_stride", value=1), "field_stride"),
    (_set("train", "epsilon_start", value=1.0), "train.epsilon_start"),
    (_set("train", "epsilon_end", value=0.05), "train.epsilon_end"),
    (_set("train", "epsilon_decay_steps", value=0), "train.epsilon_decay_steps"),
    (_set("seeds", value=[-1]), "seeds"),
    # values the learner rejects too; the config must reject them first,
    # before the run directory is made
    pytest.param(_set("train", "hidden", value=[]), "train",
                 id="train.hidden-empty"),
    pytest.param(_set("train", "hidden", value=[0, 8]), "train",
                 id="train.hidden-zero"),
    pytest.param(_set("train", "grad_clip", value=0), "train",
                 id="train.grad_clip-zero"),
    pytest.param(_set("train", "grad_clip", value=-1), "train",
                 id="train.grad_clip-negative"),
])
def test_malformed_config_exits_2_and_names_field(tmp_path, capsys, mutate, path):
    doc = micro_config_dict()
    mutate(doc)
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    out_dir = tmp_path / "out"
    rc = main(["train", "--config", cfg_path, "--out", str(out_dir)])
    assert rc == 2
    assert f"{path}:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, code", [
    (["train", "--config", "{bad}", "--out", "{tmp}/out"], 2),
    (["render-field", "--state", "{bad}", "--out", "{tmp}/x.ppm"], 2),
    (["eval", "--checkpoint", "{bad}", "--config", "{cfg}"], 3),
    (["render-field", "--what", "epv", "--epv-grid", "{bad}",
      "--out", "{tmp}/x.ppm"], 3),
    (["curve", "--runs", "{bad}", "--out", "{tmp}/c.csv"], 2),
    (["fit-pass-model", "--events", "{bad}", "--out", "{tmp}/p.json"], 2),
], ids=["config", "state", "checkpoint", "grid", "metrics", "pass-events"])
def test_non_utf8_input_exits_and_names_the_file(tmp_path, capsys, argv, code):
    bad = tmp_path / "input"
    bad.write_bytes("x,k\ncaf\xe9,1\n".encode("latin-1"))
    cfg = write_yaml(tmp_path / "config.yaml", micro_config_dict())
    rc = main([a.format(bad=bad, tmp=tmp_path, cfg=cfg) for a in argv])
    assert rc == code
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.yaml", "input"]


def _save_artifact(kind, path):
    if kind == "state":
        sim.save_state(sim.reset(ScenarioConfig(n_defenders=1, n_attackers=1),
                                 0), path)
    elif kind == "checkpoint":
        VDNLearner(LearnerConfig(n_agents=1, obs_dim=3, n_actions=2,
                                 hidden=(4,)), seed=0).save(path)
    else:
        small = sim.PitchSpec(grid_m=4, grid_n=3)
        epv.save_epv_grid(path, epv.solve_epv(epv.default_chain(small)), small)


@pytest.mark.parametrize("fault", ["list", "version-true", "version-float",
                                   "version-string", "missing", "unknown"])
@pytest.mark.parametrize("kind, argv, code, required", [
    ("state", ["render-field", "--state", "{bad}", "--out", "{tmp}/x.ppm"],
     2, "positions"),
    ("checkpoint", ["eval", "--checkpoint", "{bad}", "--config", "{cfg}"],
     3, "agents"),
    ("grid", ["render-field", "--what", "epv", "--epv-grid", "{bad}",
              "--out", "{tmp}/x.ppm"], 3, "values"),
], ids=["state", "checkpoint", "grid"])
def test_a_file_with_a_broken_envelope_exits_and_names_the_file_and_key(
        tmp_path, capsys, kind, argv, code, required, fault):
    """State files, value grids and checkpoints share their top-level
    checks: an object, an int version, every key and no other."""
    bad = tmp_path / "input"
    _save_artifact(kind, str(bad))
    doc = json.loads(bad.read_text())
    version = doc["version"]
    if fault == "list":
        doc, message = [doc], "expected a JSON object, got list"
    elif fault.startswith("version-"):
        doc["version"] = {"true": True, "float": float(version),
                          "string": str(version)}[fault[len("version-"):]]
        message = (f"version: expected {version}, "
                   f"got {json.dumps(doc['version'])}")
    elif fault == "missing":
        del doc[required]
        message = f"{required}: missing field"
    else:
        doc["bogus"] = 1
        message = "bogus: unknown field"
    bad.write_text(json.dumps(doc))
    cfg = write_yaml(tmp_path / "config.yaml", micro_config_dict())
    rc = main([a.format(bad=bad, tmp=tmp_path, cfg=cfg) for a in argv])
    assert rc == code
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.yaml", "input"]


def test_train_on_a_grid_with_a_nan_value_exits_3(tmp_path, capsys):
    pitch = sim.PitchSpec()
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "version": 1, "length": pitch.length, "width": pitch.width,
        "goal_half_width": pitch.goal_half_width,
        "m": pitch.grid_m, "n": pitch.grid_n,
        "values": [float("nan")] + [0.5] * (pitch.grid_m * pitch.grid_n - 1)}))
    doc = micro_config_dict()
    doc["epv_source"] = str(grid)
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    rc = main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert f"{grid}: values[0]: expected a finite number" in \
        capsys.readouterr().err


def _grid_doc(pitch, **changes):
    values = epv.solve_epv(epv.default_chain(pitch))
    doc = {"version": 1, "length": pitch.length, "width": pitch.width,
           "goal_half_width": pitch.goal_half_width,
           "m": pitch.grid_m, "n": pitch.grid_n,
           "values": values.ravel().tolist()}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("pitch, changes, message", [
    (sim.PitchSpec(), {"values": [0.5]}, "values: expected 640 values"),
    (sim.PitchSpec(), {"values": ["x"] + [0.5] * 639},
     "values[0]: expected a finite number"),
    (sim.PitchSpec(length=60.0, width=40.0), {},
     "length: grid solved for 60.0, pitch has 105.0"),
], ids=["short", "string-value", "other-pitch"])
def test_train_on_a_bad_grid_exits_3_and_makes_no_run_directory(
        tmp_path, capsys, pitch, changes, message):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(_grid_doc(pitch, **changes)))
    doc = micro_config_dict()
    doc["epv_source"] = str(grid_path)
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    rc = main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert f"{grid_path}: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.yaml", "grid.json"]


def _train_exit(tmp_path, doc):
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    rc = main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")])
    (run_dir,) = (tmp_path / "out").iterdir()
    return rc, run_dir


def test_train_with_a_failed_grid_solve_exits_3_and_names_each_seed(
        tmp_path, capsys, monkeypatch):
    def fail(*args, **kw):
        raise epv.ValueIterationError("no convergence after 7 sweeps")
    monkeypatch.setattr(epv, "solve_epv", fail)
    rc, run_dir = _train_exit(tmp_path, micro_config_dict(seeds=(1, 2)))
    assert rc == 3
    err = capsys.readouterr().err
    for seed in (1, 2):
        assert f"seed {seed}: ValueIterationError: no convergence after " \
            f"7 sweeps" in err
        rows = trainer.load_metrics(str(run_dir / f"seed-{seed}" / "metrics.jsonl"))
        assert [r["kind"] for r in rows] == ["error"]


def test_train_exits_3_when_one_seed_fails_and_the_others_train(
        tmp_path, capsys, monkeypatch):
    train_seed = trainer.train_seed

    def fail_seed_2(config, seed, *args):
        if seed == 2:
            raise pc.NonConvergenceError("line search stalled")
        return train_seed(config, seed, *args)
    monkeypatch.setattr(trainer, "train_seed", fail_seed_2)
    rc, run_dir = _train_exit(tmp_path, micro_config_dict(seeds=(1, 2)))
    assert rc == 3
    out, err = capsys.readouterr()
    assert "seed 2: NonConvergenceError: line search stalled" in err
    assert "seed 1" not in err
    assert "seed 1 difficulty 0.95: mean goal difference" in out
    assert (run_dir / "seed-1" / "ckpt_final.json").exists()


def test_diverging_run_exits_3_and_leaves_only_finite_checkpoints(
        tmp_path, capsys):
    doc = cli.load_config_dict(os.path.join(
        os.path.dirname(__file__), "..", "configs", "desk_2v3.yaml"))
    doc["train"].update(hidden=[16, 16], total_steps=4000, learn_start=500,
                        learning_rate=1000.0, grad_clip=1.0e300)
    doc["seeds"] = [1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, run_dir = _train_exit(tmp_path, doc)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert rc == 3
    assert "seed 1: DivergenceError: td_update " in capsys.readouterr().err
    seed_dir = run_dir / "seed-1"
    rows = trainer.load_metrics(str(seed_dir / "metrics.jsonl"))
    assert rows[-1]["kind"] == "error"
    assert rows[-1]["error"] == "DivergenceError"
    ckpts = sorted(seed_dir.glob("ckpt_*.json"))
    assert ckpts    # the step-0 checkpoint
    for path in ckpts:
        VDNLearner.load(str(path))   # raises on a non-finite value


def test_insufficient_fit_data_exits_3(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("x,k\n" + "".join(f"{0.1 * i},1\n" for i in range(20)))
    rc = main(["fit-pass-model", "--events", str(events),
               "--out", str(tmp_path / "params.json")])
    assert rc == 3
    assert "InsufficientDataError" in capsys.readouterr().err


# -- fit-pass-model ---------------------------------------------------------------

def test_fit_pass_model_recovers_parameters(tmp_path, capsys):
    rng = np.random.default_rng(5)
    true = pc.PassModelParams(sigma=0.45, lam=0.2)
    x, k = pc.sample_pass_events(true, 4000, rng)
    events = tmp_path / "events.csv"
    pc.save_pass_events(str(events), x, k)
    out = tmp_path / "params.json"
    rc = main(["fit-pass-model", "--events", str(events), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    fitted = sim.config_from_dict(pc.PassModelParams,
                                  json.loads(out.read_text()), "pass_model")
    assert abs(fitted.sigma - 0.45) < 0.45 * 0.15
    assert abs(fitted.lam - 0.2) < 0.1
    # plain floats, printed as such
    assert f"sigma={fitted.sigma!r} lambda={fitted.lam!r}" in printed
    # the command starts its fit at sigma 1, lambda 0
    params = pc.fit_pass_model(x, k, init=pc.PassModelParams(sigma=1.0))
    assert type(params.sigma) is float and type(params.lam) is float
    assert (fitted.sigma, fitted.lam) == (params.sigma, params.lam)


@pytest.mark.parametrize("row, where", [
    ("1.0", "line 3, column k"),
    ("abc,1", "line 3, column x"),
    ("nan,1", "line 3, column x"),
    ("0.5,inf", "line 3, column k"),
    ("0.5,1,2", "line 3"),
])
def test_malformed_pass_events_exit_2_and_name_line_and_column(
        tmp_path, capsys, row, where):
    events = tmp_path / "events.csv"
    events.write_text(f"x,k\n0.3,1\n{row}\n-0.2,0\n")
    out = tmp_path / "params.json"
    rc = main(["fit-pass-model", "--events", str(events), "--out", str(out)])
    assert rc == 2
    assert f"{events}: {where}:" in capsys.readouterr().err
    assert not out.exists()


# -- solve-epv --------------------------------------------------------------------

def test_solve_epv_writes_loadable_grid(tmp_path, capsys):
    out = tmp_path / "grid.json"
    rc = main(["solve-epv", "--out", str(out),
               "--config", pitch_config(tmp_path, grid_m=8, grid_n=6)])
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    values, geom = epv.load_epv_grid(str(out))
    assert values.shape == (8, 6)
    assert geom["length"] == 105.0 and geom["width"] == 68.0
    oracle = epv.solve_epv(epv.default_chain(sim.PitchSpec(grid_m=8, grid_n=6)))
    assert np.array_equal(values, oracle)


def test_solve_epv_prints_the_peak_as_a_plain_float(tmp_path, capsys):
    out = tmp_path / "grid.json"
    assert main(["solve-epv", "--out", str(out),
                 "--config", pitch_config(tmp_path, grid_m=4, grid_n=3)]) == 0
    peak = float(epv.load_epv_grid(str(out))[0].max())
    assert capsys.readouterr().out == f"{out}: 4x3 grid, peak {peak!r}\n"


def test_solve_epv_takes_the_whole_pitch_from_the_config(tmp_path):
    dims = dict(length=90.0, width=60.0, grid_m=16, grid_n=10,
                goal_half_width=5.0)
    pitch = sim.PitchSpec(**dims)
    out = tmp_path / "grid.json"
    rc = main(["solve-epv", "--out", str(out),
               "--config", pitch_config(tmp_path, **dims)])
    assert rc == 0
    values, geom = epv.load_epv_grid(str(out), pitch)
    assert values.shape == (16, 10)
    assert geom["length"] == 90.0 and geom["goal_half_width"] == 5.0
    assert np.array_equal(values, epv.solve_epv(epv.default_chain(pitch)))


@pytest.mark.parametrize("command", [
    ["solve-epv"], ["render-field", "--what", "epv"]])
@pytest.mark.parametrize("flag", [
    "--length", "--width", "--grid-m", "--grid-n", "--goal-half-width"])
def test_pitch_flags_are_usage_errors(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", str(out), flag, "16"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 16" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["solve-epv", "--out", "{tmp}/out"], "--tol"),
    (["fit-pass-model", "--events", "{tmp}/events.csv", "--out", "{tmp}/out"],
     "--tol"),
    (["fit-pass-model", "--events", "{tmp}/events.csv", "--out", "{tmp}/out"],
     "--init-sigma"),
    (["fit-pass-model", "--events", "{tmp}/events.csv", "--out", "{tmp}/out"],
     "--init-lambda"),
    (["eval", "--checkpoint", "{tmp}/ckpt.json", "--config", "{tmp}/c.yaml"],
     "--episodes"),
    (["train", "--config", "{tmp}/c.yaml"], "--jobs"),
], ids=["solve-epv-tol", "fit-tol", "fit-init-sigma", "fit-init-lambda",
        "eval-episodes", "train-jobs"])
def test_removed_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv] + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    (["render-field", "--checkpoint", "{tmp}/ckpt.json", "--at-step", "-5",
      "--out", "{tmp}/scene.ppm"], "--at-step: expected an int >= 0, got -5"),
], ids=["at-step-negative"])
def test_counts_below_their_minimum_are_usage_errors(tmp_path, capsys, argv,
                                                     message):
    cfg_path = write_yaml(tmp_path / "config.yaml", micro_config_dict())
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv]
             + ["--config", cfg_path])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.yaml"]


_DIFFICULTY_MESSAGE = "--difficulty: expected a number in [0, 1], got {}"


@pytest.mark.parametrize("argv, message", [
    (["eval", "--checkpoint", "{tmp}/ckpt.json", "--config", "{cfg}",
      "--difficulty", "1.5"], _DIFFICULTY_MESSAGE.format("1.5")),
    (["eval", "--checkpoint", "{tmp}/ckpt.json", "--config", "{cfg}",
      "--difficulty", "-0.1"], _DIFFICULTY_MESSAGE.format("-0.1")),
    (["replay", "--checkpoint", "{tmp}/ckpt.json", "--config", "{cfg}",
      "--difficulty", "nan", "--out", "{tmp}/ep.jsonl"],
     _DIFFICULTY_MESSAGE.format("nan")),
    (["curve", "--runs", "{tmp}", "--out", "{tmp}/curve.csv",
      "--difficulty", "1.5"], _DIFFICULTY_MESSAGE.format("1.5")),
    (["curve", "--runs", "{tmp}", "--out", "{tmp}/curve.csv",
      "--difficulty", "nan"], _DIFFICULTY_MESSAGE.format("nan")),
    (["curve", "--runs", "{tmp}", "--out", "{tmp}/curve.csv",
      "--difficulty", "high"], _DIFFICULTY_MESSAGE.format("high")),
], ids=["eval-difficulty-1.5", "eval-difficulty-negative",
        "replay-difficulty-nan", "curve-difficulty-1.5", "curve-difficulty-nan",
        "curve-difficulty-word"])
def test_float_flags_out_of_range_are_usage_errors(tmp_path, capsys, argv,
                                                   message):
    cfg_path = write_yaml(tmp_path / "config.yaml", micro_config_dict())
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path, cfg=cfg_path) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.yaml"]


@pytest.mark.parametrize("text, value", [("0", 0.0), ("1", 1.0), ("0.6", 0.6)])
def test_difficulty_flags_take_the_closed_unit_interval(text, value):
    parser = cli.build_parser()
    for argv in (["eval", "--checkpoint", "c", "--config", "y"],
                 ["replay", "--checkpoint", "c", "--config", "y", "--out", "o"],
                 ["curve", "--runs", "r", "--out", "o"]):
        assert parser.parse_args([*argv, "--difficulty", text]).difficulty \
            == value


# -- train / eval / replay / curve ---------------------------------------------------

def test_train_micro_run_artifacts(tmp_path, capsys):
    cfg_path, run_dir = micro_run(tmp_path)
    out = capsys.readouterr().out
    assert run_dir in out
    assert "mean goal difference" in out
    assert os.path.exists(os.path.join(run_dir, "config.json"))
    seed_dir = os.path.join(run_dir, "seed-1")
    assert os.path.exists(os.path.join(seed_dir, "metrics.jsonl"))
    assert os.path.exists(os.path.join(seed_dir, "ckpt_final.json"))


def test_train_baseline_flag_zeros_weight(tmp_path):
    cfg_path = write_yaml(tmp_path / "config.yaml", micro_config_dict(weight=0.1))
    out_dir = tmp_path / "out"
    rc = main(["train", "--config", cfg_path, "--out", str(out_dir),
               "--baseline"])
    assert rc == 0
    runs = [d for d in os.listdir(out_dir) if d.startswith("run-")]
    with open(os.path.join(out_dir, runs[0], "config.json")) as f:
        echoed = json.load(f)
    assert echoed["reward"]["weight"] == 0.0


def test_train_seeds_override(tmp_path):
    cfg_path = write_yaml(tmp_path / "config.yaml", micro_config_dict())
    out_dir = tmp_path / "out"
    rc = main(["train", "--config", cfg_path, "--out", str(out_dir),
               "--seeds", "5"])
    assert rc == 0
    runs = [d for d in os.listdir(out_dir) if d.startswith("run-")]
    run_dir = os.path.join(str(out_dir), runs[0])
    assert os.path.exists(os.path.join(run_dir, "seed-5", "metrics.jsonl"))
    with open(os.path.join(run_dir, "config.json")) as f:
        assert json.load(f)["seeds"] == [5]


@pytest.mark.parametrize("argv", [
    ["replay", "--out", "{tmp}/episode.jsonl"],
    ["render-field", "--what", "control", "--out", "{tmp}/scene.ppm"],
], ids=["replay", "render-field"])
def test_a_negative_episode_seed_exits_2(tmp_path, capsys, argv):
    cfg_path, run_dir = micro_run(tmp_path)
    ckpt = os.path.join(run_dir, "seed-1", "ckpt_final.json")
    capsys.readouterr()
    rc = main([a.format(tmp=tmp_path) for a in argv]
              + ["--checkpoint", ckpt, "--config", cfg_path, "--seed", "-1"])
    assert rc == 2
    assert "seed: expected an int >= 0, got -1" in capsys.readouterr().err
    assert not any(p.suffix in (".jsonl", ".ppm") for p in tmp_path.iterdir())


def test_eval_checkpoint(tmp_path, capsys):
    cfg_path, run_dir = micro_run(tmp_path)
    capsys.readouterr()
    ckpt = os.path.join(run_dir, "seed-1", "ckpt_final.json")
    for seed in ("3", "-1"):   # evaluation masks its seed: -1 is valid
        rc = main(["eval", "--checkpoint", ckpt, "--config", cfg_path,
                   "--seed", seed])
        assert rc == 0
        assert "mean goal difference over 2 episodes" in capsys.readouterr().out


def test_replay_writes_step_rows(tmp_path, capsys):
    cfg_path, run_dir = micro_run(tmp_path)
    ckpt = os.path.join(run_dir, "seed-1", "ckpt_final.json")
    out = tmp_path / "episode.jsonl"
    rc = main(["replay", "--checkpoint", ckpt, "--config", cfg_path,
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows
    assert set(rows[0]) == {"step", "positions", "ball", "carrier",
                            "terminal", "actions", "events"}
    assert rows[-1]["terminal"] is True
    assert len(rows[0]["actions"]) == 1


def test_curve_csv_from_run(tmp_path, capsys):
    cfg_path, run_dir = micro_run(tmp_path)
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--runs", run_dir, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,median,q25,q75"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 30, 60]


_EVAL_ROW = {"kind": "eval", "seed": 1, "step": 0, "difficulty": 0.95,
             "episodes": 2, "mean_goal_difference": -0.5, "final": False}


@pytest.mark.parametrize("line, field", [
    ("{ not json", None),
    ("[1, 2]", None),
    (json.dumps({**_EVAL_ROW, "mean_goal_difference": "-0.5"}),
     "mean_goal_difference"),
    (json.dumps({k: v for k, v in _EVAL_ROW.items()
                 if k != "mean_goal_difference"}), "mean_goal_difference"),
    (json.dumps({**_EVAL_ROW, "step": None}), "step"),
], ids=["not-json", "not-an-object", "string-value", "missing-field",
        "null-step"])
def test_malformed_metrics_log_exits_2_and_names_line_and_field(
        tmp_path, capsys, line, field):
    log = tmp_path / "metrics.jsonl"
    log.write_text(json.dumps(_EVAL_ROW) + "\n" + line + "\n")
    out = tmp_path / "c.csv"
    rc = main(["curve", "--runs", str(log), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{log}: line 2:" in err
    if field is not None:
        assert f"{field}:" in err
    assert not out.exists()


def test_curve_without_metrics_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["curve", "--runs", str(empty), "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "EmptyLogError" in capsys.readouterr().err


# -- render-field ----------------------------------------------------------------------

def test_render_epv_without_state(tmp_path, capsys):
    out = tmp_path / "epv.ppm"
    rc = main(["render-field", "--what", "epv", "--out", str(out),
               "--config", pitch_config(tmp_path, grid_m=8, grid_n=6)])
    assert rc == 0
    assert out.read_bytes().startswith(b"P6\n")


def test_render_control_from_saved_state(tmp_path):
    st = sim.reset(ScenarioConfig(n_defenders=2, n_attackers=3), 4)
    state_path = tmp_path / "state.json"
    sim.save_state(st, str(state_path))
    out = tmp_path / "control.ppm"
    rc = main(["render-field", "--what", "control", "--state", str(state_path),
               "--out", str(out)])
    assert rc == 0
    assert out.read_bytes().startswith(b"P6\n")


def test_render_overlay_with_mismatched_grid_exits_3(tmp_path, capsys):
    st = sim.reset(ScenarioConfig(n_defenders=1, n_attackers=1), 0)
    state_path = tmp_path / "state.json"
    sim.save_state(st, str(state_path))
    small = sim.PitchSpec(grid_m=4, grid_n=3)
    grid_path = tmp_path / "grid.json"
    epv.save_epv_grid(str(grid_path),
                      epv.solve_epv(epv.default_chain(small)), small)
    rc = main(["render-field", "--what", "overlay", "--state", str(state_path),
               "--epv-grid", str(grid_path), "--out", str(tmp_path / "x.ppm")])
    assert rc == 3
    assert "DimensionMismatchError" in capsys.readouterr().err


def test_render_control_ignores_an_epv_grid_it_does_not_draw(tmp_path, capsys):
    st = sim.reset(ScenarioConfig(n_defenders=1, n_attackers=1), 0)
    state_path = tmp_path / "state.json"
    sim.save_state(st, str(state_path))
    small = sim.PitchSpec(grid_m=4, grid_n=3)
    grid_path = tmp_path / "grid.json"
    epv.save_epv_grid(str(grid_path),
                      epv.solve_epv(epv.default_chain(small)), small)
    images = []
    for extra in ([], ["--epv-grid", str(grid_path)]):
        out = tmp_path / f"control{len(images)}.ppm"
        rc = main(["render-field", "--what", "control", "--state",
                   str(state_path), "--out", str(out), *extra])
        assert rc == 0, capsys.readouterr().err
        images.append(out.read_bytes())
    assert images[0] == images[1]


@pytest.mark.parametrize("command", [
    ["solve-epv"], ["render-field", "--what", "epv"]])
@pytest.mark.parametrize("mutate, named", [
    (_set("train", "momentum", value=0.9), "train.momentum: unknown field"),
    (_only("scenario"), "train: missing field"),
    (_set("train", "learning_rate", value=-1), "train: learning_rate"),
])
def test_every_config_is_loaded_whole_as_train_loads_it(
        tmp_path, capsys, command, mutate, named):
    doc = micro_config_dict()
    mutate(doc)
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    out = tmp_path / "out"
    rc = main([*command, "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_render_control_draws_with_the_config_pass_model(tmp_path):
    state = sim.reset(ScenarioConfig(n_defenders=2, n_attackers=3), 4)
    state_path = tmp_path / "state.json"
    sim.save_state(state, str(state_path))
    doc = micro_config_dict()
    doc["pass_model"] = {"sigma": 0.2}
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    out = tmp_path / "control.ppm"
    rc = main(["render-field", "--what", "control", "--state", str(state_path),
               "--config", cfg_path, "--out", str(out)])
    assert rc == 0

    def drawn(params):
        path = tmp_path / "expected.ppm"
        field = pc.compute_control_field(state, params)
        render.write_ppm(str(path), render.render_scene(
            field, state.scenario.pitch, mode="control", state=state))
        return path.read_bytes()

    assert out.read_bytes() == drawn(pc.PassModelParams(sigma=0.2))
    assert out.read_bytes() != drawn(pc.PassModelParams())


def test_render_with_a_grid_for_another_pitch_exits_3(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(_grid_doc(sim.PitchSpec(width=40.0))))
    rc = main(["render-field", "--what", "epv", "--epv-grid", str(grid_path),
               "--out", str(tmp_path / "x.ppm")])
    assert rc == 3
    assert f"{grid_path}: width: grid solved for 40.0, pitch has 68.0" in \
        capsys.readouterr().err
    assert os.listdir(tmp_path) == ["grid.json"]


def test_replay_with_a_checkpoint_that_does_not_fit_keeps_the_old_file(
        tmp_path, capsys):
    cfg_path = write_yaml(tmp_path / "config.yaml", micro_config_dict())
    ckpt = str(tmp_path / "ckpt.json")   # two agents; the config has one
    VDNLearner(LearnerConfig(n_agents=2, obs_dim=3, n_actions=sim.N_ACTIONS,
                             hidden=(4,)), seed=0).save(ckpt)
    out = tmp_path / "episode.jsonl"
    out.write_text("a previous episode\n")
    rc = main(["replay", "--checkpoint", ckpt, "--config", cfg_path,
               "--out", str(out)])
    assert rc == 3
    assert "ShapeMismatchError" in capsys.readouterr().err
    assert out.read_text() == "a previous episode\n"
    assert sorted(os.listdir(tmp_path)) == ["ckpt.json", "config.yaml",
                                            "episode.jsonl"]


@pytest.mark.parametrize("command", ["eval", "replay", "render-field"])
@pytest.mark.parametrize("n_agents, obs_dim, n_actions", [
    (3, 34, sim.N_ACTIONS), (2, 59, sim.N_ACTIONS), (2, 34, sim.N_ACTIONS + 3)])
def test_a_checkpoint_for_another_scenario_stops_before_the_first_step(
        tmp_path, capsys, command, n_agents, obs_dim, n_actions):
    # 3 defenders and 2 attackers observe 34 numbers, as 2 and 3 do
    doc = micro_config_dict()
    doc["scenario"].update(n_defenders=2, n_attackers=3)
    cfg_path = write_yaml(tmp_path / "config.yaml", doc)
    ckpt = str(tmp_path / "ckpt.json")
    VDNLearner(LearnerConfig(n_agents=n_agents, obs_dim=obs_dim,
                             n_actions=n_actions, hidden=(4,)),
               seed=0).save(ckpt)
    out = tmp_path / "old.out"
    out.write_text("a previous output\n")
    argv = [command, "--checkpoint", ckpt, "--config", cfg_path]
    if command != "eval":
        argv += ["--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"ShapeMismatchError: {ckpt}: n_agents {n_agents} vs n_defenders " \
        f"2, obs_dim {obs_dim} vs observation_length 34, n_actions " \
        f"{n_actions} vs N_ACTIONS {sim.N_ACTIONS}" in err
    assert out.read_text() == "a previous output\n"
    assert sorted(os.listdir(tmp_path)) == ["ckpt.json", "config.yaml",
                                            "old.out"]


def test_render_without_state_or_checkpoint_exits_2(tmp_path, capsys):
    rc = main(["render-field", "--what", "control",
               "--out", str(tmp_path / "x.ppm")])
    assert rc == 2


def test_render_from_checkpoint_plays_forward(tmp_path):
    cfg_path, run_dir = micro_run(tmp_path)
    ckpt = os.path.join(run_dir, "seed-1", "ckpt_final.json")
    out = tmp_path / "scene.ppm"
    rc = main(["render-field", "--what", "overlay", "--checkpoint", ckpt,
               "--config", cfg_path, "--seed", "1", "--at-step", "10",
               "--out", str(out)])
    assert rc == 0
    assert out.read_bytes().startswith(b"P6\n")


def test_replay_and_render_follow_the_evaluation_rollout(tmp_path, capsys):
    cfg_path, run_dir = micro_run(tmp_path)
    ckpt = os.path.join(run_dir, "seed-1", "ckpt_final.json")
    config = cli.load_experiment(cfg_path)
    _, records = trainer.evaluate(VDNLearner.load(ckpt), config,
                                  config.scenario.difficulty, 3, seed=5)
    capsys.readouterr()
    for rec in records:
        out = tmp_path / f"episode-{rec.episode}.jsonl"
        rc = main(["replay", "--checkpoint", ckpt, "--config", cfg_path,
                   "--seed", str(rec.seed), "--out", str(out)])
        assert rc == 0
        assert f"{rec.steps} steps, outcome {rec.outcome}" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(1, rec.steps + 1))
        for k in sorted({0, 1, rec.steps // 2, rec.steps, rec.steps + 3}):
            args = cli.build_parser().parse_args(
                ["render-field", "--checkpoint", ckpt, "--config", cfg_path,
                 "--seed", str(rec.seed), "--at-step", str(k),
                 "--out", str(tmp_path / "x.ppm")])
            snap = sim.snapshot(cli._state_for_render(args, config))
            if k == 0:
                assert snap["step"] == 0
                continue
            row = dict(rows[min(k, rec.steps) - 1])
            del row["actions"], row["events"]
            assert snap == row


# -- state files -------------------------------------------------------------------------

def _state_doc(tmp_path):
    st = sim.reset(ScenarioConfig(n_defenders=2, n_attackers=3), 4)
    path = tmp_path / "state.json"
    sim.save_state(st, str(path))
    return path, json.loads(path.read_text())


def _drop_row(key):
    def mutate(doc):
        doc[key] = doc[key][:-1]
    return mutate


def _del(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _terminal_with(outcome):
    def mutate(doc):
        doc["terminal"] = True
        doc["outcome"] = outcome
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (_drop_row("positions"), "positions"),
    (_set("velocities", value=[[0.0, 0.0]] * 6 + [[0.0]]), "velocities"),
    (_set("ball_pos", value=[1.0, 2.0, 3.0]), "ball_pos"),
    (_set("ball_vel", value=[float("nan"), 0.0]), "ball_vel"),
    (_set("positions", 0, value=["a", 1.0]), "positions"),
    (_set("carrier", value=99), "carrier"),
    (_set("carrier", value="3"), "carrier"),
    (_set("kick_shield", value=-1), "kick_shield"),
    (_set("kick_shield", value=True), "kick_shield"),
    (_set("step_index", value=-1), "step_index"),
    (_set("step_index", value=10**6), "step_index"),
    (_set("step_index", value=2.0), "step_index"),
    (_set("score_events", value="none"), "score_events"),
    (_set("terminal", value="no"), "terminal"),
    (_terminal_with(None), "outcome"),
    (_terminal_with({"kind": "own_goal", "goal_difference": 0}), "outcome"),
    (_terminal_with({"kind": "goal_conceded", "goal_difference": 0}), "outcome"),
    (_set("outcome", value={"kind": "turnover", "goal_difference": 0}), "outcome"),
    (_set("rng_state", "bit_generator", value="MT19937"), "rng_state"),
    (_set("rng_state", "state", "inc", value=-1), "rng_state"),
    (_set("rng_state", value=[1, 2]), "rng_state"),
    (_set("scenario", "n_defenders", value="2"), "scenario.n_defenders"),
    (_set("scenario", "dt", value=0.1), "scenario.dt"),
    (_del("velocities"), "velocities"),
    (_set("ghost", value=1), "ghost"),
    (_set("version", value=True), "version"),
    (_set("version", value=1.0), "version"),
])
def test_malformed_state_file_exits_2_and_names_field(tmp_path, capsys,
                                                      mutate, field):
    path, doc = _state_doc(tmp_path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    rc = main(["render-field", "--what", "control", "--state", str(path),
               "--out", str(tmp_path / "x.ppm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert f"{field}:" in err
    assert not (tmp_path / "x.ppm").exists()


def test_state_file_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("{ not json")
    rc = main(["render-field", "--state", str(path),
               "--out", str(tmp_path / "x.ppm")])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


# -- documentation ------------------------------------------------------------------

def test_every_option_is_named_in_the_readme():
    readme_path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme_path, encoding="utf-8") as f:
        readme = f.read()
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = [(name, opt) for name, sub in commands.choices.items()
               for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
    missing = [f"{name} {opt}" for name, opt in options
               if not re.search(rf"{re.escape(opt)}(?![\w-])", readme)]
    assert missing == []


# -- console entry point -------------------------------------------------------------

def _run_python(*args):
    """`python *args` with the directory this pitchlab was imported from
    first on PYTHONPATH, so the child runs it without an install."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_python_m_pitchlab_runs():
    proc = _run_python("-m", "pitchlab", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: pitchlab")


def test_installed_script_runs(tmp_path):
    out = tmp_path / "grid.json"
    proc = _run_python("-m", "pitchlab.cli", "solve-epv", "--out", str(out),
                       "--config", pitch_config(tmp_path, grid_m=4, grid_n=3))
    assert proc.returncode == 0
    assert epv.load_epv_grid(str(out))[0].shape == (4, 3)
