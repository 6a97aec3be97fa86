"""Command-line entry point covering the full pipeline.

Exit codes: 0 success, 2 for configuration or input-file problems (the
message names the offending path or field), 3 for runtime failures inside
the numeric modules.  `train` exits 3 when any seed's log ends in an error
row, after the other seeds have trained.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import sys
from dataclasses import replace

import yaml

from . import epv as epv_mod
from . import pitch_control as pc
from . import render
from . import sim
from . import trainer as trainer_mod
from .sim import (ConfigError, PitchSpec, ScenarioConfig, config_from_dict,
                  config_to_dict)
from .vdn import (CheckpointFormatError, DivergenceError, ShapeMismatchError,
                  VDNLearner)

_CONFIG_ERRORS = (ConfigError, FileNotFoundError, IsADirectoryError,
                  yaml.YAMLError)
_RUNTIME_ERRORS = (pc.InsufficientDataError, pc.NonConvergenceError,
                   epv_mod.NonStochasticChainError, epv_mod.FormatError,
                   epv_mod.ValueIterationError, epv_mod.DimensionMismatchError,
                   CheckpointFormatError, DivergenceError, ShapeMismatchError,
                   trainer_mod.EmptyLogError, sim.SteppedTerminalError,
                   sim.ActionArityError)


def load_config_dict(path: str) -> dict:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    doc = yaml.safe_load(sim.read_text(path))
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return doc


def load_experiment(path: str, *, seeds_csv: str | None = None,
                    baseline: bool = False) -> trainer_mod.ExperimentConfig:
    doc = load_config_dict(path)
    if seeds_csv:
        try:
            doc["seeds"] = [int(s) for s in seeds_csv.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"--seeds: expected comma-separated integers, "
                              f"got {seeds_csv!r}") from None
    config = trainer_mod.ExperimentConfig.from_dict(doc)
    if baseline:
        config = replace(config, reward=replace(config.reward, weight=0.0))
    return config


def _cmd_train(args) -> int:
    config = load_experiment(args.config, seeds_csv=args.seeds,
                             baseline=args.baseline)
    run_dir = trainer_mod.run_training(config, args.out, jobs=args.jobs)
    print(run_dir)
    failed = False
    for seed in config.seeds:
        metrics = os.path.join(run_dir, f"seed-{seed}", "metrics.jsonl")
        for r in trainer_mod.load_metrics(metrics):
            if r.get("kind") == "error":
                print(f"seed {seed}: {r['error']}: {r['message']}",
                      file=sys.stderr)
                failed = True
            elif r.get("kind") == "eval" and r.get("final"):
                print(f"seed {seed} difficulty {r['difficulty']}: "
                      f"mean goal difference {r['mean_goal_difference']:+.4f}")
    return 3 if failed else 0


def _cmd_eval(args) -> int:
    config = load_experiment(args.config)
    difficulty = args.difficulty if args.difficulty is not None \
        else config.scenario.difficulty
    mean_gd, _records = trainer_mod.evaluate_checkpoint(
        args.checkpoint, config, difficulty, args.episodes, args.seed)
    print(f"mean goal difference over {args.episodes} episodes "
          f"at difficulty {difficulty}: {mean_gd:+.4f}")
    return 0


def _cmd_fit_pass_model(args) -> int:
    x, k = pc.load_pass_events(args.events)
    init = pc.PassModelParams(sigma=args.init_sigma, lam=args.init_lambda)
    params = pc.fit_pass_model(x, k, init=init, tol=args.tol)
    sim.write_json_atomic(args.out, config_to_dict(params))
    print(f"sigma={params.sigma!r} lambda={params.lam!r}")
    return 0


def _pitch_from_args(args) -> PitchSpec:
    """The pitch of --config's scenario; the default pitch without one."""
    if not args.config:
        return PitchSpec()
    doc = load_config_dict(args.config)
    return config_from_dict(ScenarioConfig, doc.get("scenario", {}),
                            "scenario").pitch


def _cmd_solve_epv(args) -> int:
    pitch = _pitch_from_args(args)
    values = epv_mod.solve_epv(epv_mod.default_chain(pitch), tol=args.tol)
    epv_mod.save_epv_grid(args.out, values, pitch)
    print(f"{args.out}: {values.shape[0]}x{values.shape[1]} grid, "
          f"peak {float(values.max())!r}")
    return 0


def _state_for_render(args) -> sim.GameState:
    if args.state:
        return sim.load_state(args.state)
    if not args.checkpoint:
        raise ConfigError("render-field needs --state or --checkpoint")
    if not args.config:
        raise ConfigError("--checkpoint rendering needs --config for the scenario")
    config = load_experiment(args.config)
    learner = VDNLearner.load(args.checkpoint)
    state = sim.reset(config.scenario, args.seed)
    steps = trainer_mod.rollout(state, learner.greedy_actions)
    for _ in itertools.islice(steps, max(args.at_step, 0)):
        pass
    return state


def _cmd_render_field(args) -> int:
    what = args.what
    state = None
    if what == "epv" and not (args.state or args.checkpoint):
        pitch = _pitch_from_args(args)
    else:
        state = _state_for_render(args)
        pitch = state.scenario.pitch

    pm = load_config_dict(args.config).get("pass_model") if args.config else None
    pass_params = config_from_dict(pc.PassModelParams, pm or {}, "pass_model")

    if what == "control":      # the grid, even if given, is not drawn
        values = pc.compute_control_field(state, pass_params)
    else:
        if args.epv_grid:
            values, _geom = epv_mod.load_epv_grid(args.epv_grid, pitch)
        else:
            values = epv_mod.solve_epv(epv_mod.default_chain(pitch))
        if what == "overlay":
            values = pc.compute_control_field(state, pass_params) * values

    img = render.render_scene(values, pitch, mode=what, state=state)
    render.write_ppm(args.out, img)
    print(args.out)
    return 0


def _cmd_replay(args) -> int:
    config = load_experiment(args.config)
    scenario = config.scenario
    if args.difficulty is not None:
        scenario = replace(scenario, difficulty=args.difficulty)
    learner = VDNLearner.load(args.checkpoint)
    state = sim.reset(scenario, args.seed)
    with sim.open_atomic(args.out) as f:
        for _, actions, events, _ in trainer_mod.rollout(
                state, learner.greedy_actions):
            row = sim.snapshot(state)
            row["actions"] = [int(a) for a in actions]
            row["events"] = {k: getattr(events, k) for k in (
                "goal", "out_of_bounds", "turnover", "tackle", "foul")}
            f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"{args.out}: {state.step_index} steps, "
          f"outcome {state.outcome.kind.value}")
    return 0


def _cmd_curve(args) -> int:
    paths = []
    for run_dir in args.runs:
        hits = sorted(glob.glob(os.path.join(run_dir, "seed-*", "metrics.jsonl")))
        if not hits and os.path.isfile(run_dir):
            hits = [run_dir]
        paths.extend(hits)
    if not paths:
        raise trainer_mod.EmptyLogError(
            f"no metrics files under: {', '.join(args.runs)}")
    rows = trainer_mod.learning_curve(paths, difficulty=args.difficulty)
    trainer_mod.write_curve_csv(args.out, rows)
    print(f"{args.out}: {len(rows)} evaluation steps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="pitchlab",
        description="Football-defense RL lab: spatial-control reward shaping "
                    "for a value-decomposition learner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="run the training experiment from a config file")
    p.add_argument("--config", required=True, help="experiment config (YAML)")
    p.add_argument("--out", default="out", help="output directory for runs")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seed override")
    p.add_argument("--baseline", action="store_true",
                   help="force shaping weight to 0")
    p.add_argument("--jobs", type=int, default=1,
                   help="seeds trained concurrently")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="evaluate a checkpoint greedily")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True, help="experiment config (YAML)")
    p.add_argument("--difficulty", type=float, default=None,
                   help="attacker difficulty (default: scenario's)")
    p.add_argument("--episodes", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("fit-pass-model", formatter_class=fmt,
                       help="maximum-likelihood fit on pass events")
    p.add_argument("--events", required=True, help="CSV with header x,k")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--init-sigma", type=float, default=1.0)
    p.add_argument("--init-lambda", type=float, default=0.0)
    p.set_defaults(fn=_cmd_fit_pass_model)

    p = sub.add_parser("solve-epv", formatter_class=fmt,
                       help="solve the default possession chain to a grid file")
    p.add_argument("--out", required=True, help="output grid JSON path")
    p.add_argument("--config", default=None,
                   help="experiment config supplying the pitch")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_solve_epv)

    p = sub.add_parser("render-field", formatter_class=fmt,
                       help="rasterize a control/EPV field to a P6 pixmap")
    p.add_argument("--what", choices=("control", "epv", "overlay"),
                   default="control")
    p.add_argument("--state", default=None, help="game-state JSON file")
    p.add_argument("--checkpoint", default=None,
                   help="play a greedy episode and render a step of it")
    p.add_argument("--config", default=None,
                   help="experiment config (scenario/pass model)")
    p.add_argument("--seed", type=int, default=0, help="episode seed")
    p.add_argument("--at-step", type=int, default=50,
                   help="steps to advance before rendering")
    p.add_argument("--epv-grid", default=None,
                   help="value-grid JSON file for --what epv or overlay")
    p.add_argument("--out", required=True, help="output .ppm path")
    p.set_defaults(fn=_cmd_render_field)

    p = sub.add_parser("replay", formatter_class=fmt,
                       help="dump one greedy episode as JSON lines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--difficulty", type=float, default=None)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("curve", formatter_class=fmt,
                       help="aggregate run metrics into a learning-curve CSV")
    p.add_argument("--runs", nargs="+", required=True,
                   help="run directories (containing seed-*/metrics.jsonl)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--difficulty", type=float, default=None,
                   help="restrict to one evaluation difficulty")
    p.set_defaults(fn=_cmd_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
