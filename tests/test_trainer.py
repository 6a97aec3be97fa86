import json
import os
import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from pitchlab import cli, epv, pitch_control as pc, reward, sim, trainer
from pitchlab.reward import ShapingConfig, ShapingMode
from pitchlab.sim import ConfigError, ScenarioConfig
from pitchlab.trainer import (
    EVAL_SEED_XOR,
    EmptyLogError,
    ExperimentConfig,
    episode_seed,
    evaluate,
    evaluate_checkpoint,
    learning_curve,
    load_metrics,
    per_agent_observations,
    run_training,
    write_curve_csv,
)
from pitchlab.vdn import DivergenceError, TrainConfig, VDNLearner


def tiny_scenario(**kw):
    kw.setdefault("n_defenders", 1)
    kw.setdefault("n_attackers", 1)
    kw.setdefault("difficulty", 0.95)
    kw.setdefault("max_episode_steps", 40)
    return ScenarioConfig(**kw)


def tiny_config(total_steps=300, eval_every=100, weight=0.1, seeds=(1,), **kw):
    return ExperimentConfig(
        scenario=tiny_scenario(),
        reward=ShapingConfig(mode=ShapingMode.ADDITIVE, weight=weight),
        train=TrainConfig(total_steps=total_steps, learning_rate=1e-3,
                          batch_size=8, target_sync_period=100,
                          buffer_capacity=512, hidden=(8,),
                          update_every=4, learn_start=8),
        seeds=seeds,
        eval_every=eval_every,
        eval_episodes=2,
        **kw,
    )


# -- seeding -----------------------------------------------------------------------

def test_episode_seed_is_deterministic():
    assert episode_seed(1, 0) == episode_seed(1, 0)
    # frozen draws from the seed-sequence derivation
    assert episode_seed(1, 0) == 7434755675892716031
    assert episode_seed(1, 1) == 77803131892610477
    assert episode_seed(2, 0) == 10128210881749538955


def test_episode_seeds_do_not_collide_across_indices():
    seen = {episode_seed(7, i) for i in range(200)}
    assert len(seen) == 200


def test_eval_seed_stream_is_disjoint_from_train_seed():
    assert (1 ^ EVAL_SEED_XOR) & ((1 << 64) - 1) == 0x9E3779B97F4A7C14


# -- observations -------------------------------------------------------------------

def test_per_agent_observations_global_mode():
    sc = ScenarioConfig(n_defenders=3, n_attackers=2)
    obs = np.arange(sim.observation_length(sc), dtype=float)
    out = per_agent_observations(sc, obs)
    assert out.shape == (3, obs.shape[0])
    for a in range(3):
        assert np.array_equal(out[a], obs)


def test_per_agent_observations_is_a_writable_contiguous_tile():
    sc = ScenarioConfig(n_defenders=4, n_attackers=6)
    obs = sim.observe(sim.reset(sc, 3))
    before = obs.copy()
    out = per_agent_observations(sc, obs)
    assert out.tobytes() == np.tile(obs, (4, 1)).tobytes()
    assert out.dtype == np.float64 and out.shape == (4, obs.shape[0])
    assert out.flags.c_contiguous and out.flags.writeable
    out[0, 0] += 1.0      # a copy: neither the other rows nor obs change
    assert out[1, 0] == before[0] and obs[0] == before[0]


def test_rollout_yields_the_observation_row_sim_observe_gives():
    sc = tiny_scenario(n_defenders=2, n_attackers=3)
    state, twin = sim.reset(sc, 4), sim.reset(sc, 4)
    handed = []

    def act(obs):
        handed.append(obs)
        return np.full(sc.n_defenders, sim.DefenderAction.PRESS.value)

    steps = 0
    for obs, actions, _, next_obs in trainer.rollout(state, act):
        assert obs is handed[-1]
        assert obs.shape == next_obs.shape == (sim.observation_length(sc),)
        assert obs.tobytes() == sim.observe(twin).tobytes()
        sim.step(twin, actions)
        assert next_obs.tobytes() == sim.observe(twin).tobytes()
        steps += 1
    assert steps == state.step_index == twin.step_index > 1


# -- experiment config ----------------------------------------------------------------

def test_config_dict_roundtrip():
    cfg = tiny_config(eval_difficulties=(0.95, 0.5),
                      pass_model=pc.PassModelParams(sigma=0.5, lam=0.1))
    doc = sim.config_to_dict(cfg)
    # config.json carries the dict through JSON text
    for d in (doc, json.loads(json.dumps(doc))):
        for again in (ExperimentConfig.from_dict(d),
                      sim.config_from_dict(ExperimentConfig, d, "")):
            assert again == cfg
            assert again.config_hash() == cfg.config_hash()


def test_config_hash_of_shipped_configs_is_pinned():
    # the hash names the run directory, run-<hash>
    configs = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "configs")
    for name, expected in (("desk_2v3", "b7e6eb85072a"),
                           ("full_4v6", "1f72bdd2ff6b")):
        cfg = cli.load_experiment(os.path.join(configs, f"{name}.yaml"))
        assert cfg.config_hash() == expected


def test_config_hash_changes_with_content():
    a = tiny_config(weight=0.1)
    b = tiny_config(weight=0.0)
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 12


def test_config_rejects_unknown_fields():
    d = sim.config_to_dict(tiny_config())
    d["optimizer"] = "adam"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_config_rejects_unknown_train_field():
    d = sim.config_to_dict(tiny_config())
    d["train"]["momentum"] = 0.9
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_config_rejects_unknown_reward_mode():
    d = sim.config_to_dict(tiny_config())
    d["reward"]["mode"] = "multiplicative"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_config_requires_core_fields():
    d = sim.config_to_dict(tiny_config())
    del d["scenario"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(seeds=())
    with pytest.raises(ConfigError, match="seeds"):
        tiny_config(seeds=(1, 1))
    with pytest.raises(ConfigError, match="seeds"):
        tiny_config(seeds=(2, -1))
    with pytest.raises(ConfigError):
        tiny_config(eval_difficulties=(1.5,))


def test_final_difficulties_fall_back_to_scenario():
    assert tiny_config().final_difficulties == (0.95,)
    assert tiny_config(eval_difficulties=(0.6, 0.05)).final_difficulties == (0.6, 0.05)


# -- epv source ------------------------------------------------------------------------

def test_epv_values_load_from_grid_file(tmp_path):
    cfg = tiny_config()
    pitch = cfg.scenario.pitch
    values = epv.solve_epv(epv.default_chain(pitch))
    path = tmp_path / "grid.json"
    epv.save_epv_grid(str(path), values, pitch)
    cfg_file = tiny_config(epv_source=str(path))
    assert np.array_equal(trainer._load_epv_values(cfg_file), values)


def test_epv_grid_shape_mismatch_is_rejected(tmp_path):
    # each grid is solved for its own pitch; the scenario plays on the default
    for grid_pitch, field in [
            (sim.PitchSpec(grid_m=4, grid_n=3), "grid"),
            (sim.PitchSpec(length=60.0, width=40.0), "length"),
            (sim.PitchSpec(width=40.0), "width"),
            (sim.PitchSpec(goal_half_width=3.0), "goal_half_width")]:
        values = epv.solve_epv(epv.default_chain(grid_pitch))
        path = tmp_path / f"{field}.json"
        epv.save_epv_grid(str(path), values, grid_pitch)
        with pytest.raises(epv.DimensionMismatchError,
                           match=f"^{re.escape(str(path))}: {field}"):
            trainer._load_epv_values(tiny_config(epv_source=str(path)))


# -- evaluation --------------------------------------------------------------------------

def fresh_learner(cfg):
    obs_dim = sim.observation_length(cfg.scenario)
    lcfg = cfg.train.learner_config(cfg.scenario.n_defenders, obs_dim,
                                    sim.N_ACTIONS)
    return VDNLearner(lcfg, seed=0)


def test_evaluate_is_deterministic():
    cfg = tiny_config()
    learner = fresh_learner(cfg)
    m1, r1 = evaluate(learner, cfg, 0.95, 3, seed=5)
    m2, r2 = evaluate(learner, cfg, 0.95, 3, seed=5)
    assert m1 == m2
    assert [(r.seed, r.steps, r.goal_difference, r.shaped_return)
            for r in r1] == \
           [(r.seed, r.steps, r.goal_difference, r.shaped_return)
            for r in r2]


def test_evaluate_rejects_zero_episodes():
    cfg = tiny_config()
    with pytest.raises(ConfigError, match="n_episodes: expected an int >= 1"):
        evaluate(fresh_learner(cfg), cfg, 0.95, 0, seed=1)


def test_untrained_defense_concedes_at_high_difficulty():
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_defenders=2, n_attackers=3, difficulty=0.95,
                                max_episode_steps=200),
        reward=ShapingConfig(mode=ShapingMode.ADDITIVE, weight=0.0),
        train=TrainConfig(total_steps=100, batch_size=8, learn_start=8,
                          buffer_capacity=64, hidden=(8,)),
        seeds=(1,),
    )
    mean_gd, _ = evaluate(fresh_learner(cfg), cfg, 0.95, 16, seed=3)
    assert mean_gd < 0.0


def test_inactive_probe_reports_no_epv():
    cfg = tiny_config(weight=0.0)
    learner = fresh_learner(cfg)
    _, records = evaluate(learner, cfg, 0.95, 2, seed=1)
    assert all(r.mean_epv is None for r in records)
    _, records = evaluate(fresh_learner(tiny_config(weight=0.1)),
                          tiny_config(weight=0.1), 0.95, 2, seed=1)
    assert all(r.mean_epv is not None for r in records)


def test_potential_shaping_uses_the_held_values():
    cfg = replace(tiny_config(),
                  reward=ShapingConfig(mode=ShapingMode.POTENTIAL_BASED,
                                       weight=0.5))
    values = trainer._load_epv_values(cfg)
    tally = trainer.EpisodeTally(cfg, values)
    st = sim.reset(cfg.scenario, 0)
    tally.start(st)
    held, fresh, sparse, shaped = [tally.value], [], [], []
    for _ in range(8):
        st, events = sim.step(st, [0])
        shaped.append(tally.step(st, events))
        held.append(tally.value)
        fresh.append(epv.game_state_epv(
            pc.compute_control_field(st, cfg.pass_model), values))
        sparse.append(reward.sparse_reward(events))
    # the value is recomputed at every step, from the state it landed in
    assert held[1:] == fresh
    assert len(set(held)) == len(held)
    for t in range(8):
        assert shaped[t] == reward.potential_shaped(
            sparse[t], held[t], held[t + 1], weight=0.5, gamma=0.99)
    assert tally.steps == 8
    assert tally.shaped == sum(shaped)
    assert tally.epv_sum == sum(held[1:])


# -- training loop -------------------------------------------------------------------------

def test_run_training_layout_and_eval_cadence(tmp_path):
    cfg = tiny_config(total_steps=300, eval_every=100, seeds=(1, 2))
    run_dir = run_training(cfg, str(tmp_path))
    assert run_dir == os.path.join(str(tmp_path), f"run-{cfg.config_hash()}")
    assert os.path.exists(os.path.join(run_dir, "config.json"))
    for seed in (1, 2):
        seed_dir = os.path.join(run_dir, f"seed-{seed}")
        rows = load_metrics(os.path.join(seed_dir, "metrics.jsonl"))
        evals = [r for r in rows if r["kind"] == "eval"]
        assert [r["step"] for r in evals] == [0, 100, 200, 300]
        assert [r["final"] for r in evals] == [False, False, False, True]
        assert all(r["difficulty"] == 0.95 for r in evals)
        eps = [r for r in rows if r["kind"] == "eval_episode"]
        assert len(eps) == 4 * cfg.eval_episodes
        assert {r["kind"] for r in rows} <= {"episode", "eval_episode", "eval"}
        assert os.path.exists(os.path.join(seed_dir, "ckpt_0.json"))
        assert os.path.exists(os.path.join(seed_dir, "ckpt_final.json"))


def test_metrics_logs_are_byte_identical(tmp_path):
    cfg = tiny_config(total_steps=200, eval_every=100)
    d1 = run_training(cfg, str(tmp_path / "a"))
    d2 = run_training(cfg, str(tmp_path / "b"))
    p1 = os.path.join(d1, "seed-1", "metrics.jsonl")
    p2 = os.path.join(d2, "seed-1", "metrics.jsonl")
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_final_checkpoint_reproduces_final_eval(tmp_path):
    cfg = tiny_config(total_steps=200, eval_every=100)
    run_dir = run_training(cfg, str(tmp_path))
    rows = load_metrics(os.path.join(run_dir, "seed-1", "metrics.jsonl"))
    final = [r for r in rows if r["kind"] == "eval" and r["final"]]
    assert len(final) == 1
    eval_base = (1 ^ EVAL_SEED_XOR) & ((1 << 64) - 1)
    mean_gd, _ = evaluate_checkpoint(
        os.path.join(run_dir, "seed-1", "ckpt_final.json"),
        cfg, 0.95, cfg.eval_episodes, eval_base)
    assert mean_gd == final[0]["mean_goal_difference"]


def test_step_zero_eval_ignores_shaping_weight(tmp_path):
    base = tiny_config(total_steps=100, eval_every=100, weight=0.0)
    shaped = tiny_config(total_steps=100, eval_every=100, weight=0.1)
    d_base = run_training(base, str(tmp_path / "base"))
    d_shaped = run_training(shaped, str(tmp_path / "shaped"))

    def step0(run_dir):
        rows = load_metrics(os.path.join(run_dir, "seed-1", "metrics.jsonl"))
        return [r for r in rows if r["kind"] == "eval" and r["step"] == 0][0]

    assert step0(d_base)["mean_goal_difference"] == \
        step0(d_shaped)["mean_goal_difference"]


def test_weight_zero_run_never_solves_the_epv_grid(tmp_path, monkeypatch):
    calls = []
    solve = epv.solve_epv
    monkeypatch.setattr(epv, "solve_epv",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    run_training(tiny_config(total_steps=100, eval_every=50, weight=0.0),
                 str(tmp_path))
    assert calls == []


def test_shaped_seed_solves_the_epv_grid_once(tmp_path, monkeypatch):
    calls = []
    solve = epv.solve_epv
    monkeypatch.setattr(epv, "solve_epv",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    cfg = tiny_config(total_steps=100, eval_every=50, seeds=(1, 2),
                      eval_difficulties=(0.95, 0.6, 0.05))
    run_training(cfg, str(tmp_path))
    assert len(calls) == 1   # once per run, shared by both seeds


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_training_rejects_jobs_below_1_before_writing(tmp_path, jobs):
    with pytest.raises(ConfigError,
                       match=f"jobs: expected an int >= 1, got {jobs}"):
        run_training(tiny_config(), str(tmp_path / "out"), jobs=jobs)
    assert not (tmp_path / "out").exists()


def test_failed_seed_writes_error_row(tmp_path, monkeypatch):
    def boom(chain, **kw):
        raise epv.ValueIterationError("forced for the test")
    monkeypatch.setattr(epv, "solve_epv", boom)
    cfg = tiny_config(total_steps=100, eval_every=100)
    run_dir = run_training(cfg, str(tmp_path))
    rows = load_metrics(os.path.join(run_dir, "seed-1", "metrics.jsonl"))
    assert rows == [{"kind": "error", "seed": 1,
                     "error": "ValueIterationError",
                     "message": "forced for the test"}]


def read_bytes(run_dir, seed, name):
    with open(os.path.join(run_dir, f"seed-{seed}", name), "rb") as f:
        return f.read()


def test_jobs_2_trains_seeds_in_order_on_the_calling_thread(tmp_path,
                                                            monkeypatch):
    cfg = tiny_config(total_steps=100, eval_every=50, seeds=(2, 1))
    alone = run_training(cfg, str(tmp_path / "alone"), jobs=1)
    calls = []
    train_seed = trainer.train_seed

    def recording(config, seed, *a):
        calls.append((seed, threading.get_ident()))
        return train_seed(config, seed, *a)

    monkeypatch.setattr(trainer, "train_seed", recording)
    two_jobs = run_training(cfg, str(tmp_path / "two_jobs"), jobs=2)
    assert calls == [(2, threading.get_ident()), (1, threading.get_ident())]
    for seed in cfg.seeds:
        for name in ("metrics.jsonl", "ckpt_final.json"):
            assert read_bytes(two_jobs, seed, name) == \
                read_bytes(alone, seed, name)


def test_failed_seed_does_not_stop_the_next(tmp_path, monkeypatch):
    alone = run_training(tiny_config(total_steps=100, eval_every=50,
                                     seeds=(2,)), str(tmp_path / "alone"))
    train_seed = trainer.train_seed

    def diverge_seed_1(config, seed, *a):
        if seed == 1:
            raise DivergenceError("forced")
        return train_seed(config, seed, *a)

    monkeypatch.setattr(trainer, "train_seed", diverge_seed_1)
    run_dir = run_training(tiny_config(total_steps=100, eval_every=50,
                                       seeds=(1, 2)),
                           str(tmp_path / "both"), jobs=2)
    assert load_metrics(os.path.join(run_dir, "seed-1", "metrics.jsonl")) == [
        {"kind": "error", "seed": 1, "error": "DivergenceError",
         "message": "forced"}]
    assert read_bytes(run_dir, 2, "metrics.jsonl") == \
        read_bytes(alone, 2, "metrics.jsonl")


# -- learning curves ---------------------------------------------------------------------

def write_metrics(path, rows):
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def eval_row(seed, step, mean_gd, difficulty=0.95):
    return {"kind": "eval", "seed": seed, "step": step,
            "difficulty": difficulty, "episodes": 4,
            "mean_goal_difference": mean_gd, "final": False}


def test_learning_curve_median_and_quartiles(tmp_path):
    paths = []
    for seed, gds in ((1, (-1.0, -0.5)), (2, (0.0, -0.25)), (3, (1.0, 0.0))):
        p = tmp_path / f"m{seed}.jsonl"
        write_metrics(p, [eval_row(seed, 0, gds[0]), eval_row(seed, 100, gds[1])])
        paths.append(str(p))
    curve = learning_curve(paths)
    assert [c[0] for c in curve] == [0, 100]
    # canonical three-seed spread: median 0, quartiles interpolate halfway
    step0 = curve[0]
    assert step0[1] == 0.0
    assert step0[2] == pytest.approx(np.percentile([-1.0, 0.0, 1.0], 25))
    assert step0[3] == pytest.approx(np.percentile([-1.0, 0.0, 1.0], 75))
    step1 = curve[1]
    assert step1[1] == -0.25


def test_learning_curve_difficulty_filter(tmp_path):
    p = tmp_path / "m.jsonl"
    write_metrics(p, [eval_row(1, 0, -1.0, difficulty=0.95),
                      eval_row(1, 0, 0.0, difficulty=0.5)])
    assert learning_curve([str(p)], difficulty=0.5)[0][1] == 0.0
    assert learning_curve([str(p)], difficulty=0.95)[0][1] == -1.0
    both = learning_curve([str(p)])
    assert both[0][1] == -0.5  # unfiltered pools the rows


def test_learning_curve_single_seed_collapses_quartiles(tmp_path):
    p = tmp_path / "m.jsonl"
    write_metrics(p, [eval_row(1, 0, -0.75)])
    step, med, q25, q75 = learning_curve([str(p)])[0]
    assert (med, q25, q75) == (-0.75, -0.75, -0.75)


def test_learning_curve_empty_raises(tmp_path):
    p = tmp_path / "m.jsonl"
    write_metrics(p, [{"kind": "episode", "seed": 1, "step": 3,
                       "episode": 0, "steps": 3, "outcome": "turnover",
                       "goal_difference": 0, "shaped_return": 0.0,
                       "sparse_return": 0.0, "mean_epv": None}])
    with pytest.raises(EmptyLogError):
        learning_curve([str(p)])


def test_curve_csv_roundtrip(tmp_path):
    rows = [(0, -1.0, -1.0, -0.5), (100, -0.3333333333333333, -0.5, 0.0)]
    path = tmp_path / "curve.csv"
    write_curve_csv(str(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,median,q25,q75"
    parsed = []
    for line in lines[1:]:
        step, med, q25, q75 = line.split(",")
        parsed.append((int(step), float(med), float(q25), float(q75)))
    assert parsed == rows
    # repr serialisation keeps full precision
    assert "-0.3333333333333333" in lines[2]
