"""Experiment driver: seeded training loops, periodic greedy evaluation,
JSONL metrics, checkpoints, and learning-curve aggregation.

Every run is fully determined by (config, seed): episode seeds derive from
the training seed, evaluation seeds from the training seed XOR a fixed
constant, and metric floats are serialized via repr, so identical configs
produce byte-identical logs.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import epv as epv_mod
from . import pitch_control as pc
from . import reward as reward_mod
from . import sim
from .sim import (ConfigError, GameState, ScenarioConfig, config_from_dict,
                  config_to_dict)
from .vdn import LearnerConfig, ReplayBuffer, TrainConfig, VDNLearner

# evaluation episode seeds come from train_seed XOR this constant, keeping
# the two seed streams disjoint for any training seed
EVAL_SEED_XOR = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class EmptyLogError(ValueError):
    """No evaluation rows found in the metrics logs."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    reward: reward_mod.ShapingConfig
    train: TrainConfig
    pass_model: pc.PassModelParams = pc.PassModelParams()
    epv_source: str = "default"       # "default" or a value-grid file path
    seeds: tuple[int, ...] = (1, 2, 3)
    eval_every: int = 2000
    eval_episodes: int = 32
    eval_difficulties: tuple[float, ...] = ()   # empty: scenario difficulty only
    field_stride: int = 1             # recompute the field every k steps
    obs_mode: str = "global"          # or "egocentric"

    def __post_init__(self) -> None:
        if len(self.seeds) == 0:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: duplicate seeds in {list(self.seeds)}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.field_stride < 1:
            raise ConfigError("field_stride must be >= 1")
        if self.obs_mode not in ("global", "egocentric"):
            raise ConfigError(f"unknown obs_mode '{self.obs_mode}'")
        for d in self.eval_difficulties:
            if not 0.0 <= d <= 1.0:
                raise ConfigError("eval difficulties must lie in [0, 1]")

    @property
    def final_difficulties(self) -> tuple[float, ...]:
        if self.eval_difficulties:
            return self.eval_difficulties
        return (self.scenario.difficulty,)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Strict load through `sim.config_from_dict`, with these rules on
        top: `scenario`, `train` and `seeds` are required; an absent
        `reward`, or an absent `reward.gamma`, takes the defaults, with
        `reward.gamma` defaulting to `train.gamma`; an absent or empty
        `pass_model` means the default pass model."""
        doc = dict(d)
        for req in ("scenario", "train", "seeds"):
            if req not in doc:
                raise ConfigError(f"{req}: missing field")
        reward = doc.get("reward", {})
        if isinstance(reward, dict) and "gamma" not in reward:
            train = config_from_dict(TrainConfig, doc["train"], "train")
            doc["reward"] = {**reward, "gamma": train.gamma}
        doc["pass_model"] = doc.get("pass_model") or {}
        return config_from_dict(cls, doc, "")

    def config_hash(self) -> str:
        blob = json.dumps(config_to_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class EpisodeRecord:
    seed: int
    episode: int
    steps: int
    outcome: str
    goal_difference: int
    shaped_return: float
    sparse_return: float
    mean_epv: float | None


def episode_seed(base: int, index: int) -> int:
    """Deterministic per-episode environment seed."""
    ss = np.random.SeedSequence([base & _MASK64, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _jsonl(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def per_agent_observations(scenario: ScenarioConfig, obs: np.ndarray,
                           mode: str) -> np.ndarray:
    """(n_defenders, obs_dim) views of the flat observation.

    In global mode every agent sees the same vector.  In egocentric mode
    agent a's copy swaps its own player block (and carrier one-hot slot)
    with block 0, so "slot 0" always means "me".
    """
    n_def = scenario.n_defenders
    if mode == "global":
        return np.broadcast_to(obs, (n_def, obs.shape[0]))
    P = scenario.n_players
    out = np.tile(obs, (n_def, 1))
    base = P * 4
    for a in range(1, n_def):
        blk_a = slice(a * 4, a * 4 + 4)
        blk_0 = slice(0, 4)
        out[a, blk_0], out[a, blk_a] = obs[blk_a].copy(), obs[blk_0].copy()
        oh = base + 4
        out[a, oh], out[a, oh + a] = obs[oh + a], obs[oh]
    return out


def _load_epv_values(config: ExperimentConfig) -> np.ndarray:
    pitch = config.scenario.pitch
    if config.epv_source == "default":
        return epv_mod.solve_epv(epv_mod.default_chain(pitch))
    values, geom = epv_mod.load_epv_grid(config.epv_source)
    if values.shape != (pitch.grid_m, pitch.grid_n):
        raise epv_mod.DimensionMismatchError(
            f"EPV grid {values.shape} does not match pitch grid "
            f"{(pitch.grid_m, pitch.grid_n)}")
    return values


class _ValueProbe:
    """Computes the attacking game-state EPV on a step stride, holding the
    last value in between.  Without a grid (weight-0 runs) it is inactive
    and reports 0."""

    def __init__(self, epv_values: np.ndarray | None,
                 params: pc.PassModelParams, stride: int):
        self.epv_values = epv_values
        self.params = params
        self.stride = stride
        self.active = epv_values is not None
        self._held = 0.0
        self._count = 0

    def start(self, state: GameState) -> float:
        self._count = 0
        if not self.active:
            self._held = 0.0
            return 0.0
        field = pc.compute_control_field(state, self.params)
        self._held = epv_mod.game_state_epv(field, self.epv_values)
        return self._held

    def after_step(self, state: GameState) -> float:
        self._count += 1
        if self.active and self._count % self.stride == 0:
            field = pc.compute_control_field(state, self.params)
            self._held = epv_mod.game_state_epv(field, self.epv_values)
        return self._held


def run_episode(learner: VDNLearner, scenario: ScenarioConfig, env_seed: int,
                shaping: reward_mod.ShapingConfig, probe: _ValueProbe,
                obs_mode: str, *, difficulty: float | None = None
                ) -> EpisodeRecord:
    """One greedy episode; returns its record.  Deterministic given env_seed."""
    if difficulty is not None and difficulty != scenario.difficulty:
        scenario = replace(scenario, difficulty=difficulty)
    shaper = reward_mod.RewardShaper(shaping, learner.config.gamma)
    state = sim.reset(scenario, env_seed)
    shaper.episode_start(probe.start(state))
    epv_sum, shaped_ret, sparse_ret, steps = 0.0, 0.0, 0.0, 0
    while not state.terminal:
        obs = sim.observe(state)
        agent_obs = per_agent_observations(scenario, obs, obs_mode)
        actions = learner.greedy_actions(agent_obs)
        state, events = sim.step(state, actions)
        value = probe.after_step(state)
        epv_sum += value
        sparse = reward_mod.sparse_reward(events)
        shaped_ret += shaper.step(sparse, value)
        sparse_ret += sparse
        steps += 1
    return EpisodeRecord(
        seed=env_seed, episode=0, steps=steps,
        outcome=state.outcome.kind.value,
        goal_difference=state.outcome.goal_difference,
        shaped_return=shaped_ret, sparse_return=sparse_ret,
        mean_epv=(epv_sum / steps if probe.active else None),
    )


def evaluate(learner: VDNLearner, config: ExperimentConfig, difficulty: float,
             n_episodes: int, seed: int) -> tuple[float, list[EpisodeRecord]]:
    """Greedy evaluation: n_episodes with per-episode seeds derived from
    `seed`; returns the mean goal difference and the records."""
    if n_episodes < 1:
        raise ConfigError("n_episodes must be >= 1")
    epv_values = _load_epv_values(config) if config.reward.weight != 0.0 else None
    probe = _ValueProbe(epv_values, config.pass_model, config.field_stride)
    records = []
    for i in range(n_episodes):
        rec = run_episode(
            learner, config.scenario, episode_seed(seed, i), config.reward,
            probe, config.obs_mode, difficulty=difficulty)
        rec.episode = i
        records.append(rec)
    mean_gd = float(np.mean([r.goal_difference for r in records]))
    return mean_gd, records


def evaluate_checkpoint(ckpt_path: str, config: ExperimentConfig,
                        difficulty: float, n_episodes: int,
                        seed: int) -> tuple[float, list[EpisodeRecord]]:
    learner = VDNLearner.load(ckpt_path)
    return evaluate(learner, config, difficulty, n_episodes, seed)


def _write_eval_block(f, learner: VDNLearner, config: ExperimentConfig,
                      seed: int, global_step: int,
                      difficulties: tuple[float, ...], final: bool) -> dict:
    """Runs evaluation at the given difficulties and writes rows; returns
    {difficulty: mean_gd}."""
    eval_base = (seed ^ EVAL_SEED_XOR) & _MASK64
    out = {}
    for diff in difficulties:
        mean_gd, records = evaluate(learner, config, diff,
                                    config.eval_episodes, eval_base)
        for rec in records:
            f.write(_jsonl({
                "kind": "eval_episode", "seed": seed, "step": global_step,
                "difficulty": diff, "episode": rec.episode,
                "env_seed": rec.seed, "steps": rec.steps,
                "outcome": rec.outcome,
                "goal_difference": rec.goal_difference,
                "shaped_return": rec.shaped_return,
                "sparse_return": rec.sparse_return,
                "mean_epv": rec.mean_epv,
            }))
        f.write(_jsonl({
            "kind": "eval", "seed": seed, "step": global_step,
            "difficulty": diff, "episodes": config.eval_episodes,
            "mean_goal_difference": mean_gd, "final": final,
        }))
        out[diff] = mean_gd
    return out


def train_seed(config: ExperimentConfig, seed: int, seed_dir: str) -> dict:
    """Full training loop for one seed.  Returns the final evaluation
    summary {difficulty: mean goal difference}."""
    os.makedirs(seed_dir, exist_ok=True)
    scenario = config.scenario
    train = config.train
    obs_dim = sim.observation_length(scenario)
    lcfg = train.learner_config(scenario.n_defenders, obs_dim, sim.N_ACTIONS)
    learner = VDNLearner(lcfg, seed)
    shaper = reward_mod.RewardShaper(config.reward, train.gamma)
    epv_values = _load_epv_values(config) if shaper.needs_value else None
    probe = _ValueProbe(epv_values, config.pass_model, config.field_stride)
    buffer = ReplayBuffer(train.buffer_capacity, scenario.n_defenders, obs_dim)
    action_rng = np.random.default_rng(
        np.random.SeedSequence([seed & _MASK64, 0xACCE55]))

    metrics_path = os.path.join(seed_dir, "metrics.jsonl")
    final_summary: dict = {}
    with open(metrics_path, "w") as f:
        state = None
        episode_idx = -1
        ep_steps = 0
        ep_shaped = ep_sparse = ep_epv = 0.0
        agent_obs = None
        periodic = (scenario.difficulty,)
        for global_step in range(train.total_steps + 1):
            if state is not None and state.terminal:
                f.write(_jsonl({
                    "kind": "episode", "seed": seed, "step": global_step,
                    "episode": episode_idx, "steps": ep_steps,
                    "outcome": state.outcome.kind.value,
                    "goal_difference": state.outcome.goal_difference,
                    "shaped_return": ep_shaped, "sparse_return": ep_sparse,
                    "mean_epv": (ep_epv / ep_steps if probe.active else None),
                }))
                state = None

            at_eval = global_step % config.eval_every == 0
            is_final = global_step == train.total_steps
            if at_eval or is_final:
                diffs = config.final_difficulties if is_final else periodic
                summary = _write_eval_block(f, learner, config, seed,
                                            global_step, diffs, is_final)
                tag = "final" if is_final else str(global_step)
                learner.save(os.path.join(seed_dir, f"ckpt_{tag}.json"),
                             extra={"seed": seed, "global_step": global_step})
                if is_final:
                    final_summary = summary
                    break

            if state is None:
                episode_idx += 1
                state = sim.reset(scenario, episode_seed(seed, episode_idx))
                shaper.episode_start(probe.start(state))
                ep_steps = 0
                ep_shaped = ep_sparse = ep_epv = 0.0
                agent_obs = per_agent_observations(
                    scenario, sim.observe(state), config.obs_mode).copy()

            epsilon = train.epsilon_at(global_step)
            actions = learner.select_actions(agent_obs, epsilon, action_rng)
            state, events = sim.step(state, actions)
            value = probe.after_step(state)
            sparse = reward_mod.sparse_reward(events)
            shaped = shaper.step(sparse, value)
            next_agent_obs = per_agent_observations(
                scenario, sim.observe(state), config.obs_mode).copy()
            buffer.add(agent_obs, actions, shaped, next_agent_obs, state.terminal)
            agent_obs = next_agent_obs
            ep_steps += 1
            ep_shaped += shaped
            ep_sparse += sparse
            ep_epv += value

            if len(buffer) >= train.learn_start \
                    and (global_step + 1) % train.update_every == 0:
                learner.td_update(buffer.sample(train.batch_size, action_rng))
            if (global_step + 1) % train.target_sync_period == 0:
                learner.sync_target()
    return final_summary


def run_training(config: ExperimentConfig, out_dir: str, *,
                 jobs: int = 1) -> str:
    """Trains every seed in the config; returns the run directory.

    A seed whose optimisation raises a non-convergence error is recorded
    and skipped; remaining seeds still run.
    """
    run_dir = os.path.join(out_dir, f"run-{config.config_hash()}")
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.json"), "w") as f:
        json.dump(config_to_dict(config), f, indent=2, sort_keys=True)

    def one(seed: int) -> None:
        seed_dir = os.path.join(run_dir, f"seed-{seed}")
        try:
            train_seed(config, seed, seed_dir)
        except (pc.NonConvergenceError, epv_mod.ValueIterationError) as e:
            os.makedirs(seed_dir, exist_ok=True)
            with open(os.path.join(seed_dir, "metrics.jsonl"), "a") as f:
                f.write(_jsonl({"kind": "error", "seed": seed,
                                "error": type(e).__name__, "message": str(e)}))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            list(ex.map(one, config.seeds))
    else:
        for seed in config.seeds:
            one(seed)
    return run_dir


def load_metrics(path: str) -> list[dict]:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def learning_curve(metrics_paths: list[str],
                   difficulty: float | None = None) -> list[tuple[int, float, float, float]]:
    """Median and quartiles of evaluation goal difference across seeds.

    Reads `kind == "eval"` summary rows from each seed's metrics file,
    groups them by training step (optionally filtered to one difficulty),
    and reduces across seeds with linearly interpolated percentiles.
    Returns rows (step, median, q25, q75) sorted by step.
    """
    by_step: dict[int, list[float]] = {}
    for path in metrics_paths:
        for row in load_metrics(path):
            if row.get("kind") != "eval":
                continue
            if difficulty is not None and row["difficulty"] != difficulty:
                continue
            by_step.setdefault(row["step"], []).append(
                row["mean_goal_difference"])
    if not by_step:
        raise EmptyLogError("no evaluation rows in the given logs")
    out = []
    for step in sorted(by_step):
        vals = np.array(by_step[step])
        q25, med, q75 = np.percentile(vals, [25.0, 50.0, 75.0])
        out.append((step, float(med), float(q25), float(q75)))
    return out


def write_curve_csv(path: str, rows: list[tuple[int, float, float, float]]) -> None:
    with open(path, "w") as f:
        f.write("step,median,q25,q75\n")
        for step, med, q25, q75 in rows:
            f.write(f"{step},{med!r},{q25!r},{q75!r}\n")
