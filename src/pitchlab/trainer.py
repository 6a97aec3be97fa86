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
from dataclasses import dataclass, replace

import numpy as np

from . import epv as epv_mod
from . import pitch_control as pc
from . import reward as reward_mod
from . import sim
from .sim import (ConfigError, GameState, RunFailure, ScenarioConfig,
                  config_from_dict, config_to_dict)
from .vdn import (DivergenceError, ReplayBuffer, ShapeMismatchError,
                  TrainConfig, VDNLearner)

# evaluation episode seeds come from train_seed XOR this constant, keeping
# the two seed streams disjoint for any training seed
EVAL_SEED_XOR = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class EmptyLogError(ValueError, RunFailure):
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

    def __post_init__(self) -> None:
        if len(self.seeds) == 0:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: duplicate seeds in {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds: expected seeds >= 0, "
                              f"got {list(self.seeds)}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
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
        `reward` takes the defaults; an absent or empty `pass_model` means
        the default pass model."""
        doc = dict(d)
        for req in ("scenario", "train", "seeds"):
            if req not in doc:
                raise ConfigError(f"{req}: missing field")
        doc.setdefault("reward", {})
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


def per_agent_observations(scenario: ScenarioConfig,
                           obs: np.ndarray) -> np.ndarray:
    """(n_defenders, obs_dim) tile of obs; only perfbench/spans.py uses it."""
    out = np.empty((scenario.n_defenders, obs.shape[0]))
    out[:] = obs
    return out


def _load_epv_values(config: ExperimentConfig) -> np.ndarray | None:
    """The EPV grid a shaped config values states with; None at weight 0."""
    if config.reward.weight == 0.0:
        return None
    pitch = config.scenario.pitch
    if config.epv_source == "default":
        return epv_mod.solve_epv(epv_mod.default_chain(pitch))
    return epv_mod.load_epv_grid(config.epv_source, pitch)[0]


class EpisodeTally:
    """Per-episode bookkeeping for training and evaluation: the game-state
    EPV of every state (0 without a grid), the shaped reward, and the
    running sums an EpisodeRecord reports."""

    def __init__(self, config: ExperimentConfig,
                 epv_values: np.ndarray | None):
        self.config = config
        self.epv_values = epv_values

    def _state_value(self, state: GameState) -> float:
        field = pc.compute_control_field(state, self.config.pass_model)
        return epv_mod.game_state_epv(field, self.epv_values)

    def start(self, state: GameState) -> None:
        self.steps = 0
        self.shaped = self.sparse = self.epv_sum = 0.0
        self.value = 0.0 if self.epv_values is None else self._state_value(state)

    def step(self, state: GameState, events: sim.StepEvents) -> float:
        """Books the step that landed in `state`; returns its shaped reward."""
        self.steps += 1
        prev = self.value
        if self.epv_values is not None:
            self.value = self._state_value(state)
        sparse = reward_mod.sparse_reward(events)
        shaped = reward_mod.shaped_reward(self.config.reward, sparse, prev,
                                          self.value, self.config.train.gamma)
        self.shaped += shaped
        self.sparse += sparse
        self.epv_sum += self.value
        return shaped

    def record(self, state: GameState, env_seed: int,
               episode: int) -> EpisodeRecord:
        return EpisodeRecord(
            seed=env_seed, episode=episode, steps=self.steps,
            outcome=state.outcome.kind.value,
            goal_difference=state.outcome.goal_difference,
            shaped_return=self.shaped, sparse_return=self.sparse,
            mean_epv=(None if self.epv_values is None
                      else self.epv_sum / self.steps),
        )


def rollout(state: GameState, act):
    """Plays `state` to its end, advancing it in place.  Each step hands the
    (obs_dim,) observation every defender reads to `act` for the actions,
    steps the simulator and yields (obs, actions, events, next_obs)."""
    obs = sim.observe(state)
    while not state.terminal:
        actions = act(obs)
        _, events = sim.step(state, actions)
        next_obs = sim.observe(state)
        yield obs, actions, events, next_obs
        obs = next_obs


def evaluate(learner: VDNLearner, config: ExperimentConfig, difficulty: float,
             n_episodes: int, seed: int, *,
             epv_values: np.ndarray | None = None
             ) -> tuple[float, list[EpisodeRecord]]:
    """Greedy evaluation: n_episodes with per-episode seeds derived from
    `seed`; returns the mean goal difference and the records.  A shaped
    config's EPV grid is solved or read here unless `epv_values` holds it."""
    if n_episodes < 1:
        raise ConfigError(f"n_episodes: expected an int >= 1, got {n_episodes}")
    if epv_values is None:
        epv_values = _load_epv_values(config)
    tally = EpisodeTally(config, epv_values)
    scenario = replace(config.scenario, difficulty=difficulty)
    records = []
    for i in range(n_episodes):
        env_seed = episode_seed(seed, i)
        state = sim.reset(scenario, env_seed)
        tally.start(state)
        for _, _, events, _ in rollout(state, learner.greedy_actions):
            tally.step(state, events)
        records.append(tally.record(state, env_seed, i))
    mean_gd = float(np.mean([r.goal_difference for r in records]))
    return mean_gd, records


def load_checkpoint(path: str, scenario: ScenarioConfig) -> VDNLearner:
    """VDNLearner.load, then ShapeMismatchError naming the file unless it
    fits the scenario: acting hands every agent one row, so no later step
    would catch a wrong agent count."""
    learner = VDNLearner.load(path)
    cfg, obs_len = learner.config, sim.observation_length(scenario)
    if (cfg.n_agents, cfg.obs_dim, cfg.n_actions) != (
            scenario.n_defenders, obs_len, sim.N_ACTIONS):
        raise ShapeMismatchError(
            f"{path}: n_agents {cfg.n_agents} vs n_defenders "
            f"{scenario.n_defenders}, obs_dim {cfg.obs_dim} vs "
            f"observation_length {obs_len}, n_actions {cfg.n_actions} vs "
            f"N_ACTIONS {sim.N_ACTIONS}")
    return learner


def evaluate_checkpoint(ckpt_path: str, config: ExperimentConfig,
                        difficulty: float, n_episodes: int,
                        seed: int) -> tuple[float, list[EpisodeRecord]]:
    learner = load_checkpoint(ckpt_path, config.scenario)
    return evaluate(learner, config, difficulty, n_episodes, seed)


def _write_eval_block(f, learner: VDNLearner, config: ExperimentConfig,
                      seed: int, global_step: int,
                      difficulties: tuple[float, ...], final: bool,
                      epv_values: np.ndarray | None) -> None:
    """Runs evaluation at the given difficulties and writes its rows."""
    eval_base = (seed ^ EVAL_SEED_XOR) & _MASK64
    for diff in difficulties:
        mean_gd, records = evaluate(learner, config, diff,
                                    config.eval_episodes, eval_base,
                                    epv_values=epv_values)
        for rec in records:   # rows name the training seed; rec.seed is env_seed
            f.write(_jsonl({**vars(rec), "kind": "eval_episode", "seed": seed,
                            "step": global_step, "difficulty": diff,
                            "env_seed": rec.seed}))
        f.write(_jsonl({
            "kind": "eval", "seed": seed, "step": global_step,
            "difficulty": diff, "episodes": config.eval_episodes,
            "mean_goal_difference": mean_gd, "final": final,
        }))


def train_seed(config: ExperimentConfig, seed: int, seed_dir: str,
               epv_values: np.ndarray | None) -> None:
    """Full training loop for one seed, logging to seed_dir/metrics.jsonl.
    `epv_values` is the config's EPV grid, None at weight 0."""
    os.makedirs(seed_dir, exist_ok=True)
    scenario = config.scenario
    train = config.train
    obs_dim = sim.observation_length(scenario)
    lcfg = train.learner_config(scenario.n_defenders, obs_dim, sim.N_ACTIONS)
    learner = VDNLearner(lcfg, seed)
    tally = EpisodeTally(config, epv_values)
    buffer = ReplayBuffer(train.buffer_capacity, scenario.n_defenders, obs_dim)
    action_rng = np.random.default_rng(
        np.random.SeedSequence([seed & _MASK64, 0xACCE55]))

    def act(obs: np.ndarray) -> np.ndarray:   # epsilon of the step in hand
        return learner.select_actions(obs, train.epsilon_at(global_step),
                                      action_rng)

    metrics_path = os.path.join(seed_dir, "metrics.jsonl")
    with open(metrics_path, "w") as f:
        episode_idx = -1
        transitions = iter(())   # the suspended rollout of the running episode
        periodic = (scenario.difficulty,)
        for global_step in range(train.total_steps + 1):
            at_eval = global_step % config.eval_every == 0
            is_final = global_step == train.total_steps
            if at_eval or is_final:
                diffs = config.final_difficulties if is_final else periodic
                _write_eval_block(f, learner, config, seed, global_step,
                                  diffs, is_final, epv_values)
                tag = "final" if is_final else str(global_step)
                learner.save(os.path.join(seed_dir, f"ckpt_{tag}.json"),
                             extra={"seed": seed, "global_step": global_step})
                if is_final:
                    break

            transition = next(transitions, None)
            if transition is None:   # that episode has ended: start the next
                episode_idx += 1
                env_seed = episode_seed(seed, episode_idx)
                state = sim.reset(scenario, env_seed)
                tally.start(state)
                transitions = rollout(state, act)
                transition = next(transitions)
            obs, actions, events, next_obs = transition
            shaped = tally.step(state, events)
            buffer.add(obs, actions, shaped, next_obs, state.terminal)
            if state.terminal:
                rec = tally.record(state, env_seed, episode_idx)
                f.write(_jsonl({**vars(rec), "kind": "episode", "seed": seed,
                                "step": global_step + 1}))

            if len(buffer) >= train.learn_start \
                    and (global_step + 1) % train.update_every == 0:
                learner.td_update(buffer.sample(train.batch_size, action_rng))
            if (global_step + 1) % train.target_sync_period == 0:
                learner.sync_target()


def run_training(config: ExperimentConfig, out_dir: str, *,
                 jobs: int = 1) -> str:
    """Trains every seed in the config; returns the run directory.

    A shaped config's EPV grid is solved or read once, before the run
    directory is made, so a grid file that fails to load leaves no
    directory behind.  A non-convergence error, in the grid's solve or in
    a seed's optimisation, and a diverging seed's DivergenceError are
    recorded as an `error` row in each seed they stop; remaining seeds
    still run.  Seeds always train one at a time, in `config.seeds`
    order, in the calling thread, whatever `jobs` says; `jobs` below 1
    raises ConfigError before anything is written.
    """
    if jobs < 1:
        raise ConfigError(f"jobs: expected an int >= 1, got {jobs}")
    try:
        epv_values, unsolved = _load_epv_values(config), None
    except epv_mod.ValueIterationError as e:
        epv_values, unsolved = None, e
    run_dir = os.path.join(out_dir, f"run-{config.config_hash()}")
    os.makedirs(run_dir, exist_ok=True)
    sim.write_json_atomic(os.path.join(run_dir, "config.json"),
                          config_to_dict(config), indent=2, sort_keys=True)

    def one(seed: int) -> None:
        seed_dir = os.path.join(run_dir, f"seed-{seed}")
        error = unsolved
        if error is None:
            try:
                train_seed(config, seed, seed_dir, epv_values)
            except (pc.NonConvergenceError, epv_mod.ValueIterationError,
                    DivergenceError) as e:
                error = e
        if error is not None:
            os.makedirs(seed_dir, exist_ok=True)
            with open(os.path.join(seed_dir, "metrics.jsonl"), "a") as f:
                f.write(_jsonl({"kind": "error", "seed": seed,
                                "error": type(error).__name__,
                                "message": str(error)}))

    for seed in config.seeds:
        one(seed)
    return run_dir


def _numbered_rows(path: str):
    """Yields (line number, row) for each non-blank line of a JSONL log; a
    line that is not a JSON object raises a ConfigError naming it."""
    for lineno, line in enumerate(sim.read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: line {lineno}: not JSON "
                              f"({e.msg})") from None
        if not isinstance(row, dict):
            raise ConfigError(f"{path}: line {lineno}: expected an object")
        yield lineno, row


def load_metrics(path: str) -> list[dict]:
    return [row for _, row in _numbered_rows(path)]


def learning_curve(metrics_paths: list[str],
                   difficulty: float | None = None) -> list[tuple[int, float, float, float]]:
    """Median and quartiles of evaluation goal difference across seeds.

    Reads `kind == "eval"` summary rows from each seed's metrics file,
    groups them by training step (optionally filtered to one difficulty),
    and reduces across seeds with linearly interpolated percentiles.
    Returns rows (step, median, q25, q75) sorted by step.  An eval row
    whose step, difficulty or mean goal difference is not a finite number
    raises a ConfigError naming the file, the line and the field.
    """
    by_step: dict[int, list[float]] = {}
    for path in metrics_paths:
        for lineno, row in _numbered_rows(path):
            if row.get("kind") != "eval":
                continue
            for key in ("step", "difficulty", "mean_goal_difference"):
                value = row.get(key)
                if not sim.is_finite_number(value):
                    got = repr(value) if key in row else "nothing"
                    raise ConfigError(f"{path}: line {lineno}: {key}: "
                                      f"expected a finite number, got {got}")
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
    with sim.open_atomic(path) as f:
        f.write("step,median,q25,q75\n")
        for step, med, q25, q75 in rows:
            f.write(f"{step},{med!r},{q25!r},{q75!r}\n")
