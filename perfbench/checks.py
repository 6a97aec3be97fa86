"""Output checks for the benchmark's workloads.

Every check is a property the method must have, or a comparison with a
value computed here apart from the program.  Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from pitchlab import epv, pitch_control, sim

_MASK64 = (1 << 64) - 1
SHAPING_RTOL = 1e-9


def reference_epv_sum(pitch: sim.PitchSpec) -> float:
    """Sum over cells of the default chain's goal probabilities, from one
    dense linear solve of V = r + M V instead of value iteration.

    Move slots follow PossessionChain's documented order: stay, +x, -x,
    +y, -y.  A control field lies in [0, 1] cell by cell, so this sum
    bounds every game-state EPV."""
    chain = epv.default_chain(pitch)
    m, n = chain.shape
    k = np.arange(m * n).reshape(m, n)
    mv = chain.move
    M = np.zeros((m * n, m * n))
    M[k.ravel(), k.ravel()] = mv[..., 0].ravel()
    M[k[:-1].ravel(), k[1:].ravel()] = mv[:-1, :, 1].ravel()
    M[k[1:].ravel(), k[:-1].ravel()] = mv[1:, :, 2].ravel()
    M[k[:, :-1].ravel(), k[:, 1:].ravel()] = mv[:, :-1, 3].ravel()
    M[k[:, 1:].ravel(), k[:, :-1].ravel()] = mv[:, 1:, 4].ravel()
    r = (chain.shot * chain.score).ravel()
    return float(np.linalg.solve(np.eye(m * n) - M, r).sum())


def expected_updates(total_steps: int, learn_start: int, update_every: int,
                     buffer_capacity: int) -> int:
    """TD updates in one seed's run: one after env step k (1-based) for
    every k that is a multiple of update_every once the buffer holds
    learn_start rows."""
    if buffer_capacity < learn_start or total_steps < learn_start:
        return 0
    return total_steps // update_every - (learn_start - 1) // update_every


def episode_seed(base: int, index: int) -> int:
    """The per-episode environment seed the program documents:
    SeedSequence([base, index]) drawn once as uint64."""
    ss = np.random.SeedSequence([base & _MASK64, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def check_episode(row: dict, weight: float, epv_cap: float) -> list[str]:
    """One episode's record: outcome, sparse and additive-shaped returns."""
    where = f"{row.get('kind', 'record')} episode {row['episode']}"
    out = []
    gd, outcome = row["goal_difference"], row["outcome"]
    if (gd == -1) != (outcome == "goal_conceded"):
        out.append(f"{where}: goal_difference {gd} with outcome {outcome!r}")
    if row["sparse_return"] != float(gd):
        out.append(f"{where}: sparse_return {row['sparse_return']!r} "
                   f"!= goal_difference {gd}")
    if row["steps"] < 1:
        out.append(f"{where}: {row['steps']} steps")
    shaped, sparse, mean_epv = (row["shaped_return"], row["sparse_return"],
                                row["mean_epv"])
    if weight == 0.0:
        if shaped != sparse or mean_epv is not None:
            out.append(f"{where}: weight 0 but shaped {shaped!r}, sparse "
                       f"{sparse!r}, mean_epv {mean_epv!r}")
        return out
    if mean_epv is None or not 0.0 <= mean_epv <= epv_cap:
        out.append(f"{where}: mean_epv {mean_epv!r} outside [0, {epv_cap!r}]")
        return out
    expect = sparse - weight * mean_epv * row["steps"]
    if abs(shaped - expect) > SHAPING_RTOL * max(1.0, abs(expect)):
        out.append(f"{where}: shaped_return {shaped!r} != sparse - "
                   f"weight*mean_epv*steps = {expect!r}")
    return out


def parse_log(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines() if line.strip()]


def failed_seed(rows: list[dict]) -> bool:
    return bool(rows) and rows[-1].get("kind") == "error"


def check_training_log(rows: list[dict], config, epv_cap: float
                       ) -> tuple[list[str], int]:
    """One seed's metrics log.  Returns (problems, env steps), where env
    steps are the training steps plus every evaluation episode's steps."""
    train = config.train
    weight = config.reward.weight
    out = []
    prev = 0
    for r in (r for r in rows if r["kind"] == "episode"):
        if r["step"] - prev != r["steps"]:
            out.append(f"episode {r['episode']} at step {r['step']}: "
                       f"{r['steps']} steps after the previous end at {prev}")
        prev = r["step"]
        out.extend(check_episode(r, weight, epv_cap))
    if not 0 <= train.total_steps - prev < config.scenario.max_episode_steps:
        out.append(f"last episode ends at step {prev} of {train.total_steps}")

    blocks: dict[tuple, list[dict]] = {}
    for r in (r for r in rows if r["kind"] == "eval_episode"):
        blocks.setdefault((r["step"], r["difficulty"]), []).append(r)
        out.extend(check_episode(r, weight, epv_cap))
    evals = [r for r in rows if r["kind"] == "eval"]
    points = list(range(0, train.total_steps, config.eval_every))
    want = [(s, config.scenario.difficulty) for s in points]
    want += [(train.total_steps, d) for d in config.final_difficulties]
    got = [(r["step"], r["difficulty"]) for r in evals]
    if got != want:
        out.append(f"eval blocks at {got}, expected {want}")
    for r in evals:
        eps = blocks.get((r["step"], r["difficulty"]), [])
        n = config.eval_episodes
        if len(eps) != n or r["episodes"] != n:
            out.append(f"eval at {r['step']}: {len(eps)} episodes, expected {n}")
        elif r["mean_goal_difference"] != sum(e["goal_difference"] for e in eps) / n:
            out.append(f"eval at {r['step']}: mean_goal_difference "
                       f"{r['mean_goal_difference']!r} is not its episodes' mean")
    eval_steps = sum(e["steps"] for eps in blocks.values() for e in eps)
    return out, train.total_steps + eval_steps


def check_checkpoint(doc: dict, want_updates: int) -> list[str]:
    if doc.get("train_step") != want_updates:
        return [f"checkpoint train_step {doc.get('train_step')!r}, expected "
                f"{want_updates} updates"]
    return []


def check_eval_records(mean_gd: float, records: list, config, eval_seed: int,
                       epv_cap: float) -> list[str]:
    """One evaluate_checkpoint result at one difficulty."""
    out = []
    rows = [dataclasses.asdict(r) for r in records]
    if len(rows) < 1:
        return ["evaluation returned no episodes"]
    for i, row in enumerate(rows):
        if row["episode"] != i or row["seed"] != episode_seed(eval_seed, i):
            out.append(f"record {i}: episode {row['episode']}, env seed "
                       f"{row['seed']}")
        out.extend(check_episode(row, config.reward.weight, epv_cap))
    if mean_gd != sum(r["goal_difference"] for r in rows) / len(rows):
        out.append(f"mean goal difference {mean_gd!r} is not the records' mean")
    return out


def replay_episode(learner, config, difficulty: float, env_seed: int,
                   epv_values: np.ndarray) -> dict:
    """A greedy episode rolled by a plain reset/act/step loop."""
    scenario = dataclasses.replace(config.scenario, difficulty=difficulty)
    n_def = scenario.n_defenders
    state = sim.reset(scenario, env_seed)
    steps, epv_sum = 0, 0.0
    while not state.terminal:
        obs = np.tile(sim.observe(state), (n_def, 1))
        state, _ = sim.step(state, learner.greedy_actions(obs))
        field = pitch_control.compute_control_field(state, config.pass_model)
        epv_sum += epv.game_state_epv(field, epv_values)
        steps += 1
    return {"steps": steps, "outcome": state.outcome.kind.value,
            "goal_difference": state.outcome.goal_difference,
            "mean_epv": epv_sum / steps}


def check_replay(record, replayed: dict) -> list[str]:
    got = {k: getattr(record, k) for k in replayed}
    if got != replayed:
        return [f"episode {record.episode} (env seed {record.seed}) logged "
                f"{got}, replayed {replayed}"]
    return []
