"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises a guarantee against an independent oracle (brute-force
sums, direct linear solves, Monte Carlo rollouts, finite differences, or
exhaustive enumeration) and prints a single [PASS]/[FAIL] line with the
measured numbers, bypassing output capture so the verdicts always appear.
"""

import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pitchlab import cli, epv, pitch_control as pc, sim, trainer
from pitchlab.sim import ScenarioConfig
from pitchlab.vdn import (
    LearnerConfig,
    ReplayBuffer,
    Transition,
    VDNLearner,
    batch_from_transitions,
)

DESK_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "configs", "desk_2v3.yaml")


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- shared oracles --------------------------------------------------------------

def random_chain(m, n, rng, min_leak=0.05):
    shot = rng.uniform(min_leak / 2, 0.4, (m, n))
    turnover = rng.uniform(min_leak / 2, 0.3, (m, n))
    score = rng.uniform(0.0, 1.0, (m, n))
    w = rng.uniform(0.01, 1.0, (m, n, 5))
    w[m - 1, :, epv.XP] = 0.0
    w[0, :, epv.XM] = 0.0
    w[:, n - 1, epv.YP] = 0.0
    w[:, 0, epv.YM] = 0.0
    w /= w.sum(axis=2, keepdims=True)
    move = w * (1.0 - shot - turnover)[..., None]
    return epv.PossessionChain(move=move, shot=shot, score=score,
                               turnover=turnover)


def linear_solve(chain):
    m, n = chain.shape
    N = m * n
    A = np.eye(N)
    for i in range(m):
        for j in range(n):
            r = i * n + j
            A[r, r] -= chain.move[i, j, epv.SELF]
            if i + 1 < m:
                A[r, (i + 1) * n + j] -= chain.move[i, j, epv.XP]
            if i - 1 >= 0:
                A[r, (i - 1) * n + j] -= chain.move[i, j, epv.XM]
            if j + 1 < n:
                A[r, i * n + (j + 1)] -= chain.move[i, j, epv.YP]
            if j - 1 >= 0:
                A[r, i * n + (j - 1)] -= chain.move[i, j, epv.YM]
    b = (chain.shot * chain.score).ravel()
    return np.linalg.solve(A, b).reshape(m, n)


def mc_goal_probability(chain, start_flat, n_rollouts, rng):
    """Monte Carlo estimate of scoring probability from one start cell."""
    m, n = chain.shape
    N = m * n
    probs = np.zeros((N, 7))
    probs[:, :5] = chain.move.reshape(N, 5)
    shot_goal = (chain.shot * chain.score).ravel()
    probs[:, 5] = shot_goal
    probs[:, 6] = chain.shot.ravel() - shot_goal
    cum = np.cumsum(probs, axis=1)
    deltas = np.array([0, n, -n, 1, -1], dtype=np.int64)
    cells = np.full(n_rollouts, start_flat, dtype=np.int64)
    goals = 0
    for _ in range(100_000):
        if len(cells) == 0:
            break
        u = rng.random(len(cells))
        cat = (u[:, None] > cum[cells]).sum(axis=1)  # 7 means turnover
        goals += int(np.sum(cat == 5))
        moving = cat < 5
        cells = cells[moving] + deltas[cat[moving]]
    return goals / n_rollouts


# -- 1: aggregation against the brute-force double sum -------------------------------

def test_criterion_1_state_value_aggregation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 65))
        field = rng.uniform(0.0, 1.0, (m, n))
        grid = rng.uniform(0.0, 1.0, (m, n))
        got = epv.game_state_epv(field, grid)
        oracle = 0.0
        for i in range(m):
            for j in range(n):
                oracle += field[i, j] * grid[i, j]
        rel = abs(got - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(capsys, 1, "state value vs brute-force sum", ok,
           f"100 random fields up to 64x64, max rel err {worst:.2e} "
           f"(tol 1e-12), {elapsed:.2f} s (limit 1 s)")


# -- 2: pass-model fit recovery and analytic gradient --------------------------------

def test_criterion_2_pass_model_mle(capsys):
    t0 = time.perf_counter()
    true = pc.PassModelParams(sigma=0.45, lam=0.2)
    x, k = pc.sample_pass_events(true, 10_000, np.random.default_rng(202))
    fitted = pc.fit_pass_model(x, k)
    sig_err = abs(fitted.sigma - 0.45) / 0.45
    lam_err = abs(fitted.lam - 0.2) / 0.2
    grad_err = 0.0
    h = 1e-6
    for p in (fitted, true, pc.PassModelParams(sigma=0.8, lam=-0.1)):
        g = pc.log_likelihood_grad(p, x, k)
        fd = np.array([
            (pc.log_likelihood(pc.PassModelParams(p.sigma + h, p.lam), x, k)
             - pc.log_likelihood(pc.PassModelParams(p.sigma - h, p.lam), x, k))
            / (2 * h),
            (pc.log_likelihood(pc.PassModelParams(p.sigma, p.lam + h), x, k)
             - pc.log_likelihood(pc.PassModelParams(p.sigma, p.lam - h), x, k))
            / (2 * h),
        ])
        rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
        grad_err = max(grad_err, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = sig_err <= 0.10 and lam_err <= 0.10 and grad_err <= 1e-6 \
        and elapsed < 10.0
    report(capsys, 2, "pass-model MLE", ok,
           f"10k events: sigma {fitted.sigma:.4f} (err {sig_err:.1%}), "
           f"lambda {fitted.lam:.4f} (err {lam_err:.1%}), both within 10%; "
           f"max grad-vs-FD rel err {grad_err:.2e} (tol 1e-6); "
           f"{elapsed:.2f} s (limit 10 s)")


# -- 3: value iteration vs linear solve and Monte Carlo --------------------------------

def test_criterion_3_epv_solver(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    solve_err = 0.0
    for _ in range(10):
        chain = random_chain(4, 4, rng)
        V = epv.solve_epv(chain, tol=1e-12)
        solve_err = max(solve_err, float(np.abs(V - linear_solve(chain)).max()))
    chain3 = random_chain(3, 3, np.random.default_rng(31))
    V3 = epv.solve_epv(chain3, tol=1e-12)
    start = 4  # centre cell of the 3x3 grid
    est = mc_goal_probability(chain3, start, 1_000_000,
                              np.random.default_rng(7))
    mc_err = abs(est - float(V3.ravel()[start]))
    elapsed = time.perf_counter() - t0
    ok = solve_err <= 1e-8 and mc_err <= 1e-2 and elapsed < 60.0
    report(capsys, 3, "value iteration vs oracles", ok,
           f"10 random 4x4 chains vs linear solve: max abs err "
           f"{solve_err:.2e} (tol 1e-8); 3x3 Monte Carlo, 1e6 rollouts: "
           f"abs err {mc_err:.2e} (tol 1e-2); {elapsed:.1f} s (limit 60 s)")


# -- 4: control-field invariants ---------------------------------------------------------

def test_criterion_4_control_field_invariants(capsys):
    t0 = time.perf_counter()
    params = pc.PassModelParams(sigma=0.45, lam=0.0)
    rng = np.random.default_rng(404)
    sc = ScenarioConfig(n_defenders=3, n_attackers=4)
    pitch = sc.pitch
    centers = pitch.cell_centers
    range_ok = complement_ok = True
    mono_viol = 0
    for trial in range(1000):
        st = sim.reset(sc, trial)
        st.positions[:] = rng.uniform((0, 0), (pitch.length, pitch.width),
                                      st.positions.shape)
        att = pc.compute_control_field(st, params)
        if trial % 10 == 0:
            if not (np.all(att >= 0.0) and np.all(att <= 1.0)):
                range_ok = False
            deff = pc.defending_control_field(st, params)
            if not np.array_equal(deff, 1.0 - att):
                complement_ok = False
        # pull one attacker 20% closer to a random cell: attacking control
        # at that cell must not drop
        cell = int(rng.integers(len(centers)))
        i, j = cell // pitch.grid_n, cell % pitch.grid_n
        before = att[i, j]
        mover = int(rng.integers(sc.n_defenders + 1, sc.n_players))
        st.positions[mover] += 0.2 * (centers[cell] - st.positions[mover])
        after = pc.compute_control_field(st, params)[i, j]
        if after < before - 1e-15:
            mono_viol += 1
    # mirrored duel: equally fast, equidistant players leave the cell contested
    st = sim.reset(ScenarioConfig(n_defenders=1, n_attackers=1), 0)
    cell = st.scenario.pitch.cell_centers[16 * st.scenario.pitch.grid_n + 10]
    st.positions[0] = cell + np.array([7.0, 0.0])
    st.positions[st.gk_index] = st.scenario.pitch.goal_center
    st.positions[int(st.attacker_indices[0])] = cell - np.array([7.0, 0.0])
    st.max_speeds[:] = 8.0
    st.reaction_times[:] = 0.5
    duel = pc.compute_control_field(st, params)
    sym_err = abs(float(duel[16, 10]) - 0.5)
    elapsed = time.perf_counter() - t0
    ok = range_ok and complement_ok and mono_viol == 0 and sym_err <= 1e-12 \
        and elapsed < 5.0
    report(capsys, 4, "control-field invariants", ok,
           f"1000 random configurations: values in [0,1] {range_ok}, "
           f"defending complement exact {complement_ok}, "
           f"{mono_viol} approach-monotonicity violations; symmetric duel "
           f"off 0.5 by {sym_err:.2e} (tol 1e-12); {elapsed:.1f} s (limit 5 s)")


# -- 5: value decomposition and TD gradients ----------------------------------------------

def test_criterion_5_decomposition_and_gradients(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    additive_ok = True
    argmax_ok = True
    cfg = LearnerConfig(n_agents=3, obs_dim=4, n_actions=4, hidden=(6,))
    for trial in range(30):
        learner = VDNLearner(cfg, seed=trial)
        obs = rng.normal(size=(3, 4))
        q = learner.q_values(obs)
        actions = rng.integers(0, 4, size=3)
        total = 0.0
        for a in range(3):
            total += float(q[a, actions[a]])
        if learner.chosen_joint_q(obs, actions) != total:
            additive_ok = False
        best = max(itertools.product(range(4), repeat=3),
                   key=lambda joint: learner.chosen_joint_q(obs, np.array(joint)))
        if tuple(learner.greedy_actions(obs)) != best:
            argmax_ok = False

    gcfg = LearnerConfig(n_agents=2, obs_dim=4, n_actions=3, hidden=(5,))
    glearner = VDNLearner(gcfg, seed=50)
    batch = batch_from_transitions([
        Transition(obs=rng.normal(size=(2, 4)),
                   actions=rng.integers(0, 3, size=2),
                   reward=float(rng.normal()),
                   next_obs=rng.normal(size=(2, 4)),
                   terminal=bool(t % 3 == 0))
        for t in range(6)
    ])
    _, grads = glearner.td_grads(batch)
    h = 1e-6
    grad_err = 0.0
    for a in range(2):
        for arrs, garrs in ((glearner.agents[a].weights, grads[a].weights),
                            (glearner.agents[a].biases, grads[a].biases)):
            for arr, garr in zip(arrs, garrs):
                flat, gflat = arr.reshape(-1), garr.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = glearner.td_loss(batch)
                    flat[i] = keep - h
                    down = glearner.td_loss(batch)
                    flat[i] = keep
                    fd = (up - down) / (2 * h)
                    rel = abs(gflat[i] - fd) / max(1.0, abs(fd))
                    grad_err = max(grad_err, rel)
    elapsed = time.perf_counter() - t0
    ok = additive_ok and argmax_ok and grad_err <= 1e-4 and elapsed < 30.0
    report(capsys, 5, "value decomposition and TD gradients", ok,
           f"30 cases, 3 agents x 4 actions: additivity exact {additive_ok}, "
           f"per-agent argmax == joint enumeration {argmax_ok}; TD gradient "
           f"vs FD max rel err {grad_err:.2e} (tol 1e-4) over every "
           f"parameter; {elapsed:.1f} s (limit 30 s)")


# -- 6: cooperative matrix game ---------------------------------------------------------

def test_criterion_6_matrix_game(capsys):
    t0 = time.perf_counter()
    r0 = np.array([0.0, 0.7, 0.2])
    r1 = np.array([0.1, 0.0, 0.9])
    optimal = (int(np.argmax(r0)), int(np.argmax(r1)))
    solved = []
    values = []
    for seed in range(1, 6):
        cfg = LearnerConfig(n_agents=2, obs_dim=1, n_actions=3, hidden=(16,),
                            lr=5e-3, gamma=0.99)
        learner = VDNLearner(cfg, seed)
        rng = np.random.default_rng(1000 + seed)
        buf = ReplayBuffer(4096, 2, 1)
        obs = np.ones((2, 1))
        updates = 0
        while updates < 5000:
            eps = max(0.05, 1.0 - updates / 1000.0)
            acts = learner.select_actions(obs, eps, rng)
            reward = float(r0[acts[0]] + r1[acts[1]])
            buf.add(obs, acts, reward, obs, True)
            if len(buf) >= 32:
                learner.td_update(buf.sample(32, rng))
                updates += 1
                if updates % 100 == 0:
                    learner.sync_target()
        greedy = learner.greedy_actions(obs)
        solved.append(tuple(greedy) == optimal)
        values.append(float(learner.chosen_joint_q(obs, greedy)))
    elapsed = time.perf_counter() - t0
    ok = all(solved) and elapsed < 60.0
    report(capsys, 6, "two-agent additive matrix game", ok,
           f"greedy joint action optimal on {sum(solved)}/5 seeds within "
           f"5000 updates; learned joint values "
           f"{[round(v, 3) for v in values]} vs payoff 1.6; "
           f"{elapsed:.1f} s (limit 60 s)")


# -- 7: shaped training beats the sparse baseline -----------------------------------------

def final_evals(run_dir, seeds):
    out = {}
    for s in seeds:
        rows = trainer.load_metrics(
            os.path.join(run_dir, f"seed-{s}", "metrics.jsonl"))
        out[s] = {r["difficulty"]: r["mean_goal_difference"]
                  for r in rows if r["kind"] == "eval" and r["final"]}
    return out


def test_criterion_7_shaping_beats_baseline(capsys, tmp_path):
    t0 = time.perf_counter()
    shaped_cfg = cli.load_experiment(DESK_CONFIG)
    base_cfg = cli.load_experiment(DESK_CONFIG, baseline=True)
    assert shaped_cfg.reward.weight != 0.0 and base_cfg.reward.weight == 0.0
    # the two runs are independent and deterministic, so they train side by
    # side in two processes; each run's seeds stay in its own process
    with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        shaped_run = pool.submit(trainer.run_training, shaped_cfg,
                                 str(tmp_path / "shaped"))
        base_run = pool.submit(trainer.run_training, base_cfg,
                               str(tmp_path / "baseline"))
        shaped_dir, base_dir = shaped_run.result(), base_run.result()
    seeds = shaped_cfg.seeds
    shaped = final_evals(shaped_dir, seeds)
    base = final_evals(base_dir, seeds)

    hard = 0.95
    paired_wins = sum(shaped[s][hard] >= base[s][hard] for s in seeds)
    agg = {}
    agg_ok = True
    for diff in shaped_cfg.eval_difficulties:
        ms = float(np.mean([shaped[s][diff] for s in seeds]))
        mb = float(np.mean([base[s][diff] for s in seeds]))
        agg[diff] = (ms, mb)
        agg_ok = agg_ok and ms >= mb
    elapsed = time.perf_counter() - t0
    ok = agg_ok and paired_wins >= 2
    agg_txt = ", ".join(f"{d}: {ms:+.3f} vs {mb:+.3f}"
                        for d, (ms, mb) in agg.items())
    report(capsys, 7, "shaped training vs sparse baseline", ok,
           f"2v3 at 0.95, 200k steps x 3 seeds, shaped vs baseline mean "
           f"goal difference by difficulty [{agg_txt}]; paired wins at "
           f"{hard}: {paired_wins}/3 (need 2); {elapsed / 60:.1f} min "
           f"(30 min target, informational)")


# -- 8: byte-identical reruns --------------------------------------------------------------

def test_criterion_8_reproducible_logs(capsys, tmp_path):
    t0 = time.perf_counter()
    doc = cli.load_config_dict(DESK_CONFIG)
    doc["train"]["total_steps"] = 20_000
    doc["eval_every"] = 10_000
    doc["seeds"] = [1]
    cfg = trainer.ExperimentConfig.from_dict(doc)
    d1 = trainer.run_training(cfg, str(tmp_path / "a"), jobs=1)
    d2 = trainer.run_training(cfg, str(tmp_path / "b"), jobs=1)
    with open(os.path.join(d1, "seed-1", "metrics.jsonl"), "rb") as f:
        bytes1 = f.read()
    with open(os.path.join(d2, "seed-1", "metrics.jsonl"), "rb") as f:
        bytes2 = f.read()
    elapsed = time.perf_counter() - t0
    ok = bytes1 == bytes2 and len(bytes1) > 0 and elapsed < 180.0
    report(capsys, 8, "byte-identical metrics logs", ok,
           f"two single-threaded 20k-step runs: {len(bytes1)} bytes, "
           f"identical {bytes1 == bytes2}; {elapsed:.1f} s (limit 180 s)")


# -- 9: exact persistence round trips --------------------------------------------------------

def test_criterion_9_persistence_round_trips(capsys, tmp_path):
    pitch = sim.PitchSpec()
    values = epv.solve_epv(epv.default_chain(pitch))
    grid_path = tmp_path / "grid.json"
    epv.save_epv_grid(str(grid_path), values, pitch)
    loaded, geom = epv.load_epv_grid(str(grid_path))
    grid_ok = np.array_equal(loaded, values) and geom["length"] == pitch.length

    cfg = cli.load_experiment(DESK_CONFIG)
    obs_dim = sim.observation_length(cfg.scenario)
    lcfg = cfg.train.learner_config(cfg.scenario.n_defenders, obs_dim,
                                    sim.N_ACTIONS)
    learner = VDNLearner(lcfg, seed=9)
    rng = np.random.default_rng(90)
    batch = [Transition(obs=rng.normal(size=(2, obs_dim)),
                        actions=rng.integers(0, sim.N_ACTIONS, size=2),
                        reward=float(rng.normal()),
                        next_obs=rng.normal(size=(2, obs_dim)),
                        terminal=bool(t % 4 == 0))
             for t in range(16)]
    for _ in range(50):
        learner.td_update(batch)
    ckpt_path = tmp_path / "ckpt.json"
    learner.save(str(ckpt_path))
    reloaded = VDNLearner.load(str(ckpt_path))
    params_ok = all(
        np.array_equal(wa, wb)
        for na, nb in zip(learner.agents + learner.targets,
                          reloaded.agents + reloaded.targets)
        for wa, wb in zip((*na.weights, *na.biases),
                          (*nb.weights, *nb.biases)))
    step_ok = reloaded.train_step == learner.train_step

    mean_a, recs_a = trainer.evaluate(learner, cfg, 0.95, 6, seed=77)
    mean_b, recs_b = trainer.evaluate(reloaded, cfg, 0.95, 6, seed=77)
    eval_ok = mean_a == mean_b and recs_a == recs_b

    ok = grid_ok and params_ok and step_ok and eval_ok
    report(capsys, 9, "persistence round trips", ok,
           f"value grid bit-exact {grid_ok}; checkpoint parameters bit-exact "
           f"{params_ok} (train step preserved {step_ok}); reloaded "
           f"checkpoint reproduces evaluation episode-for-episode {eval_ok} "
           f"(mean goal difference {mean_a:+.4f})")
