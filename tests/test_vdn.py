import base64
import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest

from pitchlab import vdn
from pitchlab.sim import N_ACTIONS, ConfigError, config_to_dict
from pitchlab.vdn import (
    EPSILON_END,
    EPSILON_START,
    CheckpointFormatError,
    DivergenceError,
    LearnerConfig,
    QNetwork,
    ReplayBuffer,
    ShapeMismatchError,
    TrainConfig,
    Transition,
    VDNLearner,
    batch_from_transitions,
    init_mlp,
    joint_q,
    mlp_forward,
)


def tiny_config(n_agents=2, obs_dim=3, n_actions=4, hidden=(5,)):
    return LearnerConfig(n_agents=n_agents, obs_dim=obs_dim,
                         n_actions=n_actions, hidden=hidden)


def zero_params(learner):
    for net in (*learner.agents, *learner.targets):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0


def random_batch(cfg, rng, size=4, terminal_frac=0.25):
    ts = []
    for i in range(size):
        ts.append(Transition(
            obs=rng.normal(size=(cfg.n_agents, cfg.obs_dim)),
            actions=rng.integers(0, cfg.n_actions, size=cfg.n_agents),
            reward=float(rng.normal()),
            next_obs=rng.normal(size=(cfg.n_agents, cfg.obs_dim)),
            terminal=bool(rng.random() < terminal_frac),
        ))
    return batch_from_transitions(ts)


# -- joint value ----------------------------------------------------------------

def test_joint_q_example():
    # exact: 0.2 - 0.1 + 0.4 + 0.0 accumulated left to right lands on 0.5
    assert joint_q([0.2, -0.1, 0.4, 0.0]) == 0.5


def test_joint_q_is_sequential_sum():
    rng = np.random.default_rng(7)
    vals = list(rng.normal(size=9))
    acc = 0.0
    for v in vals:
        acc += v
    assert joint_q(vals) == acc


def test_chosen_joint_q_matches_manual_sum():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=3)
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(cfg.n_agents, cfg.obs_dim))
    actions = np.array([2, 1])
    q = learner.q_values(obs)
    acc = 0.0
    for a in range(cfg.n_agents):
        acc += float(q[a, actions[a]])
    assert learner.chosen_joint_q(obs, actions) == acc


def test_greedy_decomposition_matches_joint_enumeration():
    cfg = tiny_config(n_agents=3, obs_dim=4, n_actions=3)
    rng = np.random.default_rng(11)
    for trial in range(20):
        learner = VDNLearner(cfg, seed=trial)
        obs = rng.normal(size=(cfg.n_agents, cfg.obs_dim))
        best_joint = None
        best_val = -np.inf
        for joint in itertools.product(range(cfg.n_actions),
                                       repeat=cfg.n_agents):
            v = learner.chosen_joint_q(obs, np.array(joint))
            if v > best_val:
                best_val = v
                best_joint = joint
        greedy = learner.greedy_actions(obs)
        assert tuple(greedy) == best_joint
        assert learner.chosen_joint_q(obs, greedy) == best_val


# -- forward pass -----------------------------------------------------------------

def test_forward_output_width():
    cfg = tiny_config(n_actions=10)
    learner = VDNLearner(cfg, seed=0)
    q = learner.q_values(np.zeros((cfg.n_agents, cfg.obs_dim)))
    assert q.shape == (cfg.n_agents, 10)


def test_forward_zero_network_outputs_zero():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=0)
    zero_params(learner)
    q = learner.q_values(np.ones((cfg.n_agents, cfg.obs_dim)))
    assert np.array_equal(q, np.zeros_like(q))


def test_forward_batch_matches_single_rows():
    net = init_mlp([4, 6, 3], np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 4))
    batched = mlp_forward(net, x)
    rows = np.stack([mlp_forward(net, x[i]) for i in range(8)])
    assert np.allclose(batched, rows, rtol=0, atol=1e-12)


def test_forward_rejects_wrong_width():
    net = init_mlp([4, 6, 3], np.random.default_rng(2))
    with pytest.raises(ShapeMismatchError):
        mlp_forward(net, np.zeros(5))


def test_stacked_forward_takes_a_shared_batch_but_not_a_single_row():
    cfg = tiny_config(n_agents=3, obs_dim=4)
    learner = VDNLearner(cfg, seed=0)
    x = np.random.default_rng(1).normal(size=(5, cfg.obs_dim))
    q = mlp_forward(learner.online, x)
    assert q.shape == (3, 5, cfg.n_actions)
    assert q.tobytes() == mlp_forward(learner.online, np.stack([x] * 3)).tobytes()
    # a stacked net must not hand back agent 0's values for one row
    with pytest.raises(ShapeMismatchError):
        mlp_forward(learner.online, np.zeros(cfg.obs_dim))
    # and a plain net takes no agent axis
    with pytest.raises(ShapeMismatchError):
        mlp_forward(learner.online[0], np.zeros((1, 2, cfg.obs_dim)))


def test_q_values_rejects_wrong_agent_count():
    cfg = tiny_config(n_agents=2)
    learner = VDNLearner(cfg, seed=0)
    with pytest.raises(ShapeMismatchError):
        learner.q_values(np.zeros((3, cfg.obs_dim)))


def test_softplus_positive_and_smooth_at_zero():
    z = np.array([-40.0, -1.0, 0.0, 1.0, 40.0])
    s = vdn.softplus(z)
    assert np.all(s > 0)
    assert s[2] == pytest.approx(np.log(2.0), abs=1e-15)
    assert s[4] == pytest.approx(40.0, abs=1e-12)


def test_softplus_matches_logaddexp_to_a_few_ulps():
    rng = np.random.default_rng(13)
    for scale in (0.1, 1.0, 10.0, 100.0, 800.0):
        z = rng.normal(scale=scale, size=200_000)
        z = z[np.abs(z) <= 700.0]
        np.testing.assert_allclose(vdn.softplus(z), np.logaddexp(0.0, z),
                                   rtol=1e-15, atol=0)


def test_softplus_special_values():
    s = vdn.softplus(np.array([-np.inf, np.inf, np.nan]))
    assert s[0] == 0.0 and s[1] == np.inf and np.isnan(s[2])
    for zero in (0.0, -0.0):
        assert abs(vdn.softplus(np.array([zero]))[0] - np.log(2.0)) <= 1e-15


def test_softplus_raises_no_warning_at_large_magnitudes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = vdn.softplus(np.array([-800.0, 800.0]))
    assert s[0] == 0.0 and s[1] == 800.0


def test_init_respects_fan_in_bounds():
    net = init_mlp([9, 4, 3], np.random.default_rng(5))
    assert net.weights[0].shape == (9, 4)
    assert net.weights[1].shape == (4, 3)
    for layer, fan_in in ((0, 9), (1, 4)):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(net.weights[layer]) <= bound)
        assert np.all(np.abs(net.biases[layer]) <= bound)
    # not degenerate
    assert np.std(net.weights[0]) > 0


# -- TD learning ------------------------------------------------------------------

def test_td_target_example():
    # zero online nets make the prediction 0, so the loss exposes the target:
    # y = r + gamma * sum of per-agent target maxes = 0.5 + 0.9 * 1.0 = 1.40
    cfg = LearnerConfig(n_agents=2, obs_dim=3, n_actions=2, hidden=(5,),
                        gamma=0.9)
    learner = VDNLearner(cfg, seed=0)
    zero_params(learner)
    learner.targets[0].biases[-1][:] = [0.25, -1.0]
    learner.targets[1].biases[-1][:] = [0.75, -2.0]
    batch = [Transition(obs=np.zeros((2, 3)), actions=np.array([0, 0]),
                        reward=0.5, next_obs=np.zeros((2, 3)),
                        terminal=False)]
    loss = learner.td_loss(batch)
    assert loss == (0.5 + 0.9 * 1.0) ** 2
    assert abs(np.sqrt(loss) - 1.4) < 1e-12


def test_td_terminal_drops_bootstrap():
    cfg = tiny_config(n_agents=2, obs_dim=3, n_actions=2)
    learner = VDNLearner(cfg, seed=0)
    zero_params(learner)
    learner.targets[0].biases[-1][:] = [5.0, 0.0]
    learner.targets[1].biases[-1][:] = [5.0, 0.0]
    batch = [Transition(obs=np.zeros((2, 3)), actions=np.array([0, 0]),
                        reward=-1.0, next_obs=np.zeros((2, 3)),
                        terminal=True)]
    assert learner.td_loss(batch) == 1.0


def test_td_grads_match_finite_differences():
    cfg = tiny_config(n_agents=2, obs_dim=3, n_actions=3, hidden=(4,))
    learner = VDNLearner(cfg, seed=9)
    batch = random_batch(cfg, np.random.default_rng(1), size=5)
    _, grads = learner.td_grads(batch)
    h = 1e-6
    for a in range(cfg.n_agents):
        for arrs, garrs in ((learner.agents[a].weights, grads[a].weights),
                            (learner.agents[a].biases, grads[a].biases)):
            for arr, garr in zip(arrs, garrs):
                flat = arr.reshape(-1)
                gflat = garr.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = learner.td_loss(batch)
                    flat[i] = keep - h
                    down = learner.td_loss(batch)
                    flat[i] = keep
                    fd = (up - down) / (2 * h)
                    assert abs(gflat[i] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_td_update_descends_on_fixed_batch():
    cfg = tiny_config(n_agents=2, obs_dim=4, n_actions=3)
    learner = VDNLearner(cfg, seed=4)
    batch = random_batch(cfg, np.random.default_rng(2), size=8)
    first = learner.td_loss(batch)
    for _ in range(50):
        learner.td_update(batch)
    assert learner.td_loss(batch) < first


def test_td_update_applies_plain_sgd_below_clip():
    cfg = tiny_config(n_agents=1, obs_dim=2, n_actions=2, hidden=(3,))
    learner = VDNLearner(cfg, seed=6)
    batch = [Transition(obs=np.full((1, 2), 0.1), actions=np.array([1]),
                        reward=0.01, next_obs=np.zeros((1, 2)),
                        terminal=True)]
    _, grads = learner.td_grads(batch)
    norm = np.sqrt(sum(float(np.sum(a * a))
                       for g in grads for a in (*g.weights, *g.biases)))
    assert norm < cfg.grad_clip
    before = [w.copy() for w in learner.agents[0].weights]
    learner.td_update(batch)
    for w0, w1, gw in zip(before, learner.agents[0].weights, grads[0].weights):
        assert np.allclose(w1, w0 - cfg.lr * gw, rtol=0, atol=1e-15)


def test_td_update_clips_global_gradient_norm():
    cfg = tiny_config(n_agents=1, obs_dim=2, n_actions=2, hidden=(3,))
    learner = VDNLearner(cfg, seed=6)
    # an absurd reward blows the raw gradient past the clip threshold
    batch = [Transition(obs=np.ones((1, 2)), actions=np.array([0]),
                        reward=1e6, next_obs=np.zeros((1, 2)),
                        terminal=True)]
    _, grads = learner.td_grads(batch)
    norm = np.sqrt(sum(float(np.sum(a * a))
                       for g in grads for a in (*g.weights, *g.biases)))
    assert norm > cfg.grad_clip
    before = [w.copy() for w in learner.agents[0].weights]
    learner.td_update(batch)
    scale = cfg.grad_clip / norm
    for w0, w1, gw in zip(before, learner.agents[0].weights, grads[0].weights):
        assert np.allclose(w1, w0 - cfg.lr * scale * gw, rtol=1e-12, atol=0)


def test_train_step_counter_advances():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=0)
    batch = random_batch(cfg, np.random.default_rng(0), size=2)
    assert learner.train_step == 0
    learner.td_update(batch)
    learner.td_update(batch)
    assert learner.train_step == 2


@pytest.mark.parametrize("what", ["inf-loss", "nan-loss", "inf-norm"])
def test_td_update_stops_on_a_non_finite_loss_or_norm(monkeypatch, what):
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=3)
    batch = random_batch(cfg, np.random.default_rng(4))
    learner.td_update(batch)
    if what == "inf-norm":
        monkeypatch.setattr(vdn, "grad_norm", lambda grads: float("inf"))
    else:
        batch.rewards[1] = np.inf if what == "inf-loss" else np.nan
    before = learner.online.copy()
    with pytest.raises(DivergenceError, match=r"^td_update 2: loss .*, "
                                              r"gradient norm "), \
            np.errstate(invalid="ignore"):
        learner.td_update(batch)
    assert learner.train_step == 1
    assert nets_equal([learner.online], [before])


# -- stacked networks against a per-agent reference -------------------------------

class PerAgentReference:
    """The learner written as a loop over agents, one init_mlp network
    each, drawn from the generator in the same order as VDNLearner."""

    def __init__(self, cfg, seed):
        sizes = [cfg.obs_dim, *cfg.hidden, cfg.n_actions]
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.agents = [init_mlp(sizes, rng) for _ in range(cfg.n_agents)]
        self.targets = [p.copy() for p in self.agents]

    def q_values(self, obs):
        return np.stack([mlp_forward(p, obs[a])
                         for a, p in enumerate(self.agents)])

    @staticmethod
    def backward(net, cache, dout):
        last = len(net.weights) - 1
        gw, gb = [None] * (last + 1), [None] * (last + 1)
        grad = dout
        for li in range(last, -1, -1):
            h_in, z = cache[li]
            if li != last:
                grad = grad * vdn._sigmoid(z)
            gw[li] = h_in.T @ grad
            gb[li] = grad.sum(axis=0)
            if li > 0:
                grad = grad @ net.weights[li].T
        return QNetwork(gw, gb)

    def td_grads(self, batch):
        B = batch.obs.shape[0]
        pred, next_max, caches = np.zeros(B), np.zeros(B), []
        for a, p in enumerate(self.agents):
            cache = []
            q = mlp_forward(p, batch.obs[:, a, :], cache)
            pred += q[np.arange(B), batch.actions[:, a]]
            caches.append(cache)
        for a, p in enumerate(self.targets):
            next_max += mlp_forward(p, batch.next_obs[:, a, :]).max(axis=1)
        y = batch.rewards + self.cfg.gamma * (1.0 - batch.terminals) * next_max
        err = pred - y
        grads = []
        for a, p in enumerate(self.agents):
            dq = np.zeros((B, self.cfg.n_actions))
            dq[np.arange(B), batch.actions[:, a]] = 2.0 * err / B
            grads.append(self.backward(p, caches[a], dq))
        return float(np.mean(err ** 2)), grads

    def td_update(self, batch):
        loss, grads = self.td_grads(batch)
        sq = 0.0
        for g in grads:
            for arr in (*g.weights, *g.biases):
                sq += float(np.sum(arr * arr))
        norm = np.sqrt(sq)
        scale = self.cfg.grad_clip / norm if norm > self.cfg.grad_clip else 1.0
        for p, g in zip(self.agents, grads):
            for w, gw in zip(p.weights, g.weights):
                w -= self.cfg.lr * scale * gw
            for b, gb in zip(p.biases, g.biases):
                b -= self.cfg.lr * scale * gb
        return loss, norm

    def sync_target(self):
        self.targets = [p.copy() for p in self.agents]


def assert_nets_identical(nets_a, nets_b):
    assert len(nets_a) == len(nets_b)
    for na, nb in zip(nets_a, nets_b):
        for wa, wb in zip((*na.weights, *na.biases), (*nb.weights, *nb.biases)):
            assert wa.shape == wb.shape
            assert wa.tobytes() == wb.tobytes()


def shared_inputs(obs, batch):
    """Agent 0's rows as the training loop feeds them, a (D,) observation
    and a (B, D) batch, and the same rows tiled per agent, (A, D) and
    (B, A, D)."""
    one = dataclasses.replace(batch, obs=batch.obs[:, 0].copy(),
                              next_obs=batch.next_obs[:, 0].copy())
    tiled = dataclasses.replace(
        one, obs=np.repeat(one.obs[:, None], len(obs), axis=1),
        next_obs=np.repeat(one.next_obs[:, None], len(obs), axis=1))
    return (obs[0].copy(), one), (np.tile(obs[0], (len(obs), 1)), tiled)


LEARNER_SHAPES = {
    "small": dict(n_agents=3, obs_dim=5, n_actions=4, hidden=(6, 4)),
    "desk_2v3": dict(n_agents=2, obs_dim=34, n_actions=N_ACTIONS,
                     hidden=(64, 64)),
    "full_4v6": dict(n_agents=4, obs_dim=59, n_actions=N_ACTIONS,
                     hidden=(128, 128)),
}


@pytest.mark.parametrize("shape, shared", [
    ("small", False), ("small", True), ("desk_2v3", True), ("full_4v6", True)])
def test_stacked_learner_is_bit_identical_to_per_agent_loop(shape, shared):
    # shared: the learner reads one row per step, as training feeds it, and
    # the per-agent loop reads that row tiled to every agent
    cfg = LearnerConfig(**LEARNER_SHAPES[shape], lr=0.05, grad_clip=0.05)
    learner, ref = VDNLearner(cfg, seed=11), PerAgentReference(cfg, seed=11)
    assert_nets_identical(learner.agents, ref.agents)
    rng = np.random.default_rng(12)
    broadcast = np.broadcast_to(rng.normal(size=cfg.obs_dim),
                                (cfg.n_agents, cfg.obs_dim))
    clipped = 0
    for step in range(6):
        obs = rng.normal(size=(cfg.n_agents, cfg.obs_dim))
        batch = random_batch(cfg, rng, size=8, terminal_frac=0.3)
        if shared:
            (obs, batch), (ref_obs, ref_batch) = shared_inputs(obs, batch)
            pairs = [(obs, ref_obs)]
        else:
            ref_batch = batch
            pairs = [(obs, obs), (broadcast, broadcast)]
        for o, ref_o in pairs:
            assert learner.q_values(o).tobytes() == ref.q_values(ref_o).tobytes()
        loss, grads = learner.td_grads(batch)
        ref_loss, ref_grads = ref.td_grads(ref_batch)
        assert loss == ref_loss == learner.td_loss(batch)
        assert_nets_identical([grads[a] for a in range(cfg.n_agents)],
                              ref_grads)
        ref_loss, norm = ref.td_update(ref_batch)
        assert vdn.grad_norm(grads) == norm
        assert learner.td_update(batch) == ref_loss
        clipped += norm > cfg.grad_clip
        assert_nets_identical(learner.agents, ref.agents)
        if step == 2:
            learner.sync_target()
            ref.sync_target()
        assert_nets_identical(learner.targets, ref.targets)
    assert clipped


def test_grad_norm_matches_the_per_agent_loop_bit_for_bit():
    # the clip scale divides by this norm, so its float sum must keep the
    # per-agent loop's order: agent by agent, array by array
    cfg = LearnerConfig(n_agents=4, obs_dim=7, n_actions=5, hidden=(9, 6),
                        lr=0.01, grad_clip=1.0)
    learner = VDNLearner(cfg, seed=21)
    rng = np.random.default_rng(22)
    for _ in range(300):
        batch = random_batch(cfg, rng, size=16, terminal_frac=0.2)
        batch.rewards *= 10.0 ** rng.uniform(-3, 3)
        _, grads = learner.td_grads(batch)
        sq = 0.0
        for a in range(cfg.n_agents):
            for arr in (*grads[a].weights, *grads[a].biases):
                sq += float(np.sum(arr * arr))
        assert vdn.grad_norm(grads) == np.sqrt(sq)
        learner.td_update(batch)


# -- action selection ------------------------------------------------------------

def test_greedy_ties_break_to_lowest_index():
    cfg = tiny_config(n_agents=1, obs_dim=2, n_actions=4)
    learner = VDNLearner(cfg, seed=0)
    zero_params(learner)
    learner.agents[0].biases[-1][:] = [1.0, 1.0, 0.0, 0.0]
    acts = learner.select_actions(np.zeros((1, 2)), epsilon=0.0)
    assert acts[0] == 0


def test_epsilon_zero_never_touches_rng():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=1)
    rng = np.random.default_rng(42)
    state = rng.bit_generator.state
    obs = np.zeros((cfg.n_agents, cfg.obs_dim))
    a1 = learner.select_actions(obs, epsilon=0.0, rng=rng)
    a2 = learner.select_actions(obs, epsilon=0.0)
    assert rng.bit_generator.state == state
    assert np.array_equal(a1, a2)


def test_epsilon_positive_requires_rng():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=1)
    with pytest.raises(ConfigError):
        learner.select_actions(np.zeros((cfg.n_agents, cfg.obs_dim)), 0.5)


def test_epsilon_one_is_uniform():
    cfg = tiny_config(n_agents=1, obs_dim=2, n_actions=4, hidden=(3,))
    learner = VDNLearner(cfg, seed=2)
    rng = np.random.default_rng(123)
    obs = np.zeros((1, 2))
    n = 100_000
    counts = np.zeros(4, dtype=int)
    for _ in range(n):
        counts[learner.select_actions(obs, epsilon=1.0, rng=rng)[0]] += 1
    p = 1.0 / 4
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_greedy_is_deterministic():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=5)
    obs = np.random.default_rng(8).normal(size=(cfg.n_agents, cfg.obs_dim))
    first = learner.select_actions(obs, epsilon=0.0)
    for _ in range(5):
        assert np.array_equal(learner.select_actions(obs, epsilon=0.0), first)


# -- target network ----------------------------------------------------------------

def nets_equal(a, b):
    return all(np.array_equal(wa, wb)
               for na, nb in zip(a, b)
               for wa, wb in zip((*na.weights, *na.biases),
                                 (*nb.weights, *nb.biases)))


def test_sync_copies_and_is_idempotent():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=3)
    batch = random_batch(cfg, np.random.default_rng(4), size=4)
    learner.td_update(batch)
    assert not nets_equal(learner.agents, learner.targets)
    learner.sync_target()
    assert nets_equal(learner.agents, learner.targets)
    snap = [n.copy() for n in learner.targets]
    learner.sync_target()
    assert nets_equal(learner.targets, snap)


def test_sync_is_a_copy_not_a_view():
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=3)
    learner.sync_target()
    batch = random_batch(cfg, np.random.default_rng(4), size=4)
    learner.td_update(batch)
    # the update must not leak through to the frozen copies
    assert not nets_equal(learner.agents, learner.targets)


# -- epsilon schedule --------------------------------------------------------------

def test_epsilon_schedule_linear_anneal():
    assert (EPSILON_START, EPSILON_END) == (1.0, 0.05)
    tc = TrainConfig(total_steps=1000, learn_start=32)
    assert tc.epsilon_at(0) == 1.0
    assert tc.epsilon_at(100) == pytest.approx(0.525)
    # the same arithmetic, in the same order, as the schedule's formula
    assert tc.epsilon_at(37) == 1.0 + (37 / 200) * (0.05 - 1.0)
    assert tc.epsilon_at(200) == 0.05
    assert tc.epsilon_at(10_000) == 0.05


def test_epsilon_decay_defaults_to_fifth_of_total():
    tc = TrainConfig(total_steps=1000, learn_start=32)
    assert tc.epsilon_at(199) > EPSILON_END
    assert tc.epsilon_at(200) == EPSILON_END
    short = TrainConfig(total_steps=4, batch_size=1, learn_start=1)
    assert short.epsilon_at(0) == EPSILON_START   # decays over one step
    assert short.epsilon_at(1) == EPSILON_END


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(total_steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(buffer_capacity=8, batch_size=32)
    with pytest.raises(ConfigError):
        TrainConfig(learn_start=8, batch_size=32)
    for hidden in ((), (0, 8)):
        with pytest.raises(ConfigError, match="hidden"):
            TrainConfig(hidden=hidden)
    for grad_clip in (0.0, -1.0):
        with pytest.raises(ConfigError, match="grad_clip"):
            TrainConfig(grad_clip=grad_clip)


def test_learner_config_validation():
    with pytest.raises(ConfigError):
        LearnerConfig(n_agents=2, obs_dim=3, n_actions=1)
    with pytest.raises(ConfigError):
        LearnerConfig(n_agents=2, obs_dim=3, n_actions=4, hidden=())
    with pytest.raises(ConfigError):
        LearnerConfig(n_agents=2, obs_dim=3, n_actions=4, lr=0.0)
    with pytest.raises(ConfigError):
        LearnerConfig(n_agents=2, obs_dim=3, n_actions=4, gamma=-0.1)


# -- replay buffer ------------------------------------------------------------------

def test_buffer_fills_then_wraps():
    buf = ReplayBuffer(capacity=4, n_agents=1, obs_dim=2)
    for i in range(6):
        buf.add(np.full((1, 2), float(i)), np.array([0]), float(i),
                np.zeros((1, 2)), False)
    assert len(buf) == 4
    # slots now hold 4, 5, 2, 3: the two oldest were overwritten in place
    stored = sorted(buf.rewards.tolist())
    assert stored == [2.0, 3.0, 4.0, 5.0]


def test_buffer_sample_shapes_and_guard():
    buf = ReplayBuffer(capacity=10, n_agents=2, obs_dim=3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        buf.sample(1, rng)
    for i in range(5):
        buf.add(np.zeros((2, 3)), np.array([0, 1]), 0.0, np.zeros((2, 3)), False)
    batch = buf.sample(4, rng)
    assert batch.obs.shape == batch.next_obs.shape == (4, 3)
    assert batch.actions.shape == (4, 2)
    assert batch.rewards.shape == (4,)
    assert batch.terminals.shape == (4,)
    with pytest.raises(ValueError):
        buf.sample(6, rng)


class PerAgentBuffer:
    """The reference: every agent's observation row stored separately."""

    def __init__(self, capacity, n_agents, obs_dim):
        self.capacity, self.size, self.next = capacity, 0, 0
        self.obs = np.zeros((capacity, n_agents, obs_dim))
        self.actions = np.zeros((capacity, n_agents), dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, n_agents, obs_dim))
        self.terminals = np.zeros(capacity)

    def add(self, obs, actions, reward, next_obs, terminal):
        i = self.next
        self.obs[i], self.actions[i], self.rewards[i] = obs, actions, reward
        self.next_obs[i], self.terminals[i] = next_obs, float(terminal)
        self.next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size, rng):
        idx = rng.integers(0, self.size, size=batch_size)
        return (self.obs[idx], self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.terminals[idx])


def _shared_steps(n, n_agents, obs_dim, seed=0):
    rng = np.random.default_rng(seed)
    for t in range(n):
        yield (np.tile(rng.normal(size=obs_dim), (n_agents, 1)),
               rng.integers(0, 5, size=n_agents), float(rng.normal()),
               np.tile(rng.normal(size=obs_dim), (n_agents, 1)), t % 7 == 6)


def _chained_steps(n, n_agents, obs_dim, seed=0):
    """Episodes as `trainer.rollout` hands them over: step t + 1 starts from
    the very array step t ended in, with a terminal every few steps.  About
    one step in ten breaks the chain without a terminal: it starts from a
    fresh frame, or from the previous frame with a 0.0 flipped to -0.0
    (equal as numbers, not as bits)."""
    rng = np.random.default_rng(seed)

    def frame():
        row = rng.normal(size=obs_dim)
        row[0] = 0.0
        return np.tile(row, (n_agents, 1))

    obs = frame()
    for _ in range(n):
        nxt = frame()
        terminal = bool(rng.random() < 0.2)
        yield obs, rng.integers(0, 5, size=n_agents), float(rng.normal()), \
            nxt, terminal
        obs = frame() if terminal else nxt
        if rng.random() < 0.1:
            if rng.random() < 0.5:
                obs = frame()
            else:
                obs = obs.copy()
                obs[:, 0] = -0.0


def _assert_same_samples(buf, ref, seed, batch_sizes):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for batch_size in batch_sizes:
        batch = buf.sample(batch_size, rng)
        expected = ref.sample(batch_size, ref_rng)
        for got, want in zip((batch.obs, batch.actions, batch.rewards,
                              batch.next_obs, batch.terminals), expected):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            # an observation comes out as one (B, obs_dim) row, which every
            # agent's row of the reference equals
            rows = ([want[:, a] for a in range(want.shape[1])]
                    if want.ndim == 3 else [want])
            for row in rows:
                assert got.shape == row.shape
                assert got.tobytes() == row.tobytes()


def test_buffer_samples_equal_a_per_agent_buffer_after_wrap():
    buf, ref = ReplayBuffer(50, 4, 6), PerAgentBuffer(50, 4, 6)
    for step in _shared_steps(137, 4, 6):
        buf.add(*step)
        ref.add(*step)
    assert len(buf) == ref.size == 50
    # the one stored row is the row every agent saw
    assert np.array_equal(buf.obs, ref.obs[:, 0])
    _assert_same_samples(buf, ref, 3, (1, 32, 50))


@pytest.mark.parametrize("capacity", [1, 2, 7, 50])
def test_buffer_linked_rows_sample_as_a_per_agent_buffer(capacity):
    buf = ReplayBuffer(capacity, 3, 5)
    ref = PerAgentBuffer(capacity, 3, 5)
    for t, step in enumerate(_chained_steps(8 * capacity + 40, 3, 5)):
        buf.add(*step)
        ref.add(*step)
        assert len(buf) == ref.size
        _assert_same_samples(buf, ref, t, (1, len(buf)))


def test_buffer_one_row_add_stores_and_links_as_its_tiled_add():
    one, tiled = ReplayBuffer(7, 3, 5), ReplayBuffer(7, 3, 5)
    for obs, actions, reward, next_obs, terminal in _chained_steps(60, 3, 5):
        one.add(obs[0], actions, reward, next_obs[0], terminal)
        tiled.add(obs, actions, reward, next_obs, terminal)
        assert len(one) == len(tiled)
        for name in ("obs", "actions", "rewards", "terminals"):
            assert getattr(one, name).tobytes() == getattr(tiled, name).tobytes()
        assert one._side == tiled._side
    assert 0 < len(one._side) < 7
    got, want = (buf.sample(7, np.random.default_rng(4)) for buf in (one, tiled))
    for field in dataclasses.fields(got):
        name = field.name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_buffer_keeps_a_side_frame_only_where_a_row_does_not_link():
    buf = ReplayBuffer(50, 2, 4)
    steps = list(_chained_steps(200, 2, 4, seed=5))
    for step in steps:
        buf.add(*step)
    kept = steps[-50:]
    unlinked = [i for i, (step, after) in enumerate(zip(kept, kept[1:]))
                if after[0].tobytes() != step[3].tobytes()]
    assert 0 < len(unlinked) < 25
    # the buffer wrapped to row 0 four times: step k of `kept` sits in row k
    assert sorted(buf._side) == [*unlinked, 49]


def test_buffer_add_rejects_differing_agent_rows():
    buf, ref = ReplayBuffer(3, 2, 4), PerAgentBuffer(3, 2, 4)
    steps = _chained_steps(12, 2, 4, seed=1)
    for step in itertools.islice(steps, 5):
        buf.add(*step)
        ref.add(*step)
    last_next = step[3]             # an add from it would chain
    same = np.tile(np.arange(4.0), (2, 1))
    differ = last_next.copy()
    differ[1, 2] += 1e-12
    signed = last_next.copy()
    signed[1, 0] = -0.0             # equal to 0.0 as a number, not as bits
    for bad in (differ, signed):
        with pytest.raises(ShapeMismatchError, match="^obs:"):
            buf.add(bad, np.array([0, 1]), 0.0, same, False)
        with pytest.raises(ShapeMismatchError, match="^next_obs:"):
            buf.add(last_next, np.array([0, 1]), 0.0, bad, False)
    for bad in (np.arange(3.0), np.zeros((3, 4)), np.zeros((1, 4))):
        with pytest.raises(ShapeMismatchError, match="^obs:"):
            buf.add(bad, np.array([0, 1]), 0.0, same, False)
        with pytest.raises(ShapeMismatchError, match="^next_obs:"):
            buf.add(last_next, np.array([0, 1]), 0.0, bad, False)
    # a rejected step leaves the full buffer's samples as they were, and
    # the steps added after it sample as the reference's do
    assert len(buf) == 3
    _assert_same_samples(buf, ref, 7, (1, 3, 3))
    for step in steps:
        buf.add(*step)
        ref.add(*step)
        _assert_same_samples(buf, ref, 8, (1, 3))


def test_buffer_stores_one_observation_row_per_step():
    buf = ReplayBuffer(capacity=100, n_agents=4, obs_dim=118)
    ref = PerAgentBuffer(capacity=100, n_agents=4, obs_dim=118)
    frames = [np.tile(np.full(118, float(t)), (4, 1)) for t in range(101)]
    for t in range(100):
        step = (frames[t], np.zeros(4, dtype=np.int64), 0.0, frames[t + 1],
                t == 99)
        buf.add(*step)
        ref.add(*step)
    arrays = [v for v in vars(buf).values() if isinstance(v, np.ndarray)]
    observations = [a for a in arrays if a.shape == (100, 118)]
    assert len(observations) == 1 and observations[0].nbytes == 100 * 118 * 8
    # one episode chains every row to the next but its last
    assert list(buf._side) == [99]
    _assert_same_samples(buf, ref, 0, (100,))


def test_buffer_rejects_zero_capacity():
    with pytest.raises(ConfigError):
        ReplayBuffer(capacity=0, n_agents=1, obs_dim=1)


# -- checkpoints ---------------------------------------------------------------------

def v1_document(learner):
    """The version-1 layout, every array a list of floats, which no longer
    loads."""
    def params(net):
        return {"layer_shapes": [list(w.shape) for w in net.weights],
                "weights": [w.ravel().tolist() for w in net.weights],
                "biases": [b.tolist() for b in net.biases]}
    return {"version": 1, "train_step": learner.train_step,
            "config": config_to_dict(learner.config),
            "agents": [params(net) for net in learner.agents],
            "targets": [params(net) for net in learner.targets]}


def test_checkpoint_roundtrip_is_exact(tmp_path):
    cfg = tiny_config(n_agents=2, obs_dim=4, n_actions=3, hidden=(6, 5))
    learner = VDNLearner(cfg, seed=17)
    batch = random_batch(cfg, np.random.default_rng(9), size=4)
    for _ in range(3):
        learner.td_update(batch)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    loaded = VDNLearner.load(str(path))
    assert loaded.config == cfg
    assert loaded.train_step == learner.train_step
    assert nets_equal(loaded.agents, learner.agents)
    assert nets_equal(loaded.targets, learner.targets)
    obs = np.random.default_rng(10).normal(size=(cfg.n_agents, cfg.obs_dim))
    assert np.array_equal(loaded.q_values(obs), learner.q_values(obs))
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    raw = base64.b64decode(doc["targets"][1]["weights"][1], validate=True)
    assert raw == learner.targets[1].weights[1].astype("<f8").tobytes()


@pytest.mark.parametrize("key, attr", [("agents", "online"),
                                       ("targets", "target")])
def test_save_refuses_a_non_finite_weight_and_keeps_the_old_file(
        tmp_path, key, attr):
    learner = VDNLearner(tiny_config(), seed=3)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    saved = path.read_bytes()
    getattr(learner, attr).biases[0][1, 2] = np.nan
    with pytest.raises(DivergenceError,
                       match=rf"ckpt.json: {key}\[1\]: non-finite value"):
        learner.save(str(path))
    assert path.read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


def test_checkpoint_preserves_distinct_target(tmp_path):
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=1)
    learner.td_update(random_batch(cfg, np.random.default_rng(2), size=4))
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    loaded = VDNLearner.load(str(path))
    assert not nets_equal(loaded.agents, loaded.targets)


def test_checkpoint_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(CheckpointFormatError):
        VDNLearner.load(str(path))


def test_checkpoint_rejects_wrong_version(tmp_path):
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=0)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    doc = json.loads(path.read_text())
    for version in (3, 0, "2", True, None):
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointFormatError, match="version"):
            VDNLearner.load(str(path))
    path.write_text(json.dumps(v1_document(learner)))
    with pytest.raises(CheckpointFormatError) as info:
        VDNLearner.load(str(path))
    assert str(info.value) == f"{path}: unsupported checkpoint version"


def test_checkpoint_rejects_missing_key(tmp_path):
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=0)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    doc = json.loads(path.read_text())
    del doc["agents"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError):
        VDNLearner.load(str(path))


def test_checkpoint_rejects_truncated_weights(tmp_path):
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=0)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    doc = json.loads(path.read_text())
    _drop_last_float("agents", 0, "weights", 0)(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError):
        VDNLearner.load(str(path))


def _pop(*keys):
    def mutate(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc.pop(keys[-1])
    return mutate


def _set(*keys, value):
    def mutate(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return mutate


def _edit_array(*keys, edit):
    """Decode the base64 array at `keys`, apply `edit` to its float64
    values and encode the result in its place."""
    def mutate(doc):
        for k in keys[:-1]:
            doc = doc[k]
        values = np.frombuffer(base64.b64decode(doc[keys[-1]]), "<f8").copy()
        doc[keys[-1]] = base64.b64encode(edit(values).tobytes()).decode()
    return mutate


def _poke(*keys, at, value):
    def edit(values):
        values[at] = value
        return values
    return _edit_array(*keys, edit=edit)


def _drop_last_float(*keys):
    return _edit_array(*keys, edit=lambda values: values[:-1])


@pytest.mark.parametrize("mutate, field", [
    (_pop("targets", 1), "targets"),
    (_poke("agents", 0, "weights", 0, at=2, value=np.nan), "agents[0]"),
    (_poke("targets", 1, "biases", 1, at=0, value=np.inf), "targets[1]"),
    (_set("config", "hidden", value=[6]), "agents[0].layer_shapes"),
    (_drop_last_float("agents", 1, "biases", 0), "agents[1]"),
    (_pop("targets", 0, "weights", 1), "targets[0]"),
    (_set("config", "n_agents", value="2"), "config.n_agents"),
    (_pop("config", "lr"), "config.lr"),
    (_set("config", "gamma", value=float("nan")), "config.gamma"),
    (_set("train_step", value="7"), "train_step"),
    pytest.param(_set("agents", 1, "weights", 0, value="not base64!"),
                 "agents[1]", id="invalid-base64"),
    pytest.param(_set("targets", 0, "biases", 1, value="AAAA"),
                 "targets[0]", id="three-bytes"),
    pytest.param(_set("agents", 0, "biases", 0, value=[0.0] * 5),
                 "agents[0]", id="float-list-in-version-2"),
])
def test_checkpoint_load_validates_every_field(tmp_path, mutate, field):
    learner = VDNLearner(tiny_config(), seed=0)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError) as info:
        VDNLearner.load(str(path))
    assert str(path) in str(info.value)
    assert f"{field}:" in str(info.value)


@pytest.mark.parametrize("mutate, field", [
    (_pop("targets", 1), "targets"),
    (_set("agents", 0, "weights", 0, 2, value=float("nan")), "agents[0]"),
    (_set("targets", 1, "biases", 1, 0, value=float("inf")), "targets[1]"),
    (_set("config", "hidden", value=[6]), "agents[0].layer_shapes"),
    (_pop("agents", 1, "biases", 0, 0), "agents[1]"),
    (_pop("targets", 0, "weights", 1), "targets[0]"),
    (_set("config", "n_agents", value="2"), "config.n_agents"),
    (_pop("config", "lr"), "config.lr"),
    (_set("config", "gamma", value=float("nan")), "config.gamma"),
    (_set("train_step", value="7"), "train_step"),
])
def test_checkpoint_version_1_load_validates_every_field(tmp_path, mutate,
                                                         field):
    """A version-1 document is refused on its version before any field is
    read, so a broken field never yields a field error or a learner."""
    doc = v1_document(VDNLearner(tiny_config(), seed=0))
    mutate(doc)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError) as info:
        VDNLearner.load(str(path))
    assert str(info.value) == f"{path}: unsupported checkpoint version"


def test_checkpoint_rejects_agent_count_mismatch(tmp_path):
    cfg = tiny_config()
    learner = VDNLearner(cfg, seed=0)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    doc = json.loads(path.read_text())
    doc["agents"] = doc["agents"][:1]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError):
        VDNLearner.load(str(path))


def test_agent_views_write_through_to_the_stack():
    cfg = tiny_config(n_agents=2, obs_dim=3, n_actions=2)
    learner = VDNLearner(cfg, seed=0)
    assert learner.online.weights[0].shape == (2, 3, 5)
    assert learner.online.biases[-1].shape == (2, 2)
    zero_params(learner)
    learner.agents[1].biases[-1][:] = [0.5, 2.0]
    q = learner.q_values(np.zeros((2, 3)))
    assert np.array_equal(q, [[0.0, 0.0], [0.5, 2.0]])
    assert [w.shape for w in learner.online[1].weights] == [(3, 5), (5, 2)]


def test_mlp_forward_cache_holds_layer_inputs():
    net = init_mlp([4, 6, 3], np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(5, 4))
    cache = []
    out = mlp_forward(net, x, cache)
    assert np.array_equal(out, mlp_forward(net, x))
    assert [h.shape for h, _ in cache] == [(5, 4), (5, 6)]
    assert np.array_equal(cache[1][0], vdn.softplus(cache[0][1]))
    assert np.array_equal(cache[-1][1], out)
