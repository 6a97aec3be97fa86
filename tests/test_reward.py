import numpy as np
import pytest

from pitchlab import reward, sim
from pitchlab.trainer import EpisodeTally, ExperimentConfig
from pitchlab.vdn import TrainConfig


def events(goal=False, out_of_bounds=False, turnover=False):
    ev = sim.StepEvents()
    ev.goal = goal
    ev.out_of_bounds = out_of_bounds
    ev.turnover = turnover
    return ev


# -- sparse --------------------------------------------------------------------

def test_sparse_goal_is_minus_one():
    assert reward.sparse_reward(events(goal=True)) == -1.0


def test_sparse_out_of_bounds_is_zero():
    assert reward.sparse_reward(events(out_of_bounds=True)) == 0.0


def test_sparse_turnover_is_zero():
    assert reward.sparse_reward(events(turnover=True)) == 0.0


def test_sparse_non_terminal_is_zero():
    assert reward.sparse_reward(events()) == 0.0


# -- shaping formulas -----------------------------------------------------------

def test_additive_example():
    assert reward.additive_shaped(0.0, 0.25, 1.0) == -0.25


def test_additive_monotone_in_value():
    r_low = reward.additive_shaped(0.0, 0.2, 0.5)
    r_high = reward.additive_shaped(0.0, 0.6, 0.5)
    assert r_low > r_high


def test_potential_constant_cancels():
    for sparse in (-1.0, 0.0):
        got = reward.potential_shaped(sparse, 0.4, 0.4, weight=2.0, gamma=1.0)
        assert got == sparse


def test_potential_formula_direct():
    got = reward.potential_shaped(0.0, 0.5, 0.3, weight=1.0, gamma=0.9)
    # phi = -value: shaped = w * (gamma * (-0.3) - (-0.5))
    assert abs(got - (0.9 * -0.3 + 0.5)) < 1e-15


def test_potential_discounted_sum_telescopes():
    rng = np.random.default_rng(4)
    gamma, w = 0.97, 0.3
    values = rng.uniform(0, 3, 40)
    total = 0.0
    for t in range(len(values) - 1):
        shaping = reward.potential_shaped(0.0, values[t], values[t + 1],
                                          weight=w, gamma=gamma)
        total += gamma ** t * shaping
    phi0, phiT = -values[0], -values[-1]
    expect = w * (gamma ** (len(values) - 1) * phiT - phi0)
    assert abs(total - expect) < 1e-10


# -- config --------------------------------------------------------------------

def test_config_rejects_negative_weight():
    with pytest.raises(sim.ConfigError):
        reward.ShapingConfig(weight=-0.1)


def test_potential_gamma_must_match_training_gamma():
    # the shaping term has no discount of its own: an episode's tally
    # discounts the potential with train.gamma
    shaping = reward.ShapingConfig(mode=reward.ShapingMode.POTENTIAL_BASED,
                                   weight=0.1)
    scenario = sim.ScenarioConfig(n_defenders=1, n_attackers=1)
    for gamma in (0.9, 0.5):
        cfg = ExperimentConfig(scenario=scenario, reward=shaping,
                               train=TrainConfig(gamma=gamma))
        tally = EpisodeTally(cfg, np.full((32, 20), 0.5))
        st = sim.reset(scenario, 0)
        tally.start(st)
        prev = tally.value
        st, ev = sim.step(st, [0])
        got = tally.step(st, ev)
        assert got == reward.potential_shaped(
            reward.sparse_reward(ev), prev, tally.value, 0.1, gamma)
        assert got != reward.potential_shaped(
            reward.sparse_reward(ev), prev, tally.value, 0.1, 0.99)


# -- shaped reward ------------------------------------------------------------

def test_zero_weight_is_bitwise_sparse():
    for mode in reward.ShapingMode:
        cfg = reward.ShapingConfig(mode=mode, weight=0.0)
        for sparse in (-1.0, 0.0, 0.25):
            assert reward.shaped_reward(cfg, sparse, 5.0, 3.7, 0.99) == sparse


def test_shaper_additive_stream():
    cfg = reward.ShapingConfig(mode=reward.ShapingMode.ADDITIVE, weight=0.1)
    assert reward.shaped_reward(cfg, 0.0, 2.0, 3.0, 0.99) == 0.0 - 0.1 * 3.0
    assert reward.shaped_reward(cfg, -1.0, 3.0, 2.0, 0.99) == -1.0 - 0.1 * 2.0


def test_shaper_potential_uses_previous_value():
    cfg = reward.ShapingConfig(mode=reward.ShapingMode.POTENTIAL_BASED,
                               weight=1.0)
    first = reward.shaped_reward(cfg, 0.0, 1.0, 0.5, 0.99)
    assert abs(first - (0.99 * -0.5 + 1.0)) < 1e-15
    second = reward.shaped_reward(cfg, 0.0, 0.5, 0.25, 0.99)
    assert abs(second - (0.99 * -0.25 + 0.5)) < 1e-15
