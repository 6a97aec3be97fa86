import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from pitchlab import sim
from pitchlab.sim import (
    ActionArityError,
    ConfigError,
    DefenderAction,
    OutcomeKind,
    PitchSpec,
    ScenarioConfig,
    SteppedTerminalError,
)

STAY = DefenderAction.STAY.value
PRESS = DefenderAction.PRESS.value


def state_digest(state):
    """Hex digest over every dynamic field, for bit-identity checks."""
    h = hashlib.sha256()
    for a in (state.positions, state.velocities, state.ball_pos,
              state.ball_vel):
        h.update(a.tobytes())
    for v in (state.carrier, state.kick_shield, state.step_index):
        h.update(str(v).encode())
    h.update(json.dumps(state.rng.bit_generator.state, sort_keys=True).encode())
    h.update(str(state.terminal).encode())
    h.update(str(state.outcome).encode())
    h.update(json.dumps(state.score_events, sort_keys=True).encode())
    return h.hexdigest()


def small_scenario(**kw):
    kw.setdefault("n_defenders", 2)
    kw.setdefault("n_attackers", 3)
    kw.setdefault("difficulty", 0.95)
    return ScenarioConfig(**kw)


def run_episode(scenario, seed, actions_fn):
    st = sim.reset(scenario, seed)
    events_seen = []
    while not st.terminal:
        st, ev = sim.step(st, actions_fn(st))
        events_seen.append(ev)
    return st, events_seen


# -- configuration ----------------------------------------------------------------

def test_scenario_rejects_zero_defenders():
    with pytest.raises(ConfigError):
        ScenarioConfig(n_defenders=0)


def test_scenario_rejects_bad_difficulty():
    with pytest.raises(ConfigError):
        ScenarioConfig(difficulty=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(difficulty=-0.1)


def test_pitch_validation():
    with pytest.raises(ConfigError):
        PitchSpec(grid_m=1)
    with pytest.raises(ConfigError):
        PitchSpec(goal_half_width=40.0)
    with pytest.raises(ConfigError):
        PitchSpec(length=-5.0)


def test_player_count_includes_goalkeeper():
    sc = ScenarioConfig(n_defenders=4, n_attackers=6)
    assert sc.n_players == 11


def test_scenario_dict_roundtrip():
    for sc in (small_scenario(difficulty=0.6, max_episode_steps=123),
               small_scenario(pitch=PitchSpec(length=90.0, grid_m=8)),
               ScenarioConfig()):
        d = sim.config_to_dict(sc)
        assert list(d) == [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert sim.config_from_dict(ScenarioConfig, d, "scenario") == sc
    # ints given for float fields are stored as floats
    sc = sim.config_from_dict(ScenarioConfig,
                              {"difficulty": 1, "pitch": {"width": 60}},
                              "scenario")
    assert type(sc.difficulty) is float and type(sc.pitch.width) is float


def test_scenario_dict_rejects_unknown_field():
    d = sim.config_to_dict(small_scenario())
    d["wind_speed"] = 3.0
    with pytest.raises(ConfigError, match=r"scenario\.wind_speed"):
        sim.config_from_dict(ScenarioConfig, d, "scenario")


# -- reset --------------------------------------------------------------------------

def test_reset_layout_4v6():
    sc = ScenarioConfig(n_defenders=4, n_attackers=6)
    st = sim.reset(sc, 0)
    assert st.positions.shape == (11, 2)
    assert st.gk_index == 4
    # kickoff: first attacker carries the ball at the halfway spot
    assert st.carrier == 5
    assert tuple(st.positions[5]) == (52.5, 34.0)
    assert np.array_equal(st.ball_pos, st.positions[5])
    assert tuple(st.positions[4]) == sc.pitch.goal_center
    assert not st.terminal


def test_reset_is_bit_identical():
    sc = small_scenario()
    a, b = sim.reset(sc, 12345), sim.reset(sc, 12345)
    assert state_digest(a) == state_digest(b)


def test_reset_seeds_differ():
    sc = small_scenario()
    assert state_digest(sim.reset(sc, 1)) != state_digest(sim.reset(sc, 2))


def test_reset_team_and_role_assignment():
    # outfield defenders, then the goalkeeper, then the attackers; the
    # keeper and the attackers have speeds of their own
    st = sim.reset(small_scenario(), 0)
    n_att = st.scenario.n_attackers
    assert st.is_attacker.tolist() == [False] * 3 + [True] * n_att
    assert st.gk_index == 2
    assert st.max_speeds.tolist() == (
        [sim.MAX_SPEED] * 2 + [sim.GK_CONTROL_SPEED]
        + [sim.MAX_SPEED * sim.ATTACKER_SPEED_FACTOR] * n_att)
    assert st.reaction_times.tolist() == [sim.REACTION_TIME] * (3 + n_att)


def test_reset_players_inside_pitch():
    for seed in range(10):
        st = sim.reset(ScenarioConfig(n_defenders=5, n_attackers=7), seed)
        L, W = st.scenario.pitch.length, st.scenario.pitch.width
        assert np.all(st.positions[:, 0] >= 0) and np.all(st.positions[:, 0] <= L)
        assert np.all(st.positions[:, 1] >= 0) and np.all(st.positions[:, 1] <= W)


# -- step mechanics -------------------------------------------------------------------

def test_step_rejects_wrong_arity():
    st = sim.reset(small_scenario(), 0)
    with pytest.raises(ActionArityError):
        sim.step(st, [STAY])


def test_step_rejects_terminal_state():
    sc = small_scenario(max_episode_steps=2, difficulty=1.0)
    st = sim.reset(sc, 0)
    sim.step(st, [STAY, STAY])
    sim.step(st, [STAY, STAY])
    assert st.terminal
    with pytest.raises(SteppedTerminalError):
        sim.step(st, [STAY, STAY])


def test_step_rejects_unknown_action():
    st = sim.reset(small_scenario(), 0)
    with pytest.raises(ValueError):
        sim.step(st, [99, STAY])


def test_stay_keeps_defenders_static_while_attackers_advance():
    sc = small_scenario(difficulty=1.0)
    st = sim.reset(sc, 4)
    def_before = st.positions[:2].copy()
    goal = np.array(sc.pitch.goal_center)
    d0 = np.hypot(*(st.positions[st.carrier] - goal))
    carrier = st.carrier
    for _ in range(30):
        st, _ = sim.step(st, [STAY, STAY])
    assert np.array_equal(st.positions[:2], def_before)
    assert st.carrier == carrier  # unpressed at difficulty 1: keeps dribbling
    assert np.hypot(*(st.positions[carrier] - goal)) < d0 - 5.0


def test_move_actions_follow_compass():
    sc = small_scenario()
    st = sim.reset(sc, 0)
    p0 = st.positions[0].copy()
    sim.step(st, [DefenderAction.MOVE_E.value, STAY])
    moved = st.positions[0] - p0
    assert moved[0] == pytest.approx(sim.MAX_SPEED * sim.DT)
    assert moved[1] == pytest.approx(0.0)

    st = sim.reset(sc, 0)
    p1 = st.positions[1].copy()
    sim.step(st, [STAY, DefenderAction.MOVE_SW.value])
    moved = st.positions[1] - p1
    assert moved[0] == pytest.approx(-sim.MAX_SPEED * sim.DT / np.sqrt(2))
    assert moved[1] == pytest.approx(-sim.MAX_SPEED * sim.DT / np.sqrt(2))


def test_goalkeeper_never_moves():
    sc = small_scenario()
    st = sim.reset(sc, 9)
    gk_home = st.positions[st.gk_index].copy()
    rng = np.random.default_rng(0)
    for _ in range(60):
        if st.terminal:
            break
        acts = rng.integers(0, sim.N_ACTIONS, size=2)
        st, _ = sim.step(st, list(acts))
    assert np.array_equal(st.positions[st.gk_index], gk_home)
    assert np.array_equal(st.velocities[st.gk_index], np.zeros(2))


def test_players_stay_contained():
    sc = small_scenario()
    L, W = sc.pitch.length, sc.pitch.width
    # drive everyone at the corner for a long time
    st = sim.reset(sc, 2)
    for _ in range(120):
        if st.terminal:
            break
        st, _ = sim.step(st, [DefenderAction.MOVE_SW.value] * 2)
        assert np.all(st.positions[:, 0] >= 0) and np.all(st.positions[:, 0] <= L)
        assert np.all(st.positions[:, 1] >= 0) and np.all(st.positions[:, 1] <= W)


def test_determinism_same_actions_same_digest():
    sc = small_scenario()
    rng = np.random.default_rng(5)
    plan = rng.integers(0, sim.N_ACTIONS, size=(50, 2))
    digests = []
    for _ in range(2):
        st = sim.reset(sc, 77)
        seen = []
        for acts in plan:
            if st.terminal:
                break
            st, _ = sim.step(st, list(acts))
            seen.append(state_digest(st))
        digests.append(seen)
    assert digests[0] == digests[1]


def _rollout_digest(runs):
    """Play each (scenario, seed) with random actions (PRESS 30% of the time)
    to its end; return the total steps, the last outcome and the first 16
    hex digits of a sha256 over every step's state digest."""
    h = hashlib.sha256()
    steps = 0
    for scenario, seed in runs:
        rng = np.random.default_rng(1000 + seed)
        st = sim.reset(scenario, seed)
        while not st.terminal:
            acts = [PRESS if rng.random() < 0.3
                    else int(rng.integers(sim.N_ACTIONS))
                    for _ in range(scenario.n_defenders)]
            st, _ = sim.step(st, acts)
            h.update(state_digest(st).encode())
        steps += st.step_index
    return steps, st.outcome.kind.value, h.hexdigest()[:16]


# the expected values were recorded with the numpy-array geometry that the
# plain-float geometry replaced
@pytest.mark.parametrize("teams, expected", [
    ((2, 3), (3447, "d8399f7fa0d300c2")),
    ((4, 6), (3052, "f71c0290b397158a")),
])
def test_seeded_rollouts_keep_their_pinned_digests(teams, expected):
    runs = [(small_scenario(n_defenders=teams[0], n_attackers=teams[1],
                            difficulty=difficulty), seed)
            for difficulty in (0.95, 0.6, 0.05) for seed in range(12)]
    steps, _, digest = _rollout_digest(runs)
    assert (steps, digest) == expected


def test_a_step_limited_rollout_keeps_its_pinned_digest():
    sc = small_scenario(difficulty=0.3, max_episode_steps=100)
    assert _rollout_digest([(sc, 3)]) == (100, "step_limit", "9a2254ab80c3ed58")


# -- outcomes ---------------------------------------------------------------------------

def flying_ball_state(ball_pos, ball_vel):
    sc = ScenarioConfig(n_defenders=1, n_attackers=1, difficulty=1.0)
    st = sim.reset(sc, 0)
    st.positions[0] = (50.0, 60.0)   # lone outfield defender parked far away
    st.positions[2] = (90.0, 10.0)   # attacker far from the flight path
    st.carrier = None
    st.ball_pos = np.array(ball_pos, dtype=float)
    st.ball_vel = np.array(ball_vel, dtype=float)
    return st


def test_ball_crossing_goal_mouth_scores():
    st = flying_ball_state([5.0, 36.5], [-22.0, 0.0])
    goal_seen = False
    while not st.terminal:
        st, ev = sim.step(st, [STAY])
        goal_seen = goal_seen or ev.goal
    assert goal_seen
    assert st.outcome.kind is OutcomeKind.GOAL_CONCEDED
    assert st.outcome.goal_difference == -1
    assert st.score_events and st.score_events[0]["team"] == "attacking"


def test_ball_crossing_goal_line_outside_mouth_is_out():
    st = flying_ball_state([5.0, 20.0], [-22.0, 0.0])
    while not st.terminal:
        st, ev = sim.step(st, [STAY])
    assert st.outcome.kind is OutcomeKind.OUT_OF_BOUNDS
    assert st.outcome.goal_difference == 0


def test_ball_over_sideline_is_out():
    st = flying_ball_state([50.0, 2.0], [0.0, -22.0])
    while not st.terminal:
        st, ev = sim.step(st, [STAY])
    assert st.outcome.kind is OutcomeKind.OUT_OF_BOUNDS


def test_unpressed_carrier_in_zone_shoots_and_scores():
    # difficulty 1: greedy option, zero aim noise, open goal at close range
    sc = ScenarioConfig(n_defenders=1, n_attackers=1, difficulty=1.0)
    st = sim.reset(sc, 3)
    st.positions[0] = (50.0, 60.0)
    st.positions[2] = (8.0, 34.0)
    st.ball_pos = st.positions[2].copy()
    st.carrier = 2
    for _ in range(30):
        st, ev = sim.step(st, [STAY])
        if st.terminal:
            break
    assert st.outcome is not None
    assert st.outcome.kind is OutcomeKind.GOAL_CONCEDED
    assert st.outcome.goal_difference == -1


def test_step_limit_outcome():
    sc = small_scenario(max_episode_steps=5, difficulty=1.0)
    st = sim.reset(sc, 0)
    for _ in range(5):
        st, _ = sim.step(st, [STAY, STAY])
    assert st.terminal
    assert st.outcome.kind is OutcomeKind.STEP_LIMIT
    assert st.outcome.goal_difference == 0


def test_goal_difference_codomain():
    rng = np.random.default_rng(1)
    for seed in range(15):
        sc = small_scenario(difficulty=float(rng.uniform(0, 1)),
                            max_episode_steps=150)
        st, _ = run_episode(sc, seed,
                            lambda s: list(rng.integers(0, sim.N_ACTIONS, 2)))
        assert st.outcome.goal_difference in (0, -1)
        is_goal = st.outcome.kind is OutcomeKind.GOAL_CONCEDED
        assert (st.outcome.goal_difference == -1) == is_goal


def test_pass_gets_received_by_teammate():
    # difficulty 0.5 from kickoff: the carrier eventually passes and a
    # teammate collects, so possession moves between attackers
    sc = small_scenario(difficulty=0.5, max_episode_steps=200)
    st = sim.reset(sc, 0)
    start = st.carrier
    changed = False
    while not st.terminal:
        st, _ = sim.step(st, [STAY, STAY])
        if st.carrier is not None and st.carrier != start:
            changed = True
            break
    assert changed
    assert st.is_attacker[st.carrier]


def press_episode(seed):
    sc = small_scenario(difficulty=0.95, max_episode_steps=400)
    st = sim.reset(sc, seed)
    evs = []
    while not st.terminal:
        st, ev = sim.step(st, [PRESS, PRESS])
        evs.append(ev)
    return st, evs


def test_press_produces_tackles():
    st, evs = press_episode(6)
    assert any(ev.tackle for ev in evs)
    assert st.outcome.kind is OutcomeKind.TURNOVER


def test_press_produces_fouls_as_plain_turnovers():
    st, evs = press_episode(5)
    foul_evs = [ev for ev in evs if ev.foul]
    assert foul_evs
    assert all(ev.turnover for ev in foul_evs)
    assert st.outcome.kind is OutcomeKind.TURNOVER
    assert st.outcome.goal_difference == 0


def test_press_produces_flight_interceptions():
    st, evs = press_episode(0)
    terminal = evs[-1]
    assert terminal.turnover and not terminal.tackle and not terminal.foul
    assert st.outcome.kind is OutcomeKind.TURNOVER


# -- attacker policy ---------------------------------------------------------------------

def _reference_offball_targets(state):
    """The attackers' run-target search as first written: every distance
    through np.hypot, recomputed on each call."""
    pitch = state.scenario.pitch
    m, n = pitch.grid_m, pitch.grid_n
    cand = pitch.cell_centers.reshape(m, n, 2)[0:max(2, m // 2):2, ::2].reshape(-1, 2)
    goal = np.array(pitch.goal_center)
    d_goal = np.hypot(cand[:, 0] - goal[0], cand[:, 1] - goal[1])
    def_mask = ~state.is_attacker
    def_pos = state.positions[def_mask]
    d_def = np.hypot(cand[:, None, 0] - def_pos[None, :, 0],
                     cand[:, None, 1] - def_pos[None, :, 1])
    tau_def = (state.reaction_times[def_mask][None, :]
               + d_def / state.max_speeds[def_mask][None, :]).min(axis=1)
    att_idx = state.attacker_indices
    tether = np.abs(cand[:, 0] - float(state.ball_pos[0])) / 30.0
    targets = np.zeros((len(att_idx), 2))
    claimed = []
    for k, idx in enumerate(att_idx):
        pos = state.positions[idx]
        tau_att = state.reaction_times[idx] + \
            np.hypot(cand[:, 0] - pos[0], cand[:, 1] - pos[1]) / state.max_speeds[idx]
        score = (tau_def - tau_att) - d_goal / 25.0 - tether
        for c in claimed:
            near = np.hypot(cand[:, 0] - c[0], cand[:, 1] - c[1]) < 6.0
            score = score - 1.5 * near
        best = int(np.argmax(score))
        targets[k] = cand[best]
        claimed.append(cand[best])
    return targets


def test_dist_point_segment_of_a_degenerate_segment_is_the_distance_to_a():
    assert sim._dist_point_segment((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == 5.0
    # |ab|^2 = 1e-14 < 1e-12: no projection, although b is nearer than a
    assert sim._dist_point_segment((3.0, 4.0), (0.0, 0.0), (1e-7, 0.0)) == 5.0


@pytest.mark.parametrize("p, a, b, expected", [
    ((-3.0, 4.0), (0.0, 0.0), (10.0, 0.0), 5.0),     # clamped to a
    ((13.0, -4.0), (0.0, 0.0), (10.0, 0.0), 5.0),    # clamped to b
    ((4.0, 3.0), (0.0, 0.0), (10.0, 0.0), 3.0),      # interior, along x
    ((1.0, 3.0), (0.0, 0.0), (4.0, 4.0), math.sqrt(2.0)),  # interior, diagonal
])
def test_dist_point_segment_closed_forms(p, a, b, expected):
    assert sim._dist_point_segment(p, a, b) == pytest.approx(expected, abs=1e-12)
    assert sim._dist_point_segment(p, b, a) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_def, n_att", [(2, 3), (4, 6)])
def test_offball_targets_match_the_reference_bit_for_bit(
        random_action_states, n_def, n_att):
    sc = small_scenario(n_defenders=n_def, n_attackers=n_att)
    n_states = 0
    for st in random_action_states(sc):
        got = sim._offball_targets(st)
        assert got.tobytes() == _reference_offball_targets(st).tobytes()
        n_states += 1
    assert n_states > 1000
    # a duel with overwritten speeds and reaction times, as the field tests
    # set them: a keeper as fast as the rest contests the attacker's run
    st = sim.reset(small_scenario(n_defenders=1, n_attackers=1), 5)
    st.max_speeds[:] = 8.0
    st.reaction_times[:] = 0.5
    st.positions[0] = (90.0, 60.0)
    st.positions[2] = st.ball_pos = (14.0, 30.0)
    assert sim._offball_targets(st).tobytes() == \
        _reference_offball_targets(st).tobytes()


def test_offball_candidates_are_cached_read_only():
    pitch = PitchSpec()
    cands = pitch.offball_candidates
    assert pitch.offball_candidates is cands
    assert cands.cells.shape == (80, 2)
    assert cands.claim_penalty.shape == (80, 80)
    for a in (cands.xs, cands.ys, cands.cells, cands.goal_pull,
              cands.claim_penalty, pitch.extent, *pitch.cell_axes):
        assert not a.flags.writeable


def test_policy_rejects_bad_difficulty():
    st = sim.reset(small_scenario(), 0)
    with pytest.raises(ConfigError):
        sim.attacker_policy(st, 1.2, np.random.default_rng(0))


def test_policy_same_rng_same_decision():
    st = sim.reset(small_scenario(difficulty=0.3), 11)
    a = sim.attacker_policy(st, 0.3, np.random.default_rng(42))
    b = sim.attacker_policy(st, 0.3, np.random.default_rng(42))
    assert a.carrier_option == b.carrier_option
    assert a.pass_target == b.pass_target
    assert a.aim_point == b.aim_point
    assert np.array_equal(a.offball_targets, b.offball_targets)


def test_policy_difficulty_zero_is_coin_flip_on_greedy():
    st = sim.reset(small_scenario(difficulty=0.0), 7)
    rng = np.random.default_rng(99)
    n = 10_000
    greedy = 0
    for _ in range(n):
        it = sim.attacker_policy(st, 0.0, rng)
        assert len(it.available_options) >= 2
        if it.carrier_option is it.greedy_option:
            greedy += 1
    sigma = np.sqrt(n * 0.25)
    assert abs(greedy - 0.5 * n) <= 3 * sigma


def test_policy_unpressed_in_zone_prefers_shot():
    sc = ScenarioConfig(n_defenders=1, n_attackers=2, difficulty=1.0)
    st = sim.reset(sc, 0)
    st.positions[0] = (60.0, 60.0)
    st.positions[2] = (10.0, 34.0)
    st.positions[3] = (15.0, 20.0)
    st.carrier = 2
    st.ball_pos = st.positions[2].copy()
    it = sim.attacker_policy(st, 1.0, np.random.default_rng(0))
    assert it.greedy_option is sim.CarrierOption.SHOOT
    assert it.carrier_option is sim.CarrierOption.SHOOT
    assert it.aim_point is not None and it.aim_point[0] == 0.0


def test_policy_without_carrier_has_no_option():
    st = sim.reset(small_scenario(), 0)
    st.carrier = None
    it = sim.attacker_policy(st, 0.5, np.random.default_rng(0))
    assert it.carrier_option is None
    assert it.offball_targets.shape == (3, 2)


# -- observations -------------------------------------------------------------------------

def test_observation_length_4v6():
    sc = ScenarioConfig(n_defenders=4, n_attackers=6)
    assert sim.observation_length(sc) == 59
    st = sim.reset(sc, 0)
    assert sim.observe(st).shape == (59,)


def test_observation_layout():
    sc = small_scenario()
    st = sim.reset(sc, 3)
    obs = sim.observe(st)
    P = sc.n_players
    # positions normalised into [-1, 1]
    assert np.all(obs[0:P * 4:4] >= -1) and np.all(obs[0:P * 4:4] <= 1)
    assert np.all(obs[1:P * 4:4] >= -1) and np.all(obs[1:P * 4:4] <= 1)
    # goalkeeper velocity slots are pinned at zero
    gk = st.gk_index
    assert obs[gk * 4 + 2] == 0.0 and obs[gk * 4 + 3] == 0.0
    # trailing block is the carrier one-hot
    onehot = obs[P * 4 + 4:]
    assert onehot.shape == (P,)
    assert onehot.sum() == 1.0 and onehot[st.carrier] == 1.0


def test_observation_onehot_empty_when_ball_loose():
    st = sim.reset(small_scenario(), 0)
    st.carrier = None
    obs = sim.observe(st)
    P = st.scenario.n_players
    assert obs[P * 4 + 4:].sum() == 0.0


# -- snapshots and persistence ----------------------------------------------------------

def test_save_load_roundtrip_digest(tmp_path):
    sc = small_scenario()
    st = sim.reset(sc, 21)
    rng = np.random.default_rng(3)
    for _ in range(20):
        if st.terminal:
            break
        st, _ = sim.step(st, list(rng.integers(0, sim.N_ACTIONS, 2)))
    path = tmp_path / "state.json"
    sim.save_state(st, str(path))
    loaded = sim.load_state(str(path))
    assert state_digest(loaded) == state_digest(st)
    assert loaded.scenario == st.scenario


def test_loaded_state_steps_deterministically(tmp_path):
    sc = small_scenario()
    st = sim.reset(sc, 8)
    for _ in range(10):
        st, _ = sim.step(st, [STAY, STAY])
    path = tmp_path / "state.json"
    sim.save_state(st, str(path))
    a, b = sim.load_state(str(path)), sim.load_state(str(path))
    for _ in range(15):
        if a.terminal:
            break
        a, _ = sim.step(a, [STAY, PRESS])
        b, _ = sim.step(b, [STAY, PRESS])
        assert state_digest(a) == state_digest(b)


def test_load_rejects_wrong_version(tmp_path):
    sc = small_scenario()
    st = sim.reset(sc, 0)
    path = tmp_path / "state.json"
    sim.save_state(st, str(path))
    doc = json.loads(path.read_text())
    doc["version"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        sim.load_state(str(path))


def test_terminal_state_roundtrips(tmp_path):
    st, _ = run_episode(small_scenario(), 5, lambda s: [PRESS, PRESS])
    path = tmp_path / "state.json"
    sim.save_state(st, str(path))
    loaded = sim.load_state(str(path))
    assert loaded.terminal and loaded.outcome == st.outcome
    assert state_digest(loaded) == state_digest(st)


# each writer makes its artifact in directory `d` and returns its path

def _write_state(d):
    path = os.path.join(d, "state.json")
    sim.save_state(sim.reset(small_scenario(), 0), path)
    return path


def _write_grid(d):
    from pitchlab import epv
    path = os.path.join(d, "grid.json")
    pitch = PitchSpec(grid_m=4, grid_n=3)
    epv.save_epv_grid(path, epv.solve_epv(epv.default_chain(pitch)), pitch)
    return path


def _write_checkpoint(d):
    from pitchlab.vdn import LearnerConfig, VDNLearner
    path = os.path.join(d, "ckpt.json")
    VDNLearner(LearnerConfig(n_agents=2, obs_dim=3, n_actions=2,
                             hidden=(4,)), seed=0).save(path)
    return path


def _tiny_experiment():
    from pitchlab.reward import ShapingConfig
    from pitchlab.trainer import ExperimentConfig
    from pitchlab.vdn import TrainConfig
    return ExperimentConfig(
        scenario=small_scenario(max_episode_steps=5),
        reward=ShapingConfig(weight=0.0),
        train=TrainConfig(total_steps=4, batch_size=2, buffer_capacity=4,
                          hidden=(4,), learn_start=2),
        seeds=(1,), eval_every=4, eval_episodes=1)


def _write_config(d):
    # run_training writes the run's config.json before it trains
    from pitchlab.trainer import run_training
    return os.path.join(run_training(_tiny_experiment(), d), "config.json")


def _run_cli(argv):
    """Run the command line; a non-zero exit code raises SystemExit."""
    from pitchlab import cli
    rc = cli.main(argv)
    if rc:
        raise SystemExit(rc)


def _write_pass_model(d):
    from pitchlab import pitch_control as pc
    events, path = os.path.join(d, "events.csv"), os.path.join(d, "fit.json")
    x, k = pc.sample_pass_events(pc.PassModelParams(), 200,
                                 np.random.default_rng(0))
    pc.save_pass_events(events, x, k)
    _run_cli(["fit-pass-model", "--events", events, "--out", path])
    return path


def _write_pass_events(d):
    from pitchlab import pitch_control as pc
    path = os.path.join(d, "events.csv")
    x, k = pc.sample_pass_events(pc.PassModelParams(), 20,
                                 np.random.default_rng(0))
    pc.save_pass_events(path, x, k)
    return path


def _write_curve(d):
    from pitchlab.trainer import write_curve_csv
    path = os.path.join(d, "curve.csv")
    write_curve_csv(path, [(0, -0.5, -1.0, 0.0), (100, 0.25, 0.0, 0.5)])
    return path


def _write_image(d):
    from pitchlab import render
    path = os.path.join(d, "field.ppm")
    render.write_ppm(path, np.full((3, 4, 3), 7, dtype=np.uint8))
    return path


def _write_replay(d):
    import yaml
    from pitchlab.vdn import VDNLearner
    cfg = _tiny_experiment()
    cfg_path, ckpt = os.path.join(d, "config.yaml"), os.path.join(d, "ckpt.json")
    path = os.path.join(d, "replay.jsonl")
    with open(cfg_path, "w") as f:
        yaml.safe_dump(sim.config_to_dict(cfg), f)
    obs_dim = sim.observation_length(cfg.scenario)
    VDNLearner(cfg.train.learner_config(cfg.scenario.n_defenders, obs_dim,
                                        sim.N_ACTIONS), seed=0).save(ckpt)
    _run_cli(["replay", "--checkpoint", ckpt, "--config", cfg_path,
              "--out", path])
    return path


def _files(d):
    return sorted(os.path.relpath(os.path.join(root, f), d)
                  for root, _, names in os.walk(d) for f in names)


class _HalfWritten:
    """A file that takes half of the first write it is given, then fails."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("write", [_write_state, _write_grid,
                                   _write_checkpoint, _write_config,
                                   _write_pass_model, _write_pass_events,
                                   _write_curve, _write_image, _write_replay])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys,
                                              write):
    import builtins
    path = write(str(tmp_path))
    before = open(path, "rb").read()
    files = _files(tmp_path)

    # any file opened for writing whose name starts with the artifact's
    # (the artifact itself, or a temporary beside it) fails midway
    real_open = builtins.open

    def open_failing(file, mode="r", *args, **kw):
        f = real_open(file, mode, *args, **kw)
        if "w" in mode and os.path.basename(str(file)).startswith(
                os.path.basename(path)):
            return _HalfWritten(f)
        return f

    monkeypatch.setattr(builtins, "open", open_failing)
    if write in (_write_pass_model, _write_replay):
        # the command line reports the failed write on stderr and exits 2
        with pytest.raises(SystemExit) as exc:
            write(str(tmp_path))
        assert exc.value.code == 2
        assert "disk full" in capsys.readouterr().err
    else:
        with pytest.raises(OSError):
            write(str(tmp_path))
    assert open(path, "rb").read() == before
    assert _files(tmp_path) == files


def test_checkpoint_that_fails_to_serialize_keeps_the_previous_file(tmp_path):
    from pitchlab.vdn import LearnerConfig, VDNLearner
    learner = VDNLearner(LearnerConfig(n_agents=1, obs_dim=2, n_actions=2,
                                       hidden=(3,)), seed=0)
    path = tmp_path / "ckpt.json"
    learner.save(str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        learner.save(str(path), extra={"unserializable": object()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ckpt.json"]


def test_snapshot_fields():
    st = sim.reset(small_scenario(), 0)
    snap = sim.snapshot(st)
    assert snap["step"] == 0
    assert snap["carrier"] == st.carrier
    assert len(snap["positions"]) == st.scenario.n_players
    assert not snap["terminal"]
