import math

import numpy as np
import pytest

from pitchlab import pitch_control as pc
from pitchlab import sim


def make_state(n_def=1, n_att=1, seed=0, difficulty=0.5):
    sc = sim.ScenarioConfig(n_defenders=n_def, n_attackers=n_att,
                            difficulty=difficulty)
    return sim.reset(sc, seed)


# -- pass model ---------------------------------------------------------------

def test_probability_at_lambda_is_half():
    for lam in (0.0, -1.3, 2.5):
        params = pc.PassModelParams(sigma=0.7, lam=lam)
        assert pc.pass_success_probability(params, lam) == 0.5


def test_probability_closed_form_example():
    params = pc.PassModelParams(sigma=0.45, lam=0.0)
    p = pc.pass_success_probability(params, 0.9)
    assert abs(p - 1.0 / (1.0 + math.exp(-2.0))) < 1e-15
    assert abs(p - 0.88080) < 1e-5


def test_probability_limits_and_open_interval():
    params = pc.PassModelParams(sigma=0.45, lam=0.0)
    lo = pc.pass_success_probability(params, -1e12)
    hi = pc.pass_success_probability(params, 1e12)
    assert 0.0 < lo < 1e-10
    assert 1.0 - 1e-10 < hi < 1.0


def test_probability_monotone_in_x():
    params = pc.PassModelParams(sigma=0.3, lam=-0.2)
    xs = np.linspace(-5, 5, 201)
    ps = pc.pass_success_probability(params, xs)
    assert np.all(np.diff(ps) > 0)


def test_params_require_positive_sigma():
    with pytest.raises(sim.ConfigError):
        pc.PassModelParams(sigma=0.0, lam=0.0)
    with pytest.raises(sim.ConfigError):
        pc.PassModelParams(sigma=-1.0, lam=0.0)


def test_params_dict_roundtrip():
    p = pc.PassModelParams(sigma=0.37, lam=-0.12)
    d = sim.config_to_dict(p)
    assert d == {"sigma": 0.37, "lambda": -0.12}
    assert sim.config_from_dict(pc.PassModelParams, d, "pass_model") == p


def test_log_likelihood_matches_direct_formula():
    rng = np.random.default_rng(3)
    params = pc.PassModelParams(sigma=0.6, lam=0.1)
    x = rng.normal(0, 1, 500)
    k = (rng.random(500) < 0.5).astype(float)
    p = pc.pass_success_probability(params, x)
    direct = float(np.mean(k * np.log(p) + (1 - k) * np.log(1 - p)))
    assert abs(pc.log_likelihood(params, x, k) - direct) < 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    x, k = pc.sample_pass_events(pc.PassModelParams(0.5, 0.1), 400, rng)
    h = 1e-6
    for sigma, lam in [(0.45, 0.0), (0.8, -0.3), (0.25, 0.6)]:
        params = pc.PassModelParams(sigma, lam)
        g = pc.log_likelihood_grad(params, x, k)
        fd_s = (pc.log_likelihood(pc.PassModelParams(sigma + h, lam), x, k)
                - pc.log_likelihood(pc.PassModelParams(sigma - h, lam), x, k)) / (2 * h)
        fd_l = (pc.log_likelihood(pc.PassModelParams(sigma, lam + h), x, k)
                - pc.log_likelihood(pc.PassModelParams(sigma, lam - h), x, k)) / (2 * h)
        assert abs(g[0] - fd_s) <= 1e-6 * max(1.0, abs(fd_s))
        assert abs(g[1] - fd_l) <= 1e-6 * max(1.0, abs(fd_l))


def test_fit_recovers_generating_parameters():
    rng = np.random.default_rng(7)
    true = pc.PassModelParams(sigma=0.5, lam=0.15)
    x, k = pc.sample_pass_events(true, 6000, rng)
    fit = pc.fit_pass_model(x, k)
    assert abs(fit.sigma - true.sigma) < 0.15 * true.sigma
    assert abs(fit.lam - true.lam) < 0.08


def test_fit_error_shrinks_with_more_data():
    true = pc.PassModelParams(sigma=0.45, lam=0.2)
    errs = []
    for n in (1000, 100000):
        rng = np.random.default_rng(42)
        x, k = pc.sample_pass_events(true, n, rng)
        fit = pc.fit_pass_model(x, k)
        errs.append(math.hypot(fit.sigma - true.sigma, fit.lam - true.lam))
    assert errs[1] < errs[0]


def test_fit_never_decreases_likelihood():
    rng = np.random.default_rng(19)
    x, k = pc.sample_pass_events(pc.PassModelParams(0.45, 0.0), 800, rng)
    init = pc.PassModelParams(sigma=2.0, lam=-1.0)
    fit = pc.fit_pass_model(x, k, init=init)
    assert pc.log_likelihood(fit, x, k) >= pc.log_likelihood(init, x, k)


def test_fit_insufficient_data():
    with pytest.raises(pc.InsufficientDataError):
        pc.fit_pass_model(np.array([]), np.array([]))
    x = np.linspace(-1, 1, 20)
    with pytest.raises(pc.InsufficientDataError):
        pc.fit_pass_model(x, np.ones(20))
    with pytest.raises(pc.InsufficientDataError):
        pc.fit_pass_model(x, np.zeros(20))


def test_fit_bad_tol_rejected():
    x, k = np.array([0.3, -0.2]), np.array([1.0, 0.0])
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(sim.ConfigError, match=(
                rf"tol: expected a finite number > 0, got {tol!r}")):
            pc.fit_pass_model(x, k, tol=tol)


def test_fit_is_deterministic():
    rng = np.random.default_rng(23)
    x, k = pc.sample_pass_events(pc.PassModelParams(0.45, 0.1), 1500, rng)
    a = pc.fit_pass_model(x, k)
    b = pc.fit_pass_model(x, k)
    assert a.sigma == b.sigma and a.lam == b.lam


def test_pass_events_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    x, k = pc.sample_pass_events(pc.PassModelParams(0.45, 0.0), 50, rng)
    path = str(tmp_path / "events.csv")
    pc.save_pass_events(path, x, k)
    x2, k2 = pc.load_pass_events(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(k, k2)


def test_pass_events_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,0\n")
    with pytest.raises(sim.ConfigError):
        pc.load_pass_events(str(path))


# -- arrival times: the field's reference oracle ---------------------------------

def arrival_time_grid(positions, max_speeds, reaction_times, targets):
    """(T, P) seconds for each player to reach each target: reaction lag
    plus a straight-line run at top speed."""
    d = np.hypot(targets[:, None, 0] - positions[None, :, 0],
                 targets[:, None, 1] - positions[None, :, 1])
    return reaction_times[None, :] + d / max_speeds[None, :]


def arrival_advantage(state, targets):
    """Per-target feature: best defender arrival time minus best attacker
    arrival time.  Positive when the attacking side gets there first."""
    tau = arrival_time_grid(state.positions, state.max_speeds,
                            state.reaction_times, targets)
    att = state.is_attacker
    return tau[:, ~att].min(axis=1) - tau[:, att].min(axis=1)


def test_arrival_time_zero_distance_is_reaction():
    st = make_state()
    tau = arrival_time_grid(st.positions, st.max_speeds, st.reaction_times,
                            st.positions)
    assert np.array_equal(np.diag(tau), st.reaction_times)


def test_arrival_time_hand_arithmetic():
    def arrival(target):   # one player at (10, 10), 8 m/s, 0.5 s lag
        return arrival_time_grid(np.array([[10.0, 10.0]]), np.array([8.0]),
                                 np.array([0.5]), np.array([target]))[0, 0]
    assert arrival((30.0, 10.0)) == 0.5 + 20.0 / 8.0
    assert arrival((30.0, 10.0)) == 3.0
    assert arrival((18.0, 10.0)) == 0.5 + 1.0


def test_arrival_time_grid_matches_scalar():
    st = make_state(n_def=2, n_att=3, seed=4)
    targets = st.scenario.pitch.cell_centers[:40]
    grid = arrival_time_grid(st.positions, st.max_speeds,
                             st.reaction_times, targets)
    for ti, (tx, ty) in enumerate(targets):
        for pi, (px, py) in enumerate(st.positions):
            scalar = (st.reaction_times[pi]
                      + math.hypot(tx - px, ty - py) / st.max_speeds[pi])
            assert abs(grid[ti, pi] - scalar) < 1e-12


# -- control field ------------------------------------------------------------

def test_field_shape_and_open_interval():
    st = make_state(n_def=3, n_att=4, seed=9)
    field = pc.compute_control_field(st, pc.PassModelParams())
    pitch = st.scenario.pitch
    assert field.shape == (pitch.grid_m, pitch.grid_n)
    assert np.all(field > 0.0) and np.all(field < 1.0)


@pytest.mark.parametrize("n_def, n_att", [(2, 3), (4, 6)])
def test_field_matches_the_arrival_advantage_logistic(
        random_action_states, n_def, n_att):
    """The separable field against the (T, P) arrival-time contract."""
    sc = sim.ScenarioConfig(n_defenders=n_def, n_attackers=n_att,
                            difficulty=0.95)
    params = pc.PassModelParams()
    pitch = sc.pitch
    n_states = 0
    for st in random_action_states(sc):
        want = pc.pass_success_probability(
            params, arrival_advantage(st, pitch.cell_centers))
        got = pc.compute_control_field(st, params)
        assert got.shape == (pitch.grid_m, pitch.grid_n)
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-13, atol=0.0)
        n_states += 1
    assert n_states > 1000


def test_complement_identity_exact():
    st = make_state(n_def=2, n_att=2, seed=1)
    params = pc.PassModelParams()
    att = pc.compute_control_field(st, params)
    deff = pc.defending_control_field(st, params)
    assert np.array_equal(deff, 1.0 - att)


def test_symmetric_duel_gives_half():
    st = make_state(n_def=1, n_att=1)
    pitch = st.scenario.pitch
    centers = pitch.cell_centers.reshape(pitch.grid_m, pitch.grid_n, 2)
    i, j = 16, 10
    c = centers[i, j]
    st.positions[0] = c + np.array([7.0, 0.0])      # outfield defender
    st.positions[st.gk_index] = [0.0, pitch.width / 2]
    att_idx = int(st.attacker_indices[0])
    st.positions[att_idx] = c - np.array([7.0, 0.0])
    st.max_speeds[:] = 8.0
    st.reaction_times[:] = 0.5
    field = pc.compute_control_field(st, pc.PassModelParams())
    assert abs(field[i, j] - 0.5) <= 1e-12


def test_defender_on_cell_dominates():
    st = make_state(n_def=1, n_att=1)
    pitch = st.scenario.pitch
    centers = pitch.cell_centers.reshape(pitch.grid_m, pitch.grid_n, 2)
    i, j = 16, 10
    c = centers[i, j]
    st.positions[0] = c
    st.positions[st.gk_index] = [0.0, pitch.width / 2]
    att_idx = int(st.attacker_indices[0])
    st.positions[att_idx] = c + np.array([40.0, 0.0])
    field = pc.compute_control_field(st, pc.PassModelParams(sigma=0.45, lam=0.0))
    assert field[i, j] < 0.01


def test_attacker_approach_monotone():
    rng = np.random.default_rng(77)
    pitch = sim.PitchSpec()
    centers = pitch.cell_centers.reshape(pitch.grid_m, pitch.grid_n, 2)
    for _ in range(200):
        st = make_state(n_def=2, n_att=2, seed=int(rng.integers(1 << 30)))
        i = int(rng.integers(pitch.grid_m))
        j = int(rng.integers(pitch.grid_n))
        c = centers[i, j]
        a = int(rng.choice(st.attacker_indices))
        before = pc.compute_control_field(st, pc.PassModelParams())[i, j]
        # pull the attacker strictly closer along the joining line
        st.positions[a] = c + (st.positions[a] - c) * rng.uniform(0.2, 0.9)
        after = pc.compute_control_field(st, pc.PassModelParams())[i, j]
        assert after >= before - 1e-15


def test_translation_consistency():
    rng = np.random.default_rng(13)
    st = make_state(n_def=2, n_att=2, seed=3)
    targets = np.array([[30.0, 30.0], [50.0, 20.0]])
    adv = arrival_advantage(st, targets)
    shift = np.array([5.0, -3.0])
    st.positions += shift
    adv2 = arrival_advantage(st, targets + shift)
    assert np.allclose(adv, adv2, atol=1e-12)
