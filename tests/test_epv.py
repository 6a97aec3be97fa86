import hashlib
import math

import numpy as np
import pytest

from pitchlab import epv
from pitchlab.sim import ConfigError, PitchSpec


def single_cell_chain(shot, score, self_move=0.0):
    turnover = 1.0 - shot - self_move
    move = np.zeros((1, 1, 5))
    move[0, 0, epv.SELF] = self_move
    return epv.PossessionChain(
        move=move,
        shot=np.array([[shot]]),
        score=np.array([[score]]),
        turnover=np.array([[turnover]]),
    )


def random_chain(m, n, rng, min_leak=0.05):
    """Valid chain with at least min_leak absorbing mass per cell."""
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
    """Direct solution of (I - M) V = shot*score, cells flattened row-major."""
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


# -- chain validation ----------------------------------------------------------

def test_rejects_negative_probability():
    with pytest.raises(epv.NonStochasticChainError):
        single_cell_chain(shot=-0.1, score=0.5)


def test_rejects_bad_total():
    move = np.zeros((1, 1, 5))
    with pytest.raises(epv.NonStochasticChainError):
        epv.PossessionChain(move=move, shot=np.array([[0.5]]),
                            score=np.array([[0.5]]),
                            turnover=np.array([[0.4]]))


def test_rejects_score_above_one():
    with pytest.raises(epv.NonStochasticChainError):
        single_cell_chain(shot=0.5, score=1.2)


def test_rejects_off_grid_moves():
    move = np.zeros((2, 2, 5))
    move[:, :, epv.SELF] = 0.5
    move[1, 0, epv.XP] = 0.2   # off the +x edge
    move[1, 0, epv.SELF] = 0.3
    shot = np.full((2, 2), 0.3)
    turnover = 1.0 - move.sum(axis=2) - shot
    with pytest.raises(epv.NonStochasticChainError):
        epv.PossessionChain(move=move, shot=shot,
                            score=np.full((2, 2), 0.5), turnover=turnover)


def test_solve_revalidates_mutated_chain():
    chain = single_cell_chain(shot=0.5, score=0.5, self_move=0.3)
    chain.move[0, 0, epv.SELF] = 0.9   # frozen dataclass, mutable array
    with pytest.raises(epv.NonStochasticChainError):
        epv.solve_epv(chain)


# -- solver --------------------------------------------------------------------

def test_single_cell_one_step_absorption():
    v = epv.solve_epv(single_cell_chain(shot=1.0, score=0.3))
    assert abs(v[0, 0] - 0.3) < 1e-12


def test_deterministic_transfer():
    # cell (0,0) moves to (1,0) with probability 1; (1,0) shoots, q=0.2
    move = np.zeros((2, 1, 5))
    move[0, 0, epv.XP] = 1.0
    shot = np.array([[0.0], [1.0]])
    score = np.array([[0.0], [0.2]])
    turnover = np.array([[0.0], [0.0]])
    chain = epv.PossessionChain(move=move, shot=shot, score=score,
                                turnover=turnover)
    v = epv.solve_epv(chain)
    assert abs(v[0, 0] - 0.2) < 1e-12
    assert abs(v[1, 0] - 0.2) < 1e-12


def test_self_loop_geometric_series():
    # V = s*q + p*V  =>  V = s*q / (1 - p)
    chain = single_cell_chain(shot=0.3, score=0.5, self_move=0.6)
    v = epv.solve_epv(chain, tol=1e-13)
    assert abs(v[0, 0] - 0.3 * 0.5 / (1 - 0.6)) < 1e-11


def test_matches_direct_linear_solve():
    rng = np.random.default_rng(101)
    for _ in range(10):
        chain = random_chain(3, 3, rng)
        v = epv.solve_epv(chain, tol=1e-12)
        ref = linear_solve(chain)
        assert np.max(np.abs(v - ref)) < 1e-10


def test_values_in_unit_interval_and_monotone_iteration():
    rng = np.random.default_rng(55)
    chain = random_chain(4, 4, rng)
    v = epv.solve_epv(chain)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(epv, "MAX_SWEEPS", 3)
    chain = single_cell_chain(shot=0.3, score=0.5, self_move=0.6)
    with pytest.raises(epv.ValueIterationError, match="after 3 sweeps"):
        epv.solve_epv(chain, tol=1e-13)


def test_bad_tol_rejected():
    chain = single_cell_chain(shot=1.0, score=0.3)
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match=(
                rf"tol: expected a finite number > 0, got {tol!r}")):
            epv.solve_epv(chain, tol=tol)


# -- default chain ---------------------------------------------------------------

def test_default_chain_is_valid():
    chain = epv.default_chain(PitchSpec())
    chain.validate()


def test_default_chain_goal_mouth_has_max_shot():
    chain = epv.default_chain(PitchSpec())
    m, n = chain.shape
    # cells nearest the goal mouth sit at i=0, central j
    best = np.unravel_index(np.argmax(chain.shot), (m, n))
    assert best[0] == 0
    assert best[1] in (n // 2 - 1, n // 2)


def test_default_chain_mirror_symmetry_exact():
    chain = epv.default_chain(PitchSpec())
    assert np.array_equal(chain.shot, chain.shot[:, ::-1])
    assert np.array_equal(chain.score, chain.score[:, ::-1])
    assert np.array_equal(chain.turnover, chain.turnover[:, ::-1])


def test_default_chain_epv_grid_is_pinned():
    values = epv.solve_epv(epv.default_chain(PitchSpec()))
    assert values.dtype == np.float64
    assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == \
        "e3b4c504739c42e5c36a8ace852de8f7fcb90415c0fac563ff12fdd4e04e476e"
    assert float(values.max()) == 0.2984972071563193
    assert float(values.sum()) == 14.480264106684812


def test_default_chain_epv_decreasing_along_center_line():
    pitch = PitchSpec()
    values = epv.solve_epv(epv.default_chain(pitch))
    mid = pitch.grid_n // 2
    center = values[:, mid]
    assert np.all(np.diff(center) < 0)
    # sweep order costs a few ulp of mirror symmetry in the solution
    assert np.allclose(values, values[:, ::-1], rtol=0, atol=1e-12)


# -- game-state contraction ------------------------------------------------------

def test_game_state_epv_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, n = rng.integers(1, 12, 2)
        grid = rng.uniform(0, 1, (m, n))
        field = rng.uniform(0, 1, (m, n))
        total = 0.0
        for i in range(m):
            for j in range(n):
                total += grid[i, j] * field[i, j]
        assert abs(epv.game_state_epv(field, grid) - total) < 1e-12


def test_game_state_epv_tagged_examples():
    grid = np.array([[0.1, 0.2], [0.3, 0.4]])
    ones = np.ones((2, 2))
    assert epv.game_state_epv(ones, grid) == float(np.sum(grid))
    assert epv.game_state_epv(np.zeros((2, 2)), grid) == 0.0
    a = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert epv.game_state_epv(a, grid) == 0.1 * 1.0 + 0.4 * 0.5
    assert abs(epv.game_state_epv(a, grid) - 0.30) < 1e-12


def test_game_state_epv_linearity():
    rng = np.random.default_rng(14)
    grid = rng.uniform(0, 1, (5, 7))
    a = rng.uniform(0, 1, (5, 7))
    b = rng.uniform(0, 1, (5, 7))
    for alpha in (0.0, 0.25, 0.7, 1.0):
        mix = alpha * a + (1 - alpha) * b
        expect = alpha * epv.game_state_epv(a, grid) \
            + (1 - alpha) * epv.game_state_epv(b, grid)
        assert abs(epv.game_state_epv(mix, grid) - expect) < 1e-10


def test_game_state_epv_monotone_in_field():
    rng = np.random.default_rng(15)
    grid = rng.uniform(0, 1, (4, 4))
    a = rng.uniform(0, 0.5, (4, 4))
    bigger = a + rng.uniform(0, 0.5, (4, 4))
    assert epv.game_state_epv(bigger, grid) >= epv.game_state_epv(a, grid)


def test_game_state_epv_dimension_mismatch():
    with pytest.raises(epv.DimensionMismatchError):
        epv.game_state_epv(np.ones((3, 4)), np.ones((4, 3)))


# -- grid files -------------------------------------------------------------------

def test_grid_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(2)
    pitch = PitchSpec()
    values = rng.uniform(0, 1, (pitch.grid_m, pitch.grid_n))
    path = str(tmp_path / "grid.json")
    epv.save_epv_grid(path, values, pitch)
    loaded, geom = epv.load_epv_grid(path)
    assert np.array_equal(loaded, values)
    assert geom["length"] == pitch.length
    assert geom["width"] == pitch.width


def test_grid_file_errors(tmp_path):
    import json
    import re
    pitch = PitchSpec()
    good = {
        "version": 1, "length": pitch.length, "width": pitch.width,
        "goal_half_width": pitch.goal_half_width, "m": 2, "n": 2,
        "values": [0.1, 0.2, 0.3, 0.4],
    }

    def write(doc, name):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    bad_version = dict(good, version=9)
    with pytest.raises(epv.FormatError):
        epv.load_epv_grid(write(bad_version, "v.json"))

    missing = dict(good)
    del missing["width"]
    with pytest.raises(epv.FormatError):
        epv.load_epv_grid(write(missing, "k.json"))

    short = dict(good, values=[0.1, 0.2, 0.3])
    with pytest.raises(epv.FormatError):
        epv.load_epv_grid(write(short, "a.json"))

    out_of_range = dict(good, values=[0.1, 0.2, 0.3, 1.2])
    with pytest.raises(epv.FormatError):
        epv.load_epv_grid(write(out_of_range, "r.json"))

    notjson = tmp_path / "x.json"
    notjson.write_text("{nope")
    with pytest.raises(epv.FormatError):
        epv.load_epv_grid(str(notjson))

    # each of these names the file and the offending field
    for i, (change, field) in enumerate([
            ({"values": [float("nan"), 0.2, 0.3, 0.4]}, "values[0]"),
            ({"values": [0.1, float("inf"), 0.3, 0.4]}, "values[1]"),
            ({"values": [0.1, 0.2, True, 0.4]}, "values[2]"),
            ({"values": [0.1, 0.2, 0.3, "0.4"]}, "values[3]"),
            ({"length": "105"}, "length"),
            ({"width": None}, "width"),
            ({"goal_half_width": 10**400}, "goal_half_width"),
            ({"m": -32, "n": -20, "values": []}, "m"),
            ({"n": 0, "values": []}, "n"),
            ({"m": 2.0}, "m"),
            ({"n": True}, "n"),
            ({"m": "2"}, "m"),
            ({"units": "metres"}, "units"),
            ({"version": True}, "version"),
            ({"version": 1.0}, "version"),
    ]):
        path = write(dict(good, **change), f"bad{i}.json")
        with pytest.raises(epv.FormatError,
                           match="^" + re.escape(f"{path}: {field}: ")):
            epv.load_epv_grid(path)


def test_save_rejects_out_of_range(tmp_path):
    with pytest.raises(epv.FormatError):
        epv.save_epv_grid(str(tmp_path / "bad.json"),
                          np.array([[1.5]]), PitchSpec())
