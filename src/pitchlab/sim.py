"""Deterministic 2D football-defense environment.

Controllable defenders (plus an immobile goalkeeper) face scripted attackers
on a rectangular pitch with the defended goal on the x = 0 line.  All
randomness flows through a single seeded generator stored on the state, so a
(scenario, seed, action sequence) triple fully determines the trajectory.
"""

from __future__ import annotations

import json
import math
import os
import threading
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum, IntEnum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np


class ConfigError(ValueError):
    """Scenario or pitch parameters violate an invariant.  The base of every
    error the command line reports as a bad config or input (exit 2)."""


class RunFailure(Exception):
    """The base of every error the command line reports as a runtime
    failure (exit 3)."""


class ActionArityError(ValueError, RunFailure):
    """Number of defender actions does not match the scenario."""


class SteppedTerminalError(RuntimeError, RunFailure):
    """step() was called on a state whose episode already ended."""


class Team(Enum):
    DEFENDING = "defending"
    ATTACKING = "attacking"


@dataclass(frozen=True)
class PitchSpec:
    """Pitch geometry and the control/value grid laid over it.

    x runs along the pitch length with the defended goal centred on x = 0;
    y runs along the width.  The grid has grid_m cells along x and grid_n
    along y, sampled at cell centres.
    """

    length: float = 105.0
    width: float = 68.0
    grid_m: int = 32
    grid_n: int = 20
    goal_half_width: float = 3.66

    def __post_init__(self) -> None:
        if not (self.length > 0 and self.width > 0):
            raise ConfigError("pitch length and width must be positive")
        if self.grid_m < 2 or self.grid_n < 2:
            raise ConfigError("grid must be at least 2x2")
        if not 0 < self.goal_half_width < self.width / 2:
            raise ConfigError("goal_half_width must lie in (0, width/2)")

    @property
    def goal_center(self) -> tuple[float, float]:
        return (0.0, self.width / 2.0)

    @cached_property
    def cell_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell centres' x values (grid_m,) and y values (grid_n,)."""
        xs = (np.arange(self.grid_m) + 0.5) * (self.length / self.grid_m)
        ys = (np.arange(self.grid_n) + 0.5) * (self.width / self.grid_n)
        return _read_only(xs), _read_only(ys)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """(grid_m * grid_n, 2) cell-centre coordinates, row-major over (i, j)."""
        return _grid_product(*self.cell_axes)

    @cached_property
    def extent(self) -> np.ndarray:
        """(length, width): the far corner of the pitch."""
        return _read_only(np.array([self.length, self.width]))

    @cached_property
    def offball_candidates(self) -> "OffballCandidates":
        """The attackers' run targets: every other cell centre over the
        defensive half, with the parts of their score that never change."""
        xs, ys = self.cell_axes
        xs, ys = xs[0:max(2, self.grid_m // 2):2], ys[::2]
        cand = _grid_product(xs, ys)
        goal = self.goal_center
        d_goal = np.hypot(cand[:, 0] - goal[0], cand[:, 1] - goal[1])
        # row j: the penalty on every candidate once candidate j is claimed
        near = np.hypot(cand[None, :, 0] - cand[:, None, 0],
                        cand[None, :, 1] - cand[:, None, 1]) < 6.0
        return OffballCandidates(
            xs=xs, ys=ys, cells=cand,
            goal_pull=_read_only(d_goal / 25.0),
            claim_penalty=_read_only(1.5 * near))


class OffballCandidates(typing.NamedTuple):
    xs: np.ndarray             # (mc,) candidate x values
    ys: np.ndarray             # (nc,) candidate y values
    cells: np.ndarray          # (mc * nc, 2), row-major over (x, y)
    goal_pull: np.ndarray      # (mc * nc,) distance to goal / 25
    claim_penalty: np.ndarray  # (mc * nc, mc * nc), 1.5 within 6 m, else 0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _grid_product(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(len(xs) * len(ys), 2) points, row-major over (x, y), read-only."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return _read_only(np.stack([gx.ravel(), gy.ravel()], axis=1))


# -- kinematic constants of the simulator -------------------------------------

DT = 0.1                       # seconds per step
MAX_SPEED = 8.0                # outfield top speed, m/s
GK_CONTROL_SPEED = 0.6         # nominal GK speed used by arrival-time models
REACTION_TIME = 0.5            # seconds before a player starts moving
ATTACKER_SPEED_FACTOR = 0.95
DRIBBLE_SPEED_FACTOR = 0.85
TACKLE_RADIUS = 1.5            # press must be this close to attempt a tackle
PRESS_RADIUS = 4.0             # carrier counts as pressed inside this radius
SCORING_ZONE_DEPTH = 20.0      # shots allowed when carrier x is below this
PASS_SPEED = 16.0
SHOT_SPEED = 22.0
RECEIVE_RADIUS = 1.2           # attackers control the ball inside this
INTERCEPT_RADIUS = 0.9         # defenders win a flying ball inside this
BALL_DRAG = 0.25               # fractional speed loss per second in flight
NOISE_MAX = 0.35               # radians of aim noise at difficulty 0
TACKLE_PROB = 0.15
FOUL_PROB = 0.1
DECISION_PERIOD = 5            # steps between attacker re-decisions


@dataclass(frozen=True)
class ScenarioConfig:
    """Episode setup: team sizes, attacker difficulty, episode length and
    pitch.  The physics are the module's constants (DT, MAX_SPEED, ...)."""

    n_defenders: int = 4
    n_attackers: int = 6
    difficulty: float = 0.95
    max_episode_steps: int = 400
    pitch: PitchSpec = PitchSpec()

    def __post_init__(self) -> None:
        if self.n_defenders < 1:
            raise ConfigError("n_defenders must be >= 1")
        if self.n_attackers < 1:
            raise ConfigError("n_attackers must be >= 1")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ConfigError("difficulty must lie in [0, 1]")
        if self.max_episode_steps < 1:
            raise ConfigError("max_episode_steps must be >= 1")

    @property
    def n_players(self) -> int:
        return self.n_defenders + 1 + self.n_attackers


class DefenderAction(IntEnum):
    """Per-defender discrete action: hold, move on a compass bearing, or press."""

    STAY = 0
    MOVE_E = 1
    MOVE_NE = 2
    MOVE_N = 3
    MOVE_NW = 4
    MOVE_W = 5
    MOVE_SW = 6
    MOVE_S = 7
    MOVE_SE = 8
    PRESS = 9


N_ACTIONS = len(DefenderAction)

_D = math.sqrt(0.5)
# velocities of STAY and MOVE_E .. MOVE_SE, indexed by DefenderAction value
_MOVE_VELS = tuple((dx * MAX_SPEED, dy * MAX_SPEED) for dx, dy in (
    (0.0, 0.0),      # STAY
    (1.0, 0.0),      # E
    (_D, _D),        # NE
    (0.0, 1.0),      # N
    (-_D, _D),       # NW
    (-1.0, 0.0),     # W
    (-_D, -_D),      # SW
    (0.0, -1.0),     # S
    (_D, -_D),       # SE
))


class OutcomeKind(Enum):
    GOAL_CONCEDED = "goal_conceded"
    OUT_OF_BOUNDS = "out_of_bounds"
    TURNOVER = "turnover"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class EpisodeOutcome:
    kind: OutcomeKind
    goal_difference: int  # defending goals minus attacking goals: 0 or -1 here


@dataclass
class StepEvents:
    """Flags raised by one call to step()."""

    goal: bool = False
    out_of_bounds: bool = False
    turnover: bool = False
    tackle: bool = False
    foul: bool = False


class CarrierOption(Enum):
    DRIBBLE = "dribble"
    PASS = "pass"
    SHOOT = "shoot"


@dataclass
class AttackerIntents:
    """One scripted-attacker decision: what the carrier does and where the
    off-ball runners are heading."""

    carrier_option: Optional[CarrierOption]
    greedy_option: Optional[CarrierOption]
    available_options: tuple[CarrierOption, ...]
    pass_target: Optional[int]
    aim_point: Optional[tuple[float, float]]  # release point for PASS or SHOOT
    dribble_dir: Optional[tuple[float, float]]
    offball_targets: np.ndarray  # (n_attackers, 2)


class GameState:
    """Full kinematic snapshot; step() advances it in place.

    Player order is fixed: outfield defenders first, then the goalkeeper,
    then the attackers.  Positions/velocities live in (P, 2) arrays.
    """

    __slots__ = (
        "scenario", "positions", "velocities", "is_attacker", "gk_index",
        "max_speeds", "reaction_times", "ball_pos", "ball_vel", "carrier",
        "kick_shield", "step_index", "rng", "score_events", "terminal",
        "outcome", "intents", "intents_step", "intents_carrier", "intents_pressed",
    )

    def __init__(self, scenario: ScenarioConfig, positions: np.ndarray,
                 velocities: np.ndarray, ball_pos: np.ndarray,
                 ball_vel: np.ndarray, carrier: Optional[int],
                 rng: np.random.Generator):
        n_def = scenario.n_defenders
        P = scenario.n_players
        self.scenario = scenario
        self.positions = positions
        self.velocities = velocities
        self.gk_index = n_def
        self.is_attacker = np.zeros(P, dtype=bool)
        self.is_attacker[n_def + 1:] = True
        self.max_speeds = np.full(P, MAX_SPEED)
        self.max_speeds[self.gk_index] = GK_CONTROL_SPEED
        self.max_speeds[n_def + 1:] = MAX_SPEED * ATTACKER_SPEED_FACTOR
        self.reaction_times = np.full(P, REACTION_TIME)
        self.ball_pos = ball_pos
        self.ball_vel = ball_vel
        self.carrier = carrier
        self.kick_shield: Optional[int] = None
        self.step_index = 0
        self.rng = rng
        self.score_events: list[dict] = []
        self.terminal = False
        self.outcome: Optional[EpisodeOutcome] = None
        self.intents: Optional[AttackerIntents] = None
        self.intents_step = -1
        self.intents_carrier: Optional[int] = None
        self.intents_pressed = False

    @property
    def attacker_indices(self) -> np.ndarray:
        return np.nonzero(self.is_attacker)[0]


def reset(scenario: ScenarioConfig, seed: int) -> GameState:
    """Build the kickoff state: defenders spread in their own half, attackers
    around a kickoff formation, ball carried by an attacker on the halfway
    line.  Identical (scenario, seed) pairs produce bit-identical states.
    A negative seed raises ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed: expected an int >= 0, got {seed}")
    pitch = scenario.pitch
    L, W = pitch.length, pitch.width
    rng = np.random.default_rng(int(seed))
    n_def, n_att = scenario.n_defenders, scenario.n_attackers
    P = scenario.n_players

    positions = np.zeros((P, 2))
    velocities = np.zeros((P, 2))

    for i in range(n_def):
        base_y = W * (i + 1) / (n_def + 1)
        x = 0.22 * L + rng.uniform(-2.0, 2.0)
        y = base_y + rng.uniform(-2.0, 2.0)
        positions[i] = (min(max(x, 1.0), 0.45 * L), min(max(y, 1.0), W - 1.0))

    positions[n_def] = pitch.goal_center  # lazy goalkeeper, never moves

    first_att = n_def + 1
    positions[first_att] = (0.5 * L, 0.5 * W)
    for k in range(1, n_att):
        base_y = W * k / n_att
        x = 0.5 * L + 3.0 + 4.0 * ((k - 1) // 2) + rng.uniform(0.0, 2.0)
        y = base_y + rng.uniform(-2.0, 2.0)
        positions[first_att + k] = (min(max(x, 0.5 * L), L - 1.0), min(max(y, 1.0), W - 1.0))

    ball_pos = positions[first_att].copy()
    state = GameState(scenario, positions, velocities, ball_pos,
                      np.zeros(2), first_att, rng)
    return state


def _unit(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    if n < 1e-12:
        return 0.0, 0.0
    return x / n, y / n


def _rotate(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


def _dist_point_segment(p: Sequence[float], a: Sequence[float],
                        b: Sequence[float]) -> float:
    """Distance from point p to segment ab, each an (x, y) pair of floats."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom < 1e-12:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    t = min(max(t, 0.0), 1.0)
    return math.hypot(px - (ax + t * abx), py - (ay + t * aby))


def _segment_min_dist(points: Sequence[Sequence[float]], a: Sequence[float],
                      b: Sequence[float]) -> float:
    return min(_dist_point_segment(p, a, b) for p in points)


def attacker_policy(state: GameState, difficulty: float,
                    rng: np.random.Generator) -> AttackerIntents:
    """Scripted attacker decision for the current state.

    The carrier ranks its available options (dribble toward goal, pass to
    the best-placed teammate, shoot when inside the scoring zone) with a
    deterministic heuristic; the greedy option is taken with probability
    0.5 + 0.5 * difficulty, otherwise one of the remaining options is drawn
    uniformly.  Off-ball attackers head for the most open grid cell near
    goal.  Pure in state; consumes only `rng`.
    """
    if not 0.0 <= difficulty <= 1.0:
        raise ConfigError("difficulty must lie in [0, 1]")
    sc = state.scenario
    pitch = sc.pitch
    gx, gy = pitch.goal_center
    first_att = state.gk_index + 1

    carrier = state.carrier
    option: Optional[CarrierOption] = None
    greedy: Optional[CarrierOption] = None
    available: tuple[CarrierOption, ...] = ()
    pass_target: Optional[int] = None
    aim_point: Optional[tuple[float, float]] = None
    dribble_dir: Optional[tuple[float, float]] = None

    if carrier is not None and carrier >= first_att:
        pos = state.positions.tolist()
        def_pos = pos[:first_att]
        cpos = cx, cy = pos[carrier]
        d_goal = math.hypot(cx - gx, cy - gy)
        def_dists = [math.hypot(x - cx, y - cy) for x, y in def_pos]
        pressed_dist = min(def_dists)
        in_zone = cx <= SCORING_ZONE_DEPTH
        teammates = [j for j in range(first_att, len(pos)) if j != carrier]

        scores: dict[CarrierOption, float] = {}
        unpressed = pressed_dist > PRESS_RADIUS
        scores[CarrierOption.DRIBBLE] = 0.55 if unpressed else 0.25

        if teammates:
            best_tm, best_val = teammates[0], -math.inf
            for j in teammates:
                tpos = tx, ty = pos[j]
                tm_d_goal = math.hypot(tx - gx, ty - gy)
                openness = min(math.hypot(x - tx, y - ty) for x, y in def_pos)
                blocked = _segment_min_dist(def_pos, cpos, tpos) < 1.5
                val = (0.4 * min(max((d_goal - tm_d_goal) / 20.0, -1.0), 1.0)
                       + 0.15 * min(openness / 10.0, 1.0)
                       - (0.4 if blocked else 0.0))
                if val > best_val:
                    best_tm, best_val = j, val
            pass_target = best_tm
            scores[CarrierOption.PASS] = 0.35 + best_val

        if in_zone:
            scores[CarrierOption.SHOOT] = (
                (2.0 if unpressed else 0.0)
                + 0.4 * max(0.0, 1.0 - d_goal / (2.0 * SCORING_ZONE_DEPTH))
                + 0.6 * max(0.0, 1.0 - d_goal / 12.0)
            )

        available = tuple(o for o in CarrierOption if o in scores)
        greedy = max(available, key=lambda o: scores[o])
        if len(available) == 1:
            option = available[0]
        else:
            p_greedy = 0.5 + 0.5 * difficulty
            if rng.random() < p_greedy:
                option = greedy
            else:
                rest = [o for o in available if o is not greedy]
                option = rest[int(rng.integers(len(rest)))]

        if option is CarrierOption.SHOOT:
            margin = 0.5
            corners = [(0.0, gy - (pitch.goal_half_width - margin)),
                       (0.0, gy + (pitch.goal_half_width - margin))]
            gaps = [_segment_min_dist(def_pos, cpos, c) for c in corners]
            aim_point = corners[0] if gaps[0] >= gaps[1] else corners[1]
        elif option is CarrierOption.PASS:
            tx, ty = pos[pass_target]
            tvx, tvy = state.velocities[pass_target].tolist()
            flight = math.hypot(tx - cx, ty - cy) / PASS_SPEED
            # lead the runner half a flight
            aim_point = (tx + 0.5 * flight * tvx, ty + 0.5 * flight * tvy)
        else:
            bx, by = _unit(gx - cx, gy - cy)
            if pressed_dist <= PRESS_RADIUS:
                nx, ny = def_pos[def_dists.index(pressed_dist)]
                dx, dy = _unit(nx - cx, ny - cy)
                if bx * dx + by * dy > 0.5:
                    side = -1.0 if bx * dy - by * dx > 0 else 1.0
                    bx, by = _rotate(bx, by, side * 0.7)
            dribble_dir = (bx, by)

    offball = _offball_targets(state)
    return AttackerIntents(
        carrier_option=option,
        greedy_option=greedy,
        available_options=available,
        pass_target=pass_target,
        aim_point=aim_point,
        dribble_dir=dribble_dir,
        offball_targets=offball,
    )


def _offball_targets(state: GameState) -> np.ndarray:
    """Pick a run target per attacker: the candidate cell (coarse grid over
    the defensive half) where they out-arrive every defender, pulled toward
    goal, avoiding targets already claimed by earlier teammates."""
    cands = state.scenario.pitch.offball_candidates
    cand = cands.cells
    pos = state.positions
    P = len(pos)
    # (P, mc, nc) arrival times, separable over the candidates' x and y
    tau = np.hypot((cands.xs - pos[:, 0:1])[:, :, None],
                   (cands.ys - pos[:, 1:2])[:, None, :])
    tau /= state.max_speeds[:, None, None]
    tau += state.reaction_times[:, None, None]
    tau = tau.reshape(P, -1)
    first_att = state.gk_index + 1
    tau_def = tau[:first_att].min(axis=0)

    ball_x = float(state.ball_pos[0])
    # stay connected to the play: punish runs far ahead of the ball
    tether = np.abs(cand[:, 0] - ball_x) / 30.0
    targets = np.zeros((P - first_att, 2))
    claimed: list[int] = []
    for k in range(P - first_att):
        score = (tau_def - tau[first_att + k]) - cands.goal_pull - tether
        for c in claimed:
            score = score - cands.claim_penalty[c]
        best = int(np.argmax(score))
        targets[k] = cand[best]
        claimed.append(best)
    return targets


def step(state: GameState, actions: Sequence[int]) -> tuple[GameState, StepEvents]:
    """Advance one tick: defenders move per their actions, attackers per the
    scripted policy, the ball with its carrier or along its flight.  Returns
    the (mutated) state and the events raised during the tick."""
    if state.terminal:
        raise SteppedTerminalError("episode already ended; reset() for a new one")
    sc = state.scenario
    n_def = sc.n_defenders
    if len(actions) != n_def:
        raise ActionArityError(f"expected {n_def} actions, got {len(actions)}")

    pitch = sc.pitch
    rng = state.rng
    events = StepEvents()
    pos = state.positions
    vel = state.velocities

    # -- defender velocities ------------------------------------------------
    first_att = state.gk_index + 1
    xy = pos.tolist()   # positions hold still until the integration below
    pressers: list[int] = []
    rows = []
    for i in range(n_def):
        a = DefenderAction(actions[i])
        if a is DefenderAction.PRESS:
            pressers.append(i)
            tx, ty = xy[state.carrier] if state.carrier is not None \
                else state.ball_pos.tolist()
            ux, uy = _unit(tx - xy[i][0], ty - xy[i][1])
            rows.append((ux * MAX_SPEED, uy * MAX_SPEED))
        else:
            rows.append(_MOVE_VELS[a.value])
    rows.append((0.0, 0.0))   # the goalkeeper
    vel[:first_att] = rows

    # -- attacker decisions (held while a pass or shot is in flight) ---------
    pressed_now = False
    if state.carrier is not None:
        cx, cy = xy[state.carrier]
        pressed_now = any(math.hypot(x - cx, y - cy) <= PRESS_RADIUS
                          for x, y in xy[:first_att])
    needs_refresh = state.intents is None or (
        state.carrier is not None
        and (state.carrier != state.intents_carrier
             or pressed_now != state.intents_pressed  # react to a press event
             or state.step_index - state.intents_step >= DECISION_PERIOD)
    )
    if needs_refresh:
        state.intents = attacker_policy(state, sc.difficulty, rng)
        state.intents_step = state.step_index
        state.intents_carrier = state.carrier
        state.intents_pressed = pressed_now
        intents = state.intents
        # release the ball on a fresh pass/shoot decision
        if intents.carrier_option in (CarrierOption.PASS, CarrierOption.SHOOT) \
                and state.carrier is not None:
            cx, cy = xy[state.carrier]
            ax, ay = intents.aim_point
            noise = (1.0 - sc.difficulty) * NOISE_MAX
            dx, dy = _rotate(*_unit(ax - cx, ay - cy), rng.normal(0.0, noise))
            speed = SHOT_SPEED if intents.carrier_option is CarrierOption.SHOOT \
                else PASS_SPEED
            state.ball_vel = np.array([dx * speed, dy * speed])
            state.kick_shield = state.carrier  # kicker cannot re-catch instantly
            state.carrier = None
            state.intents_carrier = None
    intents = state.intents

    # -- attacker velocities ------------------------------------------------
    att_speed = MAX_SPEED * ATTACKER_SPEED_FACTOR
    ball_flying = state.carrier is None
    targets = intents.offball_targets.tolist()
    gx, gy = pitch.goal_center
    rows = []
    for k, (px, py) in enumerate(xy[first_att:]):
        idx = first_att + k
        if idx == state.carrier:
            dx, dy = intents.dribble_dir or _unit(gx - px, gy - py)
            rows.append((dx * att_speed * DRIBBLE_SPEED_FACTOR,
                         dy * att_speed * DRIBBLE_SPEED_FACTOR))
        elif (ball_flying and intents.carrier_option is CarrierOption.PASS
                and intents.pass_target == idx):
            # intended receiver runs to meet the pass
            (bx, by), (bvx, bvy) = state.ball_pos.tolist(), state.ball_vel.tolist()
            dx, dy = _unit(bx + 0.3 * bvx - px, by + 0.3 * bvy - py)
            rows.append((dx * att_speed, dy * att_speed))
        else:
            tx, ty = targets[k][0] - px, targets[k][1] - py
            dx, dy = _unit(tx, ty) if math.hypot(tx, ty) > 0.5 else (0.0, 0.0)
            rows.append((dx * att_speed, dy * att_speed))
    vel[first_att:] = rows

    # -- integrate player positions (containment clamp) ----------------------
    pos += vel * DT
    np.maximum(0.0, pos, out=pos)   # this operand order keeps a -0.0, as clip does
    np.minimum(pos, pitch.extent, out=pos)

    # -- ball ----------------------------------------------------------------
    if state.carrier is not None:
        state.ball_pos = pos[state.carrier].copy()
        state.ball_vel = vel[state.carrier].copy()
    else:
        old = state.ball_pos
        new = old + state.ball_vel * DT
        delta = new - old

        # fraction of the segment inside the pitch
        t_exit = 1.0
        if delta[0] < 0.0 and new[0] < 0.0:
            t_exit = min(t_exit, old[0] / -delta[0])
        elif delta[0] > 0.0 and new[0] > pitch.length:
            t_exit = min(t_exit, (pitch.length - old[0]) / delta[0])
        if delta[1] < 0.0 and new[1] < 0.0:
            t_exit = min(t_exit, old[1] / -delta[1])
        elif delta[1] > 0.0 and new[1] > pitch.width:
            t_exit = min(t_exit, (pitch.width - old[1]) / delta[1])
        end = old + t_exit * delta

        # interception: swept distance from every player to the in-pitch
        # segment, so a fast ball cannot tunnel past a body between ticks
        seg = end - old
        seg_sq = float(seg @ seg)
        rel = pos - old
        if seg_sq > 0.0:
            tt = np.clip((rel @ seg) / seg_sq, 0.0, 1.0)
        else:
            tt = np.zeros(len(pos))
        nearest_pts = old + tt[:, None] * seg
        d = np.hypot(pos[:, 0] - nearest_pts[:, 0], pos[:, 1] - nearest_pts[:, 1])
        if state.kick_shield is not None:
            if d[state.kick_shield] > RECEIVE_RADIUS:
                state.kick_shield = None
            else:
                d[state.kick_shield] = np.inf
        radii = np.where(state.is_attacker, RECEIVE_RADIUS, INTERCEPT_RADIUS)
        close = np.nonzero(d <= radii)[0]
        if len(close):
            nearest = int(close[np.argmin(tt[close])])  # first along the path
            state.kick_shield = None
            if state.is_attacker[nearest]:
                state.carrier = nearest
                state.ball_pos = pos[nearest].copy()
                state.ball_vel = vel[nearest].copy()
            else:
                events.turnover = True
                state.ball_pos = pos[nearest].copy()
                _terminate(state, OutcomeKind.TURNOVER)
        elif t_exit < 1.0:
            cy = pitch.width / 2.0
            if delta[0] < 0.0 and end[0] <= 1e-9 \
                    and abs(end[1] - cy) <= pitch.goal_half_width:
                events.goal = True
                state.score_events.append(
                    {"step": state.step_index, "team": Team.ATTACKING.value})
                _terminate(state, OutcomeKind.GOAL_CONCEDED)
            else:
                events.out_of_bounds = True
                _terminate(state, OutcomeKind.OUT_OF_BOUNDS)
            state.ball_pos = end
        else:
            state.ball_pos = new
            state.ball_vel = state.ball_vel * max(0.0, 1.0 - BALL_DRAG * DT)

    # -- press tackles -------------------------------------------------------
    if not state.terminal and state.carrier is not None:
        cx, cy = pos[state.carrier].tolist()
        for i in pressers:
            x, y = pos[i].tolist()
            if math.hypot(x - cx, y - cy) > TACKLE_RADIUS:
                continue
            if rng.random() < TACKLE_PROB:
                events.tackle = True
                events.turnover = True
                _terminate(state, OutcomeKind.TURNOVER)
                break
            if rng.random() < FOUL_PROB:
                events.foul = True
                events.turnover = True
                _terminate(state, OutcomeKind.TURNOVER)
                break

    state.step_index += 1
    if not state.terminal and state.step_index >= sc.max_episode_steps:
        _terminate(state, OutcomeKind.STEP_LIMIT)
    return state, events


def _terminate(state: GameState, kind: OutcomeKind) -> None:
    gd = -1 if kind is OutcomeKind.GOAL_CONCEDED else 0
    state.terminal = True
    state.outcome = EpisodeOutcome(kind=kind, goal_difference=gd)


def observation_length(scenario: ScenarioConfig) -> int:
    return scenario.n_players * 5 + 4


def observe(state: GameState) -> np.ndarray:
    """Flat observation: per player (x, y, vx, vy), then ball (x, y, vx, vy),
    then a carrier one-hot.  Positions map to [-1, 1] over the pitch, speeds
    are scaled by the relevant top speed."""
    sc = state.scenario
    pitch = sc.pitch
    P = sc.n_players
    out = np.empty(P * 4 + 4 + P)
    pos, vel = state.positions, state.velocities
    out[0:P * 4:4] = 2.0 * pos[:, 0] / pitch.length - 1.0
    out[1:P * 4:4] = 2.0 * pos[:, 1] / pitch.width - 1.0
    out[2:P * 4:4] = vel[:, 0] / MAX_SPEED
    out[3:P * 4:4] = vel[:, 1] / MAX_SPEED
    b = P * 4
    out[b] = 2.0 * state.ball_pos[0] / pitch.length - 1.0
    out[b + 1] = 2.0 * state.ball_pos[1] / pitch.width - 1.0
    out[b + 2] = state.ball_vel[0] / SHOT_SPEED
    out[b + 3] = state.ball_vel[1] / SHOT_SPEED
    out[b + 4:] = 0.0
    if state.carrier is not None:
        out[b + 4 + state.carrier] = 1.0
    return out


# -- serialization -----------------------------------------------------------

def config_to_dict(obj) -> dict:
    """JSON-ready dict of a config dataclass, keys in field order.  Nested
    dataclasses become dicts, enums their values and tuples lists; a field
    whose metadata has a "key" is written under that key."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[f.metadata.get("key", f.name)] = value
    return out


def config_from_dict(cls, doc, path: str):
    """Inverse of config_to_dict: build dataclass `cls` from a parsed
    YAML/JSON mapping, checking it against the field annotations.

    Absent fields take their dataclass default; a field without one is
    required.  Nested dataclasses, enums (by value), `tuple[T, ...]` (from
    a list), int, float and str are checked strictly: an unknown key at
    any level, a wrong type (a bool is neither an int nor a float) and a
    non-finite float are all rejected.  Ints given for float fields are
    stored as floats.  Every error is a ConfigError that starts with the
    dotted path of the offending field below `path`, e.g. `train.hidden`;
    range checks are left to each class's __post_init__.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, "
                          f"got {type(doc).__name__}")
    prefix = f"{path}." if path else ""
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = sorted(set(doc) - set(by_key), key=str)
    if unknown:
        raise ConfigError(f"{', '.join(f'{prefix}{k}' for k in unknown)}: "
                          f"unknown field")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in by_key.items():
        if key in doc:
            kwargs[f.name] = _decode(hints[f.name], doc[key], prefix + key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{key}: missing field")
    try:
        return cls(**kwargs)
    except ConfigError as e:
        if not path:
            raise
        raise ConfigError(f"{path}: {e}") from None


def _decode(tp, value, path: str):
    if is_dataclass(tp):
        return config_from_dict(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ConfigError(f"{path}: expected one of "
                              f"{[m.value for m in tp]}, got {value!r}") from None
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, "
                              f"got {type(value).__name__} {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {tp.__name__}, "
                          f"got {type(value).__name__} {value!r}")
    if tp is float:
        try:
            value = float(value)
        except OverflowError:   # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite float, got {value!r}")
    return value


def is_finite_number(value) -> bool:
    """True for an int or float (not a bool) that is finite as a float."""
    try:   # an OverflowError for an int beyond the float range
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def read_text(path: str, error: type[Exception] = ConfigError) -> str:
    """The whole text of the UTF-8 file at `path`, newlines translated to
    "\n".  Bytes that are not UTF-8 raise `error` naming the file, the way
    each reader reports a file it cannot parse."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte "
                    f"{e.start})") from None


@contextmanager
def open_atomic(path: str, mode: str = "w", **open_kw):
    """A file opened (with `mode` and `open_kw`) as a temporary beside
    `path`, which os.replace moves over `path` when the block ends without
    an exception; otherwise the temporary is removed, so a write that fails
    midway leaves the old file intact.  An OSError on the temporary, in
    opening or replacing it, names `path` instead."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, **open_kw) as f:
            yield f
        os.replace(tmp, path)
    except OSError as e:
        if e.filename != tmp:
            raise
        raise OSError(e.errno, e.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json_atomic(path: str, doc, **dump_kw) -> None:
    """json.dump `doc` (with `dump_kw`) to `path` through open_atomic."""
    with open_atomic(path) as f:
        json.dump(doc, f, **dump_kw)


def save_state(state: GameState, path: str) -> None:
    """Write a JSON snapshot (kinematics, rng, bookkeeping).  Cached attacker
    decisions are not stored; they are recomputed on the next step."""
    write_json_atomic(path, {
        "version": 1,
        "scenario": config_to_dict(state.scenario),
        "positions": state.positions.tolist(),
        "velocities": state.velocities.tolist(),
        "ball_pos": state.ball_pos.tolist(),
        "ball_vel": state.ball_vel.tolist(),
        "carrier": state.carrier,
        "kick_shield": state.kick_shield,
        "step_index": state.step_index,
        "score_events": state.score_events,
        "terminal": state.terminal,
        "outcome": None if state.outcome is None else {
            "kind": state.outcome.kind.value,
            "goal_difference": state.outcome.goal_difference,
        },
        "rng_state": state.rng.bit_generator.state,
    })


def _is_int_in(value, lo: int, hi: int) -> bool:
    return type(value) is int and lo <= value < hi


def _is_outcome(value) -> bool:
    if not isinstance(value, dict) or set(value) != {"kind", "goal_difference"}:
        return False
    gd = -1 if value["kind"] == OutcomeKind.GOAL_CONCEDED.value else 0
    return (value["kind"] in {k.value for k in OutcomeKind}
            and _is_int_in(value["goal_difference"], gd, gd + 1))


def load_state(path: str) -> GameState:
    """Read a file written by save_state, checking every field against the
    scenario it carries.  Any violation raises ConfigError naming the file
    and the field."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ConfigError(f"unsupported state file version in {path}")
    fields = {"version", "scenario", "positions", "velocities", "ball_pos",
              "ball_vel", "carrier", "kick_shield", "step_index",
              "score_events", "terminal", "outcome", "rng_state"}
    if set(doc) != fields:
        key = sorted(set(doc) ^ fields)[0]
        raise ConfigError(f"{path}: {key}: "
                          f"{'unknown' if key in doc else 'missing'} field")
    try:
        sc = config_from_dict(ScenarioConfig, doc["scenario"], "scenario")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None

    def require(ok: bool, key: str, what: str) -> None:
        if not ok:
            raise ConfigError(f"{path}: {key}: expected {what}, "
                              f"got {json.dumps(doc[key])[:60]}")

    P, T = sc.n_players, sc.max_episode_steps
    for key, shape in (("positions", (P, 2)), ("velocities", (P, 2)),
                       ("ball_pos", (2,)), ("ball_vel", (2,))):
        try:
            arr = np.array(doc[key], dtype=float)
        except (TypeError, ValueError):
            arr = np.array(np.nan)
        require(arr.shape == shape and np.isfinite(arr).all(), key,
                f"a {shape} array of finite numbers")
    for key in ("carrier", "kick_shield"):
        require(doc[key] is None or _is_int_in(doc[key], 0, P), key,
                f"null or a player index below {P}")
    require(_is_int_in(doc["step_index"], 0, T + 1), "step_index",
            f"an int in [0, {T}]")
    require(isinstance(doc["score_events"], list)
            and all(isinstance(e, dict) for e in doc["score_events"]),
            "score_events", "a list of objects")
    require(type(doc["terminal"]) is bool, "terminal", "true or false")
    require(_is_outcome(doc["outcome"]) if doc["terminal"]
            else doc["outcome"] is None, "outcome",
            "null for a live state, else a kind and its goal difference")
    rng = np.random.default_rng(0)
    try:   # json round-trips the big PCG64 integers as ints already
        rng.bit_generator.state = doc["rng_state"]
        same = rng.bit_generator.state == doc["rng_state"]
    except (TypeError, ValueError, KeyError, OverflowError):
        same = False
    require(same, "rng_state", "a PCG64 bit-generator state")
    state = GameState(sc, *(np.array(doc[k], dtype=float) for k in
                            ("positions", "velocities", "ball_pos", "ball_vel")),
                      doc["carrier"], rng)
    state.kick_shield = doc["kick_shield"]
    state.step_index = doc["step_index"]
    state.score_events = doc["score_events"]
    state.terminal = doc["terminal"]
    if doc["outcome"] is not None:
        state.outcome = EpisodeOutcome(OutcomeKind(doc["outcome"]["kind"]),
                                       doc["outcome"]["goal_difference"])
    return state


def snapshot(state: GameState) -> dict:
    """Compact JSON-able view of the state, used for trajectory dumps."""
    return {
        "step": state.step_index,
        "positions": [[round(float(x), 6) for x in row] for row in state.positions],
        "ball": [round(float(x), 6) for x in state.ball_pos],
        "carrier": state.carrier,
        "terminal": state.terminal,
    }

