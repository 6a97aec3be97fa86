"""Expected possession value over the pitch grid.

Possession is modelled as a Markov chain on grid cells: from each cell the
attacking side either moves the ball to a 4-neighbour (or keeps it in
place), shoots, or loses it.  The value of a cell is the probability the
possession eventually produces a goal, found by value iteration; turnover,
scoring, and missed shots are absorbing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .sim import (ConfigError, PitchSpec, is_finite_number, read_text,
                  write_json_atomic)

# move-slot order along the last axis of PossessionChain.move
SELF, XP, XM, YP, YM = 0, 1, 2, 3, 4


class NonStochasticChainError(ValueError):
    """Per-cell probabilities fail to form a distribution."""


class DimensionMismatchError(ValueError):
    """Field and grid dimensions disagree."""


class FormatError(ValueError):
    """A value-grid file is malformed."""


class ValueIterationError(RuntimeError):
    """Value iteration failed to converge."""


@dataclass(frozen=True)
class PossessionChain:
    """Cellwise transition model of one possession.

    move : (m, n, 5) probabilities for [stay, +x, -x, +y, -y].
    shot : (m, n) probability of shooting from the cell.
    score : (m, n) probability a shot from the cell scores.
    turnover : (m, n) probability the possession dies in the cell.

    For every cell, move.sum + shot + turnover must equal 1, and moves
    pointing off the grid must be exactly zero.
    """

    move: np.ndarray
    shot: np.ndarray
    score: np.ndarray
    turnover: np.ndarray

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        m, n = self.shot.shape
        if self.move.shape != (m, n, 5):
            raise NonStochasticChainError(
                f"move must have shape {(m, n, 5)}, got {self.move.shape}")
        if self.score.shape != (m, n) or self.turnover.shape != (m, n):
            raise NonStochasticChainError("score/turnover shape mismatch")
        if np.any(self.move < 0) or np.any(self.shot < 0) or np.any(self.turnover < 0):
            raise NonStochasticChainError("negative probabilities")
        if np.any(self.score < 0) or np.any(self.score > 1):
            raise NonStochasticChainError("score probabilities must lie in [0, 1]")
        total = self.move.sum(axis=2) + self.shot + self.turnover
        if np.max(np.abs(total - 1.0)) > 1e-9:
            worst = np.unravel_index(np.argmax(np.abs(total - 1.0)), total.shape)
            raise NonStochasticChainError(
                f"cell {worst} probabilities sum to {total[worst]:.12f}, expected 1")
        if (np.any(self.move[m - 1, :, XP] != 0) or np.any(self.move[0, :, XM] != 0)
                or np.any(self.move[:, n - 1, YP] != 0) or np.any(self.move[:, 0, YM] != 0)):
            raise NonStochasticChainError("off-grid move probabilities must be zero")

    @property
    def shape(self) -> tuple[int, int]:
        return self.shot.shape


def default_chain(pitch: PitchSpec, *, s_max: float = 0.9, d_scale: float = 12.0,
                  u0: float = 0.04, q_min: float = 0.02,
                  q_max: float = 0.35) -> PossessionChain:
    """Geometry-driven chain for a pitch.

    Shot probability decays exponentially with distance to the goal centre;
    score-given-shot grows with the angle the goal mouth subtends from the
    cell; movement prefers the goalward (-x) direction, with blocked border
    moves folded into staying put so edge cells stay properly stochastic.

    Offsets from the goal are built symmetrically about the long axis, so
    mirrored cells get bit-identical s, q, and u.
    """
    m, n = pitch.grid_m, pitch.grid_n
    # dx: distance along x from the goal line; dy: signed offset from the
    # long axis, computed as (j + 0.5 - n/2) * cell so mirror pairs negate
    dx = (np.arange(m) + 0.5) * (pitch.length / m)
    dy = (np.arange(n) + 0.5 - n / 2.0) * (pitch.width / n)
    d = np.hypot(dx[:, None], dy[None, :])
    shot = s_max * np.exp(-d / d_scale)

    # angle subtended by the goal mouth, relative to a near-goal reference
    hw = pitch.goal_half_width
    v1 = np.arctan2(hw - dy[None, :], dx[:, None])
    v2 = np.arctan2(-hw - dy[None, :], dx[:, None])
    theta = np.abs(v1 - v2)
    theta_ref = 2.0 * math.atan2(hw, 1.6)
    score = q_min + (q_max - q_min) * np.clip(theta / theta_ref, 0.0, 1.0)

    turnover = np.full((m, n), u0)
    budget = 1.0 - shot - turnover
    if np.any(budget <= 0):
        raise NonStochasticChainError("shot + turnover exceed 1 somewhere")

    w = np.empty((m, n, 5))
    w[..., SELF] = 0.20
    w[..., XP] = 0.10   # away from goal
    w[..., XM] = 0.40   # toward goal
    w[..., YP] = 0.15
    w[..., YM] = 0.15
    # fold blocked directions into staying put
    w[m - 1, :, SELF] += w[m - 1, :, XP]
    w[m - 1, :, XP] = 0.0
    w[0, :, SELF] += w[0, :, XM]
    w[0, :, XM] = 0.0
    w[:, n - 1, SELF] += w[:, n - 1, YP]
    w[:, n - 1, YP] = 0.0
    w[:, 0, SELF] += w[:, 0, YM]
    w[:, 0, YM] = 0.0

    move = w * budget[..., None]
    return PossessionChain(move=move, shot=shot, score=score, turnover=turnover)


def solve_epv(chain: PossessionChain, *, tol: float = 1e-8,
              max_iter: int = 200000) -> np.ndarray:
    """Fixed point of V = shot*score + sum_d move_d * shift_d(V).

    Plain synchronous value iteration from V = 0; iterates are pointwise
    nondecreasing and bounded by 1, and the chain contracts because every
    cell leaks probability into shooting or turnover.  Stops when the
    sup-norm change between sweeps drops below tol; raises
    ValueIterationError if that never happens within max_iter sweeps.
    """
    chain.validate()
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol: expected a finite number > 0, got {tol!r}")
    m, n = chain.shape
    r = chain.shot * chain.score
    mv = chain.move
    V = np.zeros((m, n))
    for _ in range(max_iter):
        nxt = r + mv[..., SELF] * V
        nxt[:-1, :] += mv[:-1, :, XP] * V[1:, :]
        nxt[1:, :] += mv[1:, :, XM] * V[:-1, :]
        nxt[:, :-1] += mv[:, :-1, YP] * V[:, 1:]
        nxt[:, 1:] += mv[:, 1:, YM] * V[:, :-1]
        if float(np.max(np.abs(nxt - V))) < tol:
            return nxt
        V = nxt
    raise ValueIterationError(f"no convergence after {max_iter} sweeps (tol={tol})")


def game_state_epv(field: np.ndarray, grid: np.ndarray) -> float:
    """Attacking-side expected value of a game state: the control field
    contracted against the possession-value grid, sum of elementwise
    products over all cells."""
    if field.shape != grid.shape:
        raise DimensionMismatchError(
            f"field {field.shape} vs grid {grid.shape}")
    return float(np.sum(grid * field))


# -- value-grid files ---------------------------------------------------------

def save_epv_grid(path: str, values: np.ndarray, pitch: PitchSpec) -> None:
    """Write the grid as JSON with row-major flat values.  Floats are
    serialized via repr, so a load returns bit-identical values."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0) or np.any(values > 1):
        raise FormatError("grid values must lie in [0, 1]")
    m, n = values.shape
    write_json_atomic(path, {
        "version": 1,
        "length": pitch.length,
        "width": pitch.width,
        "goal_half_width": pitch.goal_half_width,
        "m": m,
        "n": n,
        "values": [float(v) for v in values.ravel()],
    })


_GRID_KEYS = ("version", "length", "width", "goal_half_width", "m", "n",
              "values")


def load_epv_grid(path: str, pitch: PitchSpec | None = None
                  ) -> tuple[np.ndarray, dict]:
    """Read a value grid; returns (values, geometry dict).

    Raises FormatError naming the file and the field on invalid JSON, a
    wrong version, a missing or unknown key, `m` or `n` not a positive int,
    geometry that is not a finite number, or `values` that are not m*n
    finite numbers in [0, 1]; DimensionMismatchError naming the file and
    the field when a given `pitch` has another grid shape, length, width
    or goal half-width.
    """
    try:
        doc = json.loads(read_text(path, FormatError))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    if doc.get("version") != 1:
        raise FormatError(f"{path}: unsupported version {doc.get('version')!r}")
    for key in _GRID_KEYS:
        if key not in doc:
            raise FormatError(f"{path}: missing key '{key}'")
    unknown = sorted(set(doc) - set(_GRID_KEYS))
    if unknown:
        raise FormatError(f"{path}: {unknown[0]}: unknown field")

    def require(ok: bool, key: str, what: str) -> None:
        if not ok:
            raise FormatError(f"{path}: {key}: expected {what}, "
                              f"got {doc[key]!r:.60}")

    for key in ("m", "n"):
        require(type(doc[key]) is int and doc[key] > 0, key, "a positive int")
    for key in ("length", "width", "goal_half_width"):
        require(is_finite_number(doc[key]), key, "a finite number")
    m, n = doc["m"], doc["n"]
    flat = doc["values"]
    if not isinstance(flat, list) or len(flat) != m * n:
        raise FormatError(
            f"{path}: values: expected {m * n} values, got "
            f"{len(flat) if isinstance(flat, list) else type(flat).__name__}")
    for i, v in enumerate(flat):
        if not is_finite_number(v):
            raise FormatError(f"{path}: values[{i}]: expected a finite "
                              f"number, got {v!r:.60}")
    arr = np.array(flat, dtype=float).reshape(m, n)
    if np.any(arr < 0) or np.any(arr > 1):
        raise FormatError(f"{path}: values outside [0, 1]")
    geom = {key: doc[key] for key in ("length", "width", "goal_half_width")}
    if pitch is not None:
        if arr.shape != (pitch.grid_m, pitch.grid_n):
            raise DimensionMismatchError(
                f"{path}: grid {arr.shape} does not match pitch grid "
                f"{(pitch.grid_m, pitch.grid_n)}")
        for key, value in geom.items():
            if value != getattr(pitch, key):
                raise DimensionMismatchError(
                    f"{path}: {key}: grid solved for {value!r}, pitch has "
                    f"{getattr(pitch, key)!r}")
    return arr, geom
