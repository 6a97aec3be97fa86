"""Pitch-control fields and the pass-success model behind them.

A grid cell belongs to the attacking team with probability given by a
logistic curve over the arrival-time advantage: how much sooner the best
attacker reaches the cell than the best defender.  The curve's slope and
offset are the pass-model parameters, fit by maximum likelihood on
(advantage, outcome) pass events.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .sim import ConfigError, GameState, RunFailure, open_atomic, read_text

# logistic(36) is the largest float64 strictly below 1; clamping there keeps
# outputs inside the open interval (0, 1) for arbitrarily extreme inputs
_Z_CAP = 36.0

# fit_pass_model's iteration budget; the spread of sample_pass_events' x
FIT_MAX_ITER = 20000
ADVANTAGE_SCALE = 1.0


class InsufficientDataError(ValueError, RunFailure):
    """Pass events empty or single-class; the likelihood has no interior max."""


class NonConvergenceError(RuntimeError, RunFailure):
    """Likelihood optimisation failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class PassModelParams:
    """Logistic pass-success parameters.

    `sigma` scales the arrival-advantage feature, `lam` shifts it ("lambda"
    is reserved in Python; serialized forms use the full word).
    """

    sigma: float = 0.45
    lam: float = field(default=0.0, metadata={"key": "lambda"})

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ConfigError("sigma must be positive and finite")
        if not math.isfinite(self.lam):
            raise ConfigError("lambda must be finite")


def pass_success_probability(params: PassModelParams,
                             x: np.ndarray | float) -> np.ndarray | float:
    """P(success | advantage x) = logistic((x - lambda) / sigma),
    strictly inside (0, 1) and nondecreasing in x."""
    z = (np.asarray(x, dtype=float) - params.lam) / params.sigma
    out = 1.0 / (1.0 + np.exp(-np.clip(z, -_Z_CAP, _Z_CAP)))
    if np.isscalar(x):
        return float(out)
    return out


def log_likelihood(params: PassModelParams, x: np.ndarray, k: np.ndarray) -> float:
    """Mean Bernoulli log-likelihood of outcomes k in {0, 1} at advantages x."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    z = (x - params.lam) / params.sigma
    # log p = -log1p(exp(-z)); log(1 - p) = -z - log1p(exp(-z))
    log1p_exp = np.where(z > 0, np.log1p(np.exp(-np.abs(z))),
                         -z + np.log1p(np.exp(-np.abs(z))))
    ll = -(1.0 - k) * z - log1p_exp
    return float(np.mean(ll))


def log_likelihood_grad(params: PassModelParams, x: np.ndarray,
                        k: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean log-likelihood wrt (sigma, lambda)."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    z = (x - params.lam) / params.sigma
    p = pass_success_probability(params, x)
    resid = k - p
    d_sigma = float(np.mean(resid * (-z / params.sigma)))
    d_lam = float(np.mean(resid * (-1.0 / params.sigma)))
    return np.array([d_sigma, d_lam])


def fit_pass_model(x: np.ndarray, k: np.ndarray, *,
                   init: PassModelParams | None = None,
                   tol: float = 1e-6) -> PassModelParams:
    """Maximum-likelihood fit of the logistic pass model.

    Gradient ascent on the mean log-likelihood in (log sigma, lambda) space
    with backtracking line search; converges when the infinity norm of the
    raw (sigma, lambda) gradient drops below `tol`.  The likelihood at the
    result is never below the likelihood at the initial point.

    Parameters
    ----------
    x : array of arrival-time advantages, one per pass event.
    k : array of outcomes, 1 for a completed pass, 0 otherwise.

    Raises
    ------
    InsufficientDataError
        No events, or all outcomes identical (no interior maximum).
    NonConvergenceError
        Tolerance not reached within FIT_MAX_ITER iterations.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol: expected a finite number > 0, got {tol!r}")
    x = np.asarray(x, dtype=float).ravel()
    k = np.asarray(k, dtype=float).ravel()
    if x.shape != k.shape:
        raise ConfigError("x and k must have matching shapes")
    if x.size == 0:
        raise InsufficientDataError("no pass events")
    if not np.all((k == 0.0) | (k == 1.0)):
        raise ConfigError("outcomes must be 0 or 1")
    if np.all(k == k[0]):
        raise InsufficientDataError("all outcomes identical; model not identifiable")

    params = init if init is not None else PassModelParams()
    theta = np.array([math.log(params.sigma), params.lam])

    def unpack(t: np.ndarray) -> PassModelParams:
        return PassModelParams(sigma=math.exp(min(t[0], 30.0)), lam=float(t[1]))

    ll = log_likelihood(params, x, k)
    step = 1.0
    for _ in range(FIT_MAX_ITER):
        g_raw = log_likelihood_grad(params, x, k)
        if float(np.max(np.abs(g_raw))) < tol:
            return params
        # chain rule into log-sigma space
        g = np.array([g_raw[0] * params.sigma, g_raw[1]])
        step = min(step * 2.0, 16.0)
        while step > 1e-14:
            cand = unpack(theta + step * g)
            cand_ll = log_likelihood(cand, x, k)
            if cand_ll >= ll + 1e-4 * step * float(g @ g):
                break
            step *= 0.5
        else:
            raise NonConvergenceError("line search stalled before reaching tolerance")
        theta = theta + step * g
        params = unpack(theta)
        ll = cand_ll
    raise NonConvergenceError(f"no convergence after {FIT_MAX_ITER} iterations")


def sample_pass_events(params: PassModelParams, n: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n synthetic (advantage, outcome) pairs from the model."""
    x = rng.normal(0.0, ADVANTAGE_SCALE, size=n)
    p = pass_success_probability(params, x)
    k = (rng.random(n) < p).astype(float)
    return x, k


def load_pass_events(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read pass events from a CSV file with header `x,k`.  A row that is
    not two finite numbers raises a ConfigError naming the file, the line
    and the column."""
    xs, ks = [], []
    reader = csv.reader(io.StringIO(read_text(path)))
    header = next(reader, None)
    if header is None or [c.strip() for c in header] != ["x", "k"]:
        raise ConfigError(f"{path}: expected CSV header 'x,k'")
    for row in reader:
        if not row:
            continue
        where = f"{path}: line {reader.line_num}"
        if len(row) > 2:
            raise ConfigError(f"{where}: expected 2 columns, got {len(row)}")
        for column, text, out in zip("xk", row + [""], (xs, ks)):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(f"{where}, column {column}: expected a "
                                  f"finite number, got {text!r}")
            out.append(value)
    return np.array(xs), np.array(ks)


def save_pass_events(path: str, x: np.ndarray, k: np.ndarray) -> None:
    with open_atomic(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "k"])
        for xi, ki in zip(x, k):
            writer.writerow([repr(float(xi)), int(ki)])


def compute_control_field(state: GameState,
                          params: PassModelParams) -> np.ndarray:
    """Attacking-team control probability on the pitch grid.

    Returns a (grid_m, grid_n) array; entry (i, j) is the probability that
    the attacking side would win a ball played to cell centre (i, j).

    The arrival times are laid out player-major, (P, grid_m, grid_n): the
    squared x offsets (P, grid_m) and y offsets (P, grid_n) are summed by
    broadcasting, so a distance is sqrt(dx*dx + dy*dy) where the tests'
    reference oracle takes np.hypot; the two differ in the last bit of
    some distances.  Defenders and the keeper are players 0..gk_index and
    the attackers follow, so the team minima are slices.
    """
    xs, ys = state.scenario.pitch.cell_axes
    pos = state.positions
    dx = xs - pos[:, 0:1]
    dx *= dx
    dy = ys - pos[:, 1:2]
    dy *= dy
    tau = dx[:, :, None] + dy[:, None, :]
    np.sqrt(tau, out=tau)
    tau /= state.max_speeds[:, None, None]
    tau += state.reaction_times[:, None, None]
    first_att = state.gk_index + 1
    adv = tau[:first_att].min(axis=0) - tau[first_att:].min(axis=0)
    return pass_success_probability(params, adv)


def defending_control_field(state: GameState,
                            params: PassModelParams) -> np.ndarray:
    """Exact pointwise complement of the attacking field: 1 - a."""
    return 1.0 - compute_control_field(state, params)
