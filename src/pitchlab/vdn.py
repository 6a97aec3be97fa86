"""Value-decomposition learner built on hand-rolled numpy MLPs.

Each agent owns a small float64 network mapping its observation to
per-action values; the joint action value is the exact sum of the agents'
chosen-action values, so the joint greedy action decomposes into per-agent
argmaxes.  Training is one-step TD with a target network, mean-squared
error, and plain SGD under a global gradient-norm clip.

The agents' networks are stacked on a leading axis, one op per layer, with
results bit-identical to a loop over per-agent networks.

The smooth-at-zero rectifying nonlinearity keeps the loss twice
differentiable everywhere, which finite-difference gradient checks rely on.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .sim import (ConfigError, RunFailure, config_from_dict, config_to_dict,
                  read_json_object, write_json_atomic)


class ShapeMismatchError(ValueError, RunFailure):
    """Input width or agent count disagrees with the network."""


class CheckpointFormatError(ValueError, RunFailure):
    """A checkpoint file is malformed."""


class DivergenceError(RuntimeError, RunFailure):
    """Training diverged: a TD update's loss or gradient norm, or a weight
    about to be saved, is not finite."""


@dataclass(frozen=True)
class LearnerConfig:
    n_agents: int
    obs_dim: int
    n_actions: int
    hidden: tuple[int, ...] = (64, 64)
    lr: float = 5e-4
    gamma: float = 0.99
    grad_clip: float = 10.0

    def __post_init__(self) -> None:
        if self.n_agents < 1 or self.obs_dim < 1 or self.n_actions < 2:
            raise ConfigError("n_agents/obs_dim/n_actions out of range")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("hidden sizes must be positive")
        if self.lr <= 0 or self.grad_clip <= 0:
            raise ConfigError("lr and grad_clip must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")


EPSILON_START = 1.0
EPSILON_END = 0.05


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop knobs: the `train` block of an experiment config."""

    total_steps: int = 200_000
    learning_rate: float = 5e-4
    gamma: float = 0.99
    batch_size: int = 32
    target_sync_period: int = 500
    buffer_capacity: int = 50_000
    hidden: tuple[int, ...] = (64, 64)
    grad_clip: float = 10.0
    update_every: int = 4           # environment steps per gradient step
    learn_start: int = 500          # buffer warmup before updates begin

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigError("hidden sizes must be positive")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ConfigError("need buffer_capacity >= batch_size >= 1")
        if self.target_sync_period < 1 or self.update_every < 1:
            raise ConfigError("target_sync_period and update_every must be >= 1")
        if self.learn_start < self.batch_size:
            raise ConfigError("learn_start must be >= batch_size")

    def epsilon_at(self, step: int) -> float:
        """Linear anneal from EPSILON_START to EPSILON_END over the first
        fifth of total_steps."""
        decay_steps = max(1, self.total_steps // 5)
        if step >= decay_steps:
            return EPSILON_END
        frac = step / decay_steps
        return EPSILON_START + frac * (EPSILON_END - EPSILON_START)

    def learner_config(self, n_agents: int, obs_dim: int,
                       n_actions: int) -> LearnerConfig:
        return LearnerConfig(
            n_agents=n_agents, obs_dim=obs_dim, n_actions=n_actions,
            hidden=self.hidden, lr=self.learning_rate, gamma=self.gamma,
            grad_clip=self.grad_clip,
        )


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z), split as numpy's logaddexp(0, z) splits it, so that
    exp never overflows; exp and log1p run as numpy's vectorised loops,
    several times faster than logaddexp's scalar one.  Agrees with
    logaddexp(0, z) to within an ulp or so, not bit for bit."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


@dataclass
class QNetwork:
    """Weights and biases of an MLP, all float64.  A stacked one has the
    agents on a leading axis, weights[l] (A, in, out) and biases[l] (A, out);
    indexing it gives agent a's network as views into the stack."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def stack(cls, nets: list["QNetwork"]) -> "QNetwork":
        return cls([np.stack(ws) for ws in zip(*(n.weights for n in nets))],
                   [np.stack(bs) for bs in zip(*(n.biases for n in nets))])

    def __getitem__(self, a: int) -> "QNetwork":
        return QNetwork([w[a] for w in self.weights], [b[a] for b in self.biases])

    def copy(self) -> "QNetwork":
        return QNetwork([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])


def init_mlp(sizes: list[int], rng: np.random.Generator) -> QNetwork:
    """Uniform(+-1/sqrt(fan_in)) init for both weights and biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return QNetwork(weights, biases)


def joint_q(per_agent_values) -> float:
    """Joint action value: the exact arithmetic sum of the agents' chosen
    per-agent values."""
    total = 0.0
    for v in per_agent_values:
        total += float(v)
    return total


def mlp_forward(params: QNetwork, x: np.ndarray,
                cache: list | None = None) -> np.ndarray:
    """Q-values for one observation (D,) or a batch (B, D); a stacked
    network takes per-agent batches (A, B, D) or one (B, D) batch for all
    agents, not a (D,) row, and returns (A, B, n_actions).  A `cache` list
    collects each layer's (input, pre-activation) pair for _backward."""
    x = np.asarray(x, dtype=float)
    w0 = params.weights[0]
    if x.ndim not in (w0.ndim - 1, w0.ndim) or x.shape[-1] != w0.shape[-2]:
        raise ShapeMismatchError(
            f"expected input width {w0.shape[-2]}, got {x.shape}")
    single = x.ndim == 1
    h = x[None, :] if single else x
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b[..., None, :]
        if cache is not None:
            cache.append((h, z))
        h = z if li == last else softplus(z)
    return h[0] if single else h


def _backward(params: QNetwork, cache: list, dout: np.ndarray) -> QNetwork:
    """Gradients of a scalar loss given d(loss)/d(output); plain or stacked."""
    last = len(params.weights) - 1
    gw, gb = [None] * (last + 1), [None] * (last + 1)
    grad = dout
    for li in range(last, -1, -1):
        h_in, z = cache[li]
        if li != last:
            grad = grad * _sigmoid(z)
        gw[li] = h_in.swapaxes(-1, -2) @ grad
        gb[li] = grad.sum(axis=-2)
        if li > 0:
            grad = grad @ params.weights[li].swapaxes(-1, -2)
    return QNetwork(gw, gb)


def grad_norm(grads: QNetwork) -> float:
    """Global L2 norm of stacked gradients.  Each array's squares are
    summed per agent, and those sums are added as a float in agent-major,
    array-by-array order, as a loop over per-agent networks adds them."""
    arrays = (*grads.weights, *grads.biases)
    n_agents = arrays[0].shape[0]
    per_array = [(g * g).reshape(n_agents, -1).sum(axis=1) for g in arrays]
    return math.sqrt(sum(np.stack(per_array, axis=1).ravel().tolist()))


@dataclass
class Transition:
    obs: np.ndarray        # (n_agents, obs_dim)
    actions: np.ndarray    # (n_agents,) int
    reward: float
    next_obs: np.ndarray   # (n_agents, obs_dim)
    terminal: bool


@dataclass
class TransitionBatch:
    obs: np.ndarray        # (B, obs_dim) shared, or (B, n_agents, obs_dim)
    actions: np.ndarray    # (B, n_agents)
    rewards: np.ndarray    # (B,)
    next_obs: np.ndarray   # (B, obs_dim) shared, or (B, n_agents, obs_dim)
    terminals: np.ndarray  # (B,) float 0/1


def batch_from_transitions(transitions: list[Transition]) -> TransitionBatch:
    return TransitionBatch(
        obs=np.stack([t.obs for t in transitions]),
        actions=np.stack([t.actions for t in transitions]),
        rewards=np.array([t.reward for t in transitions], dtype=float),
        next_obs=np.stack([t.next_obs for t in transitions]),
        terminals=np.array([float(t.terminal) for t in transitions]),
    )


class ReplayBuffer:
    """Fixed-capacity ring buffer over preallocated arrays.

    Every agent sees the same observation, and each step's observation is
    stored once, in the (capacity, obs_dim) `obs`.  Row i's next frame is
    row i + 1 (mod capacity) when the step added after row i began from
    exactly the bytes of row i's `next_obs`, as consecutive steps of one
    episode do: the row is *linked*.  Every other row keeps its next frame
    in `_side` (row -> the frame's bytes): terminal and step-limit rows,
    the newest row, and rows whose successor did not chain.  Overwriting a
    row drops what it held.  Worst case, no add ever chains and there is
    one side frame per row, as many frames as a separate (capacity,
    obs_dim) `next_obs` array would hold.

    `add` takes the (obs_dim,) rows the training loop observes, or
    per-agent (n_agents, obs_dim) arrays whose rows must be bit-identical
    (else ShapeMismatchError).  `sample` returns `obs` and `next_obs` as
    (B, obs_dim) rows."""

    def __init__(self, capacity: int, n_agents: int, obs_dim: int):
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self.capacity = capacity
        self.n_agents = n_agents
        # uninitialised: sample never returns a row at or past len(self),
        # and an unwritten row costs no resident memory
        self.obs = np.empty((capacity, obs_dim))
        self.actions = np.empty((capacity, n_agents), dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.terminals = np.empty(capacity)
        self._side: dict[int, bytes] = {}
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _shared_row(self, obs: np.ndarray, name: str) -> bytes:
        """The bytes of the one row every agent's row equals."""
        obs = np.asarray(obs, dtype=float)
        if obs.shape == self.obs.shape[1:]:
            return obs.tobytes()
        if obs.shape != (self.n_agents, *self.obs.shape[1:]):
            raise ShapeMismatchError(
                f"{name}: expected shape {self.obs.shape[1:]} or "
                f"{(self.n_agents, *self.obs.shape[1:])}, got {obs.shape}")
        row = obs[0].tobytes()
        if obs.tobytes() != row * self.n_agents:
            raise ShapeMismatchError(
                f"{name}: the agents' observation rows differ; the buffer "
                f"stores one row shared by all agents")
        return row

    def add(self, obs: np.ndarray, actions: np.ndarray, reward: float,
            next_obs: np.ndarray, terminal: bool) -> None:
        row = self._shared_row(obs, "obs")   # both checked before a write
        next_row = self._shared_row(next_obs, "next_obs")
        i = self._next
        newest = (i - 1) % self.capacity
        if self._side.get(newest) == row:   # it chains: link the newest row
            del self._side[newest]
        self.obs[i] = np.frombuffer(row)
        self.actions[i] = actions
        self.rewards[i] = reward
        self.terminals[i] = float(terminal)
        self._side[i] = next_row
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        if batch_size > self._size:
            raise ValueError(
                f"batch size {batch_size} exceeds buffer size {self._size}")
        idx = rng.integers(0, self._size, size=batch_size)
        next_rows = np.take(self.obs, idx + 1, axis=0, mode="wrap")
        for i in self._side.keys() & idx.tolist():   # rows that do not link
            next_rows[idx == i] = np.frombuffer(self._side[i])
        return TransitionBatch(
            obs=self.obs[idx], actions=self.actions[idx],
            rewards=self.rewards[idx], next_obs=next_rows,
            terminals=self.terminals[idx],
        )


def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(a.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode_array(text, shape: list[int]) -> np.ndarray:
    """A version-2 array: base64 of exactly prod(shape) little-endian
    float64 values.  Raises ValueError (binascii.Error is one) or
    TypeError when it is not."""
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


class VDNLearner:
    """Stacked per-agent networks (no parameter sharing) and target copies."""

    def __init__(self, config: LearnerConfig, seed: int):
        self.config = config
        sizes = [config.obs_dim, *config.hidden, config.n_actions]
        rng = np.random.default_rng(int(seed))
        self.online = QNetwork.stack(
            [init_mlp(sizes, rng) for _ in range(config.n_agents)])
        self.target = self.online.copy()
        self.train_step = 0

    @property
    def agents(self) -> list[QNetwork]:   # per-agent views of the stack
        return [self.online[a] for a in range(self.config.n_agents)]

    @property
    def targets(self) -> list[QNetwork]:
        return [self.target[a] for a in range(self.config.n_agents)]

    # -- acting ---------------------------------------------------------------

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        """(n_agents, n_actions) values for the one observation (D,) every
        agent reads, or for per-agent observations (A, D)."""
        obs = np.asarray(obs, dtype=float)
        cfg = self.config
        if obs.shape not in ((cfg.obs_dim,), (cfg.n_agents, cfg.obs_dim)):
            raise ShapeMismatchError(
                f"expected obs shape {(cfg.obs_dim,)} or "
                f"{(cfg.n_agents, cfg.obs_dim)}, got {obs.shape}")
        return mlp_forward(self.online, obs[..., None, :])[:, 0, :]

    def chosen_joint_q(self, obs: np.ndarray, actions: np.ndarray) -> float:
        """Sum over agents of each agent's value for its chosen action."""
        q = self.q_values(obs)
        actions = np.asarray(actions)
        if actions.shape != (self.config.n_agents,):
            raise ShapeMismatchError(f"expected {self.config.n_agents} actions")
        return joint_q(q[np.arange(self.config.n_agents), actions])

    def greedy_actions(self, obs: np.ndarray) -> np.ndarray:
        """Per-agent argmax; ties break to the lowest action index."""
        return np.argmax(self.q_values(obs), axis=1)

    def select_actions(self, obs: np.ndarray, epsilon: float,
                       rng: np.random.Generator | None = None) -> np.ndarray:
        """Epsilon-greedy per agent.  With epsilon 0 no random numbers are
        drawn at all, so greedy evaluation never touches the generator."""
        if epsilon > 0 and rng is None:
            raise ConfigError("epsilon > 0 requires an rng")
        greedy = self.greedy_actions(obs)
        if epsilon <= 0:
            return greedy
        out = greedy.copy()
        for a in range(self.config.n_agents):
            if rng.random() < epsilon:
                out[a] = int(rng.integers(self.config.n_actions))
        return out

    # -- learning ---------------------------------------------------------------

    def _td_errors(self, batch: TransitionBatch) -> tuple[np.ndarray, list]:
        """TD errors (B,) and the online forward cache; agent sums run in
        agent order, as a per-agent loop adds them.  A shared (B, D) batch
        goes to the networks as it is, a per-agent one agent-major."""
        cfg = self.config
        if batch.obs.shape[1:] not in ((cfg.obs_dim,),
                                       (cfg.n_agents, cfg.obs_dim)):
            raise ShapeMismatchError(
                f"batch obs shaped {batch.obs.shape}, expected (B, "
                f"{cfg.obs_dim}) or (B, {cfg.n_agents}, {cfg.obs_dim})")
        cache: list = []
        q = mlp_forward(self.online, np.moveaxis(batch.obs, -2, 0), cache)
        chosen = np.take_along_axis(q, batch.actions.T[:, :, None], axis=2)
        pred = chosen[:, :, 0].sum(axis=0)
        next_q = mlp_forward(self.target, np.moveaxis(batch.next_obs, -2, 0))
        next_max = next_q.max(axis=2).sum(axis=0)
        y = batch.rewards + cfg.gamma * (1.0 - batch.terminals) * next_max
        return pred - y, cache

    def td_loss(self, batch: TransitionBatch | list[Transition]) -> float:
        """Mean squared TD error; pure, used by gradient checks."""
        if isinstance(batch, list):
            batch = batch_from_transitions(batch)
        err, _ = self._td_errors(batch)
        return float(np.mean(err ** 2))

    def td_grads(self, batch: TransitionBatch | list[Transition]
                 ) -> tuple[float, QNetwork]:
        """Loss and the stacked gradients (index by agent), before clipping."""
        if isinstance(batch, list):
            batch = batch_from_transitions(batch)
        B = batch.obs.shape[0]
        err, cache = self._td_errors(batch)
        loss = float(np.mean(err ** 2))
        dq = np.zeros((self.config.n_agents, B, self.config.n_actions))
        np.put_along_axis(dq, batch.actions.T[:, :, None],
                          (2.0 * err / B)[None, :, None], axis=2)
        return loss, _backward(self.online, cache, dq)

    def td_update(self, batch: TransitionBatch | list[Transition]) -> float:
        """One SGD step under the global gradient-norm clip; returns the loss.
        Raises DivergenceError, before the weights change, when the loss or
        the gradient norm is not finite.  An overflow or invalid value on
        the way makes one of them non-finite, so numpy's warnings for it
        are silenced: the error reports it."""
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = self.td_grads(batch)
            norm = grad_norm(grads)
        if not (math.isfinite(loss) and math.isfinite(norm)):
            raise DivergenceError(f"td_update {self.train_step + 1}: loss "
                                  f"{loss!r}, gradient norm {norm!r}")
        scale = self.config.grad_clip / norm if norm > self.config.grad_clip else 1.0
        lr = self.config.lr
        for p, g in zip((*self.online.weights, *self.online.biases),
                        (*grads.weights, *grads.biases)):
            p -= lr * scale * g
        self.train_step += 1
        return loss

    def sync_target(self) -> None:
        self.target = self.online.copy()

    # -- checkpoints --------------------------------------------------------------

    def save(self, path: str, extra: dict | None = None) -> None:
        """Atomic JSON checkpoint, version 2: each weight and bias array is
        base64 of its little-endian float64 bytes, so it round-trips
        exactly.  A non-finite weight raises DivergenceError naming the
        network, and nothing is written: load would refuse the file."""
        for key, net in (("agents", self.online), ("targets", self.target)):
            for a in (*net.weights, *net.biases):
                finite = np.isfinite(a).reshape(len(a), -1).all(axis=1)
                if not finite.all():
                    raise DivergenceError(
                        f"{path}: {key}[{int(np.argmin(finite))}]: "
                        f"non-finite value, not saved")
        def dump_params(params: QNetwork) -> dict:
            return {
                "layer_shapes": [list(w.shape) for w in params.weights],
                "weights": [_encode_array(w) for w in params.weights],
                "biases": [_encode_array(b) for b in params.biases],
            }
        doc = {
            "version": 2,
            "train_step": self.train_step,
            "config": config_to_dict(self.config),
            "agents": [dump_params(p) for p in self.agents],
            "targets": [dump_params(p) for p in self.targets],
        }
        if extra:
            doc["extra"] = extra
        write_json_atomic(path, doc)

    @classmethod
    def load(cls, path: str) -> "VDNLearner":
        """Read a checkpoint written by save(), validating it whole: the
        `config` block must hold every LearnerConfig field, `train_step`
        must be a non-negative int, there must be `n_agents` agent and
        target networks, each with layer shapes equal to the
        [obs_dim, *hidden, n_actions] pairs, and every weight and bias
        must be finite.  Only version 2 loads, and its arrays must be valid
        base64 of exactly the float64 bytes their shape needs.  Any
        violation raises CheckpointFormatError naming the file and the
        field."""
        doc = read_json_object(path, CheckpointFormatError, 2, (
            "train_step", "config", "agents", "targets"), optional=("extra",))
        try:
            config = config_from_dict(LearnerConfig, doc["config"], "config")
        except ConfigError as e:
            raise CheckpointFormatError(f"{path}: {e}") from None
        missing = [k for k in config_to_dict(config) if k not in doc["config"]]
        if missing:
            raise CheckpointFormatError(f"{path}: config.{missing[0]}: missing field")
        step = doc["train_step"]
        if isinstance(step, bool) or not isinstance(step, int) or step < 0:
            raise CheckpointFormatError(
                f"{path}: train_step: expected an int >= 0, got {step!r}")
        sizes = [config.obs_dim, *config.hidden, config.n_actions]
        shapes = [[m, n] for m, n in zip(sizes[:-1], sizes[1:])]

        def load_params(d, where: str) -> QNetwork:
            if not isinstance(d, dict) or d.get("layer_shapes") != shapes:
                raise CheckpointFormatError(
                    f"{path}: {where}.layer_shapes: expected {shapes} from config")
            try:
                ws = [_decode_array(w, s)
                      for w, s in zip(d["weights"], shapes, strict=True)]
                bs = [_decode_array(b, s[1:])
                      for b, s in zip(d["biases"], shapes, strict=True)]
            except (KeyError, TypeError, ValueError) as e:
                raise CheckpointFormatError(f"{path}: {where}: {e}") from None
            if not all(np.isfinite(a).all() for a in (*ws, *bs)):
                raise CheckpointFormatError(f"{path}: {where}: non-finite value")
            return QNetwork(ws, bs)

        learner = cls(config, seed=0)
        for key, attr in (("agents", "online"), ("targets", "target")):
            nets = doc[key]
            if not isinstance(nets, list) or len(nets) != config.n_agents:
                raise CheckpointFormatError(
                    f"{path}: {key}: expected {config.n_agents} networks")
            setattr(learner, attr, QNetwork.stack(
                [load_params(d, f"{key}[{a}]") for a, d in enumerate(nets)]))
        learner.train_step = step
        return learner
