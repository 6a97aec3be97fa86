"""Reward construction for the defending team.

The base signal is sparse: -1 when a goal is conceded, 0 otherwise.  A
dense shaping term derived from the attacking side's expected possession
value is layered on top, either subtracted directly each step (additive
mode) or applied as a potential-based difference, which provably leaves
the optimal policy unchanged.

Every function here is pure.  The per-episode state the shaped reward
needs (the values of the previous and the current state) is kept by
`trainer.EpisodeTally`, which calls `shaped_reward` once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sim import ConfigError, StepEvents


class ShapingMode(Enum):
    ADDITIVE = "additive"
    POTENTIAL_BASED = "potential_based"


@dataclass(frozen=True)
class ShapingConfig:
    """How the dense term is mixed into the sparse reward.

    weight 0 turns shaping off; the shaped stream is then bit-identical to
    the sparse one.  Potential-based mode discounts with the learner's own
    gamma (`train.gamma`), as the policy-invariance argument requires.
    """

    mode: ShapingMode = ShapingMode.ADDITIVE
    weight: float = 0.1

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigError("shaping weight must be >= 0")


def sparse_reward(events: StepEvents) -> float:
    """-1 when this step conceded a goal, else 0."""
    return -1.0 if events.goal else 0.0


def additive_shaped(sparse: float, value_curr: float, weight: float) -> float:
    """Dense penalty proportional to the attacking side's current state
    value: r = sparse - weight * value."""
    return sparse - weight * value_curr


def potential_shaped(sparse: float, value_prev: float, value_curr: float,
                     weight: float, gamma: float) -> float:
    """Potential-based term with potential phi(s) = -value(s):
    r = sparse + weight * (gamma * phi(s') - phi(s))."""
    return sparse + weight * (gamma * (-value_curr) - (-value_prev))


def shaped_reward(config: ShapingConfig, sparse: float, value_prev: float,
                  value_curr: float, gamma: float) -> float:
    """The reward of one transition from a state valued `value_prev` to one
    valued `value_curr`: the sparse reward itself at weight 0, else the
    configured mode's shaped form, potential-based with discount `gamma`."""
    if config.weight == 0.0:
        return sparse
    if config.mode is ShapingMode.ADDITIVE:
        return additive_shaped(sparse, value_curr, config.weight)
    return potential_shaped(sparse, value_prev, value_curr, config.weight,
                            gamma)
