import numpy as np
import pytest

from pitchlab import sim


@pytest.fixture
def random_action_states():
    """A generator of every state, kickoff to end, of `episodes` seeded
    episodes in which the defenders act at random.  Each state is yielded
    before the next step advances it in place."""
    def states(scenario: sim.ScenarioConfig, episodes: int = 20):
        rng = np.random.default_rng(20230327)
        for episode in range(episodes):
            st = sim.reset(scenario, episode)
            yield st
            while not st.terminal:
                actions = rng.integers(sim.N_ACTIONS, size=scenario.n_defenders)
                sim.step(st, actions.tolist())
                yield st
    return states
