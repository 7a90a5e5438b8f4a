"""Parameter-sharing multi-agent pool.

All node agents share one parameter store, keep separate experience
buffers, and vote on the global action.  Each agent applies epsilon-greedy
over the shared Q-values with its own random stream; the executed action
is the majority vote, with ties resolving to Maintain.

The buffers are one ``Replay`` with a ring per agent, and a pooled batch
is its quota draw on ``train_rng``.  The update is ``learn``, the same
double-Q step the single DQN agent takes.

Training is asynchronous, acting is synchronized: gradient work happens
continuously on the shared store (one pooled-batch step per environment
step once buffers can fill a batch), while the policy the voters consult
is a snapshot of the store refreshed every ``marl_sync_every`` steps, so
all agents always vote from identical, coherently-updated parameters.

Only agents whose vote matched the executed action record the transition:
a minority vote never ran, so crediting it with the majority's reward
would poison the shared Q-function.
"""

from __future__ import annotations

import numpy as np

from ..env import Action, N_ACTIONS, STATE_DIM
from .nn import Adam, AgentHyperparams, DuelingNetwork, Replay, learn
# the benchmark's span table resolves these two names in this module
from .nn import double_q_targets, td_loss_and_grads  # noqa: F401


def majority_vote(votes) -> int:
    """Majority action; any tie for the top count resolves to Maintain."""
    counts = [0] * N_ACTIONS
    for vote in votes:
        counts[vote] += 1
    top = max(counts)
    return int(Action.MAINTAIN) if counts.count(top) > 1 else counts.index(top)


class MarlPool:
    """N independent voters over one shared parameter store."""

    def __init__(
        self,
        hp: AgentHyperparams,
        rng: np.random.Generator,
        n_agents: int = 16,
        episodes_total: int = 50,
        state_dim: int = STATE_DIM,
        n_actions: int = N_ACTIONS,
    ):
        self.hp = hp
        self.n_agents = n_agents
        self.online = DuelingNetwork(state_dim, hp.hidden_sizes, hp.head_hidden, n_actions, rng)
        self.acting = self.online.clone()
        self.target = self.online.clone()
        self.optimizer = Adam(self.online.flat, lr=hp.learning_rate)
        self.replay = Replay(n_agents, hp.buffer_capacity, state_dim)
        streams = rng.spawn(n_agents + 1)
        self.agent_rngs = streams[:n_agents]
        self.train_rng = streams[n_agents]
        # one shared exploration schedule for the whole pool
        self.eps = hp.eps_start
        self._decay = hp.episode_eps_decay(episodes_total)
        self.total_steps = 0
        self._last_votes: list[int] | None = None

    def vote(self, state: np.ndarray) -> list[int]:
        """``epsilon_greedy`` per voter, each drawing on its own stream; the check and argmax run once."""
        qvalues = self.acting.forward(state)
        eps = self.eps
        if not (0.0 <= eps <= 1.0):
            raise ValueError("eps must lie in [0, 1]")
        greedy, n = int(qvalues.argmax()), len(qvalues)
        return [int(r.integers(n)) if eps > 0.0 and r.random() < eps else greedy for r in self.agent_rngs]

    def act(self, state: np.ndarray) -> int:
        self._last_votes = self.vote(state)
        return majority_vote(self._last_votes)

    def observe(self, state, action, reward, next_state) -> None:
        votes = self._last_votes
        agents = range(self.n_agents) if votes is None else [i for i, v in enumerate(votes) if v == action]
        self.replay.push(agents, state, action, reward * self.hp.reward_scale, next_state)
        self._last_votes = None
        self.total_steps += 1
        self.train_once()
        if self.total_steps % self.hp.marl_sync_every == 0:
            self.acting.copy_from(self.online)
        if self.total_steps % self.hp.target_sync_every == 0:
            self.target.copy_from(self.online)

    def pooled_batch(self):
        """Equal draws from each nonempty voter ring on ``train_rng``, or None; see ``Replay.sample``."""
        return self.replay.sample(self.hp.batch_size, self.train_rng)

    def train_once(self) -> float | None:
        return learn(self.online, self.target, self.optimizer, self.pooled_batch(), self.hp)

    def end_episode(self) -> None:
        self.eps = max(self.hp.eps_min, self.eps * self._decay)

    def qvalues(self, state: np.ndarray) -> np.ndarray:
        return self.acting.forward(state)
