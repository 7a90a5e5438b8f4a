"""Parameter-sharing multi-agent pool.

All node agents share one parameter store, keep separate experience
buffers, and vote on the global action.  Each agent applies epsilon-greedy
over the shared Q-values with its own random stream; the executed action
is the majority vote, with ties resolving to Maintain.

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
from .nn import (
    Adam,
    AgentHyperparams,
    DuelingNetwork,
    ReplayBuffer,
    double_q_targets,
    epsilon_greedy,
    td_loss_and_grads,
)


def majority_vote(votes) -> int:
    """Majority action; any tie for the top count resolves to Maintain."""
    counts = np.bincount(np.asarray(votes, dtype=np.int64), minlength=N_ACTIONS)
    top = counts.max()
    if (counts == top).sum() > 1:
        return int(Action.MAINTAIN)
    return int(np.argmax(counts))


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
        self.buffers = [ReplayBuffer(hp.buffer_capacity, state_dim) for _ in range(n_agents)]
        streams = rng.spawn(n_agents + 1)
        self.agent_rngs = streams[:n_agents]
        self.train_rng = streams[n_agents]
        # one shared exploration schedule for the whole pool
        self.eps = hp.eps_start
        self._decay = hp.episode_eps_decay(episodes_total)
        self.total_steps = 0
        self._last_votes: list[int] | None = None

    def vote(self, state: np.ndarray) -> list[int]:
        qvalues = self.acting.forward(state)
        return [epsilon_greedy(qvalues, self.eps, r) for r in self.agent_rngs]

    def act(self, state: np.ndarray) -> int:
        self._last_votes = self.vote(state)
        return majority_vote(self._last_votes)

    def observe(self, state, action, reward, next_state) -> None:
        votes = self._last_votes if self._last_votes is not None else [action] * self.n_agents
        scaled = reward * self.hp.reward_scale
        for buf, vote in zip(self.buffers, votes):
            if vote == action:
                buf.push(state, vote, scaled, next_state)
        self._last_votes = None
        self.total_steps += 1
        self.train_once()
        if self.total_steps % self.hp.marl_sync_every == 0:
            self.acting.copy_from(self.online)
        if self.total_steps % self.hp.target_sync_every == 0:
            self.target.copy_from(self.online)

    def pooled_batch(self):
        """Equal draws from each nonempty buffer, topped up round-robin.

        With all 16 buffers holding data and batch 64 this is exactly 4
        transitions per buffer.  Returns None while buffers cannot jointly
        fill a batch.
        """
        nonempty = [b for b in self.buffers if len(b) > 0]
        if not nonempty:
            return None
        m = len(nonempty)
        quotas = [self.hp.batch_size // m] * m
        for i in range(self.hp.batch_size % m):
            quotas[i] += 1
        if any(q > len(b) for q, b in zip(quotas, nonempty)):
            return None
        parts = [b.sample(q, self.train_rng) for b, q in zip(nonempty, quotas) if q > 0]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def train_once(self) -> float | None:
        batch = self.pooled_batch()
        if batch is None:
            return None
        states, actions, rewards, next_states = batch
        targets = double_q_targets(rewards, next_states, self.online, self.target, self.hp.discount)
        loss, grads = td_loss_and_grads(self.online, states, actions.astype(np.int64), targets, self.hp.td_clip)
        self.optimizer.step(grads)
        return loss

    def end_episode(self) -> None:
        self.eps = max(self.hp.eps_min, self.eps * self._decay)

    def qvalues(self, state: np.ndarray) -> np.ndarray:
        return self.acting.forward(state)
