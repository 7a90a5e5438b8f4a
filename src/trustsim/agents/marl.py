"""Parameter-sharing multi-agent pool.

All node agents share one parameter store, keep separate experience
buffers, and vote on the global action.  Each agent applies epsilon-greedy
over the shared Q-values with its own random stream; the executed action
is the majority vote, with ties resolving to Maintain.

The buffers are one replay block: agent i owns rows
``[i * capacity, (i + 1) * capacity)`` and keeps its own size and cursor,
so a step writes every recording agent's row, and a pooled batch gathers
every agent's draws, with one indexing per column.

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
from .nn import Adam, AgentHyperparams, DuelingNetwork, double_q_targets, replay_columns, td_loss_and_grads


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
        block = replay_columns(n_agents * hp.buffer_capacity, state_dim)
        self.states, self.next_states, self.rewards, self.actions = block
        self.sizes, self.cursors = [0] * n_agents, [0] * n_agents
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
        self.push(agents, state, action, reward * self.hp.reward_scale, next_state)
        self._last_votes = None
        self.total_steps += 1
        self.train_once()
        if self.total_steps % self.hp.marl_sync_every == 0:
            self.acting.copy_from(self.online)
        if self.total_steps % self.hp.target_sync_every == 0:
            self.target.copy_from(self.online)

    def push(self, agents, state, action: int, reward: float, next_state) -> None:
        """Write one transition into the next ring row of each agent in ``agents``."""
        cap = self.hp.buffer_capacity
        rows = np.array([i * cap + self.cursors[i] for i in agents], dtype=np.int64)
        self.states[rows] = state
        self.actions[rows] = action
        self.rewards[rows] = reward
        self.next_states[rows] = next_state
        for i in agents:
            self.cursors[i] = (self.cursors[i] + 1) % cap
            self.sizes[i] = min(self.sizes[i] + 1, cap)

    def pooled_batch(self):
        """Equal draws from each nonempty buffer, topped up round-robin.

        With all 16 buffers holding data and batch 64 this is exactly 4
        transitions per buffer.  Each buffer draws its rows with its own
        ``train_rng.choice`` call, in agent order.  Returns None while
        buffers cannot jointly fill a batch.
        """
        sizes = self.sizes
        nonempty = [i for i, size in enumerate(sizes) if size > 0]
        if not nonempty:
            return None
        m = len(nonempty)
        quotas = [self.hp.batch_size // m] * m
        for i in range(self.hp.batch_size % m):
            quotas[i] += 1
        if any(q > sizes[i] for q, i in zip(quotas, nonempty)):
            return None
        cap = self.hp.buffer_capacity
        draws = [self.train_rng.choice(sizes[i], q, replace=False) + i * cap for i, q in zip(nonempty, quotas) if q > 0]
        idx = np.concatenate(draws)
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_states[idx]

    def train_once(self) -> float | None:
        batch = self.pooled_batch()
        if batch is None:
            return None
        states, actions, rewards, next_states = batch
        hp = self.hp
        targets, online_pass = double_q_targets(rewards, states, next_states, self.online, self.target, hp.discount)
        loss, grads = td_loss_and_grads(self.online, online_pass, actions, targets, hp.td_clip)
        self.optimizer.step(grads)
        return loss

    def end_episode(self) -> None:
        self.eps = max(self.hp.eps_min, self.eps * self._decay)

    def qvalues(self, state: np.ndarray) -> np.ndarray:
        return self.acting.forward(state)
