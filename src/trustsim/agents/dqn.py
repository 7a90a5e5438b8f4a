"""Dueling Double DQN defense agent."""

from __future__ import annotations

import numpy as np

from ..env import N_ACTIONS, STATE_DIM
from .nn import Adam, AgentHyperparams, DuelingNetwork, Replay, epsilon_greedy, learn


class DqnAgent:
    """Single learning agent: a one-ring replay, double-Q targets, periodic target sync."""

    def __init__(
        self,
        hp: AgentHyperparams,
        rng: np.random.Generator,
        episodes_total: int = 50,
        state_dim: int = STATE_DIM,
        n_actions: int = N_ACTIONS,
    ):
        self.hp = hp
        self.rng = rng
        self.online = DuelingNetwork(state_dim, hp.hidden_sizes, hp.head_hidden, n_actions, rng)
        self.target = self.online.clone()
        self.optimizer = Adam(self.online.flat, lr=hp.learning_rate)
        self.replay = Replay(1, hp.buffer_capacity, state_dim)
        self.eps = hp.eps_start
        self._decay = hp.episode_eps_decay(episodes_total)
        self.total_steps = 0

    def act(self, state: np.ndarray) -> int:
        return epsilon_greedy(self.online.forward(state), self.eps, self.rng)

    def observe(self, state, action, reward, next_state) -> None:
        self.replay.push((0,), state, action, reward * self.hp.reward_scale, next_state)
        self.total_steps += 1
        learn(self.online, self.target, self.optimizer, self.replay.sample(self.hp.batch_size, self.rng), self.hp)
        if self.total_steps % self.hp.target_sync_every == 0:
            self.target.copy_from(self.online)

    def end_episode(self) -> None:
        self.eps = max(self.hp.eps_min, self.eps * self._decay)

    def qvalues(self, state: np.ndarray) -> np.ndarray:
        return self.online.forward(state)
