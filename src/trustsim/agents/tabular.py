"""Tabular Q-learning over a discretized observation space."""

from __future__ import annotations

import numpy as np

from ..env import FEATURE_NAMES, N_ACTIONS
from .nn import AgentHyperparams, epsilon_greedy

# the three most informative features get the fine 10-bin grid
FINE_FEATURES = ("mean_trust", "variance", "collusion_score")
FINE_BINS = 10
COARSE_BINS = 5

# declared value range per feature, matched to the spans the simulation
# actually produces so the bins resolve structure; out-of-range values clamp
FEATURE_RANGES = {
    "mean_trust": (0.0, 1.0),
    "variance": (0.0, 0.1),
    "skewness": (-2.0, 2.0),
    "median": (0.0, 1.0),
    "range": (0.0, 0.8),
    "iqr": (0.0, 0.5),
    "coeff_variation": (0.0, 1.0),
    "verified_tx_norm": (0.0, 1.0),
    "chain_length_norm": (0.0, 1.0),
    "honest_malicious_ratio": (0.0, 16.0),
    "low_trust_frac": (0.0, 1.0),
    "high_trust_frac": (0.0, 1.0),
    "delegation_efficiency": (0.0, 1.0),
    "throughput_rate": (0.0, 1.0),
    "recent_block_rate": (0.0, 1.0),
    "collusion_score": (0.0, 10.0),
}


class DiscretizationSpec:
    """Bin count and value range per feature, plus the arrays ``discretize`` uses, built once."""

    def __init__(self, bins: tuple, lows: tuple, highs: tuple):
        self.bins, self.lows, self.highs = bins, lows, highs
        self.low_values = np.array(lows, dtype=float)
        self.spans = np.array(highs, dtype=float) - self.low_values
        self.bin_counts = np.array(bins, dtype=float)
        self.top_bins = self.bin_counts - 1.0


def default_spec() -> DiscretizationSpec:
    bins, lows, highs = [], [], []
    for name in FEATURE_NAMES:
        bins.append(FINE_BINS if name in FINE_FEATURES else COARSE_BINS)
        lo, hi = FEATURE_RANGES[name]
        lows.append(lo)
        highs.append(hi)
    return DiscretizationSpec(tuple(bins), tuple(lows), tuple(highs))


def discretize(state: np.ndarray, spec: DiscretizationSpec) -> bytes:
    """One byte per feature: floor(clamped_fraction * bins), the top edge in the last bin.

    One array pass takes the IEEE steps of the scalar rule in
    ``tests/reference.py``; capping before the cast truncates to the same
    bin as capping after ``int``.
    """
    frac = (state - spec.low_values) / spec.spans
    np.maximum(frac, 0.0, out=frac)
    np.minimum(frac, 1.0, out=frac)
    np.multiply(frac, spec.bin_counts, out=frac)
    np.minimum(frac, spec.top_bins, out=frac)
    return frac.astype(np.uint8).tobytes()


class QTable:
    """Sparse state-key -> action-values map; unseen keys read as zeros."""

    def __init__(self, n_actions: int = N_ACTIONS):
        self.n_actions = n_actions
        self.table: dict[bytes, np.ndarray] = {}

    def values(self, key: bytes) -> np.ndarray:
        row = self.table.get(key)
        return row if row is not None else np.zeros(self.n_actions)

    def row(self, key: bytes) -> np.ndarray:
        row = self.table.get(key)
        if row is None:
            row = np.zeros(self.n_actions)
            self.table[key] = row
        return row

    def __len__(self) -> int:
        return len(self.table)


def tabular_update(
    q: QTable, s_key: bytes, action: int, reward: float, s_next_key: bytes, hp: AgentHyperparams
) -> QTable:
    """Temporal-difference backup toward r + gamma * max_a' Q(s', a')."""
    row = q.row(s_key)
    best_next = float(q.values(s_next_key).max())
    row[action] += hp.tabular_learning_rate * (reward + hp.discount * best_next - row[action])
    return q


class TabularAgent:
    """Epsilon-greedy tabular learner; epsilon decays once per episode."""

    def __init__(self, hp: AgentHyperparams, rng: np.random.Generator, episodes_total: int = 50):
        self.hp = hp
        self.rng = rng
        self.spec = default_spec()
        self.q = QTable()
        self.eps = hp.eps_start
        self._decay = hp.episode_eps_decay(episodes_total)
        # the last observation's bytes and its key: an episode loop passes each
        # observation to observe as s', then to act, then to observe as s
        self._last = (None, b"")

    def key(self, state: np.ndarray) -> bytes:
        """``discretize(state, self.spec)``, computed once for a run of calls on equal states."""
        raw = state.tobytes()
        last_raw, last_key = self._last
        if raw == last_raw:
            return last_key
        key = discretize(state, self.spec)
        self._last = (raw, key)
        return key

    def act(self, state: np.ndarray) -> int:
        return epsilon_greedy(self.q.values(self.key(state)), self.eps, self.rng)

    def observe(self, state, action, reward, next_state) -> None:
        tabular_update(self.q, self.key(state), action, reward, self.key(next_state), self.hp)

    def end_episode(self) -> None:
        self.eps = max(self.hp.eps_min, self.eps * self._decay)

    def qvalues(self, state: np.ndarray) -> np.ndarray:
        return self.q.values(self.key(state)).copy()
