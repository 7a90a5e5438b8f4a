"""The MDP binding consensus, attacks, and defense agents.

State: 16 features over the (possibly corrupted) trust vector and recent
operational history.  Action: multiplicative delegation-ratio adjustment
in {0.9, 1.0, 1.1}, clipped to [0.1, 1.0].  Reward: detection-weighted
composite with a false-negative penalty and a capped collusion penalty.

The step ordering is normative: observe -> act -> adjust ratio -> access
gate -> delegate selection -> consensus round -> attack step -> apply
attack evidence -> reward -> agent update.  Reordering the attack and
evidence stages changes results.
"""

from __future__ import annotations

import bisect
import enum
import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics
from .abac import PolicyGate
from .attacks import Attack, apply_perturbations
from .network import (
    NetworkState,
    init_network,
    reset_profiles,
    run_consensus_round,
    trust_separation,
)
from .trust import committee_size, sample_top_k


FEATURE_NAMES = (
    "mean_trust",
    "variance",
    "skewness",
    "median",
    "range",
    "iqr",
    "coeff_variation",
    "verified_tx_norm",
    "chain_length_norm",
    "honest_malicious_ratio",
    "low_trust_frac",
    "high_trust_frac",
    "delegation_efficiency",
    "throughput_rate",
    "recent_block_rate",
    "collusion_score",
)

STATE_DIM = len(FEATURE_NAMES)

LOW_TRUST_CUTOFF = 0.3
HIGH_TRUST_CUTOFF = 0.7
HISTORY_WINDOW = 10


class Action(enum.IntEnum):
    DECREASE = 0
    MAINTAIN = 1
    INCREASE = 2


ACTION_MULTIPLIERS = (0.9, 1.0, 1.1)
N_ACTIONS = len(ACTION_MULTIPLIERS)

RATIO_MIN = 0.1
RATIO_MAX = 1.0


def apply_action(ratio: float, action: Action) -> float:
    if not (RATIO_MIN <= ratio <= RATIO_MAX):
        raise ValueError(f"ratio {ratio} outside [{RATIO_MIN}, {RATIO_MAX}]")
    return min(max(ratio * ACTION_MULTIPLIERS[action], RATIO_MIN), RATIO_MAX)


@dataclass(frozen=True)
class RewardConfig:
    w_f1: float = 0.7
    w_step: float = 0.3
    w_fn: float = 3.0
    collusion_trigger: float = 2.0
    collusion_cap: float = 20.0
    kappa_max: float = 10.0

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in (self.w_f1, self.w_step, self.w_fn, self.collusion_cap)):
            raise ValueError("reward weights and collusion_cap must be finite and nonnegative")
        if not (0.0 < self.kappa_max < math.inf):
            raise ValueError(f"kappa_max must be finite and > 0, got {self.kappa_max}")
        if not math.isfinite(self.collusion_trigger):
            raise ValueError(f"collusion_trigger must be finite, got {self.collusion_trigger}")


def collusion_score(tau_honest_mean: float, tau_malicious_mean: float, kappa_max: float) -> float:
    """kappa = 1/|gap|, capped at kappa_max (the cap also covers the singularity)."""
    gap = abs(tau_honest_mean - tau_malicious_mean)
    if gap < 1.0 / kappa_max:
        return kappa_max
    return min(1.0 / gap, kappa_max)


def network_kappa(net: NetworkState, taus: np.ndarray, kappa_max: float) -> float:
    """Collusion score between the honest and malicious mean trust; 0.0 when a role is empty."""
    honest, malicious = taus[net.honest], taus[net.malicious]
    if len(honest) == 0 or len(malicious) == 0:
        return 0.0
    # sum / len is ndarray.mean's own arithmetic, without its wrapper
    return collusion_score(float(honest.sum() / len(honest)), float(malicious.sum() / len(malicious)), kappa_max)


def compute_reward(cm: metrics.ConfusionMatrix, r_step: float, kappa: float, cfg: RewardConfig) -> float:
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    reward = cfg.w_f1 * metrics.f1(cm) * 100.0
    reward += cfg.w_step * r_step / 100.0
    reward -= cfg.w_fn * cm.fn
    if kappa > cfg.collusion_trigger:
        reward -= min(kappa * 2.0, cfg.collusion_cap)
    return reward


def _linear_quantile(ordered: list, q: float) -> float:
    """np.percentile(..., method="linear") at fraction q of an ascending list.

    Same index arithmetic and same two-sided lerp as numpy, so the result
    matches it bit for bit.
    """
    position = (len(ordered) - 1) * q
    below = int(position)
    a, b, t = ordered[below], ordered[min(below + 1, len(ordered) - 1)], position - below
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def extract_state(
    net: NetworkState,
    blocks,
    *,
    kappa_max: float,
    steps_per_episode: int,
    corruption: tuple | None = None,
    view: tuple | None = None,
) -> np.ndarray:
    """Build the 16-feature observation from the current network view.

    ``blocks`` is the recent window of block flags.  ``corruption`` is an
    eclipse's ``(node, value)``: the observation shows ``value`` as that
    node's trust; the network keeps the true one.  Every block verifies one
    full batch, so the transaction features equal the block features.
    ``view`` is the ``(trust vector, kappa)`` pair of the network as it
    stands, when the caller already has it; without it both are computed.
    """
    if view is None:
        true_taus = net.trust_vector()
        view = true_taus, network_kappa(net, true_taus, kappa_max)
    true_taus, kappa = view
    taus = true_taus
    if corruption is not None:
        taus = taus.copy()
        taus[corruption[0]] = corruption[1]

    # The moments come from one centred vector, in the order of numpy's own
    # mean and var (``x**2`` is ``x*x`` in numpy), so they match np.mean,
    # np.var(ddof=1) and the moment skewness bit for bit.
    n = len(taus)
    mean = taus.sum() / n
    c = taus - mean
    squares = (c * c).sum()
    var = float(squares / (n - 1)) if n > 1 else 0.0
    # Fisher sample skewness g1 = m3 / m2^(3/2); defined as 0 for a flat sample
    skew = 0.0
    m2 = float(squares / n)
    if var > 0.0 and m2 > 0.0:
        skew = float((c**3).sum() / n) / m2**1.5
    ordered = np.sort(taus).tolist()
    half = len(ordered) // 2
    median = ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2
    spread = ordered[-1] - ordered[0]
    iqr = _linear_quantile(ordered, 0.75) - _linear_quantile(ordered, 0.25)
    cv = math.sqrt(var) / mean if mean > 0.0 else 0.0

    chain_norm = min(max(net.chain_length / steps_per_episode, 0.0), 1.0)

    hm_ratio = len(net.honest) / max(1, len(net.malicious))

    low_frac = bisect.bisect_left(ordered, LOW_TRUST_CUTOFF) / n
    high_frac = (n - bisect.bisect_right(ordered, HIGH_TRUST_CUTOFF)) / n

    # the delegation policy's committee fraction: the observable image of
    # the controlled variable (k/N under the current ratio)
    deleg_eff = committee_size(net.delegation_ratio, net.n) / net.n

    block_rate = sum(blocks) / len(blocks) if blocks else 0.0

    state = np.array(
        [
            mean,
            var,
            skew,
            median,
            spread,
            iqr,
            cv,
            chain_norm,
            chain_norm,
            hm_ratio,
            low_frac,
            high_frac,
            deleg_eff,
            block_rate,
            block_rate,
            kappa,
        ]
    )
    if not np.isfinite(state).all():
        raise FloatingPointError(f"non-finite state features: {state}")
    return state


@dataclass(frozen=True)
class EnvConfig:
    batch_size: int = 10
    theta: float = 0.45
    detect_p: float = 0.6

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("theta", "detect_p"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


class SimulationError(RuntimeError):
    pass


class Environment:
    """One seeded simulation instance; owns the network, gate and attack.

    It builds the network, the attack and the evidence log from an
    ``ExperimentConfig``.  The attack is never ``None``: with no attack it
    is the ``"none"`` family, which steps nothing, so every run takes the
    same step.  It is the only writer of the network during a run, so it
    keeps the network's current trust view, ``taus`` and ``kappa``: taken
    when an episode begins and after each step's evidence.  The access
    gate, the reward, ``observe`` and the episode's closing classification
    read it.
    """

    def __init__(self, cfg, gate: PolicyGate, rng_init, rng_reset, rng_consensus, rng_attack):
        self.net = init_network(cfg.n_nodes, cfg.malicious_ratio, rng_init)
        self.attack = Attack(cfg.attack_cfg)
        self.gate = gate
        self.update_cfg = cfg.trust
        self.reward_cfg = cfg.reward
        self.cfg = cfg.env
        self.steps = cfg.steps
        self.rng_reset = rng_reset
        self.rng_consensus = rng_consensus
        self.rng_attack = rng_attack
        self.evidence_log = [] if cfg.log_evidence else None
        self.blocks: deque = deque(maxlen=HISTORY_WINDOW)
        self.pending_corruption: tuple | None = None
        self.taus: np.ndarray | None = None
        self.kappa = 0.0
        self.kappas: list[float] = []
        self.reward_total = 0.0

    def begin_episode(self, episode_index: int) -> None:
        """Fresh masses and counters for a new episode."""
        reset_profiles(self.net, self.rng_reset)
        self.net.episode_index = episode_index
        self.blocks.clear()
        self.pending_corruption = None
        self.kappas = []
        self.reward_total = 0.0
        self._take_view()

    def _take_view(self) -> None:
        self.taus = self.net.trust_vector()
        self.kappa = network_kappa(self.net, self.taus, self.reward_cfg.kappa_max)

    def observe(self) -> np.ndarray:
        """The observation of the network as it stands."""
        return extract_state(
            self.net,
            self.blocks,
            kappa_max=self.reward_cfg.kappa_max,
            corruption=self.pending_corruption,
            steps_per_episode=self.steps,
            view=(self.taus, self.kappa),
        )

    def step(self, action: Action) -> float:
        net = self.net
        net.delegation_ratio = apply_action(net.delegation_ratio, action)

        accepted = self.gate.accepted(self.taus)

        k = min(committee_size(net.delegation_ratio, net.n), len(accepted))
        outcome = None
        if k > 0:
            delegates = sample_top_k(net.alphas, net.betas, k, self.rng_consensus, candidates=accepted)
            outcome = run_consensus_round(
                net,
                delegates,
                self.rng_consensus,
                self.update_cfg,
                posing=self.attack.posing_voters(net),
                detect_p=self.cfg.detect_p,
                evidence_log=self.evidence_log,
            )

        perts, self.pending_corruption = self.attack.step(net, self.rng_attack)
        apply_perturbations(net, perts, accepted=set(accepted.tolist()), evidence_log=self.evidence_log)

        block = outcome.block_created if outcome else False
        self.blocks.append(block)

        self._take_view()
        cm = metrics.classify(self.taus, net.malicious_mask, self.cfg.theta)
        r_step = 60.0 if block else 0.0
        reward = compute_reward(cm, r_step, self.kappa, self.reward_cfg)
        if not math.isfinite(reward):
            raise SimulationError(f"non-finite reward at step {net.step_index}: {reward}")

        self.kappas.append(self.kappa)
        self.reward_total += reward  # a left fold: the same bytes on every Python version
        net.step_index += 1
        return reward


def run_episode(env: Environment, agent, episode_index: int) -> metrics.EpisodeRecord:
    """Run ``env.steps`` steps as one episode and return its aggregate record.

    Episodes are evaluation windows over one continuing process: value
    bootstrapping carries credit for end-of-episode policy state into the
    next window.
    """
    env.begin_episode(episode_index)

    state = env.observe()
    for _ in range(env.steps):
        action = agent.act(state)
        reward = env.step(Action(action))
        next_state = env.observe()
        agent.observe(state, int(action), reward, next_state)
        state = next_state
    agent.end_episode()

    net = env.net
    cm = metrics.classify(env.taus, net.malicious_mask, env.cfg.theta)
    return metrics.EpisodeRecord(
        episode=episode_index,
        cumulative_reward=env.reward_total,
        f1=metrics.f1(cm),
        precision=metrics.precision(cm),
        recall=metrics.recall(cm),
        **asdict(cm),
        throughput=net.chain_length * env.cfg.batch_size,
        chain_length=net.chain_length,
        mean_kappa=float(np.mean(env.kappas)) if env.kappas else 0.0,
        trust_separation=trust_separation(net),
        delegation_ratio=net.delegation_ratio,
    )
