"""The simulated network: node roster, consensus rounds, chain growth.

Ground truth is simple: every transaction batch offered to a round is
valid.  Honest delegates therefore vote Valid.  Malicious delegates vote
Invalid, unless the active attack has them pose as honest validators.
A block forms when Valid votes reach the 2/3 quorum, mirroring BFT
conventions.

Evidence rules per round:

* Valid voters in a successful round earn Valid evidence.
* Invalid voters are caught misbehaving with probability
  ``detect_p``; a caught vote draws Malicious evidence (beta increment plus
  multiplicative alpha decay), an uncaught one draws plain Invalid
  evidence.  Without the escalation path, coordinated alpha inflation
  outpaces any linear beta accrual and detection is impossible at any
  delegation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trust import EvidenceKind, TrustUpdateConfig, round_half_up


@dataclass
class NetworkState:
    """Trust masses per node plus chain counters.

    Roles are fixed for the run: ``malicious_mask`` is read-only, and the
    ``honest`` and ``malicious`` index arrays are derived from it once.
    """

    alphas: np.ndarray
    betas: np.ndarray
    malicious_mask: np.ndarray
    delegation_ratio: float = 0.5
    chain_length: int = 0
    step_index: int = 0
    episode_index: int = 0
    honest: np.ndarray = field(init=False, repr=False)
    malicious: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mask = np.array(self.malicious_mask, dtype=bool)
        if mask.shape != np.shape(self.alphas):
            raise ValueError("malicious_mask must hold one flag per node")
        self.honest = np.flatnonzero(~mask)
        self.malicious = np.flatnonzero(mask)
        for fixed in (mask, self.honest, self.malicious):
            fixed.setflags(write=False)
        self.malicious_mask = mask

    @property
    def n(self) -> int:
        return len(self.malicious_mask)

    def trust_vector(self) -> np.ndarray:
        return self.alphas / (self.alphas + self.betas)


@dataclass
class RoundOutcome:
    block_created: bool


PRIOR_ALPHA = 8.0
PRIOR_BETA = 8.0
INIT_NOISE_SIGMA = 0.12
MIN_INIT_ALPHA = 0.5
ALPHA_FLOOR = np.finfo(float).tiny


def draw_profiles(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Beta(8, 8) priors with zero-mean Gaussian noise on alpha, clamped positive."""
    alphas = PRIOR_ALPHA + rng.normal(0.0, INIT_NOISE_SIGMA, size=n)
    alphas = np.maximum(alphas, MIN_INIT_ALPHA)
    betas = np.full(n, PRIOR_BETA)
    return alphas, betas


def init_network(n: int, malicious_ratio: float, rng: np.random.Generator) -> NetworkState:
    if n < 2:
        raise ValueError(f"network needs at least 2 nodes, got {n}")
    if not (0.0 <= malicious_ratio <= 1.0):
        raise ValueError("malicious_ratio must lie in [0, 1]")
    alphas, betas = draw_profiles(n, rng)
    n_mal = round_half_up(malicious_ratio * n)
    mask = np.zeros(n, dtype=bool)
    if n_mal:
        mask[rng.choice(n, size=n_mal, replace=False)] = True
    return NetworkState(alphas=alphas, betas=betas, malicious_mask=mask)


def reset_profiles(state: NetworkState, rng: np.random.Generator) -> None:
    """Fresh trust priors and counters for a new episode.

    Roles and the delegation ratio carry across episodes: roles are fixed
    for the run, and the ratio is the agent's policy variable, so a
    converged agent enters each episode at its preferred committee size.
    """
    state.alphas, state.betas = draw_profiles(state.n, rng)
    state.chain_length = 0
    state.step_index = 0


def quorum(n_delegates: int) -> int:
    """Votes required for a block: ceil(2/3 * committee size)."""
    return (2 * n_delegates + 2) // 3


def run_consensus_round(
    state: NetworkState,
    delegates,
    rng: np.random.Generator,
    update_cfg: TrustUpdateConfig,
    *,
    detect_p: float,
    posing: np.ndarray | None = None,
    evidence_log=None,
) -> RoundOutcome:
    """Run one voting round over the current transaction batch and apply evidence.

    Each delegate draws at most one piece of evidence, so the array updates
    below equal the evidence rules applied node by node (the per-node
    reference in ``tests/reference.py``).  ``posing`` indexes the
    malicious nodes that vote Valid.  The caught-or-not draws are taken in
    sorted delegate order, one per Invalid voter.
    """
    delegates = np.sort(np.asarray(delegates, dtype=np.int64))
    if len(delegates) == 0:
        raise ValueError("delegate set must be nonempty")
    if delegates[0] < 0 or delegates[-1] >= state.n:
        raise ValueError("delegate index out of range")
    if (delegates[1:] == delegates[:-1]).any():
        raise ValueError("delegates must be distinct")

    valid = ~state.malicious_mask
    if posing is not None:
        valid[posing] = True
    valid = valid[delegates]
    block = int(np.count_nonzero(valid)) >= quorum(len(delegates))

    if block:
        state.alphas[delegates[valid]] += update_cfg.delta_valid
    suspects = delegates[~valid]
    caught = rng.random(len(suspects)) < detect_p
    # repeated catches would underflow alpha to 0.0; the smallest normal float keeps it positive
    culprits = suspects[caught]
    state.alphas[culprits] = np.maximum(state.alphas[culprits] * update_cfg.decay_gamma, ALPHA_FLOOR)
    state.betas[suspects] += np.where(caught, update_cfg.delta_malicious, update_cfg.delta_invalid)

    if evidence_log is not None:
        suspect_kinds = iter(np.where(caught, EvidenceKind.MALICIOUS.value, EvidenceKind.INVALID.value).tolist())
        for node, is_valid in zip(delegates.tolist(), valid.tolist()):
            if is_valid and not block:
                continue
            kind = EvidenceKind.VALID.value if is_valid else next(suspect_kinds)
            evidence_log.append((state.episode_index, state.step_index, "consensus", node, kind))

    if block:
        state.chain_length += 1
    return RoundOutcome(block_created=block)


def trust_separation(state: NetworkState) -> float:
    """Mean honest trust minus mean malicious trust (signed); 0.0 when a role is empty."""
    if len(state.honest) == 0 or len(state.malicious) == 0:
        return 0.0
    taus = state.trust_vector()
    return float(taus[state.honest].mean() - taus[state.malicious].mean())
