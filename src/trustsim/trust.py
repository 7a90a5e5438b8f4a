"""Bayesian trust profiles and Thompson-sampling delegate selection.

Each node carries a Beta evidence pair (alpha, beta).  The trust score is
the Beta mean alpha / (alpha + beta).  Evidence updates are asymmetric:
positive evidence only adds alpha mass, while confirmed malicious behavior
both adds beta mass and multiplicatively decays alpha, so trust is harder
to build than to lose.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class EvidenceKind(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class TrustProfile:
    """Beta evidence pair for one node. Both masses must stay positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"alpha and beta must be positive, got ({self.alpha}, {self.beta})")


@dataclass(frozen=True)
class TrustUpdateConfig:
    delta_valid: float = 1.0
    delta_invalid: float = 1.0
    delta_malicious: float = 2.0
    decay_gamma: float = 0.9

    def __post_init__(self):
        if self.delta_valid <= 0 or self.delta_invalid <= 0 or self.delta_malicious <= 0:
            raise ValueError("evidence deltas must be positive")
        if not (0.0 < self.decay_gamma < 1.0):
            raise ValueError("decay_gamma must lie strictly inside (0, 1)")


def committee_size(ratio: float, node_count: int) -> int:
    """Committee sizing rule: k = max(1, round-half-up(ratio * node_count))."""
    if not (0.1 <= ratio <= 1.0):
        raise ValueError(f"delegation ratio must lie in [0.1, 1.0], got {ratio}")
    if node_count < 1:
        raise ValueError("node_count must be positive")
    return max(1, round_half_up(ratio * node_count))


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def trust_score(profile: TrustProfile) -> float:
    return profile.alpha / (profile.alpha + profile.beta)


def apply_evidence(profile: TrustProfile, kind: EvidenceKind, cfg: TrustUpdateConfig) -> TrustProfile:
    """Return the profile after one piece of behavioral evidence."""
    if kind is EvidenceKind.VALID:
        return TrustProfile(profile.alpha + cfg.delta_valid, profile.beta)
    if kind is EvidenceKind.INVALID:
        return TrustProfile(profile.alpha, profile.beta + cfg.delta_invalid)
    if kind is EvidenceKind.MALICIOUS:
        return TrustProfile(cfg.decay_gamma * profile.alpha, profile.beta + cfg.delta_malicious)
    raise TypeError(f"unknown evidence kind: {kind!r}")


def sample_beta(alphas: np.ndarray, betas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Thompson draw per node via the gamma-ratio construction.

    x ~ Gamma(alpha), y ~ Gamma(beta), sample = x / (x + y).  Valid for any
    positive shape parameters without approximation cutoffs.
    """
    x = rng.standard_gamma(alphas)
    y = rng.standard_gamma(betas)
    denom = x + y
    # Guard against simultaneous underflow at extreme shapes; fall back to the mean.
    zero = denom == 0.0
    if zero.any():
        denom = np.where(zero, 1.0, denom)
        x = np.where(zero, alphas / (alphas + betas), x)
    return x / denom


def sample_top_k(
    alphas: np.ndarray,
    betas: np.ndarray,
    k: int,
    rng: np.random.Generator,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the k largest Beta draws, optionally restricted to candidates."""
    if candidates is None:
        candidates = np.arange(len(alphas))
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    samples = sample_beta(alphas[candidates], betas[candidates], rng)
    # argsort on negated samples: descending, with stable index order on ties
    order = np.argsort(-samples, kind="stable")[:k]
    return np.sort(candidates[order])
