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

# the largest evidence increment one event may carry: far above any useful
# setting, and far enough below float64's maximum that masses summed over
# many events stay finite
MAX_INCREMENT = 1e6


class EvidenceKind(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class TrustUpdateConfig:
    delta_valid: float = 1.0
    delta_invalid: float = 1.0
    delta_malicious: float = 2.0
    decay_gamma: float = 0.9

    def __post_init__(self):
        if not all(0.0 < d <= MAX_INCREMENT for d in (self.delta_valid, self.delta_invalid, self.delta_malicious)):
            raise ValueError(f"evidence deltas must lie in (0, {MAX_INCREMENT:g}]")
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


def sample_beta(alphas: np.ndarray, betas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Thompson draw per node via the gamma-ratio construction.

    x ~ Gamma(alpha), y ~ Gamma(beta), sample = x / (x + y).  Valid for any
    positive shape parameters without approximation cutoffs.  numpy fills
    an array-shaped gamma draw element by element in order, so one call
    over both shape vectors gives the values and the generator state of
    two calls, x's then y's.
    """
    gammas = rng.standard_gamma(np.concatenate((alphas, betas)))
    x, y = gammas[: len(alphas)], gammas[len(alphas) :]
    denom = x + y
    # Guard against simultaneous underflow at extreme shapes; fall back to the mean.
    zero = denom == 0.0
    if zero.any():
        denom = np.where(zero, 1.0, denom)
        x = np.where(zero, alphas / (alphas + betas), x)
    return x / denom


def sample_top_k(
    alphas: np.ndarray, betas: np.ndarray, k: int, rng: np.random.Generator, candidates: np.ndarray
) -> np.ndarray:
    """Indices of the k largest Beta draws among ``candidates``, ascending."""
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    samples = sample_beta(alphas[candidates], betas[candidates], rng)
    # argsort on negated samples: descending, with stable index order on ties
    order = np.argsort(-samples, kind="stable")[:k]
    return np.sort(candidates[order])
