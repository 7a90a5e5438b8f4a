"""Detection and learning metrics: confusion matrices, F1, episode records."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts for malicious-node detection; positive class = malicious."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")


def classify(trusts, roles_malicious, theta: float) -> ConfusionMatrix:
    """Tally predictions against ground truth.

    A node is predicted malicious iff its trust score is strictly below
    theta; a score exactly at the threshold predicts honest.
    """
    if len(trusts) != len(roles_malicious):
        raise ValueError("trusts and roles must have the same length")
    predicted = np.asarray(trusts) < theta
    malicious = np.asarray(roles_malicious, dtype=bool)
    tp = int(np.count_nonzero(predicted & malicious))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(malicious)) - tp
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=len(predicted) - tp - fp - fn)


def precision(cm: ConfusionMatrix) -> float:
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else 0.0


def recall(cm: ConfusionMatrix) -> float:
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else 0.0


def f1(cm: ConfusionMatrix) -> float:
    p = precision(cm)
    r = recall(cm)
    return 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0


@dataclass
class EpisodeRecord:
    """One row of per-episode reporting; the field order is the episodes.csv column order."""

    episode: int
    cumulative_reward: float
    f1: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    tn: int
    throughput: int
    chain_length: int
    mean_kappa: float
    trust_separation: float
    delegation_ratio: float


# episodes.csv schema; order is part of the external contract
CSV_COLUMNS = tuple(f.name for f in fields(EpisodeRecord))


AGGREGATE_FIELDS = (
    "cumulative_reward",
    "f1",
    "precision",
    "recall",
    "throughput",
    "chain_length",
    "mean_kappa",
    "trust_separation",
    "delegation_ratio",
)


def aggregate_tail(records: list[EpisodeRecord], tail: int) -> dict[str, tuple[float, float]]:
    """Mean and population standard deviation per metric over the last `tail` records."""
    if not records:
        raise ValueError("records must be nonempty")
    if tail < 1 or tail > len(records):
        raise ValueError(f"tail must lie in [1, {len(records)}], got {tail}")
    window = records[-tail:]
    out = {}
    for name in AGGREGATE_FIELDS:
        values = np.array([float(getattr(r, name)) for r in window])
        out[name] = (float(values.mean()), float(values.std()))
    return out
