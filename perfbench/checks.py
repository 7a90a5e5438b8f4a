"""Output checks for one benchmark repetition.

Every check recomputes its expectation apart from the program, or tests a
property the method must have; none compares against a stored copy of an
earlier output.  Each returns a list of failure messages, empty on success,
so the corruption test can show that each one can fail.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

# the four outputs covered by the manifest-plus-seed contract
CONTRACT_FILES = ("episodes.csv", "summary.csv", "confusion.csv", "agent.ckpt")

# the deployed gate: (trust >= 45) & (role in {2, 3}), every node a validator
GATE_TRUST_CUTOFF = 45

F1_TOLERANCE = 1e-12


def digest_outputs(out_dir) -> dict[str, str]:
    out = Path(out_dir)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CONTRACT_FILES}


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_identical(reference: dict[str, str], other: dict[str, str], label: str) -> list[str]:
    """Byte identity of the contract files, compared by digest."""
    return [
        f"{name} of {label} differs from the first repetition"
        for name in CONTRACT_FILES
        if reference.get(name) != other.get(name)
    ]


def check_population(malicious_mask, malicious_ratio: float) -> list[str]:
    """The role mask holds round-half-up(ratio * n) malicious nodes."""
    mask = np.asarray(malicious_mask, dtype=bool)
    expected = math.floor(malicious_ratio * len(mask) + 0.5)
    if int(mask.sum()) == expected:
        return []
    return [f"{int(mask.sum())} malicious nodes, expected {expected} of {len(mask)}"]


def recount_confusion(alphas, betas, malicious_mask, theta: float) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of the rule tau < theta against the role mask."""
    predicted = np.asarray(alphas) / (np.asarray(alphas) + np.asarray(betas)) < theta
    mal = np.asarray(malicious_mask, dtype=bool)
    return (
        int(np.sum(predicted & mal)),
        int(np.sum(predicted & ~mal)),
        int(np.sum(~predicted & mal)),
        int(np.sum(~predicted & ~mal)),
    )


def check_final_confusion(expected, confusion_rows, episode_rows) -> list[str]:
    errors = []
    keys = ("tp", "fp", "fn", "tn")
    if len(confusion_rows) != 1:
        return [f"confusion.csv holds {len(confusion_rows)} rows, expected 1"]
    got = tuple(int(confusion_rows[0][k]) for k in keys)
    if got != tuple(expected):
        errors.append(f"confusion.csv {got} != recount from final trust {tuple(expected)}")
    last = tuple(int(episode_rows[-1][k]) for k in keys)
    if last != tuple(expected):
        errors.append(f"last episodes.csv row {last} != recount from final trust {tuple(expected)}")
    return errors


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def check_episode_rows(rows, *, episodes: int, n_malicious: int, n_honest: int, steps: int, batch_size: int) -> list[str]:
    """Per-episode identities of episodes.csv."""
    errors = []
    if len(rows) != episodes:
        errors.append(f"episodes.csv holds {len(rows)} episodes, expected {episodes}")
    for row in rows:
        ep = row["episode"]
        tp, fp, fn, tn = (int(row[k]) for k in ("tp", "fp", "fn", "tn"))
        if abs(float(row["f1"]) - f1_from_counts(tp, fp, fn)) > F1_TOLERANCE:
            errors.append(f"episode {ep}: f1 {row['f1']} != {f1_from_counts(tp, fp, fn)!r} from counts")
        if tp + fn != n_malicious:
            errors.append(f"episode {ep}: tp+fn = {tp + fn}, expected {n_malicious} malicious nodes")
        if fp + tn != n_honest:
            errors.append(f"episode {ep}: fp+tn = {fp + tn}, expected {n_honest} honest nodes")
        chain = int(row["chain_length"])
        if int(row["throughput"]) != chain * batch_size:
            errors.append(f"episode {ep}: throughput {row['throughput']} != {chain} blocks x {batch_size}")
        if chain > steps:
            errors.append(f"episode {ep}: chain_length {chain} exceeds {steps} steps")
        errors += check_ratio(float(row["delegation_ratio"]), f"episode {ep}")
    return errors


def check_trust_masses(alphas, betas, where: str) -> list[str]:
    a = np.asarray(alphas)
    b = np.asarray(betas)
    if np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(a > 0) and np.all(b > 0):
        return []
    return [f"{where}: alphas/betas not all finite and positive"]


def check_ratio(ratio: float, where: str) -> list[str]:
    return [] if 0.1 <= ratio <= 1.0 else [f"{where}: delegation ratio {ratio} outside [0.1, 1]"]


def check_qvalues(trained, loaded) -> list[str]:
    a = np.asarray(trained, dtype=np.float64)
    b = np.asarray(loaded, dtype=np.float64)
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return []
    return [f"reloaded agent Q-values {b.tolist()} differ from trained {a.tolist()}"]


def check_gate(taus, accepted, where: str) -> list[str]:
    """Gate decisions against an independent floor(100 tau) >= 45 threshold."""
    expected = np.flatnonzero(np.floor(100.0 * np.asarray(taus)) >= GATE_TRUST_CUTOFF)
    got = np.asarray(accepted, dtype=np.int64)
    if got.shape == expected.shape and np.array_equal(got, expected):
        return []
    return [f"{where}: gate accepted {got.tolist()}, threshold gives {expected.tolist()}"]


def check_same_bytes(a: bytes, b: bytes, what: str) -> list[str]:
    return [] if a == b else [f"{what} differs"]


def check_tail_f1(rows, tail: int, *, low: float = -math.inf, high: float = math.inf, what: str) -> list[str]:
    """The mean F1 of the final `tail` episodes lies in [low, high]."""
    window = [float(r["f1"]) for r in rows[-tail:]]
    mean = sum(window) / len(window)
    if low <= mean <= high:
        return []
    return [f"{what}: tail-{tail} mean F1 {mean:.4f} outside [{low}, {high}]"]
