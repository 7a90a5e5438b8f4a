"""A plain-Python reference simulator, node by node, for differential tests.

This module is the one home of the per-node oracles the program itself
does not need: the Beta profile and its evidence rules, the tree-walking
policy evaluator, the scalar discretizer and the feature index.
``reference_step`` composes them into one environment step in the
normative order of ``trustsim.env`` (action, access gate, committee size,
Thompson draws, consensus, attack, evidence, reward), and
``reference_observation`` builds the 16 features.

The reference makes the same generator calls as the program, one element
at a time: a per-element ``standard_gamma`` or ``random`` call gives the
bytes of the vector call.  It shares none of the program's step code: it
calls no ``Perturbation``, ``apply_perturbations``, ``run_consensus_round``,
``sample_top_k``, ``extract_state``, ``PolicyGate`` or attack family
function.  Its per-node state is copied from the masses
``Environment.begin_episode`` draws, once per episode, and never resynced
inside an episode.
"""

from __future__ import annotations

import copy
import math
import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from trustsim.abac import NODE_ATTRIBUTES, AbacError, And, Leaf, Or
from trustsim.attacks import AAA_STRATEGIES
from trustsim.env import ACTION_MULTIPLIERS, FEATURE_NAMES, HIGH_TRUST_CUTOFF, HISTORY_WINDOW, LOW_TRUST_CUTOFF
from trustsim.trust import EvidenceKind

ALPHA_FLOOR = float(np.finfo(float).tiny)

FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


# --- per-node oracles ----------------------------------------------------------


@dataclass(frozen=True)
class TrustProfile:
    """Beta evidence pair for one node. Both masses must stay positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"alpha and beta must be positive, got ({self.alpha}, {self.beta})")


def trust_score(profile: TrustProfile) -> float:
    return profile.alpha / (profile.alpha + profile.beta)


def apply_evidence(profile: TrustProfile, kind: EvidenceKind, cfg) -> TrustProfile:
    """The profile after one piece of behavioral evidence."""
    if kind is EvidenceKind.VALID:
        return TrustProfile(profile.alpha + cfg.delta_valid, profile.beta)
    if kind is EvidenceKind.INVALID:
        return TrustProfile(profile.alpha, profile.beta + cfg.delta_invalid)
    if kind is EvidenceKind.MALICIOUS:
        # the decay stops at the smallest normal float, so alpha never underflows to 0.0
        return TrustProfile(max(cfg.decay_gamma * profile.alpha, ALPHA_FLOOR), profile.beta + cfg.delta_malicious)
    raise TypeError(f"unknown evidence kind: {kind!r}")


_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def eval_policy_plain(policy, attrs: dict) -> bool:
    """Standard boolean evaluation of the expression tree over ``{name: int}``."""
    if isinstance(policy, Leaf):
        if policy.attribute not in attrs:
            raise AbacError(f"policy references unknown attribute {policy.attribute!r}")
        return _OPS[policy.op](attrs[policy.attribute], policy.constant)
    if isinstance(policy, And):
        return all(eval_policy_plain(c, attrs) for c in policy.children)
    if isinstance(policy, Or):
        return any(eval_policy_plain(c, attrs) for c in policy.children)
    raise TypeError(f"not a policy node: {policy!r}")


def node_attributes(tau: float) -> dict:
    """The attributes a node presents to the gate: its trust floored to [0, 100], then the constants."""
    return {**NODE_ATTRIBUTES, "trust": min(max(math.floor(float(tau) * 100.0), 0), 100)}


def discretize_value(value: float, low: float, high: float, bins: int) -> int:
    """floor(clamped_fraction * bins), with the top edge assigned to the last bin."""
    frac = (value - low) / (high - low)
    frac = min(max(frac, 0.0), 1.0)
    return min(int(frac * bins), bins - 1)


def discretize_key(state, spec) -> bytes:
    """The tabular key, one ``discretize_value`` per feature."""
    ranges = zip(state, spec.lows, spec.highs, spec.bins)
    return bytes(discretize_value(float(v), lo, hi, b) for v, lo, hi, b in ranges)


def total(cm) -> int:
    """The node count a confusion matrix covers."""
    return cm.tp + cm.fp + cm.fn + cm.tn


def committee_size(ratio: float, n: int) -> int:
    return max(1, math.floor(ratio * n + 0.5))


def reference_round(alphas, betas, mask, delegates, rng, posing, detect_p, cfg, episode=0, step=0):
    """One consensus round node by node through ``apply_evidence``: (block, evidence log)."""
    posing = set() if posing is None else {int(p) for p in posing}
    votes = {d: not mask[d] or d in posing for d in sorted(int(d) for d in delegates)}
    block = sum(votes.values()) >= (2 * len(votes) + 2) // 3
    log = []
    for d, valid in votes.items():
        if valid:
            if not block:
                continue
            kind = EvidenceKind.VALID
        else:
            kind = EvidenceKind.MALICIOUS if rng.random() < detect_p else EvidenceKind.INVALID
        profile = apply_evidence(TrustProfile(float(alphas[d]), float(betas[d])), kind, cfg)
        alphas[d], betas[d] = profile.alpha, profile.beta
        log.append((episode, step, "consensus", d, kind.value))
    return block, log


# --- the five attack families, as (target, kind, magnitude, emitters) tuples ----

BOOST, PENALIZE = "boost_alpha", "penalize_beta"


def endorse(members, magnitude):
    if magnitude <= 0.0:
        return []
    return [(node, BOOST, magnitude, tuple(i for i in members if i != node)) for node in members]


def strike(targets, magnitude, emitters):
    if magnitude <= 0.0:
        return []
    return [(t, PENALIZE, magnitude, emitters) for t in targets]


def top_trust(taus, indices, count):
    """The ``count`` highest-trust nodes among ascending ``indices``; ties keep index order."""
    return sorted(indices, key=lambda i: -taus[i])[:count]


def nma(ref, cfg, taus, rng):
    out = []
    if not ref.honest:
        return out
    for m in ref.malicious:
        if cfg.nma_p_attack > 0.0 and rng.random() < cfg.nma_p_attack:
            out += strike([ref.honest[rng.integers(len(ref.honest))]], cfg.nma_noise, (m,))
    return out


def cra(ref, cfg, taus, rng):
    coalition, m = tuple(ref.malicious), len(ref.malicious)
    if ref.step % cfg.cra_period != 0 or m == 0:
        return []
    targets = top_trust(taus, ref.honest, math.ceil(cfg.cra_target_fraction * len(ref.honest)))
    return endorse(coalition, (m - 1) * cfg.cra_intensity) + strike(targets, m * cfg.cra_intensity, coalition)


def aaa(ref, cfg, taus, rng):
    mal, honest, memo = ref.malicious, ref.honest, ref.memory
    if not mal:
        return []
    mean_now = float(np.mean([taus[i] for i in mal]))
    if memo.aaa_prev is not None:
        prev = memo.aaa_prev
        memo.aaa_scores[prev] = 0.8 * memo.aaa_scores[prev] + 0.2 * (mean_now - memo.aaa_prev_mean)
    if rng.random() < memo.aaa_eps:
        strategy = int(rng.integers(len(AAA_STRATEGIES)))
    else:
        strategy = max(range(len(AAA_STRATEGIES)), key=memo.aaa_scores.__getitem__)
    memo.aaa_eps = memo.aaa_eps * cfg.aaa_eps_decay
    memo.aaa_prev, memo.aaa_prev_mean = strategy, mean_now

    m = len(mal)
    boost, hit, coalition = (m - 1) * cfg.aaa_factor, m * cfg.aaa_factor, tuple(mal)
    name = AAA_STRATEGIES[strategy]
    out = []
    if name == "gradient_exploitation":
        for node in mal:
            if taus[node] < 0.5 and boost > 0:
                out.append((node, BOOST, boost, None))
            elif taus[node] >= 0.5 and honest:
                out += strike([honest[rng.integers(len(honest))]], hit, (node,))
    elif name == "slow_poisoning":
        out = strike(honest, cfg.aaa_factor, coalition)
    elif name == "strategic_cooperation":
        out = endorse(coalition, boost)
    elif name == "mimicry" and honest:
        top = top_trust(taus, honest, 1)[0]
        out = [(node, BOOST, boost, None) for node in mal if taus[node] < taus[top] and boost > 0]
    elif name == "temporal_coordination" and ref.step % cfg.aaa_burst_period == 0 and honest:
        # per member: a strike on the top honest node, then that member's endorsement
        strikes = strike(top_trust(taus, honest, 1) * m, hit, coalition)
        boosts = endorse(coalition, boost)
        for i in range(max(len(strikes), len(boosts))):
            out += strikes[i : i + 1] + boosts[i : i + 1]
    return out


def bfi(ref, cfg, taus, rng):
    byz, honest, memo = ref.malicious, ref.honest, ref.memory
    if not byz:
        return []
    if memo.bfi_target is None and honest:
        memo.bfi_target = honest[rng.integers(len(honest))]
    recovering = float(np.mean([taus[i] for i in byz])) < cfg.bfi_low_trust
    for _ in byz:  # the equivocation draws: read by nothing, but they advance the stream
        rng.random()

    out = []
    m = len(byz)
    magnitude = cfg.bfi_endorsement_base * cfg.bfi_sybil_k
    if recovering and m > 1 and magnitude > 0.0:
        shift = 1 + memo.bfi_cursor % (m - 1)
        out = [(byz[(j + shift) % m], BOOST, magnitude, (byz[j],)) for j in range(m)]
        memo.bfi_cursor += 1
    if ref.step % cfg.bfi_window == 0 and honest:
        top = top_trust(taus, honest, 1)
        for b in byz:
            out += strike(top, cfg.bfi_strike_magnitude, (b,))
    if memo.bfi_target is not None:
        memo.corruption = (memo.bfi_target, min(max(1.0 - taus[memo.bfi_target], 0.01), 0.99))
    return out


def tdp(ref, cfg, taus, rng):
    memo, sleepers, m = ref.memory, tuple(ref.malicious), len(ref.malicious)
    if ref.episode >= cfg.tdp_activation_episode:
        memo.tdp_active = True
    if not memo.tdp_active or m == 0:
        return []
    targets = top_trust(taus, ref.honest, math.ceil(cfg.tdp_target_ratio * len(ref.honest)))
    return strike(targets, m * cfg.tdp_intensity, sleepers) + endorse(sleepers, (m - 1) * cfg.tdp_intensity)


FAMILIES = {"nma": nma, "cra": cra, "aaa": aaa, "bfi": bfi, "tdp": tdp}


# --- the composed step -------------------------------------------------------------


@dataclass
class AttackMemory:
    """What a family carries across steps and episodes."""

    aaa_scores: list
    aaa_eps: float
    aaa_prev: int | None = None
    aaa_prev_mean: float | None = None
    bfi_target: int | None = None
    bfi_cursor: int = 0
    corruption: tuple | None = None
    tdp_active: bool = False


@dataclass
class Reference:
    """The reference's own copy of one simulation: configs, roles, generators and per-node masses."""

    trust_cfg: object
    reward_cfg: object
    theta: float
    detect_p: float
    steps: int
    policy: object
    attack_cfg: object | None
    mask: list
    honest: list
    malicious: list
    ratio: float
    rng_consensus: np.random.Generator
    rng_attack: np.random.Generator
    memory: AttackMemory
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    episode: int = 0
    step: int = 0
    chain: int = 0
    blocks: deque = field(default_factory=lambda: deque(maxlen=HISTORY_WINDOW))
    corruption: tuple | None = None
    log: list = field(default_factory=list)

    def taus(self) -> list:
        return [a / (a + b) for a, b in zip(self.alphas, self.betas)]


def reference_from(env) -> Reference:
    """A reference for ``env`` as built: its configs and roles, and copies of its two step generators."""
    attack_cfg = env.attack.cfg if env.attack.cfg.family != "none" else None
    mask = [bool(b) for b in env.net.malicious_mask]
    return Reference(
        trust_cfg=env.update_cfg,
        reward_cfg=env.reward_cfg,
        theta=env.cfg.theta,
        detect_p=env.cfg.detect_p,
        steps=env.steps,
        policy=env.gate.policy,
        attack_cfg=attack_cfg,
        mask=mask,
        honest=[i for i, bad in enumerate(mask) if not bad],
        malicious=[i for i, bad in enumerate(mask) if bad],
        ratio=env.net.delegation_ratio,
        rng_consensus=copy.deepcopy(env.rng_consensus),
        rng_attack=copy.deepcopy(env.rng_attack),
        memory=AttackMemory(
            aaa_scores=[0.0] * len(AAA_STRATEGIES), aaa_eps=attack_cfg.aaa_eps_start if attack_cfg else 1.0
        ),
    )


def begin_episode(ref: Reference, net, episode: int) -> None:
    """Copy the masses ``Environment.begin_episode`` just drew and clear the episode's counters."""
    ref.alphas, ref.betas = [float(a) for a in net.alphas], [float(b) for b in net.betas]
    ref.episode, ref.step, ref.chain = episode, 0, 0
    ref.blocks.clear()
    ref.corruption = None


def kappa(ref: Reference, taus: list) -> float:
    honest, malicious = [taus[i] for i in ref.honest], [taus[i] for i in ref.malicious]
    if not honest or not malicious:
        return 0.0
    kappa_max = ref.reward_cfg.kappa_max
    gap = abs(float(np.mean(honest)) - float(np.mean(malicious)))
    return kappa_max if gap < 1.0 / kappa_max else min(1.0 / gap, kappa_max)


def reference_step(ref: Reference, action: int) -> float:
    """One environment step, node by node; returns the reward."""
    n = len(ref.mask)
    ref.ratio = min(max(ref.ratio * ACTION_MULTIPLIERS[action], 0.1), 1.0)

    # access gate: the policy tree walked over each node's attributes
    accepted = [i for i, tau in enumerate(ref.taus()) if eval_policy_plain(ref.policy, node_attributes(tau))]

    # delegate selection: one Thompson draw per candidate, the k largest
    k = min(committee_size(ref.ratio, n), len(accepted))
    block = False
    if k > 0:
        rng = ref.rng_consensus
        xs = [rng.standard_gamma(ref.alphas[i]) for i in accepted]
        ys = [rng.standard_gamma(ref.betas[i]) for i in accepted]
        samples = []
        for i, x, y in zip(accepted, xs, ys):
            # both draws underflowing to zero fall back to the Beta mean
            samples.append(x / (x + y) if x + y != 0.0 else ref.alphas[i] / (ref.alphas[i] + ref.betas[i]))
        chosen = sorted(range(len(accepted)), key=lambda j: -samples[j])[:k]
        delegates = sorted(accepted[j] for j in chosen)
        posing = ref.malicious if ref.memory.tdp_active else None
        block, log = reference_round(ref.alphas, ref.betas, ref.mask, delegates, rng, posing, ref.detect_p,
                                     ref.trust_cfg, ref.episode, ref.step)
        ref.log += log
        ref.chain += block

    if ref.attack_cfg is not None:
        perts = FAMILIES[ref.attack_cfg.family](ref, ref.attack_cfg, ref.taus(), ref.rng_attack)
        ref.corruption = ref.memory.corruption
        live_set = set(accepted)
        for target, kind, magnitude, emitters in perts:
            if emitters is not None:
                live = sum(1 for e in emitters if e in live_set)
                if live == 0:
                    continue
                magnitude = magnitude * (live / len(emitters))
            masses = ref.alphas if kind == BOOST else ref.betas
            masses[target] += magnitude
            ref.log.append((ref.episode, ref.step, "attack", target, f"{kind}:{magnitude:.6f}"))
    ref.blocks.append(block)

    # reward: F1 of the rule tau < theta, the block bonus and the collusion penalty
    taus, cfg = ref.taus(), ref.reward_cfg
    flagged = [tau < ref.theta for tau in taus]
    tp = sum(1 for f, bad in zip(flagged, ref.mask) if f and bad)
    fp = sum(1 for f, bad in zip(flagged, ref.mask) if f and not bad)
    fn = sum(1 for f, bad in zip(flagged, ref.mask) if bad and not f)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0.0 else 0.0
    reward = cfg.w_f1 * f1 * 100.0
    reward += cfg.w_step * (60.0 if block else 0.0) / 100.0
    reward -= cfg.w_fn * fn
    k_now = kappa(ref, taus)
    if k_now > cfg.collusion_trigger:
        reward -= min(k_now * 2.0, cfg.collusion_cap)
    ref.step += 1
    return reward


def reference_observation(ref: Reference) -> list:
    """The 16 features of the current view, in ``FEATURE_NAMES`` order."""
    true_taus = ref.taus()
    taus = list(true_taus)
    if ref.corruption is not None:
        taus[ref.corruption[0]] = ref.corruption[1]
    n, values = len(taus), np.array(taus)
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) if n > 1 else 0.0
    centered = values - np.mean(values)
    m2, m3 = float(np.mean(centered**2)), float(np.mean(centered**3))
    q25, q75 = np.percentile(values, [25.0, 75.0])
    chain_norm = min(max(ref.chain / ref.steps, 0.0), 1.0)
    block_rate = sum(ref.blocks) / len(ref.blocks) if ref.blocks else 0.0
    features = {
        "mean_trust": mean,
        "variance": var,
        "skewness": m3 / m2**1.5 if var > 0.0 and m2 > 0.0 else 0.0,
        "median": float(np.median(values)),
        "range": max(taus) - min(taus),
        "iqr": float(q75 - q25),
        "coeff_variation": math.sqrt(var) / mean if mean > 0.0 else 0.0,
        "verified_tx_norm": chain_norm,
        "chain_length_norm": chain_norm,
        "honest_malicious_ratio": len(ref.honest) / max(1, len(ref.malicious)),
        "low_trust_frac": sum(1 for t in taus if t < LOW_TRUST_CUTOFF) / n,
        "high_trust_frac": sum(1 for t in taus if t > HIGH_TRUST_CUTOFF) / n,
        "delegation_efficiency": committee_size(ref.ratio, n) / n,
        "throughput_rate": block_rate,
        "recent_block_rate": block_rate,
        "collusion_score": kappa(ref, true_taus),
    }
    return [features[name] for name in FEATURE_NAMES]
