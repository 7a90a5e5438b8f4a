"""The five adversary families as seedable state machines.

Attacks never write trust scores directly.  Every trust effect is emitted
as a perturbation in evidence space (alpha boosts, beta penalties), so the
Beta-profile invariants survive any attack schedule.  Every family is one
function ``(cfg, state, net, rng) -> list[Perturbation]`` that updates its
``AttackState`` in place.  Two helpers emit all coalition evidence, and
nothing at a zero magnitude: ``_endorse`` boosts each member's alpha with
the other members as emitters, and ``_strike`` puts one beta penalty on
each target.  Only AAA's emitter-less self-boosts (rebuild, mimicry) and
BFI's ring endorsement are built by hand.  Two effects carry no evidence.
BFI's eclipse leaves one ``(node, value)`` pair on
``AttackState.bfi_corruption``, which replaces that node's trust in the
agent's state features without touching actual trust.  Activated TDP
sleepers pose as honest validators: they vote Valid in consensus
(``Attack.posing_voters``).

Families:

* NMA  - independent per-node noise: random beta penalties against honest
  nodes with probability p_attack.
* CRA  - periodic coalition action: mutual alpha inflation plus coordinated
  beta strikes on the top honest nodes.
* AAA  - epsilon-greedy rotation over five strategy templates with success
  tracking on the change in mean malicious trust.
* BFI  - equivocation, sybil-amplified endorsements, a standing eclipse
  target, periodic coordinated strikes, and phase switching
  (AGGRESSIVE / STRATEGIC / RECOVERY) on coalition trust.  A Byzantine
  delegate never votes Valid, so an equivocating vote draws the evidence
  of an Invalid one and needs no channel of its own.
* TDP  - sleepers stay inert until the activation episode, then hammer the
  top honest nodes every step while boosting each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .network import NetworkState
from .trust import MAX_INCREMENT

FAMILIES = ("nma", "cra", "aaa", "bfi", "tdp")

AAA_STRATEGIES = (
    "gradient_exploitation",
    "slow_poisoning",
    "strategic_cooperation",
    "mimicry",
    "temporal_coordination",
)


@dataclass(frozen=True)
class AttackConfig:
    family: str = "nma"
    # NMA
    nma_p_attack: float = 0.5
    nma_noise: float = 0.5
    # CRA
    cra_intensity: float = 0.85
    cra_period: int = 2
    cra_target_fraction: float = 0.25
    # AAA
    aaa_eps_start: float = 1.0
    aaa_eps_decay: float = 0.98
    aaa_factor: float = 0.12
    aaa_burst_period: int = 10
    # BFI
    bfi_sybil_k: int = 4
    bfi_window: int = 6
    bfi_low_trust: float = 0.4
    bfi_high_trust: float = 0.6
    bfi_endorsement_base: float = 0.05
    bfi_strike_magnitude: float = 0.3
    # TDP
    tdp_activation_episode: int = 25
    tdp_intensity: float = 0.75
    tdp_target_ratio: float = 0.35

    def __post_init__(self):
        if self.family not in FAMILIES and self.family != "none":
            raise ValueError(f"unknown attack family {self.family!r}")
        for name in (
            "nma_p_attack",
            "cra_intensity",
            "cra_target_fraction",
            "aaa_eps_start",
            "aaa_eps_decay",
            "bfi_low_trust",
            "bfi_high_trust",
            "tdp_intensity",
            "tdp_target_ratio",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.bfi_low_trust > self.bfi_high_trust:
            raise ValueError(f"bfi_low_trust {self.bfi_low_trust} exceeds bfi_high_trust {self.bfi_high_trust}")
        for name in ("nma_noise", "aaa_factor", "bfi_sybil_k", "bfi_endorsement_base", "bfi_strike_magnitude"):
            if not (0 <= getattr(self, name) <= MAX_INCREMENT):
                raise ValueError(f"{name} must lie in [0, {MAX_INCREMENT:g}], got {getattr(self, name)}")
        if self.cra_period < 1 or self.bfi_window < 1 or self.aaa_burst_period < 1:
            raise ValueError("periods and windows must be >= 1")


class PerturbationKind(enum.Enum):
    BOOST_ALPHA = "boost_alpha"
    PENALIZE_BETA = "penalize_beta"


@dataclass(frozen=True)
class Perturbation:
    """One evidence-space injection.

    ``emitters`` names the adversary nodes whose falsified feedback the
    magnitude aggregates.  The access layer refuses feedback transactions
    from gate-rejected nodes, so at application time the magnitude scales
    with the fraction of emitters currently holding access; ``None`` marks
    behavioral self-effects that carry no refusable transaction.
    """

    target: int
    kind: PerturbationKind
    magnitude: float
    emitters: tuple | None = None

    def __post_init__(self):
        if self.magnitude <= 0.0:
            raise ValueError("perturbation magnitude must be positive")


@dataclass
class AttackState:
    # AAA memory
    aaa_scores: np.ndarray = field(default_factory=lambda: np.zeros(len(AAA_STRATEGIES)))
    aaa_eps: float = 1.0
    aaa_prev_strategy: int | None = None
    aaa_prev_mean_trust: float | None = None
    # BFI memory
    bfi_phase: str = "STRATEGIC"
    bfi_eclipse_target: int | None = None
    bfi_corruption: tuple | None = None  # the eclipse's (node, value) for the next observation
    bfi_endorse_cursor: int = 0
    # TDP memory
    tdp_activated: bool = False


def new_state(cfg: AttackConfig) -> AttackState:
    return AttackState(aaa_eps=cfg.aaa_eps_start)


def _top_trust(taus: np.ndarray, indices: np.ndarray, count: int) -> list[int]:
    """The `count` highest-trust nodes among ascending `indices` under trust vector `taus`; ties break on index."""
    order = np.argsort(-taus[indices], kind="stable")[:count]
    return indices[order].tolist()


def _endorse(members: tuple, magnitude: float) -> list[Perturbation]:
    """Each member's alpha boost, emitted by the other members; nothing at a zero magnitude."""
    if magnitude <= 0.0:
        return []
    kind = PerturbationKind.BOOST_ALPHA
    return [Perturbation(node, kind, magnitude, emitters=tuple(i for i in members if i != node)) for node in members]


def _strike(targets, magnitude: float, emitters: tuple) -> list[Perturbation]:
    """One beta penalty per target, emitted by ``emitters``; nothing at a zero magnitude."""
    if magnitude <= 0.0:
        return []
    return [Perturbation(t, PerturbationKind.PENALIZE_BETA, magnitude, emitters=emitters) for t in targets]


def amplified_endorsement(cfg: AttackConfig, magnitude: float) -> float:
    """Sybil amplification: endorsement evidence from a Byzantine node counts k-fold."""
    return magnitude * cfg.bfi_sybil_k


# --- NMA ---------------------------------------------------------------------


def nma_step(cfg: AttackConfig, state: AttackState, net: NetworkState, rng) -> list[Perturbation]:
    honest = net.honest
    perts: list[Perturbation] = []
    if len(honest) == 0:
        return perts
    for m in net.malicious:
        if cfg.nma_p_attack > 0.0 and rng.random() < cfg.nma_p_attack:
            perts += _strike((int(honest[rng.integers(len(honest))]),), cfg.nma_noise, (int(m),))
    return perts


# --- CRA ---------------------------------------------------------------------


def cra_step(cfg: AttackConfig, state: AttackState, net: NetworkState, rng) -> list[Perturbation]:
    if net.step_index % cfg.cra_period != 0:
        return []
    coalition = tuple(net.malicious.tolist())
    m = len(coalition)
    if m == 0:
        return []
    targets = _top_trust(net.trust_vector(), net.honest, int(np.ceil(cfg.cra_target_fraction * len(net.honest))))
    return _endorse(coalition, (m - 1) * cfg.cra_intensity) + _strike(targets, m * cfg.cra_intensity, coalition)


# --- AAA ---------------------------------------------------------------------


def _aaa_apply_strategy(cfg: AttackConfig, strategy: int, net: NetworkState, taus, rng) -> list[Perturbation]:
    malicious = net.malicious
    honest = net.honest
    m = len(malicious)
    coalition_boost = (m - 1) * cfg.aaa_factor
    strike = m * cfg.aaa_factor
    perts: list[Perturbation] = []
    all_mal = tuple(malicious.tolist())
    name = AAA_STRATEGIES[strategy]

    if name == "gradient_exploitation":
        # ride the update dynamics: rebuild when low, spend trust on strikes
        # when high; the rebuild is behavioral (not a refusable transaction)
        for node in malicious:
            if taus[node] < 0.5 and coalition_boost > 0:
                perts.append(Perturbation(int(node), PerturbationKind.BOOST_ALPHA, coalition_boost))
            elif taus[node] >= 0.5 and len(honest):
                target = int(honest[rng.integers(len(honest))])
                perts += _strike((target,), strike, (int(node),))
    elif name == "slow_poisoning":
        # imperceptible drip on every honest node; per-perturbation magnitude <= factor
        perts = _strike(honest.tolist(), cfg.aaa_factor, all_mal)
    elif name == "strategic_cooperation":
        perts = _endorse(all_mal, coalition_boost)
    elif name == "mimicry" and len(honest):
        # behavioral imitation of the top honest node; no transaction to refuse
        top = _top_trust(taus, honest, 1)[0]
        for node in malicious:
            if taus[node] < taus[top] and coalition_boost > 0:
                perts.append(Perturbation(int(node), PerturbationKind.BOOST_ALPHA, coalition_boost))
    elif name == "temporal_coordination" and net.step_index % cfg.aaa_burst_period == 0 and len(honest):
        # per member: strike the top honest node, then endorse that member
        strikes = _strike(_top_trust(taus, honest, 1) * m, strike, all_mal)
        boosts = _endorse(all_mal, coalition_boost)
        perts = [p for pair in zip_longest(strikes, boosts) for p in pair if p is not None]
    return perts


def aaa_step(cfg: AttackConfig, state: AttackState, net: NetworkState, rng) -> list[Perturbation]:
    malicious = net.malicious
    if len(malicious) == 0:
        return []
    taus = net.trust_vector()
    mean_now = float(taus[malicious].mean())
    if state.aaa_prev_strategy is not None:
        prev = state.aaa_prev_strategy
        state.aaa_scores[prev] = 0.8 * state.aaa_scores[prev] + 0.2 * (mean_now - state.aaa_prev_mean_trust)

    if rng.random() < state.aaa_eps:
        strategy = int(rng.integers(len(AAA_STRATEGIES)))
    else:
        strategy = int(np.argmax(state.aaa_scores))
    state.aaa_eps = state.aaa_eps * cfg.aaa_eps_decay

    perts = _aaa_apply_strategy(cfg, strategy, net, taus, rng)
    state.aaa_prev_strategy = strategy
    state.aaa_prev_mean_trust = mean_now
    return perts


# --- BFI ---------------------------------------------------------------------


def bfi_step(cfg: AttackConfig, state: AttackState, net: NetworkState, rng) -> list[Perturbation]:
    byz = net.malicious
    honest = net.honest
    if len(byz) == 0:
        return []
    taus = net.trust_vector()

    if state.bfi_eclipse_target is None and len(honest):
        state.bfi_eclipse_target = int(honest[rng.integers(len(honest))])

    mean_byz = float(taus[byz].sum() / len(byz))
    if mean_byz > cfg.bfi_high_trust:
        state.bfi_phase = "AGGRESSIVE"
    elif mean_byz < cfg.bfi_low_trust:
        state.bfi_phase = "RECOVERY"
    else:
        state.bfi_phase = "STRATEGIC"

    # The equivocation draw: one double per Byzantine node.  An equivocating
    # vote draws the evidence of an Invalid one, so nothing reads the draw,
    # but the golden digests lock the attack stream, and so its length.
    rng.random(len(byz))

    perts: list[Perturbation] = []

    # coalition endorsements only while lying low; each endorsement is
    # sybil-amplified because the k virtual identities co-sign it
    magnitude = amplified_endorsement(cfg, cfg.bfi_endorsement_base)
    if state.bfi_phase == "RECOVERY" and len(byz) > 1 and magnitude > 0.0:
        m = len(byz)
        shift = 1 + state.bfi_endorse_cursor % (m - 1)  # ring offset, never self
        for j in range(m):
            perts.append(Perturbation(int(byz[(j + shift) % m]), PerturbationKind.BOOST_ALPHA, magnitude,
                                      emitters=(int(byz[j]),)))
        state.bfi_endorse_cursor += 1

    if net.step_index % cfg.bfi_window == 0 and len(honest):
        top = _top_trust(taus, honest, 1)
        for b in byz.tolist():
            perts += _strike(top, cfg.bfi_strike_magnitude, (b,))

    target = state.bfi_eclipse_target
    if target is not None:
        state.bfi_corruption = (target, min(max(1.0 - float(taus[target]), 0.01), 0.99))
    return perts


# --- TDP ---------------------------------------------------------------------


def tdp_step(cfg: AttackConfig, state: AttackState, net: NetworkState, rng) -> list[Perturbation]:
    if net.episode_index >= cfg.tdp_activation_episode:
        state.tdp_activated = True  # monotone: never cleared
    if not state.tdp_activated:
        # dormant sleepers add nothing to the evidence stream: a dormant-phase
        # run is indistinguishable from one with no attack attached
        return []

    sleepers = tuple(net.malicious.tolist())
    m = len(sleepers)
    if m == 0:
        return []
    targets = _top_trust(net.trust_vector(), net.honest, int(np.ceil(cfg.tdp_target_ratio * len(net.honest))))
    return _strike(targets, m * cfg.tdp_intensity, sleepers) + _endorse(sleepers, (m - 1) * cfg.tdp_intensity)


# --- driver used by the environment ------------------------------------------


FAMILY_STEPS = {"nma": nma_step, "cra": cra_step, "aaa": aaa_step, "bfi": bfi_step, "tdp": tdp_step}


class Attack:
    """Binds a family's config and memory; one instance per simulation run.

    The ``"none"`` family has no step function: its step emits nothing and
    draws nothing, so a run with no attack takes the same environment step.
    """

    def __init__(self, cfg: AttackConfig):
        self.cfg = cfg
        self.state = new_state(cfg)

    def step(self, net: NetworkState, rng) -> tuple[list[Perturbation], tuple | None]:
        """This step's perturbations and the eclipse's ``(node, value)``, or ``None``."""
        family_step = FAMILY_STEPS.get(self.cfg.family)
        perts = family_step(self.cfg, self.state, net, rng) if family_step else []
        return perts, self.state.bfi_corruption

    def posing_voters(self, net: NetworkState) -> np.ndarray | None:
        """The malicious nodes that vote Valid in consensus, or ``None``.

        Activated sleepers pose as honest validators while the out-of-band
        perturbations do the damage.
        """
        return net.malicious if self.state.tdp_activated else None


def apply_perturbations(net: NetworkState, perturbations, accepted: set, evidence_log=None) -> None:
    """Fold evidence-space perturbations into the trust profiles.

    Each perturbation's magnitude scales with the fraction of its emitters
    in the ``accepted`` set: the gate refuses feedback transactions from
    rejected nodes.  Emitter-less perturbations (behavioral effects) always
    apply in full.
    """
    for p in perturbations:
        magnitude = p.magnitude
        if p.emitters is not None:
            live = sum(1 for e in p.emitters if e in accepted)
            if live == 0:
                continue
            magnitude = p.magnitude * (live / len(p.emitters))
        if p.kind is PerturbationKind.BOOST_ALPHA:
            net.alphas[p.target] += magnitude
        else:
            net.betas[p.target] += magnitude
        if evidence_log is not None:
            evidence_log.append(
                (net.episode_index, net.step_index, "attack", p.target, f"{p.kind.value}:{magnitude:.6f}")
            )
