"""Acceptance suite.

Criteria 1-7 are fast property and contract checks.  Criteria 8-12 evaluate
the full 3-agent x 5-attack matrix (medians over seeds 42, 43, 44) against
the qualitative regimes the system must reproduce; the shared
``evaluation_matrix`` fixture in conftest.py runs those simulations once
per session.  Each test prints one PASS line with its measured values.
"""

import statistics

import numpy as np
import pytest

from trustsim.abac import SimulatedFheBackend
from trustsim.agents.nn import DuelingNetwork, double_q_targets
from trustsim.config import ExperimentConfig
from trustsim.env import RewardConfig, compute_reward
from trustsim.metrics import ConfusionMatrix
from trustsim.runner import build_simulation, run_experiment, simulate
from trustsim.trust import EvidenceKind, TrustUpdateConfig, sample_top_k

from reference import TrustProfile, apply_evidence, eval_policy_plain, trust_score
from test_abac import encrypted_decision
from test_agents import finite_difference_check, kink_free_fixture

SEEDS = (42, 43, 44)


def median_tail_f1(matrix, attack, agent, tail=10):
    values = []
    for seed in SEEDS:
        series = matrix[(attack, agent, seed)]
        values.append(float(np.mean([f1 for f1, _ in series[-tail:]])))
    return statistics.median(values)


# --- 1. trust kernel properties ------------------------------------------------


def test_acceptance_1_trust_kernel_invariants():
    rng = np.random.default_rng(42)
    kinds = (EvidenceKind.VALID, EvidenceKind.INVALID, EvidenceKind.MALICIOUS)
    violations = 0
    for _ in range(10_000):
        cfg = TrustUpdateConfig(
            delta_valid=float(rng.uniform(0.1, 3.0)),
            delta_invalid=float(rng.uniform(0.1, 3.0)),
            delta_malicious=float(rng.uniform(0.1, 3.0)),
            decay_gamma=float(rng.uniform(0.5, 0.99)),
        )
        profile = TrustProfile(float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.5, 20.0)))
        for _ in range(rng.integers(1, 12)):
            kind = kinds[rng.integers(3)]
            before = trust_score(profile)
            profile = apply_evidence(profile, kind, cfg)
            after = trust_score(profile)
            ok_invariant = profile.alpha > 0 and profile.beta > 0 and 0.0 < after < 1.0
            ok_monotone = after >= before if kind is EvidenceKind.VALID else after <= before
            # malicious severity at matched delta
            eq = TrustUpdateConfig(
                delta_invalid=cfg.delta_invalid, delta_malicious=cfg.delta_invalid
            )
            probe = TrustProfile(profile.alpha, profile.beta)
            severe = trust_score(apply_evidence(probe, EvidenceKind.MALICIOUS, eq))
            mild = trust_score(apply_evidence(probe, EvidenceKind.INVALID, eq))
            if not (ok_invariant and ok_monotone and severe <= mild + 1e-12):
                violations += 1
    assert violations == 0
    print("ACCEPTANCE 1 trust kernel: PASS (0 violations over 10,000 sequences)")


# --- 2. Thompson selection -------------------------------------------------------


def test_acceptance_2_thompson_selection():
    alphas = np.array([50.0, 1.0])
    betas = np.array([1.0, 50.0])
    rng = np.random.default_rng(42)
    wins = sum(1 for _ in range(1_000) if sample_top_k(alphas, betas, 1, rng, candidates=np.arange(2))[0] == 0)
    assert wins / 1_000 > 0.99
    print(f"ACCEPTANCE 2 thompson: PASS (strong profile won {wins}/1000 rounds)")


# --- 3. reward arithmetic --------------------------------------------------------


def test_acceptance_3_reward_arithmetic():
    cfg = RewardConfig()
    perfect = ConfusionMatrix(5, 0, 0, 11)
    half = ConfusionMatrix(2, 2, 2, 10)  # precision = recall = f1 = 0.5
    blind = ConfusionMatrix(0, 0, 5, 11)
    assert compute_reward(perfect, 100.0, 0.5, cfg) == pytest.approx(70.3, abs=1e-12)
    assert compute_reward(half, 0.0, 5.0, cfg) == pytest.approx(19.0, abs=1e-12)
    assert compute_reward(blind, 0.0, 12.0, cfg) == pytest.approx(-35.0, abs=1e-12)
    # the penalty cap engages exactly at kappa = 10
    clean = ConfusionMatrix(0, 0, 0, 16)
    assert compute_reward(clean, 0.0, 10.0, cfg) == pytest.approx(-cfg.collusion_cap, abs=1e-12)
    assert compute_reward(clean, 0.0, 9.999, cfg) > -cfg.collusion_cap
    print("ACCEPTANCE 3 reward arithmetic: PASS (3 worked examples at 1e-12; cap at kappa=10)")


# --- 4. dueling / double-Q --------------------------------------------------------


def test_acceptance_4_dueling_double_q():
    rng = np.random.default_rng(42)
    worst_center = 0.0
    bound_holds = True
    for trial in range(100):
        online = DuelingNetwork(16, (4,), 2, 3, rng=np.random.default_rng(1000 + trial))
        target = DuelingNetwork(16, (4,), 2, 3, rng=np.random.default_rng(2000 + trial))
        states = rng.normal(size=(100, 16))
        q = online.forward(states)
        # mean-centered advantage: mean_a Q(s, a) equals V(s)
        h = states
        for w, b in zip(online.trunk_w, online.trunk_b):
            h = np.maximum(h @ w + b, 0.0)
        vh = np.maximum(h @ online.vw0 + online.vb0, 0.0)
        v = (vh @ online.vw1 + online.vb1)[:, 0]
        worst_center = max(worst_center, float(np.max(np.abs(q.mean(axis=1) - v))))

        rewards = rng.normal(size=100)
        targets, _ = double_q_targets(rewards, states, states, online, target, 0.99)
        bound = rewards + 0.99 * target.forward(states).max(axis=1)
        bound_holds = bound_holds and bool(np.all(targets <= bound + 1e-12))
    assert worst_center < 1e-9
    assert bound_holds

    net, states, actions, tds = kink_free_fixture()
    err = finite_difference_check(net, states, actions, tds)
    assert err < 1e-4
    print(
        f"ACCEPTANCE 4 dueling/double-Q: PASS (centering {worst_center:.2e}; "
        f"bound on 10,000 net/state pairs; gradient error {err:.2e})"
    )


# --- 5. ABAC parity ---------------------------------------------------------------


def test_acceptance_5_abac_parity():
    from trustsim.abac import And, Leaf, Or

    rng = np.random.default_rng(42)
    backend = SimulatedFheBackend(seed=42)
    names = ("trust", "role", "clearance", "permissions")
    ops = ("<", "<=", ">", ">=", "==", "!=")

    def random_policy(depth=0):
        if depth >= 2 or rng.random() < 0.4:
            return Leaf(names[rng.integers(4)], ops[rng.integers(6)], int(rng.integers(0, 101)))
        node = And if rng.random() < 0.5 else Or
        return node(tuple(random_policy(depth + 1) for _ in range(2)))

    agree = 0
    for _ in range(1_000):
        policy = random_policy()
        attrs = {
            "trust": int(rng.integers(0, 101)),
            "role": int(rng.integers(0, 16)),
            "clearance": int(rng.integers(0, 16)),
            "permissions": int(rng.integers(0, 256)),
        }
        plain = eval_policy_plain(policy, attrs)
        enc = encrypted_decision(backend, policy, attrs)
        agree += plain == enc
    assert agree == 1_000
    print("ACCEPTANCE 5 abac parity: PASS (1000/1000 encrypted decisions match plaintext)")


# --- 6. TDP dormancy ---------------------------------------------------------------


def test_acceptance_6_tdp_dormancy_logs():
    base = dict(agent="rl", episodes=26, seed=42, log_evidence=True)
    _, env_tdp, _, _ = simulate(build_simulation(ExperimentConfig(attack="tdp", allow_short_tdp=True, **base)))
    _, env_none, _, _ = simulate(build_simulation(ExperimentConfig(attack="none", **base)))
    dormant_tdp = [e for e in env_tdp.evidence_log if e[0] <= 24]
    dormant_none = [e for e in env_none.evidence_log if e[0] <= 24]
    assert dormant_tdp == dormant_none
    post_tdp = [e for e in env_tdp.evidence_log if e[0] == 25]
    post_none = [e for e in env_none.evidence_log if e[0] == 25]
    assert post_tdp != post_none  # activation must be visible immediately
    print(
        f"ACCEPTANCE 6 tdp dormancy: PASS ({len(dormant_tdp)} evidence entries identical "
        "through episode 24; logs diverge at 25)"
    )


# --- 7. determinism ---------------------------------------------------------------


def test_acceptance_7_byte_identical_runs(tmp_path):
    kwargs = dict(agent="drl", attack="bfi", episodes=5, steps=100, seed=42)
    run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **kwargs))
    run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **kwargs))
    a = (tmp_path / "a" / "episodes.csv").read_bytes()
    b = (tmp_path / "b" / "episodes.csv").read_bytes()
    assert a == b
    print(f"ACCEPTANCE 7 determinism: PASS (episodes.csv byte-identical, {len(a)} bytes)")


# --- 8-12. desk-scale reproduction ---------------------------------------------------


def test_acceptance_8_bfi_all_agents(evaluation_matrix):
    scores = {agent: median_tail_f1(evaluation_matrix, "bfi", agent) for agent in ("rl", "drl", "marl")}
    for agent, value in scores.items():
        assert value >= 0.90, f"{agent} tail-10 F1 {value:.3f} < 0.90 under BFI"
    print(f"ACCEPTANCE 8 bfi: PASS (tail-10 median F1 {scores})")


def test_acceptance_9_tdp_collapse(evaluation_matrix):
    for agent in ("rl", "drl", "marl"):
        dormant, post, drops = [], [], []
        for seed in SEEDS:
            series = evaluation_matrix[("tdp", agent, seed)]
            f1s = [f1 for f1, _ in series]
            rewards = [r for _, r in series]
            dormant.append(statistics.median(f1s[9:24]))
            post.append(statistics.median(f1s[29:100]))
            r24, r30 = rewards[23], rewards[29]
            drops.append((r24 - r30) / abs(r24) if r24 else 0.0)
        assert statistics.median(dormant) >= 0.8, f"{agent} dormant F1 {dormant}"
        assert statistics.median(post) <= 0.30, f"{agent} post-activation F1 {post}"
        assert statistics.median(drops) >= 0.5, f"{agent} reward drop {drops}"
        print(
            f"ACCEPTANCE 9 tdp[{agent}]: PASS (dormant {statistics.median(dormant):.2f}, "
            f"post {statistics.median(post):.2f}, reward drop {statistics.median(drops):.0%})"
        )


def test_acceptance_10_cra_ordering(evaluation_matrix):
    rl = median_tail_f1(evaluation_matrix, "cra", "rl")
    drl = median_tail_f1(evaluation_matrix, "cra", "drl")
    marl = median_tail_f1(evaluation_matrix, "cra", "marl")
    assert marl >= drl >= rl, f"ordering violated: marl={marl:.3f} drl={drl:.3f} rl={rl:.3f}"
    assert marl - rl >= 0.15, f"marl-rl gap {marl - rl:.3f} < 0.15"
    print(f"ACCEPTANCE 10 cra: PASS (rl={rl:.3f} <= drl={drl:.3f} <= marl={marl:.3f})")


def test_acceptance_11_aaa_deep_agents(evaluation_matrix):
    rl = median_tail_f1(evaluation_matrix, "aaa", "rl")
    drl = median_tail_f1(evaluation_matrix, "aaa", "drl")
    marl = median_tail_f1(evaluation_matrix, "aaa", "marl")
    assert drl >= 0.85, f"drl {drl:.3f} < 0.85 under AAA"
    assert marl >= 0.85, f"marl {marl:.3f} < 0.85 under AAA"
    assert rl <= max(drl, marl) - 0.2, f"tabular rl {rl:.3f} too close to deep agents"
    print(f"ACCEPTANCE 11 aaa: PASS (rl={rl:.3f}, drl={drl:.3f}, marl={marl:.3f})")


def test_acceptance_12_nma_drl(evaluation_matrix):
    rl = median_tail_f1(evaluation_matrix, "nma", "rl")
    drl = median_tail_f1(evaluation_matrix, "nma", "drl")
    marl = median_tail_f1(evaluation_matrix, "nma", "marl")
    assert drl >= 0.85, f"drl {drl:.3f} < 0.85 under NMA"
    print(f"ACCEPTANCE 12 nma: PASS (drl={drl:.3f}; for comparison rl={rl:.3f}, marl={marl:.3f})")
