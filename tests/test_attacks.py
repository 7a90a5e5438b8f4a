import numpy as np
import pytest

from trustsim.attacks import (
    AAA_STRATEGIES,
    Attack,
    AttackConfig,
    Perturbation,
    PerturbationKind,
    aaa_step,
    amplified_endorsement,
    apply_perturbations,
    bfi_step,
    cra_step,
    new_state,
    nma_step,
    tdp_step,
)
from trustsim.network import NetworkState, init_network


def make_net(seed=42, n=16, ratio=0.30):
    return init_network(n, ratio, np.random.default_rng(seed))


# --- NMA ----------------------------------------------------------------


def test_nma_zero_probability_emits_nothing():
    cfg = AttackConfig(family="nma", nma_p_attack=0.0)
    net = make_net()
    assert nma_step(cfg, new_state(cfg), net, np.random.default_rng(0)) == []


def test_nma_targets_are_honest():
    cfg = AttackConfig(family="nma")
    net = make_net()
    honest = set(int(i) for i in net.honest)
    rng = np.random.default_rng(1)
    for _ in range(200):
        for p in nma_step(cfg, new_state(cfg), net, rng):
            assert p.target in honest
            assert p.kind is PerturbationKind.PENALIZE_BETA
            assert p.magnitude == pytest.approx(0.5)


def test_nma_binomial_mean_monte_carlo():
    cfg = AttackConfig(family="nma")
    net = make_net()
    rng = np.random.default_rng(42)
    counts = [len(nma_step(cfg, new_state(cfg), net, rng)) for _ in range(10_000)]
    assert 2.4 <= float(np.mean(counts)) <= 2.6


# --- CRA ----------------------------------------------------------------


def test_cra_off_cycle_is_empty():
    cfg = AttackConfig(family="cra")
    net = make_net()
    net.step_index = 3
    assert cra_step(cfg, new_state(cfg), net, np.random.default_rng(0)) == []


def test_cra_magnitudes_forced_by_parameters():
    cfg = AttackConfig(family="cra")
    net = make_net()
    net.step_index = 0
    perts = cra_step(cfg, new_state(cfg), net, np.random.default_rng(0))
    boosts = [p for p in perts if p.kind is PerturbationKind.BOOST_ALPHA]
    penalties = [p for p in perts if p.kind is PerturbationKind.PENALIZE_BETA]
    assert len(boosts) == 5
    assert all(p.magnitude == pytest.approx(4 * 0.85) for p in boosts)
    assert len(penalties) == 3  # ceil(0.25 * 11)
    assert all(p.magnitude == pytest.approx(5 * 0.85) for p in penalties)


def test_cra_periodicity_property():
    cfg = AttackConfig(family="cra", cra_period=2)
    net = make_net()
    rng = np.random.default_rng(0)
    for step in range(20):
        net.step_index = step
        perts = cra_step(cfg, new_state(cfg), net, rng)
        assert bool(perts) == (step % 2 == 0)


def test_cra_targets_top_honest():
    cfg = AttackConfig(family="cra")
    net = make_net()
    net.step_index = 0
    taus = net.trust_vector()
    honest = net.honest
    expected = sorted(honest, key=lambda i: (-taus[i], i))[:3]
    penalties = [p.target for p in cra_step(cfg, new_state(cfg), net, np.random.default_rng(0))
                 if p.kind is PerturbationKind.PENALIZE_BETA]
    assert penalties == [int(i) for i in expected]


def test_cra_top_honest_ties_break_on_index():
    mask = np.array([True, False, False, True, False, False, False, False])
    alphas = np.array([9.0, 5.0, 7.0, 9.0, 7.0, 5.0, 7.0, 3.0])
    net = NetworkState(alphas=alphas, betas=np.full(8, 5.0), malicious_mask=mask)
    cfg = AttackConfig(family="cra", cra_target_fraction=0.5)
    penalties = [p.target for p in cra_step(cfg, new_state(cfg), net, np.random.default_rng(0))
                 if p.kind is PerturbationKind.PENALIZE_BETA]
    assert penalties == [2, 4, 6]  # three honest nodes tie on top trust; the malicious 0 and 3 are skipped


# --- AAA ----------------------------------------------------------------


def test_aaa_epsilon_decay_after_ten_selections():
    cfg = AttackConfig(family="aaa")
    state = new_state(cfg)
    net = make_net()
    rng = np.random.default_rng(2)
    for step in range(10):
        net.step_index = step
        aaa_step(cfg, state, net, rng)
    assert state.aaa_eps == pytest.approx(0.98**10)


def test_aaa_exploits_argmax_when_greedy():
    cfg = AttackConfig(family="aaa")
    state = new_state(cfg)
    state.aaa_eps = 0.0
    state.aaa_scores = np.array([0.5, 0.9, 0.1, 0.2, 0.3])
    net = make_net()
    aaa_step(cfg, state, net, np.random.default_rng(0))
    assert state.aaa_prev_strategy == 1


def test_aaa_slow_poison_magnitudes_bounded_by_factor():
    cfg = AttackConfig(family="aaa")
    state = new_state(cfg)
    state.aaa_eps = 0.0
    state.aaa_scores = np.array([0.0, 1.0, 0.0, 0.0, 0.0])  # slow_poisoning
    net = make_net()
    perts = aaa_step(cfg, state, net, np.random.default_rng(0))
    assert perts
    assert all(p.magnitude <= 0.12 + 1e-12 for p in perts)
    assert all(p.kind is PerturbationKind.PENALIZE_BETA for p in perts)


def test_aaa_epsilon_never_increases():
    cfg = AttackConfig(family="aaa")
    state = new_state(cfg)
    net = make_net()
    rng = np.random.default_rng(3)
    prev = state.aaa_eps
    for step in range(50):
        net.step_index = step
        aaa_step(cfg, state, net, rng)
        assert state.aaa_eps <= prev
        prev = state.aaa_eps


def test_aaa_tracks_success_of_previous_strategy():
    cfg = AttackConfig(family="aaa")
    state = new_state(cfg)
    state.aaa_eps = 0.0
    net = make_net()
    aaa_step(cfg, state, net, np.random.default_rng(0))
    chosen = state.aaa_prev_strategy
    # raise malicious trust by hand; the next step credits the strategy
    net.alphas[net.malicious] += 50.0
    aaa_step(cfg, state, net, np.random.default_rng(1))
    assert state.aaa_scores[chosen] > 0.0


# --- BFI ----------------------------------------------------------------


def test_bfi_sybil_amplification_factor():
    cfg = AttackConfig(family="bfi")
    assert amplified_endorsement(cfg, 1.0) == pytest.approx(4.0)


def test_bfi_coordinated_strike_on_window():
    cfg = AttackConfig(family="bfi")
    net = make_net()
    net.step_index = 12
    state = new_state(cfg)
    perts = bfi_step(cfg, state, net, np.random.default_rng(0))
    strikes = [p for p in perts if p.kind is PerturbationKind.PENALIZE_BETA]
    assert len(strikes) == 5  # one per byzantine node
    assert len({p.target for p in strikes}) == 1


def test_bfi_no_strike_off_window():
    cfg = AttackConfig(family="bfi")
    net = make_net()
    net.step_index = 7
    perts = bfi_step(cfg, new_state(cfg), net, np.random.default_rng(0))
    assert not [p for p in perts if p.kind is PerturbationKind.PENALIZE_BETA]


def test_bfi_phase_thresholds():
    cfg = AttackConfig(family="bfi")
    net = make_net()
    byz = net.malicious
    state = new_state(cfg)
    net.alphas[byz], net.betas[byz] = 7.0, 3.0  # 0.7 > 0.6
    bfi_step(cfg, state, net, np.random.default_rng(0))
    assert state.bfi_phase == "AGGRESSIVE"
    net.alphas[byz], net.betas[byz] = 5.0, 5.0
    bfi_step(cfg, state, net, np.random.default_rng(0))
    assert state.bfi_phase == "STRATEGIC"


def test_bfi_eclipse_target_is_standing_and_corrupts_observation():
    cfg = AttackConfig(family="bfi")
    net = make_net()
    state = new_state(cfg)
    rng = np.random.default_rng(0)
    targets = set()
    for step in range(10):
        net.step_index = step
        bfi_step(cfg, state, net, rng)
        node, value = state.bfi_corruption
        assert 0.01 <= value <= 0.99
        targets.add(node)
    assert len(targets) == 1
    assert not net.malicious_mask[targets.pop()]


@pytest.mark.parametrize(
    "phase, alpha, beta", [("AGGRESSIVE", 7.0, 3.0), ("STRATEGIC", 5.0, 5.0), ("RECOVERY", 3.5, 6.5)]
)
def test_bfi_equivocation_matches_per_node_draws(phase, alpha, beta):
    cfg = AttackConfig(family="bfi")
    net = make_net()
    byz = net.malicious
    net.alphas[byz], net.betas[byz] = alpha, beta
    state = new_state(cfg)
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    for step in range(40):
        net.step_index = step
        if state.bfi_eclipse_target is None:
            reference.integers(len(net.honest))  # the eclipse target's draw comes first
        bfi_step(cfg, state, net, rng)
        assert state.bfi_phase == phase
        for _ in byz:
            reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state


# --- TDP ----------------------------------------------------------------


def test_tdp_dormant_emits_nothing():
    cfg = AttackConfig(family="tdp")
    net = make_net()
    net.episode_index = 24
    state = new_state(cfg)
    perts = tdp_step(cfg, state, net, np.random.default_rng(0))
    assert perts == []
    assert not state.tdp_activated


def test_tdp_activates_at_episode_25_with_four_targets():
    cfg = AttackConfig(family="tdp")
    net = make_net()
    net.episode_index = 25
    state = new_state(cfg)
    perts = tdp_step(cfg, state, net, np.random.default_rng(0))
    assert state.tdp_activated
    penalties = [p for p in perts if p.kind is PerturbationKind.PENALIZE_BETA]
    assert len(penalties) == 4  # ceil(0.35 * 11)
    assert all(p.magnitude == pytest.approx(5 * 0.75) for p in penalties)


def test_tdp_activation_is_monotone():
    cfg = AttackConfig(family="tdp")
    net = make_net()
    state = new_state(cfg)
    net.episode_index = 30
    tdp_step(cfg, state, net, np.random.default_rng(0))
    assert state.tdp_activated
    net.episode_index = 10  # even a stale index cannot deactivate
    perts = tdp_step(cfg, state, net, np.random.default_rng(0))
    assert state.tdp_activated
    assert perts  # still attacking


def test_tdp_sleeper_boosts_are_mutual():
    cfg = AttackConfig(family="tdp")
    net = make_net()
    net.episode_index = 25
    perts = tdp_step(cfg, new_state(cfg), net, np.random.default_rng(0))
    boosts = [p for p in perts if p.kind is PerturbationKind.BOOST_ALPHA]
    sleepers = set(int(i) for i in net.malicious)
    assert {p.target for p in boosts} == sleepers
    for p in boosts:
        assert p.emitters is not None
        assert p.target not in p.emitters
        assert set(p.emitters) == sleepers - {p.target}


# --- coalition shapes ---------------------------------------------------

# Eight nodes with distinct trust; the coalition is one node or three.
# Each expected list is the exact (target, kind, magnitude, emitters) stream.
COALITION_SHAPES = {
    (1, "cra"): [(0, "penalize_beta", 0.85, (2,)), (4, "penalize_beta", 0.85, (2,))],
    (1, "tdp"): [(0, "penalize_beta", 0.75, (2,)), (4, "penalize_beta", 0.75, (2,)),
                 (5, "penalize_beta", 0.75, (2,))],
    (1, "strategic_cooperation"): [],
    (1, "temporal_coordination"): [(0, "penalize_beta", 0.12, (2,))],
    (3, "cra"): [(1, "boost_alpha", 1.7, (4, 6)), (4, "boost_alpha", 1.7, (1, 6)),
                 (6, "boost_alpha", 1.7, (1, 4)), (0, "penalize_beta", 2.55, (1, 4, 6)),
                 (2, "penalize_beta", 2.55, (1, 4, 6))],
    (3, "tdp"): [(0, "penalize_beta", 2.25, (1, 4, 6)), (2, "penalize_beta", 2.25, (1, 4, 6)),
                 (1, "boost_alpha", 1.5, (4, 6)), (4, "boost_alpha", 1.5, (1, 6)),
                 (6, "boost_alpha", 1.5, (1, 4))],
    (3, "strategic_cooperation"): [(1, "boost_alpha", 0.24, (4, 6)), (4, "boost_alpha", 0.24, (1, 6)),
                                   (6, "boost_alpha", 0.24, (1, 4))],
    (3, "temporal_coordination"): [(0, "penalize_beta", 0.36, (1, 4, 6)), (1, "boost_alpha", 0.24, (4, 6)),
                                   (0, "penalize_beta", 0.36, (1, 4, 6)), (4, "boost_alpha", 0.24, (1, 6)),
                                   (0, "penalize_beta", 0.36, (1, 4, 6)), (6, "boost_alpha", 0.24, (1, 4))],
}


@pytest.mark.parametrize("size, emission", COALITION_SHAPES, ids=lambda v: str(v))
def test_coalition_emission_sequence(size, emission):
    mask = np.zeros(8, dtype=bool)
    mask[{1: [2], 3: [1, 4, 6]}[size]] = True
    net = NetworkState(alphas=np.array([9.0, 5.0, 7.0, 3.0, 8.0, 6.0, 4.0, 2.0]), betas=np.full(8, 5.0),
                       malicious_mask=mask)
    rng = np.random.default_rng(0)
    if emission == "cra":
        cfg = AttackConfig(family="cra")
        perts = cra_step(cfg, new_state(cfg), net, rng)
    elif emission == "tdp":
        cfg = AttackConfig(family="tdp")
        net.episode_index = 25
        perts = tdp_step(cfg, new_state(cfg), net, rng)
    else:
        cfg = AttackConfig(family="aaa")
        state = new_state(cfg)
        state.aaa_eps = 0.0
        state.aaa_scores = np.eye(len(AAA_STRATEGIES))[AAA_STRATEGIES.index(emission)]
        perts = aaa_step(cfg, state, net, rng)
        assert AAA_STRATEGIES[state.aaa_prev_strategy] == emission
    got = [(p.target, p.kind.value, p.magnitude, p.emitters) for p in perts]
    assert got == COALITION_SHAPES[(size, emission)]


# --- perturbation application -------------------------------------------


def test_perturbations_preserve_profile_invariants():
    net = make_net()
    perts = [
        Perturbation(0, PerturbationKind.BOOST_ALPHA, 3.4),
        Perturbation(1, PerturbationKind.PENALIZE_BETA, 4.25),
    ]
    apply_perturbations(net, perts, accepted=set(range(net.n)))
    assert np.all(net.alphas > 0) and np.all(net.betas > 0)


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation(0, PerturbationKind.BOOST_ALPHA, 0.0)


def test_gate_scaling_refuses_rejected_emitters():
    net = make_net()
    a0 = net.alphas[0]
    perts = [Perturbation(0, PerturbationKind.BOOST_ALPHA, 4.0, emitters=(1, 2, 3, 4))]
    apply_perturbations(net, perts, accepted={1, 2})
    assert net.alphas[0] == pytest.approx(a0 + 2.0)
    apply_perturbations(net, perts, accepted=set())
    assert net.alphas[0] == pytest.approx(a0 + 2.0)  # fully refused


def test_behavioral_perturbations_ignore_gate():
    net = make_net()
    a0 = net.alphas[0]
    apply_perturbations(net, [Perturbation(0, PerturbationKind.BOOST_ALPHA, 1.5)], accepted=set())
    assert net.alphas[0] == pytest.approx(a0 + 1.5)


def test_attack_driver_routes_channels():
    cfg = AttackConfig(family="bfi")
    attack = Attack(cfg)
    net = make_net()
    net.step_index = 0
    perts, corruption = attack.step(net, np.random.default_rng(0))
    node, _ = corruption
    assert not net.malicious_mask[node]
    assert all(p.kind in (PerturbationKind.BOOST_ALPHA, PerturbationKind.PENALIZE_BETA) for p in perts)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(family="unknown")
    with pytest.raises(ValueError):
        AttackConfig(nma_p_attack=1.5)
    with pytest.raises(ValueError):
        AttackConfig(cra_period=0)
    for name in ("nma_noise", "aaa_factor", "bfi_sybil_k", "bfi_endorsement_base", "bfi_strike_magnitude"):
        with pytest.raises(ValueError):
            AttackConfig(**{name: -1})
