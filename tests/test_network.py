import numpy as np
import pytest

from trustsim.network import (
    NetworkState,
    init_network,
    quorum,
    reset_profiles,
    run_consensus_round,
    trust_separation,
)
from trustsim.trust import EvidenceKind, TrustUpdateConfig

from reference import reference_round

CFG = TrustUpdateConfig()


def make_net(n=16, ratio=0.30, seed=42):
    return init_network(n, ratio, np.random.default_rng(seed))


def net_with_malicious(n, *malicious, seed=42):
    """An n-node network whose malicious nodes are exactly ``malicious``."""
    base = make_net(n, 0.0, seed)
    mask = np.zeros(n, dtype=bool)
    mask[list(malicious)] = True
    return NetworkState(alphas=base.alphas, betas=base.betas, malicious_mask=mask)


def test_init_malicious_count_default_configuration():
    net = make_net(16, 0.30, seed=42)
    assert int(net.malicious_mask.sum()) == 5


def test_role_layout_is_fixed_and_read_only():
    mask = np.array([False, True, False, True])
    net = NetworkState(alphas=np.full(4, 8.0), betas=np.full(4, 8.0), malicious_mask=mask)
    assert net.honest.tolist() == [0, 2] and net.malicious.tolist() == [1, 3]
    assert net.honest.dtype == np.int64 and net.malicious.dtype == np.int64
    mask[0] = True  # the state holds its own copy
    assert not net.malicious_mask[0]
    for fixed in (net.malicious_mask, net.honest, net.malicious):
        with pytest.raises(ValueError):
            fixed[0] = 1
    with pytest.raises(ValueError):
        NetworkState(alphas=np.full(4, 8.0), betas=np.full(4, 8.0), malicious_mask=mask[:3])


def test_init_zero_ratio():
    net = make_net(16, 0.0, seed=7)
    assert int(net.malicious_mask.sum()) == 0
    assert np.all(np.abs(net.trust_vector() - 0.5) < 0.05)


def test_init_rejects_tiny_network():
    with pytest.raises(ValueError):
        init_network(1, 0.3, np.random.default_rng(0))


def test_init_mean_trust_monte_carlo():
    means = []
    rng = np.random.default_rng(123)
    for _ in range(1000):
        net = init_network(16, 0.30, rng)
        means.append(net.trust_vector().mean())
    assert 0.48 <= float(np.mean(means)) <= 0.52


def test_quorum_thresholds():
    assert quorum(3) == 2
    assert quorum(5) == 4  # ceil(10/3)
    assert quorum(6) == 4
    assert quorum(9) == 6
    assert quorum(16) == 11


def test_round_all_honest_creates_block():
    net = make_net(16, 0.0)
    out = run_consensus_round(net, range(5), np.random.default_rng(0), CFG, detect_p=0.5)
    assert out.block_created
    assert net.chain_length == 1


def test_round_three_of_five_valid_fails():
    net = net_with_malicious(16, 3, 4)  # two malicious delegates vote invalid
    out = run_consensus_round(net, range(5), np.random.default_rng(0), CFG, detect_p=0.5)
    assert not out.block_created


def test_round_boundary_four_of_six_succeeds():
    net = net_with_malicious(16, 0, 1)
    out = run_consensus_round(net, range(6), np.random.default_rng(0), CFG, detect_p=0.5)
    assert out.block_created


def test_round_rejects_empty_delegates():
    net = make_net()
    with pytest.raises(ValueError):
        run_consensus_round(net, [], np.random.default_rng(0), CFG, detect_p=0.5)


def test_round_applies_valid_evidence_on_success():
    net = make_net(16, 0.0)
    before = net.alphas.copy()
    run_consensus_round(net, range(16), np.random.default_rng(0), CFG, detect_p=0.5)
    assert np.all(net.alphas[:16] == before + CFG.delta_valid)


def test_round_penalizes_invalid_voters():
    net = net_with_malicious(16, 0)
    b0 = net.betas[0]
    a0 = net.alphas[0]
    run_consensus_round(net, range(16), np.random.default_rng(0), CFG, detect_p=0.0)
    assert net.betas[0] == b0 + CFG.delta_invalid
    assert net.alphas[0] == a0


def test_round_detected_misbehavior_draws_malicious_evidence():
    net = net_with_malicious(16, 0)
    a0 = net.alphas[0]
    b0 = net.betas[0]
    run_consensus_round(net, range(16), np.random.default_rng(0), CFG, detect_p=1.0)
    assert net.betas[0] == b0 + CFG.delta_malicious
    assert net.alphas[0] == pytest.approx(a0 * CFG.decay_gamma)


def test_malicious_votes_invalid_unless_posing():
    net = net_with_malicious(16, 0)
    log = []
    out = run_consensus_round(net, range(16), np.random.default_rng(0), CFG, detect_p=0.5, evidence_log=log)
    assert [entry[3] for entry in log] == list(range(16))
    assert log[0][4] in (EvidenceKind.INVALID.value, EvidenceKind.MALICIOUS.value)
    assert all(entry[4] == EvidenceKind.VALID.value for entry in log[1:])
    assert out.block_created  # 15 of 16 >= 11
    # a posing node votes Valid
    log = []
    run_consensus_round(net, range(16), np.random.default_rng(0), CFG, detect_p=0.5, posing=np.array([0]),
                        evidence_log=log)
    assert [entry[4] for entry in log] == [EvidenceKind.VALID.value] * 16


def test_round_rejects_repeated_or_out_of_range_delegates():
    net = make_net()
    for bad in ([1, 1, 2], [0, 16], [-1, 3]):
        with pytest.raises(ValueError):
            run_consensus_round(net, bad, np.random.default_rng(0), CFG, detect_p=0.5)


def test_round_matches_per_node_apply_evidence_bit_for_bit():
    rng = np.random.default_rng(11)
    cfg = TrustUpdateConfig(delta_valid=0.7, delta_invalid=1.3, delta_malicious=2.9, decay_gamma=0.83)
    for trial in range(300):
        n = int(rng.integers(2, 20))
        mask = rng.random(n) < rng.random()
        alphas, betas = rng.uniform(0.5, 40.0, n), rng.uniform(0.5, 40.0, n)
        delegates = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        malicious = np.flatnonzero(mask)
        posing = malicious[rng.random(len(malicious)) < 0.5] if rng.random() < 0.75 else None
        detect_p = float(rng.random())
        net = NetworkState(alphas=alphas.copy(), betas=betas.copy(), malicious_mask=mask)
        log = []
        out = run_consensus_round(net, delegates, np.random.default_rng(trial), cfg, posing=posing,
                                  detect_p=detect_p, evidence_log=log)
        block, expected_log = reference_round(alphas, betas, mask, delegates, np.random.default_rng(trial),
                                              posing, detect_p, cfg)
        assert out.block_created == block
        assert net.alphas.tobytes() == alphas.tobytes() and net.betas.tobytes() == betas.tobytes()
        assert log == expected_log


def test_chain_grows_every_step_without_adversaries():
    net = make_net(16, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        run_consensus_round(net, range(16), rng, CFG, detect_p=0.5)
    assert net.chain_length == 30


def test_role_counts_preserved_across_reset():
    net = make_net(16, 0.30, seed=9)
    before = net.malicious_mask.copy()
    reset_profiles(net, np.random.default_rng(1))
    assert np.array_equal(net.malicious_mask, before)
    assert net.chain_length == 0
    assert net.step_index == 0


def test_trust_separation_forced_arithmetic():
    net = net_with_malicious(4, 3)
    net.alphas = np.array([8.0, 8.0, 8.0, 3.0])
    net.betas = np.array([2.0, 2.0, 2.0, 7.0])
    assert trust_separation(net) == pytest.approx(0.8 - 0.3)


def test_trust_separation_equal_means_zero():
    net = net_with_malicious(4, 0)
    net.alphas = np.full(4, 8.0)
    net.betas = np.full(4, 8.0)
    assert trust_separation(net) == 0.0


def test_trust_separation_mixed_values():
    net = net_with_malicious(3, 2)
    net.alphas = np.array([9.0, 7.0, 2.0])
    net.betas = np.array([1.0, 3.0, 8.0])
    assert trust_separation(net) == pytest.approx((0.9 + 0.7) / 2 - 0.2)


def test_trust_separation_requires_both_roles():
    # with either role empty there is nothing to separate, and it reads 0.0
    assert trust_separation(make_net(4, 0.0)) == 0.0
    assert trust_separation(make_net(4, 1.0)) == 0.0
