import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.trust import (
    committee_size,
    EvidenceKind,
    TrustUpdateConfig,
    round_half_up,
    sample_beta,
    sample_top_k,
)

from reference import TrustProfile, apply_evidence, trust_score

CFG = TrustUpdateConfig()


def test_trust_score_symmetric_prior():
    assert trust_score(TrustProfile(8.0, 8.0)) == 0.5


def test_trust_score_forced_arithmetic():
    assert trust_score(TrustProfile(12.0, 4.0)) == 0.75
    assert trust_score(TrustProfile(7.2, 10.0)) == pytest.approx(7.2 / 17.2)


def test_profile_invariants_enforced():
    with pytest.raises(ValueError):
        TrustProfile(0.0, 1.0)
    with pytest.raises(ValueError):
        TrustProfile(1.0, -2.0)


def test_update_config_validation():
    with pytest.raises(ValueError):
        TrustUpdateConfig(decay_gamma=1.0)
    with pytest.raises(ValueError):
        TrustUpdateConfig(delta_valid=0.0)


def test_apply_valid_evidence():
    assert apply_evidence(TrustProfile(8, 8), EvidenceKind.VALID, CFG) == TrustProfile(9, 8)


def test_apply_malicious_evidence_decays_alpha():
    out = apply_evidence(TrustProfile(8, 8), EvidenceKind.MALICIOUS, CFG)
    assert out.alpha == pytest.approx(7.2)
    assert out.beta == pytest.approx(10.0)


def test_apply_invalid_evidence():
    assert apply_evidence(TrustProfile(8, 8), EvidenceKind.INVALID, CFG) == TrustProfile(8, 9)


positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(alpha=positive, beta=positive)
def test_valid_evidence_never_decreases_trust(alpha, beta):
    p = TrustProfile(alpha, beta)
    assert trust_score(apply_evidence(p, EvidenceKind.VALID, CFG)) >= trust_score(p)


@given(alpha=positive, beta=positive, kind=st.sampled_from([EvidenceKind.INVALID, EvidenceKind.MALICIOUS]))
def test_negative_evidence_never_increases_trust(alpha, beta, kind):
    p = TrustProfile(alpha, beta)
    assert trust_score(apply_evidence(p, kind, CFG)) <= trust_score(p)


@given(alpha=positive, beta=positive, delta=st.floats(min_value=1e-3, max_value=100.0))
def test_malicious_severity_dominates_invalid_at_equal_delta(alpha, beta, delta):
    cfg = TrustUpdateConfig(delta_invalid=delta, delta_malicious=delta)
    p = TrustProfile(alpha, beta)
    t_mal = trust_score(apply_evidence(p, EvidenceKind.MALICIOUS, cfg))
    t_inv = trust_score(apply_evidence(p, EvidenceKind.INVALID, cfg))
    assert t_mal <= t_inv + 1e-12


def test_committee_size_rule():
    assert committee_size(1.0, 16) == 16
    assert committee_size(0.3, 16) == 5  # round(4.8) = 5
    assert committee_size(0.1, 16) == 2
    assert committee_size(0.1, 2) == 1  # floor at one delegate


def test_round_half_up():
    assert round_half_up(4.5) == 5
    assert round_half_up(4.4) == 4
    assert round_half_up(4.8) == 5


def test_policy_validation():
    with pytest.raises(ValueError):
        committee_size(0.05, 16)
    with pytest.raises(ValueError):
        committee_size(1.2, 16)
    with pytest.raises(ValueError):
        committee_size(0.5, 0)


# delegate selection: the committee is the committee_size largest Thompson draws

PRIOR = np.full(16, 8.0)
ALL = np.arange(16)


def test_sample_top_k_full_ratio_selects_everyone():
    rng = np.random.default_rng(0)
    chosen = sample_top_k(PRIOR, PRIOR, committee_size(1.0, 16), rng, candidates=ALL)
    assert chosen.tolist() == list(range(16))


def test_sample_top_k_counts():
    rng = np.random.default_rng(1)
    chosen = sample_top_k(PRIOR, PRIOR, committee_size(0.3, 16), rng, candidates=ALL)
    assert len(chosen) == 5
    assert all(0 <= i < 16 for i in chosen)


def test_sample_top_k_rejects_empty():
    empty = np.array([])
    with pytest.raises(ValueError):
        sample_top_k(empty, empty, committee_size(0.5, 16), np.random.default_rng(0), candidates=np.arange(0))
    with pytest.raises(ValueError):
        sample_top_k(PRIOR, PRIOR, 8, np.random.default_rng(0), candidates=np.array([], dtype=np.int64))


def test_sample_top_k_deterministic_under_seed():
    alphas, betas = np.arange(1.0, 17.0), np.arange(16.0, 0.0, -1.0)
    k = committee_size(0.5, 16)
    a = [sample_top_k(alphas, betas, k, np.random.default_rng(7), candidates=ALL).tolist() for _ in range(5)]
    b = [sample_top_k(alphas, betas, k, np.random.default_rng(7), candidates=ALL).tolist() for _ in range(5)]
    assert a == b


def test_thompson_extreme_profiles_monte_carlo():
    # one strong node against fifteen weak ones, k=1
    alphas = np.array([1000.0] + [1.0] * 15)
    betas = np.array([1.0] + [1000.0] * 15)
    rng = np.random.default_rng(42)
    hits = sum(1 for _ in range(10_000) if sample_top_k(alphas, betas, 1, rng, candidates=ALL)[0] == 0)
    assert hits / 10_000 > 0.999


def test_thompson_strong_beats_weak():
    alphas = np.array([50.0, 1.0])
    betas = np.array([1.0, 50.0])
    rng = np.random.default_rng(42)
    hits = sum(1 for _ in range(1_000) if sample_top_k(alphas, betas, 1, rng, candidates=np.arange(2))[0] == 0)
    assert hits / 1_000 > 0.99


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sample_top_k_exact_k_distinct(seed):
    rng = np.random.default_rng(seed)
    alphas, betas = rng.uniform(0.5, 20, 12), rng.uniform(0.5, 20, 12)
    chosen = sample_top_k(alphas, betas, committee_size(0.4, 12), rng, candidates=np.arange(12))
    assert len(chosen) == 5  # round(4.8)
    assert len(set(chosen.tolist())) == 5


# Shapes on both sides of 1, so numpy's two gamma branches (shape < 1 and shape > 1) both draw,
# and exactly 1, its exponential case.
shapes = st.lists(st.one_of(st.floats(1e-3, 1e3), st.just(1.0)), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(alphas=shapes, betas=shapes, seed=st.integers(0, 2**32 - 1))
def test_standard_gamma_one_call_over_concatenated_shapes_equals_two_calls(alphas, betas, seed):
    alphas, betas = np.array(alphas), np.array(betas)
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    joined = one.standard_gamma(np.concatenate((alphas, betas)))
    separate = np.concatenate((two.standard_gamma(alphas), two.standard_gamma(betas)))
    assert joined.tobytes() == separate.tobytes()
    assert one.bit_generator.state == two.bit_generator.state

    # sample_beta is the gamma ratio of the two calls, x's then y's; the Beta mean where both underflow
    betas = np.resize(betas, len(alphas))
    rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x, y = expected_rng.standard_gamma(alphas), expected_rng.standard_gamma(betas)
    zero = x + y == 0.0
    expected = np.where(zero, alphas / (alphas + betas), x / np.where(zero, 1.0, x + y))
    assert sample_beta(alphas, betas, rng).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == expected_rng.bit_generator.state
