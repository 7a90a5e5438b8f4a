import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.agents import AGENT_KINDS
from trustsim.attacks import FAMILIES, AttackConfig
from trustsim.config import ATTACKS, ConfigError, ExperimentConfig
from trustsim.env import (
    ACTION_MULTIPLIERS,
    HIGH_TRUST_CUTOFF,
    LOW_TRUST_CUTOFF,
    Action,
    EnvConfig,
    Environment,
    RewardConfig,
    apply_action,
    collusion_score,
    compute_reward,
    extract_state,
    run_episode,
)
from trustsim.env import _linear_quantile
from trustsim.metrics import ConfusionMatrix
from trustsim.network import NetworkState, init_network
from trustsim.runner import build_simulation, simulate
from trustsim.trust import TrustUpdateConfig

from reference import FEATURE_INDEX, total

RW = RewardConfig()
DEFAULTS = {"kappa_max": 10.0, "steps_per_episode": 100}


def degenerate_net(tau=0.5):
    net = init_network(16, 0.30, np.random.default_rng(0))
    net.alphas = np.full(16, 8.0)
    net.betas = np.full(16, 8.0 * (1 - tau) / tau)
    return net


def test_state_degenerate_distribution():
    s = extract_state(degenerate_net(), (), **DEFAULTS)
    for name in ("variance", "skewness", "range", "iqr", "coeff_variation"):
        assert s[FEATURE_INDEX[name]] == 0.0
    assert s[FEATURE_INDEX["mean_trust"]] == pytest.approx(0.5)
    assert s[FEATURE_INDEX["median"]] == pytest.approx(0.5)


def test_state_collusion_score_examples():
    assert collusion_score(0.8, 0.3, kappa_max=10.0) == pytest.approx(2.0)
    assert collusion_score(0.5, 0.5, kappa_max=10.0) == 10.0
    assert collusion_score(0.5, 0.45, kappa_max=10.0) == 10.0  # gap below 1/kappa_max


def test_state_order_statistics_sanity():
    rng = np.random.default_rng(4)
    net = init_network(16, 0.30, rng)
    net.alphas = rng.uniform(1, 30, 16)
    net.betas = rng.uniform(1, 30, 16)
    s = extract_state(net, (), **DEFAULTS)
    taus = net.trust_vector()
    assert taus.min() <= s[FEATURE_INDEX["median"]] <= taus.max()
    assert s[FEATURE_INDEX["iqr"]] <= s[FEATURE_INDEX["range"]] + 1e-12
    assert np.all(np.isfinite(s))


def reference_skewness(values, var):
    """Fisher g1 through ndarray.mean, as extract_state computed it before its lean form."""
    if var <= 0.0:
        return 0.0
    centered = values - values.mean()
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    if m2 <= 0.0:
        return 0.0
    return m3 / m2**1.5


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([2, 3, 16, 17]),
    seed=st.integers(0, 2**32 - 1),
    ties=st.sampled_from(["none", "half", "all"]),
)
def test_state_order_statistics_match_numpy_bit_for_bit(n, seed, ties):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.5, 40.0, n)
    betas = rng.uniform(0.5, 40.0, n)
    tied = {"none": 0, "half": n // 2, "all": n}[ties]  # repeated trust values
    alphas[:tied] = alphas[0]
    betas[:tied] = betas[0]
    mask = np.arange(n) % 2 == 0
    net = NetworkState(alphas=alphas, betas=betas, malicious_mask=mask)
    s = extract_state(net, (), **DEFAULTS)
    taus = net.trust_vector()

    mean = float(np.mean(taus))
    var = float(np.var(taus, ddof=1))
    assert s[FEATURE_INDEX["mean_trust"]] == mean
    assert s[FEATURE_INDEX["variance"]] == var
    assert s[FEATURE_INDEX["skewness"]] == reference_skewness(taus, var)
    assert s[FEATURE_INDEX["coeff_variation"]] == float(np.sqrt(var) / mean)
    assert s[FEATURE_INDEX["low_trust_frac"]] == float((taus < LOW_TRUST_CUTOFF).mean())
    assert s[FEATURE_INDEX["high_trust_frac"]] == float((taus > HIGH_TRUST_CUTOFF).mean())
    assert s[FEATURE_INDEX["collusion_score"]] == collusion_score(
        float(taus[~mask].mean()), float(taus[mask].mean()), kappa_max=10.0
    )
    if ties == "all" and n in (2, 16):  # the sum of n equal values is exact, so is the mean
        assert s[FEATURE_INDEX["variance"]] == 0.0 and s[FEATURE_INDEX["skewness"]] == 0.0

    q25, q75 = np.percentile(taus, [25.0, 75.0], method="linear")
    assert s[FEATURE_INDEX["median"]] == np.median(taus)
    assert s[FEATURE_INDEX["iqr"]] == q75 - q25
    assert s[FEATURE_INDEX["range"]] == taus.max() - taus.min()
    ordered = np.sort(taus).tolist()
    assert _linear_quantile(ordered, 0.25) == q25 and _linear_quantile(ordered, 0.75) == q75


def test_state_eclipse_corruption_changes_observation_only():
    net = degenerate_net()
    clean = extract_state(net, (), **DEFAULTS)
    corrupted = extract_state(net, (), **DEFAULTS, corruption=(0, 0.95))
    assert corrupted[FEATURE_INDEX["range"]] > clean[FEATURE_INDEX["range"]]
    assert net.trust_vector()[0] == pytest.approx(0.5)  # actual trust untouched


def test_state_policy_feature_tracks_ratio():
    net = degenerate_net()
    net.delegation_ratio = 0.1
    low = extract_state(net, (), **DEFAULTS)[FEATURE_INDEX["delegation_efficiency"]]
    net.delegation_ratio = 1.0
    high = extract_state(net, (), **DEFAULTS)[FEATURE_INDEX["delegation_efficiency"]]
    assert low == pytest.approx(2 / 16)
    assert high == pytest.approx(1.0)


def test_apply_action_examples():
    assert apply_action(0.5, Action.DECREASE) == pytest.approx(0.45)
    assert apply_action(0.95, Action.INCREASE) == pytest.approx(1.0)
    assert apply_action(0.1, Action.DECREASE) == pytest.approx(0.1)


@given(
    ratio=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    action=st.sampled_from(list(Action)),
)
def test_apply_action_stays_in_range(ratio, action):
    out = apply_action(ratio, action)
    assert 0.1 <= out <= 1.0


def test_action_space_shape():
    assert len(Action) == 3
    assert ACTION_MULTIPLIERS == (0.9, 1.0, 1.1)


def test_reward_worked_example_high_f1():
    cm = ConfusionMatrix(tp=5, fp=0, fn=0, tn=11)
    assert compute_reward(cm, r_step=100.0, kappa=0.5, cfg=RW) == pytest.approx(70.3, abs=1e-12)


def test_reward_worked_example_mid():
    cm = ConfusionMatrix(tp=2, fp=2, fn=2, tn=10)  # P = R = 0.5 -> F1 = 0.5
    assert compute_reward(cm, r_step=0.0, kappa=5.0, cfg=RW) == pytest.approx(19.0, abs=1e-12)


def test_reward_worked_example_capped_penalty():
    cm = ConfusionMatrix(tp=0, fp=0, fn=5, tn=11)
    assert compute_reward(cm, r_step=0.0, kappa=12.0, cfg=RW) == pytest.approx(-35.0, abs=1e-12)


def test_reward_penalty_cap_engages_exactly_at_kappa_ten():
    cm = ConfusionMatrix(tp=0, fp=0, fn=0, tn=16)
    r_at_10 = compute_reward(cm, 0.0, 10.0, RW)
    assert r_at_10 == pytest.approx(-20.0, abs=1e-12)
    r_at_995 = compute_reward(cm, 0.0, 9.95, RW)
    assert r_at_995 == pytest.approx(-19.9, abs=1e-12)


@given(
    tp=st.integers(0, 5),
    fp=st.integers(0, 11),
    kappa=st.floats(0.0, 2.0, allow_nan=False),
)
def test_reward_increasing_in_f1_when_unpenalized(tp, fp, kappa):
    # FN = 0 and kappa <= 2: reward must order with F1
    a = ConfusionMatrix(tp=tp, fp=fp, fn=0, tn=11 - fp)
    b = ConfusionMatrix(tp=tp, fp=max(0, fp - 1), fn=0, tn=11 - max(0, fp - 1))
    from trustsim.metrics import f1

    ra = compute_reward(a, 0.0, kappa, RW)
    rb = compute_reward(b, 0.0, kappa, RW)
    if f1(b) > f1(a):
        assert rb > ra


def test_run_episode_determinism():
    cfg = ExperimentConfig(agent="drl", attack="nma", episodes=3, seed=77)
    ra, *_ = simulate(build_simulation(cfg))
    rb, *_ = simulate(build_simulation(cfg))
    assert [(r.f1, r.cumulative_reward, r.chain_length) for r in ra] == [
        (r.f1, r.cumulative_reward, r.chain_length) for r in rb
    ]


def test_run_episode_chain_bounded_by_steps():
    cfg = ExperimentConfig(agent="rl", attack="none", episodes=2, seed=5, steps=60)
    records, *_ = simulate(build_simulation(cfg))
    assert all(r.chain_length <= 60 for r in records)
    assert all(r.throughput <= 600 for r in records)
    assert all(r.throughput == r.chain_length * cfg.env.batch_size for r in records)


def record_results(monkeypatch, method: str) -> list:
    """Wrap ``Environment.<method>`` so each call's result is appended to the returned list."""
    results = []
    original = getattr(Environment, method)

    def wrapper(env, *args):
        results.append(original(env, *args))
        return results[-1]

    monkeypatch.setattr(Environment, method, wrapper)
    return results


@pytest.mark.parametrize("attack", ATTACKS)
def test_transaction_features_equal_block_features(attack, monkeypatch):
    # every block verifies one full batch, so the two transaction features are the block features
    states = record_results(monkeypatch, "observe")
    cfg = ExperimentConfig(agent="rl", attack=attack, episodes=2, steps=30, seed=9, allow_short_tdp=True,
                           attack_cfg=AttackConfig(tdp_activation_episode=2))
    simulate(build_simulation(cfg))
    assert len(states) == 2 * 31
    for s in states:
        assert s[FEATURE_INDEX["verified_tx_norm"]] == s[FEATURE_INDEX["chain_length_norm"]]
        assert s[FEATURE_INDEX["throughput_rate"]] == s[FEATURE_INDEX["recent_block_rate"]]
    assert any(s[FEATURE_INDEX["chain_length_norm"]] > 0.0 for s in states)


@pytest.mark.parametrize("agent", AGENT_KINDS)
def test_cumulative_reward_is_the_left_fold_of_step_rewards(agent, monkeypatch):
    # sum() compensates float rounding from Python 3.12 on; the record must not depend on the version
    rewards = record_results(monkeypatch, "step")
    cfg = ExperimentConfig(agent=agent, attack="cra", episodes=3, steps=40, seed=11)
    records, *_ = simulate(build_simulation(cfg))
    assert len(rewards) == 3 * 40
    for i, r in enumerate(records):
        assert r.cumulative_reward == functools.reduce(operator.add, rewards[i * 40:(i + 1) * 40], 0.0)


@pytest.mark.parametrize("agent", AGENT_KINDS)
def test_run_episode_after_build_simulation_gives_the_records_of_simulate(agent):
    # the environment draws each episode's masses itself, so a caller needs nothing but run_episode
    cfg = ExperimentConfig(agent=agent, attack="cra", episodes=3, steps=20, seed=5)
    env, built, episodes, _warning = build_simulation(cfg)
    records = [run_episode(env, built, episode_index=ep) for ep in range(1, episodes + 1)]
    assert records == simulate(build_simulation(cfg))[0]


def from_scratch(env) -> np.ndarray:
    """The observation computed from the network alone, without the environment's trust view."""
    return extract_state(env.net, env.blocks, kappa_max=env.reward_cfg.kappa_max, steps_per_episode=env.steps,
                         corruption=env.pending_corruption)


@pytest.mark.parametrize("attack", ATTACKS)
def test_observe_after_step_and_at_episode_start_equals_from_scratch(attack, monkeypatch):
    # observe reads the environment's view, taken after each step's evidence and when an episode begins
    seen = []
    original = Environment.observe

    def checked(env):
        expected = from_scratch(env)
        state = original(env)
        assert state.tobytes() == expected.tobytes()
        seen.append(env.net.step_index)
        return state

    monkeypatch.setattr(Environment, "observe", checked)
    cfg = ExperimentConfig(agent="rl", attack=attack, episodes=2, steps=30, seed=9, allow_short_tdp=True,
                           attack_cfg=AttackConfig(tdp_activation_episode=2))
    simulate(build_simulation(cfg))
    assert seen == list(range(31)) * 2


def test_observe_not_directly_after_a_step_computes_from_scratch():
    env, _agent, _episodes, _warning = build_simulation(ExperimentConfig(agent="rl", attack="cra"))
    env.begin_episode(1)
    env.step(Action.MAINTAIN)
    assert env.observe().tobytes() == from_scratch(env).tobytes()
    assert env.observe().tobytes() == from_scratch(env).tobytes()  # twice in a row
    env.step(Action.MAINTAIN)
    env.begin_episode(2)  # fresh masses and step 0 before the step's view is used
    assert env.observe().tobytes() == from_scratch(env).tobytes()


def test_config_rejects_nonpositive_steps():
    with pytest.raises(ConfigError):
        ExperimentConfig(steps=0)


@pytest.mark.parametrize("ratio", [0.0, 1.0])
@pytest.mark.parametrize("attack", ["nma", "cra", "aaa", "bfi", "tdp"])
def test_single_role_population_runs_to_completion(attack, ratio):
    cfg = ExperimentConfig(agent="rl", attack=attack, episodes=2, steps=20, seed=3,
                           malicious_ratio=ratio, allow_short_tdp=True)
    records, env, *_ = simulate(build_simulation(cfg))
    assert len(records) == 2
    assert int(env.net.malicious_mask.sum()) == (16 if ratio == 1.0 else 0)
    assert all(r.trust_separation == 0.0 for r in records)


# every agent against every attack on the plain gate, and the MARL sleeper run behind the encrypted gate
TWO_NODE_RUNS = [(agent, attack, "plain") for agent in AGENT_KINDS for attack in ATTACKS] + [("marl", "tdp", "encrypted")]


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("agent, attack, gate_mode", TWO_NODE_RUNS)
def test_two_node_population_runs_with_defined_metrics(agent, attack, gate_mode, ratio):
    # the sleepers wake in the second episode, so both phases run
    cfg = ExperimentConfig(agent=agent, attack=attack, episodes=2, steps=20, seed=3, n_nodes=2,
                           malicious_ratio=ratio, gate_mode=gate_mode, allow_short_tdp=True,
                           attack_cfg=AttackConfig(tdp_activation_episode=2))
    records, env, *_ = simulate(build_simulation(cfg))
    assert len(records) == 2
    for r in records:
        assert 0.0 <= r.f1 <= 1.0 and 0.0 <= r.precision <= 1.0 and 0.0 <= r.recall <= 1.0
        assert total(r) == 2
    masses = np.concatenate([env.net.alphas, env.net.betas])
    assert np.isfinite(masses).all() and (masses > 0.0).all()


# The config caps every increment at 1e6 per event, since increments near float64's maximum overflow a
# sum of two; the draws cover that whole range.
increments = st.floats(0.0, 1e6)


@settings(max_examples=40, deadline=None)
@given(
    attack=st.sampled_from(FAMILIES),
    n=st.integers(2, 33),
    ratio=st.floats(0.0, 1.0),
    deltas=st.tuples(*[st.floats(0.0, 1e6, exclude_min=True)] * 3),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    shares=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    magnitudes=st.tuples(*[increments] * 4),
    sybil_k=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_beta_masses_stay_positive_and_finite(attack, n, ratio, deltas, gamma, shares, magnitudes, sybil_k, seed):
    nma_noise, aaa_factor, endorsement, strike = magnitudes
    attack_cfg = AttackConfig(
        nma_p_attack=shares[0], cra_intensity=shares[1], tdp_intensity=shares[2], nma_noise=nma_noise,
        aaa_factor=aaa_factor, bfi_sybil_k=sybil_k, bfi_endorsement_base=endorsement, bfi_strike_magnitude=strike,
        tdp_activation_episode=1,
    )
    trust = TrustUpdateConfig(delta_valid=deltas[0], delta_invalid=deltas[1], delta_malicious=deltas[2],
                              decay_gamma=gamma)
    cfg = ExperimentConfig(agent="rl", attack=attack, episodes=1, steps=20, seed=seed % 1000, n_nodes=n,
                           malicious_ratio=ratio, allow_short_tdp=True, trust=trust, attack_cfg=attack_cfg)
    env, _agent, _episodes, _warning = build_simulation(cfg)
    env.begin_episode(1)
    for action in np.random.default_rng(seed).integers(0, len(Action), size=cfg.steps).tolist():
        env.step(Action(action))
        masses = np.concatenate([env.net.alphas, env.net.betas])
        assert np.isfinite(masses).all() and (masses > 0.0).all(), f"step {env.net.step_index}: {masses}"


def test_repeated_catches_keep_alpha_positive(tmp_path):
    # every node passes the gate and every Invalid vote is caught, so node alphas decay by 1e-200 a catch
    (tmp_path / "all.policy").write_text("trust >= 0\n")
    cfg = ExperimentConfig(agent="rl", attack="nma", seed=1, episodes=1, steps=10,
                           policy_file=str(tmp_path / "all.policy"), trust=TrustUpdateConfig(decay_gamma=1e-200),
                           env=EnvConfig(detect_p=1.0))
    env, _agent, _episodes, _warning = build_simulation(cfg)
    env.begin_episode(1)
    for _ in range(cfg.steps):
        env.step(Action.INCREASE)
        assert (env.net.alphas > 0.0).all(), f"step {env.net.step_index}: {env.net.alphas}"
    assert env.net.alphas.min() == np.finfo(float).tiny
