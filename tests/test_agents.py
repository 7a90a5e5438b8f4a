import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim.agents import load_agent, save_agent
from trustsim.agents.checkpoint import MAGIC, save_checkpoint
from trustsim.agents.dqn import DqnAgent
from trustsim.agents.marl import MarlPool, majority_vote
from trustsim.agents.nn import (
    Adam,
    AgentHyperparams,
    DuelingNetwork,
    Replay,
    double_q_targets,
    epsilon_greedy,
    glorot_uniform,
    layout_views,
    learn,
    pooled_choice,
    td_loss_and_grads,
)
from trustsim.agents.tabular import QTable, TabularAgent, default_spec, discretize, tabular_update
from trustsim.env import Action

from reference import discretize_key, discretize_value

HP = AgentHyperparams()


# --- discretization -------------------------------------------------------


def test_discretize_value_examples():
    assert discretize_value(0.55, 0.0, 1.0, 10) == 5
    assert discretize_value(1.0, 0.0, 1.0, 10) == 9  # top edge lands in last bin
    assert discretize_value(-0.2, 0.0, 1.0, 10) == 0


def test_discretize_key_shape_and_bins():
    spec = default_spec()
    assert spec.bins.count(10) == 3  # mean_trust, variance, collusion_score
    assert spec.bins.count(5) == 13
    key = discretize(np.full(16, 0.5), spec)
    assert isinstance(key, bytes) and len(key) == 16


def feature_values(low, high, bins):
    """Bin edges, both range edges and their neighbours, values out of range and anything finite."""
    span = high - low
    edges = [low + span * k / bins for k in range(bins + 1)]
    near = [np.nextafter(v, d) for v in (low, high) for d in (-np.inf, np.inf)]
    return st.one_of(
        st.sampled_from(edges + near + [low - span, high + span]),
        st.floats(low - 2 * span, high + 2 * span),
        st.floats(allow_nan=False, allow_infinity=False),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_discretize_matches_per_feature_loop(data):
    spec = default_spec()
    state = np.array(
        [data.draw(feature_values(lo, hi, b)) for lo, hi, b in zip(spec.lows, spec.highs, spec.bins)]
    )
    expected = discretize_key(state, spec)
    with np.errstate(over="ignore"):  # (v - low) / span overflows to inf for the largest floats
        assert discretize(state, spec) == expected


# --- tabular updates --------------------------------------------------------


def test_tabular_update_from_zero():
    q = QTable()
    tabular_update(q, b"s", 0, 10.0, b"t", HP)
    assert q.values(b"s")[0] == pytest.approx(1.0)


def test_tabular_update_with_bootstrap():
    q = QTable()
    q.row(b"t")[1] = 5.0
    tabular_update(q, b"s", 0, 10.0, b"t", HP)
    assert q.values(b"s")[0] == pytest.approx(1.495)


def test_tabular_update_contracts_toward_zero():
    q = QTable()
    q.row(b"s")[2] = 2.0
    tabular_update(q, b"s", 2, 0.0, b"t", HP)
    assert q.values(b"s")[2] == pytest.approx(1.8)


def test_qtable_unseen_reads_zeros():
    q = QTable()
    assert np.array_equal(q.values(b"nope"), np.zeros(3))
    assert len(q) == 0


# --- epsilon greedy ---------------------------------------------------------


def test_epsilon_greedy_pure_exploitation():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(np.array([1.0, 3.0, 2.0]), 0.0, rng) == 1


def test_epsilon_greedy_tie_breaks_to_lowest_index():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(np.array([2.0, 2.0, 1.0]), 0.0, rng) == 0


def test_epsilon_greedy_uniform_monte_carlo():
    rng = np.random.default_rng(42)
    q = np.array([1.0, 2.0, 3.0])
    counts = np.bincount([epsilon_greedy(q, 1.0, rng) for _ in range(10_000)], minlength=3)
    freqs = counts / 10_000
    assert np.all(freqs >= 0.31) and np.all(freqs <= 0.35)


def test_epsilon_greedy_validates_eps():
    with pytest.raises(ValueError):
        epsilon_greedy(np.zeros(3), 1.5, np.random.default_rng(0))


# --- dueling network ---------------------------------------------------------


def tiny_net(seed=0, hidden=(4,)):
    return DuelingNetwork(input_dim=16, hidden_sizes=hidden, head_hidden=2, n_actions=3,
                          rng=np.random.default_rng(seed))


def test_forward_mean_centered_combination():
    net = DuelingNetwork(rng=np.random.default_rng(1))
    # craft exact head outputs by zeroing weights and setting biases
    net.flat[...] = 0.0
    net.vb1[:] = 2.0
    net.ab1[:] = [1.0, 2.0, 3.0]
    q = net.forward(np.zeros(16))
    assert np.allclose(q, [1.0, 2.0, 3.0])


def test_forward_constant_advantage_collapses_to_value():
    net = DuelingNetwork(rng=np.random.default_rng(1))
    net.flat[...] = 0.0
    net.vb1[:] = 7.0
    net.ab1[:] = 4.0
    assert np.allclose(net.forward(np.zeros(16)), 7.0)


def head_value(net, s):
    """Run the value head alone: V(s)."""
    h = s[None, :]
    for w, b in zip(net.trunk_w, net.trunk_b):
        h = np.maximum(h @ w + b, 0.0)
    vh = np.maximum(h @ net.vw0 + net.vb0, 0.0)
    return float((vh @ net.vw1 + net.vb1)[0, 0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dueling_identifiability_centered_advantage(seed):
    rng = np.random.default_rng(seed)
    net = tiny_net(seed)
    s = rng.normal(size=16)
    q = net.forward(s)
    # mean over actions of the advantage contribution (Q - V) must be zero
    v = head_value(net, s)
    assert abs(float(np.mean(q)) - v) < 1e-9


def test_forward_raises_on_nonfinite():
    net = tiny_net()
    net.vb1[:] = np.nan
    with pytest.raises(FloatingPointError):
        net.forward(np.ones(16))


# --- double Q targets --------------------------------------------------------


def test_double_q_worked_example():
    class Stub:
        def __init__(self, row):
            self.row = np.asarray(row)

        def forward(self, x):
            return np.tile(self.row, (len(x), 1))

        def forward_cached(self, x):
            return self.forward(x), None

    online = Stub([0.1, 0.9, 0.5])
    target = Stub([0.2, 0.4, 0.6])
    out, _ = double_q_targets(np.array([1.0]), np.zeros((1, 16)), np.zeros((1, 16)), online, target, 0.99)
    assert out[0] == pytest.approx(1.0 + 0.99 * 0.4)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_double_q_never_exceeds_max_target_bound(seed):
    rng = np.random.default_rng(seed)
    online, target = tiny_net(seed), tiny_net(seed + 1)
    s = rng.normal(size=(4, 16))
    r = rng.normal(size=4)
    targets, _ = double_q_targets(r, s, s, online, target, 0.99)
    bound = r + 0.99 * target.forward(s).max(axis=1)
    assert np.all(targets <= bound + 1e-12)


def test_double_q_coincident_argmax_matches_single_network():
    net = tiny_net(3)
    s = np.random.default_rng(0).normal(size=(1, 16))
    via_double, _ = double_q_targets(np.array([1.0]), s, s, net, net, 0.99)
    single = 1.0 + 0.99 * net.forward(s).max()
    assert via_double[0] == pytest.approx(single)


# --- gradients ----------------------------------------------------------------


def finite_difference_check(net, states, actions, targets, h=1e-5):
    """Max relative error between backprop and central differences.

    The loss is piecewise smooth; the caller must keep pre-activations away
    from the ReLU kinks or the difference quotient measures a subgradient.
    """
    _, grads = td_loss_and_grads(net, net.forward_cached(states), actions, targets, td_clip=np.inf)
    rows = np.arange(len(actions))

    def loss_at():
        q, _ = net.forward_cached(states)
        delta = q[rows, actions] - targets
        return float(np.mean(delta**2))

    worst = 0.0
    for i in range(net.flat.size):
        orig = net.flat[i]
        net.flat[i] = orig + h
        up = loss_at()
        net.flat[i] = orig - h
        down = loss_at()
        net.flat[i] = orig
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(grads[i]), 1e-6)
        worst = max(worst, abs(fd - grads[i]) / denom)
    return worst


def kink_free_fixture(seed=7, batch=5, hidden=(4,)):
    """Tiny net and batch whose pre-activations all sit clear of the kinks."""
    rng = np.random.default_rng(seed)
    net = tiny_net(seed, hidden)
    for p in layout_views(net.flat, net.layout):
        if p.ndim == 1:  # nonzero biases keep dead inputs off the exact kink
            p[...] = rng.normal(0.0, 0.3, size=p.shape)
    states = rng.normal(size=(batch, 16))
    actions = rng.integers(0, 3, size=batch)
    targets = rng.normal(size=batch)

    # verify the fixture really is kink-free before trusting the check
    h = states
    margin = np.inf
    for w, b in zip(net.trunk_w, net.trunk_b):
        pre = h @ w + b
        margin = min(margin, float(np.abs(pre).min()))
        h = np.maximum(pre, 0.0)
    for w0, b0 in ((net.vw0, net.vb0), (net.aw0, net.ab0)):
        pre = h @ w0 + b0
        margin = min(margin, float(np.abs(pre).min()))
    assert margin > 1e-3, "fixture sits on a ReLU kink; pick another seed"
    return net, states, actions, targets


def test_gradient_check_against_central_finite_differences():
    net, states, actions, targets = kink_free_fixture()
    assert finite_difference_check(net, states, actions, targets) < 1e-4


def test_gradient_check_with_equal_width_trunk_layers():
    # each trunk layer keeps its own activations, also when two share a width
    net, states, actions, targets = kink_free_fixture(hidden=(4, 4))
    assert finite_difference_check(net, states, actions, targets) < 1e-4


def test_adam_update_matches_reference():
    rng = np.random.default_rng(0)
    p = rng.normal(size=32)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    opt = Adam(p, lr=lr, beta1=b1, beta2=b2, eps=eps)
    p_ref, m, v = p.copy(), np.zeros(32), np.zeros(32)
    for t in range(1, 6):
        g = rng.normal(size=32)
        opt.step(g)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        p_ref -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert np.array_equal(p, p_ref)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


def test_network_parameters_are_views_into_flat():
    net = tiny_net()
    assert all(np.shares_memory(w, net.flat) for w in net.trunk_w + [net.vw0, net.ab1])
    other = tiny_net(1)
    other.copy_from(net)
    assert np.array_equal(other.flat, net.flat) and not np.shares_memory(other.flat, net.flat)
    s = np.random.default_rng(0).normal(size=16)
    assert np.array_equal(other.forward(s), net.forward(s))


def test_clone_copies_flat_without_gradient_buffer():
    net, states, actions, targets = kink_free_fixture()
    twin = net.clone()
    assert np.array_equal(twin.flat, net.flat) and not np.shares_memory(twin.flat, net.flat)
    assert all(np.shares_memory(w, twin.flat) for w in twin.trunk_w + [twin.vw0, twin.ab1])
    assert twin.grad is None and twin.layout == net.layout
    assert np.array_equal(twin.forward(states), net.forward(states))
    twin.flat += 1.0  # the clone's parameters are its own
    assert not np.array_equal(twin.flat, net.flat)
    # the online network still differentiates correctly after being cloned
    assert finite_difference_check(net, states, actions, targets) < 1e-4


def test_learn_loss_finite_nonnegative():
    hp = AgentHyperparams(batch_size=8)
    rng = np.random.default_rng(3)
    net, tgt = tiny_net(1), tiny_net(2)
    opt = Adam(net.flat, lr=hp.learning_rate)
    replay = Replay(1, 100, 16)
    for _ in range(8):
        replay.push((0,), rng.normal(size=16), int(rng.integers(3)), float(rng.normal()), rng.normal(size=16))
    loss = learn(net, tgt, opt, replay.sample(hp.batch_size, rng), hp)
    assert loss is not None and np.isfinite(loss) and loss >= 0.0


def test_overfit_single_transition():
    hp = AgentHyperparams(batch_size=1, learning_rate=5e-4)
    rng = np.random.default_rng(11)
    net, tgt = tiny_net(5), tiny_net(6)
    tgt.flat[:] = 0.0  # a zero target network bootstraps 0, so the target stays 0.5
    opt = Adam(net.flat, lr=hp.learning_rate)
    replay = Replay(1, 10, 16)
    s = rng.normal(size=16)
    replay.push((0,), s, 1, 0.5, rng.normal(size=16))
    loss = None
    for _ in range(500):
        loss = learn(net, tgt, opt, replay.sample(hp.batch_size, rng), hp)
    assert loss is not None and loss < 1e-3


# --- target sync ----------------------------------------------------------------


def test_sync_target_copies_and_is_idempotent():
    net, tgt = tiny_net(1), tiny_net(2)
    s = np.random.default_rng(0).normal(size=16)
    assert not np.allclose(net.forward(s), tgt.forward(s))
    tgt.copy_from(net)
    assert np.allclose(net.forward(s), tgt.forward(s))
    snapshot = tgt.forward(s).copy()
    tgt.copy_from(net)
    assert np.array_equal(tgt.forward(s), snapshot)


def test_target_unchanged_before_first_sync():
    rng = np.random.default_rng(12)
    hp = AgentHyperparams(batch_size=4, target_sync_every=10_000)
    agent = DqnAgent(hp, rng, episodes_total=10)
    s = rng.normal(size=16)
    before = agent.target.forward(s).copy()
    for _ in range(20):
        agent.observe(rng.normal(size=16), int(rng.integers(3)), float(rng.normal()), rng.normal(size=16))
    assert np.array_equal(agent.target.forward(s), before)


# --- replay buffer ----------------------------------------------------------------


class ReferenceRing:
    """One agent's replay as a list of transitions, overwritten oldest first and sampled without
    replacement by ``rng.choice``: the reference for each ring of a ``Replay``."""

    def __init__(self, capacity: int):
        self.capacity, self.rows, self.cursor = capacity, [], 0

    def __len__(self) -> int:
        return len(self.rows)

    def push(self, state, action, reward, next_state) -> None:
        transition = (np.array(state, dtype=float), action, reward, np.array(next_state, dtype=float))
        if len(self.rows) < self.capacity:
            self.rows.append(transition)
        else:
            self.rows[self.cursor] = transition
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator):
        picks = [self.rows[i] for i in rng.choice(len(self.rows), size=batch, replace=False)]
        states, actions, rewards, next_states = zip(*picks)
        return np.array(states), np.array(actions, dtype=np.int64), np.array(rewards), np.array(next_states)


@st.composite
def quota_rings(draw):
    """1-16 rings of 1-40000 rows, some above the 10000 rows where ``choice`` shuffles ``arange``,
    with quotas from zero up to the ring's size."""
    rings = []
    for _ in range(draw(st.integers(1, 16))):
        size = draw(st.one_of(st.integers(1, 64), st.integers(1, 40_000)))
        quota = draw(st.one_of(st.just(0), st.just(min(size, 2000)), st.integers(0, min(size, 1000))))
        rings.append((size, quota))
    return rings


# pooled_choice replays numpy's Generator.choice; CI runs this test on the oldest and the newest numpy
@settings(max_examples=300, deadline=None)
@given(rings=quota_rings(), seed=st.integers(0, 2**32 - 1), pending=st.booleans())
@example(rings=[(40_000, 40_000), (10_001, 10_001), (1, 1), (3, 3)], seed=1, pending=True)
@example(rings=[(10_001, 201), (10_001, 200), (10_000, 10_000), (20_000, 0)], seed=2, pending=False)
def test_pooled_choice_matches_choice_per_ring(rings, seed, pending):
    pooled, per_ring = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:  # a bounded draw below 2**32 leaves the other half of a 64-bit output in PCG64's buffer
        pooled.integers(0, 10)
        per_ring.integers(0, 10)
    assert pooled.bit_generator.state["has_uint32"] == int(pending)
    expected = np.concatenate([per_ring.choice(n, q, replace=False) for n, q in rings])
    got = pooled_choice(pooled, rings)
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert pooled.bit_generator.state == per_ring.bit_generator.state


def test_replay_uniform_inclusion_frequencies():
    rng = np.random.default_rng(42)
    replay = Replay(1, 100, 2)
    for i in range(100):
        replay.push((0,), np.array([i, 0.0]), 0, 0.0, np.zeros(2))
    counts = np.zeros(100)
    batches = 10_000
    for _ in range(batches):
        idx = replay.sample(64, rng)[0][:, 0].astype(int)
        assert len(set(idx.tolist())) == 64  # without replacement
        counts[idx] += 1
    expected = batches * 64 / 100
    assert np.all(np.abs(counts - expected) / expected < 0.05)


def test_replay_ring_overwrites_oldest():
    replay = Replay(1, 4, 1)
    for i in range(6):
        replay.push((0,), np.array([float(i)]), 0, 0.0, np.zeros(1))
    assert replay.sizes == [4]
    assert set(replay.states[:, 0].tolist()) == {2.0, 3.0, 4.0, 5.0}


def test_replay_columns_are_disjoint_views_of_one_block():
    capacity, dim = 5, 3
    replay = Replay(1, capacity, dim)
    columns = (replay.states, replay.next_states, replay.rewards, replay.actions)
    base = replay.states.base
    assert base is not None and all(c.base is base for c in columns)
    assert base.nbytes == sum(c.nbytes for c in columns)
    assert replay.actions.dtype == np.int64 and not replay.actions.any()
    for i in range(capacity):
        replay.push((0,), np.full(dim, i + 0.25), i + 1, -float(i), np.full(dim, i + 0.5))
    assert np.array_equal(replay.states, np.arange(capacity)[:, None] + np.full((capacity, dim), 0.25))
    assert np.array_equal(replay.next_states, np.arange(capacity)[:, None] + np.full((capacity, dim), 0.5))
    assert replay.actions.tolist() == [1, 2, 3, 4, 5]
    assert replay.rewards.tolist() == [0.0, -1.0, -2.0, -3.0, -4.0]


def test_replay_rejects_oversized_batch():
    # a ring holding fewer rows than its quota yields no batch and draws nothing from the rng
    replay = Replay(1, 10, 1)
    rng = np.random.default_rng(0)
    replay.push((0,), np.zeros(1), 0, 0.0, np.zeros(1))
    assert replay.sample(2, rng) is None
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_train_step_skips_until_buffer_fills():
    hp = AgentHyperparams(batch_size=2)
    net, tgt = tiny_net(1), tiny_net(2)
    opt = Adam(net.flat, lr=hp.learning_rate)
    replay = Replay(1, 10, 16)
    rng = np.random.default_rng(0)
    assert replay.sample(2, rng) is None
    replay.push((0,), np.zeros(16), 0, 0.0, np.zeros(16))
    assert replay.sample(2, rng) is None
    before = net.flat.copy()
    assert learn(net, tgt, opt, replay.sample(hp.batch_size, rng), hp) is None and opt.t == 0
    np.testing.assert_array_equal(net.flat, before)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class EveryCallTabularAgent(TabularAgent):
    """A tabular agent that discretizes on every call: the reference for the key cache."""

    def key(self, state):
        return discretize(state, self.spec)


def drive_tabular(agent, states, seed, steps) -> list:
    """Random episodes over a small pool of states, so states repeat, back to back too.  Half the
    time the caller overwrites an observation in place after handing it over, as a loop reusing one
    buffer would, so a key cached by object would go stale."""
    walk = np.random.default_rng(seed)
    state, actions = states[walk.integers(len(states))].copy(), []
    for _ in range(steps):
        actions.append(agent.act(state))
        next_state = states[walk.integers(len(states))].copy()
        agent.observe(state, actions[-1], float(walk.normal()), next_state)
        if walk.random() < 0.5:
            next_state[:] = states[walk.integers(len(states))]
        state = next_state
        if walk.random() < 0.1:
            agent.end_episode()
    return actions


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pool=st.integers(1, 6), steps=st.integers(1, 60))
def test_tabular_key_cache_matches_discretizing_every_call(seed, pool, steps):
    states = np.random.default_rng(seed).uniform(-0.5, 1.5, size=(pool, 16)) * np.array(default_spec().highs)
    hp = AgentHyperparams(eps_start=0.5)
    cached, every_call = (cls(hp, np.random.default_rng(seed), 50) for cls in (TabularAgent, EveryCallTabularAgent))
    assert drive_tabular(cached, states, seed + 1, steps) == drive_tabular(every_call, states, seed + 1, steps)
    assert cached.q.table.keys() == every_call.q.table.keys()
    for key, row in cached.q.table.items():
        assert row.tobytes() == every_call.q.table[key].tobytes()
    assert cached.rng.bit_generator.state == every_call.rng.bit_generator.state


# --- epsilon schedule ----------------------------------------------------------------


def test_epsilon_schedule_reaches_floor_at_80_percent():
    hp = AgentHyperparams()
    agent = TabularAgent(hp, np.random.default_rng(0), episodes_total=50)
    values = []
    for _ in range(50):
        values.append(agent.eps)
        agent.end_episode()
    assert all(a >= b for a, b in zip(values, values[1:]))  # nonincreasing
    assert values[40] == pytest.approx(0.05, rel=0.01)
    assert agent.eps >= 0.05


# --- MARL pool ----------------------------------------------------------------


def test_majority_vote_examples():
    assert majority_vote([2] * 9 + [0] * 7) == 2
    assert majority_vote([2] * 8 + [0] * 8) == int(Action.MAINTAIN)
    assert majority_vote([0, 0, 1]) == 0


def test_marl_greedy_pool_is_unanimous():
    pool = MarlPool(HP, np.random.default_rng(0), n_agents=16, episodes_total=50)
    pool.eps = 0.0
    s = np.random.default_rng(1).normal(size=16)
    votes = pool.vote(s)
    assert len(set(votes)) == 1
    assert pool.act(s) == votes[0]


def test_marl_shared_parameters_single_store():
    pool = MarlPool(HP, np.random.default_rng(0), n_agents=16)
    s = np.random.default_rng(2).normal(size=16)
    q_before = pool.online.forward(s).copy()
    rng = np.random.default_rng(3)
    for _ in range(80):
        state = rng.normal(size=16)
        a = pool.act(state)
        pool.observe(state, a, float(rng.normal()), rng.normal(size=16))
    assert not np.allclose(pool.online.forward(s), q_before)  # training moved the one store
    # every agent sees identical Q-values because there is only one store
    assert np.array_equal(pool.qvalues(s), pool.acting.forward(s))


def test_marl_acting_policy_refreshes_on_schedule():
    hp = AgentHyperparams(marl_sync_every=10)
    pool = MarlPool(hp, np.random.default_rng(0), n_agents=4)
    rng = np.random.default_rng(1)
    s_probe = rng.normal(size=16)
    stale = pool.acting.forward(s_probe).copy()
    for step in range(1, 10):
        state = rng.normal(size=16)
        pool.observe(state, pool.act(state), 1.0, rng.normal(size=16))
        assert np.array_equal(pool.acting.forward(s_probe), stale), f"refreshed early at {step}"
    state = rng.normal(size=16)
    pool.observe(state, pool.act(state), 1.0, rng.normal(size=16))  # step 10
    assert np.array_equal(pool.acting.forward(s_probe), pool.online.forward(s_probe))


def test_marl_pooled_batch_quota():
    hp = AgentHyperparams(batch_size=64)
    pool = MarlPool(hp, np.random.default_rng(0), n_agents=16)
    rng = np.random.default_rng(1)
    for agent in range(16):
        for _ in range(4):
            pool.replay.push([agent], rng.normal(size=16), 0, 0.0, rng.normal(size=16))
    batch = pool.pooled_batch()
    assert batch is not None
    assert len(batch[0]) == 64  # 4 from each of 16 buffers


def test_marl_noop_until_buffers_fill():
    pool = MarlPool(HP, np.random.default_rng(0), n_agents=16)
    assert pool.pooled_batch() is None
    assert pool.train_once() is None


def reference_pooled_batch(buffers, batch_size, rng):
    """The per-agent loop the replay block replaced: equal draws from each
    nonempty buffer, topped up round-robin, concatenated column by column."""
    nonempty = [b for b in buffers if len(b) > 0]
    if not nonempty:
        return None
    m = len(nonempty)
    quotas = [batch_size // m] * m
    for i in range(batch_size % m):
        quotas[i] += 1
    if any(q > len(b) for q, b in zip(quotas, nonempty)):
        return None
    parts = [b.sample(q, rng) for b, q in zip(nonempty, quotas) if q > 0]
    return tuple(np.concatenate(column) for column in zip(*parts))


@pytest.mark.parametrize("n_agents, batch_size", [(1, 8), (3, 8), (5, 12), (16, 70), (16, 5)])
def test_marl_replay_block_matches_per_agent_buffers(n_agents, batch_size):
    hp = AgentHyperparams(batch_size=batch_size, buffer_capacity=max(batch_size, 10))
    pool = MarlPool(hp, np.random.default_rng(0), n_agents=n_agents)
    pool.train_once = lambda: None  # compare the batches alone
    buffers = [ReferenceRing(hp.buffer_capacity) for _ in range(n_agents)]
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = pool.train_rng.bit_generator.state
    rng = np.random.default_rng(n_agents)
    for step in range(3 * hp.buffer_capacity):  # every ring wraps
        state, next_state = rng.normal(size=16), rng.normal(size=16)
        action, reward = int(rng.integers(3)), float(rng.normal())
        # mostly a few agents per step, so buffers fill unevenly; now and then no vote (all record)
        votes = None if step % 7 == 3 else rng.integers(3, size=n_agents).tolist()
        pool._last_votes = votes
        pool.observe(state, action, reward, next_state)
        for i, buf in enumerate(buffers):
            if votes is None or votes[i] == action:
                buf.push(state, action, reward * hp.reward_scale, next_state)
        assert pool.replay.sizes == [len(b) for b in buffers]
        batch, expected = pool.pooled_batch(), reference_pooled_batch(buffers, batch_size, ref_rng)
        assert (batch is None) == (expected is None)
        for got, want in zip(batch or (), expected or ()):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert pool.train_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_marl_vote_matches_per_voter_epsilon_greedy(eps):
    pool = MarlPool(HP, np.random.default_rng(0), n_agents=16)
    reference = MarlPool(HP, np.random.default_rng(0), n_agents=16)
    pool.eps = eps
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.normal(size=16)
        qvalues = reference.acting.forward(s)
        assert pool.vote(s) == [epsilon_greedy(qvalues, eps, r) for r in reference.agent_rngs]
        for mine, theirs in zip(pool.agent_rngs, reference.agent_rngs):
            assert mine.bit_generator.state == theirs.bit_generator.state
    pool.eps = 1.5
    with pytest.raises(ValueError):
        pool.vote(s)


def unstacked_update(net, target, optimizer, batch, hp):
    """One update as separate passes: the online net over the next states, then over the states."""
    states, actions, rewards, next_states = batch
    a_star = np.argmax(net.forward(next_states), axis=1)
    targets = rewards + hp.discount * target.forward(next_states)[np.arange(len(a_star)), a_star]
    q, cache = net.forward_cached(states)
    rows = np.arange(len(actions))
    delta = q[rows, actions] - targets
    clipped = np.clip(delta, -hp.td_clip, hp.td_clip)
    inside = (np.abs(delta) <= hp.td_clip).astype(float)
    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * clipped * inside / len(actions)
    optimizer.step(net.backward(cache, dq))


def test_stacked_dqn_updates_match_unstacked_sequence():
    hp = AgentHyperparams(batch_size=64, target_sync_every=10)
    agent, reference = DqnAgent(hp, np.random.default_rng(5), 50), DqnAgent(hp, np.random.default_rng(5), 50)
    ring = ReferenceRing(hp.buffer_capacity)
    rng = np.random.default_rng(6)
    for step in range(hp.batch_size + 29):  # 30 updates
        transition = (rng.normal(size=16), int(rng.integers(3)), float(rng.normal()), rng.normal(size=16))
        agent.observe(*transition)
        s, a, r, s_next = transition
        ring.push(s, a, r * hp.reward_scale, s_next)
        if len(ring) >= hp.batch_size:
            batch = ring.sample(hp.batch_size, reference.rng)
            unstacked_update(reference.online, reference.target, reference.optimizer, batch, hp)
        if (step + 1) % hp.target_sync_every == 0:
            reference.target.copy_from(reference.online)
        assert agent.online.flat.tobytes() == reference.online.flat.tobytes()
        assert agent.rng.bit_generator.state == reference.rng.bit_generator.state
    assert agent.optimizer.t == 30


def test_stacked_marl_updates_match_unstacked_sequence():
    pool, reference = MarlPool(HP, np.random.default_rng(5), n_agents=16), MarlPool(HP, np.random.default_rng(5), n_agents=16)

    def reference_train_once():
        batch = reference.pooled_batch()
        if batch is not None:
            unstacked_update(reference.online, reference.target, reference.optimizer, batch, HP)

    reference.train_once = reference_train_once
    rng = np.random.default_rng(6)
    while pool.optimizer.t < 30:
        s, r, s_next = rng.normal(size=16), float(rng.normal()), rng.normal(size=16)
        pool.observe(s, pool.act(s), r, s_next)
        reference.observe(s, reference.act(s), r, s_next)
        assert pool.online.flat.tobytes() == reference.online.flat.tobytes()
    assert reference.optimizer.t == 30


def test_forward_returns_a_fresh_q_array():
    net = DuelingNetwork(rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    batch, row = rng.normal(size=(64, 16)), rng.normal(size=16)
    q_batch, q_row = net.forward(batch), net.forward(row)
    kept_batch, kept_row = q_batch.copy(), q_row.copy()
    q_cached, _ = net.forward_cached(rng.normal(size=(64, 16)))
    net.forward(rng.normal(size=16))
    assert np.array_equal(q_batch, kept_batch) and np.array_equal(q_row, kept_row)
    assert not np.shares_memory(q_batch, q_cached)


# --- checkpoints ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["rl", "drl", "marl"])
def test_checkpoint_round_trip_bit_identical(tmp_path, kind):
    rng = np.random.default_rng(9)
    if kind == "rl":
        agent = TabularAgent(HP, rng, 50)
        for _ in range(50):
            s = rng.uniform(0, 1, 16)
            agent.observe(s, int(rng.integers(3)), float(rng.normal()), rng.uniform(0, 1, 16))
    elif kind == "drl":
        agent = DqnAgent(HP, rng, 50)
    else:
        agent = MarlPool(HP, rng, n_agents=16, episodes_total=50)

    path = tmp_path / f"{kind}.ckpt"
    save_agent(agent, path, seed=9)
    twin = load_agent(path)

    probes = np.random.default_rng(10).uniform(0, 1, size=(100, 16))
    for p in probes:
        assert np.array_equal(np.asarray(agent.qvalues(p)), np.asarray(twin.qvalues(p)))


def test_checkpoint_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_agent(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "drl.ckpt"
    save_agent(DqnAgent(HP, np.random.default_rng(9), 50), path, seed=9)
    load_agent(path)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ValueError, match="trailing"):
        load_agent(path)
    path.write_bytes(path.read_bytes()[: -len("garbage") - 8])
    with pytest.raises(ValueError, match="truncated"):
        load_agent(path)


def split_checkpoint(path):
    """``(header, body)`` of a checkpoint file, the header parsed."""
    data = path.read_bytes()
    assert data.startswith(MAGIC)
    line, body = data[len(MAGIC) :].split(b"\n", 1)
    return json.loads(line), body


def write_checkpoint(path, header_line: bytes, body: bytes) -> None:
    path.write_bytes(MAGIC + header_line + b"\n" + body)


@pytest.mark.parametrize("kind", ["rl", "drl", "marl"])
def test_checkpoint_damaged_header_rejected(tmp_path, kind):
    rng = np.random.default_rng(9)
    if kind == "marl":
        agent = MarlPool(HP, rng, n_agents=4)
    else:
        agent = {"rl": TabularAgent, "drl": DqnAgent}[kind](HP, rng, 50)
    if kind == "rl":  # rows in the Q table, so its state keys can be damaged
        for _ in range(20):
            agent.observe(rng.uniform(0, 1, 16), int(rng.integers(3)), float(rng.normal()), rng.uniform(0, 1, 16))
    path = tmp_path / f"{kind}.ckpt"
    save_agent(agent, path, seed=9)
    header, body = split_checkpoint(path)

    def refused(header_line: bytes, match: str, body: bytes = body) -> None:
        write_checkpoint(path, header_line, body)
        with pytest.raises(ValueError, match=match):
            load_agent(path)

    def encode(obj) -> bytes:
        return json.dumps(obj).encode("utf-8")

    refused(b"\xff\xfe{}", "not UTF-8 JSON")
    refused(b'{"kind": ', "not UTF-8 JSON")
    refused(b"[1, 2]", "not a JSON object")
    for key in ("kind", "topology", "hyperparams", "seed", "eps", "arrays"):
        refused(encode({k: v for k, v in header.items() if k != key}), f"lacks {key}")
    refused(encode({**header, "kind": ["dqn"]}), "unknown checkpoint kind")
    hyperparams = header["hyperparams"]
    refused(encode({**header, "hyperparams": {**hyperparams, "momentum": 0.9}}), "unknown hyperparameters momentum")
    refused(encode({**header, "hyperparams": {**hyperparams, "learning_rate": "fast"}}), "unusable hyperparameters")
    refused(encode({**header, "hyperparams": [1]}), "hyperparams are not a JSON object")
    refused(encode({**header, "arrays": [{"name": "x", "shape": ["2"]}]}), "arrays are not a list of names and shapes")
    read = {"rl": "bins", "drl": "input_dim", "marl": "n_agents"}[kind]
    topology = {k: v for k, v in header["topology"].items() if k != read}
    refused(encode({**header, "topology": topology}), "unusable .* topology")
    for value in ("16", 0, None, [1]):
        refused(encode({**header, "topology": {**header["topology"], read: value}}), "unusable .* topology")
    for eps in ("0.5", 1.5, -0.1, None):
        refused(encode({**header, "eps": eps}), "eps .* is not a number in")
    if kind == "rl":
        # a 4-feature grid, and 4-wide state keys whose body fills their directory
        grid = {key: value[:4] for key, value in header["topology"].items()}
        refused(encode({**header, "topology": grid}), "unusable tabular topology")
        rows = header["arrays"][0]["shape"][0]
        keys, values = np.split(np.frombuffer(body, dtype="<f8"), [16 * rows])
        narrow = keys.reshape(rows, 16)[:, :4].tobytes() + values.tobytes()
        arrays = [{"name": "state_keys", "shape": [rows, 4]}, header["arrays"][1]]
        refused(encode({**header, "arrays": arrays}), "array directory does not match", narrow)
        # a key past its feature's bins, a fractional key, and a repeated key
        coarse = header["topology"]["bins"].index(5)
        for key in (7.0, 2.5):
            damaged = keys.reshape(rows, 16).copy()
            damaged[0, coarse] = key
            refused(encode(header), "outside its feature's bins", damaged.tobytes() + values.tobytes())
        damaged = keys.reshape(rows, 16).copy()
        damaged[1] = damaged[0]
        refused(encode(header), "repeated", damaged.tobytes() + values.tobytes())
    else:
        # a network topology that contradicts the hyperparameters that build the agent
        refused(encode({**header, "topology": {**header["topology"], "hidden_sizes": [64]}}), "unusable .* topology")
        refused(encode({**header, "topology": {**header["topology"], "head_hidden": 16}}), "unusable .* topology")
        refused(encode({**header, "hyperparams": {**hyperparams, "hidden_sizes": [64]}}), "unusable .* topology")
    write_checkpoint(path, encode(header), body)
    load_agent(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_body_rejected(tmp_path, value):
    path = tmp_path / "drl.ckpt"
    save_agent(DqnAgent(HP, np.random.default_rng(9), 50), path, seed=9)
    header, body = split_checkpoint(path)
    values = np.frombuffer(body, dtype="<f8").copy()
    values[len(values) // 2] = value
    write_checkpoint(path, json.dumps(header, sort_keys=True).encode("utf-8"), values.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        load_agent(path)


def test_checkpoint_written_atomically(tmp_path):
    path = tmp_path / "drl.ckpt"
    save_agent(DqnAgent(HP, np.random.default_rng(9), 50), path, seed=9)
    original = path.read_bytes()

    class Unwritable:
        def __array__(self, *args, **kwargs):
            raise OSError("disk full")

    # a write that dies after the header leaves the old file whole and no temp file behind
    with pytest.raises(OSError):
        save_checkpoint(path, "dqn", {}, {}, 9, [("x", (2,))], [Unwritable()], 0.5)
    assert path.read_bytes() == original
    assert [p.name for p in tmp_path.iterdir()] == ["drl.ckpt"]


# --- init ----------------------------------------------------------------


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(16, 128, rng)
    limit = np.sqrt(6.0 / (16 + 128))
    assert np.all(np.abs(w) <= limit)


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        AgentHyperparams(discount=0.0)
    with pytest.raises(ValueError):
        AgentHyperparams(eps_min=2.0)
    with pytest.raises(ValueError):
        AgentHyperparams(batch_size=20_000)
