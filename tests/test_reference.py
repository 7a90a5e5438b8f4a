"""Differential test: ``Environment.step`` against the node-by-node reference.

Both sides run one seeded action sequence from the same start.  After
every step the observation, the reward, the evidence log and the Beta
masses must agree bit for bit.  The grid covers population sizes from 2 to
33, malicious shares from none through one node to all, every attack
family and no attack, and both gate modes.  Each cell runs two episodes of
30 steps, and the sleepers wake in the second, so both TDP phases run.
The three seeds rotate over the cells (cell index mod 3), so every value
of every axis meets all three.
"""

import itertools

import numpy as np
import pytest

from trustsim.attacks import FAMILIES, AttackConfig
from trustsim.config import ExperimentConfig
from trustsim.env import FEATURE_NAMES, Action
from trustsim.runner import build_simulation

from reference import begin_episode, reference_from, reference_observation, reference_step

SIZES = (2, 3, 5, 16, 33)
RATIOS = (0.0, "one", 0.3, 0.5, 1.0)  # "one": exactly one malicious node
GATE_MODES = ("plain", "encrypted")
SEEDS = (42, 43, 44)
EPISODES, STEPS = 2, 30

# the no-attack cells come after the attacked ones, so those keep their ids and seeds
CELLS = [
    (n, ratio, family, gate_mode, SEEDS[i % len(SEEDS)])
    for i, (n, ratio, family, gate_mode) in enumerate(
        itertools.chain(
            itertools.product(SIZES, RATIOS, FAMILIES, GATE_MODES),
            itertools.product(SIZES, RATIOS, ("none",), GATE_MODES),
        )
    )
]


def first_mismatch(env, ref, observation, expected_observation) -> str | None:
    """The first field on which the two sides differ, or None."""
    got, want = np.asarray(observation), np.array(expected_observation)
    if got.tobytes() != want.tobytes():
        i = int(np.flatnonzero(got.view(np.int64) != want.view(np.int64))[0])
        return f"observation {FEATURE_NAMES[i]}: {got[i]!r} != {want[i]!r}"
    log = env.evidence_log
    if log != ref.log:
        i = next((j for j, (a, b) in enumerate(zip(log, ref.log)) if a != b), min(len(log), len(ref.log)))
        return f"evidence log entry {i}: {log[i:i + 1]} != {ref.log[i:i + 1]}"
    for name in ("alphas", "betas"):
        got, want = getattr(env.net, name), np.array(getattr(ref, name))
        if got.tobytes() != want.tobytes():
            i = int(np.flatnonzero(got.view(np.int64) != want.view(np.int64))[0])
            return f"{name}[{i}]: {got[i]!r} != {want[i]!r}"
    return None


@pytest.mark.parametrize(
    "n, ratio, family, gate_mode, seed", CELLS, ids=[f"n{c[0]}-{c[1]}-{c[2]}-{c[3]}-s{c[4]}" for c in CELLS]
)
def test_step_matches_reference(n, ratio, family, gate_mode, seed):
    cfg = ExperimentConfig(
        agent="rl",
        attack=family,
        episodes=EPISODES,
        steps=STEPS,
        seed=seed,
        n_nodes=n,
        malicious_ratio=1 / n if ratio == "one" else ratio,
        gate_mode=gate_mode,
        log_evidence=True,
        allow_short_tdp=True,
        attack_cfg=AttackConfig(tdp_activation_episode=2),
    )
    env, _agent, episodes, _warning = build_simulation(cfg)
    ref = reference_from(env)
    actions = np.random.default_rng(seed).integers(0, len(Action), size=(episodes, STEPS)).tolist()
    for episode in range(1, episodes + 1):
        env.begin_episode(episode)
        begin_episode(ref, env.net, episode)
        mismatch = first_mismatch(env, ref, env.observe(), reference_observation(ref))
        assert mismatch is None, f"episode {episode} before step 0: {mismatch}"
        for step, action in enumerate(actions[episode - 1]):
            reward, expected = env.step(Action(action)), reference_step(ref, action)
            mismatch = first_mismatch(env, ref, env.observe(), reference_observation(ref))
            if mismatch is None and float(reward).hex() != float(expected).hex():
                mismatch = f"reward: {reward!r} != {expected!r}"
            assert mismatch is None, f"episode {episode} step {step}: {mismatch}"
