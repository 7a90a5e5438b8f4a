"""Shared fixtures: the full agent-attack evaluation matrix, run once per session."""

import os

import pytest

from trustsim.config import ExperimentConfig
from trustsim.runner import build_simulation, simulate, spawn_pool

ATTACKS = ("nma", "cra", "aaa", "bfi", "tdp")
AGENTS = ("rl", "drl", "marl")
SEEDS = (42, 43, 44)


def run_combo(job):
    attack, agent, seed = job
    cfg = ExperimentConfig(agent=agent, attack=attack, seed=seed)
    records, _env, _agent, _warning = simulate(build_simulation(cfg))
    return job, [(r.f1, r.cumulative_reward) for r in records]


@pytest.fixture(scope="session")
def evaluation_matrix():
    """(attack, agent, seed) -> per-episode [(f1, cumulative_reward), ...].

    Standard attacks run 50 episodes; TDP runs 100 to cover activation.
    Every run is independently seeded, so the matrix parallelizes cleanly
    over spawned workers with BLAS on one thread each (``spawn_pool``).
    """
    jobs = [(attack, agent, seed) for attack in ATTACKS for agent in AGENTS for seed in SEEDS]
    workers = min(int(os.environ.get("TRUSTSIM_TEST_WORKERS", "2")), len(jobs))
    results = {}
    if workers > 1:
        with spawn_pool(workers) as pool:
            for job, series in pool.map(run_combo, jobs):
                results[job] = series
    else:
        for job in jobs:
            key, series = run_combo(job)
            results[key] = series
    return results
