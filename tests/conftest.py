"""Shared fixtures: the full agent-attack evaluation matrix, run once per session."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from trustsim.config import ExperimentConfig
from trustsim.runner import simulate

ATTACKS = ("nma", "cra", "aaa", "bfi", "tdp")
AGENTS = ("rl", "drl", "marl")
SEEDS = (42, 43, 44)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_combo(job):
    attack, agent, seed = job
    cfg = ExperimentConfig(agent=agent, attack=attack, seed=seed)
    records, _env, _agent, _warning = simulate(cfg)
    return job, [(r.f1, r.cumulative_reward) for r in records]


@pytest.fixture(scope="session")
def evaluation_matrix():
    """(attack, agent, seed) -> per-episode [(f1, cumulative_reward), ...].

    Standard attacks run 50 episodes; TDP runs 100 to cover activation.
    Every run is independently seeded, so the matrix parallelizes cleanly.
    The workers are the parallelism, so each runs BLAS on one thread: BLAS
    threads on top of the workers oversubscribe the cores and spin, which
    makes the matrix several times slower. The thread count is read when
    numpy is imported, so the workers are spawned, not forked.
    """
    jobs = [(attack, agent, seed) for attack in ATTACKS for agent in AGENTS for seed in SEEDS]
    workers = min(int(os.environ.get("TRUSTSIM_TEST_WORKERS", "2")), len(jobs))
    results = {}
    if workers > 1:
        with pytest.MonkeyPatch.context() as patch:
            for var in BLAS_THREAD_VARS:
                patch.setenv(var, "1")
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
                for job, series in pool.map(run_combo, jobs):
                    results[job] = series
    else:
        for job in jobs:
            key, series = run_combo(job)
            results[key] = series
    return results
