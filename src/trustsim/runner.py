"""Experiment orchestration: single runs, the agent-attack matrix, artifacts."""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import statistics
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .abac import AbacError, PolicyGate, load_policy
from .agents import make_agent, save_agent
from .charts import emit_charts
from .config import MATRIX_SEEDS, ConfigError, ExperimentConfig, manifest_lines
from .env import Environment, run_episode


def write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def make_out_dir(path) -> Path:
    """The output directory at ``path``, made if missing; a ConfigError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError when a file has the name
        raise ConfigError(f"cannot make output directory {out}: {exc}") from None
    return out


def make_gate(cfg: ExperimentConfig) -> PolicyGate:
    """The access gate ``cfg`` names.  A policy file that cannot be read or decoded, that does not
    parse, or that names an attribute the nodes lack, is a ConfigError."""
    try:
        return PolicyGate(policy=load_policy(cfg.policy_file) if cfg.policy_file else None, mode=cfg.gate_mode)
    except (OSError, UnicodeDecodeError, AbacError) as exc:
        raise ConfigError(f"policy_file: {exc}") from None


def build_simulation(cfg: ExperimentConfig):
    """The seeded environment and agent ``cfg`` describes, with the resolved episode count and its warning."""
    episodes, warning = cfg.resolve_episodes()
    seq = np.random.SeedSequence(cfg.seed)
    rng_init, rng_reset, rng_consensus, rng_attack, rng_agent = (
        np.random.default_rng(child) for child in seq.spawn(5)
    )
    env = Environment(cfg, make_gate(cfg), rng_init, rng_reset, rng_consensus, rng_attack)
    agent = make_agent(cfg.agent, cfg.hyper, rng_agent, episodes_total=episodes, n_nodes=cfg.n_nodes)
    return env, agent, episodes, warning


def simulate(sim):
    """Run every episode of a ``build_simulation`` result in memory; returns (records, env, agent, warning)."""
    env, agent, episodes, warning = sim
    records = [run_episode(env, agent, episode_index=ep) for ep in range(1, episodes + 1)]
    return records, env, agent, warning


def run_experiment(cfg: ExperimentConfig, quiet: bool = True):
    """Execute one configured run and write all artifacts to cfg.out."""
    sim = build_simulation(cfg)  # a bad policy stops the run before its directory is made or the run announced
    out = make_out_dir(cfg.out)
    _env, _agent, episodes, warning = sim
    if not quiet:
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"run: agent={cfg.agent} attack={cfg.attack} episodes={episodes} seed={cfg.seed} -> {cfg.out}")

    records, env, agent, _ = simulate(sim)

    write_csv(out / "episodes.csv", metrics.CSV_COLUMNS, [astuple(r) for r in records])

    tail = min(10, episodes)
    summary = metrics.aggregate_tail(records, tail)
    write_csv(
        out / "summary.csv",
        ("metric", "tail_mean", "tail_sd"),
        [(name, mean, sd) for name, (mean, sd) in summary.items()],
    )

    final = records[-1]
    write_csv(out / "confusion.csv", ("tp", "fp", "fn", "tn"), [(final.tp, final.fp, final.fn, final.tn)])
    if cfg.log_evidence:
        write_csv(out / "evidence.csv", ("episode", "step", "source", "node", "kind"), env.evidence_log)

    save_agent(agent, out / "agent.ckpt", seed=cfg.seed)
    emit_charts(records, out)

    with open(out / "manifest.txt", "w", encoding="utf-8") as fh:
        for line in manifest_lines(cfg, episodes, __version__):
            fh.write(line + "\n")
    return records


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def spawn_pool(workers: int):
    """A process pool whose workers each run BLAS on one thread.

    The workers are the parallelism: BLAS threads on top of them
    oversubscribe the cores and spin, which makes a matrix several times
    slower.  BLAS reads its thread count when numpy is imported, so the
    workers are spawned, not forked, with the variables set to 1 while the
    pool lives; the parent's environment is restored afterwards.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _matrix_cell(cfg: ExperimentConfig):
    records = run_experiment(cfg)
    return cfg.agent, cfg.attack, cfg.seed, metrics.aggregate_tail(records, min(10, len(records)))["f1"][0]


def run_matrix(
    base_cfg: ExperimentConfig,
    agents,
    attacks,
    seeds=MATRIX_SEEDS,
    workers: int = 1,
    quiet: bool = True,
):
    """Every agent x attack x seed combination; cells are cross-seed medians."""
    agents = list(agents)
    attacks = list(attacks)
    seeds = list(seeds)
    if not agents or not attacks or not seeds:
        raise ConfigError("matrix needs nonempty agent, attack, and seed lists")
    for what, items in (("agent", agents), ("attack", attacks), ("seed", seeds)):
        if len(set(items)) < len(items):
            raise ConfigError(f"matrix {what} list repeats an entry: {items}")
    if workers < 1:
        raise ConfigError(f"matrix workers must be >= 1, got {workers}")
    make_gate(base_cfg)  # every cell shares the policy; a bad one stops the matrix here
    out = Path(base_cfg.out)
    jobs = [  # ExperimentConfig checks each seed here, before the directory is made
        replace(base_cfg, agent=agent, attack=attack, seed=seed, out=str(out / f"{agent}_{attack}_seed{seed}"))
        for attack in attacks
        for agent in agents
        for seed in seeds
    ]

    make_out_dir(out)
    if not quiet:
        print(f"matrix: {len(agents)} agents x {len(attacks)} attacks x {len(seeds)} seeds -> {base_cfg.out}")

    results: dict[tuple, list] = {(attack, agent): [] for attack in attacks for agent in agents}
    failures = []

    def record(agent, attack, seed, f1_value):
        results[(attack, agent)].append(f1_value)
        if not quiet:
            print(f"  {agent} vs {attack} seed {seed}: tail-10 mean F1 = {f1_value:.3f}")

    with spawn_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        futures = [pool.submit(_matrix_cell, job) if pool else None for job in jobs]
        for job, fut in zip(jobs, futures):
            try:
                record(*(fut.result() if fut else _matrix_cell(job)))
            except Exception:
                failures.append((job.agent, job.attack, job.seed, traceback.format_exc()))

    for agent, attack, seed, tb in failures:
        print(f"run failed: {agent} vs {attack} seed {seed}\n{tb}", file=sys.stderr)

    rows = []
    for attack in attacks:
        row = [attack]
        for agent in agents:
            values = results[(attack, agent)]
            row.append(statistics.median(values) if values else "missing")
        rows.append(row)
    write_csv(out / "matrix_f1.csv", ["attack"] + agents, rows)
    return results, failures
