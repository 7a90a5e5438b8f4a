"""Behaviour lock: SHA-256 digests of every contract file for short seeded runs.

Each cell runs 3 episodes x 100 steps at seed 42, with TDP's sleepers
active from episode 1, and digests ``episodes.csv``, ``summary.csv``,
``confusion.csv`` and ``agent.ckpt``.  A second run of the same cell with
``log_evidence=True`` must write the same four files plus ``evidence.csv``,
and also digests that file's lines after its header (one
``episode,step,source,node,kind`` line per entry) and the final trust masses
(``alphas.tobytes() + betas.tobytes()``).
Generator streams depend on the numpy version, so the digests are checked
only under the version that recorded them.

A digest may be re-recorded only for an intended behaviour change that is
written up in CHANGES.md:  python tests/test_golden.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trustsim import runner
from trustsim.config import ExperimentConfig

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
CONTRACT_FILES = ("episodes.csv", "summary.csv", "confusion.csv", "agent.ckpt")
CELLS = [(agent, attack, "plain") for agent in ("rl", "drl", "marl")
         for attack in ("nma", "cra", "aaa", "bfi", "tdp")] + [("marl", "tdp", "encrypted")]


def cell_id(cell) -> str:
    return "-".join(cell)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(cell, out_dir, log_evidence=False) -> dict:
    """Digests of one cell's contract files; with the log on, also of the log and final masses."""
    agent, attack, gate_mode = cell
    cfg = ExperimentConfig(agent=agent, attack=attack, gate_mode=gate_mode, episodes=3, steps=100,
                           seed=42, allow_short_tdp=True, log_evidence=log_evidence, out=str(out_dir))
    cfg = replace(cfg, attack_cfg=replace(cfg.attack_cfg, tdp_activation_episode=1))

    # run_experiment keeps its environment to itself; catch it on the way out of simulate
    captured = {}
    simulate = runner.simulate

    def capture(*args, **kwargs):
        result = simulate(*args, **kwargs)
        captured["env"] = result[1]
        return result

    runner.simulate = capture
    try:
        runner.run_experiment(cfg)
    finally:
        runner.simulate = simulate

    digests = {name: sha256((Path(out_dir) / name).read_bytes()) for name in CONTRACT_FILES}
    evidence = Path(out_dir) / "evidence.csv"
    assert evidence.exists() == log_evidence
    if log_evidence:
        header, *lines = evidence.read_bytes().splitlines(keepends=True)
        assert header == b"episode,step,source,node,kind\n"
        digests["evidence_log"] = sha256(b"".join(lines))
        env = captured["env"]
        digests["final_masses"] = sha256(env.net.alphas.tobytes() + env.net.betas.tobytes())
    return digests


GOLDEN = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else None


def golden_cell(cell) -> dict:
    if GOLDEN is None:
        pytest.fail(f"{DIGEST_FILE.name} is missing")
    if GOLDEN["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {GOLDEN['numpy']}, running {np.__version__}")
    return GOLDEN["cells"][cell_id(cell)]


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_golden_digests(cell, tmp_path):
    expected = golden_cell(cell)
    assert run_digests(cell, tmp_path) == {name: expected[name] for name in CONTRACT_FILES}


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_golden_evidence_log_and_final_masses(cell, tmp_path):
    # the contract digests were recorded with the log off, so equality here
    # also shows that turning the log on changes none of the contract bytes
    assert run_digests(cell, tmp_path, log_evidence=True) == golden_cell(cell)


if __name__ == "__main__":
    import tempfile

    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        for c in CELLS:
            plain = run_digests(c, Path(tmp) / cell_id(c))
            logged = run_digests(c, Path(tmp) / (cell_id(c) + "-log"), log_evidence=True)
            if any(logged[name] != plain[name] for name in CONTRACT_FILES):
                raise SystemExit(f"{cell_id(c)}: turning the evidence log on changed a contract file")
            cells[cell_id(c)] = logged
    DIGEST_FILE.write_text(json.dumps({"numpy": np.__version__, "cells": cells}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {DIGEST_FILE}")
