"""Behaviour lock: SHA-256 digests of every contract file for short seeded runs.

Each cell runs 3 episodes x 100 steps at seed 42, with TDP's sleepers
active from episode 1, and digests ``episodes.csv``, ``summary.csv``,
``confusion.csv`` and ``agent.ckpt``.  Generator streams depend on the
numpy version, so the digests are checked only under the version that
recorded them.

A digest may be re-recorded only for an intended behaviour change that is
written up in CHANGES.md:  python tests/test_golden.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trustsim.config import ExperimentConfig
from trustsim.runner import run_experiment

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
CONTRACT_FILES = ("episodes.csv", "summary.csv", "confusion.csv", "agent.ckpt")
CELLS = [(agent, attack, "plain") for agent in ("rl", "drl", "marl")
         for attack in ("nma", "cra", "aaa", "bfi", "tdp")] + [("marl", "tdp", "encrypted")]


def cell_id(cell) -> str:
    return "-".join(cell)


def run_digests(cell, out_dir) -> dict:
    agent, attack, gate_mode = cell
    cfg = ExperimentConfig(agent=agent, attack=attack, gate_mode=gate_mode, episodes=3, steps=100,
                           seed=42, allow_short_tdp=True, out=str(out_dir))
    cfg = replace(cfg, attack_cfg=replace(cfg.attack_cfg, tdp_activation_episode=1))
    run_experiment(cfg)
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
            for name in CONTRACT_FILES}


GOLDEN = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else None


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_golden_digests(cell, tmp_path):
    if GOLDEN is None:
        pytest.fail(f"{DIGEST_FILE.name} is missing")
    if GOLDEN["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {GOLDEN['numpy']}, running {np.__version__}")
    assert run_digests(cell, tmp_path) == GOLDEN["cells"][cell_id(cell)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cells = {cell_id(c): run_digests(c, Path(tmp) / cell_id(c)) for c in CELLS}
    DIGEST_FILE.write_text(json.dumps({"numpy": np.__version__, "cells": cells}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {DIGEST_FILE}")
