"""Portable flat checkpoint files.

Layout: a magic line, one JSON header line (topology, hyperparameters,
seed, exploration state, array directory), then the raw parameter arrays
in the declared order as little-endian 64-bit floats in C order, and
nothing after the last array.  The byte stream is identical across
platforms.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dqn import DqnAgent
from .marl import MarlPool
from .nn import AgentHyperparams, layout_views
from .tabular import DiscretizationSpec, QTable, TabularAgent

MAGIC = b"TRUSTSIM-CKPT-1\n"
_DTYPE = "<f8"


def save_checkpoint(path, kind: str, topology: dict, hyperparams: dict, seed, directory, bodies, extra=None) -> None:
    """Write atomically: ``directory`` names each array's (name, shape) and
    ``bodies`` holds arrays whose values, back to back, fill that directory."""
    header = {
        "kind": kind,
        "topology": topology,
        "hyperparams": hyperparams,
        "seed": seed,
        "arrays": [{"name": name, "shape": list(shape)} for name, shape in directory],
    }
    if extra:
        header.update(extra)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for body in bodies:
                fh.write(np.ascontiguousarray(body, dtype=_DTYPE))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Return the header and the whole array body as one float64 vector."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path} is not a trustsim checkpoint")
        header = json.loads(fh.readline().decode("utf-8"))
        data = fh.read()
    expected = 8 * sum(int(np.prod(entry["shape"])) for entry in header["arrays"])
    if len(data) < expected:
        raise ValueError(f"truncated checkpoint {path}: {len(data)} of {expected} body bytes")
    if len(data) > expected:
        raise ValueError(f"{len(data) - expected} trailing bytes after the last array in {path}")
    return header, np.frombuffer(data, dtype=_DTYPE).astype(np.float64)


def _hp_dict(hp: AgentHyperparams) -> dict:
    d = asdict(hp)
    d["hidden_sizes"] = list(hp.hidden_sizes)
    return d


def _hp_from_dict(d: dict) -> AgentHyperparams:
    d = dict(d)
    d["hidden_sizes"] = tuple(d["hidden_sizes"])
    return AgentHyperparams(**d)


def _net_directory(net) -> list:
    """Checkpoint directory of an online/target network pair."""
    return [(f"{role}.{name}", shape) for role in ("online", "target") for name, shape in net.layout]


def save_agent(agent, path, seed=None) -> None:
    if isinstance(agent, TabularAgent):
        keys = sorted(agent.q.table)
        key_arr = np.array([list(k) for k in keys], dtype=np.float64).reshape(len(keys), -1)
        val_arr = (
            np.stack([agent.q.table[k] for k in keys])
            if keys
            else np.zeros((0, agent.q.n_actions))
        )
        save_checkpoint(
            path,
            "tabular",
            {
                "bins": list(agent.spec.bins),
                "lows": list(agent.spec.lows),
                "highs": list(agent.spec.highs),
            },
            _hp_dict(agent.hp),
            seed,
            [("state_keys", key_arr.shape), ("qvalues", val_arr.shape)],
            [key_arr, val_arr],
            extra={"eps": agent.eps},
        )
        return

    if isinstance(agent, (DqnAgent, MarlPool)):
        kind = "marl" if isinstance(agent, MarlPool) else "dqn"
        topology = agent.online.topology()
        if kind == "marl":
            topology["n_agents"] = agent.n_agents
        directory = _net_directory(agent.online)
        bodies = [agent.online.flat, agent.target.flat]
        save_checkpoint(path, kind, topology, _hp_dict(agent.hp), seed, directory, bodies, extra={"eps": agent.eps})
        return

    raise TypeError(f"cannot checkpoint agent of type {type(agent).__name__}")


def load_agent(path, rng: np.random.Generator | None = None, episodes_total: int = 50):
    header, body = load_checkpoint(path)
    hp = _hp_from_dict(header["hyperparams"])
    rng = rng if rng is not None else np.random.default_rng(0)
    kind = header["kind"]

    if kind == "tabular":
        agent = TabularAgent(hp, rng, episodes_total)
        topo = header["topology"]
        agent.spec = DiscretizationSpec(tuple(topo["bins"]), tuple(topo["lows"]), tuple(topo["highs"]))
        agent.q = QTable()
        layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        if [name for name, _ in layout] != ["state_keys", "qvalues"]:
            raise ValueError(f"{path}: array directory does not match a tabular agent")
        keys, values = layout_views(body, layout)
        for i in range(len(keys)):
            agent.q.table[bytes(int(b) for b in keys[i])] = values[i].copy()
        agent.eps = header.get("eps", hp.eps_min)
        return agent

    if kind in ("dqn", "marl"):
        topo = header["topology"]
        common = dict(
            hp=hp,
            rng=rng,
            episodes_total=episodes_total,
            state_dim=topo["input_dim"],
            n_actions=topo["n_actions"],
        )
        agent = MarlPool(n_agents=topo["n_agents"], **common) if kind == "marl" else DqnAgent(**common)
        directory = [{"name": name, "shape": list(shape)} for name, shape in _net_directory(agent.online)]
        if header["arrays"] != directory:
            raise ValueError(f"{path}: array directory does not match the {kind} network layout")
        online, target = np.split(body, 2)
        np.copyto(agent.online.flat, online)
        np.copyto(agent.target.flat, target)
        if kind == "marl":
            agent.acting.copy_from(agent.online)
        agent.eps = header.get("eps", hp.eps_min)
        return agent

    raise ValueError(f"unknown checkpoint kind {kind!r}")
