"""Portable flat checkpoint files.

Layout: a magic line, one JSON header line (topology, hyperparameters,
seed, exploration state, array directory), then the raw parameter arrays
in the declared order as little-endian 64-bit floats in C order, and
nothing after the last array.  The byte stream is identical across
platforms.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields
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


# the keys ``save_checkpoint`` writes into every header, and into the topology of each kind
_HEADER_KEYS = ("kind", "topology", "hyperparams", "seed", "arrays")
_TOPOLOGY_KEYS = {
    "tabular": ("bins", "lows", "highs"),
    "dqn": ("input_dim", "n_actions"),
    "marl": ("input_dim", "n_actions", "n_agents"),
}


def load_checkpoint(path):
    """Return the header and the whole array body as one float64 vector.

    Raises ValueError for a damaged file: a wrong magic line; a header that is not a UTF-8 JSON object
    with every key ``save_checkpoint`` writes and a list of arrays of whole-number shapes; a body
    shorter or longer than those arrays; or a body value that is not finite.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path} is not a trustsim checkpoint")
        line = fh.readline()
        data = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: checkpoint header is not UTF-8 JSON") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    arrays = header["arrays"]
    if not isinstance(arrays, list) or not all(_is_array_entry(entry) for entry in arrays):
        raise ValueError(f"{path}: checkpoint header's arrays are not a list of names and shapes")
    expected = 8 * sum(math.prod(entry["shape"]) for entry in arrays)
    if len(data) < expected:
        raise ValueError(f"truncated checkpoint {path}: {len(data)} of {expected} body bytes")
    if len(data) > expected:
        raise ValueError(f"{len(data) - expected} trailing bytes after the last array in {path}")
    body = np.frombuffer(data, dtype=_DTYPE).astype(np.float64)
    if not np.isfinite(body).all():
        raise ValueError(f"{path}: checkpoint body holds a non-finite value")
    return header, body


def _is_array_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in entry["shape"])
    )


def _hp_from_dict(d, path) -> AgentHyperparams:
    """The hyperparameters a header names; ValueError for an unknown name or an unusable value."""
    if not isinstance(d, dict):
        raise ValueError(f"{path}: checkpoint hyperparams are not a JSON object")
    unknown = sorted(d.keys() - {f.name for f in fields(AgentHyperparams)})
    if unknown:
        raise ValueError(f"{path}: unknown hyperparameters {', '.join(unknown)}")
    d = dict(d)
    try:
        if "hidden_sizes" in d:
            d["hidden_sizes"] = tuple(d["hidden_sizes"])
        return AgentHyperparams(**d)
    except TypeError as err:
        raise ValueError(f"{path}: unusable hyperparameters: {err}") from None


def _is_real(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _check_topology(kind, topo, path) -> None:
    """ValueError unless ``kind`` is known and ``topo`` holds what ``load_agent`` reads for it: for a
    tabular agent, equal-length lists of bin counts in [1, 256] and finite ranges; else counts >= 1."""
    if not isinstance(kind, str) or kind not in _TOPOLOGY_KEYS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    if not isinstance(topo, dict) or any(key not in topo for key in _TOPOLOGY_KEYS[kind]):
        raise ValueError(f"{path}: {kind} topology lacks one of {', '.join(_TOPOLOGY_KEYS[kind])}")
    if kind == "tabular":
        bins, lows, highs = topo["bins"], topo["lows"], topo["highs"]
        usable = (
            all(isinstance(v, list) and len(v) == len(bins) > 0 for v in (bins, lows, highs))
            and all(type(b) is int and 1 <= b <= 256 for b in bins)
            and all(_is_real(lo) and _is_real(hi) and lo < hi for lo, hi in zip(lows, highs))
        )
    else:
        usable = all(type(topo[key]) is int and topo[key] >= 1 for key in _TOPOLOGY_KEYS[kind])
    if not usable:
        raise ValueError(f"{path}: unusable {kind} topology")


def _net_directory(net) -> list:
    """Checkpoint directory of an online/target network pair."""
    return [(f"{role}.{name}", shape) for role in ("online", "target") for name, shape in net.layout]


def save_agent(agent, path, seed=None) -> None:
    if isinstance(agent, TabularAgent):
        keys = sorted(agent.q.table)
        key_arr = np.array([list(k) for k in keys], dtype=np.float64).reshape(len(keys), len(agent.spec.bins))
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
            asdict(agent.hp),
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
        save_checkpoint(path, kind, topology, asdict(agent.hp), seed, directory, bodies, extra={"eps": agent.eps})
        return

    raise TypeError(f"cannot checkpoint agent of type {type(agent).__name__}")


def load_agent(path, rng: np.random.Generator | None = None, episodes_total: int = 50):
    header, body = load_checkpoint(path)
    hp = _hp_from_dict(header["hyperparams"], path)
    rng = rng if rng is not None else np.random.default_rng(0)
    kind, topo = header["kind"], header["topology"]
    _check_topology(kind, topo, path)
    eps = header.get("eps", hp.eps_min)
    if not (_is_real(eps) and 0.0 <= eps <= 1.0):
        raise ValueError(f"{path}: checkpoint eps {eps!r} is not a number in [0, 1]")

    if kind == "tabular":
        agent = TabularAgent(hp, rng, episodes_total)
        agent.spec = DiscretizationSpec(tuple(topo["bins"]), tuple(topo["lows"]), tuple(topo["highs"]))
        agent.q = QTable()
        layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        if [name for name, _ in layout] != ["state_keys", "qvalues"]:
            raise ValueError(f"{path}: array directory does not match a tabular agent")
        keys, values = layout_views(body, layout)
        for i in range(len(keys)):
            agent.q.table[bytes(int(b) for b in keys[i])] = values[i].copy()
        agent.eps = eps
        return agent

    # dqn or marl
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
    agent.eps = eps
    return agent
