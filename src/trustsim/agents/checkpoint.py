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
from .tabular import TabularAgent

MAGIC = b"TRUSTSIM-CKPT-1\n"
_DTYPE = "<f8"


def save_checkpoint(path, kind: str, topology: dict, hyperparams: dict, seed, directory, bodies, eps: float) -> None:
    """Write atomically: ``directory`` names each array's (name, shape), ``bodies`` holds arrays whose values,
    back to back, fill that directory, and ``eps`` is the exploration rate the header keeps."""
    header = {
        "kind": kind,
        "topology": topology,
        "hyperparams": hyperparams,
        "seed": seed,
        "eps": eps,
        "arrays": [{"name": name, "shape": list(shape)} for name, shape in directory],
    }
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


# the keys ``save_checkpoint`` writes into every header
_HEADER_KEYS = ("kind", "topology", "hyperparams", "seed", "eps", "arrays")


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


def _describe(agent):
    """``(kind, topology, directory, bodies)`` of ``agent``'s checkpoint: what ``save_agent`` writes, and
    what ``load_agent`` holds a file to."""
    if isinstance(agent, TabularAgent):
        spec, keys = agent.spec, sorted(agent.q.table)
        key_arr = np.array([list(k) for k in keys], dtype=np.float64).reshape(len(keys), len(spec.bins))
        val_arr = np.stack([agent.q.table[k] for k in keys]) if keys else np.zeros((0, agent.q.n_actions))
        topology = {"bins": list(spec.bins), "lows": list(spec.lows), "highs": list(spec.highs)}
        return "tabular", topology, [("state_keys", key_arr.shape), ("qvalues", val_arr.shape)], [key_arr, val_arr]
    if isinstance(agent, (DqnAgent, MarlPool)):
        kind = "marl" if isinstance(agent, MarlPool) else "dqn"
        topology = agent.online.topology()
        if kind == "marl":
            topology["n_agents"] = agent.n_agents
        directory = [(f"{role}.{name}", shape) for role in ("online", "target") for name, shape in agent.online.layout]
        return kind, topology, directory, [agent.online.flat, agent.target.flat]
    raise TypeError(f"cannot checkpoint agent of type {type(agent).__name__}")


def save_agent(agent, path, seed=None) -> None:
    kind, topology, directory, bodies = _describe(agent)
    save_checkpoint(path, kind, topology, asdict(agent.hp), seed, directory, bodies, agent.eps)


def load_agent(path):
    """The agent a checkpoint holds, whose Q-values are bit-identical to the saved agent's.

    The file's kind and hyperparameters, and for MARL its ``n_agents``, build a fresh agent on
    ``default_rng(0)`` with a 50-episode exploration schedule.  The file's topology and array directory
    must be the ones ``save_agent`` writes for that agent, a tabular file keeping its own row count,
    and each tabular state key must be a bin of its feature's grid, once.  Anything else, and any file
    ``load_checkpoint`` refuses, raises ValueError.
    """
    header, body = load_checkpoint(path)
    hp = _hp_from_dict(header["hyperparams"], path)
    kind, topo, eps = header["kind"], header["topology"], header["eps"]
    if not (_is_real(eps) and 0.0 <= eps <= 1.0):
        raise ValueError(f"{path}: checkpoint eps {eps!r} is not a number in [0, 1]")
    rng = np.random.default_rng(0)
    if kind == "tabular":
        agent = TabularAgent(hp, rng)
    elif kind == "dqn":
        agent = DqnAgent(hp, rng)
    elif kind == "marl":
        n_agents = topo.get("n_agents") if isinstance(topo, dict) else None
        if type(n_agents) is not int or n_agents < 1:
            raise ValueError(f"{path}: unusable marl topology")
        agent = MarlPool(hp, rng, n_agents)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")

    _, topology, directory, _ = _describe(agent)
    if kind == "tabular":  # a fresh agent has no rows; the file has one per state key
        rows = len(body) // sum(width for _, (_, width) in directory)
        directory = [(name, (rows, width)) for name, (_, width) in directory]
    if topo != topology:
        raise ValueError(f"{path}: unusable {kind} topology")
    if header["arrays"] != [{"name": name, "shape": list(shape)} for name, shape in directory]:
        raise ValueError(f"{path}: array directory does not match the {kind} agent")

    if kind == "tabular":
        keys, values = layout_views(body, directory)
        if not ((keys == np.floor(keys)) & (keys >= 0) & (keys < agent.spec.bin_counts)).all():
            raise ValueError(f"{path}: a tabular state key lies outside its feature's bins")
        agent.q.table = {bytes(key): row.copy() for key, row in zip(keys.astype(np.uint8), values)}
        if len(agent.q.table) != rows:
            raise ValueError(f"{path}: a tabular state key is repeated")
    else:
        online, target = np.split(body, 2)
        np.copyto(agent.online.flat, online)
        np.copyto(agent.target.flat, target)
        if kind == "marl":
            agent.acting.copy_from(agent.online)
    agent.eps = eps
    return agent
