"""The benchmark's probes name trustsim functions, and its workloads build
trustsim configs; each name must still resolve and each config still build.

``perfbench/run.py`` is read with ``ast`` rather than imported: importing it
pins the BLAS thread variables and glibc's mmap threshold for this process.
"""

import __future__
import ast
import importlib
from dataclasses import replace
from pathlib import Path

import pytest

import trustsim.env
from trustsim.attacks import FAMILIES, Perturbation
from trustsim.config import ExperimentConfig
from trustsim.runner import build_simulation, simulate

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def perfbench_definitions(*names) -> dict:
    """The named top-level assignments and functions of ``perfbench/run.py``, executed on their own."""

    def defines(node) -> bool:
        if isinstance(node, ast.FunctionDef):
            return node.name in names
        return isinstance(node, ast.Assign) and any(getattr(t, "id", None) in names for t in node.targets)

    picked = [node for node in ast.parse(RUN.read_text(encoding="utf-8")).body if defines(node)]
    namespace = {}
    code = compile(ast.Module(body=picked, type_ignores=[]), str(RUN), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    missing = set(names) - namespace.keys()
    assert not missing, f"{RUN} defines no {sorted(missing)}"
    return namespace


def test_perfbench_spans_resolve():
    spans = perfbench_definitions("SPANS")["SPANS"]
    assert spans
    for span, owner, attr in spans:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls, None)
            assert target is not None, f"{span}: {owner} does not resolve"
        assert callable(getattr(target, attr, None)), f"{span}: {owner}.{attr} does not resolve"


@pytest.mark.parametrize("attack", FAMILIES)
def test_evidence_hook_contract(attack, monkeypatch):
    """perfbench's evidence hook reads ``apply_perturbations(net, perts, accepted=...)``:
    a list of ``Perturbation`` whose emitters are ``None`` or int tuples, and
    the gate's accepted nodes as a set of ints."""
    calls = []
    real = trustsim.env.apply_perturbations

    def probe(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(trustsim.env, "apply_perturbations", probe)
    cfg = ExperimentConfig(agent="rl", attack=attack, episodes=1, steps=40, seed=3, allow_short_tdp=True)
    cfg = replace(cfg, attack_cfg=replace(cfg.attack_cfg, tdp_activation_episode=1))
    simulate(build_simulation(cfg))
    assert len(calls) == 40
    assert any(args[1] for args, _ in calls)
    for args, kwargs in calls:
        perturbations, accepted = args[1], kwargs["accepted"]
        assert isinstance(perturbations, list)
        for p in perturbations:
            assert isinstance(p, Perturbation)
            assert p.emitters is None or (
                isinstance(p.emitters, tuple) and all(type(e) is int for e in p.emitters)
            )
        assert isinstance(accepted, set) and all(type(e) is int for e in accepted)


@pytest.mark.parametrize("workload", ["rl-bfi", "drl-cra", "marl-tdp-fhe"])
def test_perfbench_workload_config_builds(workload, tmp_path):
    run = perfbench_definitions("STEPS", "WORKLOADS", "make_config")
    spec = run["WORKLOADS"][workload]
    cfg = run["make_config"](workload, 1, tmp_path / "out")
    assert cfg.steps == run["STEPS"]
    assert cfg.attack_cfg.family == spec["attack"]
    assert cfg.resolve_episodes() == (spec["episodes"], None)
