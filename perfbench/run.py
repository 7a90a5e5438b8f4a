#!/usr/bin/env python3
"""Benchmark of the trustsim simulation step, end to end and layer by layer.

    python3 perfbench/run.py --workload rl-bfi --seed 1 --seconds 30 --trace 0

One process runs one workload: a cold set-up, one warm-up repetition, timed
repetitions until ``--seconds`` have passed, one traced repetition and one
more untraced repetition to set the tracing overhead against.  A
repetition is one seeded ``runner.run_experiment`` with every artifact
written, followed by the output checks in ``checks.py``; it is the unit
counted in ``attempted`` and ``failed``.  The last line of standard output
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced repetition with ``--trace 1``.  See
README.md for the workloads, the metrics and how the bounds were set.
"""

import os
import time

_PROCESS_START = time.perf_counter()

# One BLAS and OpenMP thread, fixed before numpy is first imported: with two
# threads a train step moves between 0.8 and 1.1 ms on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# Pin glibc's mmap threshold at its default of 128 KiB.  Left dynamic, it
# rises after the first large free, and from then on replay buffers come
# zero-filled from the heap instead of as lazily mapped pages: peak RSS then
# reads 101 or 137 MB on marl-tdp-fhe depending on allocation order.
try:
    ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
except (OSError, AttributeError):
    pass

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
from tracer import Probes  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"

STEPS = 100

# Each workload is one seeded run; the seed comes from --seed.
WORKLOADS = {
    "rl-bfi": {"agent": "rl", "attack": "bfi", "episodes": 20},
    "drl-cra": {"agent": "drl", "attack": "cra", "episodes": 10},
    "marl-tdp-fhe": {
        "agent": "marl",
        "attack": "tdp",
        "episodes": 3,
        "gate_mode": "encrypted",
        "tdp_activation_episode": 1,
    },
}

END_TO_END_UNITS = {"steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "env.observe_us": "us",
    "env.step_us": "us",
    "abac.gate_us": "us",
    "abac.accepted_per_step": "count",
    "trust.select_us": "us",
    "network.consensus_us": "us",
    "network.blocks_per_round": "ratio",
    "attacks.step_us": "us",
    "attacks.evidence_us": "us",
    "attacks.perturbations_per_step": "count",
    "attacks.refused_per_step": "count",
    "metrics.classify_us": "us",
    "agents.act_us": "us",
    "agents.learn_us": "us",
    "agents.nn.targets_us": "us",
    "agents.nn.grad_us": "us",
    "agents.nn.adam_us": "us",
    "agents.nn.updates_per_step": "ratio",
    "agents.marl.batch_us": "us",
    "agents.checkpoint.save_ms": "ms",
    "agents.checkpoint.bytes": "bytes",
    "runner.build_ms": "ms",
    "runner.artifacts_ms": "ms",
    "trace.overhead_pct": "%",
}

# (span, owner path, attribute): each public function is wrapped at the name
# its caller resolves.  The per-layer "_us" metric of a span is its time per
# environment step.
SPANS = (
    ("env.observe_us", "trustsim.env:Environment", "observe"),
    ("env.step_us", "trustsim.env:Environment", "step"),
    ("abac.gate_us", "trustsim.abac:PolicyGate", "accepted"),
    ("trust.select_us", "trustsim.env", "sample_top_k"),
    ("network.consensus_us", "trustsim.env", "run_consensus_round"),
    ("attacks.step_us", "trustsim.attacks:Attack", "step"),
    ("attacks.evidence_us", "trustsim.env", "apply_perturbations"),
    ("metrics.classify_us", "trustsim.metrics", "classify"),
    ("agents.act_us", "trustsim.agents.tabular:TabularAgent", "act"),
    ("agents.act_us", "trustsim.agents.dqn:DqnAgent", "act"),
    ("agents.act_us", "trustsim.agents.marl:MarlPool", "act"),
    ("agents.learn_us", "trustsim.agents.tabular:TabularAgent", "observe"),
    ("agents.learn_us", "trustsim.agents.dqn:DqnAgent", "observe"),
    ("agents.learn_us", "trustsim.agents.marl:MarlPool", "observe"),
    ("agents.nn.targets_us", "trustsim.agents.nn", "double_q_targets"),
    ("agents.nn.targets_us", "trustsim.agents.marl", "double_q_targets"),
    ("agents.nn.grad_us", "trustsim.agents.nn", "td_loss_and_grads"),
    ("agents.nn.grad_us", "trustsim.agents.marl", "td_loss_and_grads"),
    ("agents.nn.adam_us", "trustsim.agents.nn:Adam", "step"),
    ("agents.marl.batch_us", "trustsim.agents.marl:MarlPool", "pooled_batch"),
    ("agents.checkpoint.save_ms", "trustsim.runner", "save_agent"),
    ("runner.build_ms", "trustsim.runner", "build_simulation"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 prints the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def make_config(workload: str, seed: int, out: Path):
    from trustsim.attacks import AttackConfig
    from trustsim.config import ExperimentConfig

    spec = WORKLOADS[workload]
    return ExperimentConfig(
        agent=spec["agent"],
        attack=spec["attack"],
        episodes=spec["episodes"],
        steps=STEPS,
        seed=seed,
        out=str(out),
        gate_mode=spec.get("gate_mode", "plain"),
        # without this flag a TDP run shorter than 100 episodes is extended to 100
        allow_short_tdp=True,
        attack_cfg=AttackConfig(
            family=spec["attack"], tdp_activation_episode=spec.get("tdp_activation_episode", 25)
        ),
    )


def resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Repetition:
    """One run_experiment into its own directory, timed and captured from outside."""

    def __init__(self, cfg, out: Path):
        from trustsim import runner

        self.cfg = replace(cfg, out=str(out))
        self.out = out
        captured = {}
        with Probes() as probes:
            probes.wrap(runner, "run_episode", "loop")
            probes.wrap(runner, "simulate", "simulate", hook=lambda r, a, k: captured.update(env=r[1], agent=r[2]))
            t0 = time.perf_counter()
            runner.run_experiment(self.cfg)
            self.total_s = time.perf_counter() - t0
        self.loop_s = probes.seconds["loop"]
        self.simulate_s = probes.seconds["simulate"]
        self.env = captured["env"]
        self.agent = captured["agent"]
        self.ckpt_bytes = (out / "agent.ckpt").stat().st_size


def check_repetition(rep: Repetition, workload: str, reference) -> tuple[dict, list[str]]:
    """Digests of the contract files and every failed output check."""
    from trustsim.agents import load_agent

    cfg = rep.cfg
    spec = WORKLOADS[workload]
    digests = checks.digest_outputs(rep.out)
    errors = [] if reference is None else checks.check_identical(reference, digests, rep.out.name)

    rows = checks.parse_csv((rep.out / "episodes.csv").read_text(encoding="utf-8"))
    confusion = checks.parse_csv((rep.out / "confusion.csv").read_text(encoding="utf-8"))
    net = rep.env.net
    mask = net.malicious_mask
    n_mal = int(mask.sum())
    errors += checks.check_population(mask, cfg.malicious_ratio)
    expected = checks.recount_confusion(net.alphas, net.betas, mask, cfg.env.theta)
    errors += checks.check_final_confusion(expected, confusion, rows)
    errors += checks.check_episode_rows(
        rows,
        episodes=spec["episodes"],
        n_malicious=n_mal,
        n_honest=cfg.n_nodes - n_mal,
        steps=cfg.steps,
        batch_size=cfg.env.batch_size,
    )
    errors += checks.check_trust_masses(net.alphas, net.betas, "final state")
    state = rep.env.observe()
    errors += checks.check_qvalues(rep.agent.qvalues(state), load_agent(rep.out / "agent.ckpt").qvalues(state))
    errors += regime_errors(workload, rows)
    return digests, errors


def regime_errors(workload: str, rows) -> list[str]:
    """The paper's qualitative regimes, with margins set from 120 seeds."""

    if workload == "rl-bfi":
        # all agents defend against Byzantine attacks: the worst tail-5 mean
        # F1 over seeds 0-59, 1000-1039 and 123456-123475 was 0.842
        return checks.check_tail_f1(rows, 5, low=0.75, what="rl-bfi detection")
    if workload == "marl-tdp-fhe":
        # active sleepers collapse detection: tail-2 F1 was 0.0 on seeds 0-59
        return checks.check_tail_f1(rows, 2, high=0.3, what="marl-tdp-fhe post-activation collapse")
    return []


class Trace:
    """The traced repetition's probes and counters.

    Hooks only record; the per-step checks run in ``errors()`` after the
    repetition, so they inflate neither the spans nor the traced loop.
    """

    def __init__(self, steps: int):
        self.steps = steps
        self.probes = Probes()
        self.accepted = 0
        self.blocks = 0
        self.perturbations = 0
        self.refused = 0
        self.gate_calls: list[tuple] = []
        self.states: list[tuple] = []

        hooks = {
            "env.step_us": self._after_step,
            "abac.gate_us": self._after_gate,
            "network.consensus_us": self._after_consensus,
            "attacks.evidence_us": self._after_evidence,
        }
        for span, owner, attr in SPANS:
            self.probes.wrap(resolve(owner), attr, span, hook=hooks.get(span))

    def _after_step(self, result, args, kwargs):
        net = args[0].net
        self.states.append((net.alphas.copy(), net.betas.copy(), net.delegation_ratio))

    def _after_gate(self, result, args, kwargs):
        self.accepted += len(result)
        self.gate_calls.append((np.array(args[1]), result))

    def _after_consensus(self, result, args, kwargs):
        self.blocks += int(result.block_created)

    def _after_evidence(self, result, args, kwargs):
        perturbations = args[1]
        accepted = kwargs["accepted"]
        self.perturbations += len(perturbations)
        self.refused += sum(
            1 for p in perturbations if p.emitters is not None and not any(e in accepted for e in p.emitters)
        )

    def errors(self) -> list[str]:
        out = []
        if len(self.states) != self.steps or len(self.gate_calls) != self.steps:
            out.append(f"traced {len(self.states)} steps and {len(self.gate_calls)} gate calls, expected {self.steps}")
        for i, ((alphas, betas, ratio), (taus, accepted)) in enumerate(zip(self.states, self.gate_calls)):
            out += checks.check_gate(taus, accepted, f"gate of step {i}")
            out += checks.check_trust_masses(alphas, betas, f"after step {i}")
            out += checks.check_ratio(ratio, f"after step {i}")
        return out

    def close(self):
        self.probes.close()

    def metrics(self, rep: Repetition, scale: float, overhead_pct: float) -> dict:
        sec, calls, steps = self.probes.seconds, self.probes.calls, self.steps
        values = {name: sec[name] * scale / steps * 1e6 for name, unit in PER_LAYER_UNITS.items() if unit == "us"}
        consensus_rounds = calls["network.consensus_us"]
        values.update(
            {
                "abac.accepted_per_step": self.accepted / steps,
                "network.blocks_per_round": self.blocks / consensus_rounds if consensus_rounds else 0.0,
                "attacks.perturbations_per_step": self.perturbations / steps,
                "attacks.refused_per_step": self.refused / steps,
                "agents.nn.updates_per_step": calls["agents.nn.adam_us"] / steps,
                "agents.checkpoint.save_ms": sec["agents.checkpoint.save_ms"] * scale * 1e3,
                "agents.checkpoint.bytes": rep.ckpt_bytes,
                "runner.build_ms": sec["runner.build_ms"] * scale * 1e3,
                "runner.artifacts_ms": (rep.total_s - rep.simulate_s) * scale * 1e3,
                "trace.overhead_pct": overhead_pct,
            }
        )
        return values


def compare_plain_gate(cfg, rep: Repetition) -> list[str]:
    """The encrypted gate must decide exactly as the plain one does."""
    plain = Repetition(replace(cfg, gate_mode="plain"), rep.out.with_name(rep.out.name + "-plain"))
    errors = []
    for name in ("episodes.csv", "agent.ckpt"):
        errors += checks.check_same_bytes(
            (rep.out / name).read_bytes(), (plain.out / name).read_bytes(), f"{name} under gate_mode=plain"
        )
    shutil.rmtree(plain.out, ignore_errors=True)
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trustsim" / "__init__.py").is_file():
        print(f"perfbench: no trustsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        # cold set-up, timed from the first statement of this process
        from trustsim import runner

        cfg = make_config(args.workload, args.seed, run_dir)
        runner.build_simulation(cfg)
        setup_s = time.perf_counter() - _PROCESS_START
        return measure(args, cfg, run_dir, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


def measure(args, cfg, run_dir: Path, setup_s: float) -> int:
    steps = WORKLOADS[args.workload]["episodes"] * STEPS
    failures: list[str] = []
    attempted = failed = 0
    reference = None
    calibrations: list[float] = []

    def operation(index: int, trace: Trace | None = None) -> Repetition:
        nonlocal attempted, failed, reference
        attempted += 1
        calibrations.extend((calibration.measure(), calibration.measure()))
        try:
            rep = Repetition(cfg, run_dir / f"rep{index}")
        finally:
            if trace is not None:
                trace.close()
        digests, errors = check_repetition(rep, args.workload, reference)
        if trace is not None:
            errors += trace.errors()
            if WORKLOADS[args.workload].get("gate_mode") == "encrypted":
                errors += compare_plain_gate(cfg, rep)
        if reference is None:
            reference = digests
        if errors:
            failed += 1
            failures.extend(f"repetition {index}: {e}" for e in errors)
        shutil.rmtree(rep.out, ignore_errors=True)
        rep.env = rep.agent = None  # peak RSS should count one live simulation at a time
        return rep

    operation(0)  # warm-up: fills caches and lazy imports; its outputs are the reference bytes
    calibrations.clear()  # the first passes pay for their own cold start

    loops = []
    start = time.perf_counter()
    while not loops or time.perf_counter() - start < args.seconds:
        loops.append(operation(len(loops) + 1).loop_s)
    median_loop = statistics.median(loops)

    trace = Trace(steps)
    traced = operation(len(loops) + 1, trace)
    # Overhead is taken against the untraced repetitions on either side: the
    # machine's speed drifts by more than the overhead between distant ones.
    neighbours = (loops[-1] + operation(len(loops) + 2).loop_s) / 2.0

    # Times are scaled to the reference machine speed by the median of every
    # calibration pass in this run; a single pass is too noisy to pair with
    # a single repetition.
    scale = calibration.REFERENCE_SECONDS / statistics.median(calibrations)
    end_to_end = {
        "steps_per_s": steps / (median_loop * scale),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = trace.metrics(traced, scale, (traced.loop_s / neighbours - 1.0) * 100.0)

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"# {args.workload} seed {args.seed}: {len(loops)} timed repetitions of {steps} steps; "
        f"unscaled median {steps / median_loop:.1f} steps/s; machine speed {scale:.3f} of the reference"
    )
    chosen = per_layer if args.trace else end_to_end
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
