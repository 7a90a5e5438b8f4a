"""Each output check of the benchmark passes on real outputs and fails on a
deliberately corrupted copy of them; the probes put back what they wrap;
the metrics printed are those BENCHMARK.json declares.

    python3 -m pytest perfbench/test_checks.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from tracer import Probes  # noqa: E402
from trustsim import runner  # noqa: E402
from trustsim.agents import load_agent  # noqa: E402
from trustsim.agents.checkpoint import MAGIC  # noqa: E402
from trustsim.config import ExperimentConfig  # noqa: E402

EPISODES = 2
STEPS = 20
BATCH = 10


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A short drl/bfi run with every artifact written, plus its final state."""
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig(agent="drl", attack="bfi", episodes=EPISODES, steps=STEPS, seed=3, out=str(out))
    captured = {}
    with Probes() as probes:
        probes.wrap(runner, "simulate", "simulate", hook=lambda r, a, k: captured.update(env=r[1], agent=r[2]))
        runner.run_experiment(cfg)
    env = captured["env"]
    return {
        "cfg": cfg,
        "out": out,
        "env": env,
        "agent": captured["agent"],
        "rows": checks.parse_csv((out / "episodes.csv").read_text()),
        "confusion": checks.parse_csv((out / "confusion.csv").read_text()),
        "mask": env.net.malicious_mask,
    }


def episode_errors(run, rows, episodes=EPISODES):
    n_mal = int(run["mask"].sum())
    return checks.check_episode_rows(
        rows, episodes=episodes, n_malicious=n_mal, n_honest=len(run["mask"]) - n_mal, steps=STEPS, batch_size=BATCH
    )


def recount(run):
    net = run["env"].net
    return checks.recount_confusion(net.alphas, net.betas, run["mask"], run["cfg"].env.theta)


def edited(rows, index, **changes):
    out = [dict(r) for r in rows]
    out[index].update({k: str(v) for k, v in changes.items()})
    return out


def test_real_outputs_pass(run):
    assert checks.check_final_confusion(recount(run), run["confusion"], run["rows"]) == []
    assert episode_errors(run, run["rows"]) == []
    assert checks.check_trust_masses(run["env"].net.alphas, run["env"].net.betas, "final") == []
    assert checks.check_population(run["mask"], run["cfg"].malicious_ratio) == []
    digests = checks.digest_outputs(run["out"])
    assert checks.check_identical(digests, dict(digests), "rerun") == []
    state = run["env"].observe()
    loaded = load_agent(run["out"] / "agent.ckpt")
    assert checks.check_qvalues(run["agent"].qvalues(state), loaded.qvalues(state)) == []


def test_flipped_confusion_count_fails(run):
    tp = int(run["confusion"][0]["tp"])
    bad = [dict(run["confusion"][0], tp=str(tp + 1))]
    assert checks.check_final_confusion(recount(run), bad, run["rows"])
    last = len(run["rows"]) - 1
    bad_rows = edited(run["rows"], last, fn=int(run["rows"][last]["fn"]) + 1)
    assert checks.check_final_confusion(recount(run), run["confusion"], bad_rows)


def test_wrong_population_fails(run):
    assert checks.check_population(run["mask"], 0.3) == []
    mask = run["mask"].copy()
    mask[np.flatnonzero(~mask)[0]] = True
    assert checks.check_population(mask, 0.3)


def test_recount_uses_strict_threshold():
    # a node exactly at theta is predicted honest
    assert checks.recount_confusion([0.45, 0.44], [0.55, 0.56], [True, True], 0.45) == (1, 0, 1, 0)


@pytest.mark.parametrize(
    "field, delta",
    [("f1", 1e-9), ("tp", 1), ("fp", 1), ("throughput", 1), ("chain_length", STEPS + 1)],
)
def test_corrupted_episode_row_fails(run, field, delta):
    row = run["rows"][0]
    value = float(row[field]) + delta if field == "f1" else int(row[field]) + delta
    assert episode_errors(run, edited(run["rows"], 0, **{field: value}))


def test_delegation_ratio_out_of_range_fails(run):
    assert episode_errors(run, edited(run["rows"], 0, delegation_ratio=0.09))
    assert checks.check_ratio(1.0000001, "step")
    assert checks.check_ratio(0.1, "step") == []


def test_extended_episode_count_fails(run):
    # a TDP run silently extended to 100 episodes has more rows than asked for
    assert episode_errors(run, run["rows"], episodes=EPISODES + 1)


def test_changed_checkpoint_byte_fails(run, tmp_path):
    original = (run["out"] / "agent.ckpt").read_bytes()
    header_end = original.index(b"\n", len(MAGIC)) + 1
    header = json.loads(original[len(MAGIC) : header_end])
    offset = header_end
    for entry in header["arrays"]:
        if entry["name"] == "online.value_b1":
            break
        offset += 8 * int(np.prod(entry["shape"]))
    corrupted = bytearray(original)
    corrupted[offset + 7] ^= 0x40  # top exponent bit of a little-endian float64: 0.0 becomes 2.0
    path = tmp_path / "agent.ckpt"
    path.write_bytes(bytes(corrupted))

    good = checks.digest_outputs(run["out"])
    bad = dict(good, **{"agent.ckpt": hashlib.sha256(bytes(corrupted)).hexdigest()})
    assert checks.check_identical(good, bad, "corrupted")
    assert checks.check_same_bytes(original, bytes(corrupted), "agent.ckpt")
    state = run["env"].observe()
    assert checks.check_qvalues(run["agent"].qvalues(state), load_agent(path).qvalues(state))


def test_bad_trust_masses_fail(run):
    alphas = run["env"].net.alphas.copy()
    alphas[0] = -alphas[0]
    assert checks.check_trust_masses(alphas, run["env"].net.betas, "step")
    alphas[0] = np.nan
    assert checks.check_trust_masses(alphas, run["env"].net.betas, "step")


def test_gate_decision_off_by_one_fails():
    taus = np.array([0.44999, 0.45, 0.46, 0.2, 0.9])
    assert checks.check_gate(taus, [1, 2, 4], "step") == []
    assert checks.check_gate(taus, [0, 1, 2, 4], "step")  # admits 44.999 %
    assert checks.check_gate(taus, [2, 4], "step")  # refuses exactly 45 %


def test_regime_margins_fail(run):
    low = [dict(r, f1="0.5") for r in run["rows"]]
    assert checks.check_tail_f1(low, 2, low=0.8, what="bfi")
    assert checks.check_tail_f1(low, 2, high=0.3, what="tdp")
    assert checks.check_tail_f1(low, 2, low=0.4, high=0.6, what="both") == []


def test_probes_restore_originals():
    from trustsim import env as env_module

    original = env_module.sample_top_k
    method = env_module.Environment.__dict__["step"]
    with Probes() as probes:
        probes.wrap(env_module, "sample_top_k", "select")
        probes.wrap(env_module.Environment, "step", "step")
        assert env_module.sample_top_k is not original
    assert env_module.sample_top_k is original
    assert env_module.Environment.__dict__["step"] is method


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
