import csv
import os
from collections import Counter
from dataclasses import replace

import pytest

from trustsim.abac import PolicyGate, SimulatedFheBackend
from trustsim.charts import emit_charts, render_line_chart
from trustsim.config import (
    ConfigError,
    ExperimentConfig,
    apply_override,
    load_config_file,
    manifest_lines,
)
from trustsim.metrics import CSV_COLUMNS, EpisodeRecord
from trustsim.runner import run_experiment, run_matrix
from trustsim.cli import main

FAST = dict(episodes=3, steps=30, seed=42)


def test_config_defaults_resolve_episodes():
    assert ExperimentConfig(attack="nma").resolve_episodes() == (50, None)
    assert ExperimentConfig(attack="tdp").resolve_episodes() == (100, None)


def test_tdp_short_run_warns_and_extends():
    episodes, warning = ExperimentConfig(attack="tdp", episodes=50).resolve_episodes()
    assert episodes == 100
    assert warning is not None and "auto-extending" in warning


def test_tdp_short_run_override_respected():
    episodes, warning = ExperimentConfig(
        attack="tdp", episodes=50, allow_short_tdp=True
    ).resolve_episodes()
    assert episodes == 50 and warning is None


def test_config_rejects_unknown_agent():
    with pytest.raises(ConfigError):
        ExperimentConfig(agent="dqn")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\n"
        "agent = marl\n"
        "attack = cra\n"
        "episodes = 7\n"
        "seed = 99\n"
        "[attack]\n"
        "cra_intensity = 0.7\n"
        "[reward]\n"
        "w_fn = 2.5\n"
        "[agent_hyperparams]\n"
        "batch_size = 32\n"
        "[trust]\n"
        "decay_gamma = 0.8\n"
        "[env]\n"
        "detect_p = 0.4\n"
    )
    cfg = load_config_file(path)
    assert cfg.agent == "marl" and cfg.attack == "cra"
    assert cfg.episodes == 7 and cfg.seed == 99
    assert cfg.attack_cfg.cra_intensity == 0.7
    assert cfg.reward.w_fn == 2.5
    assert cfg.hyper.batch_size == 32
    assert cfg.trust.decay_gamma == 0.8
    assert cfg.env.detect_p == 0.4


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nagnet = drl\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_config_file_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_override_flag():
    cfg = apply_override(ExperimentConfig(), "attack.bfi_sybil_k=8")
    assert cfg.attack_cfg.bfi_sybil_k == 8
    with pytest.raises(ConfigError):
        apply_override(ExperimentConfig(), "bogus")
    with pytest.raises(ConfigError):
        apply_override(ExperimentConfig(), "attack.unknown=1")


def test_run_experiment_artifacts_and_schema(tmp_path):
    cfg = ExperimentConfig(agent="rl", attack="nma", out=str(tmp_path / "run"), **FAST)
    records = run_experiment(cfg)
    out = tmp_path / "run"
    for name in (
        "episodes.csv",
        "summary.csv",
        "confusion.csv",
        "agent.ckpt",
        "manifest.txt",
        "reward_per_episode.svg",
        "f1_per_episode.svg",
    ):
        assert (out / name).exists(), name
    with open(out / "episodes.csv") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + len(records) == 4


def test_run_experiment_deterministic_bytes(tmp_path):
    a = ExperimentConfig(agent="drl", attack="bfi", out=str(tmp_path / "a"), **FAST)
    b = ExperimentConfig(agent="drl", attack="bfi", out=str(tmp_path / "b"), **FAST)
    run_experiment(a)
    run_experiment(b)
    for name in ("episodes.csv", "summary.csv", "agent.ckpt", "manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_run_matrix_shape_and_median(tmp_path):
    base = ExperimentConfig(out=str(tmp_path / "m"), **FAST)
    results, failures = run_matrix(base, ["rl", "drl"], ["nma", "bfi"], seeds=[42, 43, 44])
    assert not failures
    assert len(results) == 4
    assert all(len(v) == 3 for v in results.values())
    with open(tmp_path / "m" / "matrix_f1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["attack", "rl", "drl"]
    assert [r[0] for r in rows[1:]] == ["nma", "bfi"]
    assert all(len(r) == 3 for r in rows[1:])


def test_run_matrix_rejects_empty_lists(tmp_path):
    base = ExperimentConfig(out=str(tmp_path / "m"), **FAST)
    with pytest.raises(ConfigError):
        run_matrix(base, [], ["nma"], seeds=[42])


def test_run_matrix_records_failures_and_continues(tmp_path, monkeypatch):
    import trustsim.runner as runner_mod

    calls = {"n": 0}
    real = runner_mod._matrix_cell

    def flaky(cfg):
        calls["n"] += 1
        if cfg.agent == "rl":
            raise RuntimeError("boom")
        return real(cfg)

    monkeypatch.setattr(runner_mod, "_matrix_cell", flaky)
    base = ExperimentConfig(out=str(tmp_path / "m"), **FAST)
    results, failures = run_matrix(base, ["rl", "drl"], ["nma"], seeds=[42])
    assert len(failures) == 1
    with open(tmp_path / "m" / "matrix_f1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == "missing"
    assert rows[1][2] != "missing"


def test_run_matrix_cells_keep_the_whole_base_config(tmp_path):
    base = ExperimentConfig(out=str(tmp_path / "m"), episodes=2, steps=5, seed=42, allow_short_tdp=True)
    _, failures = run_matrix(base, ["rl"], ["tdp"], seeds=[42])
    assert not failures
    cell = tmp_path / "m" / "rl_tdp_seed42"
    with open(cell / "episodes.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2
    manifest = (cell / "manifest.txt").read_text().splitlines()
    assert "allow_short_tdp=True" in manifest and "episodes_resolved=2" in manifest


def test_run_matrix_workers_match_serial_and_restore_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    environment = dict(os.environ)
    base = ExperimentConfig(out=str(tmp_path / "serial"), episodes=2, steps=20, seed=42)
    serial, failures = run_matrix(base, ["rl", "drl"], ["nma"], seeds=[42, 43], workers=1)
    assert not failures
    pooled, failures = run_matrix(
        replace(base, out=str(tmp_path / "pooled")), ["rl", "drl"], ["nma"], seeds=[42, 43], workers=2
    )
    assert not failures
    assert pooled == serial
    assert dict(os.environ) == environment


def rec(ep, reward, f1_value):
    return EpisodeRecord(
        episode=ep,
        cumulative_reward=reward,
        f1=f1_value,
        precision=1.0,
        recall=1.0,
        tp=5,
        fp=0,
        fn=0,
        tn=11,
        throughput=100,
        chain_length=10,
        mean_kappa=1.0,
        trust_separation=0.3,
        delegation_ratio=0.5,
    )


def test_charts_single_point_no_crash(tmp_path):
    written = emit_charts([rec(1, 50.0, 0.9)], tmp_path)
    for path in written:
        assert path.exists()
    svg = (tmp_path / "f1_per_episode.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_chart_polyline_length_matches_records(tmp_path):
    records = [rec(i, 10.0 * i, 0.5) for i in range(1, 13)]
    emit_charts(records, tmp_path)
    svg = (tmp_path / "reward_per_episode.svg").read_text()
    points = svg.split('points="')[1].split('"')[0].split()
    assert len(points) == 12


def test_render_chart_rejects_empty():
    with pytest.raises(ValueError):
        render_line_chart([], [], "t", "x", "y")


def test_manifest_contains_resolved_config():
    cfg = ExperimentConfig(agent="marl", attack="cra", seed=7)
    lines = manifest_lines(cfg, 50, "0.1.0")
    text = "\n".join(lines)
    assert "agent=marl" in text
    assert "attack_cfg.cra_intensity=0.85" in text
    assert "seed=7" in text
    assert "episodes_resolved=50" in text


def test_cli_single_run(tmp_path, capsys):
    code = main(
        ["--agent", "rl", "--attack", "nma", "--episodes", "2", "--steps", "20",
         "--seed", "1", "--out", str(tmp_path / "cli")]
    )
    assert code == 0
    assert (tmp_path / "cli" / "episodes.csv").exists()
    out = capsys.readouterr().out
    assert "tail-10 mean F1" in out


def test_cli_rejects_bad_agent(capsys):
    assert main(["--agent", "bogus", "--episodes", "1"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--set", "experiment.malicious_ratio=1.5"],
        ["--set", "agent_hyperparams.batch_size=abc"],
        ["--matrix", "--seeds", "4x"],
        ["--set", "experiment.trust=1"],
        ["--matrix", "--agent", "rl,rl", "--attack", "nma", "--seeds", "42"],
        ["--matrix", "--agent", "rl", "--attack", "nma,nma", "--seeds", "42"],
        ["--matrix", "--agent", "rl", "--attack", "nma", "--seeds", "42,42"],
        ["--matrix", "--agent", "rl", "--attack", "nma", "--seeds", "42", "--workers", "-3"],
        ["--matrix", "--agent", "rl", "--attack", "nma", "--seeds", "42", "--workers", "0"],
        ["--attack", "nma", "--set", "attack.family=cra"],
        ["--set", "env.kappa_max=1"],
        ["--set", "env.steps_per_episode=7"],
        ["--set", "attack.base_evidence=1"],
        ["--set", "attack.aaa_strategy_count=5"],
        ["--set", "attack.nma_noise=-0.5"],
        ["--set", "attack.aaa_factor=-0.1"],
        ["--set", "attack.bfi_strike_magnitude=-0.3"],
        ["--set", "attack.bfi_endorsement_base=-0.05"],
        ["--set", "attack.bfi_sybil_k=-1"],
        ["--set", "agent_hyperparams.eps_start=2"],
        ["--set", "agent_hyperparams.eps_decay=1.5"],
        ["--set", "agent_hyperparams.batch_size=0"],
        ["--set", "agent_hyperparams.target_sync_every=0"],
        ["--set", "agent_hyperparams.marl_sync_every=0"],
        ["--set", "env.batch_size=0"],
        ["--set", "env.detect_p=2"],
        ["--set", "reward.kappa_max=0"],
        ["--set", "env.theta=2"],
        ["--set", "attack.bfi_low_trust=0.9"],
        ["--set", "attack.aaa_eps_decay=2"],
        ["--set", "agent_hyperparams.hidden_sizes=0"],
        ["--set", "agent_hyperparams.head_hidden=0"],
        ["--set", "agent_hyperparams.learning_rate=0"],
        ["--set", "agent_hyperparams.tabular_learning_rate=-0.1"],
        ["--set", "experiment.gate_mode=bogus"],
        ["--set", "experiment.policy_file={tmp}/missing.policy"],
        ["--set", "experiment.policy_file={tmp}/syntax.policy"],
        ["--set", "experiment.policy_file={tmp}/tier.policy"],
        ["--set", "experiment.policy_file={tmp}/binary.policy"],
        ["--matrix", "--agent", "rl", "--attack", "nma", "--seeds", "42",
         "--set", "experiment.policy_file={tmp}/tier.policy"],
        ["--config", "{tmp}/no-section.cfg"],
        ["--config", "{tmp}/no-equals.cfg"],
        ["--config", "{tmp}/repeated-section.cfg"],
        ["--config", "{tmp}/repeated-key.cfg"],
        ["--config", "{tmp}/bare-percent.cfg"],
        ["--config", "{tmp}/not-utf8.cfg"],
        ["--seed", "-1"],
        ["--matrix", "--agent", "rl", "--attack", "nma", "--seeds", "42,-1"],
        ["--set", "agent_hyperparams.td_clip=0"],
        ["--set", "agent_hyperparams.reward_scale=-1"],
        ["--set", "reward.collusion_cap=-5"],
        ["--set", "trust.delta_valid=nan"],
        ["--set", "attack.nma_noise=inf"],
        ["--set", "attack.bfi_strike_magnitude=nan"],
        ["--set", "trust.delta_valid=1000000.0001"],
        ["--set", "trust.delta_invalid=1e7"],
        ["--set", "trust.delta_malicious=1e308"],
        ["--set", "attack.nma_noise=1e308"],
        ["--set", "attack.aaa_factor=1e308"],
        ["--set", "attack.bfi_sybil_k=1000001"],
        ["--set", "attack.bfi_endorsement_base=2e6"],
        ["--set", "attack.bfi_strike_magnitude=1e300"],
        ["--seeds", "7,8", "--agent", "rl"],
        ["--workers", "3", "--agent", "rl"],
        ["--set", "reward.w_f1=nan"],
        ["--set", "reward.w_f1=inf"],
        ["--set", "reward.w_step=inf"],
        ["--set", "reward.w_fn=inf"],
        ["--set", "agent_hyperparams.learning_rate=inf"],
        ["--set", "agent_hyperparams.reward_scale=inf"],
        ["--set", "agent_hyperparams.tabular_learning_rate=inf"],
        ["--set", "agent_hyperparams.td_clip=inf"],
        ["--set", "reward.kappa_max=nan"],
        ["--set", "reward.kappa_max=inf"],
        ["--set", "reward.collusion_trigger=nan"],
        ["--set", "reward.collusion_trigger=-inf"],
        ["--set", "reward.collusion_cap=nan"],
        ["--set", "reward.collusion_cap=inf"],
    ],
    ids=[
        "ratio-out-of-range",
        "int-parse",
        "matrix-seeds",
        "nested-config-as-value",
        "matrix-repeated-agent",
        "matrix-repeated-attack",
        "matrix-repeated-seed",
        "matrix-negative-workers",
        "matrix-zero-workers",
        "attack-family-key",
        "env-kappa-max-key",
        "env-steps-per-episode-key",
        "attack-base-evidence-key",
        "attack-aaa-strategy-count-key",
        "negative-nma-noise",
        "negative-aaa-factor",
        "negative-bfi-strike",
        "negative-bfi-endorsement",
        "negative-bfi-sybil-k",
        "eps-start-above-one",
        "eps-decay-above-one",
        "zero-agent-batch",
        "zero-target-sync",
        "zero-marl-sync",
        "zero-env-batch",
        "detect-p-above-one",
        "zero-kappa-max",
        "theta-above-one",
        "bfi-low-above-high",
        "aaa-eps-decay-above-one",
        "zero-hidden-size",
        "zero-head-hidden",
        "zero-learning-rate",
        "negative-tabular-learning-rate",
        "unknown-gate-mode",
        "missing-policy-file",
        "unparsable-policy",
        "policy-attribute-nodes-lack",
        "policy-not-utf8",
        "matrix-policy-attribute-nodes-lack",
        "config-without-section-header",
        "config-line-without-equals",
        "config-repeated-section",
        "config-repeated-key",
        "config-bare-percent",
        "config-not-utf8",
        "negative-seed",
        "matrix-negative-seed",
        "zero-td-clip",
        "negative-reward-scale",
        "negative-collusion-cap",
        "nan-trust-delta",
        "infinite-nma-noise",
        "nan-bfi-strike",
        "trust-delta-valid-above-cap",
        "trust-delta-invalid-above-cap",
        "trust-delta-malicious-near-float-max",
        "nma-noise-near-float-max",
        "aaa-factor-near-float-max",
        "bfi-sybil-k-above-cap",
        "bfi-endorsement-above-cap",
        "bfi-strike-above-cap",
        "seeds-without-matrix",
        "workers-without-matrix",
        "nan-reward-w-f1",
        "infinite-reward-w-f1",
        "infinite-reward-w-step",
        "infinite-reward-w-fn",
        "infinite-learning-rate",
        "infinite-reward-scale",
        "infinite-tabular-learning-rate",
        "infinite-td-clip",
        "nan-kappa-max",
        "infinite-kappa-max",
        "nan-collusion-trigger",
        "negative-infinite-collusion-trigger",
        "nan-collusion-cap",
        "infinite-collusion-cap",
    ],
)
def test_cli_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "syntax.policy").write_text("trust >>> 4\n")
    (tmp_path / "tier.policy").write_text("(trust >= 45) & (tier == 1)\n")
    (tmp_path / "binary.policy").write_bytes(b"\xfftrust >= 45\n")
    (tmp_path / "no-section.cfg").write_text("seed = 3\n")
    (tmp_path / "no-equals.cfg").write_text("[experiment]\nseed 3\n")
    (tmp_path / "repeated-section.cfg").write_text("[experiment]\nseed = 3\n[experiment]\nsteps = 5\n")
    (tmp_path / "repeated-key.cfg").write_text("[experiment]\nseed = 3\nseed = 4\n")
    (tmp_path / "bare-percent.cfg").write_text("[experiment]\nout = runs/100%\n")
    (tmp_path / "not-utf8.cfg").write_bytes(b"[experiment]\nout = \xff\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv + ["--episodes", "1", "--steps", "5", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert "Traceback" not in captured.err
    assert "matrix:" not in captured.out
    assert "run:" not in captured.out
    assert not (tmp_path / "o").exists()


def test_one_run_builds_one_gate_and_backend_and_resolves_its_episodes_once(tmp_path, monkeypatch, capsys):
    counts = Counter()

    def count_calls(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[owner.__name__] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count_calls(PolicyGate, "__init__")
    count_calls(SimulatedFheBackend, "__init__")
    count_calls(ExperimentConfig, "resolve_episodes")
    cfg = ExperimentConfig(agent="rl", attack="nma", episodes=1, steps=5, gate_mode="encrypted", out=str(tmp_path / "o"))
    run_experiment(cfg, quiet=False)
    assert "run:" in capsys.readouterr().out
    assert counts == {"PolicyGate": 1, "SimulatedFheBackend": 1, "ExperimentConfig": 1}


def test_increments_at_the_cap_are_accepted():
    cfg = ExperimentConfig()
    for key in ("trust.delta_valid", "trust.delta_invalid", "trust.delta_malicious", "attack.nma_noise",
                "attack.aaa_factor", "attack.bfi_sybil_k", "attack.bfi_endorsement_base",
                "attack.bfi_strike_magnitude"):
        cfg = apply_override(cfg, f"{key}=1000000")
    assert cfg.trust.delta_malicious == 1e6 and cfg.attack_cfg.bfi_sybil_k == 10**6


@pytest.mark.parametrize("matrix", [False, True], ids=["single", "matrix"])
def test_cli_out_naming_a_file_exits_2(matrix, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    argv = ["--agent", "rl", "--attack", "nma", "--episodes", "1", "--steps", "5", "--out", str(taken)]
    assert main(argv + (["--matrix", "--seeds", "42"] if matrix else [])) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: cannot make output directory")
    assert "matrix:" not in captured.out
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize(
    "attack, strength",
    [("nma", "nma_noise"), ("cra", "cra_intensity"), ("aaa", "aaa_factor"),
     ("bfi", "bfi_strike_magnitude"), ("tdp", "tdp_intensity")],
)
def test_zero_attack_strength_runs_and_strikes_nothing(attack, strength, tmp_path):
    out = tmp_path / attack
    argv = ["--agent", "rl", "--attack", attack, "--episodes", "2", "--steps", "20", "--allow-short-tdp",
            "--out", str(out), "--set", f"attack.{strength}=0", "--set", "attack.tdp_activation_episode=1",
            "--set", "experiment.log_evidence=true"]
    assert main(argv) == 0
    assert len((out / "episodes.csv").read_text().splitlines()) == 3
    with open(out / "evidence.csv") as fh:
        attack_rows = [row for row in csv.reader(fh) if row[2] == "attack"]
    # BFI's ring endorsement has a strength of its own; every other emission scales with the zeroed one
    assert not [row for row in attack_rows if row[4].startswith("penalize_beta")]
    assert attack == "bfi" or not attack_rows


def test_config_rejects_out_of_range_population():
    with pytest.raises(ConfigError):
        ExperimentConfig(malicious_ratio=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_nodes=1)
    with pytest.raises(ConfigError):
        apply_override(ExperimentConfig(), "trust.decay_gamma=1.5")


def test_cli_set_override(tmp_path):
    code = main(
        ["--agent", "rl", "--attack", "nma", "--episodes", "1", "--steps", "10",
         "--out", str(tmp_path / "o"), "--set", "env.detect_p=0.4"]
    )
    assert code == 0
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "env.detect_p=0.4" in manifest


def test_cli_matrix_mode(tmp_path):
    code = main(
        ["--matrix", "--agent", "rl", "--attack", "nma", "--seeds", "42,43",
         "--episodes", "2", "--steps", "20", "--out", str(tmp_path / "mx")]
    )
    assert code == 0
    assert (tmp_path / "mx" / "matrix_f1.csv").exists()


def test_cli_tdp_warning(tmp_path, capsys):
    code = main(
        ["--agent", "rl", "--attack", "tdp", "--episodes", "26", "--steps", "5",
         "--allow-short-tdp", "--out", str(tmp_path / "t")]
    )
    assert code == 0
    code = main(
        ["--agent", "rl", "--attack", "tdp", "--episodes", "5", "--steps", "5",
         "--out", str(tmp_path / "t2")]
    )
    assert code == 0
    assert "auto-extending" in capsys.readouterr().err
