"""Experiment configuration: dataclass, plain-text config files, overrides.

Config files are key=value sections (INI syntax).  Every key must match a
known field; unknown sections or keys are rejected rather than ignored so
typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import types
import typing
from dataclasses import dataclass, field, fields, replace

from .abac import GATE_MODES
from .agents import AGENT_KINDS
from .agents.nn import AgentHyperparams
from .attacks import FAMILIES, AttackConfig
from .env import EnvConfig, RewardConfig
from .trust import TrustUpdateConfig

ATTACKS = FAMILIES + ("none",)

DEFAULT_EPISODES = 50
TDP_EPISODES = 100
MATRIX_SEEDS = (42, 43, 44)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    agent: str = "drl"
    attack: str = "nma"
    episodes: int | None = None  # None resolves to 50, or 100 under TDP
    steps: int = 100
    seed: int = 42
    n_nodes: int = 16
    malicious_ratio: float = 0.30
    out: str = "runs/latest"
    gate_mode: str = "plain"
    policy_file: str | None = None
    log_evidence: bool = False
    allow_short_tdp: bool = False
    trust: TrustUpdateConfig = field(default_factory=TrustUpdateConfig)
    attack_cfg: AttackConfig = field(default_factory=AttackConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    hyper: AgentHyperparams = field(default_factory=AgentHyperparams)
    env: EnvConfig = field(default_factory=EnvConfig)

    def __post_init__(self):
        if self.agent not in AGENT_KINDS:
            raise ConfigError(f"agent must be one of {AGENT_KINDS}, got {self.agent!r}")
        if self.attack not in ATTACKS:
            raise ConfigError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        if self.episodes is not None and self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.gate_mode not in GATE_MODES:
            raise ConfigError(f"gate_mode must be one of {GATE_MODES}, got {self.gate_mode!r}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_nodes < 2:
            raise ConfigError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not (0.0 <= self.malicious_ratio <= 1.0):
            raise ConfigError(f"malicious_ratio must lie in [0, 1], got {self.malicious_ratio}")
        if self.attack_cfg.family != self.attack:
            object.__setattr__(self, "attack_cfg", replace(self.attack_cfg, family=self.attack))

    def resolve_episodes(self) -> tuple[int, str | None]:
        """Final episode count plus an optional warning message.

        TDP needs the post-activation window: an unset episode count becomes
        100, and an explicit shorter count is auto-extended with a warning
        unless the config opts out via allow_short_tdp.
        """
        if self.episodes is None:
            return (TDP_EPISODES if self.attack == "tdp" else DEFAULT_EPISODES), None
        if self.attack == "tdp" and self.episodes < TDP_EPISODES and not self.allow_short_tdp:
            return TDP_EPISODES, (
                f"attack=tdp with episodes={self.episodes} cannot show post-activation behavior; "
                f"auto-extending to {TDP_EPISODES}"
            )
        return self.episodes, None


_SECTION_TARGETS = {
    "experiment": None,  # top-level fields
    "trust": ("trust", TrustUpdateConfig),
    "attack": ("attack_cfg", AttackConfig),
    "reward": ("reward", RewardConfig),
    "agent_hyperparams": ("hyper", AgentHyperparams),
    "env": ("env", EnvConfig),
}


def _coerce(raw: str, target_type):
    text = raw.strip()
    if target_type is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if target_type is str:
        return text
    try:
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type is tuple:
            return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"expected a value of type {target_type.__name__}, got {raw!r}") from None
    raise ConfigError(f"unsupported config value type {target_type}")


def _field_type(dc_type, name: str):
    """The type ``name`` is annotated with on ``dc_type`` (``X`` for ``X | None``); None if it has no such field."""
    t = typing.get_type_hints(dc_type).get(name)
    return typing.get_args(t)[0] if isinstance(t, types.UnionType) else t


def apply_setting(cfg: ExperimentConfig, section: str, key: str, raw: str) -> ExperimentConfig:
    if section == "experiment":
        # the nested configs are sections of their own, not values
        ftype = _field_type(ExperimentConfig, key)
        if ftype is None or dataclasses.is_dataclass(getattr(cfg, key)):
            raise ConfigError(f"unknown key [experiment] {key}")
        return replace(cfg, **{key: _coerce(raw, ftype)})
    if section not in _SECTION_TARGETS or _SECTION_TARGETS[section] is None:
        raise ConfigError(f"unknown config section [{section}]")
    if (section, key) == ("attack", "family"):
        raise ConfigError("[attack] family is set by [experiment] attack")
    attr, dc_type = _SECTION_TARGETS[section]
    ftype = _field_type(dc_type, key)
    if ftype is None:
        raise ConfigError(f"unknown key [{section}] {key}")
    value = _coerce(raw, ftype)
    try:
        nested = replace(getattr(cfg, attr), **{key: value})
    except ValueError as exc:  # the section's own range checks
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    return replace(cfg, **{attr: nested})


def load_config_file(path) -> ExperimentConfig:
    cfg = ExperimentConfig()
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SECTION_TARGETS:
                raise ConfigError(f"unknown config section [{section}]")
            # interpolation runs as each value is read, so a bare % raises here
            for key, raw in parser.items(section):
                cfg = apply_setting(cfg, section, key, raw)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser spreads its messages over several lines
        raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None
    return cfg


def apply_override(cfg: ExperimentConfig, dotted: str) -> ExperimentConfig:
    """Apply one 'section.key=value' override (the CLI --set flag)."""
    if "=" not in dotted:
        raise ConfigError(f"--set expects section.key=value, got {dotted!r}")
    lhs, value = dotted.split("=", 1)
    if "." not in lhs:
        raise ConfigError(f"--set expects section.key=value, got {dotted!r}")
    section, key = lhs.split(".", 1)
    return apply_setting(cfg, section.strip(), key.strip(), value)


def manifest_lines(cfg: ExperimentConfig, episodes: int, version: str) -> list[str]:
    """Fully resolved configuration as stable key=value lines."""
    lines = [f"trustsim_version={version}", f"episodes_resolved={episodes}"]

    def emit(prefix: str, obj) -> None:
        for f in sorted(fields(obj), key=lambda f: f.name):
            if prefix == "" and f.name == "out":
                continue  # the output path is not part of the scientific config
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                emit(f"{prefix}{f.name}.", value)
            else:
                lines.append(f"{prefix}{f.name}={value}")

    emit("", cfg)
    return lines
