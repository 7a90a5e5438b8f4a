"""Command-line entry point.

Single run::

    trustsim --agent drl --attack bfi --episodes 50 --seed 42 --out runs/demo

Full evaluation matrix (3 agents x 5 attacks, medians over seeds)::

    trustsim --matrix --seeds 42,43,44 --out runs/matrix --workers 2

Any attack or agent parameter can be overridden with
``--set section.key=value`` (sections: experiment, trust, attack, reward,
agent_hyperparams, env) or through a config file; see README.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .agents import AGENT_KINDS
from .attacks import FAMILIES
from .config import (
    ATTACKS,
    MATRIX_SEEDS,
    ConfigError,
    ExperimentConfig,
    apply_override,
    load_config_file,
)
from .metrics import aggregate_tail
from .runner import run_experiment, run_matrix


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trustsim", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--agent", default=None, help="rl | drl | marl (comma list in matrix mode)")
    parser.add_argument("--attack", default=None, help="nma | cra | aaa | bfi | tdp | none (comma list in matrix mode)")
    parser.add_argument("--episodes", type=int, default=None, help="episode count (default 50; 100 for tdp)")
    parser.add_argument("--steps", type=int, default=None, help="steps per episode (default 100)")
    parser.add_argument("--seed", type=int, default=None, help="master random seed (default 42)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--config", default=None, help="plain-text config file (key=value sections)")
    parser.add_argument("--matrix", action="store_true", help="run the agent x attack matrix")
    parser.add_argument("--seeds", default=None, help="comma-separated seeds for matrix mode (default 42,43,44)")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers in matrix mode (default 1)")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override any config value; repeatable")
    parser.add_argument("--allow-short-tdp", action="store_true", default=None,
                        help="keep an explicit episode count below 100 under the tdp attack")
    return parser


def _parse_list(raw: str, allowed, what: str) -> list[str]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    for item in items:
        if item not in allowed:
            raise ConfigError(f"unknown {what} {item!r}; expected one of {allowed}")
    return items


def _parse_seeds(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds expects comma-separated integers, got {raw!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.matrix:
            for flag, value in (("--seeds", args.seeds), ("--workers", args.workers)):
                if value is not None:
                    raise ConfigError(f"{flag} applies only with --matrix")
        cfg = load_config_file(args.config) if args.config else ExperimentConfig()
        for dotted in args.overrides:
            cfg = apply_override(cfg, dotted)
        # in matrix mode --agent and --attack are lists that name the cells, not values of the config
        flags = ("episodes", "steps", "seed", "out", "allow_short_tdp") + (() if args.matrix else ("agent", "attack"))
        cfg = replace(cfg, **{name: getattr(args, name) for name in flags if getattr(args, name) is not None})

        if args.matrix:
            agents = _parse_list(args.agent, AGENT_KINDS, "agent") if args.agent else list(AGENT_KINDS)
            attacks = _parse_list(args.attack, ATTACKS, "attack") if args.attack else list(FAMILIES)
            seeds = _parse_seeds(args.seeds) if args.seeds else list(MATRIX_SEEDS)
            workers = 1 if args.workers is None else args.workers
            results, failures = run_matrix(cfg, agents, attacks, seeds, workers=workers, quiet=False)
            print(f"wrote {cfg.out}/matrix_f1.csv ({len(failures)} failed runs)")
            return 1 if failures else 0

        records = run_experiment(cfg, quiet=False)
        tail_f1 = aggregate_tail(records, min(10, len(records)))["f1"][0]
        print(f"done: {len(records)} episodes, tail-10 mean F1 = {tail_f1:.3f}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
