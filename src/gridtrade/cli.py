"""Operator command line: simulate, train, compare, export.

Every command is reproducible from (config file, seed): reruns produce
byte-identical output files. Exit codes: 0 success, 2 configuration error,
1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .env import MECHANISMS, METRIC_NAMES
from .errors import ConfigInvalid, GridTradeError
from .marl.train import train
from .policies import ScriptedPolicy
from .reporting import (
    TrajectoryWriter,
    export_tidy,
    load_checkpoint,
    metrics_from_trajectory,
    out_dir,
    read_metrics_csv,
    save_checkpoint,
    write_comparison_csv,
    write_manifest,
    write_metrics_csv,
    write_text,
)
from .runner import run_episodes


def _resolve_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "episodes", None) is not None:
        overrides["episodes"] = args.episodes
    if getattr(args, "mechanism", None):
        mech = args.mechanism
        overrides["mechanism"] = mech[0] if isinstance(mech, list) else mech
    return load_config(args.config, environ=dict(os.environ), overrides=overrides)


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out = out_dir(args.out)
    policy = ScriptedPolicy(cfg.policy, margin=cfg.margin)
    with TrajectoryWriter(out / "trajectory.jsonl") as sink:
        rows = run_episodes(cfg.env, policy, cfg.episodes, cfg.seed, on_step=sink)
    write_metrics_csv(out / "metrics.csv", rows, cfg.env.n_agents)
    write_manifest(
        out / "manifest.json", cfg.hash(), cfg.seed, cfg.episodes,
        extra={"command": "simulate", "mechanism": cfg.env.mechanism,
               "policy": cfg.policy},
    )
    print(f"simulate: {cfg.episodes} episodes ({cfg.env.mechanism}) -> {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    mechanisms = args.mechanism or list(MECHANISMS)
    if len(mechanisms) < 2:
        raise ConfigInvalid(
            "mechanism: compare needs at least two (pass --mechanism twice)"
        )
    if cfg.episodes < 1:
        raise ConfigInvalid(f"episodes: compare needs at least one, got {cfg.episodes}")
    # each EnvConfig checks its mechanism's name
    env_cfgs = [dataclasses.replace(cfg.env, mechanism=m) for m in mechanisms]
    out = out_dir(args.out)
    policy = ScriptedPolicy(cfg.policy, margin=cfg.margin)

    table = []
    for env_cfg in env_cfgs:
        rows = run_episodes(env_cfg, policy, cfg.episodes, cfg.seed)
        table.append(
            {
                "mechanism": env_cfg.mechanism,
                **{m: float(np.mean([r[m] for r in rows])) for m in METRIC_NAMES},
            }
        )
    write_comparison_csv(out / "comparison.csv", table)
    write_manifest(
        out / "manifest.json", cfg.hash(), cfg.seed, cfg.episodes,
        extra={"command": "compare", "mechanisms": mechanisms},
    )
    for row in table:
        print(
            f"{row['mechanism']:7s} reward={row['reward']:+.4f} "
            f"emergency={row['emergency_kwh']:.4f} feedin={row['feedin_kwh']:.4f} "
            f"storage={row['storage_kwh']:.4f}"
        )
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out = out_dir(args.out)
    hyper = dataclasses.replace(cfg.learner, episodes=cfg.episodes)
    metrics_path = out / "metrics.csv"

    nets, start_episode, rows = None, 0, []
    if args.resume:
        nets, start_episode = load_checkpoint(
            Path(args.resume), cfg.env, hyper, cfg.seed
        )
        # the table the new episodes extend is checked before any training
        if metrics_path.exists():
            rows = read_metrics_csv(metrics_path, cfg.env.n_agents)

    result = train(cfg.env, hyper, cfg.seed, nets=nets, start_episode=start_episode)

    write_metrics_csv(metrics_path, rows + result.metrics, cfg.env.n_agents)
    save_checkpoint(
        out / "checkpoint.json", result.nets, hyper, cfg.hash(), cfg.seed,
        result.episodes_done,
    )
    write_manifest(
        out / "manifest.json", cfg.hash(), cfg.seed, result.episodes_done,
        extra={"command": "train"},
    )
    last = result.metrics[-1]["reward"] if result.metrics else float("nan")
    print(
        f"train: {len(result.metrics)} episodes (total {result.episodes_done}) "
        f"last reward {last:+.4f} -> {out}"
    )
    return 0


def cmd_export(args) -> int:
    src = Path(args.input)
    rows = read_metrics_csv(src) if src.suffix == ".csv" else metrics_from_trajectory(src)
    text = export_tidy(rows, args.format)
    out = Path(args.out)
    if out.is_dir():
        out = out / f"tidy.{args.format}"
    write_text(out, text)
    print(f"export: {len(rows)} episodes -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridtrade",
        description="Multi-microgrid intraday P2P market simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--config", type=str, default=None,
                       help="YAML run config (bundled defaults if omitted)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--out", type=str, default=out_default)

    p = sub.add_parser("simulate", help="run scripted-policy episodes")
    common(p, "runs/simulate")
    p.add_argument("--mechanism", type=str, default=None, choices=MECHANISMS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="paired-seed mechanism comparison")
    common(p, "runs/compare")
    p.add_argument("--mechanism", action="append", default=None,
                   help="repeat for each mechanism (default: all four)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="train the recurrent PPO agents")
    common(p, "runs/train")
    p.add_argument("--mechanism", type=str, default=None, choices=MECHANISMS)
    p.add_argument("--resume", type=str, default=None,
                   help="checkpoint.json to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="convert results to a tidy table")
    p.add_argument("--input", type=str, required=True,
                   help="trajectory.jsonl or metrics.csv")
    p.add_argument("--format", type=str, default="csv")
    p.add_argument("--out", type=str, default="runs/export")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GridTradeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
