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
from .env import MECHANISMS
from .errors import ConfigInvalid, GridTradeError, IoError
from .marl.train import episode_metrics, train
from .policies import ScriptedPolicy
from .reporting import (
    METRIC_NAMES,
    TrajectoryWriter,
    export_tidy,
    load_checkpoint,
    read_metrics_csv,
    read_trajectory,
    save_checkpoint,
    write_manifest,
    write_metrics_csv,
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


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {out}: {e}") from e
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args.out)
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
    for m in mechanisms:
        if m not in MECHANISMS:
            raise ConfigInvalid(f"mechanism: unknown name {m!r}")
    out = _out_dir(args.out)
    policy = ScriptedPolicy(cfg.policy, margin=cfg.margin)

    table = []
    for mech in mechanisms:
        env_cfg = dataclasses.replace(cfg.env, mechanism=mech)
        rows = run_episodes(env_cfg, policy, cfg.episodes, cfg.seed)
        table.append(
            {
                "mechanism": mech,
                **{m: float(np.mean([r[m] for r in rows])) for m in METRIC_NAMES},
            }
        )
    base = table[0]
    lines = ["mechanism," + ",".join(METRIC_NAMES) + ","
             + ",".join(f"delta_{m}" for m in METRIC_NAMES)]
    for row in table:
        values = [repr(row[m]) for m in METRIC_NAMES]
        deltas = [repr(row[m] - base[m]) for m in METRIC_NAMES]
        lines.append(row["mechanism"] + "," + ",".join(values + deltas))
    _write_text(out / "comparison.csv", "\n".join(lines) + "\n")
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
    out = _out_dir(args.out)
    hyper = dataclasses.replace(cfg.learner, episodes=cfg.episodes)

    nets, start_episode = None, 0
    if args.resume:
        nets, start_episode = load_checkpoint(
            Path(args.resume), cfg.env, hyper, cfg.seed
        )

    result = train(cfg.env, hyper, cfg.seed, nets=nets, start_episode=start_episode)

    metrics_path = out / "metrics.csv"
    if args.resume and metrics_path.exists():
        rows = read_metrics_csv(metrics_path) + result.metrics
    else:
        rows = result.metrics
    write_metrics_csv(metrics_path, rows, cfg.env.n_agents)
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
    if src.suffix == ".csv":
        rows = read_metrics_csv(src)
        n_agents = _agent_count_from_rows(rows)
    else:
        rows, n_agents = _metrics_from_trajectory(read_trajectory(src), src)
    text = export_tidy(rows, n_agents, args.format)
    out = Path(args.out)
    if out.is_dir():
        out = out / f"tidy.{args.format}"
    _write_text(out, text)
    print(f"export: {len(rows)} episodes -> {out}")
    return 0


def _agent_count_from_rows(rows) -> int:
    if not rows:
        return 0
    n = 0
    while f"reward_agent{n}" in rows[0]:
        n += 1
    return n


def _metrics_from_trajectory(records: list[dict], path: Path) -> tuple[list[dict], int]:
    """Group step records by episode and hour into the per-episode table."""
    try:
        episodes: dict[int, list[dict]] = {}
        for rec in records:
            episodes.setdefault(rec["episode"], []).append(rec)
        rows = []
        for ep in sorted(episodes):
            steps = sorted(episodes[ep], key=lambda r: r["hour"])
            rows.append(episode_metrics(
                ep,
                [s["rewards"] for s in steps],
                [[x["q_e"] for x in s["settlements"]] for s in steps],
                [[x["q_fit"] for x in s["settlements"]] for s in steps],
                [s["soc"] for s in steps],
            ))
        return rows, len(records[0]["rewards"]) if records else 0
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise IoError(f"malformed trajectory record in {path}: {e!r}") from e


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
