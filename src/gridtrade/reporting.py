"""Result serialization: metrics CSV, trajectories, exports, checkpoints.

All writers are byte-deterministic: floats are rendered with repr, JSON
uses sorted keys, and nothing timestamps the output, so identical runs
produce identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .env import EnvConfig
from .errors import ChecksumMismatch, IoError, UnknownFormat
from .marl.nets import flatten_params, load_flat_params
from .marl.train import METRIC_NAMES, AgentNets, Hyperparams, build_nets


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def write_metrics_csv(path: Path, rows: list[dict], n_agents: int) -> None:
    """Per-episode metrics: community hourly means plus per-agent columns."""
    header = ["episode"] + list(METRIC_NAMES)
    for i in range(n_agents):
        header += [f"{m}_agent{i}" for m in METRIC_NAMES]
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(row[col]) for col in header])
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def read_metrics_csv(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return [
                {k: (int(v) if k == "episode" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)
            ]
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    except (TypeError, ValueError) as e:
        raise IoError(f"malformed metrics file {path}: {e}") from e


class TrajectoryWriter:
    """JSON-lines trajectory sink, one record per environment step."""

    def __init__(self, path: Path):
        self._path = path
        try:
            self._fh = open(path, "w")
        except OSError as e:
            raise IoError(f"cannot write {path}: {e}") from e

    def __call__(self, record: dict) -> None:
        try:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError as e:
            raise IoError(f"cannot write {self._path}: {e}") from e

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError as e:
            raise IoError(f"cannot write {self._path}: {e}") from e

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_trajectory(path: Path) -> list[dict]:
    try:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise IoError(f"malformed trajectory file {path}: {e}") from e


def export_tidy(metrics_rows: list[dict], n_agents: int, fmt: str) -> str:
    """Tidy (episode, metric, agent, value) table for plotting tools.

    Agents are indices plus a "community" aggregate row per metric, so the
    row count is episodes x metrics x (agents + 1).
    """
    records = []
    for row in metrics_rows:
        for metric in METRIC_NAMES:
            records.append((row["episode"], metric, "community", row[metric]))
            for i in range(n_agents):
                records.append(
                    (row["episode"], metric, str(i), row[f"{metric}_agent{i}"])
                )
    if fmt == "csv":
        lines = ["episode,metric,agent,value"]
        lines += [f"{e},{m},{a},{_fmt(v)}" for e, m, a, v in records]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(
            [
                {"episode": e, "metric": m, "agent": a, "value": v}
                for e, m, a, v in records
            ],
            sort_keys=True,
        )
    raise UnknownFormat(f"export format must be 'csv' or 'json', got {fmt!r}")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _payload_checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def save_checkpoint(
    path: Path,
    nets: list[AgentNets],
    hyper: Hyperparams,
    config_hash: str,
    seed: int,
    episode: int,
) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "seed": seed,
        "episode": episode,
        "hyper": {
            "lstm_hidden": hyper.lstm_hidden,
            "actor_hidden": list(hyper.actor_hidden),
            "critic_hidden": list(hyper.critic_hidden),
        },
        "agents": [
            {
                "actor": flatten_params(ag.actor.params()).tolist(),
                "critic": flatten_params(ag.critic.params()).tolist(),
            }
            for ag in nets
        ],
    }
    # The payload is rendered once: the checksum is taken over the same
    # canonical bytes that form the envelope's "payload" member.
    body = _canonical(payload)
    checksum = hashlib.sha256(body).hexdigest()
    try:
        with open(path, "wb") as fh:
            fh.write(b'{"checksum":"%s","payload":' % checksum.encode())
            fh.write(body)
            fh.write(b"}")
    except OSError as e:
        raise IoError(f"cannot write checkpoint {path}: {e}") from e


def load_checkpoint(
    path: Path, env_config: EnvConfig, hyper: Hyperparams, seed: int
) -> tuple[list[AgentNets], int]:
    """Restore nets from a checkpoint; returns (nets, next episode index)."""
    try:
        envelope = json.loads(Path(path).read_text())
    except OSError as e:
        raise IoError(f"cannot read checkpoint {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ChecksumMismatch(f"checkpoint {path} is not valid JSON: {e}") from e
    payload = envelope.get("payload")
    if payload is None or envelope.get("checksum") != _payload_checksum(payload):
        raise ChecksumMismatch(f"checkpoint {path} failed its integrity check")
    if payload["version"] != CHECKPOINT_VERSION:
        raise ChecksumMismatch(
            f"checkpoint version {payload['version']} not supported"
        )
    stored = payload["hyper"]
    if (
        stored["lstm_hidden"] != hyper.lstm_hidden
        or tuple(stored["actor_hidden"]) != tuple(hyper.actor_hidden)
        or tuple(stored["critic_hidden"]) != tuple(hyper.critic_hidden)
    ):
        raise ChecksumMismatch(
            "checkpoint network sizes do not match the configured learner"
        )
    nets = build_nets(env_config, hyper, seed)
    if len(payload["agents"]) != len(nets):
        raise ChecksumMismatch(
            f"checkpoint has {len(payload['agents'])} agents, config has {len(nets)}"
        )
    for i, (ag, blob) in enumerate(zip(nets, payload["agents"])):
        for part, net in (("actor", ag.actor), ("critic", ag.critic)):
            try:
                load_flat_params(net.params(), np.asarray(blob[part], dtype=np.float64))
            except ValueError as e:
                raise ChecksumMismatch(
                    f"checkpoint agent {i} {part} does not fit the configured nets: {e}"
                ) from e
    return nets, int(payload["episode"])


def write_manifest(
    path: Path, config_hash: str, seed: int, episodes: int, extra: dict | None = None
) -> None:
    manifest = {
        "config_hash": config_hash,
        "seed": seed,
        "episodes": episodes,
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    manifest.update(extra or {})
    try:
        Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except OSError as e:
        raise IoError(f"cannot write manifest {path}: {e}") from e
