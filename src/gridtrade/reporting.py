"""Run files: every file the CLI reads or writes.

Metrics and comparison tables, trajectories, tidy exports, checkpoints and
manifests are formatted, read and written here, and nowhere else. All
writers are byte-deterministic: floats are rendered with repr, JSON uses
sorted keys, and nothing timestamps the output, so identical runs produce
identical files. A file that cannot be read or written raises `IoError`
naming its path.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .env import METRIC_NAMES, EnvConfig, episode_metrics, metrics_columns
from .errors import ChecksumMismatch, IoError, UnknownFormat, file_errors, whole
from .marl.train import FleetNets, Hyperparams, build_nets


def out_dir(path: str | Path) -> Path:
    """The output directory `path`, created if missing."""
    out = Path(path)
    with file_errors(out, "create"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def write_text(path: Path, text: str) -> None:
    with file_errors(path, "write"):
        Path(path).write_text(text)


def csv_text(header, rows) -> str:
    """CSV text: a header line, then one line per row; floats through repr."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _agent_count(columns) -> int:
    """The fleet size of a metrics table with these columns (`metrics_columns`' inverse)."""
    return (len(columns) - 1) // len(METRIC_NAMES) - 1


def write_metrics_csv(path: Path, rows: list[dict], n_agents: int) -> None:
    """Per-episode metrics: community hourly means plus per-agent columns."""
    header = metrics_columns(n_agents)
    write_text(path, csv_text(header, ([row[col] for col in header] for row in rows)))


def read_metrics_csv(path: Path, n_agents: int | None = None) -> list[dict]:
    """The rows of a metrics table, for any fleet size or, if given, `n_agents` agents."""
    try:
        with file_errors(path, "read"), open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            if header != metrics_columns(_agent_count(header) if n_agents is None else n_agents):
                fleet = "" if n_agents is None else f" of {n_agents} agents"
                raise IoError(f"{path} is not a metrics table{fleet}")
            return [
                {c: (int(v) if c == "episode" else float(v)) for c, v in row.items()}
                for row in reader
            ]
    except (TypeError, ValueError) as e:
        raise IoError(f"malformed metrics file {path}: {e}") from e


def write_comparison_csv(path: Path, table: list[dict]) -> None:
    """Per mechanism: each metric's episode mean and its change from the first row."""
    base = table[0]
    header = ["mechanism", *METRIC_NAMES, *(f"delta_{m}" for m in METRIC_NAMES)]
    write_text(path, csv_text(header, (
        [row["mechanism"], *(row[m] for m in METRIC_NAMES),
         *(row[m] - base[m] for m in METRIC_NAMES)]
        for row in table
    )))


class TrajectoryWriter:
    """JSON-lines trajectory sink, one record per environment step."""

    def __init__(self, path: Path):
        self._path = path
        with file_errors(path, "write"):
            self._fh = open(path, "w")

    def __call__(self, record: dict) -> None:
        with file_errors(self._path, "write"):
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        with file_errors(self._path, "write"):
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def metrics_from_trajectory(path: Path) -> list[dict]:
    """The metrics table of a trajectory file, its step records grouped by
    episode and hour; each record holds the fleet columns of `env.step_record`."""
    try:
        with file_errors(path, "read"), open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        episodes: dict[int, list[dict]] = {}
        for rec in records:
            episodes.setdefault(rec["episode"], []).append(rec)
        rows = []
        for ep in sorted(episodes):
            steps = sorted(episodes[ep], key=lambda r: r["hour"])
            rows.append(episode_metrics(
                ep,
                [s["rewards"] for s in steps],
                [s["settlements"]["q_e"] for s in steps],
                [s["settlements"]["q_fit"] for s in steps],
                [s["soc"] for s in steps],
            ))
        return rows
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise IoError(f"malformed trajectory file {path}: {e!r}") from e


def export_tidy(metrics_rows: list[dict], fmt: str) -> str:
    """Tidy (episode, metric, agent, value) table for plotting tools.

    Agents are indices plus a "community" aggregate row per metric, so the
    row count is episodes x metrics x (agents + 1).
    """
    n_agents = _agent_count(metrics_rows[0]) if metrics_rows else 0
    records = []
    for row in metrics_rows:
        for metric in METRIC_NAMES:
            records.append((row["episode"], metric, "community", row[metric]))
            for i in range(n_agents):
                records.append(
                    (row["episode"], metric, str(i), row[f"{metric}_agent{i}"])
                )
    if fmt == "csv":
        return csv_text(("episode", "metric", "agent", "value"), records)
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

# A checkpoint file is the envelope {"checksum":"<sha256 hex>","payload":...}
# in compact form, its payload rendered canonically: json.dumps with sorted
# keys and compact separators.
_ENVELOPE_HEAD = b'{"checksum":"'
_PAYLOAD_KEY = b'","payload":'
_PAYLOAD_START = len(_ENVELOPE_HEAD) + 64 + len(_PAYLOAD_KEY)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_CHUNK = 4096  # values rendered per piece


def _encode(value) -> bytes:
    return _ENCODER.encode(value).encode()


def _render(value) -> Iterator[bytes]:
    """The canonical JSON of `value`, json.dumps(value, sort_keys=True,
    separators=(",", ":")), as byte pieces of a few thousand values at most.

    Dicts and lists of containers render member by member, any other list a
    slice at a time. An iterator of float arrays renders as the list of all
    their values, so weights stream out without a whole-payload text.
    """
    if isinstance(value, dict):
        yield b"{"
        for i, key in enumerate(sorted(value)):
            yield (b"," if i else b"") + _encode(key) + b":"
            yield from _render(value[key])
        yield b"}"
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        yield b"["
        for i, item in enumerate(value):
            if i:
                yield b","
            yield from _render(item)
        yield b"]"
    elif isinstance(value, (list, Iterator)):
        pieces = (
            (value[i : i + _CHUNK] for i in range(0, len(value), _CHUNK))
            if isinstance(value, list) else (block.tolist() for block in value)
        )
        yield b"["
        sep = b""
        for piece in pieces:
            if piece:
                yield sep + _encode(piece)[1:-1]
                sep = b","
        yield b"]"
    else:
        yield _encode(value)


def _payload_checksum(payload: dict) -> str:
    digest = hashlib.sha256()
    for piece in _render(payload):
        digest.update(piece)
    return digest.hexdigest()


def _weight_pieces(row: np.ndarray) -> Iterator[np.ndarray]:
    """One agent's row of a parameter store, `_CHUNK` weights at a time."""
    for start in range(0, row.size, _CHUNK):
        yield row[start : start + _CHUNK]


def save_checkpoint(
    path: Path,
    nets: FleetNets,
    hyper: Hyperparams,
    config_hash: str,
    seed: int,
    episode: int,
) -> None:
    """Write the fleet's nets to `path`, replacing any file there only once
    the new one is whole.

    The payload is written and hashed one rendered piece at a time into a
    sibling file; its checksum slot at the front is filled in last.
    """
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
                "actor": _weight_pieces(nets.actor.store.data[k]),
                "critic": _weight_pieces(nets.critic.store.data[k]),
            }
            for k in range(nets.actor.n_agents)
        ],
    }
    partial = path.with_name(path.name + ".partial")
    digest = hashlib.sha256()
    with file_errors(path, "write checkpoint"):
        try:
            with open(partial, "wb") as fh:
                fh.write(_ENVELOPE_HEAD + b"0" * 64 + _PAYLOAD_KEY)
                for piece in _render(payload):
                    digest.update(piece)
                    fh.write(piece)
                fh.write(b"}")
                fh.seek(len(_ENVELOPE_HEAD))
                fh.write(digest.hexdigest().encode())
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)


def _own_payload_checksum(data: bytes) -> str | None:
    """The sha256 of the payload's bytes as they stand in the file, if the
    file is laid out as the writer's compact envelope; None otherwise."""
    if not (
        data.startswith(_ENVELOPE_HEAD)
        and data.startswith(_PAYLOAD_KEY, _PAYLOAD_START - len(_PAYLOAD_KEY))
        and data.endswith(b"}")
    ):
        return None
    return hashlib.sha256(memoryview(data)[_PAYLOAD_START:-1]).hexdigest()


def _verified_payload(path: Path) -> dict:
    """The payload of the checkpoint at `path`, once its checksum holds.

    A file in the writer's compact envelope is checked against its own
    payload bytes, with no re-rendering; any other file, or one whose own
    bytes do not match, against the canonical rendering of its payload.
    """
    with file_errors(path, "read checkpoint"):
        data = Path(path).read_bytes()
        text = data.decode()
    own = _own_payload_checksum(data)
    del data  # the parse below needs only the text
    try:
        envelope = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an int too long to convert
        raise ChecksumMismatch(f"checkpoint {path} is not valid JSON: {e}") from e
    envelope = envelope if isinstance(envelope, dict) else {}
    payload, checksum = envelope.get("payload"), envelope.get("checksum")
    if not isinstance(payload, dict) or not isinstance(checksum, str) or (
        (len(envelope) != 2 or checksum != own)
        and checksum != _payload_checksum(payload)
    ):
        raise ChecksumMismatch(f"checkpoint {path} failed its integrity check")
    return payload


def _weight_vector(path: Path, agent: int, part: str, values: list) -> np.ndarray:
    """`values` as float64, if each is a finite real number."""
    flat = None
    if set(map(type, values)) <= {float, int}:
        try:
            flat = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer beyond float64's range
            pass
    if flat is None or not np.isfinite(flat).all():
        raise ChecksumMismatch(
            f"checkpoint {path} agent {agent} {part} holds a weight that is not a finite real number"
        )
    return flat


def load_checkpoint(
    path: Path, env_config: EnvConfig, hyper: Hyperparams, seed: int
) -> tuple[FleetNets, int]:
    """Restore nets from a checkpoint; returns (nets, next episode index)."""
    payload = _verified_payload(path)
    missing = [key for key in ("version", "hyper", "agents", "episode") if key not in payload]
    if missing:
        raise ChecksumMismatch(f"checkpoint {path} lacks {', '.join(missing)}")
    agents = payload["agents"]
    if not isinstance(agents, list) or not all(
        isinstance(blob, dict) and isinstance(blob.get("actor"), list)
        and isinstance(blob.get("critic"), list)
        for blob in agents
    ):
        raise ChecksumMismatch(f"checkpoint {path} has an agent without actor and critic lists")
    stored = payload["hyper"]
    sizes = ("lstm_hidden", "actor_hidden", "critic_hidden")
    if not isinstance(stored, dict) or not all(key in stored for key in sizes):
        raise ChecksumMismatch(f"checkpoint {path} hyper lacks the network sizes")
    try:
        version = whole("version", payload["version"], 1)
        episode = whole("episode", payload["episode"], 0)
        for size in (stored["lstm_hidden"], *stored["actor_hidden"], *stored["critic_hidden"]):
            whole("hyper layer size", size, 1)
    except (TypeError, ValueError) as e:  # TypeError: a layer list that is no list
        raise ChecksumMismatch(f"checkpoint {path}: {e}") from e
    if version != CHECKPOINT_VERSION:
        raise ChecksumMismatch(f"checkpoint {path} version {version} not supported")
    if [stored[key] for key in sizes] != [
        hyper.lstm_hidden, list(hyper.actor_hidden), list(hyper.critic_hidden)
    ]:
        raise ChecksumMismatch(
            f"checkpoint {path} network sizes do not match the configured learner"
        )
    nets = build_nets(env_config, hyper, seed)
    if len(agents) != env_config.n_agents:
        raise ChecksumMismatch(
            f"checkpoint {path} has {len(agents)} agents, config has {env_config.n_agents}"
        )
    for i, blob in enumerate(agents):
        for part, net in (("actor", nets.actor), ("critic", nets.critic)):
            flat = _weight_vector(path, i, part, blob[part])
            row = net.store.data[i]
            if flat.size != row.size:
                raise ChecksumMismatch(f"checkpoint {path} agent {i} {part} does not fit the "
                                       f"configured nets: {flat.size} weights, not {row.size}")
            row[:] = flat
    return nets, episode


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
    write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
