"""Run configuration: YAML file loading, validation, overrides, hashing.

A run config is a single human-editable YAML file covering the fleet,
scenario inputs, market mechanism, noise/disruption settings, the learner,
and the seed. Every key can be overridden through environment variables
with the ``GRIDTRADE_`` prefix, nesting expressed with double underscores
(``GRIDTRADE_LEARNER__GAMMA=0.9``). The parsed dictionary hashes stably so
run manifests can pin the exact configuration.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .env import EnvConfig
from .errors import ConfigInvalid, file_errors
from .marl.train import Hyperparams
from .microgrid import DEFAULT_FLEET, MicrogridParams
from .policies import POLICY_RULES, ScriptedPolicy
from .scenario import (
    HOURS,
    DailyProfile,
    DisruptionConfig,
    PriceSchedule,
    bundled_price_schedule,
)

ENV_PREFIX = "GRIDTRADE_"

# The config file's parser: libyaml's when pyyaml was built with it (about
# ten times faster), else the pure-Python one; both use the same safe
# constructors and resolvers.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class RunConfig:
    env: EnvConfig
    learner: Hyperparams
    policy: str
    margin: float
    seed: int
    episodes: int
    raw: dict

    def hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict) -> str:
    """Stable digest of a parsed config dictionary."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_config_dict() -> dict:
    """The reference four-microgrid setup as a plain dictionary."""
    return {
        "seed": 1,
        "episodes": 10,
        "mechanism": "jpq",
        "policy": "net-position",
        "margin": 0.1,
        "fleet": [
            {
                "l_max": p.l_max,
                "g_max": p.g_max,
                "e_max": p.e_max,
                "t_charge_max": p.t_charge_max,
                "t_discharge_max": p.t_discharge_max,
                "e0": p.e0,
                "beta": p.beta,
            }
            for p in DEFAULT_FLEET
        ],
        "profiles": "bundled",
        "prices": "bundled",
        "market_factor": {"lower": -30.0, "upper": -20.0},
        "noise": {"process_sigma": 0.10, "obs_sigma": 0.05},
        "disruption": {
            "p_sudden": 0.15,
            "p_gradual": 0.10,
            "p_failure": 0.01,
            "use_reported": False,
        },
        "mrda": {"rounds": 3, "concession": 0.5},
        "window": {"past": 1, "future": 6},
        "carry_over_soc": False,
        "learner": {},
    }


def apply_env_overrides(raw: dict, environ: dict) -> dict:
    """Fold GRIDTRADE_* environment variables into the config dictionary."""
    out = json.loads(json.dumps(raw))  # deep copy of plain data
    for key, value in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].lower().split("__")
        node = out
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        try:
            node[path[-1]] = yaml.safe_load(value)
        except yaml.YAMLError as e:
            raise ConfigInvalid(f"{key} is not valid YAML: {e}") from e
    return out


def _hourly_csv(path: Path, section: str, columns: tuple[str, ...], make):
    """`make(**series)` over the numeric `columns` of a 24-row hourly CSV file."""
    with file_errors(path, "read"), open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != HOURS:
        raise ConfigInvalid(f"{section}: {path} must have {HOURS} rows, found {len(rows)}")
    try:
        series = {c: np.array([float(r[c]) for r in rows]) for c in columns}
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigInvalid(
            f"{section}: {path} needs numeric hour,{','.join(columns)} columns"
        ) from e
    try:
        return make(**series)
    except ValueError as e:
        raise ConfigInvalid(f"{section}: {path}: {e}") from e


def _whole(value) -> int:
    """`value` as an int; a bool or a fractional float is an error, not truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _setting(merged: dict, section: str, key: str, kind):
    """One numeric setting of a config section, converted by `kind`."""
    value = merged[section][key]
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigInvalid(f"{section}.{key}: {e}") from e


def _flag(name: str, value) -> bool:
    """A yes/no setting; only a YAML boolean counts, so the string 'no' is an error."""
    if not isinstance(value, bool):
        raise ConfigInvalid(f"{name}: must be true or false, got {value!r}")
    return value


def config_from_dict(raw: dict, base_dir: Path | str = ".") -> RunConfig:
    """Validate a parsed config dictionary into typed objects."""
    base_dir = Path(base_dir)
    merged = default_config_dict()
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value

    known = set(default_config_dict().keys())
    unknown = set(merged.keys()) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")

    try:
        fleet = tuple(MicrogridParams(**entry) for entry in merged["fleet"])
    except (TypeError, ValueError) as e:
        raise ConfigInvalid(f"fleet: {e}") from e

    profiles = None
    if merged["profiles"] != "bundled":
        paths = merged["profiles"]
        if isinstance(paths, str):
            paths = [paths]
        if not isinstance(paths, (list, tuple)) or not all(isinstance(p, str) for p in paths):
            raise ConfigInvalid(f"profiles: expected 'bundled' or CSV paths, got {paths!r}")
        if len(paths) != len(fleet):
            raise ConfigInvalid(
                f"profiles: need one file per fleet member ({len(fleet)}), got {len(paths)}"
            )
        profiles = tuple(
            _hourly_csv(base_dir / p, "profiles", ("load", "pv"), DailyProfile) for p in paths
        )

    if merged["prices"] == "bundled":
        prices = bundled_price_schedule()
    elif isinstance(merged["prices"], dict):
        spec = merged["prices"]
        try:
            prices = PriceSchedule(
                feed_in=float(spec.get("feed_in", 0.2)),
                emergency=np.full(HOURS, float(spec["emergency_flat"]))
                if "emergency_flat" in spec
                else np.asarray(spec["emergency"], dtype=float),
                day_ahead=float(spec.get("day_ahead", 0.5)),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigInvalid(f"prices: {e}") from e
    elif isinstance(merged["prices"], str):
        schedule = functools.partial(PriceSchedule, feed_in=0.2, day_ahead=0.5)
        prices = _hourly_csv(base_dir / merged["prices"], "prices", ("emergency",), schedule)
    else:
        raise ConfigInvalid(f"prices: expected 'bundled', a mapping or a CSV path, "
                            f"got {merged['prices']!r}")

    try:
        dis = dict(merged["disruption"])
        for name in ("ramp_hours", "failure_hours"):
            if name in dis:
                dis[name] = _setting(merged, "disruption", name, _whole)
        if _flag("disruption.use_reported", dis.pop("use_reported", False)):
            # reported rates win unless the user explicitly set a probability
            user_dis = raw.get("disruption") or {}
            base = DisruptionConfig.reported()
            for name in ("p_sudden", "p_gradual", "p_failure"):
                if name not in user_dis:
                    dis[name] = getattr(base, name)
        disruption = DisruptionConfig(**dis)
    except (TypeError, ValueError) as e:
        raise ConfigInvalid(f"disruption: {e}") from e

    if merged["policy"] not in POLICY_RULES:
        raise ConfigInvalid(
            f"policy: unknown rule {merged['policy']!r}, expected one of {POLICY_RULES}"
        )
    try:
        margin = float(merged["margin"])
        ScriptedPolicy(merged["policy"], margin)  # the policy's own range check
    except (TypeError, ValueError) as e:
        raise ConfigInvalid(f"margin: {e}") from e

    try:
        env = EnvConfig(
            fleet=fleet,
            profiles=profiles,
            prices=prices,
            mechanism=merged["mechanism"],
            mrda_rounds=_setting(merged, "mrda", "rounds", _whole),
            mrda_concession=_setting(merged, "mrda", "concession", float),
            m_lower=_setting(merged, "market_factor", "lower", float),
            m_upper=_setting(merged, "market_factor", "upper", float),
            process_sigma=_setting(merged, "noise", "process_sigma", float),
            obs_sigma=_setting(merged, "noise", "obs_sigma", float),
            disruption=disruption,
            delta_past=_setting(merged, "window", "past", _whole),
            delta_future=_setting(merged, "window", "future", _whole),
            carry_over_soc=_flag("carry_over_soc", merged["carry_over_soc"]),
        )
    except (TypeError, KeyError) as e:
        raise ConfigInvalid(str(e)) from e

    try:
        learner_kw = dict(merged["learner"])
        for key in ("actor_hidden", "critic_hidden", "action_bias"):
            if key in learner_kw:
                learner_kw[key] = tuple(learner_kw[key])
        learner = Hyperparams(**learner_kw)
    except (TypeError, ValueError) as e:
        raise ConfigInvalid(f"learner: {e}") from e

    seed = merged["seed"]
    episodes = merged["episodes"]
    for name, value in (("seed", seed), ("episodes", episodes)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigInvalid(f"{name}: must be a non-negative integer, got {value!r}")

    return RunConfig(
        env=env,
        learner=learner,
        policy=merged["policy"],
        margin=margin,
        seed=seed,
        episodes=episodes,
        raw=merged,
    )


def load_config(
    path: str | Path | None, environ: dict | None = None, overrides: dict | None = None
) -> RunConfig:
    """Load a YAML config file (or the bundled defaults) with overrides.

    Precedence: file < environment variables < explicit overrides (CLI).
    """
    if path is None:
        raw = {}
        base_dir = Path(".")
    else:
        path = Path(path)
        with file_errors(path, "read config"):
            text = path.read_text()
        try:
            raw = yaml.load(text, Loader=_YAML_LOADER) or {}
        except yaml.YAMLError as e:
            raise ConfigInvalid(f"config is not valid YAML: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigInvalid("config root must be a mapping")
        base_dir = path.parent
    if environ is not None:
        raw = apply_env_overrides(raw, environ)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    return config_from_dict(raw, base_dir)
