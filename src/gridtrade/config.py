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
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .env import EnvConfig
from .errors import ConfigInvalid, file_errors, flag, real, whole
from .marl.train import Hyperparams
from .microgrid import DEFAULT_FLEET, MicrogridParams
from .policies import ScriptedPolicy
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
    raw: dict
    seed: int = 1
    episodes: int = 10

    def __post_init__(self):
        whole("seed", self.seed, 0)
        whole("episodes", self.episodes, 0)

    def hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict) -> str:
    """Stable digest of a parsed config dictionary."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


#: the plant parameters a config file states for each microgrid
_PLANT_KEYS = ("l_max", "g_max", "e_max", "t_charge_max", "t_discharge_max", "e0", "beta")


def default_config_dict() -> dict:
    """The reference four-microgrid setup as a plain dictionary; each default
    is read from the type that owns it."""
    return {
        "seed": RunConfig.seed,
        "episodes": RunConfig.episodes,
        "mechanism": EnvConfig.mechanism,
        "policy": ScriptedPolicy.rule,
        "margin": ScriptedPolicy.margin,
        "fleet": [{key: getattr(p, key) for key in _PLANT_KEYS} for p in DEFAULT_FLEET],
        "profiles": "bundled",
        "prices": "bundled",
        "market_factor": {"lower": EnvConfig.m_lower, "upper": EnvConfig.m_upper},
        "noise": {"process_sigma": EnvConfig.process_sigma, "obs_sigma": EnvConfig.obs_sigma},
        "disruption": {
            "p_sudden": DisruptionConfig.p_sudden,
            "p_gradual": DisruptionConfig.p_gradual,
            "p_failure": DisruptionConfig.p_failure,
            "use_reported": False,
        },
        "mrda": {"rounds": EnvConfig.mrda_rounds, "concession": EnvConfig.mrda_concession},
        "window": {"past": EnvConfig.delta_past, "future": EnvConfig.delta_future},
        "carry_over_soc": EnvConfig.carry_over_soc,
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
        except (yaml.YAMLError, ValueError) as e:
            raise ConfigInvalid(f"{key} is not valid YAML: {e}") from e
    return out


def _keyed(where: str, mapping, known) -> dict:
    """`mapping`, once it is a mapping that holds only `known` keys (a
    dataclass's `__dataclass_fields__` names the keys its constructor takes)."""
    if not isinstance(mapping, dict):
        raise ConfigInvalid(f"{where}: expected a mapping, got {mapping!r}")
    unknown = mapping.keys() - set(known)
    if unknown:
        raise ConfigInvalid(f"unknown {where} keys: {sorted(unknown, key=str)}")
    return mapping


def _built(where: str, make, **kw):
    """`make(**kw)`, with a rejected value reported as a ConfigInvalid naming `where`."""
    try:
        return make(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigInvalid(f"{where}: {e}") from e


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
    return _built(f"{section}: {path}", make, **series)


def config_from_dict(raw: dict, base_dir: Path | str = ".") -> RunConfig:
    """Map a parsed config dictionary's sections onto the typed objects,
    whose constructors check every value."""
    base_dir = Path(base_dir)
    defaults = default_config_dict()
    merged = default_config_dict()
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    _keyed("config", merged, defaults)
    mf, noise, mrda, window = (
        _keyed(name, merged[name], defaults[name])
        for name in ("market_factor", "noise", "mrda", "window")
    )

    if not isinstance(merged["fleet"], list):
        raise ConfigInvalid(f"fleet: expected a list of microgrids, got {merged['fleet']!r}")
    fleet = tuple(
        _built(f"fleet[{i}]", MicrogridParams,
               **_keyed(f"fleet[{i}]", entry, MicrogridParams.__dataclass_fields__))
        for i, entry in enumerate(merged["fleet"])
    )

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

    prices = merged["prices"]
    if prices == "bundled":
        prices = bundled_price_schedule()
    elif isinstance(prices, dict):
        spec = dict(_keyed("prices", prices, ("feed_in", "day_ahead", "emergency",
                                               "emergency_flat")))
        if "emergency_flat" in spec:
            flat = real("prices: emergency_flat", spec.pop("emergency_flat"))
            spec["emergency"] = np.full(HOURS, flat)
        prices = _built("prices", PriceSchedule, **spec)
    elif isinstance(prices, str):
        prices = _hourly_csv(base_dir / prices, "prices", ("emergency",), PriceSchedule)
    else:
        raise ConfigInvalid(f"prices: expected 'bundled', a mapping or a CSV path, "
                            f"got {prices!r}")

    dis = dict(_keyed("disruption", merged["disruption"],
                      (*DisruptionConfig.__dataclass_fields__, "use_reported")))
    if flag("disruption: use_reported", dis.pop("use_reported")):
        # reported rates win unless the user explicitly set a probability
        base = DisruptionConfig.reported()
        for name in ("p_sudden", "p_gradual", "p_failure"):
            if name not in raw["disruption"]:
                dis[name] = getattr(base, name)
    disruption = _built("disruption", DisruptionConfig, **dis)

    policy = _built("policy", ScriptedPolicy, rule=merged["policy"], margin=merged["margin"])

    env = EnvConfig(
        fleet=fleet,
        profiles=profiles,
        prices=prices,
        mechanism=merged["mechanism"],
        mrda_rounds=mrda["rounds"],
        mrda_concession=mrda["concession"],
        m_lower=mf["lower"],
        m_upper=mf["upper"],
        process_sigma=noise["process_sigma"],
        obs_sigma=noise["obs_sigma"],
        disruption=disruption,
        delta_past=window["past"],
        delta_future=window["future"],
        carry_over_soc=merged["carry_over_soc"],
    )

    learner = dict(_keyed("learner", merged["learner"], Hyperparams.__dataclass_fields__))
    for key in ("actor_hidden", "critic_hidden", "action_bias"):
        if isinstance(learner.get(key), list):
            learner[key] = tuple(learner[key])

    return RunConfig(
        env=env,
        learner=_built("learner", Hyperparams, **learner),
        policy=policy.rule,
        margin=float(policy.margin),
        seed=merged["seed"],
        episodes=merged["episodes"],
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
        except (yaml.YAMLError, ValueError) as e:  # ValueError: an int too long to read
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
