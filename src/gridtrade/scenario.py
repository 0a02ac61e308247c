"""Scenario construction: daily profiles, stochastic realizations, prices.

Profiles are 24-hour base shapes normalized to [0, 1]; realizations scale
them by the plant limits and inject Gaussian process noise, PV output is
additionally subject to three disruption processes, and the price schedule
carries the fixed feed-in tariff plus an hourly emergency price curve.

Randomness is counter-based: every stream is derived from an explicit seed
path, so adding agents or reordering draws never perturbs anyone else's
realization. Microgrid i's day comes from the one (seed, i, STREAM_DAY)
stream: `draw_day` takes from it, in this order and always at full size,
the (2, HOURS) process noise, the (HOURS, 4) disruption uniforms and the
(HOURS, W, 2) observation noise. Each hour's draws therefore depend only on
(seed, agent, hour, slot), whatever the horizon, sigmas or disruption
probabilities. The random scripted policy draws from (seed, i,
STREAM_ACTION, hour).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import real, whole
from .microgrid import FleetParams

HOURS = 24

# purpose tags for seed paths
STREAM_DAY = 1
STREAM_ACTION = 4

#: hourly disruption probabilities as printed in the source material
#: (sudden drop, gradual decline, complete failure); the 85% figure is
#: implausibly high for a per-hour event rate, so the default config below
#: uses a toned-down sudden-drop probability and these remain opt-in.
REPORTED_DISRUPTION_PROBS = (0.85, 0.10, 0.01)


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for an explicit (seed, *path) counter path."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


@dataclass(frozen=True)
class DailyProfile:
    """Normalized 24-hour load and PV shapes."""

    load: np.ndarray
    pv: np.ndarray

    def __post_init__(self):
        for name, arr in (("load", self.load), ("pv", self.pv)):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (HOURS,):
                raise ValueError(f"{name} profile must have exactly {HOURS} values")
            if not np.isfinite(arr).all() or arr.min() < 0 or arr.max() > 1:
                raise ValueError(f"{name} profile values must lie in [0, 1]")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PriceSchedule:
    """Fixed feed-in tariff plus a 24-hour emergency price curve."""

    emergency: np.ndarray
    feed_in: float = 0.2
    day_ahead: float = 0.5

    def __post_init__(self):
        emergency = self.emergency
        if not isinstance(emergency, np.ndarray):
            emergency = [real(f"emergency[{h}]", v) for h, v in enumerate(emergency)]
        arr = np.asarray(emergency, dtype=float)
        if arr.shape != (HOURS,):
            raise ValueError(f"emergency schedule must have exactly {HOURS} values")
        if not np.isfinite(arr).all():
            raise ValueError("emergency schedule must be finite")
        if not (0 <= real("feed_in", self.feed_in) <= real("day_ahead", self.day_ahead)
                <= arr.min()):
            raise ValueError(
                "price hierarchy violated: need feed_in <= day_ahead <= emergency at every hour"
            )
        object.__setattr__(self, "emergency", arr)


@dataclass(frozen=True)
class DisruptionConfig:
    """Per-hour probabilities and effect shapes for the three PV disruption types."""

    p_sudden: float = 0.15
    p_gradual: float = 0.10
    p_failure: float = 0.01
    drop_lo: float = 0.5
    drop_hi: float = 0.9
    ramp_hours: int = 3
    ramp_floor: float = 0.5
    failure_hours: int = HOURS

    def __post_init__(self):
        for name in ("p_sudden", "p_gradual", "p_failure"):
            if not (0.0 <= real(name, getattr(self, name)) <= 1.0):
                raise ValueError(f"{name} must be a probability, got {getattr(self, name)}")
        if not (0.0 <= real("drop_lo", self.drop_lo) <= real("drop_hi", self.drop_hi) <= 1.0):
            raise ValueError("drop factor range must satisfy 0 <= drop_lo <= drop_hi <= 1")
        if not (0.0 <= real("ramp_floor", self.ramp_floor) <= 1.0):
            raise ValueError(f"ramp_floor must lie in [0, 1], got {self.ramp_floor}")
        whole("ramp_hours", self.ramp_hours, 1)
        whole("failure_hours", self.failure_hours, 1)

    @classmethod
    def reported(cls) -> "DisruptionConfig":
        """The disruption rates exactly as reported (sudden drops 85%/h)."""
        s, g, f = REPORTED_DISRUPTION_PROBS
        return cls(p_sudden=s, p_gradual=g, p_failure=f)


# ---------------------------------------------------------------------------
# Bundled defaults
# ---------------------------------------------------------------------------

@functools.cache
def bundled_profile(index: int) -> DailyProfile:
    """Synthetic household profile: evening-peak load, midday PV bell.

    The four variants differ slightly in peak position and width so the
    fleet is heterogeneous; shapes are deterministic closed forms, built
    once per index and process. Every caller shares the result, so its
    arrays are read-only.
    """
    h = np.arange(HOURS, dtype=float)
    evening = np.exp(-0.5 * ((h - (18.5 + 0.5 * (index % 4))) / 2.5) ** 2)
    morning = 0.45 * np.exp(-0.5 * ((h - 7.0 - 0.3 * index) / 1.8) ** 2)
    base = 0.18 + 0.06 * np.sin(2 * np.pi * (h + 3 * index) / HOURS)
    load = base + evening + morning
    load = (load - load.min()) / (load.max() - load.min())

    center = 12.0 + 0.4 * (index % 3)
    width = 3.0 + 0.25 * index
    pv = np.exp(-0.5 * ((h - center) / width) ** 2)
    pv[(h < 6) | (h > 20)] = 0.0  # no output outside daylight
    pv[pv < 0.02] = 0.0
    pv = pv / pv.max()
    load.flags.writeable = pv.flags.writeable = False
    return DailyProfile(load=load, pv=pv)


def bundled_price_schedule() -> PriceSchedule:
    """Smooth double-peak emergency price curve spanning [1.5, 3.5] exactly.

    The shape (morning and evening peaks) is a configuration default, not
    ground truth; only the range and the 0.2 feed-in tariff are fixed.
    """
    h = np.arange(HOURS, dtype=float)
    shape = (
        np.exp(-0.5 * ((h - 8.5) / 2.2) ** 2)
        + 1.25 * np.exp(-0.5 * ((h - 19.0) / 2.6) ** 2)
    )
    shape = (shape - shape.min()) / (shape.max() - shape.min())
    return PriceSchedule(emergency=1.5 + 2.0 * shape)


# ---------------------------------------------------------------------------
# Stochastic realization
# ---------------------------------------------------------------------------

class DayDraws(NamedTuple):
    """A fleet's random draws for one day, row i from microgrid i's stream."""

    process: np.ndarray      # (n, 2, HOURS) standard normals: load, PV
    disruption: np.ndarray   # (n, HOURS, 4) uniforms: sudden, gradual, failure, drop factor
    obs: np.ndarray          # (n, HOURS, W, 2) standard normals: load, PV per window slot


def draw_day(rngs: list[np.random.Generator], window_len: int) -> DayDraws:
    """Take each microgrid's fixed-shape block for the day from its stream."""
    n = len(rngs)
    draws = DayDraws(
        np.empty((n, 2, HOURS)), np.empty((n, HOURS, 4)), np.empty((n, HOURS, window_len, 2))
    )
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=draws.process[i])
        rng.random(out=draws.disruption[i])
        rng.standard_normal(out=draws.obs[i])
    return draws


def sample_realization(
    base: np.ndarray, plant: FleetParams, noise_sigma: float, noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The fleet's realized (n, HOURS) load and PV from its base shapes.

    `base` and `noise` are (n, 2, HOURS), load then PV: the normalized
    shapes and standard-normal process noise. The noise is scaled by
    `noise_sigma` and injected in the normalized domain, then the day is
    scaled by the plant limits and clamped to the physical range.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    limits = np.stack([plant.l_max, plant.g_max], axis=1)[:, :, None]
    day = np.clip(limits * (base + noise_sigma * noise), 0.0, limits)
    return day[:, 0], day[:, 1]


#: [t, k] = k - t, the lag of hour k behind an event at hour t
_LAG = np.arange(HOURS)[None, :] - np.arange(HOURS)[:, None]


def apply_pv_disruption(
    gen: np.ndarray, cfg: DisruptionConfig, uniforms: np.ndarray
) -> np.ndarray:
    """The fleet's (n, HOURS) PV output after the three disruption processes.

    `uniforms` is (n, HOURS, 4): at hour t a sudden drop, a gradual decline
    and a failure each start when their uniform falls below the process's
    probability, and the fourth uniform sets the drop factor in
    [drop_lo, drop_hi]. A drop scales hour t alone; a decline ramps linearly
    from hour t down to `ramp_floor` over `ramp_hours`, then holds it; a
    failure zeroes `failure_hours` hours from t. Every event is an
    (n, HOURS, HOURS) factor mask over (start, hour) and the effects compose
    multiplicatively, so disrupted output never exceeds the undisrupted
    series and never goes negative; with no event the output equals `gen`.
    """
    hit = uniforms[..., :3] < (cfg.p_sudden, cfg.p_gradual, cfg.p_failure)
    drop = cfg.drop_lo + (cfg.drop_hi - cfg.drop_lo) * uniforms[..., 3]
    ramp = np.where(
        _LAG < cfg.ramp_hours,
        1.0 - (1.0 - cfg.ramp_floor) * (_LAG + 1) / cfg.ramp_hours,
        cfg.ramp_floor,
    )
    ramp = np.where(_LAG >= 0, ramp, 1.0)
    failure = np.where((_LAG >= 0) & (_LAG < cfg.failure_hours), 0.0, 1.0)
    sudden = np.where(hit[..., 0, None] & (_LAG == 0), drop[..., None], 1.0)
    gradual = np.where(hit[..., 1, None], ramp, 1.0)
    failed = np.where(hit[..., 2, None], failure, 1.0)
    return gen * (sudden * gradual * failed).prod(axis=1)
