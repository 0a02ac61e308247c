"""Scenario construction: daily profiles, stochastic realizations, prices.

Profiles are 24-hour base shapes normalized to [0, 1]; realizations scale
them by the plant limits and inject Gaussian process noise, PV output is
additionally subject to three disruption processes, and the price schedule
carries the fixed feed-in tariff plus an hourly emergency price curve.

Randomness is counter-based: every stream is derived from an explicit seed
path (seed, agent, purpose[, hour]) so adding agents or reordering draws
never perturbs anyone else's realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, IndexOutOfRange, NonHourlyData
from .microgrid import MicrogridParams

HOURS = 24

# purpose tags for seed paths
STREAM_LOAD = 0
STREAM_DISRUPTION = 2
STREAM_OBS = 3
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

    feed_in: float
    emergency: np.ndarray
    day_ahead: float = 0.5

    def __post_init__(self):
        arr = np.asarray(self.emergency, dtype=float)
        if arr.shape != (HOURS,):
            raise ValueError(f"emergency schedule must have exactly {HOURS} values")
        if not np.isfinite(arr).all():
            raise ValueError("emergency schedule must be finite")
        if not (0 <= self.feed_in <= self.day_ahead <= arr.min()):
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
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")
        if not (0.0 <= self.drop_lo <= self.drop_hi <= 1.0):
            raise ValueError("drop factor range must satisfy 0 <= lo <= hi <= 1")
        if self.ramp_hours < 1 or self.failure_hours < 1:
            raise ValueError("effect durations must be at least one hour")

    @classmethod
    def reported(cls) -> "DisruptionConfig":
        """The disruption rates exactly as reported (sudden drops 85%/h)."""
        s, g, f = REPORTED_DISRUPTION_PROBS
        return cls(p_sudden=s, p_gradual=g, p_failure=f)

    @classmethod
    def disabled(cls) -> "DisruptionConfig":
        return cls(p_sudden=0.0, p_gradual=0.0, p_failure=0.0)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def hourly_shape(series) -> np.ndarray:
    """Collapse an hourly series to a min-max scaled 24-hour mean shape.

    Hour-of-day means are taken over however many days the series covers,
    then affinely rescaled to [0, 1]; a constant series maps to all zeros
    (zero-range convention).
    """
    arr = np.asarray(series, dtype=float).ravel()
    if arr.size == 0:
        raise EmptySeries("input series is empty")
    if arr.size < HOURS:
        raise NonHourlyData(f"need at least {HOURS} hourly samples, got {arr.size}")
    if not np.isfinite(arr).all():
        raise NonHourlyData("series contains NaN or infinite samples")
    hours = np.arange(arr.size) % HOURS
    means = np.array([arr[hours == h].mean() for h in range(HOURS)])
    span = means.max() - means.min()
    if span == 0:
        return np.zeros(HOURS)
    return (means - means.min()) / span


def normalize_annual(load_series, pv_series) -> DailyProfile:
    """Build a representative daily profile from raw hourly load and PV data."""
    return DailyProfile(load=hourly_shape(load_series), pv=hourly_shape(pv_series))


# ---------------------------------------------------------------------------
# Bundled defaults
# ---------------------------------------------------------------------------

def bundled_profile(index: int) -> DailyProfile:
    """Synthetic household profile: evening-peak load, midday PV bell.

    The four variants differ slightly in peak position and width so the
    fleet is heterogeneous; shapes are deterministic closed forms.
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
    return PriceSchedule(feed_in=0.2, emergency=1.5 + 2.0 * shape, day_ahead=0.5)


def emergency_price(t: int, schedule: PriceSchedule) -> float:
    """Emergency price for hour t (0..23)."""
    if not (0 <= t < HOURS):
        raise IndexOutOfRange(f"hour {t} outside [0, {HOURS})")
    return float(schedule.emergency[t])


# ---------------------------------------------------------------------------
# Stochastic realization
# ---------------------------------------------------------------------------

def sample_realization(
    profile: DailyProfile,
    params: MicrogridParams,
    noise_sigma: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one day of realized load and PV from the base profile.

    Gaussian noise is injected in the normalized domain, then scaled by the
    plant limits and clamped to the physical range.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    load_noise = rng.normal(0.0, noise_sigma, HOURS) if noise_sigma else np.zeros(HOURS)
    pv_noise = rng.normal(0.0, noise_sigma, HOURS) if noise_sigma else np.zeros(HOURS)
    load = np.clip(params.l_max * (profile.load + load_noise), 0.0, params.l_max)
    gen = np.clip(params.g_max * (profile.pv + pv_noise), 0.0, params.g_max)
    return load, gen


def apply_sudden_drop(gen: np.ndarray, hour: int, factor: float) -> np.ndarray:
    """Multiply one hour's PV output by a drop factor."""
    out = gen.copy()
    out[hour] *= factor
    return out


def apply_gradual_decline(
    gen: np.ndarray, hour: int, ramp_hours: int, floor: float = 0.5
) -> np.ndarray:
    """Ramp PV output linearly down to the floor fraction, then hold it."""
    out = gen.copy()
    for k in range(hour, len(out)):
        step = k - hour
        if step < ramp_hours:
            factor = 1.0 - (1.0 - floor) * (step + 1) / ramp_hours
        else:
            factor = floor
        out[k] *= factor
    return out


def apply_failure(gen: np.ndarray, hour: int, duration: int) -> np.ndarray:
    """Zero PV output for `duration` hours starting at `hour`."""
    out = gen.copy()
    out[hour : hour + duration] = 0.0
    return out


def apply_pv_disruption(
    gen: np.ndarray, cfg: DisruptionConfig, rng: np.random.Generator
) -> np.ndarray:
    """Sample the three disruption processes independently per hour.

    Effects compose multiplicatively, so disrupted output never exceeds
    the undisrupted series and never goes negative.
    """
    out = np.asarray(gen, dtype=float).copy()
    for t in range(len(out)):
        if rng.random() < cfg.p_sudden:
            out = apply_sudden_drop(out, t, rng.uniform(cfg.drop_lo, cfg.drop_hi))
        if rng.random() < cfg.p_gradual:
            out = apply_gradual_decline(out, t, cfg.ramp_hours, cfg.ramp_floor)
        if rng.random() < cfg.p_failure:
            out = apply_failure(out, t, cfg.failure_hours)
    return out
