"""Multi-microgrid trading environment.

One episode is a 24-hour day. Each step runs the three-phase intraday
protocol: every agent's action decodes into a validated quotation plus a
storage reservation, the configured mechanism clears the book, and each
microgrid settles its residual imbalance through the storage/emergency/
feed-in recourse. Rewards are the per-agent hourly profits; since the
budget-balanced mechanisms cancel P2P cash flows, the community reward
always equals the community grid profit.

The fleet is the unit of the interface: one `Observation` holds every
agent's view as arrays, `step` takes the (n, 3) joint action and returns
(n,) rewards and settlement columns, and `rollout_day` runs a whole day.

The environment is fully deterministic given (config, seed): scenario
draws, observation noise, and any policy randomness all come from
counter-based streams keyed by explicit paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, EpisodeFinished, InvalidAction
from .market import (
    MarketFactor,
    PriceEnvelope,
    Quotation,
    TradeLedger,
    clear_greedy,
    clear_jpq,
    clear_mrda,
    clear_vvda,
    require_valid,
)
from .microgrid import (
    DEFAULT_FLEET,
    RECORD_FIELDS,
    FleetParams,
    FleetSettlement,
    MicrogridParams,
    _max,
    _min,
    day_ahead_quantity,
    max_bid_quantity,
    p2p_profit,
    settle_and_balance,
)
from .money import from_micro
from .scenario import (
    HOURS,
    STREAM_DAY,
    DailyProfile,
    DisruptionConfig,
    PriceSchedule,
    apply_pv_disruption,
    bundled_price_schedule,
    bundled_profile,
    draw_day,
    rng_stream,
    sample_realization,
)

MECHANISMS = ("jpq", "greedy", "mrda", "vvda")


@dataclass(frozen=True)
class EnvConfig:
    """Everything the simulator needs apart from the seed."""

    fleet: tuple[MicrogridParams, ...] = DEFAULT_FLEET
    profiles: tuple[DailyProfile, ...] | None = None
    prices: PriceSchedule = field(default_factory=bundled_price_schedule)
    mechanism: str = "jpq"
    mrda_rounds: int = 3
    mrda_concession: float = 0.5
    m_lower: float = -30.0
    m_upper: float = -20.0
    process_sigma: float = 0.10
    obs_sigma: float = 0.05
    disruption: DisruptionConfig = field(default_factory=DisruptionConfig)
    delta_past: int = 1
    delta_future: int = 6
    horizon: int = HOURS
    dt: float = 1.0
    carry_over_soc: bool = False

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigInvalid(
                f"mechanism: unknown name {self.mechanism!r}, expected one of {MECHANISMS}"
            )
        if not self.fleet:
            raise ConfigInvalid("fleet: at least one microgrid required")
        if self.profiles is not None and len(self.profiles) != len(self.fleet):
            raise ConfigInvalid("profiles: need one profile per fleet member")
        if not (1 <= self.horizon <= HOURS):
            raise ConfigInvalid(f"horizon: must be in [1, {HOURS}], got {self.horizon}")
        if not (0 <= self.delta_past < HOURS and 0 <= self.delta_future < HOURS):
            raise ConfigInvalid(f"window: past and future must be whole hours in [0, {HOURS - 1}], "
                                f"got {self.delta_past!r} and {self.delta_future!r}")
        if not all(math.isfinite(s) and s >= 0 for s in (self.process_sigma, self.obs_sigma)):
            raise ConfigInvalid("noise sigmas must be finite and non-negative")
        if not (self.m_lower <= self.m_upper):
            raise ConfigInvalid("market-factor thresholds must satisfy lower <= upper")
        if self.mrda_rounds < 1 or not (0 <= self.mrda_concession < 1):
            raise ConfigInvalid("mrda: rounds >= 1 and concession in [0, 1) required")

    @property
    def n_agents(self) -> int:
        return len(self.fleet)

    @property
    def window_len(self) -> int:
        return self.delta_past + self.delta_future + 1

    @cached_property
    def plant(self) -> FleetParams:
        """The fleet's plant parameters as (n,) arrays."""
        return FleetParams.of(self.fleet)

    @cached_property
    def day_profiles(self) -> tuple[DailyProfile, ...]:
        """One base profile per fleet member: the configured ones or the bundled shapes."""
        if self.profiles is not None:
            return self.profiles
        return tuple(bundled_profile(i) for i in range(self.n_agents))

    def profile_for(self, agent: int) -> DailyProfile:
        return self.day_profiles[agent]

    @cached_property
    def base_shapes(self) -> np.ndarray:
        """The base profiles as one read-only (n, 2, HOURS) array, load then PV."""
        shapes = np.array([(p.load, p.pv) for p in self.day_profiles])
        shapes.flags.writeable = False
        return shapes

    @cached_property
    def _envelopes(self) -> tuple[PriceEnvelope, ...]:
        return tuple(
            PriceEnvelope(
                feed_in=self.prices.feed_in,
                day_ahead=self.prices.day_ahead,
                emergency=emergency,
            )
            for emergency in self.prices.emergency.tolist()
        )

    def envelope_at(self, t: int) -> PriceEnvelope:
        return self._envelopes[t]


#: the action box, in (price_raw, qty_frac, reservation) order
ACTION_DIM = 3
ACTION_LOW = np.array([-1.0, 0.0, 0.0])
ACTION_HIGH = np.array([1.0, 1.0, 1.0])


def _clip_to_box(actions: np.ndarray) -> np.ndarray:
    """Clamp (..., 3) raw actions into the action box.

    Python's `min(max(x, low), high)` tie rule, so a -0.0 field stays
    -0.0 (`np.clip` would turn it into 0.0 and change the quotes).
    """
    return _min(_max(actions, ACTION_LOW), ACTION_HIGH)


class Action(NamedTuple):
    """One agent's squashed action: signed price position, quantity fraction,
    reservation. A list of n of them is a joint action, read as an (n, 3) array."""

    price_raw: float
    qty_frac: float
    reservation: float

    def clipped(self) -> "Action":
        return Action(*_clip_to_box(np.array(self)).tolist())


# window feature order
WINDOW_FIELDS = ("q_da", "load_est", "gen_est", "p_e")


@dataclass(frozen=True)
class Observation:
    """The fleet's local views for one hour: a shared market factor, mask
    and clock, plus each agent's SoC and noisy temporal window (row i)."""

    m: int
    soc: np.ndarray           # (n,) stored kWh
    window: np.ndarray        # (n, window_len, 4) in WINDOW_FIELDS order
    window_mask: np.ndarray   # (window_len,) 1 = in-horizon slot
    hour_sin: float
    hour_cos: float

    def as_matrix(self) -> np.ndarray:
        """(n, obs_dim) float64; row i is agent i's observation vector,
        [m, soc, window (row-major), window_mask, hour_sin, hour_cos]."""
        n, W, F = self.window.shape
        out = np.empty((n, 2 + W * F + W + 2))
        out[:, 0] = self.m
        out[:, 1] = self.soc
        out[:, 2 : 2 + W * F] = self.window.reshape(n, W * F)
        out[:, 2 + W * F : -2] = self.window_mask
        out[:, -2] = self.hour_sin
        out[:, -1] = self.hour_cos
        return out


def observation_dim(config: EnvConfig) -> int:
    return 2 + 4 * config.window_len + config.window_len + 2


@dataclass
class GlobalState:
    """Full simulator state; not visible to any single agent.

    Per-agent quantities are struct-of-arrays: (n,) storage vectors and
    (n, T) day series. `windows` holds every agent's observation window for
    every hour of the day, noise included, built once by `reset`; row T is
    the all-zero window of the finished day.
    """

    config: EnvConfig
    seed: int
    hour: int
    energy: np.ndarray         # (n,) stored kWh
    reservation: np.ndarray    # (n,) reserved fraction of each store
    load: np.ndarray           # (n, T) realized demand
    gen: np.ndarray            # (n, T) realized PV after disruptions
    load_forecast: np.ndarray  # (n, T) noiseless base, used day-ahead
    gen_forecast: np.ndarray
    q_da: np.ndarray           # (n, T) scheduled day-ahead deliveries
    windows: np.ndarray        # (n, T + 1, W, 4) in WINDOW_FIELDS order
    window_mask: np.ndarray    # (T + 1, W) 1 = in-horizon slot
    #: the current hour's market factor once computed; `step` clears it
    #: when storage and the clock move
    market_factor: MarketFactor | None = None


@dataclass
class StepResult:
    observations: Observation      # the fleet's view of the next hour
    rewards: np.ndarray            # (n,) hourly profits
    ledger: TradeLedger
    settlements: FleetSettlement   # (n,) columns; indexes as SettlementRecords
    done: bool
    operator_surplus: float        # payments minus receipts, from exact micro-units


def day_windows(
    config: EnvConfig, noise: np.ndarray, load, gen, load_forecast, gen_forecast, q_da
) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's noisy observation window for every hour of one day.

    Returns the (n, T + 1, W, 4) window tensor and the (T + 1, W) mask.
    Slot k of hour t looks at hour z = t - delta_past + k: past slots
    report the realized series, current and future slots the day-ahead
    forecast. Both get multiplicative noise, obs_sigma times the standard
    normals `noise[:, t, k]` of the day's (n, HOURS, W, 2) observation
    block (see `scenario.draw_day`), load then PV. Day-ahead quantities and
    the emergency price are exact. Out-of-horizon slots, and all of row T,
    are zero with a zero mask.
    """
    n, T = load.shape
    W = config.window_len
    hours = np.arange(T + 1)[:, None]
    z = hours - config.delta_past + np.arange(W)
    valid = (z >= 0) & (z < T) & (hours < T)
    z = np.clip(z, 0, T - 1)
    past = z < hours
    load_val = np.where(past, load[:, z], load_forecast[:, z])
    gen_val = np.where(past, gen[:, z], gen_forecast[:, z])

    sigma = config.obs_sigma
    if sigma > 0:
        scaled = np.zeros((n, T + 1, W, 2))
        scaled[:, :T] = sigma * noise[:, :T]
        load_val = load_val * (1.0 + scaled[..., 0])
        gen_val = gen_val * (1.0 + scaled[..., 1])
        load_val = np.where(load_val > 0.0, load_val, 0.0)
        gen_val = np.where(gen_val > 0.0, gen_val, 0.0)

    price = np.broadcast_to(config.prices.emergency[z], (n, T + 1, W))
    windows = np.stack([q_da[:, z], load_val, gen_val, price], axis=-1)
    windows = np.where(valid[..., None], windows, 0.0)
    mask = valid.astype(float)
    # observations hand out views of these: a write through one would alter the day
    windows.flags.writeable = mask.flags.writeable = False
    return windows, mask


def reset(
    config: EnvConfig, seed: int, initial_energy: np.ndarray | list[float] | None = None
) -> tuple[GlobalState, Observation]:
    """Sample a fresh day and return the initial observations.

    The whole day is drawn at once from each microgrid's (seed, i,
    STREAM_DAY) stream, and a shorter horizon keeps the first hours of it.
    """
    n = config.n_agents
    T = config.horizon
    plant = config.plant
    draws = draw_day([rng_stream(seed, i, STREAM_DAY) for i in range(n)], config.window_len)
    shapes = config.base_shapes
    load, gen = sample_realization(shapes, plant, config.process_sigma, draws.process)
    gen = apply_pv_disruption(gen, config.disruption, draws.disruption)
    load, gen = load[:, :T], gen[:, :T]
    load_fc = (plant.l_max[:, None] * shapes[:, 0])[:, :T]
    gen_fc = (plant.g_max[:, None] * shapes[:, 1])[:, :T]
    q_da = day_ahead_quantity(load_fc, gen_fc, plant.beta[:, None])

    if initial_energy is None:
        energy = plant.e0.copy()
    else:
        energy = np.asarray(initial_energy, dtype=float)
        energy = np.where(plant.e_min > energy, plant.e_min, energy)
        energy = np.where(plant.e_max < energy, plant.e_max, energy)

    windows, mask = day_windows(config, draws.obs, load, gen, load_fc, gen_fc, q_da)
    state = GlobalState(
        config=config,
        seed=seed,
        hour=0,
        energy=energy,
        reservation=np.ones(n),
        load=load,
        gen=gen,
        load_forecast=load_fc,
        gen_forecast=gen_fc,
        q_da=q_da,
        windows=windows,
        window_mask=mask,
    )
    return state, build_observation(state)


def compute_market_factor(state: GlobalState) -> MarketFactor:
    """Ternary imbalance signal from global net power minus stored energy."""
    cfg = state.config
    t = min(state.hour, cfg.horizon - 1)
    index = (
        state.load[:, t].sum()
        - state.gen[:, t].sum()
        - state.q_da[:, t].sum()
        - sum(state.energy.tolist())  # left-to-right, not numpy's pairwise sum
    )
    if cfg.m_lower <= index <= cfg.m_upper:
        return MarketFactor(0)
    if index < cfg.m_lower:
        return MarketFactor(-1)
    return MarketFactor(1)


def _hour_market_factor(state: GlobalState) -> MarketFactor:
    """The market factor the operator publishes for the current hour."""
    if state.market_factor is None:
        state.market_factor = compute_market_factor(state)
    return state.market_factor


def build_observation(state: GlobalState) -> Observation:
    """The fleet's local views for the current hour.

    The windows are a read-only view into the day's precomputed tensor (see
    `day_windows`), the SoC a copy, and the market factor is computed once
    for the hour. After the last hour every window is zero and the market
    factor reads 0.
    """
    cfg = state.config
    t = state.hour
    if t >= cfg.horizon:
        m = 0
        theta = 2 * math.pi * (cfg.horizon % HOURS) / HOURS
    else:
        m = _hour_market_factor(state).value
        theta = 2 * math.pi * t / HOURS
    return Observation(m=m, soc=state.energy.copy(), window=state.windows[:, t],
                       window_mask=state.window_mask[t],
                       hour_sin=math.sin(theta), hour_cos=math.cos(theta))


def decode_action(joint_action, state: GlobalState) -> tuple[list[Quotation], np.ndarray]:
    """Map the joint action to validated quotations plus (n,) reservations.

    `joint_action` is anything that reads as an (n, 3) float array: an
    ndarray, nested lists, or a list of `Action`s. A wrong shape, a ragged
    or non-numeric value or a non-finite field raises `InvalidAction`
    before anything else. Each action is clamped into the box; the price
    magnitude is an affine map of |price_raw| onto the hour's envelope, the
    side (non-negative price buys) picks the physical quantity cap, and
    every quote passes the market's envelope check.
    """
    cfg = state.config
    try:
        raw = np.asarray(joint_action, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvalidAction(f"joint action is not an (n, 3) array of numbers: {e}") from e
    if raw.ndim != 2 or raw.shape[1] != ACTION_DIM:
        raise InvalidAction(f"need {ACTION_DIM} fields per action, got shape {raw.shape}")
    if len(raw) != cfg.n_agents:
        raise InvalidAction(f"need {cfg.n_agents} actions, got {len(raw)}")
    finite = np.isfinite(raw)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        raise InvalidAction(f"agent {i}: non-finite action {joint_action[i]}")

    price_raw, qty_frac, reservation = _clip_to_box(raw).T
    t = state.hour
    env = cfg.envelope_at(t)
    magnitude = env.feed_in + np.abs(price_raw) * (env.emergency - env.feed_in)
    buyer = price_raw >= 0
    cap = max_bid_quantity(state.load[:, t], state.gen[:, t], buyer, cfg.plant, cfg.dt)
    price = np.where(buyer, magnitude, -magnitude)
    quotes = [
        Quotation(i, p, q)
        for i, (p, q) in enumerate(zip(price.tolist(), (qty_frac * cap).tolist()))
    ]
    for quote in quotes:
        require_valid(quote, env)
    return quotes, reservation


def _clear(quotes: list[Quotation], m: MarketFactor, cfg: EnvConfig, t: int) -> TradeLedger:
    env = cfg.envelope_at(t)
    if cfg.mechanism == "jpq":
        return clear_jpq(quotes, m, env.emergency)
    if cfg.mechanism == "greedy":
        return clear_greedy(quotes)
    if cfg.mechanism == "mrda":
        return clear_mrda(quotes, env, cfg.mrda_rounds, cfg.mrda_concession)
    if cfg.mechanism == "vvda":
        return clear_vvda(quotes)
    raise ConfigInvalid(f"mechanism: unknown name {cfg.mechanism!r}")


def step(state: GlobalState, joint_action) -> StepResult:
    """Advance one hour: quote, clear, settle, reward, observe.

    `joint_action` is the (n, 3) joint action of `decode_action`. Mutates
    `state` (hour, storage) and returns the step outcome. The whole joint
    action is decoded and validated before any state changes, so a rejected
    joint action leaves `state` untouched.
    """
    cfg = state.config
    if state.hour >= cfg.horizon:
        raise EpisodeFinished(f"episode already finished after {cfg.horizon} steps")
    quotes, state.reservation = decode_action(joint_action, state)

    t = state.hour
    envelope = cfg.envelope_at(t)
    ledger = _clear(quotes, _hour_market_factor(state), cfg, t)
    totals = ledger.agent_totals(cfg.n_agents)
    fleet = settle_and_balance(
        load=state.load[:, t],
        gen=state.gen[:, t],
        q_da=state.q_da[:, t],
        q_b=np.array(totals.bought),
        q_s=np.array(totals.sold),
        energy=state.energy,
        reservation=state.reservation,
        prices=envelope,
        dt=cfg.dt,
        plant=cfg.plant,
    )
    fleet.profit_p2p = np.array(p2p_profit(totals.received_micro, totals.paid_micro))
    surplus = from_micro(sum(totals.paid_micro) - sum(totals.received_micro))

    state.energy = fleet.energy
    state.hour += 1
    state.market_factor = None
    done = state.hour >= cfg.horizon
    return StepResult(build_observation(state), fleet.reward, ledger, fleet, done, surplus)


class TradingEnv:
    """Thin stateful wrapper with the usual reset/step surface."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self._state: GlobalState | None = None

    @property
    def n_agents(self) -> int:
        return self.config.n_agents

    @property
    def state(self) -> GlobalState:
        if self._state is None:
            raise EpisodeFinished("reset() has not been called")
        return self._state

    def reset(self, seed: int) -> Observation:
        carry = None
        if self.config.carry_over_soc and self._state is not None:
            carry = self._state.energy
        self._state, obs = reset(self.config, seed, initial_energy=carry)
        return obs

    def step(self, joint_action) -> StepResult:
        return step(self.state, joint_action)


def rollout_day(env: TradingEnv, seed: int, act, on_step=None) -> tuple[np.ndarray, ...]:
    """Run one day from `env.reset(seed)`, each hour's joint action from `act`.

    `act(hour, obs)` returns the (n, 3) joint action for the fleet
    observation `obs`; `on_step(hour, actions, result)`, if given, sees
    every step. Returns the (T, n) series of reward, emergency purchase,
    feed-in export and end-of-hour stored energy, in that order.
    """
    obs = env.reset(seed)
    series = np.empty((4, env.config.horizon, env.n_agents))
    for t in range(env.config.horizon):
        actions = act(t, obs)
        result = env.step(actions)
        if on_step is not None:
            on_step(t, actions, result)
        obs = result.observations
        settled = result.settlements
        series[:, t] = result.rewards, settled.q_e, settled.q_fit, obs.soc
    return tuple(series)


def episode_seed(base: int, episode: int) -> int:
    """Stable per-episode seed; paired across runs that share the base."""
    return int(np.random.SeedSequence([base, episode]).generate_state(1)[0])


#: the hourly-mean metrics, in metrics-table column order
METRIC_NAMES = ("reward", "emergency_kwh", "feedin_kwh", "storage_kwh")


def metrics_columns(n_agents: int) -> list[str]:
    """The metrics-table header: episode, the community means, then each agent's."""
    agents = [f"{name}_agent{i}" for i in range(n_agents) for name in METRIC_NAMES]
    return ["episode", *METRIC_NAMES, *agents]


def episode_metrics(episode: int, rewards, emergency, feedin, storage) -> dict:
    """One metrics-table row: per-episode hourly means across the community
    and per agent, keyed by `metrics_columns`.

    Each series is (T, n): reward, emergency purchase, feed-in export and
    stored energy for every hour and agent, in METRIC_NAMES order, as
    `rollout_day` returns them.
    """
    series = [np.asarray(x) for x in (rewards, emergency, feedin, storage)]
    n = series[0].shape[1]
    values = [episode] + [float(s.mean()) for s in series]
    # one row mean per series over a contiguous (n, T) copy; each row sums
    # in the same order as the strided column s[:, i]
    per_agent = [np.ascontiguousarray(s.T).mean(axis=1).tolist() for s in series]
    values += [mean for agent in zip(*per_agent) for mean in agent]
    return dict(zip(metrics_columns(n), values))


def step_record(episode: int, hour: int, actions, result: StepResult) -> dict:
    """JSON-serializable record of one step for trajectory export.

    Per-agent values are fleet columns: `actions` holds one list of n values
    per `Action` field and `settlements` one per `RECORD_FIELDS` name; the
    ledger's trades stay rows of (buyer, seller, kWh, buyer price, seller
    price).
    """
    settled = result.settlements
    return {
        "episode": episode,
        "hour": hour,
        "actions": dict(zip(Action._fields, np.asarray(actions, dtype=float).T.tolist())),
        "rewards": result.rewards.tolist(),
        "ledger": {
            "trades": [
                [t.buyer_id, t.seller_id, t.quantity, t.buyer_price, t.seller_price]
                for t in result.ledger.trades
            ],
            "operator_surplus": result.operator_surplus,
        },
        "settlements": {name: getattr(settled, name).tolist() for name in RECORD_FIELDS},
        "soc": result.observations.soc.tolist(),
        "done": result.done,
    }
