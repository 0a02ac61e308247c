"""Multi-microgrid trading environment.

One episode is a 24-hour day. Each step runs the three-phase intraday
protocol: every agent's action decodes into a validated quotation plus a
storage reservation, the configured mechanism clears the book, and each
microgrid settles its residual imbalance through the storage/emergency/
feed-in recourse. Rewards are the per-agent hourly profits; since the
budget-balanced mechanisms cancel P2P cash flows, the community reward
always equals the community grid profit.

The environment is fully deterministic given (config, seed): scenario
draws, observation noise, and any policy randomness all come from
counter-based streams keyed by explicit paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    EssState,
    MicrogridParams,
    SettlementRecord,
    day_ahead_quantity,
    max_bid_quantity,
    p2p_profit,
    settle_and_balance,
)
from .scenario import (
    HOURS,
    STREAM_DISRUPTION,
    STREAM_LOAD,
    STREAM_OBS,
    DailyProfile,
    DisruptionConfig,
    PriceSchedule,
    apply_pv_disruption,
    bundled_price_schedule,
    bundled_profile,
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
        if self.delta_past < 0 or self.delta_future < 0:
            raise ConfigInvalid("delta_past/delta_future must be non-negative")
        if self.process_sigma < 0 or self.obs_sigma < 0:
            raise ConfigInvalid("noise sigmas must be non-negative")
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

    def profile_for(self, agent: int) -> DailyProfile:
        if self.profiles is not None:
            return self.profiles[agent]
        return bundled_profile(agent)

    def envelope_at(self, t: int) -> PriceEnvelope:
        return PriceEnvelope(
            feed_in=self.prices.feed_in,
            day_ahead=self.prices.day_ahead,
            emergency=float(self.prices.emergency[t]),
        )


#: the action box, in (price_raw, qty_frac, reservation) order
ACTION_DIM = 3
ACTION_LOW = np.array([-1.0, 0.0, 0.0])
ACTION_HIGH = np.array([1.0, 1.0, 1.0])


@dataclass(frozen=True)
class Action:
    """Squashed agent action: signed price position, quantity fraction, reservation."""

    price_raw: float
    qty_frac: float
    reservation: float

    def clipped(self) -> "Action":
        lo, hi = ACTION_LOW.tolist(), ACTION_HIGH.tolist()
        return Action(
            price_raw=min(max(self.price_raw, lo[0]), hi[0]),
            qty_frac=min(max(self.qty_frac, lo[1]), hi[1]),
            reservation=min(max(self.reservation, lo[2]), hi[2]),
        )

    @classmethod
    def from_array(cls, arr) -> "Action":
        return cls(float(arr[0]), float(arr[1]), float(arr[2])).clipped()

# window feature order
WINDOW_FIELDS = ("q_da", "load_est", "gen_est", "p_e")


@dataclass(frozen=True)
class Observation:
    """Per-agent local view: market factor, SoC, noisy temporal window, clock."""

    m: int
    soc: float
    window: np.ndarray        # (window_len, 4) in WINDOW_FIELDS order
    window_mask: np.ndarray   # (window_len,) 1 = in-horizon slot
    hour_sin: float
    hour_cos: float

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [
                [self.m, self.soc],
                self.window.ravel(),
                self.window_mask,
                [self.hour_sin, self.hour_cos],
            ]
        ).astype(np.float64)


def observation_dim(config: EnvConfig) -> int:
    return 2 + 4 * config.window_len + config.window_len + 2


@dataclass
class GlobalState:
    """Full simulator state; not visible to any single agent."""

    config: EnvConfig
    seed: int
    hour: int
    ess: list[EssState]
    load: np.ndarray           # (n, T) realized demand
    gen: np.ndarray            # (n, T) realized PV after disruptions
    load_forecast: np.ndarray  # (n, T) noiseless base, used day-ahead
    gen_forecast: np.ndarray
    q_da: np.ndarray           # (n, T) scheduled day-ahead deliveries


@dataclass
class StepResult:
    observations: list[Observation]
    rewards: list[float]
    ledger: TradeLedger
    settlements: list[SettlementRecord]
    done: bool


def reset(
    config: EnvConfig, seed: int, initial_energy: list[float] | None = None
) -> tuple[GlobalState, list[Observation]]:
    """Sample a fresh day and return the initial observations."""
    n = config.n_agents
    T = config.horizon
    load = np.zeros((n, T))
    gen = np.zeros((n, T))
    load_fc = np.zeros((n, T))
    gen_fc = np.zeros((n, T))
    q_da = np.zeros((n, T))

    for i, params in enumerate(config.fleet):
        profile = config.profile_for(i)
        li, gi = sample_realization(
            profile, params, config.process_sigma, rng_stream(seed, i, STREAM_LOAD)
        )
        gi = apply_pv_disruption(
            gi, config.disruption, rng_stream(seed, i, STREAM_DISRUPTION)
        )
        load[i] = li[:T]
        gen[i] = gi[:T]
        load_fc[i] = (params.l_max * profile.load)[:T]
        gen_fc[i] = (params.g_max * profile.pv)[:T]
        for t in range(T):
            q_da[i, t] = day_ahead_quantity(load_fc[i, t], gen_fc[i, t], params.beta)

    if initial_energy is None:
        ess = [EssState(energy=p.e0, reservation=1.0) for p in config.fleet]
    else:
        ess = [
            EssState(energy=min(max(e, p.e_min), p.e_max), reservation=1.0)
            for e, p in zip(initial_energy, config.fleet)
        ]

    state = GlobalState(
        config=config,
        seed=seed,
        hour=0,
        ess=ess,
        load=load,
        gen=gen,
        load_forecast=load_fc,
        gen_forecast=gen_fc,
        q_da=q_da,
    )
    obs = [build_observation(state, i) for i in range(n)]
    return state, obs


def compute_market_factor(state: GlobalState) -> MarketFactor:
    """Ternary imbalance signal from global net power minus stored energy."""
    cfg = state.config
    t = min(state.hour, cfg.horizon - 1)
    index = (
        state.load[:, t].sum()
        - state.gen[:, t].sum()
        - state.q_da[:, t].sum()
        - sum(s.energy for s in state.ess)
    )
    if cfg.m_lower <= index <= cfg.m_upper:
        return MarketFactor(0)
    if index < cfg.m_lower:
        return MarketFactor(-1)
    return MarketFactor(1)


def build_observation(state: GlobalState, agent: int) -> Observation:
    """Assemble the agent's noisy local view for the current hour.

    Past window slots report the realized series, current and future slots
    the day-ahead forecast; both get multiplicative observation noise.
    Day-ahead quantities and the emergency price are known exactly.
    Out-of-horizon slots are zero-padded with a zero validity mask.
    """
    cfg = state.config
    t = state.hour
    W = cfg.window_len
    window = np.zeros((W, 4))
    mask = np.zeros(W)
    terminal = t >= cfg.horizon

    if terminal:
        m = 0
        theta = 2 * math.pi * (cfg.horizon % HOURS) / HOURS
    else:
        m = compute_market_factor(state).value
        theta = 2 * math.pi * t / HOURS
        rng = rng_stream(state.seed, agent, STREAM_OBS, t)
        for k, z in enumerate(range(t - cfg.delta_past, t + cfg.delta_future + 1)):
            if not (0 <= z < cfg.horizon):
                continue
            if z < t:
                load_val = state.load[agent, z]
                gen_val = state.gen[agent, z]
            else:
                load_val = state.load_forecast[agent, z]
                gen_val = state.gen_forecast[agent, z]
            if cfg.obs_sigma > 0:
                load_val = max(0.0, load_val * (1.0 + rng.normal(0.0, cfg.obs_sigma)))
                gen_val = max(0.0, gen_val * (1.0 + rng.normal(0.0, cfg.obs_sigma)))
            window[k] = (
                state.q_da[agent, z],
                load_val,
                gen_val,
                float(cfg.prices.emergency[z]),
            )
            mask[k] = 1.0

    return Observation(
        m=m,
        soc=state.ess[agent].energy,
        window=window,
        window_mask=mask,
        hour_sin=math.sin(theta),
        hour_cos=math.cos(theta),
    )


def decode_action(
    action: Action, state: GlobalState, agent: int
) -> tuple[Quotation, float]:
    """Map a box action to a validated quotation plus reservation fraction.

    The price magnitude is an affine map of |price_raw| onto the hour's
    envelope, so the envelope constraint holds by construction; the role
    (non-negative price buys) fixes the physical quantity cap.
    """
    a = action.clipped()
    cfg = state.config
    t = state.hour
    env = cfg.envelope_at(t)
    magnitude = env.feed_in + abs(a.price_raw) * (env.emergency - env.feed_in)
    role = "buyer" if a.price_raw >= 0 else "seller"
    cap = max_bid_quantity(
        state.load[agent, t], state.gen[agent, t], role, cfg.fleet[agent], cfg.dt
    )
    price = magnitude if role == "buyer" else -magnitude
    return Quotation(agent, price, a.qty_frac * cap), a.reservation


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


def step(state: GlobalState, joint_action: list[Action]) -> StepResult:
    """Advance one hour: quote, clear, settle, reward, observe.

    Mutates `state` (hour, storage) and returns the step outcome. The whole
    joint action is decoded and validated before any state changes, so a
    rejected joint action leaves `state` untouched.
    """
    cfg = state.config
    if state.hour >= cfg.horizon:
        raise EpisodeFinished(f"episode already finished after {cfg.horizon} steps")
    if len(joint_action) != cfg.n_agents:
        raise InvalidAction(f"need {cfg.n_agents} actions, got {len(joint_action)}")
    for i, a in enumerate(joint_action):
        if not all(math.isfinite(v) for v in (a.price_raw, a.qty_frac, a.reservation)):
            raise InvalidAction(f"agent {i}: non-finite action {a}")

    t = state.hour
    envelope = cfg.envelope_at(t)

    decoded = [decode_action(action, state, i) for i, action in enumerate(joint_action)]
    quotes = [quote for quote, _ in decoded]
    for quote in quotes:
        require_valid(quote, envelope)
    for i, (_, reservation) in enumerate(decoded):
        state.ess[i] = replace(state.ess[i], reservation=reservation)

    m = compute_market_factor(state)
    ledger = _clear(quotes, m, cfg, t)

    settlements = []
    rewards = []
    for i, params in enumerate(cfg.fleet):
        record, new_ess = settle_and_balance(
            load=state.load[i, t],
            gen=state.gen[i, t],
            q_da=state.q_da[i, t],
            q_b=ledger.bought_kwh(i),
            q_s=ledger.sold_kwh(i),
            state=state.ess[i],
            prices=envelope,
            dt=cfg.dt,
            params=params,
        )
        record.profit_p2p = p2p_profit(ledger, i)
        state.ess[i] = new_ess
        settlements.append(record)
        rewards.append(record.reward)

    state.hour += 1
    done = state.hour >= cfg.horizon
    observations = [build_observation(state, i) for i in range(cfg.n_agents)]
    return StepResult(observations, rewards, ledger, settlements, done)


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

    def reset(self, seed: int) -> list[Observation]:
        carry = None
        if self.config.carry_over_soc and self._state is not None:
            carry = [s.energy for s in self._state.ess]
        self._state, obs = reset(self.config, seed, initial_energy=carry)
        return obs

    def step(self, joint_action: list[Action]) -> StepResult:
        return step(self.state, joint_action)


def step_record(
    episode: int, hour: int, actions: list[Action], result: StepResult
) -> dict:
    """JSON-serializable record of one step for trajectory export."""
    return {
        "episode": episode,
        "hour": hour,
        "actions": [
            [a.price_raw, a.qty_frac, a.reservation] for a in actions
        ],
        "rewards": result.rewards,
        "ledger": {
            "trades": [
                [t.buyer_id, t.seller_id, t.quantity, t.buyer_price, t.seller_price]
                for t in result.ledger.trades
            ],
            "operator_surplus": result.ledger.operator_surplus(),
        },
        "settlements": [
            {
                "q_da": s.q_da,
                "q_b": s.q_b,
                "q_s": s.q_s,
                "q_e": s.q_e,
                "q_fit": s.q_fit,
                "t_ess": s.t_ess,
                "profit_grid": s.profit_grid,
                "profit_p2p": s.profit_p2p,
            }
            for s in result.settlements
        ],
        "soc": [float(o.soc) for o in result.observations],
        "done": result.done,
    }
