"""Environment tests: reset/step, market factor, observations, balance."""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from gridtrade.env import (
    ACTION_HIGH,
    ACTION_LOW,
    Action,
    EnvConfig,
    GlobalState,
    TradingEnv,
    compute_market_factor,
    day_windows,
    decode_action,
    episode_metrics,
    observation_dim,
    reset,
    step,
    step_record,
)
from gridtrade.errors import ConfigInvalid, EpisodeFinished, GridTradeError, InvalidAction
from gridtrade.market import Quotation
from gridtrade.microgrid import (
    DEFAULT_FLEET,
    RECORD_FIELDS,
    FleetParams,
    MicrogridParams,
    balance_residual,
)
from gridtrade.money import to_micro
from gridtrade.policies import PolicyContext, ScriptedPolicy
from gridtrade.scenario import (
    HOURS,
    STREAM_ACTION,
    STREAM_DAY,
    DailyProfile,
    DisruptionConfig,
    PriceSchedule,
    draw_day,
    rng_stream,
)


def quiet_config(**kw):
    """Deterministic config: no noise, no disruptions."""
    base = dict(
        process_sigma=0.0,
        obs_sigma=0.0,
        disruption=DisruptionConfig(p_sudden=0.0, p_gradual=0.0, p_failure=0.0),
    )
    base.update(kw)
    return EnvConfig(**base)


class EssState(NamedTuple):
    """One microgrid's storage: stored kWh and the reserved fraction."""

    energy: float
    reservation: float


def ess(state):
    """Per-agent storage view of `state`: one `EssState` per microgrid (a copy)."""
    return [EssState(energy=e, reservation=r)
            for e, r in zip(state.energy.tolist(), state.reservation.tolist())]


def make_state(config, load, gen, q_da=None, energies=None, hour=0, seed=0):
    """Hand-built state with explicit realized trajectories."""
    n, T = load.shape
    q_da = np.zeros((n, T)) if q_da is None else q_da
    energy = np.array(energies if energies else [p.e0 for p in config.fleet], dtype=float)
    rngs = [rng_stream(seed, i, STREAM_DAY) for i in range(n)]
    noise = draw_day(rngs, config.window_len).obs
    windows, mask = day_windows(config, noise, load, gen, load, gen, q_da)
    return GlobalState(
        config=config,
        seed=seed,
        hour=hour,
        energy=energy,
        reservation=np.ones(n),
        load=load,
        gen=gen,
        load_forecast=load.copy(),
        gen_forecast=gen.copy(),
        q_da=q_da,
        windows=windows,
        window_mask=mask,
    )


def reference_observation(state, agent):
    """Per-agent reference: one agent's window filled slot by slot with
    scalar noise draws. The batched `build_observation` must equal it."""
    cfg = state.config
    t = state.hour
    W = cfg.window_len
    window = np.zeros((W, 4))
    mask = np.zeros(W)
    if t >= cfg.horizon:
        m = 0
        theta = 2 * math.pi * (cfg.horizon % HOURS) / HOURS
    else:
        m = compute_market_factor(state).value
        theta = 2 * math.pi * t / HOURS
        # the agent's day stream: process noise, disruption uniforms, then
        # (load, PV) normals for every window slot of every hour in turn
        rng = rng_stream(state.seed, agent, STREAM_DAY)
        rng.standard_normal(2 * HOURS)
        rng.random(4 * HOURS)
        rng.standard_normal(2 * W * t)
        for k, z in enumerate(range(t - cfg.delta_past, t + cfg.delta_future + 1)):
            load_noise, gen_noise = rng.standard_normal(), rng.standard_normal()
            if not (0 <= z < cfg.horizon):
                continue
            if z < t:
                load_val = state.load[agent, z]
                gen_val = state.gen[agent, z]
            else:
                load_val = state.load_forecast[agent, z]
                gen_val = state.gen_forecast[agent, z]
            if cfg.obs_sigma > 0:
                load_val = max(0.0, load_val * (1.0 + cfg.obs_sigma * load_noise))
                gen_val = max(0.0, gen_val * (1.0 + cfg.obs_sigma * gen_noise))
            window[k] = (
                state.q_da[agent, z],
                load_val,
                gen_val,
                float(cfg.prices.emergency[z]),
            )
            mask[k] = 1.0
    return m, float(state.energy[agent]), window, mask, math.sin(theta), math.cos(theta)


def reference_vector(state, agent):
    """One agent's observation vector in the per-agent layout: m, soc, the
    window row-major, the mask, then the clock."""
    m, soc, window, mask, hour_sin, hour_cos = reference_observation(state, agent)
    return np.concatenate([[m, soc], window.ravel(), mask, [hour_sin, hour_cos]])


def reference_decode(action, state, agent):
    """Per-agent reference: one agent's action clamped with Python's
    min/max and decoded with scalar arithmetic. The one-pass
    `decode_action` must equal it, signed zeros included."""
    lo, hi = ACTION_LOW.tolist(), ACTION_HIGH.tolist()
    price_raw = min(max(action.price_raw, lo[0]), hi[0])
    qty_frac = min(max(action.qty_frac, lo[1]), hi[1])
    reservation = min(max(action.reservation, lo[2]), hi[2])
    cfg = state.config
    t = state.hour
    env = cfg.envelope_at(t)
    params = cfg.fleet[agent]
    load, gen = state.load[agent, t], state.gen[agent, t]
    magnitude = env.feed_in + abs(price_raw) * (env.emergency - env.feed_in)
    if price_raw >= 0:
        cap = max(0.0, load - gen + params.t_charge_max * cfg.dt)
        price = magnitude
    else:
        cap = max(0.0, gen - load + params.t_discharge_max * cfg.dt)
        price = -magnitude
    return Quotation(agent, price, qty_frac * cap), reservation


def reference_act(rule, margin, window, soc, params, agent, ctx):
    """Per-agent reference: one agent's scripted action with scalar
    arithmetic and Python's min/max. The fleet `ScriptedPolicy.act` must
    equal it row by row, signed zeros included."""
    if rule == "zero":
        return (0.0, 0.0, 1.0)
    if rule == "random":
        rng = rng_stream(ctx.seed, agent, STREAM_ACTION, ctx.hour)
        return (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)))
    q_da, load_est, gen_est, _ = window[ctx.delta_past].tolist()
    net = gen_est + q_da - load_est
    if net < -1e-9:
        cap = max(0.0, load_est - gen_est + params.t_charge_max * ctx.dt)
        headroom = min(max(0.0, params.e_max - soc), params.t_charge_max * ctx.dt)
        qty_frac = min(1.0, (-net + headroom) / cap) if cap > 0 else 0.0
        return (1.0 - margin, qty_frac, 1.0)
    if net > 1e-9:
        cap = max(0.0, gen_est - load_est + params.t_discharge_max * ctx.dt)
        qty_frac = min(1.0, net / cap) if cap > 0 else 0.0
        return (-margin, qty_frac, 1.0)
    return (0.0, 0.0, 1.0)


def decode_one(action, state):
    """Decode a one-agent joint action; returns (quote, reservation)."""
    quotes, reservation = decode_action([action], state)
    return quotes[0], reservation[0]


class TestReset:
    def test_reference_fleet_initial_storage(self):
        state, obs = reset(quiet_config(), seed=7)
        assert obs.soc.shape == (4,)
        assert [s.energy for s in ess(state)] == [0, 2, 0, 20]

    def test_same_seed_identical_states(self):
        cfg = EnvConfig()
        a, _ = reset(cfg, seed=123)
        b, _ = reset(cfg, seed=123)
        np.testing.assert_array_equal(a.load, b.load)
        np.testing.assert_array_equal(a.gen, b.gen)
        np.testing.assert_array_equal(a.q_da, b.q_da)

    def test_different_seed_differs(self):
        cfg = EnvConfig()
        a, _ = reset(cfg, seed=1)
        b, _ = reset(cfg, seed=2)
        assert not np.array_equal(a.load, b.load)

    def test_agent_rows_do_not_depend_on_fleet_size(self):
        # the reference four cycled to 64: agents 0-3 keep their own day
        small, _ = reset(EnvConfig(), seed=21)
        large, _ = reset(EnvConfig(fleet=DEFAULT_FLEET * 16), seed=21)
        for name in ("load", "gen", "load_forecast", "gen_forecast", "q_da", "windows"):
            np.testing.assert_array_equal(getattr(large, name)[:4], getattr(small, name), name)

    def test_shorter_horizon_is_a_prefix_of_the_day(self):
        full, _ = reset(EnvConfig(), seed=22)
        half, _ = reset(EnvConfig(horizon=12), seed=22)
        for name in ("load", "gen", "load_forecast", "gen_forecast", "q_da"):
            np.testing.assert_array_equal(getattr(half, name), getattr(full, name)[:, :12], name)
        # every in-horizon window slot reads the same noisy value
        inside = half.window_mask[:12].astype(bool)
        np.testing.assert_array_equal(half.windows[:, :12][:, inside],
                                      full.windows[:, :12][:, inside])

    def test_day_ahead_positive_when_forecast_deficit(self):
        profile = DailyProfile(load=np.full(24, 0.8), pv=np.full(24, 0.1))
        fleet = (DEFAULT_FLEET[2],)
        cfg = quiet_config(fleet=fleet, profiles=(profile,))
        state, _ = reset(cfg, seed=0)
        # forecast load 32 vs gen 1 at every hour -> q_da = 0.95 * 31
        assert (state.q_da > 0).all()
        assert state.q_da[0, 0] == pytest.approx(0.95 * (0.8 * 40 - 0.1 * 10))

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigInvalid):
            EnvConfig(mechanism="vcg")

    def test_profile_count_mismatch_rejected(self):
        profile = DailyProfile(load=np.zeros(24), pv=np.zeros(24))
        with pytest.raises(ConfigInvalid):
            EnvConfig(profiles=(profile,))


class TestMarketFactor:
    def test_balanced_band(self):
        cfg = quiet_config(
            fleet=(MicrogridParams(l_max=100, g_max=50, e_max=50,
                                   t_charge_max=5, t_discharge_max=5, e0=30),)
        )
        state = make_state(
            cfg, load=np.full((1, 24), 50.0), gen=np.full((1, 24), 20.0),
            q_da=np.full((1, 24), 25.0), energies=[30.0],
        )
        # index = 50 - 20 - 25 - 30 = -25 -> balanced
        assert compute_market_factor(state).value == 0

    def test_surplus_below_lower(self):
        cfg = quiet_config(
            fleet=(MicrogridParams(l_max=100, g_max=50, e_max=60,
                                   t_charge_max=5, t_discharge_max=5, e0=0),)
        )
        state = make_state(
            cfg, load=np.full((1, 24), 10.0), gen=np.full((1, 24), 50.0),
            energies=[0.0],
        )
        # index = 10 - 50 - 0 - 0 = -40 -> surplus
        assert compute_market_factor(state).value == -1

    def test_deficit_otherwise(self):
        cfg = quiet_config(fleet=(DEFAULT_FLEET[0],))
        state = make_state(
            cfg, load=np.full((1, 24), 10.0), gen=np.full((1, 24), 10.0),
            energies=[0.0],
        )
        # index = 0 -> deficit branch
        assert compute_market_factor(state).value == 1

    def test_closed_interval_boundaries(self):
        cfg = quiet_config(
            fleet=(MicrogridParams(l_max=100, g_max=100, e_max=60,
                                   t_charge_max=5, t_discharge_max=5, e0=0),)
        )
        for load, expected in ((70.0, 0), (80.0, 0), (69.9, -1), (80.1, 1)):
            state = make_state(
                cfg, load=np.full((1, 24), load), gen=np.full((1, 24), 100.0),
                energies=[0.0],
            )
            assert compute_market_factor(state).value == expected


class TestObservation:
    def test_window_length_default_eight(self):
        cfg = quiet_config()
        state, obs = reset(cfg, seed=0)
        assert obs.window.shape == (4, 8, 4)
        assert observation_dim(cfg) == 2 + 32 + 8 + 2

    def test_hour_zero_pads_history_slot(self):
        state, obs = reset(quiet_config(), seed=0)
        assert obs.window_mask[0] == 0.0
        assert (obs.window[:, 0] == 0).all()
        assert obs.window_mask[1] == 1.0

    def test_noiseless_window_equals_forecast(self):
        cfg = quiet_config()
        state, obs = reset(cfg, seed=3)
        window = obs.window[1]
        np.testing.assert_allclose(window[1, 1], state.load_forecast[1, 0])
        np.testing.assert_allclose(window[1, 2], state.gen_forecast[1, 0])
        np.testing.assert_allclose(window[1, 0], state.q_da[1, 0])
        np.testing.assert_allclose(window[1, 3], cfg.prices.emergency[0])

    def test_noisy_window_deterministic_per_seed(self):
        cfg = EnvConfig(obs_sigma=0.1)
        (state_a, obs_a), (state_b, obs_b) = reset(cfg, seed=5), reset(cfg, seed=5)
        assert not np.shares_memory(state_a.windows, state_b.windows)
        np.testing.assert_array_equal(obs_a.window[2], obs_b.window[2])
        np.testing.assert_array_equal(state_a.windows, state_b.windows)

    def test_hour_encoding(self):
        state, obs = reset(quiet_config(), seed=0)
        assert obs.hour_sin == pytest.approx(0.0)
        assert obs.hour_cos == pytest.approx(1.0)

    def test_vector_roundtrip_shape(self):
        cfg = quiet_config()
        _, obs = reset(cfg, seed=0)
        assert obs.as_matrix().shape == (4, observation_dim(cfg))
        assert obs.as_matrix()[0].shape == (observation_dim(cfg),)

    def test_windows_are_read_only_views(self):
        state, obs = reset(quiet_config(), seed=0)
        with pytest.raises(ValueError):
            obs.window[0, 1, 1] = 0.0
        with pytest.raises(ValueError):
            obs.window_mask[0] = 1.0
        assert np.shares_memory(obs.window, state.windows)

    def test_soc_is_a_snapshot(self):
        env = TradingEnv(quiet_config())
        obs = env.reset(seed=0)
        obs.soc[:] = -1.0
        assert env.state.energy.tolist() == [0.0, 2.0, 0.0, 20.0]

    def test_batched_observations_match_per_agent_reference(self):
        # 64 agents, two past slots and a 20-hour day: hours near the end
        # have out-of-horizon future slots, hour 0 and 1 out-of-horizon past
        fleet = tuple(DEFAULT_FLEET[i % 4] for i in range(64))
        cfg = EnvConfig(fleet=fleet, obs_sigma=0.1, delta_past=2, horizon=20,
                        m_lower=-480.0, m_upper=-320.0)
        state, obs = reset(cfg, seed=17)
        rng = np.random.default_rng(17)
        factors = set()
        for t in range(cfg.horizon + 1):
            assert state.hour == t
            matrix = obs.as_matrix()
            assert matrix.shape == (64, observation_dim(cfg))
            for i in range(64):
                m, soc, window, mask, hour_sin, hour_cos = reference_observation(state, i)
                assert obs.m == m and obs.soc[i] == soc
                np.testing.assert_array_equal(obs.window[i], window)
                np.testing.assert_array_equal(obs.window_mask, mask)
                assert (obs.hour_sin, obs.hour_cos) == (hour_sin, hour_cos)
                np.testing.assert_array_equal(matrix[i], reference_vector(state, i))
            factors.add(obs.m)
            if t < cfg.horizon:
                actions = [Action(*rng.uniform(-1, 1, 3)).clipped() for _ in range(64)]
                obs = step(state, actions).observations
        assert obs.window_mask.sum() == 0.0  # the finished day's zero window
        assert len(factors) > 1


class TestDecodeAction:
    def make_unit_state(self, load=10.0, gen=3.0, n=1):
        sched = PriceSchedule(feed_in=0.2, emergency=np.full(24, 2.2), day_ahead=0.5)
        cfg = quiet_config(fleet=(DEFAULT_FLEET[0],) * n, prices=sched)
        return make_state(
            cfg, load=np.full((n, 24), load), gen=np.full((n, 24), gen)
        )

    def test_affine_price_map(self):
        state = self.make_unit_state()
        quote, _ = decode_one(Action(0.5, 0.5, 1.0), state)
        assert quote.price == pytest.approx(1.2)
        assert quote.price >= 0

    def test_boundary_maps_to_envelope_edge(self):
        state = self.make_unit_state()
        quote, _ = decode_one(Action(-1.0, 0.5, 1.0), state)
        assert quote.price == pytest.approx(-2.2)

    def test_zero_fraction_gives_null_quote(self):
        state = self.make_unit_state()
        quote, _ = decode_one(Action(0.7, 0.0, 0.3), state)
        assert quote.quantity == 0.0

    def test_zero_price_raw_is_buyer_at_feed_in(self):
        state = self.make_unit_state()
        quote, _ = decode_one(Action(0.0, 0.5, 1.0), state)
        assert quote.price >= 0
        assert quote.price == pytest.approx(0.2)

    def test_quantity_capped_by_role_limit(self):
        state = self.make_unit_state(load=10, gen=3)
        quote, _ = decode_one(Action(1.0, 1.0, 1.0), state)
        # buyer cap: 10 - 3 + 4 = 11
        assert quote.quantity == pytest.approx(11.0)
        quote, _ = decode_one(Action(-1.0, 1.0, 1.0), state)
        assert quote.quantity == 0.0  # seller cap floors at zero

    def test_reservation_passthrough_and_fuzz_validity(self):
        # action-range robustness: any box action decodes to a valid quote;
        # 1,000 identical agents decode the draws 1,000 at a time
        width = 1000
        state = self.make_unit_state(n=width)
        env = state.config.envelope_at(0)
        rng = np.random.default_rng(0)
        draws = rng.uniform(
            [-1.0, 0.0, 0.0], [1.0, 1.0, 1.0], size=(100_000, 3)
        )
        cap = 11.0  # buyer: 10 - 3 + 4; seller caps at 0
        for chunk in draws.reshape(-1, width, 3):
            quotes, reservation = decode_action([Action(*row) for row in chunk], state)
            assert ((0 <= reservation) & (reservation <= 1)).all()
            for quote in quotes:
                assert 0 <= quote.quantity <= cap
                if quote.quantity > 0:
                    assert env.feed_in <= quote.ask <= env.emergency

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_matches_per_agent_reference(self, n):
        # out-of-box draws, with +-0.0 and +-1.0 planted in every field
        fleet = tuple(DEFAULT_FLEET[i % 4] for i in range(n))
        cfg = EnvConfig(fleet=fleet, m_lower=-7.5 * n, m_upper=-5.0 * n)
        state, _ = reset(cfg, seed=n)
        rng = np.random.default_rng(n)
        specials = np.array([0.0, -0.0, 1.0, -1.0])
        for t in range(cfg.horizon):
            raw = rng.uniform(-1.5, 1.5, (n, 3))
            planted = rng.random((n, 3)) < 0.3
            raw[planted] = rng.choice(specials, planted.sum())
            joint = [Action(*row) for row in raw.tolist()]
            quotes, reservation = decode_action(joint, state)
            assert len(quotes) == n and reservation.shape == (n,)
            for i, action in enumerate(joint):
                ref_quote, ref_reservation = reference_decode(action, state, i)
                assert quotes[i].agent_id == i
                assert repr(float(quotes[i].price)) == repr(float(ref_quote.price))
                assert repr(float(quotes[i].quantity)) == repr(float(ref_quote.quantity))
                assert repr(float(reservation[i])) == repr(float(ref_reservation))
            step(state, joint)


class TestStep:
    def test_no_trade_step_settles_by_recourse(self):
        cfg = quiet_config()
        env = TradingEnv(cfg)
        env.reset(seed=2)
        result = env.step([Action(0.0, 0.0, 1.0)] * 4)
        assert result.ledger.trades == []
        for i, rec in enumerate(result.settlements):
            residual = balance_residual(
                rec, env.state.load[i, 0], env.state.gen[i, 0]
            )
            assert abs(residual) <= 1e-9

    def test_balance_identity_over_random_steps(self):
        for mechanism in ("jpq", "greedy", "mrda", "vvda"):
            cfg = EnvConfig(mechanism=mechanism, process_sigma=0.15)
            env = TradingEnv(cfg)
            env.reset(seed=11)
            rng = np.random.default_rng(40)
            for t in range(24):
                actions = [
                    Action(*rng.uniform(-1, 1, 3)).clipped() for _ in range(4)
                ]
                result = env.step(actions)
                for i, rec in enumerate(result.settlements):
                    residual = balance_residual(
                        rec, env.state.load[i, t], env.state.gen[i, t]
                    )
                    assert abs(residual) <= 1e-9
                for i, s in enumerate(ess(env.state)):
                    p = cfg.fleet[i]
                    assert p.e_min - 1e-9 <= s.energy <= p.e_max + 1e-9

    def test_complementary_agents_trade_avoids_emergency(self):
        fleet = (
            MicrogridParams(l_max=20, g_max=5, e_max=8, t_charge_max=4,
                            t_discharge_max=4, e0=0),
            MicrogridParams(l_max=5, g_max=20, e_max=8, t_charge_max=4,
                            t_discharge_max=4, e0=0),
        )
        cfg = quiet_config(fleet=fleet)
        load = np.zeros((2, 24))
        gen = np.zeros((2, 24))
        load[0, :] = 5.0   # agent 0 in deficit by 5
        gen[1, :] = 5.0    # agent 1 in surplus by 5
        state = make_state(cfg, load, gen, energies=[0.0, 0.0])
        # caps are net +/- the ESS rate (5 + 4 = 9); bid exactly the net position
        result = step(state, [Action(1.0, 5 / 9, 1.0), Action(-0.05, 5 / 9, 1.0)])
        assert result.ledger.total_volume() == pytest.approx(5.0)
        assert result.settlements[0].q_e == pytest.approx(0.0)
        assert result.settlements[0].q_b == pytest.approx(5.0)
        assert result.settlements[1].q_s == pytest.approx(5.0)

    def test_reward_sum_equals_grid_profit_sum(self):
        cfg = EnvConfig()
        env = TradingEnv(cfg)
        env.reset(seed=9)
        rng = np.random.default_rng(90)
        for _ in range(24):
            actions = [Action(*rng.uniform(-1, 1, 3)).clipped() for _ in range(4)]
            result = env.step(actions)
            assert sum(result.rewards) == pytest.approx(
                sum(s.profit_grid for s in result.settlements), abs=1e-9
            )

    def test_episode_length_and_finish_error(self):
        env = TradingEnv(quiet_config())
        env.reset(seed=1)
        for t in range(24):
            result = env.step([Action(0.0, 0.0, 1.0)] * 4)
        assert result.done
        with pytest.raises(EpisodeFinished):
            env.step([Action(0.0, 0.0, 1.0)] * 4)

    def test_full_determinism(self):
        def run():
            env = TradingEnv(EnvConfig())
            env.reset(seed=77)
            rewards = []
            rng = np.random.default_rng(7)
            for _ in range(24):
                actions = [Action(*rng.uniform(-1, 1, 3)).clipped() for _ in range(4)]
                rewards.append(env.step(actions).rewards)
            return np.array(rewards)

        np.testing.assert_array_equal(run(), run())

    def test_common_random_numbers_across_mechanisms(self):
        # scenario draws depend only on the seed, never on the mechanism
        states = []
        for mechanism in ("jpq", "greedy", "mrda", "vvda"):
            env = TradingEnv(EnvConfig(mechanism=mechanism))
            env.reset(seed=31)
            states.append((env.state.load.copy(), env.state.gen.copy()))
        for load, gen in states[1:]:
            np.testing.assert_array_equal(load, states[0][0])
            np.testing.assert_array_equal(gen, states[0][1])

    def test_carry_over_soc_option(self):
        cfg = quiet_config(carry_over_soc=True)
        env = TradingEnv(cfg)
        env.reset(seed=4)
        for _ in range(24):
            env.step([Action(0.0, 0.0, 1.0)] * 4)
        final = [s.energy for s in ess(env.state)]
        env.reset(seed=4)
        assert [s.energy for s in ess(env.state)] == final

    @pytest.mark.parametrize("joint,message", [
        ([Action(0.3, 0.5, 0.3), Action(0.3, 0.5, 0.2),
          Action(0.3, 0.5, float("nan")), Action(0.3, 0.5, 1.0)],
         r"agent 2: non-finite action Action\(price_raw=0.3, qty_frac=0.5, reservation=nan\)"),
        ([Action(0.3, 0.5, 0.3), Action(0.3, float("nan"), 0.2),
          Action(0.3, 0.5, 0.4), Action(0.3, 0.5, 1.0)], "agent 1: non-finite action"),
        ([Action(0.3, 0.5, 0.3), Action(0.3, 0.5, 0.2),
          Action(0.3, 0.5, 0.4), Action(float("inf"), 0.5, 1.0)], "agent 3: non-finite action"),
        ([Action(0.3, 0.5, 0.3)] * 3, "need 4 actions, got 3"),
        ([Action(0.3, 0.5, 0.3)] * 5, "need 4 actions, got 5"),
        (np.full((4, 2), 0.5), r"need 3 fields per action, got shape \(4, 2\)"),
        (np.full((3, 3), 0.5), "need 4 actions, got 3"),
        (np.full((5, 3), 0.5), "need 4 actions, got 5"),
        (np.array([[0.3, 0.5, 0.3]] * 2 + [[np.nan] * 3] + [[0.3, 0.5, 0.3]]),
         "agent 2: non-finite action"),
        ([[0.3, 0.5, 0.3]] * 3 + [[0.3, 0.5]], r"not an \(n, 3\) array of numbers"),
        ([[0.3, 0.5, "x"]] * 4, r"not an \(n, 3\) array of numbers"),
    ], ids=["joint0", "joint1", "joint2", "joint3", "joint4", "array-4x2", "array-3x3", "array-5x3", "array-nan-row", "ragged", "non-numeric"])
    def test_rejected_joint_action_changes_no_state(self, joint, message):
        env = TradingEnv(quiet_config())
        env.reset(seed=5)
        env.step([Action(0.0, 0.0, 0.7)] * 4)
        before = ess(env.state)
        with pytest.raises(InvalidAction, match=message) as info:
            env.step(joint)
        assert isinstance(info.value, GridTradeError)
        assert isinstance(info.value, ValueError)
        assert env.state.hour == 1
        assert ess(env.state) == before
        assert [s.reservation for s in ess(env.state)] == [0.7] * 4

    def test_step_record_is_json_serializable(self):
        import json

        env = TradingEnv(quiet_config())
        env.reset(seed=0)
        actions = [Action(0.5, 0.5, 0.5)] * 4
        result = env.step(actions)
        payload = json.dumps(step_record(0, 0, actions, result))
        assert "rewards" in payload

    @pytest.mark.parametrize("mechanism", ["jpq", "greedy", "mrda", "vvda"])
    def test_step_carries_the_ledgers_operator_surplus(self, mechanism):
        env = TradingEnv(EnvConfig(mechanism=mechanism))
        rng = np.random.default_rng(60)
        surpluses = []
        for seed in range(3):
            env.reset(seed=seed)
            for _ in range(24):
                result = env.step(rng.uniform([-1, 0, 0], [1, 1, 1], (4, 3)))
                assert repr(result.operator_surplus) == repr(result.ledger.operator_surplus())
                surpluses.append(result.operator_surplus)
        # only VVDA's operator keeps money
        assert any(surpluses) == (mechanism == "vvda")

    def test_step_record_holds_fleet_columns(self):
        env = TradingEnv(EnvConfig())
        env.reset(seed=3)
        actions = np.array([[0.6, 0.5, 1.0], [-0.2, 0.9, 0.5], [0.9, 0.3, 0.0], [-0.7, 1.0, 1.0]])
        result = env.step(actions)
        record = step_record(0, 0, actions, result)
        settled = record["settlements"]
        assert tuple(settled) == RECORD_FIELDS
        for name in RECORD_FIELDS:
            column = getattr(result.settlements, name)
            assert [repr(x) for x in settled[name]] == [repr(x) for x in column.tolist()]
        assert tuple(record["actions"]) == Action._fields
        assert list(zip(*record["actions"].values())) == [tuple(a) for a in actions.tolist()]


def random_fleet(rng, n):
    """Heterogeneous plants with lossy storage and a positive floor."""
    fleet = []
    for _ in range(n):
        e_max = float(rng.uniform(4, 30))
        e_min = float(rng.uniform(0, 0.2)) * e_max
        fleet.append(MicrogridParams(
            l_max=float(rng.uniform(5, 40)), g_max=float(rng.uniform(5, 15)),
            e_max=e_max, e_min=e_min, e0=float(rng.uniform(e_min, e_max)),
            t_charge_max=float(rng.uniform(1, 10)), t_discharge_max=float(rng.uniform(1, 10)),
            beta=float(rng.uniform(0.5, 1.2)),
            eta_ch=float(rng.uniform(0.8, 1.0)), eta_dis=float(rng.uniform(0.8, 1.0)),
        ))
    return tuple(fleet)


class TestLargeFleetPowerBalance:
    """Full seeded days on random 64- and 256-microgrid fleets."""

    @pytest.mark.parametrize("mechanism", ["jpq", "greedy", "mrda", "vvda"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_every_agent_hour_balances(self, n, mechanism):
        rng = np.random.default_rng(n)
        fleet = random_fleet(rng, n)
        cfg = EnvConfig(fleet=fleet, mechanism=mechanism, process_sigma=0.15,
                        m_lower=-7.5 * n, m_upper=-5.0 * n)
        state, _ = reset(cfg, seed=n)
        e_min = np.array([p.e_min for p in fleet])
        e_max = np.array([p.e_max for p in fleet])
        trades = 0
        for t in range(cfg.horizon):
            actions = [Action(*row) for row in rng.uniform([-1, 0, 0], [1, 1, 1], (n, 3))]
            result = step(state, actions)
            ledger = result.ledger
            for i, rec in enumerate(result.settlements):
                residual = balance_residual(rec, state.load[i, t], state.gen[i, t], cfg.dt)
                assert abs(residual) <= 1e-9
                assert result.rewards[i] == rec.profit_grid + rec.profit_p2p
            assert (e_min - 1e-9 <= state.energy).all()
            assert (state.energy <= e_max + 1e-9).all()
            paid, received = ledger.total_payments_micro(), ledger.total_receipts_micro()
            if mechanism == "vvda":
                assert paid >= received
            else:
                assert paid == received
            assert sum(to_micro(rec.profit_p2p) for rec in result.settlements) == received - paid
            trades += len(ledger.trades)
        assert result.done
        assert trades > 0


class TestScriptedPolicies:
    def test_net_position_roles(self):
        cfg = quiet_config()
        state, obs = reset(cfg, seed=0)
        policy = ScriptedPolicy("net-position")
        actions = policy.act(obs, PolicyContext(cfg.plant, 0, seed=0))
        assert actions.shape == (4, 3)
        assert ((-1 <= actions[:, 0]) & (actions[:, 0] <= 1)).all()
        assert ((0 <= actions[:, 1]) & (actions[:, 1] <= 1)).all()
        assert (actions[:, 2] == 1.0).all()

    def test_zero_policy_null_quote(self):
        policy = ScriptedPolicy("zero")
        a = policy.act(None, PolicyContext(FleetParams.of(DEFAULT_FLEET[:1]), 0, 0))
        assert a.tolist() == [[0.0, 0.0, 1.0]]

    def test_random_policy_deterministic_per_seed(self):
        policy = ScriptedPolicy("random")
        ctx = PolicyContext(FleetParams.of(DEFAULT_FLEET), 5, seed=42)
        a = policy.act(None, ctx)
        b = policy.act(None, ctx)
        np.testing.assert_array_equal(a, b)

    def test_random_policy_independent_of_agent_count(self):
        policy = ScriptedPolicy("random")
        one = policy.act(None, PolicyContext(FleetParams.of(DEFAULT_FLEET[:1]), 3, seed=9))
        six = policy.act(None, PolicyContext(FleetParams.of(DEFAULT_FLEET[:2] * 3), 3, seed=9))
        np.testing.assert_array_equal(one[0], six[0])

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("rule", ["net-position", "random", "zero"])
    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_matches_per_agent_reference(self, n, rule, margin):
        # a seeded day in which rows are planted each hour: net exactly 0,
        # net within +-1e-9 of 0 on either side, and a seller with zero cap
        fleet = tuple(DEFAULT_FLEET[i % 4] for i in range(n))
        cfg = EnvConfig(fleet=fleet, m_lower=-7.5 * n, m_upper=-5.0 * n)
        policy = ScriptedPolicy(rule, margin)
        state, obs = reset(cfg, seed=n)
        planted = set()
        for t in range(cfg.horizon):
            window = obs.window.copy()
            for i in range(n):
                kind = (i + t) % 5
                rate = fleet[i].t_discharge_max
                slot = {1: (0.0, 3.0, 3.0), 2: (0.0, 3.0, 3.0 + 5e-10),
                        3: (0.0, 3.0 + 5e-10, 3.0), 4: (rate + 6.0, rate + 1.0, 0.0)}
                if kind in slot:
                    window[i, cfg.delta_past, :3] = slot[kind]
                    planted.add(kind)
            obs = replace(obs, window=window)
            ctx = PolicyContext(cfg.plant, t, seed=n, dt=cfg.dt, delta_past=cfg.delta_past)
            actions = policy.act(obs, ctx)
            assert actions.shape == (n, 3)
            for i in range(n):
                ref = reference_act(rule, margin, obs.window[i], float(obs.soc[i]),
                                    fleet[i], i, ctx)
                assert list(map(repr, actions[i].tolist())) == list(map(repr, ref))
            obs = step(state, actions).observations
        assert planted == {1, 2, 3, 4}

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            ScriptedPolicy("maximize")

    def test_net_position_reduces_emergency_vs_zero(self):
        # with complementary deficit/surplus agents the trader should buy
        # in the P2P market instead of falling through to emergency
        fleet = (
            MicrogridParams(l_max=20, g_max=5, e_max=8, t_charge_max=4,
                            t_discharge_max=4, e0=0, beta=0.01),
            MicrogridParams(l_max=5, g_max=20, e_max=8, t_charge_max=4,
                            t_discharge_max=4, e0=0, beta=0.01),
        )
        profiles = (
            DailyProfile(load=np.full(24, 0.5), pv=np.zeros(24)),
            DailyProfile(load=np.zeros(24), pv=np.full(24, 0.5)),
        )
        cfg = quiet_config(fleet=fleet, profiles=profiles)

        def total_emergency(rule):
            env = TradingEnv(cfg)
            obs = env.reset(seed=3)
            policy = ScriptedPolicy(rule)
            total = 0.0
            for t in range(24):
                result = env.step(policy.act(obs, PolicyContext(cfg.plant, t, seed=3)))
                obs = result.observations
                total += sum(s.q_e for s in result.settlements)
            return total

        assert total_emergency("net-position") < total_emergency("zero")


def test_episode_metrics_per_agent_means_are_the_column_means():
    rng = np.random.default_rng(5)
    for _ in range(50):
        T, n = int(rng.integers(1, 60)), int(rng.integers(1, 70))
        series = [rng.normal(size=(T, n)) * 10.0 ** rng.uniform(-3, 3) for _ in range(4)]
        row = episode_metrics(7, *series)
        assert row["episode"] == 7
        for k, name in enumerate(("reward", "emergency_kwh", "feedin_kwh", "storage_kwh")):
            assert row[name] == float(series[k].mean())
            for i in range(n):
                assert row[f"{name}_agent{i}"] == float(series[k][:, i].mean())
