"""Environment tests: reset/step, market factor, observations, balance."""

import numpy as np
import pytest

from gridtrade.env import (
    Action,
    EnvConfig,
    GlobalState,
    TradingEnv,
    build_observation,
    compute_market_factor,
    decode_action,
    observation_dim,
    reset,
    step,
    step_record,
)
from gridtrade.errors import ConfigInvalid, EpisodeFinished, GridTradeError, InvalidAction
from gridtrade.microgrid import (
    DEFAULT_FLEET,
    EssState,
    MicrogridParams,
    balance_residual,
)
from gridtrade.policies import PolicyContext, ScriptedPolicy
from gridtrade.scenario import DailyProfile, DisruptionConfig, PriceSchedule


def quiet_config(**kw):
    """Deterministic config: no noise, no disruptions."""
    base = dict(
        process_sigma=0.0,
        obs_sigma=0.0,
        disruption=DisruptionConfig.disabled(),
    )
    base.update(kw)
    return EnvConfig(**base)


def make_state(config, load, gen, q_da=None, energies=None, hour=0, seed=0):
    """Hand-built state with explicit realized trajectories."""
    n, T = load.shape
    q_da = np.zeros((n, T)) if q_da is None else q_da
    ess = [
        EssState(energy=(energies[i] if energies else config.fleet[i].e0))
        for i in range(n)
    ]
    return GlobalState(
        config=config,
        seed=seed,
        hour=hour,
        ess=ess,
        load=load,
        gen=gen,
        load_forecast=load.copy(),
        gen_forecast=gen.copy(),
        q_da=q_da,
    )


class TestReset:
    def test_reference_fleet_initial_storage(self):
        state, obs = reset(quiet_config(), seed=7)
        assert len(obs) == 4
        assert [s.energy for s in state.ess] == [0, 2, 0, 20]

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
        assert obs[0].window.shape == (8, 4)
        assert observation_dim(cfg) == 2 + 32 + 8 + 2

    def test_hour_zero_pads_history_slot(self):
        state, obs = reset(quiet_config(), seed=0)
        assert obs[0].window_mask[0] == 0.0
        assert (obs[0].window[0] == 0).all()
        assert obs[0].window_mask[1] == 1.0

    def test_noiseless_window_equals_forecast(self):
        cfg = quiet_config()
        state, obs = reset(cfg, seed=3)
        o = obs[1]
        np.testing.assert_allclose(o.window[1, 1], state.load_forecast[1, 0])
        np.testing.assert_allclose(o.window[1, 2], state.gen_forecast[1, 0])
        np.testing.assert_allclose(o.window[1, 0], state.q_da[1, 0])
        np.testing.assert_allclose(o.window[1, 3], cfg.prices.emergency[0])

    def test_noisy_window_deterministic_per_seed(self):
        cfg = EnvConfig(obs_sigma=0.1)
        state, _ = reset(cfg, seed=5)
        a = build_observation(state, 2)
        b = build_observation(state, 2)
        np.testing.assert_array_equal(a.window, b.window)

    def test_hour_encoding(self):
        state, obs = reset(quiet_config(), seed=0)
        assert obs[0].hour_sin == pytest.approx(0.0)
        assert obs[0].hour_cos == pytest.approx(1.0)

    def test_vector_roundtrip_shape(self):
        cfg = quiet_config()
        _, obs = reset(cfg, seed=0)
        assert obs[0].as_vector().shape == (observation_dim(cfg),)


class TestDecodeAction:
    def make_unit_state(self, load=10.0, gen=3.0):
        sched = PriceSchedule(feed_in=0.2, emergency=np.full(24, 2.2), day_ahead=0.5)
        cfg = quiet_config(fleet=(DEFAULT_FLEET[0],), prices=sched)
        return make_state(
            cfg, load=np.full((1, 24), load), gen=np.full((1, 24), gen)
        )

    def test_affine_price_map(self):
        state = self.make_unit_state()
        quote, _ = decode_action(Action(0.5, 0.5, 1.0), state, 0)
        assert quote.price == pytest.approx(1.2)
        assert quote.is_buyer

    def test_boundary_maps_to_envelope_edge(self):
        state = self.make_unit_state()
        quote, _ = decode_action(Action(-1.0, 0.5, 1.0), state, 0)
        assert quote.price == pytest.approx(-2.2)

    def test_zero_fraction_gives_null_quote(self):
        state = self.make_unit_state()
        quote, _ = decode_action(Action(0.7, 0.0, 0.3), state, 0)
        assert quote.quantity == 0.0

    def test_zero_price_raw_is_buyer_at_feed_in(self):
        state = self.make_unit_state()
        quote, _ = decode_action(Action(0.0, 0.5, 1.0), state, 0)
        assert quote.is_buyer
        assert quote.price == pytest.approx(0.2)

    def test_quantity_capped_by_role_limit(self):
        state = self.make_unit_state(load=10, gen=3)
        quote, _ = decode_action(Action(1.0, 1.0, 1.0), state, 0)
        # buyer cap: 10 - 3 + 4 = 11
        assert quote.quantity == pytest.approx(11.0)
        quote, _ = decode_action(Action(-1.0, 1.0, 1.0), state, 0)
        assert quote.quantity == 0.0  # seller cap floors at zero

    def test_reservation_passthrough_and_fuzz_validity(self):
        # action-range robustness: any box action decodes to a valid quote
        state = self.make_unit_state()
        env = state.config.envelope_at(0)
        rng = np.random.default_rng(0)
        draws = rng.uniform(
            [-1.0, 0.0, 0.0], [1.0, 1.0, 1.0], size=(100_000, 3)
        )
        cap = 11.0  # buyer: 10 - 3 + 4; seller caps at 0
        for row in draws:
            quote, reservation = decode_action(Action(*row), state, 0)
            assert 0 <= reservation <= 1
            assert 0 <= quote.quantity <= cap
            if quote.quantity > 0:
                assert env.feed_in <= quote.ask <= env.emergency


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
                for i, s in enumerate(env.state.ess):
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
        final = [s.energy for s in env.state.ess]
        env.reset(seed=4)
        assert [s.energy for s in env.state.ess] == final

    @pytest.mark.parametrize("joint", [
        [Action(0.3, 0.5, 0.3), Action(0.3, 0.5, 0.2),
         Action(0.3, 0.5, float("nan")), Action(0.3, 0.5, 1.0)],
        [Action(0.3, 0.5, 0.3), Action(0.3, float("nan"), 0.2),
         Action(0.3, 0.5, 0.4), Action(0.3, 0.5, 1.0)],
        [Action(0.3, 0.5, 0.3), Action(0.3, 0.5, 0.2),
         Action(0.3, 0.5, 0.4), Action(float("inf"), 0.5, 1.0)],
        [Action(0.3, 0.5, 0.3)] * 3,
        [Action(0.3, 0.5, 0.3)] * 5,
    ])
    def test_rejected_joint_action_changes_no_state(self, joint):
        env = TradingEnv(quiet_config())
        env.reset(seed=5)
        env.step([Action(0.0, 0.0, 0.7)] * 4)
        before = list(env.state.ess)
        with pytest.raises(InvalidAction) as info:
            env.step(joint)
        assert isinstance(info.value, GridTradeError)
        assert isinstance(info.value, ValueError)
        assert env.state.hour == 1
        assert env.state.ess == before
        assert [s.reservation for s in env.state.ess] == [0.7] * 4

    def test_step_record_is_json_serializable(self):
        import json

        env = TradingEnv(quiet_config())
        env.reset(seed=0)
        actions = [Action(0.5, 0.5, 0.5)] * 4
        result = env.step(actions)
        payload = json.dumps(step_record(0, 0, actions, result))
        assert "rewards" in payload


class TestScriptedPolicies:
    def test_net_position_roles(self):
        cfg = quiet_config()
        state, obs = reset(cfg, seed=0)
        policy = ScriptedPolicy("net-position")
        hour_actions = []
        for i in range(4):
            ctx = PolicyContext(i, cfg.fleet[i], 0, seed=0)
            a = policy.act(obs[i], ctx)
            hour_actions.append(a)
            assert -1 <= a.price_raw <= 1
            assert 0 <= a.qty_frac <= 1
            assert a.reservation == 1.0

    def test_zero_policy_null_quote(self):
        policy = ScriptedPolicy("zero")
        a = policy.act(None, PolicyContext(0, DEFAULT_FLEET[0], 0, 0))
        assert a.qty_frac == 0.0

    def test_random_policy_deterministic_per_seed(self):
        policy = ScriptedPolicy("random")
        ctx = PolicyContext(1, DEFAULT_FLEET[1], 5, seed=42)
        a = policy.act(None, ctx)
        b = policy.act(None, ctx)
        assert a == b

    def test_random_policy_independent_of_agent_count(self):
        policy = ScriptedPolicy("random")
        a = policy.act(None, PolicyContext(0, DEFAULT_FLEET[0], 3, seed=9))
        _ = policy.act(None, PolicyContext(5, DEFAULT_FLEET[1], 3, seed=9))
        b = policy.act(None, PolicyContext(0, DEFAULT_FLEET[0], 3, seed=9))
        assert a == b

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
                actions = [
                    policy.act(obs[i], PolicyContext(i, fleet[i], t, seed=3))
                    for i in range(2)
                ]
                result = env.step(actions)
                obs = result.observations
                total += sum(s.q_e for s in result.settlements)
            return total

        assert total_emergency("net-position") < total_emergency("zero")
