"""Scenario generation tests."""

import numpy as np
import pytest

from gridtrade.microgrid import DEFAULT_FLEET, FleetParams
from gridtrade.scenario import (
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

W = 8  # the default observation window


def day_draws(seed, agents, window_len=W):
    return draw_day([rng_stream(seed, i, STREAM_DAY) for i in agents], window_len)


def realize(profile, params, sigma, noise):
    """One microgrid's realized (load, gen) from its (2, HOURS) process noise."""
    base = np.array([[profile.load, profile.pv]])
    load, gen = sample_realization(base, FleetParams.of([params]), sigma, noise[None])
    return load[0], gen[0]


# Scalar reference for the fleet `apply_pv_disruption`: each event applied in
# turn, hour by hour, sudden drop then gradual decline then failure.

def apply_sudden_drop(gen, hour, factor):
    out = gen.copy()
    out[hour] *= factor
    return out


def apply_gradual_decline(gen, hour, ramp_hours, floor):
    out = gen.copy()
    for k in range(hour, len(out)):
        step = k - hour
        out[k] *= 1.0 - (1.0 - floor) * (step + 1) / ramp_hours if step < ramp_hours else floor
    return out


def apply_failure(gen, hour, duration):
    out = gen.copy()
    out[hour : hour + duration] = 0.0
    return out


def sequential_disruption(gen, cfg, uniforms):
    """One microgrid's disrupted PV from its (HOURS, 4) uniforms."""
    out = np.asarray(gen, dtype=float).copy()
    for t, (sudden, gradual, failure, drop) in enumerate(uniforms.tolist()):
        if sudden < cfg.p_sudden:
            out = apply_sudden_drop(out, t, cfg.drop_lo + (cfg.drop_hi - cfg.drop_lo) * drop)
        if gradual < cfg.p_gradual:
            out = apply_gradual_decline(out, t, cfg.ramp_hours, cfg.ramp_floor)
        if failure < cfg.p_failure:
            out = apply_failure(out, t, cfg.failure_hours)
    return out


def forced(event, hour, drop=0.0):
    """(1, HOURS, 4) uniforms that start one event (0 sudden, 1 gradual,
    2 failure) at `hour` and no other."""
    uniforms = np.full((1, HOURS, 4), 1.0 - 1e-12)
    uniforms[0, :, 3] = drop
    uniforms[0, hour, event] = 0.0
    return uniforms


class TestBundledDefaults:
    def test_profiles_valid_and_distinct(self):
        profiles = [bundled_profile(i) for i in range(4)]
        for p in profiles:
            assert p.load.shape == (24,) and p.pv.shape == (24,)
            assert p.pv[:4].max() == 0.0  # no PV at night
        assert not np.allclose(profiles[0].load, profiles[1].load)

    def test_profiles_built_once_and_read_only(self):
        for i in range(6):
            prof = bundled_profile(i)
            assert bundled_profile(i) is prof
            fresh = bundled_profile.__wrapped__(i)
            for got, want in ((prof.load, fresh.load), (prof.pv, fresh.pv)):
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = 0.5

    def test_price_schedule_spans_range(self):
        sched = bundled_price_schedule()
        assert sched.feed_in == 0.2
        assert sched.emergency.min() == pytest.approx(1.5)
        assert sched.emergency.max() == pytest.approx(3.5)

    def test_price_hierarchy_holds_at_every_hour(self):
        sched = bundled_price_schedule()
        assert sched.feed_in <= sched.day_ahead <= sched.emergency.min()

    def test_price_schedule_validation(self):
        with pytest.raises(ValueError):
            PriceSchedule(feed_in=2.0, emergency=np.full(24, 1.0))
        with pytest.raises(ValueError):
            PriceSchedule(feed_in=0.2, emergency=np.full(10, 2.0))


class TestEmergencyPrice:
    def test_in_range_default(self):
        emergency = bundled_price_schedule().emergency
        assert ((1.5 <= emergency) & (emergency <= 3.5)).all()

    def test_custom_flat_schedule(self):
        sched = PriceSchedule(feed_in=0.2, emergency=np.full(24, 2.0))
        assert sched.emergency.shape == (HOURS,)
        assert (sched.emergency == 2.0).all()


class TestDrawDay:
    def test_full_block_in_fixed_order(self):
        draws = day_draws(5, [0, 1], window_len=3)
        assert draws.process.shape == (2, 2, HOURS)
        assert draws.disruption.shape == (2, HOURS, 4)
        assert draws.obs.shape == (2, HOURS, 3, 2)
        rng = rng_stream(5, 1, STREAM_DAY)
        np.testing.assert_array_equal(draws.process[1], rng.standard_normal((2, HOURS)))
        np.testing.assert_array_equal(draws.disruption[1], rng.random((HOURS, 4)))
        np.testing.assert_array_equal(draws.obs[1], rng.standard_normal((HOURS, 3, 2)))


class TestSampleRealization:
    def test_noiseless_is_exact_scaling(self):
        prof = bundled_profile(0)
        load, gen = realize(prof, DEFAULT_FLEET[0], 0.0, day_draws(1, [0]).process[0])
        np.testing.assert_allclose(load, 25 * prof.load)
        np.testing.assert_allclose(gen, 5 * prof.pv)

    def test_seed_determinism(self):
        prof = bundled_profile(1)
        a = realize(prof, DEFAULT_FLEET[1], 0.1, day_draws(7, [1]).process[0])
        b = realize(prof, DEFAULT_FLEET[1], 0.1, day_draws(7, [1]).process[0])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_bounds_respected(self):
        prof = bundled_profile(2)
        load, gen = realize(prof, DEFAULT_FLEET[2], 0.5, day_draws(3, [2]).process[0])
        assert load.min() >= 0 and load.max() <= 40
        assert gen.min() >= 0 and gen.max() <= 10

    def test_midday_scaling_example(self):
        prof = DailyProfile(load=np.full(24, 0.5), pv=np.zeros(24))
        load, _ = realize(prof, DEFAULT_FLEET[0], 0.0, day_draws(0, [0]).process[0])
        assert load[12] == pytest.approx(12.5)

    def test_stream_independence_across_agents(self):
        # agent 0's draws must not depend on how many other agents exist
        alone, fleet = day_draws(9, [0]), day_draws(9, range(4))
        for a, b in zip(alone, fleet):
            np.testing.assert_array_equal(a[0], b[0])

    def test_fleet_rows_equal_single_agent_calls(self):
        profiles = [bundled_profile(i) for i in range(4)]
        noise = day_draws(11, range(4)).process
        base = np.array([[p.load, p.pv] for p in profiles])
        load, gen = sample_realization(base, FleetParams.of(DEFAULT_FLEET), 0.1, noise)
        for i, (prof, params) in enumerate(zip(profiles, DEFAULT_FLEET)):
            li, gi = realize(prof, params, 0.1, noise[i])
            np.testing.assert_array_equal(load[i], li)
            np.testing.assert_array_equal(gen[i], gi)


class TestDisruptions:
    def test_all_probabilities_zero_is_identity(self):
        gen = np.random.default_rng(0).uniform(0, 10, (4, HOURS))
        uniforms = day_draws(0, range(4)).disruption
        uniforms[:, ::5, :3] = 0.0  # the smallest uniform still starts nothing
        out = apply_pv_disruption(gen, DisruptionConfig(p_sudden=0.0, p_gradual=0.0, p_failure=0.0), uniforms)
        np.testing.assert_array_equal(out, gen)

    def test_forced_failure_window(self):
        cfg = DisruptionConfig(failure_hours=3)
        out = apply_pv_disruption(np.ones((1, HOURS)), cfg, forced(2, 10))[0]
        assert (out[10:13] == 0).all()
        assert (out[:10] == 1).all() and (out[13:] == 1).all()

    def test_forced_sudden_drop(self):
        # drop factor 0.5 + (0.9 - 0.5) * 0.25 = 0.6
        out = apply_pv_disruption(np.full((1, HOURS), 2.0), DisruptionConfig(),
                                  forced(0, 8, drop=0.25))[0]
        assert out[8] == pytest.approx(1.2)
        assert out[7] == 2.0 and out[9] == 2.0

    def test_gradual_decline_ramp_then_hold(self):
        cfg = DisruptionConfig(ramp_hours=3, ramp_floor=0.5)
        out = apply_pv_disruption(np.ones((1, HOURS)), cfg, forced(1, 6))[0]
        np.testing.assert_allclose(out[6:9], [1 - 0.5 / 3, 1 - 1.0 / 3, 0.5])
        assert (out[9:] == 0.5).all()
        assert (out[:6] == 1.0).all()

    @pytest.mark.parametrize("cfg", [
        DisruptionConfig(),
        DisruptionConfig.reported(),
        DisruptionConfig(p_sudden=0.5, p_gradual=0.4, p_failure=0.1, ramp_hours=5,
                         ramp_floor=0.3, failure_hours=2),
    ], ids=["default", "reported", "frequent"])
    def test_fleet_matches_sequential_reference(self, cfg):
        n = 64
        gen = np.random.default_rng(3).uniform(0, 10, (n, HOURS))
        uniforms = day_draws(12, range(n)).disruption
        out = apply_pv_disruption(gen, cfg, uniforms)
        for i in range(n):
            np.testing.assert_allclose(out[i], sequential_disruption(gen[i], cfg, uniforms[i]),
                                       rtol=1e-12, atol=0)

    def test_disrupted_never_exceeds_original(self):
        gen = np.random.default_rng(2).uniform(0, 10, (50, HOURS))
        cfg = DisruptionConfig(p_sudden=0.5, p_gradual=0.3, p_failure=0.1)
        out = apply_pv_disruption(gen, cfg, day_draws(2, range(50)).disruption)
        assert (out <= gen + 1e-12).all()
        assert (out >= 0).all()

    def test_determinism(self):
        gen = np.tile(np.linspace(1, 5, HOURS), (4, 1))
        cfg = DisruptionConfig()
        a = apply_pv_disruption(gen, cfg, day_draws(4, range(4)).disruption)
        b = apply_pv_disruption(gen, cfg, day_draws(4, range(4)).disruption)
        np.testing.assert_array_equal(a, b)

    def test_reported_rates_preserved(self):
        cfg = DisruptionConfig.reported()
        assert (cfg.p_sudden, cfg.p_gradual, cfg.p_failure) == (0.85, 0.10, 0.01)

    def test_default_rates_are_toned_down(self):
        cfg = DisruptionConfig()
        assert cfg.p_sudden == 0.15
        assert cfg.p_gradual == 0.10
        assert cfg.p_failure == 0.01

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            DisruptionConfig(p_sudden=1.5)

    @pytest.mark.parametrize("floor", [-1.0, 1.5, float("nan")])
    def test_ramp_floor_outside_unit_interval_rejected(self, floor):
        with pytest.raises(ValueError, match="ramp_floor"):
            DisruptionConfig(ramp_floor=floor)


class TestDailyProfileValidation:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            DailyProfile(load=np.zeros(10), pv=np.zeros(24))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            DailyProfile(load=np.full(24, 1.5), pv=np.zeros(24))
