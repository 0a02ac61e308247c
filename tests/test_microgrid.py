"""Microgrid physics and settlement tests."""

from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridtrade.market import BALANCED, PriceEnvelope, Quotation, clear_jpq
from gridtrade.microgrid import (
    DEFAULT_FLEET,
    RECORD_FIELDS,
    FleetParams,
    FleetSettlement,
    MicrogridParams,
    SettlementRecord,
    _max,
    _min,
    _pos,
    balance_residual,
    day_ahead_quantity,
    grid_profit,
    max_bid_quantity,
    p2p_profit,
    settle_and_balance,
)

PRICES = PriceEnvelope(feed_in=0.2, day_ahead=0.5, emergency=2.0)


class EssState(NamedTuple):
    """One microgrid's storage: stored kWh and the reserved fraction."""

    energy: float
    reservation: float


def make_params(**kw):
    base = dict(
        l_max=25, g_max=5, e_max=8, t_charge_max=4, t_discharge_max=4, e0=0
    )
    base.update(kw)
    return MicrogridParams(**base)


def reference_settle(load, gen, q_da, q_b, q_s, state, prices, dt, params):
    """Scalar reference: one microgrid's settlement, written with Python
    min/max. The vector `settle_and_balance` must reproduce it bit for bit,
    signed zeros included."""
    energy = state.energy
    cap = max(params.e_min, state.reservation * params.e_max)
    balance = gen + q_da + q_b - load - q_s

    over_store = max(0.0, energy - cap)
    bus_shed = min(over_store * params.eta_dis, params.t_discharge_max * dt)
    energy -= bus_shed / params.eta_dis
    balance += bus_shed

    bus_charge = 0.0
    bus_cover = 0.0
    if balance > 0:
        headroom = max(0.0, cap - energy)
        bus_charge = min(balance, params.t_charge_max * dt, headroom / params.eta_ch)
        energy += bus_charge * params.eta_ch
        balance -= bus_charge
    elif balance < 0:
        available = max(0.0, energy - params.e_min)
        rate_left = max(0.0, params.t_discharge_max * dt - bus_shed)
        bus_cover = min(-balance, rate_left, available * params.eta_dis)
        energy -= bus_cover / params.eta_dis
        balance += bus_cover

    q_fit = max(0.0, balance)
    q_e = max(0.0, -balance)
    record = SettlementRecord(
        q_da=q_da, q_b=q_b, q_s=q_s, q_e=q_e, q_fit=q_fit,
        t_ess=(bus_charge - bus_shed - bus_cover) / dt,
        profit_grid=grid_profit(q_fit, q_e, prices),
    )
    return record, state._replace(energy=energy)


def settle_one(load, gen, q_da, q_b, q_s, state, prices, dt, params):
    """One microgrid through the fleet-vector `settle_and_balance`."""
    fleet = settle_and_balance(
        *(np.array([float(x)]) for x in (load, gen, q_da, q_b, q_s)),
        energy=np.array([float(state.energy)]),
        reservation=np.array([float(state.reservation)]),
        prices=prices, dt=dt, plant=FleetParams.of([params]),
    )
    record = fleet[0]
    return record, state._replace(energy=fleet.energy[0].item())


class TestParams:
    def test_default_fleet_matches_reference_table(self):
        assert [p.l_max for p in DEFAULT_FLEET] == [25, 6, 40, 5]
        assert [p.g_max for p in DEFAULT_FLEET] == [5, 7, 10, 15]
        assert [p.e_max for p in DEFAULT_FLEET] == [8, 15, 15, 30]
        assert [p.t_charge_max for p in DEFAULT_FLEET] == [4, 5, 8, 10]
        assert [p.t_discharge_max for p in DEFAULT_FLEET] == [4, 5, 8, 10]
        assert [p.e0 for p in DEFAULT_FLEET] == [0, 2, 0, 20]
        assert all(p.beta == 0.95 for p in DEFAULT_FLEET)
        assert all(p.eta_ch == 1.0 and p.eta_dis == 1.0 for p in DEFAULT_FLEET)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_params(e0=10)  # above e_max
        with pytest.raises(ValueError):
            make_params(t_charge_max=0)
        with pytest.raises(ValueError):
            make_params(eta_ch=1.5)
        with pytest.raises(ValueError):
            make_params(beta=0)

    @pytest.mark.parametrize("name", [f.name for f in fields(MicrogridParams)])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_params(**{name: value})


class TestDayAhead:
    def test_scaled_deficit(self):
        assert day_ahead_quantity(10, 4, 0.95) == pytest.approx(5.7)

    def test_surplus_floors_at_zero(self):
        assert day_ahead_quantity(4, 10, 0.95) == 0.0

    def test_zero_deficit(self):
        assert day_ahead_quantity(7, 7, 1.3) == 0.0

    def test_monotone_in_beta(self):
        qs = [day_ahead_quantity(10, 4, b) for b in (0.5, 0.9, 1.2)]
        assert qs == sorted(qs)


class TestMaxBidQuantity:
    def test_buyer_branch(self):
        assert max_bid_quantity(10, 3, True, make_params()) == 11

    def test_seller_floors_at_zero(self):
        assert max_bid_quantity(10, 3, False, make_params()) == 0.0

    def test_seller_branch(self):
        assert max_bid_quantity(2, 7, False, make_params(t_discharge_max=5)) == 10

    def test_fleet_elementwise(self):
        params = [make_params(), make_params(t_discharge_max=5), make_params()]
        caps = max_bid_quantity(
            np.array([10.0, 2.0, 10.0]), np.array([3.0, 7.0, 3.0]),
            np.array([True, False, False]), FleetParams.of(params),
        )
        assert caps.tolist() == [11.0, 10.0, 0.0]


class TestSettleAndBalance:
    def test_full_absorption_of_surplus(self):
        p = make_params(e_max=10)
        rec, nxt = settle_one(
            load=5, gen=8, q_da=0, q_b=0, q_s=0,
            state=EssState(3.0, 1.0), prices=PRICES, dt=1, params=p,
        )
        assert rec.t_ess == pytest.approx(3.0)
        assert rec.q_fit == 0.0 and rec.q_e == 0.0
        assert nxt.energy == pytest.approx(6.0)

    def test_empty_store_deficit_goes_emergency(self):
        rec, nxt = settle_one(
            load=7, gen=5, q_da=0, q_b=0, q_s=0,
            state=EssState(0.0, 1.0), prices=PRICES, dt=1, params=make_params(),
        )
        assert rec.q_e == pytest.approx(2.0)
        assert rec.t_ess == 0.0
        assert nxt.energy == 0.0

    def test_reservation_cap_sheds_to_feed_in(self):
        p = make_params(e_max=8, t_discharge_max=10)
        rec, nxt = settle_one(
            load=5, gen=5, q_da=0, q_b=0, q_s=0,
            state=EssState(6.0, 0.5), prices=PRICES, dt=1, params=p,
        )
        assert rec.q_fit == pytest.approx(2.0)
        assert rec.t_ess == pytest.approx(-2.0)
        assert nxt.energy == pytest.approx(4.0)

    def test_shed_offsets_deficit_before_emergency(self):
        p = make_params(e_max=8, t_discharge_max=10)
        rec, nxt = settle_one(
            load=6, gen=5, q_da=0, q_b=0, q_s=0,
            state=EssState(6.0, 0.5), prices=PRICES, dt=1, params=p,
        )
        # 2 kWh shed from over-storage covers the 1 kWh deficit, remainder exported
        assert rec.q_e == 0.0
        assert rec.q_fit == pytest.approx(1.0)
        assert nxt.energy == pytest.approx(4.0)

    def test_partial_discharge_then_emergency(self):
        p = make_params(t_discharge_max=2)
        rec, nxt = settle_one(
            load=10, gen=2, q_da=0, q_b=0, q_s=0,
            state=EssState(8.0, 1.0), prices=PRICES, dt=1, params=p,
        )
        assert rec.t_ess == pytest.approx(-2.0)
        assert rec.q_e == pytest.approx(6.0)
        assert nxt.energy == pytest.approx(6.0)

    def test_charge_rate_limits_absorption(self):
        p = make_params(e_max=50, t_charge_max=4)
        rec, _ = settle_one(
            load=0, gen=10, q_da=0, q_b=0, q_s=0,
            state=EssState(0.0, 1.0), prices=PRICES, dt=1, params=p,
        )
        assert rec.t_ess == pytest.approx(4.0)
        assert rec.q_fit == pytest.approx(6.0)

    def test_p2p_sale_without_energy_becomes_emergency(self):
        rec, _ = settle_one(
            load=5, gen=5, q_da=0, q_b=0, q_s=3,
            state=EssState(1.0, 1.0), prices=PRICES, dt=1, params=make_params(),
        )
        assert rec.t_ess == pytest.approx(-1.0)
        assert rec.q_e == pytest.approx(2.0)

    def test_balance_identity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            p = make_params(
                e_max=float(rng.uniform(4, 30)),
                t_charge_max=float(rng.uniform(1, 10)),
                t_discharge_max=float(rng.uniform(1, 10)),
                eta_ch=float(rng.uniform(0.7, 1.0)),
                eta_dis=float(rng.uniform(0.7, 1.0)),
            )
            state = EssState(
                energy=float(rng.uniform(0, p.e_max)),
                reservation=float(rng.uniform(0, 1)),
            )
            load, gen = rng.uniform(0, 40), rng.uniform(0, 15)
            q_da, q_b, q_s = rng.uniform(0, 20), rng.uniform(0, 10), rng.uniform(0, 10)
            rec, nxt = settle_one(
                load, gen, q_da, q_b, q_s, state, PRICES, 1.0, p
            )
            assert abs(balance_residual(rec, load, gen)) <= 1e-9
            assert p.e_min - 1e-12 <= nxt.energy <= p.e_max + 1e-12
            assert rec.q_e >= 0 and rec.q_fit >= 0
            assert -p.t_discharge_max - 1e-12 <= rec.t_ess <= p.t_charge_max + 1e-12
            if rec.t_ess > 0:
                cap = max(p.e_min, state.reservation * p.e_max)
                assert nxt.energy <= cap + 1e-9


# Values on a coarse grid make exact ties likely: balance exactly 0, energy
# exactly at the cap, charge equal to the rate limit; -0.0 checks the sign
# of zero.
FLOWS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 4.5]),
    st.floats(0.0, 20.0, allow_subnormal=False),
)
ETAS = st.one_of(st.just(1.0), st.sampled_from([0.5, 0.8, 0.95]), st.floats(0.3, 1.0))


@st.composite
def agent_hours(draw):
    e_max = draw(st.sampled_from([4.0, 8.0, 15.0]) | st.floats(1.0, 30.0))
    e_min = draw(st.just(0.0) | st.floats(0.0, e_max / 2))
    params = make_params(
        e_max=e_max,
        e_min=e_min,
        e0=e_min,
        t_charge_max=draw(st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.5, 10.0)),
        t_discharge_max=draw(st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.5, 10.0)),
        eta_ch=draw(ETAS),
        eta_dis=draw(ETAS),
    )
    state = EssState(
        energy=draw(st.sampled_from([e_min, e_max, e_max / 2]) | st.floats(e_min, e_max)),
        reservation=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)),
    )
    load, gen, q_da, q_b, q_s = (draw(FLOWS) for _ in range(5))
    return load, gen, q_da, q_b, q_s, state, params


BALANCED_LOSSY_OVER_CAP = [
    (3.0, 1.0, 1.0, 1.0, 0.0, EssState(6.0, 0.25),
     make_params(e_max=8, eta_ch=0.9, eta_dis=0.8)),                      # balance 0, over cap
    (2.0, 2.0, 0.0, 0.0, 0.0, EssState(3.0, 1.0), make_params(eta_dis=0.95)),
    (0.0, 5.0, 0.0, 0.0, 1.0, EssState(8.0, 0.5), make_params(eta_ch=0.5)),
    (-0.0, -0.0, 0.0, 0.0, 0.0, EssState(0.0, 1.0), make_params()),
]


class TestVectorSettlementOracle:
    """The fleet-vector settlement equals the scalar reference per agent."""

    @settings(max_examples=100, deadline=None)
    @example(rows=BALANCED_LOSSY_OVER_CAP)
    @given(rows=st.lists(agent_hours(), min_size=1, max_size=12))
    def test_vector_matches_scalar_reference(self, rows):
        dt = 1.0
        fleet = settle_and_balance(
            *(np.array([r[k] for r in rows]) for k in range(5)),
            energy=np.array([r[5].energy for r in rows]),
            reservation=np.array([r[5].reservation for r in rows]),
            prices=PRICES, dt=dt, plant=FleetParams.of([r[6] for r in rows]),
        )
        records = list(fleet)
        assert len(records) == len(fleet) == len(rows)
        for i, (load, gen, q_da, q_b, q_s, state, params) in enumerate(rows):
            rec, nxt = reference_settle(load, gen, q_da, q_b, q_s, state, PRICES, dt, params)
            assert repr(records[i]) == repr(fleet[i]) == repr(rec)
            assert repr(fleet.energy[i].item()) == repr(nxt.energy)

    def test_oracle_draws_reach_the_corner_cases(self):
        # the explicit example covers what random draws may miss
        load, gen, q_da, q_b, q_s, state, params = BALANCED_LOSSY_OVER_CAP[0]
        assert gen + q_da + q_b - load - q_s == 0.0
        assert params.eta_ch < 1 and params.eta_dis < 1
        assert state.energy > state.reservation * params.e_max


def reference_settle_and_balance(load, gen, q_da, q_b, q_s, energy, reservation, prices, dt,
                                 plant) -> FleetSettlement:
    """The fleet settlement written with `_max`/`_min` (Python's tie rule at
    every clamp), kept as the oracle of `settle_and_balance`'s `np.maximum`/
    `np.minimum` form."""
    p = plant
    zero = np.zeros(len(energy))
    cap = _max(p.e_min, reservation * p.e_max)
    balance = gen + q_da + q_b - load - q_s
    bus_shed = _min(_max(zero, energy - cap) * p.eta_dis, p.t_discharge_max * dt)
    energy = energy - bus_shed / p.eta_dis
    balance = balance + bus_shed
    surplus, deficit = balance > zero, balance < zero
    headroom = _max(zero, cap - energy) / p.eta_ch
    bus_charge = np.where(surplus, _min(_min(balance, p.t_charge_max * dt), headroom), zero)
    rate_left = _max(zero, p.t_discharge_max * dt - bus_shed)
    available = _max(zero, energy - p.e_min) * p.eta_dis
    bus_cover = np.where(deficit, _min(_min(-balance, rate_left), available), zero)
    energy = np.where(surplus, energy + bus_charge * p.eta_ch, energy - bus_cover / p.eta_dis)
    balance = balance - bus_charge + bus_cover
    q_fit = _max(zero, balance)
    q_e = _max(zero, -balance)
    return FleetSettlement(
        q_da=q_da, q_b=q_b, q_s=q_s, q_e=q_e, q_fit=q_fit,
        t_ess=(bus_charge - bus_shed - bus_cover) / dt,
        profit_grid=grid_profit(q_fit, q_e, prices), profit_p2p=zero, energy=energy,
    )


def signed_zeros(rng, x, share=0.2):
    """`x` with about `share` of its entries replaced by 0.0 or -0.0."""
    hit = rng.random(x.shape) < share
    return np.where(hit, np.where(rng.random(x.shape) < 0.5, 0.0, -0.0), x)


def settlement_draws(rng, draws, n):
    """`draws` seeded fleet hours of n microgrids, as (draws, n) arrays: flows
    and plant on a coarse grid half the time, so clamps tie, and signed zeros
    in every flow, storage and capacity input."""
    shape = (draws, n)

    def amount(scale):
        grid = rng.integers(0, 9, shape) * (scale / 8)
        return np.where(rng.random(shape) < 0.5, grid, rng.uniform(0, scale, shape))

    e_max = signed_zeros(rng, amount(30.0))
    e_min = signed_zeros(rng, np.minimum(amount(5.0), e_max))
    rates = [np.where(rng.random(shape) < 0.5, rng.integers(1, 5, shape) * 1.0,
                      rng.uniform(0.5, 10, shape)) for _ in range(2)]
    etas = [np.where(rng.random(shape) < 0.5, 1.0, rng.uniform(0.3, 1.0, shape))
            for _ in range(2)]
    ones = np.ones(shape)
    plant = FleetParams(l_max=25 * ones, g_max=5 * ones, e_max=e_max, t_charge_max=rates[0],
                        t_discharge_max=rates[1], e0=e_min, beta=0.95 * ones, e_min=e_min,
                        eta_ch=etas[0], eta_dis=etas[1])
    reservation = np.array([-0.0, 0.0, 0.5, 1.0, 2.0])[rng.integers(0, 5, shape)]
    reservation = np.where(reservation == 2.0, rng.random(shape), reservation)
    flows = [signed_zeros(rng, amount(12.0)) for _ in range(5)]
    energy = signed_zeros(rng, amount(30.0))
    dts = np.where(rng.random(draws) < 0.8, 1.0, 0.5)
    for k in range(draws):
        yield dict(zip(("load", "gen", "q_da", "q_b", "q_s"), (f[k] for f in flows)),
                   energy=energy[k], reservation=reservation[k], prices=PRICES,
                   dt=float(dts[k]), plant=FleetParams(*(getattr(plant, f.name)[k]
                                                         for f in fields(FleetParams))))


class TestSettlementAgainstTieRuleReference:
    """`settle_and_balance` clamps with `np.maximum`/`np.minimum` and `_pos`;
    every column equals the tie-rule reference bit for bit, signed zeros included."""

    @pytest.mark.parametrize("n", [4, 64])
    def test_every_column_bitwise_equal(self, n):
        rng = np.random.default_rng(12 + n)
        for k, draw in enumerate(settlement_draws(rng, 10_000, n)):
            got = settle_and_balance(**draw)
            want = reference_settle_and_balance(**draw)
            for name in (*RECORD_FIELDS, "energy"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (k, name)

    def test_pos_is_python_max_with_zero(self):
        x = np.array([-0.0, 0.0, -1.5, 2.5, 5e-324, -5e-324, 1e308])
        assert _pos(x).tobytes() == np.array([max(0.0, v) for v in x.tolist()]).tobytes()


class TestProfits:
    def test_grid_profit_mixed(self):
        assert grid_profit(2, 1, PRICES) == pytest.approx(-1.6)

    def test_grid_profit_zero(self):
        assert grid_profit(0, 0, PRICES) == 0.0

    def test_grid_profit_pure_feed_in(self):
        assert grid_profit(5, 0, PRICES) == pytest.approx(1.0)

    def test_grid_profit_rejects_negative(self):
        with pytest.raises(ValueError):
            grid_profit(-1, 0, PRICES)

    def test_p2p_profit_roundtrip(self):
        quotes = [Quotation(0, 1.0, 4), Quotation(1, -0.5, 4)]
        ledger = clear_jpq(quotes, BALANCED, p_e=2.0)
        totals = ledger.agent_totals(8)
        profit = p2p_profit(totals.received_micro, totals.paid_micro)
        assert profit[0] == pytest.approx(-3.0)
        assert profit[1] == pytest.approx(3.0)
        assert profit[7] == 0.0
        assert totals.bought[0] == ledger.bought_kwh(0) == 4.0
        assert totals.sold[1] == ledger.sold_kwh(1) == 4.0

    def test_p2p_profits_sum_to_zero_exactly(self):
        from gridtrade.market import clear_greedy, clear_mrda

        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            quotes = [
                Quotation(
                    i,
                    float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1),
                    float(rng.uniform(0, 10)),
                )
                for i in range(n)
            ]
            for ledger in (
                clear_jpq(quotes, BALANCED, p_e=2.0),
                clear_greedy(quotes),
                clear_mrda(quotes, PRICES),
            ):
                totals = ledger.agent_totals(n)
                assert sum(totals.received_micro) - sum(totals.paid_micro) == 0

    def test_reward_is_sum_of_profits(self):
        zero = np.zeros(2)
        fleet = FleetSettlement(
            q_da=zero, q_b=zero, q_s=zero, q_e=zero, q_fit=zero, t_ess=zero,
            profit_grid=np.array([-1.6, 0.5]), profit_p2p=np.array([3.0, -0.5]),
            energy=zero,
        )
        np.testing.assert_allclose(fleet.reward, [1.4, 0.0])

    def test_grid_profit_monotonicity(self):
        base = grid_profit(3, 2, PRICES)
        assert grid_profit(3, 2.5, PRICES) < base
        assert grid_profit(3.5, 2, PRICES) > base

