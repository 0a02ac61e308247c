#!/usr/bin/env python3
"""Day-ahead procurement, bid caps and the hourly settlement recourse.

Shows the day-ahead quantity and the buyer/seller bid caps, then walks
one microgrid with 95%-efficient storage through the recourse ladder:
over-storage shedding, surplus charging, deficit discharge, and the
emergency/feed-in residuals, checking the power-balance identity as we go.
"""

import numpy as np

from gridtrade.market import PriceEnvelope
from gridtrade.microgrid import (
    FleetParams,
    MicrogridParams,
    balance_residual,
    day_ahead_quantity,
    max_bid_quantity,
    settle_and_balance,
)

params = MicrogridParams(
    l_max=25, g_max=5, e_max=8, t_charge_max=4, t_discharge_max=4,
    e0=2, eta_ch=0.95, eta_dis=0.95,
)
prices = PriceEnvelope(feed_in=0.2, day_ahead=0.5, emergency=2.5)

print("day-ahead procurement (beta=0.95):")
for load_f, gen_f in ((10, 4), (4, 10), (7, 7)):
    q = day_ahead_quantity(load_f, gen_f, 0.95)
    print(f"  forecast load {load_f}, pv {gen_f} -> q_da = {q:.2f} kWh")

print("\nbid caps by side at load=10, gen=3:")
for side, buyer in (("buyer", True), ("seller", False)):
    print(f"  {side}: {max_bid_quantity(10, 3, buyer, params):.1f} kWh")

print("\nsettlement walkthrough (four cases settled as one fleet vector):")
cases = [
    ("surplus absorbed into storage", dict(load=5, gen=8, q_s=0), (3.0, 1.0)),
    ("deficit covered from storage, remainder emergency",
     dict(load=12, gen=2, q_s=0), (3.0, 1.0)),
    ("reservation shrunk to 0.5: over-storage shed to feed-in",
     dict(load=5, gen=5, q_s=0), (6.0, 0.5)),
    ("sold 3 kWh P2P with a thin store: shortfall hits emergency",
     dict(load=5, gen=5, q_s=3), (1.0, 1.0)),
]


def column(values):
    return np.array(values, dtype=float)


load = column([flows["load"] for _, flows, _ in cases])
gen = column([flows["gen"] for _, flows, _ in cases])
zeros = np.zeros(len(cases))
fleet = settle_and_balance(
    load=load, gen=gen, q_da=zeros, q_b=zeros,
    q_s=column([flows["q_s"] for _, flows, _ in cases]),
    energy=column([ess[0] for _, _, ess in cases]),
    reservation=column([ess[1] for _, _, ess in cases]),
    prices=prices, dt=1.0, plant=FleetParams.of([params] * len(cases)),
)
for i, (label, _, _) in enumerate(cases):
    record = fleet[i]  # agent i's row of the fleet settlement
    residual = balance_residual(record, load[i], gen[i])
    print(f"  {label}:")
    print(
        f"    t_ess={record.t_ess:+.3f} kW, q_fit={record.q_fit:.3f}, "
        f"q_e={record.q_e:.3f}, E'={fleet.energy[i]:.3f}, "
        f"grid profit ${record.profit_grid:+.3f}, balance residual {residual:.1e}"
    )
