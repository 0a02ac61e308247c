#!/usr/bin/env python3
"""Scenario machinery: profiles, noisy realizations, PV disruptions, prices.

Prints the bundled 24-hour shapes as text sparklines and demonstrates the
three PV disruption processes plus the seeded determinism of every draw.
"""

import numpy as np

from gridtrade.microgrid import DEFAULT_FLEET, FleetParams
from gridtrade.scenario import (
    HOURS,
    STREAM_DAY,
    DisruptionConfig,
    apply_pv_disruption,
    bundled_price_schedule,
    bundled_profile,
    draw_day,
    rng_stream,
    sample_realization,
)

BARS = " .:-=+*#%@"


def spark(values, top=None):
    top = top or (max(values) or 1.0)
    return "".join(BARS[min(9, int(9 * v / top))] for v in values)


print("bundled daily profiles (normalized 0..1):")
for i in range(4):
    p = bundled_profile(i)
    print(f"  grid {i} load |{spark(p.load, 1.0)}|")
    print(f"  grid {i} pv   |{spark(p.pv, 1.0)}|")

sched = bundled_price_schedule()
lo, hi = sched.emergency.min(), sched.emergency.max()
print(f"\nemergency price ({lo:.1f}..{hi:.1f} $/kWh, feed-in fixed {sched.feed_in}):")
print(f"  |{spark(sched.emergency, 3.5)}|")

print("\nnoisy realization for grid 0 (process sigma 0.1), two draws of seed 7:")
profile = bundled_profile(0)
base = np.array([[profile.load, profile.pv]])
plant = FleetParams.of(DEFAULT_FLEET[:1])


def day(seed):
    """Grid 0's day block: process noise, disruption uniforms, observation noise."""
    return draw_day([rng_stream(seed, 0, STREAM_DAY)], window_len=8)


a = sample_realization(base, plant, 0.1, day(7).process)
b = sample_realization(base, plant, 0.1, day(7).process)
print(f"  load |{spark(a[0][0], 25)}|  (identical on redraw: {np.array_equal(a[0], b[0])})")

print("\nPV disruption processes on a flat 10 kWh series:")
flat = np.full((1, HOURS), 10.0)
cfg = DisruptionConfig()  # toned-down default rates


def forced(event, hour, drop=0.0):
    """Uniforms that start one event (0 sudden, 1 gradual, 2 failure) at `hour`."""
    uniforms = np.full((1, HOURS, 4), 0.999)
    uniforms[0, :, 3] = drop
    uniforms[0, hour, event] = 0.0
    return uniforms


sudden = apply_pv_disruption(flat, cfg, forced(0, 8, drop=0.25))[0]  # factor 0.6
gradual = apply_pv_disruption(flat, cfg, forced(1, 6))[0]
failure = apply_pv_disruption(flat, DisruptionConfig(failure_hours=3), forced(2, 10))[0]
print(f"  sudden drop x0.6 at hour 8 |{spark(sudden, 10)}|")
print(f"  gradual decline from hour 6|{spark(gradual, 10)}|")
print(f"  failure hours 10-12        |{spark(failure, 10)}|")

disrupted = apply_pv_disruption(flat, cfg, day(3).disruption)[0]
print(f"  sampled composite          |{spark(disrupted, 10)}|")
assert (disrupted <= flat).all()
