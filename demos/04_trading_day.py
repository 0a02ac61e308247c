#!/usr/bin/env python3
"""One simulated trading day, hour by hour.

Four microgrids run the three-phase protocol under the joint
price-quantity mechanism with scripted net-position agents: quote, clear,
settle. The tape shows the market factor, cleared volume, and each agent's
emergency/feed-in recourse.
"""

from gridtrade.env import EnvConfig, TradingEnv
from gridtrade.policies import PolicyContext, ScriptedPolicy

config = EnvConfig()  # reference fleet, bundled profiles, jpq clearing
env = TradingEnv(config)
policy = ScriptedPolicy("net-position")

obs = env.reset(seed=42)  # one Observation for the whole fleet
print("hour  m  volume  trades                 emergency  feedin  community reward")
total_reward = 0.0
for t in range(config.horizon):
    m = obs.m
    # one call acts for every agent: an (n, 3) array, row i is agent i's action
    actions = policy.act(obs, PolicyContext(config.plant, t, seed=42))
    result = env.step(actions)
    obs = result.observations
    volume = result.ledger.total_volume()
    trades = ",".join(
        f"{tr.buyer_id}<-{tr.seller_id}:{tr.quantity:.1f}" for tr in result.ledger.trades
    ) or "-"
    # settlements and rewards are (n,) columns, one entry per microgrid
    q_e = result.settlements.q_e.sum()
    q_fit = result.settlements.q_fit.sum()
    reward = result.rewards.mean()
    total_reward += reward
    print(
        f"{t:4d} {m:+2d} {volume:7.2f}  {trades:22s} {q_e:9.2f} {q_fit:7.2f} {reward:+16.3f}"
    )

print(f"\nmean hourly community reward: {total_reward / config.horizon:+.4f} $")
print(f"final storage (kWh): {[round(e, 2) for e in env.state.energy.tolist()]}")
