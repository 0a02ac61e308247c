"""Scripted baseline policies.

These provide deterministic (or seed-deterministic) reference agents for
mechanism comparisons and for scoring the learner against: a rational
net-position trader, a uniform-random agent, and a null agent. Each acts
for the whole fleet at once: one call maps the fleet `Observation` to the
(n, 3) joint action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import Observation
from .microgrid import FleetParams, _pos, max_bid_quantity
from .scenario import STREAM_ACTION, rng_stream

POLICY_RULES = ("net-position", "random", "zero")


@dataclass(frozen=True)
class PolicyContext:
    """Everything a scripted rule may condition on besides the observation."""

    plant: FleetParams
    hour: int
    seed: int
    dt: float = 1.0
    delta_past: int = 1  # index of the current-hour slot in the window


class ScriptedPolicy:
    """Rule-based actor emitting actions inside the declared box.

    * ``net-position``: sells expected surplus just above the feed-in
      tariff and buys just below the emergency price, offset by `margin`
      of the envelope span. Buyers bid their expected deficit plus the
      storage they can still charge this hour (topping up cheap P2P
      energy ahead of need), sellers offer the bare surplus; the storage
      reservation stays at one.
    * ``random``: uniform over the action box, from a per-(seed, agent,
      hour) stream so draws are independent of call order and fleet size.
    * ``zero``: always submits a null quotation.
    """

    def __init__(self, rule: str = "net-position", margin: float = 0.1):
        if rule not in POLICY_RULES:
            raise ValueError(f"rule must be one of {POLICY_RULES}, got {rule!r}")
        if not (0.0 <= margin <= 1.0):
            raise ValueError("margin must be in [0, 1]")
        self.rule = rule
        self.margin = margin

    def act(self, obs: Observation, ctx: PolicyContext) -> np.ndarray:
        """The fleet's (n, 3) joint action; row i is agent i's action."""
        n = len(ctx.plant.e_max)
        if self.rule == "zero":
            return np.tile([0.0, 0.0, 1.0], (n, 1))
        if self.rule == "random":
            rngs = (rng_stream(ctx.seed, i, STREAM_ACTION, ctx.hour) for i in range(n))
            return np.array([
                [rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
                for rng in rngs
            ])
        return self._net_position(obs, ctx)

    def _net_position(self, obs: Observation, ctx: PolicyContext) -> np.ndarray:
        q_da, load_est, gen_est, _ = obs.window[:, ctx.delta_past].T
        net = gen_est + q_da - load_est
        p = ctx.plant
        buyer, seller = net < -1e-9, net > 1e-9
        cap = max_bid_quantity(load_est, gen_est, buyer, p, ctx.dt)
        # the charge rate limit is positive, so a tie is never a ±0 pair
        headroom = np.minimum(_pos(p.e_max - obs.soc), p.t_charge_max * ctx.dt)
        wanted = np.where(buyer, headroom - net, net)
        tradable = (buyer | seller) & (cap > 0)
        actions = np.empty((len(net), 3))
        actions[:, 0] = np.where(buyer, 1.0 - self.margin, np.where(seller, -self.margin, 0.0))
        # a tie with 1.0 is 1.0 either way
        actions[:, 1] = np.minimum(1.0, np.divide(wanted, cap, out=np.zeros(len(net)),
                                                  where=tradable))
        actions[:, 2] = 1.0
        return actions
