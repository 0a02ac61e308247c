"""Scripted baseline policies.

These provide deterministic (or seed-deterministic) reference agents for
mechanism comparisons and for scoring the learner against: a rational
net-position trader, a uniform-random agent, and a null agent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import Action, Observation
from .microgrid import MicrogridParams, max_bid_quantity
from .scenario import STREAM_ACTION, rng_stream

POLICY_RULES = ("net-position", "random", "zero")


@dataclass(frozen=True)
class PolicyContext:
    """Everything a scripted rule may condition on besides the observation."""

    agent: int
    params: MicrogridParams
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

    def act(self, obs: Observation, ctx: PolicyContext) -> Action:
        if self.rule == "zero":
            return Action(0.0, 0.0, 1.0)
        if self.rule == "random":
            rng = rng_stream(ctx.seed, ctx.agent, STREAM_ACTION, ctx.hour)
            return Action(
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
            )
        return self._net_position(obs, ctx)

    def _net_position(self, obs: Observation, ctx: PolicyContext) -> Action:
        q_da, load_est, gen_est, _ = obs.window[ctx.delta_past]
        net = gen_est + q_da - load_est
        p = ctx.params
        if net < -1e-9:
            cap = max_bid_quantity(load_est, gen_est, True, p, ctx.dt)
            headroom = min(max(0.0, p.e_max - obs.soc), p.t_charge_max * ctx.dt)
            qty_frac = min(1.0, (-net + headroom) / cap) if cap > 0 else 0.0
            return Action(1.0 - self.margin, qty_frac, 1.0)
        if net > 1e-9:
            cap = max_bid_quantity(load_est, gen_est, False, p, ctx.dt)
            qty_frac = min(1.0, net / cap) if cap > 0 else 0.0
            return Action(-self.margin, qty_frac, 1.0)
        return Action(0.0, 0.0, 1.0)
