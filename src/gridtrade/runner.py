"""Episode runner for scripted policies, shared by the CLI and tests."""

from __future__ import annotations

from .env import EnvConfig, TradingEnv, episode_metrics, episode_seed, rollout_day, step_record
from .policies import PolicyContext, ScriptedPolicy


def run_episodes(
    config: EnvConfig,
    policy: ScriptedPolicy,
    episodes: int,
    seed: int,
    on_step=None,
) -> list[dict]:
    """Simulate full days under a scripted policy; returns per-episode metrics.

    Episode k draws its scenario from a seed derived from (seed, k) only,
    so runs that share the base seed see identical realizations no matter
    which mechanism or policy is being exercised (common random numbers).
    `on_step`, if given, receives every step's `step_record`.
    """
    env = TradingEnv(config)
    rows = []
    for ep in range(episodes):
        ep_seed = episode_seed(seed, ep)

        def act(hour, obs):
            ctx = PolicyContext(plant=config.plant, hour=hour, seed=ep_seed,
                                dt=config.dt, delta_past=config.delta_past)
            return policy.act(obs, ctx)

        def record(hour, actions, result):
            on_step(step_record(ep, hour, actions, result))

        series = rollout_day(env, ep_seed, act, None if on_step is None else record)
        rows.append(episode_metrics(ep, *series))
    return rows
