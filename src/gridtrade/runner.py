"""Episode runner for scripted policies, shared by the CLI and tests."""

from __future__ import annotations

import numpy as np

from .env import EnvConfig, TradingEnv, step_record
from .marl.train import episode_metrics, episode_seed
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
    """
    env = TradingEnv(config)
    rows = []
    for ep in range(episodes):
        ep_seed = episode_seed(seed, ep)
        obs = env.reset(ep_seed)
        rewards, emergency, feedin, storage = [], [], [], []
        for t in range(config.horizon):
            actions = [
                policy.act(
                    obs[i],
                    PolicyContext(
                        agent=i,
                        params=config.fleet[i],
                        hour=t,
                        seed=ep_seed,
                        dt=config.dt,
                        delta_past=config.delta_past,
                    ),
                )
                for i in range(config.n_agents)
            ]
            result = env.step(actions)
            if on_step is not None:
                on_step(step_record(ep, t, actions, result))
            obs = result.observations
            rewards.append(result.rewards)
            emergency.append([s.q_e for s in result.settlements])
            feedin.append([s.q_fit for s in result.settlements])
            storage.append([o.soc for o in obs])
        rows.append(episode_metrics(ep, rewards, emergency, feedin, storage))
    return rows


def mean_community_reward(rows: list[dict]) -> float:
    if not rows:
        return 0.0
    return float(np.mean([r["reward"] for r in rows]))
