#!/usr/bin/env python3
"""Short training run of the recurrent PPO agents.

Trains the four agents for a modest number of episodes (a few minutes on
one core) and prints the learning curve against the scripted baselines.
For the full desk-scale run use the command line:

    gridtrade train --episodes 500 --seed 0 --out runs/train
"""

import numpy as np

from gridtrade.env import EnvConfig
from gridtrade.marl.train import Hyperparams, train
from gridtrade.policies import ScriptedPolicy
from gridtrade.runner import run_episodes

EPISODES = 120


def mean_community_reward(rows: list[dict]) -> float:
    """The community's hourly reward averaged over episodes."""
    return float(np.mean([r["reward"] for r in rows]))


config = EnvConfig()
print("scoring the scripted baselines (50 episodes each)...")
random_score = mean_community_reward(
    run_episodes(config, ScriptedPolicy("random"), 50, seed=1000)
)
heuristic_score = mean_community_reward(
    run_episodes(config, ScriptedPolicy("net-position"), 50, seed=1000)
)
print(f"  random   : {random_score:+.4f} $/agent-hour")
print(f"  heuristic: {heuristic_score:+.4f} $/agent-hour")

print(f"\ntraining {EPISODES} episodes (desk-scale nets)...")
result = train(config, Hyperparams(episodes=EPISODES), seed=0)
rewards = np.array([m["reward"] for m in result.metrics])
for lo in range(0, EPISODES, 20):
    chunk = rewards[lo : lo + 20]
    print(f"  episodes {lo:3d}-{lo + len(chunk) - 1:3d}: mean reward {chunk.mean():+.4f}")

print(f"\nlast-20 mean {rewards[-20:].mean():+.4f} vs random {random_score:+.4f} "
      f"and heuristic {heuristic_score:+.4f}")
print("(the acceptance suite runs 500 episodes x 3 seeds against the "
      "random-to-heuristic gap)")
