"""Deterministic multi-microgrid intraday P2P electricity market simulator.

Library layout:

* ``market``    -- quotations, order-book sorting, four clearing mechanisms
* ``microgrid`` -- storage physics, day-ahead procurement, settlement
* ``scenario``  -- profiles, noise, PV disruptions, price schedules
* ``env``       -- the multi-agent trading environment (reset/step)
* ``marl``      -- recurrent PPO learner with centralized critics
* ``policies``  -- scripted baseline agents
* ``runner``    -- scripted-policy episodes on paired seeds
* ``config``    -- YAML run configuration
* ``reporting`` -- every run file: tables, trajectories, checkpoints
* ``cli``       -- simulate / train / compare / export commands
"""

__version__ = "0.1.0"

from .env import Action, EnvConfig, Observation, StepResult, TradingEnv
from .market import (
    MarketFactor,
    PriceEnvelope,
    Quotation,
    TradeLedger,
    clear_greedy,
    clear_jpq,
    clear_mrda,
    clear_vvda,
)
from .microgrid import DEFAULT_FLEET, MicrogridParams, SettlementRecord
from .scenario import DailyProfile, DisruptionConfig, PriceSchedule

__all__ = [
    "Action",
    "DEFAULT_FLEET",
    "DailyProfile",
    "DisruptionConfig",
    "EnvConfig",
    "MarketFactor",
    "MicrogridParams",
    "Observation",
    "PriceEnvelope",
    "PriceSchedule",
    "Quotation",
    "SettlementRecord",
    "StepResult",
    "TradeLedger",
    "TradingEnv",
    "clear_greedy",
    "clear_jpq",
    "clear_mrda",
    "clear_vvda",
    "__version__",
]
