"""Desk-scale recurrent multi-agent PPO with centralized critics."""

from .autodiff import Tensor
from .nets import CriticNet, DiagGaussian, LSTMCell, Linear, ParamStore, PolicyNet
from .ppo import (
    Adam,
    GradCheckReport,
    Sgd,
    actor_loss,
    compute_gae,
    critic_loss,
    gradient_check,
    normalize_advantages,
)
from .train import Hyperparams, TrainResult, train

__all__ = [
    "Adam",
    "CriticNet",
    "DiagGaussian",
    "GradCheckReport",
    "Hyperparams",
    "LSTMCell",
    "Linear",
    "ParamStore",
    "PolicyNet",
    "Sgd",
    "Tensor",
    "TrainResult",
    "actor_loss",
    "compute_gae",
    "critic_loss",
    "gradient_check",
    "normalize_advantages",
    "train",
]
