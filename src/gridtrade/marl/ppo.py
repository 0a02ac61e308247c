"""PPO building blocks: advantage estimation, clipped losses, optimizers.

The actor loss is the clipped surrogate with an entropy bonus; the critic
regresses onto GAE targets built from the values recorded at collection
time. Both losses are autodiff Tensors so their gradients can be checked
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatch
from .autodiff import Tensor, as_tensor, clip, exp, minimum
from .nets import squash_correction


@dataclass
class RolloutBuffer:
    """One agent's episode trajectory, stored step by step."""

    obs: list = field(default_factory=list)            # local observation vectors
    global_obs: list = field(default_factory=list)     # concatenated team vectors
    presquash: list = field(default_factory=list)      # pre-squash action samples
    actions: list = field(default_factory=list)        # decoded box actions
    logp: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    values: list = field(default_factory=list)
    dones: list = field(default_factory=list)

    def add(self, obs, global_obs, presquash, action, logp, reward, value, done):
        self.obs.append(obs)
        self.global_obs.append(global_obs)
        self.presquash.append(presquash)
        self.actions.append(action)
        self.logp.append(logp)
        self.rewards.append(reward)
        self.values.append(value)
        self.dones.append(done)

    def __len__(self):
        return len(self.rewards)

    def clear(self):
        for name in (
            "obs", "global_obs", "presquash", "actions",
            "logp", "rewards", "values", "dones",
        ):
            getattr(self, name).clear()

    def arrays(self) -> dict[str, np.ndarray]:
        lengths = {len(self.obs), len(self.logp), len(self.rewards), len(self.values)}
        if len(lengths) != 1:
            raise ShapeMismatch("buffer sequences have unequal lengths")
        return {
            "obs": np.asarray(self.obs, dtype=np.float64),
            "global_obs": np.asarray(self.global_obs, dtype=np.float64),
            "presquash": np.asarray(self.presquash, dtype=np.float64),
            "logp": np.asarray(self.logp, dtype=np.float64),
            "rewards": np.asarray(self.rewards, dtype=np.float64),
            "values": np.asarray(self.values, dtype=np.float64),
        }


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Exponentially weighted advantage estimates by backward recursion.

    `values` has one entry per reward; the bootstrap is the value of the
    state after the final transition (zero for terminated episodes).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise ShapeMismatch(
            f"rewards {rewards.shape} and values {values.shape} must match"
        )
    ext = np.append(values, bootstrap_value)
    adv = np.zeros_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + gamma * ext[t + 1] - ext[t]
        acc = delta + gamma * lam * acc
        adv[t] = acc
    return adv


def importance_ratio(logp_new, logp_old):
    """exp(logp_new - logp_old); stays positive for any finite inputs."""
    return np.exp(np.asarray(logp_new) - np.asarray(logp_old))


def normalize_advantages(adv: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    adv = np.asarray(adv, dtype=np.float64)
    return (adv - adv.mean()) / (adv.std() + eps)


def actor_loss(
    logp_new: Tensor,
    logp_old: np.ndarray,
    advantages: np.ndarray,
    entropy: Tensor,
    clip_eps: float,
    entropy_coef: float,
) -> Tensor:
    """Clipped PPO surrogate with entropy bonus, to be minimized.

    -(1/B) sum[min(rho * A, clip(rho, 1-eps, 1+eps) * A)] - c * H.
    """
    ratio = exp(logp_new - as_tensor(logp_old))
    adv = as_tensor(advantages)
    surrogate = minimum(ratio * adv, clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv)
    return -(surrogate.mean() + entropy_coef * entropy)


def policy_logp_and_entropy(
    means: Tensor, log_std: Tensor, presquash: np.ndarray
) -> tuple[Tensor, Tensor]:
    """Taped log-probabilities of stored pre-squash actions, plus entropy.

    `means` and `presquash` share their shape (..., action_dim); the
    log-probabilities have the leading shape. The tanh-squash Jacobian depends only on the stored sample, so it is a
    constant offset: it keeps reported log-probs consistent with rollout
    values without contributing gradient. Entropy is the closed form of
    the pre-squash Gaussian.
    """
    u = np.asarray(presquash, dtype=np.float64)
    diff = as_tensor(u) - means
    z = diff * exp(-log_std)
    half_log_2pi = 0.5 * np.log(2.0 * np.pi)
    gauss = (z * z * (-0.5) - log_std - half_log_2pi).sum(axis=-1)
    logp = gauss - as_tensor(squash_correction(u))
    entropy = (log_std + 0.5 * (1.0 + np.log(2.0 * np.pi))).sum()
    return logp, entropy


def critic_loss(values: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error between predicted values and GAE targets."""
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if values.data.reshape(-1).shape != t.shape:
        raise ShapeMismatch(
            f"values {values.data.shape} vs targets {t.shape}"
        )
    diff = values - as_tensor(t.reshape(values.data.shape))
    return (diff * diff).mean()


def sgd_update(params: list[Tensor], grads: list[np.ndarray], lr: float) -> list[Tensor]:
    """Plain gradient step: p <- p - lr * g. Mutates and returns params."""
    if len(params) != len(grads):
        raise ShapeMismatch(f"{len(params)} params vs {len(grads)} grads")
    for p, g in zip(params, grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"param {p.data.shape} vs grad {g.shape}")
        p.data = p.data - lr * g
    return params


class Adam:
    """Adaptive-moment optimizer; the default because plain SGD is unstable
    at desk scale. Deterministic given the update sequence."""

    def __init__(self, params: list[Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class Sgd:
    """Plain gradient-descent optimizer matching the update rule exactly."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self):
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        sgd_update(self.params, grads, self.lr)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def make_optimizer(kind: str, params: list[Tensor], lr: float):
    if kind == "adam":
        return Adam(params, lr)
    if kind == "sgd":
        return Sgd(params, lr)
    raise ValueError(f"optimizer must be 'adam' or 'sgd', got {kind!r}")


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: int
    worst_index: int
    passed: bool


def gradient_check(
    params: list[Tensor],
    loss_fn,
    tol: float = 1e-4,
    h: float = 1e-5,
    denom_floor: float = 1e-3,
) -> GradCheckReport:
    """Compare analytic gradients of loss_fn() against central differences.

    loss_fn must rebuild the forward pass from the current parameter data
    each call. Intended for small nets (<= a few thousand parameters).

    The relative error divides by max(denom_floor, |analytic|, |numeric|):
    below the floor the comparison is effectively absolute at
    denom_floor * tol, which sits just above the finite-difference noise
    floor at the default step, so vanishing gradients do not produce
    spurious failures while any real backward bug on a gradient of
    noticeable size still trips the tolerance.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    max_rel = 0.0
    worst = (0, 0)
    for pi, p in enumerate(params):
        flat = p.data.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(loss_fn().data)
            flat[j] = orig - h
            down = float(loss_fn().data)
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[pi].ravel()[j]
            rel = abs(a - numeric) / max(denom_floor, abs(a), abs(numeric))
            if rel > max_rel:
                max_rel = rel
                worst = (pi, j)

    return GradCheckReport(
        max_rel_error=max_rel,
        worst_param=worst[0],
        worst_index=worst[1],
        passed=max_rel < tol,
    )
