"""PPO building blocks: advantage estimation, clipped losses, optimizers.

The actor loss is the clipped surrogate with an entropy bonus; the critic
regresses onto GAE targets built from the values recorded at collection
time. Both losses are autodiff Tensors so their gradients can be checked
against central finite differences. The optimizers step a network's
`ParamStore` whole: the weights, the gradients and Adam's two moments are
each one (n, P) array, and a step is a few elementwise passes over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .autodiff import Tensor, as_tensor, clip, exp, minimum
from .nets import ParamStore, gaussian_logp, squash_correction


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Exponentially weighted advantage estimates by backward recursion.

    Time runs along axis 0; any trailing axes (episodes, agents) are
    independent columns, each with its own recursion. `values` has one
    entry per reward; the bootstrap is the value of the state after the
    final transition (zero for terminated episodes), shared by every column.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise ShapeMismatch(
            f"rewards {rewards.shape} and values {values.shape} must match"
        )
    ext = np.concatenate([values, np.broadcast_to(bootstrap_value, (1, *values.shape[1:]))])
    adv = np.zeros_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + gamma * ext[t + 1] - ext[t]
        acc = delta + gamma * lam * acc
        adv[t] = acc
    return adv


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    """Zero mean and unit spread along the last axis; each leading row (an
    agent's minibatch) is normalized on its own."""
    adv = np.asarray(adv, dtype=np.float64)
    return (adv - adv.mean(axis=-1, keepdims=True)) / (adv.std(axis=-1, keepdims=True) + 1e-8)


def actor_loss(
    logp_new: Tensor,
    logp_old: np.ndarray,
    advantages: np.ndarray,
    entropy: Tensor,
    clip_eps: float,
    entropy_coef: float,
) -> Tensor:
    """Clipped PPO surrogate with entropy bonus, to be minimized.

    -(1/B) sum[min(rho * A, clip(rho, 1-eps, 1+eps) * A)] - c * H, with the
    mean over the last axis: (B,) inputs give one loss, (n, B) inputs and
    an (n,) entropy give each agent's loss.
    """
    ratio = exp(logp_new - as_tensor(logp_old))
    adv = as_tensor(advantages)
    surrogate = minimum(ratio * adv, clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv)
    return -(surrogate.mean(axis=-1) + entropy_coef * entropy)


def policy_logp_and_entropy(
    means: Tensor, log_std: Tensor, presquash: np.ndarray
) -> tuple[Tensor, Tensor]:
    """Taped log-probabilities of stored pre-squash actions, plus entropy.

    `means` and `presquash` share their shape (..., action_dim); the
    log-probabilities have the leading shape. The tanh-squash Jacobian
    depends only on the stored sample, so it is a constant offset: it keeps
    reported log-probs consistent with rollout values without contributing
    gradient. Entropy is the closed form of the pre-squash Gaussian, one
    value per `log_std` row (its shape without the action axis).
    """
    u = np.asarray(presquash, dtype=np.float64)
    logp = gaussian_logp(as_tensor(u), means, log_std, exp) - as_tensor(squash_correction(u))
    entropy = (log_std + 0.5 * (1.0 + np.log(2.0 * np.pi))).sum(axis=-1)
    return logp, entropy


def critic_loss(values: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error between predicted values and GAE targets over the
    targets' last axis: (B,) targets give one loss, (n, B) each agent's."""
    t = np.asarray(targets, dtype=np.float64)
    if values.data.size != t.size:
        raise ShapeMismatch(
            f"values {values.data.shape} vs targets {t.shape}"
        )
    diff = values.reshape(*t.shape) - as_tensor(t)
    return (diff * diff).mean(axis=-1)


class Adam:
    """Adaptive-moment optimizer over one `ParamStore`; the default because
    plain SGD is unstable at desk scale. The moments and two scratch arrays
    are shaped like the store, so a step allocates nothing."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.m, self.v, self._update, self._denom = (np.zeros_like(store.data) for _ in range(4))
        self.t = 0

    def step(self):
        """p <- p - lr * m_hat / (sqrt(v_hat) + eps), with the moments and
        the parameters updated in place; every product and sum rounds as in
        the textbook expression."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        g, m, v, update, denom = self.store.grad, self.m, self.v, self._update, self._denom
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=update)
        g2 = np.multiply(1.0 - self.beta2, g, out=denom)
        g2 *= g
        v *= self.beta2
        v += g2
        np.divide(m, b1t, out=update)
        update *= self.lr
        np.sqrt(np.divide(v, b2t, out=denom), out=denom)
        denom += self.eps
        update /= denom
        self.store.data -= update

    def zero_grad(self):
        self.store.zero_grad()


class Sgd:
    """Plain gradient descent over one `ParamStore`: p <- p - lr * g."""

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr

    def step(self):
        self.store.data -= self.lr * self.store.grad

    def zero_grad(self):
        self.store.zero_grad()


OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


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
        # `.flat` writes through a strided view (a store's column block),
        # where `ravel()` would perturb a copy
        flat = p.data.flat
        for j in range(p.data.size):
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
