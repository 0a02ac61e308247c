"""Fleet actor and critic networks built on the in-repo autodiff engine.

Each agent has its own actor and its own critic, but a network object
holds them for the whole fleet: every weight is one array with a leading
agent axis (n, ...), agent k's slice is agent k's layer, and each forward
pass runs all n agents as one batched computation in which no agent's
numbers touch another's. Biases and `log_std` are (n, 1, out). Every
parameter is a view into its network's one `ParamStore`, so the layers
read it, backward accumulates into it and an optimizer steps it as whole
(n, P) arrays.

The policy embeds the observation sequence with a single-layer LSTM, runs a
two-layer ReLU trunk, and outputs a diagonal Gaussian squashed onto the
action box by tanh. The critic is a plain feedforward value network over
the concatenation of all agents' observation vectors.

Every network carries a no-grad numpy fast path and a taped path for
updates (`forward_seq`, `forward`); both read the same parameter arrays.
The actor's fast path, `distribution`, steps the rollout one hour at a
time, and both actor paths step the LSTM through `autodiff.lstm_cell`. The
critic's, `value`, labels a whole update round's steps in one call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..env import ACTION_DIM, ACTION_HIGH, ACTION_LOW
from .autodiff import Tensor, clip, lstm_cell, lstm_seq, relu

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_SPAN_HALF = (ACTION_HIGH - ACTION_LOW) / 2.0
_CENTER = (ACTION_HIGH + ACTION_LOW) / 2.0


def squash(u: np.ndarray) -> np.ndarray:
    """Map pre-squash values onto the action box."""
    return _CENTER + _SPAN_HALF * np.tanh(u)


def squash_correction(u: np.ndarray) -> np.ndarray:
    """log |d squash / d u| summed over action dims, numerically stable."""
    # log(1 - tanh(u)^2) = 2 * (log 2 - u - softplus(-2u))
    log_jac = 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))
    return (log_jac + np.log(_SPAN_HALF)).sum(axis=-1)


def gaussian_logp(u, mean, log_std, exp=np.exp):
    """Diagonal Gaussian log-density, summed over the last axis.

    The one formula for the rollout (ndarrays) and the taped update
    (`Tensor`s, with `autodiff.exp`), so both round alike.
    """
    z = (u - mean) * exp(-log_std)
    return (z * z * -0.5 - log_std - _HALF_LOG_2PI).sum(axis=-1)


class DiagGaussian:
    """Squashed diagonal Gaussians over the action box, one per row of
    `mean` (numpy, rollout side). `mean` may carry leading axes, such as
    (T, n, action_dim) for a whole day, over which `log_std` broadcasts."""

    def __init__(self, mean: np.ndarray, log_std: np.ndarray):
        self.mean = mean
        self.log_std = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)

    def sample(self, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(actions in box, pre-squash values) from the standard normals
        `noise`, one row per row of `mean`."""
        u = self.mean + np.exp(self.log_std) * noise
        return squash(u), u

    def log_prob(self, u: np.ndarray) -> np.ndarray:
        """Each row's log density of the squashed action identified by its
        pre-squash value."""
        return gaussian_logp(u, self.mean, self.log_std) - squash_correction(u)


class ParamStore:
    """One network's weights and gradients as two agent-major (n, P) arrays.

    Row k of `data` is agent k's weights, each parameter's slice k raveled
    in `params` order: the checkpoint's weight vector. Each parameter's own
    array is copied in and dropped; its `.data` and `.grad` become reshaped
    views of its column block of `data` and `grad`.
    """

    def __init__(self, params: list[Tensor]):
        self.params = params
        n = params[0].data.shape[0]
        self.data = np.concatenate([p.data.reshape(n, -1) for p in params], axis=1)
        self.grad = np.zeros_like(self.data)
        cuts = np.cumsum([p.data[0].size for p in params])[:-1]
        for p, block in zip(params, np.split(self.data, cuts, axis=1)):
            p.data = block.reshape(p.data.shape)
        self._grads = [block.reshape(p.data.shape)
                       for p, block in zip(params, np.split(self.grad, cuts, axis=1))]
        self.zero_grad()

    def zero_grad(self):
        """Zero `grad` and point every `.grad` back at its block of it."""
        self.grad.fill(0.0)
        for p, g in zip(self.params, self._grads):
            p.grad = g


class Linear:
    """Dense layers, one per agent: W (n, in, out), b (n, 1, out). The small
    positive bias keeps ReLU units (and their downstream pre-activations)
    off exact zero, avoiding dead units and keeping finite-difference
    gradient checks on smooth ground."""

    def __init__(self, in_dim: int, out_dim: int, rngs: Sequence[np.random.Generator],
                 scale: float = 1.0):
        std = scale / math.sqrt(in_dim)
        self.W = Tensor(np.stack([rng.normal(0.0, std, (in_dim, out_dim)) for rng in rngs]),
                        requires_grad=True)
        self.b = Tensor(np.full((len(rngs), 1, out_dim), 0.01), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.W + self.b

    def fast(self, x: np.ndarray) -> np.ndarray:
        return x @ self.W.data + self.b.data

    def params(self):
        return [self.W, self.b]


class LSTMCell:
    """Single-layer LSTM parameters, one set per agent; gate order i, f, g, o
    with +1 forget-gate bias. The step itself is `autodiff.lstm_cell`."""

    def __init__(self, in_dim: int, hidden: int, rngs: Sequence[np.random.Generator]):
        self.hidden = hidden
        std_x = 1.0 / math.sqrt(in_dim)
        std_h = 1.0 / math.sqrt(hidden)
        self.Wx = Tensor(np.stack([rng.normal(0.0, std_x, (in_dim, 4 * hidden)) for rng in rngs]),
                         requires_grad=True)
        self.Wh = Tensor(np.stack([rng.normal(0.0, std_h, (hidden, 4 * hidden)) for rng in rngs]),
                         requires_grad=True)
        bias = np.zeros((len(rngs), 1, 4 * hidden))
        bias[..., hidden : 2 * hidden] = 1.0
        self.b = Tensor(bias, requires_grad=True)

    def params(self):
        return [self.Wx, self.Wh, self.b]


class PolicyNet:
    """Recurrent actors, one per agent: LSTM encoder, ReLU trunk, Gaussian
    heads. Agent k's weights are drawn from `rngs[k]`."""

    def __init__(
        self,
        obs_dim: int,
        lstm_hidden: int = 32,
        trunk_hidden: tuple[int, int] = (64, 64),
        log_std_init: float = -0.5,
        mean_bias_init: tuple | None = None,
        rngs: Sequence[np.random.Generator] | None = None,
    ):
        rngs = rngs or [np.random.default_rng(0)]
        self.n_agents = len(rngs)
        self.lstm = LSTMCell(obs_dim, lstm_hidden, rngs)
        self.fc1 = Linear(lstm_hidden, trunk_hidden[0], rngs)
        self.fc2 = Linear(trunk_hidden[0], trunk_hidden[1], rngs)
        self.mean_head = Linear(trunk_hidden[1], ACTION_DIM, rngs, scale=0.01)
        if mean_bias_init is not None:
            self.mean_head.b.data[...] = np.asarray(mean_bias_init, dtype=np.float64)
        self.log_std = Tensor(np.full((self.n_agents, 1, ACTION_DIM), log_std_init),
                              requires_grad=True)
        self.store = ParamStore(
            self.lstm.params()
            + self.fc1.params()
            + self.fc2.params()
            + self.mean_head.params()
            + [self.log_std]
        )

    def params(self):
        return self.store.params

    def initial_hidden(self) -> tuple[np.ndarray, np.ndarray]:
        shape = (self.n_agents, 1, self.lstm.hidden)
        return np.zeros(shape), np.zeros(shape)

    def forward_seq(self, obs_seq: np.ndarray) -> tuple[Tensor, Tensor]:
        """Taped forward over whole episode sequences, hidden state zeroed at
        each episode start.

        `obs_seq` is (n, E, T, obs_dim): agent k's E episodes. Returns
        (means (n, E, T, action_dim), clamped log_std (n, 1, 1, action_dim)).
        """
        obs = np.asarray(obs_seq, dtype=np.float64)
        n, E, T, _ = obs.shape
        lstm = self.lstm
        feats = lstm_seq(obs, lstm.Wx, lstm.Wh, lstm.b).reshape(n, E * T, lstm.hidden)
        z = relu(self.fc1(feats))
        z = relu(self.fc2(z))
        means = self.mean_head(z).reshape(n, E, T, ACTION_DIM)
        log_std = clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)
        return means, log_std.reshape(n, 1, 1, ACTION_DIM)

    def distribution(
        self, obs: np.ndarray, hidden: tuple[np.ndarray, np.ndarray]
    ) -> tuple[DiagGaussian, tuple[np.ndarray, np.ndarray]]:
        """No-grad single-step forward used during rollouts: row k of the
        (n, obs_dim) observations through agent k's actor."""
        lstm, (h, c) = self.lstm, hidden
        z = obs[:, None, :] @ lstm.Wx.data + h @ lstm.Wh.data + lstm.b.data
        _, c, _, h = lstm_cell(z, c)
        z = np.maximum(self.fc1.fast(h), 0.0)
        z = np.maximum(self.fc2.fast(z), 0.0)
        mean = self.mean_head.fast(z)[:, 0]
        return DiagGaussian(mean, self.log_std.data[:, 0]), (h, c)


class CriticNet:
    """Centralized value networks, one per agent, each over all agents'
    concatenated observations. Agent k's weights are drawn from `rngs[k]`."""

    def __init__(
        self,
        input_dim: int,
        hidden: tuple[int, int] = (128, 64),
        rngs: Sequence[np.random.Generator] | None = None,
    ):
        rngs = rngs or [np.random.default_rng(0)]
        self.fc1 = Linear(input_dim, hidden[0], rngs)
        self.fc2 = Linear(hidden[0], hidden[1], rngs)
        self.head = Linear(hidden[1], 1, rngs)
        self.store = ParamStore(self.fc1.params() + self.fc2.params() + self.head.params())

    def params(self):
        return self.store.params

    def forward(self, x: np.ndarray) -> Tensor:
        """Taped values (n, B, 1) of the (B, input_dim) inputs, every agent's
        critic reading the same rows."""
        z = relu(self.fc1(Tensor(x)))
        z = relu(self.fc2(z))
        return self.head(z)

    def value(self, x: np.ndarray) -> np.ndarray:
        """No-grad values (n, B) of the (B, input_dim) inputs."""
        z = np.maximum(self.fc1.fast(x), 0.0)
        z = np.maximum(self.fc2.fast(z), 0.0)
        return self.head.fast(z)[..., 0]

