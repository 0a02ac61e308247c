"""Actor and critic networks built on the in-repo autodiff engine.

The policy embeds the observation sequence with a single-layer LSTM, runs a
two-layer ReLU trunk, and outputs a diagonal Gaussian squashed onto the
action box by tanh. The critic is a plain feedforward value network over
the concatenation of all agents' observation vectors.

Every network carries a no-grad numpy fast path (`act`, `value`) for
rollouts and a taped path (`forward_seq`, `forward`) for updates; both read
the same parameter arrays.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NonFiniteInput
from .autodiff import Tensor, clip, lstm_seq, relu

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

ACTION_LOW = np.array([-1.0, 0.0, 0.0])
ACTION_HIGH = np.array([1.0, 1.0, 1.0])
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


def gaussian_logp(u: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    z = (u - mean) / np.exp(log_std)
    return (-0.5 * z * z - log_std - _HALF_LOG_2PI).sum(axis=-1)


class DiagGaussian:
    """Squashed diagonal Gaussian over the action box (numpy, rollout side)."""

    def __init__(self, mean: np.ndarray, log_std: np.ndarray):
        self.mean = mean
        self.log_std = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw (action in box, pre-squash value)."""
        u = self.mean + np.exp(self.log_std) * rng.standard_normal(self.mean.shape)
        return squash(u), u

    def mode(self) -> np.ndarray:
        return squash(self.mean)

    def log_prob(self, u: np.ndarray) -> float:
        """Log density of the squashed action identified by its pre-squash value."""
        return float(gaussian_logp(u, self.mean, self.log_std) - squash_correction(u))

    def entropy(self) -> float:
        """Closed-form entropy of the pre-squash Gaussian."""
        return float((0.5 * (1.0 + math.log(2.0 * math.pi)) + self.log_std).sum())


class Linear:
    """Dense layer. The small positive bias keeps ReLU units (and their
    downstream pre-activations) off exact zero, avoiding dead units and
    keeping finite-difference gradient checks on smooth ground."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, scale: float = 1.0):
        std = scale / math.sqrt(in_dim)
        self.W = Tensor(rng.normal(0.0, std, (in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(np.full(out_dim, 0.01), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.W + self.b

    def fast(self, x: np.ndarray) -> np.ndarray:
        return x @ self.W.data + self.b.data

    def params(self):
        return [self.W, self.b]


class LSTMCell:
    """Single-layer LSTM; gate order i, f, g, o with +1 forget-gate bias."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        self.hidden = hidden
        std_x = 1.0 / math.sqrt(in_dim)
        std_h = 1.0 / math.sqrt(hidden)
        self.Wx = Tensor(rng.normal(0.0, std_x, (in_dim, 4 * hidden)), requires_grad=True)
        self.Wh = Tensor(rng.normal(0.0, std_h, (hidden, 4 * hidden)), requires_grad=True)
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        self.b = Tensor(bias, requires_grad=True)

    def params(self):
        return [self.Wx, self.Wh, self.b]

    def step_fast(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        H = self.hidden
        z = x @ self.Wx.data + h @ self.Wh.data + self.b.data
        i = 1.0 / (1.0 + np.exp(-z[:, 0:H]))
        f = 1.0 / (1.0 + np.exp(-z[:, H : 2 * H]))
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * H : 4 * H]))
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        return h_new, c_new


class PolicyNet:
    """Recurrent actor: LSTM encoder, ReLU trunk, Gaussian heads."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int = 3,
        lstm_hidden: int = 32,
        trunk_hidden: tuple[int, int] = (64, 64),
        log_std_init: float = -0.5,
        mean_bias_init: tuple | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.lstm = LSTMCell(obs_dim, lstm_hidden, rng)
        self.fc1 = Linear(lstm_hidden, trunk_hidden[0], rng)
        self.fc2 = Linear(trunk_hidden[0], trunk_hidden[1], rng)
        self.mean_head = Linear(trunk_hidden[1], action_dim, rng, scale=0.01)
        if mean_bias_init is not None:
            self.mean_head.b.data = np.asarray(mean_bias_init, dtype=np.float64).copy()
        self.log_std = Tensor(np.full(action_dim, log_std_init), requires_grad=True)

    def params(self):
        return (
            self.lstm.params()
            + self.fc1.params()
            + self.fc2.params()
            + self.mean_head.params()
            + [self.log_std]
        )

    def initial_hidden(self) -> tuple[np.ndarray, np.ndarray]:
        H = self.lstm.hidden
        return np.zeros((1, H)), np.zeros((1, H))

    def forward_seq(self, obs_seq: np.ndarray) -> tuple[Tensor, Tensor]:
        """Taped forward over whole episode sequences, hidden state zeroed at
        each episode start.

        `obs_seq` is one episode (T, obs_dim) or a stack of E episodes
        (E, T, obs_dim). Returns (means of shape (T, action_dim) or
        (E, T, action_dim), clamped log_std (action_dim,)).
        """
        obs = np.asarray(obs_seq, dtype=np.float64)
        batch = obs.reshape(-1, *obs.shape[-2:])
        E, T, _ = batch.shape
        lstm = self.lstm
        feats = lstm_seq(batch, lstm.Wx, lstm.Wh, lstm.b).reshape(E * T, lstm.hidden)
        z = relu(self.fc1(feats))
        z = relu(self.fc2(z))
        means = self.mean_head(z).reshape(*obs.shape[:-1], self.action_dim)
        return means, clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)

    def distribution(
        self, obs_vec: np.ndarray, hidden: tuple[np.ndarray, np.ndarray]
    ) -> tuple[DiagGaussian, tuple[np.ndarray, np.ndarray]]:
        """No-grad single-step forward used during rollouts."""
        h, c = self.lstm.step_fast(obs_vec.reshape(1, -1), *hidden)
        z = np.maximum(self.fc1.fast(h), 0.0)
        z = np.maximum(self.fc2.fast(z), 0.0)
        mean = self.mean_head.fast(z)[0]
        return DiagGaussian(mean, self.log_std.data), (h, c)


class CriticNet:
    """Centralized value network over all agents' concatenated observations."""

    def __init__(
        self,
        input_dim: int,
        hidden: tuple[int, int] = (128, 64),
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.fc1 = Linear(input_dim, hidden[0], rng)
        self.fc2 = Linear(hidden[0], hidden[1], rng)
        self.head = Linear(hidden[1], 1, rng)

    def params(self):
        return self.fc1.params() + self.fc2.params() + self.head.params()

    def forward(self, x: np.ndarray) -> Tensor:
        z = relu(self.fc1(Tensor(x)))
        z = relu(self.fc2(z))
        return self.head(z)

    def value(self, x: np.ndarray) -> np.ndarray:
        z = np.maximum(self.fc1.fast(np.atleast_2d(x)), 0.0)
        z = np.maximum(self.fc2.fast(z), 0.0)
        return (z @ self.head.W.data + self.head.b.data)[:, 0]


def policy_forward(
    net: PolicyNet,
    obs_seq: np.ndarray,
    hidden: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[DiagGaussian, tuple[np.ndarray, np.ndarray]]:
    """Run the policy over an observation sequence without building a tape.

    Returns the action distribution at the final step plus the LSTM state.
    """
    obs_seq = np.atleast_2d(np.asarray(obs_seq, dtype=np.float64))
    if obs_seq.size == 0:
        raise ValueError("obs_seq must be non-empty")
    if not np.isfinite(obs_seq).all():
        raise NonFiniteInput("policy received NaN or infinite observation")
    state = hidden if hidden is not None else net.initial_hidden()
    dist = None
    for t in range(obs_seq.shape[0]):
        dist, state = net.distribution(obs_seq[t], state)
    return dist, state


def flatten_params(params: list[Tensor]) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in params])


def load_flat_params(params: list[Tensor], flat: np.ndarray) -> None:
    offset = 0
    for p in params:
        n = p.data.size
        p.data = flat[offset : offset + n].reshape(p.data.shape).copy()
        offset += n
    if offset != flat.size:
        raise ValueError("flat parameter vector has wrong length")
