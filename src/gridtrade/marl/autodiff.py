"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records the operation that produced it;
backward() replays the tape in reverse topological order accumulating
gradients into every reachable parameter, in place into a leaf's `.grad`
array when it has one. The op set is exactly what the recurrent policy,
the value network and the PPO losses need: `+`, `-` (binary and unary),
`*`, `@`, indexing, `reshape`, `sum`, `mean`, `relu`, `exp`, `clip`,
`minimum`, and the recurrent layer as one fused op (`lstm_seq`) with a
hand-written backward, whose forward loop steps the same numpy
`lstm_cell` as the rollout. Broadcasting follows numpy semantics, with
gradients summed back over broadcast axes.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    # --- graph traversal ----------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        # depth-first post-order over the nodes that need a gradient; an
        # explicit stack, so the tape is freed as soon as this call returns
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents))] if self.requires_grad else []
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen and p.requires_grad:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(node)
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.grad is None:
                    node.grad = g.copy()  # `g` may be another leaf's too
                else:
                    node.grad += g  # in place: it may be a store's view
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if not parent.requires_grad or pg is None:
                    continue
                pg = _unbroadcast(pg, parent.data.shape)
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data + other.data,
            _parents=(self, other),
            _backward=lambda g: (g, g),
        )

    def __neg__(self):
        return Tensor(-self.data, _parents=(self,), _backward=lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data * other.data,
            _parents=(self, other),
            _backward=lambda g: (g * other.data, g * self.data),
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Matrix product over the last two axes, batched over any leading
        ones; a gradient is only formed for an operand that needs it."""
        other = as_tensor(other)
        return Tensor(
            self.data @ other.data,
            _parents=(self, other),
            _backward=lambda g: (
                g @ other.data.swapaxes(-1, -2) if self.requires_grad else None,
                self.data.swapaxes(-1, -2) @ g if other.requires_grad else None,
            ),
        )

    def reshape(self, *shape):
        return Tensor(
            self.data.reshape(*shape),
            _parents=(self,),
            _backward=lambda g: (g.reshape(self.data.shape),),
        )

    def __getitem__(self, idx):
        def back(g):
            out = np.zeros_like(self.data)
            np.add.at(out, idx, g)
            return (out,)

        return Tensor(self.data[idx], _parents=(self,), _backward=back)

    # --- reductions ------------------------------------------------------

    def sum(self, axis=None):
        def back(g):
            if axis is None:
                return (np.broadcast_to(g, self.data.shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), self.data.shape).copy(),)

        return Tensor(self.data.sum(axis=axis), _parents=(self,), _backward=back)

    def mean(self, axis=None):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# --- elementwise nonlinearities ---------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor(
        np.where(mask, x.data, 0.0), _parents=(x,), _backward=lambda g: (g * mask,)
    )


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return Tensor(out, _parents=(x,), _backward=lambda g: (g * out,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data > lo) & (x.data < hi)
    return Tensor(
        np.clip(x.data, lo, hi), _parents=(x,), _backward=lambda g: (g * inside,)
    )


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data
    return Tensor(
        np.where(take_a, a.data, b.data),
        _parents=(a, b),
        _backward=lambda g: (g * take_a, g * ~take_a),
    )


# --- fused recurrent layer --------------------------------------------------

def lstm_cell(z: np.ndarray, c: np.ndarray):
    """One LSTM step from gate pre-activations z (..., 4H) and cell state c.

    Gate order is i, f, g, o. Returns (activated gates, new cell state,
    its tanh, new hidden state); the rollout's single steps and
    `lstm_seq`'s forward loop both go through here.
    """
    H = c.shape[-1]
    # one sigmoid over all 4H gates costs less than one per gate slice; the
    # g slice is then overwritten with its tanh
    act = 1.0 / (1.0 + np.exp(-z))
    act[..., 2 * H : 3 * H] = np.tanh(z[..., 2 * H : 3 * H])
    i, f, g, o = act[..., :H], act[..., H : 2 * H], act[..., 2 * H : 3 * H], act[..., 3 * H :]
    c = f * c + i * g
    tanh_c = np.tanh(c)
    return act, c, tanh_c, o * tanh_c


def lstm_seq(x, Wx: Tensor, Wh: Tensor, b: Tensor) -> Tensor:
    """Zero-initialised single-layer LSTMs, one per agent, over batches of
    whole sequences.

    x is (n, E, T, D): agent k's E independent sequences of T steps, run
    through agent k's weights Wx[k] (D, 4H), Wh[k] (H, 4H) and b[k] (1, 4H).
    Returns the hidden states (n, E, T, H) as one tape node; gate order is
    i, f, g, o and each step computes z = x_t Wx + h_{t-1} Wh + b. The
    backward pass is hand-written backpropagation through time: the
    recurrence runs as one T-step loop over (n, E, H) arrays for the whole
    fleet, and each weight gradient is one batched matmul over all E*T
    steps of every agent.
    """
    x = as_tensor(x)
    wx, wh = Wx.data, Wh.data
    n, E, T, D = x.data.shape
    H = wh.shape[-2]
    x_flat = x.data.reshape(n, E * T, D)
    xw = (x_flat @ wx).reshape(n, E, T, 4 * H)
    gates = np.empty((n, E, T, 4 * H))     # activated i, f, g, o
    cells = np.empty((n, E, T, H))
    tanh_c = np.empty((n, E, T, H))
    hs = np.empty((n, E, T, H))
    h = np.zeros((n, E, H))
    c = np.zeros((n, E, H))
    for t in range(T):
        gates[:, :, t], c, tanh_c[:, :, t], h = lstm_cell(xw[:, :, t] + h @ wh + b.data, c)
        cells[:, :, t] = c
        hs[:, :, t] = h

    def back(dhs):
        dz = np.empty((n, E, T, 4 * H))
        dh_next = np.zeros((n, E, H))
        dc_next = np.zeros((n, E, H))
        wh_t = wh.swapaxes(-1, -2)
        for t in range(T - 1, -1, -1):
            act = gates[:, :, t]
            i, f, g, o = act[..., :H], act[..., H : 2 * H], act[..., 2 * H : 3 * H], act[..., 3 * H :]
            tc = tanh_c[:, :, t]
            c_prev = cells[:, :, t - 1] if t > 0 else 0.0
            dh = dhs[:, :, t] + dh_next
            dc = dh * o * (1.0 - tc * tc) + dc_next
            d = dz[:, :, t]
            d[..., :H] = dc * g * i * (1.0 - i)
            d[..., H : 2 * H] = dc * c_prev * f * (1.0 - f)
            d[..., 2 * H : 3 * H] = dc * i * (1.0 - g * g)
            d[..., 3 * H :] = dh * tc * o * (1.0 - o)
            dc_next = dc * f
            dh_next = d @ wh_t
        dz_flat = dz.reshape(n, E * T, 4 * H)
        h_prev = np.concatenate([np.zeros((n, E, 1, H)), hs[:, :, :-1]], axis=2)
        dx = (dz_flat @ wx.swapaxes(-1, -2)).reshape(n, E, T, D) if x.requires_grad else None
        return (
            dx,
            x_flat.swapaxes(-1, -2) @ dz_flat,
            h_prev.reshape(n, E * T, H).swapaxes(-1, -2) @ dz_flat,
            dz_flat.sum(axis=1, keepdims=True),
        )

    return Tensor(hs, _parents=(x, Wx, Wh, b), _backward=back)
