"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records the operation that produced it;
backward() replays the tape in reverse topological order accumulating
gradients into every reachable parameter. The op set is what the
recurrent policy, the value network, and the PPO losses need; the
recurrent layer is one fused op (`lstm_seq`) with a hand-written backward,
whose forward loop steps the same numpy `lstm_cell` as the rollout; the
elementwise `sigmoid`/`tanh`/`concat` ops compose the per-step reference it
is tested against. Broadcasting follows numpy semantics, with gradients
summed back over broadcast axes.
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

    def zero_grad(self):
        self.grad = None

    # --- graph traversal ----------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo, seen = [], set()

        def visit(node):
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            topo.append(node)

        visit(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
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

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, _parents=(self,), _backward=lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data * other.data,
            _parents=(self, other),
            _backward=lambda g: (g * other.data, g * self.data),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data / other.data,
            _parents=(self, other),
            _backward=lambda g: (
                g / other.data,
                -g * self.data / (other.data * other.data),
            ),
        )

    def __pow__(self, exponent: float):
        return Tensor(
            self.data ** exponent,
            _parents=(self,),
            _backward=lambda g: (g * exponent * self.data ** (exponent - 1),),
        )

    def __matmul__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data @ other.data,
            _parents=(self, other),
            _backward=lambda g: (g @ other.data.T, self.data.T @ g),
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

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return Tensor(out, _parents=(x,), _backward=lambda g: (g * (1.0 - out * out),))


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)
    return Tensor(out, _parents=(x,), _backward=lambda g: (g * out * (1.0 - out),))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor(
        np.where(mask, x.data, 0.0), _parents=(x,), _backward=lambda g: (g * mask,)
    )


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return Tensor(out, _parents=(x,), _backward=lambda g: (g * out,))


def log(x: Tensor) -> Tensor:
    return Tensor(
        np.log(x.data), _parents=(x,), _backward=lambda g: (g / x.data,)
    )


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


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, bounds, axis=axis))

    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
        _backward=back,
    )


# --- fused recurrent layer --------------------------------------------------

def lstm_cell(z: np.ndarray, c: np.ndarray):
    """One LSTM step from gate pre-activations z (..., 4H) and cell state c.

    Gate order is i, f, g, o. Returns (activated gates, new cell state,
    its tanh, new hidden state); the rollout's single steps and
    `lstm_seq`'s forward loop both go through here.
    """
    H = c.shape[-1]
    act = np.empty_like(z)
    act[..., : 2 * H] = _sigmoid(z[..., : 2 * H])
    act[..., 2 * H : 3 * H] = np.tanh(z[..., 2 * H : 3 * H])
    act[..., 3 * H :] = _sigmoid(z[..., 3 * H :])
    i, f, g, o = act[..., :H], act[..., H : 2 * H], act[..., 2 * H : 3 * H], act[..., 3 * H :]
    c = f * c + i * g
    tanh_c = np.tanh(c)
    return act, c, tanh_c, o * tanh_c


def lstm_seq(x, Wx: Tensor, Wh: Tensor, b: Tensor) -> Tensor:
    """Zero-initialised single-layer LSTM over a batch of whole sequences.

    x is (E, T, D): E independent sequences of T steps. Returns the hidden
    states (E, T, H) as one tape node; gate order is i, f, g, o and each
    step computes z = x_t Wx + h_{t-1} Wh + b. The backward pass is
    hand-written backpropagation through time: the recurrence runs as a
    T-step loop over (E, H) arrays, and the weight gradients are one matmul
    each over all E*T steps.
    """
    x = as_tensor(x)
    wx, wh = Wx.data, Wh.data
    E, T, D = x.data.shape
    H = wh.shape[0]
    xw = (x.data.reshape(E * T, D) @ wx).reshape(E, T, 4 * H)
    gates = np.empty((E, T, 4 * H))     # activated i, f, g, o
    cells = np.empty((E, T, H))
    tanh_c = np.empty((E, T, H))
    hs = np.empty((E, T, H))
    h = np.zeros((E, H))
    c = np.zeros((E, H))
    for t in range(T):
        gates[:, t], c, tanh_c[:, t], h = lstm_cell(xw[:, t] + h @ wh + b.data, c)
        cells[:, t] = c
        hs[:, t] = h

    def back(dhs):
        dz = np.empty((E, T, 4 * H))
        dh_next = np.zeros((E, H))
        dc_next = np.zeros((E, H))
        for t in range(T - 1, -1, -1):
            act = gates[:, t]
            i, f, g, o = act[:, :H], act[:, H : 2 * H], act[:, 2 * H : 3 * H], act[:, 3 * H :]
            tc = tanh_c[:, t]
            c_prev = cells[:, t - 1] if t > 0 else 0.0
            dh = dhs[:, t] + dh_next
            dc = dh * o * (1.0 - tc * tc) + dc_next
            d = dz[:, t]
            d[:, :H] = dc * g * i * (1.0 - i)
            d[:, H : 2 * H] = dc * c_prev * f * (1.0 - f)
            d[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
            d[:, 3 * H :] = dh * tc * o * (1.0 - o)
            dc_next = dc * f
            dh_next = d @ wh.T
        dz_flat = dz.reshape(E * T, 4 * H)
        h_prev = np.concatenate([np.zeros((E, 1, H)), hs[:, :-1]], axis=1)
        dx = (dz_flat @ wx.T).reshape(E, T, D) if x.requires_grad else None
        return (
            dx,
            x.data.reshape(E * T, D).T @ dz_flat,
            h_prev.reshape(E * T, H).T @ dz_flat,
            dz_flat.sum(axis=0),
        )

    return Tensor(hs, _parents=(x, Wx, Wh, b), _backward=back)
