"""Autodiff engine checks against central finite differences."""

import numpy as np
import pytest

from gridtrade.marl.autodiff import Tensor, clip, exp, minimum, relu


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def check_op(build, x_data, atol=1e-6):
    x = Tensor(x_data.copy(), requires_grad=True)
    loss = build(x)
    loss.backward()

    def f():
        return float(build(Tensor(x.data)).data)

    numeric = numeric_grad(f, x.data)
    np.testing.assert_allclose(x.grad, numeric, atol=atol)


class TestElementwise:
    def test_add_mul(self):
        check_op(lambda x: ((x * 3.0 + 1.0) * x).sum(), np.array([1.0, -2.0, 0.5]))

    def test_scalar_times_tensor(self):
        check_op(lambda x: (2.5 * x * x).sum(), np.array([1.0, -2.0, 0.5]))

    def test_sub_neg(self):
        check_op(
            lambda x: ((x - 0.5) * (x - 2.0) + -x * x).sum(),
            np.array([0.3, -1.2, 2.0]),
        )

    def test_exp(self):
        check_op(lambda x: (exp(x * 0.1) * exp(-x)).sum(), np.array([0.2, -0.7, 1.5]))

    def test_relu_and_clip(self):
        check_op(lambda x: relu(x).sum(), np.array([0.5, -0.5, 2.0]))
        check_op(lambda x: clip(x, -1.0, 1.0).sum(), np.array([0.5, -2.0, 2.0]))

    def test_minimum_routes_gradient(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        minimum(a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0])

    def test_leaf_used_twice_accumulates_into_its_own_array(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a + b).sum().backward()
        own = a.grad
        assert not np.shares_memory(a.grad, b.grad)
        (a + b).sum().backward()  # no zeroing in between
        assert a.grad is own
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_minimum_tie_goes_to_first(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        minimum(a, b).sum().backward()
        assert a.grad[0] == 1.0 and b.grad[0] == 0.0


class TestMatmulAndShapes:
    def test_matmul(self):
        rng = np.random.default_rng(0)
        A = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        B = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        y = A @ B
        (y * y).sum().backward()

        def fa():
            y = Tensor(A.data) @ Tensor(B.data)
            return float((y * y).sum().data)

        np.testing.assert_allclose(A.grad, numeric_grad(fa, A.data), atol=1e-5)
        np.testing.assert_allclose(B.grad, numeric_grad(fa, B.data), atol=1e-5)

    def test_broadcast_bias(self):
        x = Tensor(np.ones((5, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        ((x + b) * 2.0).sum().backward()
        np.testing.assert_array_equal(b.grad, [10.0, 10.0, 10.0])

    def test_getitem_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        x[np.array([0, 2])].sum().backward()
        expected = np.zeros((4, 3))
        expected[[0, 2]] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_repeated_rows_accumulate(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        x[np.array([1, 1])].sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 0], [2, 2], [0, 0]])

    def test_reshape(self):
        x = Tensor(np.ones(6), requires_grad=True)
        (x.reshape(2, 3) * np.arange(6.0).reshape(2, 3)).sum().backward()
        np.testing.assert_array_equal(x.grad, np.arange(6.0))

    def test_sum_axis(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        (x.sum(axis=1) * np.array([1.0, 2.0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1, 1, 1], [2, 2, 2]])

    def test_mean(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))


class TestGraph:
    def test_reused_node_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x  # dy/dx = 2x via two paths
        y.sum().backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_tracking_without_flag(self):
        x = Tensor(np.ones(3))
        y = (x * 2).sum()
        assert not y.requires_grad

    def test_deep_chain(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(200):
            y = relu(y * 1.01)
        y.sum().backward()
        assert x.grad[0] == pytest.approx(1.01 ** 200)
