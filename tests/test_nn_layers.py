"""Layer forward/backward tests including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU, Tanh, mlp


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(3, 5, rng)
        out = layer.forward(np.ones((2, 3)))
        assert out.shape == (2, 5)

    def test_forward_linear(self, rng):
        layer = Dense(2, 2, rng)
        layer.W[...] = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.b[...] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[1.5, 1.5]])

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(2 * out)
        num = numerical_grad(loss, layer.W)
        assert np.allclose(layer.grads[0], num, atol=1e-4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(2, 4))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        gin = layer.backward(2 * out)
        num = numerical_grad(loss, x)
        assert np.allclose(gin, num, atol=1e-4)

    def test_grad_accumulates_until_zeroed(self, rng):
        layer = Dense(2, 2, rng)
        x = np.ones((1, 2))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        g1 = layer.grads[0].copy()
        layer.forward(x)
        layer.backward(np.ones_like(out))
        assert np.allclose(layer.grads[0], 2 * g1)
        layer.zero_grad()
        assert np.allclose(layer.grads[0], 0.0)

    def test_rejects_unknown_init(self, rng):
        with pytest.raises(ValueError):
            Dense(2, 2, rng, init="bogus")


class TestActivations:
    def test_relu_zeroes_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert np.allclose(out, [[0.0, 2.0]])

    def test_relu_backward_mask(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 2.0]]))
        grad = relu.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_tanh_gradient_matches_numerical(self, rng):
        tanh = Tanh()
        x = rng.normal(size=(3, 4))

        def loss():
            return float(tanh.forward(x).sum())

        tanh.forward(x)
        gin = tanh.backward(np.ones((3, 4)))
        num = numerical_grad(loss, x)
        assert np.allclose(gin, num, atol=1e-5)


class TestSequential:
    def test_mlp_shapes(self, rng):
        net = mlp([6, 256, 128, 32, 1], rng)
        out = net.forward(np.zeros((7, 6)))
        assert out.shape == (7, 1)

    def test_full_network_gradient_check(self, rng):
        net = mlp([3, 8, 4, 1], rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((net.forward(x) ** 2).sum())

        net.zero_grad()
        out = net.forward(x)
        net.backward(2 * out)
        for p, g in zip(net.params, net.grads):
            num = numerical_grad(loss, p)
            assert np.allclose(g, num, atol=1e-4), "parameter gradient mismatch"

    def test_leaves_input_and_upstream_grad_unchanged(self, rng):
        """ReLU works in place, but only on arrays the net itself made."""
        net = mlp([3, 8, 4, 2], rng)
        x = rng.normal(size=(5, 3))
        grad = rng.normal(size=(5, 2))
        x_before, grad_before = x.copy(), grad.copy()
        net.forward(x)
        net.backward(grad)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(grad, grad_before)

    def test_params_and_grads_aligned(self, rng):
        net = mlp([3, 8, 1], rng)
        assert len(net.params) == len(net.grads)
        for p, g in zip(net.params, net.grads):
            assert p.shape == g.shape

    def test_rejects_too_few_sizes(self, rng):
        with pytest.raises(ValueError):
            mlp([3], rng)
