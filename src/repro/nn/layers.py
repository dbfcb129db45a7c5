"""Minimal NumPy neural-network layers with manual backprop.

The paper implements DCG-BE with PyTorch 1.11; the networks involved are tiny
(three-layer ReLU MLPs of 256/128/32 units and a two-hop GraphSAGE encoder),
so a hand-rolled NumPy substrate reproduces the training dynamics exactly and
deterministically.  Every layer exposes ``forward(x)`` and ``backward(grad)``,
caches what it needs between the two calls, and accumulates parameter
gradients in ``.grads`` aligned with ``.params`` for the optimizer.

Shapes are ``(batch, features)`` throughout, in float64.  That is not free:
on a 2-vCPU host with single-threaded OpenBLAS, a float32 build of these
nets ran the standard perfbench workload at 86-91 ticks/s against 63-69.
It stays float64 because float32 changed DCG-BE's decisions enough to
reverse a paper result (the Fig. 12 DSS-LC x DCG-BE throughput cell fell
from 633 to 595 while K8s-native x DCG-BE rose from 609 to 671) and raised
``failed_frac`` on the standard and churn workloads; the fingerprints pin
the float64 behaviour.

Elementwise steps write into arrays the pass itself just allocated (see
:class:`ReLU`) instead of new temporaries, doing the same operations in the
same order, so results are bit-identical to the out-of-place form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["Layer", "Dense", "ReLU", "Tanh", "Sequential", "mlp"]


class Layer:
    """Base class: parameterless layers inherit the empty param lists."""

    params: List[np.ndarray]
    grads: List[np.ndarray]

    def __init__(self) -> None:
        self.params = []
        self.grads = []

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with He/Xavier init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        init: str = "he",
    ) -> None:
        super().__init__()
        if init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "xavier":
            scale = np.sqrt(1.0 / in_features)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.W = rng.normal(0.0, scale, size=(in_features, out_features))
        self.b = np.zeros(out_features)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.W
        y += self.b
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.grads[0] += self._x.T @ grad
        self.grads[1] += grad.sum(axis=0)
        return grad @ self.W.T


class ReLU(Layer):
    """``max(x, 0)``, written into ``x``; ``backward`` writes into ``grad``.

    Both passes overwrite their argument instead of allocating: in
    :func:`mlp` each one receives the fresh output of the ``Dense`` beside
    it, which nothing else holds.  Pass a copy to keep an input intact.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return np.multiply(x, self._mask, out=x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return np.multiply(grad, self._mask, out=grad)


class Tanh(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._y is not None
        return grad * (1.0 - self._y**2)


class Sequential(Layer):
    """Chain of layers; flattens params/grads for the optimizer."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        super().__init__()
        self.layers = list(layers)
        for layer in self.layers:
            self.params.extend(layer.params)
            self.grads.extend(layer.grads)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()


def mlp(
    sizes: Sequence[int],
    rng: np.random.Generator,
    *,
    output_init: str = "xavier",
) -> Sequential:
    """Build the paper's ReLU MLP: ``sizes = [in, 256, 128, 32, out]``.

    Hidden layers use He init + ReLU; the output layer is linear with Xavier
    init (logits or value head).
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    layers: List[Layer] = []
    for i in range(len(sizes) - 2):
        layers.append(Dense(sizes[i], sizes[i + 1], rng, init="he"))
        layers.append(ReLU())
    layers.append(Dense(sizes[-2], sizes[-1], rng, init=output_init))
    return Sequential(layers)
