"""Categorical policy utilities: masked softmax, sampling, entropy.

DCG-BE's *policy context filtering* (§5.3.2) multiplies the raw logits'
probability mass by a validity vector ``c_t ∈ {0,1}^N`` so the actor can never
pick a node whose available resources cannot fit the request.  We implement
the filter in log space (masked softmax) which is the numerically stable
equivalent of the paper's ``p̂(s_t) = p(s_t) * c_t`` renormalisation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "masked_softmax",
    "masked_log_softmax",
    "sample_categorical",
    "categorical_entropy",
]

_NEG_INF = -1e30


def masked_softmax(logits: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis with invalid entries forced to probability 0.

    ``mask`` holds 1 for valid actions, 0 for filtered ones.  If every action
    is masked, falls back to uniform over all actions (the caller is expected
    to treat that situation as "requeue the request").
    """
    z = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return np.full(z.shape, 1.0 / z.shape[-1])
        z = np.where(mask, z, _NEG_INF)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def masked_log_softmax(
    logits: np.ndarray, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Log-probabilities consistent with :func:`masked_softmax`."""
    probs = masked_softmax(logits, mask)
    return np.log(np.maximum(probs, 1e-300))


def sample_categorical(
    probs: np.ndarray, rng: np.random.Generator
) -> int:
    """Draw one action index from a probability vector."""
    p = np.asarray(probs, dtype=np.float64)
    p = p / p.sum()
    return int(rng.choice(len(p), p=p))


def categorical_entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability vector (nats)."""
    p = np.asarray(probs, dtype=np.float64)
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def softmax_grad_from_logp_grad(
    probs: np.ndarray, action: int, coeff: float
) -> np.ndarray:
    """Gradient of ``coeff * log p[action]`` w.r.t. the logits.

    For a softmax policy, d log p_a / d z_i = 1{i==a} - p_i.  Masked logits
    receive zero gradient automatically because their probability is 0.
    """
    grad = -probs.copy()
    grad[action] += 1.0
    return coeff * grad


def entropy_grad(probs: np.ndarray) -> np.ndarray:
    """Gradient of the entropy w.r.t. the logits (for entropy bonuses).

    dH/dz_i = -p_i * (log p_i + H).
    """
    logp = np.log(np.maximum(probs, 1e-300))
    h = -(probs * logp).sum()
    return -probs * (logp + h)
