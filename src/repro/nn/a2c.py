"""Advantage Actor-Critic over graph embeddings — the DRL half of DCG-BE.

Architecture (per §5.3.2 of the paper):

* a graph encoder (GraphSAGE by default) produces one embedding per node;
* the **actor** scores every node with a weight-shared three-layer ReLU MLP
  (256/128/32 hidden units) producing one logit per node, so the action space
  follows the topology size ``N`` with no retraining;
* the **critic** estimates the state value from the mean-pooled embedding
  through an MLP of the same shape;
* invalid nodes are removed by the *policy context filter* (a 0/1 mask over
  logits) before sampling; the actor runs only on the rows the filter
  admits, since the others get probability 0 whatever their score;
* both networks are optimised with Adam at lr 2e-4.

Training is batched: the agent stores transitions and, once
``train_interval`` actions have been collected (the paper's "required number
of samples"), replays them — recomputing forward passes so gradients flow
through the encoder — and applies one update with n-step discounted returns
as the target and ``R − V(s)`` as the advantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .gnn import GraphEncoder, GraphSAGEEncoder
from .layers import Sequential, mlp
from .optim import Adam, clip_grad_norm
from .persistence import load_params, save_params
from .policy import (
    categorical_entropy,
    entropy_grad,
    masked_softmax,
    sample_categorical,
    softmax_grad_from_logp_grad,
)

__all__ = ["A2CAgent", "Transition", "A2CConfig"]


def _admitted(mask: Optional[np.ndarray]):
    """``mask`` as bool, and the rows the actor scores: those it admits.

    The policy context filter gives every other row probability 0 whatever
    its logit, so those logits are never computed.  With no mask, or one
    admitting nothing (``masked_softmax`` then falls back to uniform over
    all rows, and the gradient reaches every logit), all rows are scored.
    """
    if mask is None:
        return None, slice(None)
    mask = np.asarray(mask, dtype=bool)
    return mask, (mask if mask.any() else slice(None))


@dataclass
class Transition:
    """One step of interaction stored for batched training."""

    features: np.ndarray
    adj: List[List[int]]
    mask: Optional[np.ndarray]
    action: int
    reward: float


@dataclass
class A2CConfig:
    hidden_actor: Sequence[int] = (256, 128, 32)
    hidden_critic: Sequence[int] = (256, 128, 32)
    encoder_hidden: Sequence[int] = (64, 64)
    lr: float = 2e-4
    gamma: float = 0.95
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    train_interval: int = 32
    grad_clip: float = 5.0
    #: standardise discounted returns within each batch; on a non-episodic
    #: decision stream this keeps advantage magnitudes bounded so the
    #: entropy bonus can prevent premature policy collapse.
    normalize_returns: bool = True


class A2CAgent:
    """Actor-critic agent choosing a target node on a resource graph."""

    def __init__(
        self,
        n_node_features: int,
        rng: np.random.Generator,
        *,
        encoder: Optional[GraphEncoder] = None,
        config: Optional[A2CConfig] = None,
    ) -> None:
        self.cfg = config or A2CConfig()
        self.rng = rng
        self.encoder = encoder or GraphSAGEEncoder(
            n_node_features, self.cfg.encoder_hidden, rng
        )
        d = self.encoder.out_features
        self.actor: Sequential = mlp([d, *self.cfg.hidden_actor, 1], rng)
        self.critic: Sequential = mlp([d, *self.cfg.hidden_critic, 1], rng)
        params = [*self.encoder.params, *self.actor.params, *self.critic.params]
        grads = [*self.encoder.grads, *self.actor.grads, *self.critic.grads]
        self.optimizer = Adam(params, grads, lr=self.cfg.lr)
        self._buffer: List[Transition] = []
        self.train_steps = 0
        self.episodes_seen = 0
        self.last_entropy = 0.0

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def action_probs(
        self,
        features: np.ndarray,
        adj: List[List[int]],
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Masked action distribution over nodes (no caching for training)."""
        h = self.encoder.encode(features, adj)
        mask, rows = _admitted(mask)
        return masked_softmax(self._logits(h, rows), mask)

    def act(
        self,
        features: np.ndarray,
        adj: List[List[int]],
        mask: Optional[np.ndarray] = None,
        *,
        greedy: bool = False,
    ) -> int:
        probs = self.action_probs(features, adj, mask)
        self.last_entropy = categorical_entropy(probs)
        if greedy:
            return int(np.argmax(probs))
        return sample_categorical(probs, self.rng)

    def value(self, features: np.ndarray, adj: List[List[int]]) -> float:
        h = self.encoder.encode(features, adj)
        pooled = h.mean(axis=0, keepdims=True)
        return float(self.critic.forward(pooled)[0, 0])

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def record(self, transition: Transition) -> bool:
        """Store a transition; train when the batch is full.

        Returns True when a training update happened.
        """
        self._buffer.append(transition)
        if len(self._buffer) >= self.cfg.train_interval:
            self.train_on(self._buffer)
            self._buffer = []
            return True
        return False

    def train_on(self, batch: Sequence[Transition]) -> float:
        """One A2C update over a trajectory slice; returns the actor loss."""
        if not batch:
            return 0.0
        returns = self._discounted_returns([t.reward for t in batch])
        if self.cfg.normalize_returns and len(batch) > 1:
            std = float(returns.std())
            returns = (returns - returns.mean()) / (std + 1e-8)
        self._zero_grads()
        actor_loss_total = 0.0
        inv_n = 1.0 / len(batch)
        for transition, ret in zip(batch, returns):
            actor_loss_total += self._accumulate_gradients(transition, ret, inv_n)
        clip_grad_norm(self.optimizer.grads, self.cfg.grad_clip)
        self.optimizer.step()
        self.train_steps += 1
        return actor_loss_total

    def _discounted_returns(self, rewards: Sequence[float]) -> np.ndarray:
        returns = np.zeros(len(rewards))
        acc = 0.0
        for i in range(len(rewards) - 1, -1, -1):
            acc = rewards[i] + self.cfg.gamma * acc
            returns[i] = acc
        return returns

    def _accumulate_gradients(
        self, transition: Transition, ret: float, weight: float
    ) -> float:
        # Recompute forward with caching so backward is well defined.
        h = self.encoder.encode(transition.features, transition.adj)
        n = h.shape[0]
        mask, rows = _admitted(transition.mask)
        probs = masked_softmax(self._logits(h, rows), mask)
        pooled = h.mean(axis=0, keepdims=True)
        value = float(self.critic.forward(pooled)[0, 0])
        advantage = ret - value

        # Actor: minimise -(logp * advantage) - entropy_coef * H.
        logit_grad = -softmax_grad_from_logp_grad(
            probs, transition.action, advantage
        )
        logit_grad -= self.cfg.entropy_coef * entropy_grad(probs)
        logit_grad *= weight
        # filtered rows have probability 0 and are never the action,
        # hence logit gradient 0
        grad_h_actor = np.zeros_like(h)
        grad_h_actor[rows] = self.actor.backward(logit_grad[rows][:, None])

        # Critic: minimise value_coef * (ret - V)^2.
        value_grad = np.array([[2.0 * self.cfg.value_coef * (value - ret) * weight]])
        grad_pooled = self.critic.backward(value_grad)
        grad_h_critic = np.repeat(grad_pooled / n, n, axis=0)

        self.encoder.backward(grad_h_actor + grad_h_critic)
        logp = np.log(max(probs[transition.action], 1e-300))
        return float(-logp * advantage * weight)

    def _logits(self, h: np.ndarray, rows) -> np.ndarray:
        """Actor logits of ``rows``; the other entries are left at 0."""
        logits = np.zeros(h.shape[0])
        logits[rows] = self.actor.forward(h[rows])[:, 0]
        return logits

    def _zero_grads(self) -> None:
        for g in self.optimizer.grads:
            g[...] = 0.0

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Checkpoint encoder + actor + critic parameters to ``path``."""
        save_params(self.optimizer.params, path)

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save` (same shapes)."""
        load_params(self.optimizer.params, path)
