"""GNN-SAC: the SAC-based learning baseline of Fig. 11(c).

Same state, action space, context filter, and reward as DCG-BE, but the
learner is discrete Soft Actor-Critic instead of advantage actor-critic.
The paper observes that "while GNN-SAC has strong exploration ability, it
struggles to calculate strategy differences" — DCG-BE's on-policy advantage
estimates track the fast-moving cluster state more closely than SAC's
replayed off-policy targets, which is the behaviour this reproduction shows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.gnn import GraphEncoder
from repro.nn.sac import SACAgent, SACConfig, SACTransition

from .dcg_be import DCGBEConfig, DCGBEScheduler, N_NODE_FEATURES

__all__ = ["GNNSACScheduler"]


class GNNSACScheduler(DCGBEScheduler):
    """DCG-BE's dispatch loop with a SAC learner underneath."""

    name = "gnn-sac"

    def __init__(self, config: Optional[DCGBEConfig] = None, *, greedy: bool = False):
        super().__init__(config, greedy=greedy)
        #: the last decision, closed into an (s, a, r, s') transition by the
        #: next one: (features, adj, mask, action, reward).
        self._prev: Optional[tuple] = None

    def _make_agent(self, encoder: GraphEncoder, rng: np.random.Generator):
        cfg = self.config
        return SACAgent(
            N_NODE_FEATURES,
            rng,
            encoder=encoder,
            config=SACConfig(lr=cfg.lr, gamma=cfg.gamma),
        )

    def _record(self, features, adj, mask, action: int, reward: float) -> None:
        # SAC needs (s, a, r, s'): close the previous transition with the
        # current state as its successor.
        if self._prev is not None:
            pf, pa, pm, pact, prew = self._prev
            self.agent.record(
                SACTransition(
                    features=pf,
                    adj=pa,
                    mask=pm,
                    action=pact,
                    reward=prew,
                    next_features=features,
                    next_adj=adj,
                    next_mask=mask,
                )
            )
        self._prev = (features, adj, mask, action, reward)

    # -- Checkpointable ------------------------------------------------ #
    def snapshot_state(self):
        state = super().snapshot_state()
        state["prev"] = self._prev
        return state

    def restore_state(self, state) -> None:
        super().restore_state(state)
        self._prev = state["prev"]
