"""GNN-SAC: the SAC-based learning baseline of Fig. 11(c).

Same state, action space, context filter, and reward as DCG-BE, but the
learner is discrete Soft Actor-Critic instead of advantage actor-critic.
The paper observes that "while GNN-SAC has strong exploration ability, it
struggles to calculate strategy differences" — DCG-BE's on-policy advantage
estimates track the fast-moving cluster state more closely than SAC's
replayed off-policy targets, which is the behaviour this reproduction shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.state_storage import SystemSnapshot
from repro.nn.gnn import GraphSAGEEncoder
from repro.nn.sac import SACAgent, SACConfig, SACTransition
from repro.sim.request import ServiceRequest

from .base import Assignment
from .dcg_be import DCGBEConfig, DCGBEScheduler, N_NODE_FEATURES, build_topology

__all__ = ["GNNSACScheduler"]


class GNNSACScheduler(DCGBEScheduler):
    """DCG-BE's interface with a SAC learner underneath."""

    def __init__(self, config: Optional[DCGBEConfig] = None, *, greedy: bool = False):
        self.config = config or DCGBEConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        encoder = GraphSAGEEncoder(
            N_NODE_FEATURES,
            [cfg.encoder_width] * cfg.hops,
            rng,
            sample_size=cfg.sample_size,
        )
        self.agent = SACAgent(
            N_NODE_FEATURES,
            rng,
            encoder=encoder,
            config=SACConfig(lr=cfg.lr, gamma=cfg.gamma),
        )
        self.greedy = greedy
        self._completion_mass = 0.0
        self.decisions = 0
        self.requeues = 0
        self._prev: Optional[tuple] = None  # (features, adj, mask, action, reward)

    # -- Checkpointable ------------------------------------------------ #
    def snapshot_state(self):
        state = super().snapshot_state()
        state["prev"] = self._prev
        return state

    def restore_state(self, state) -> None:
        super().restore_state(state)
        self._prev = state["prev"]

    def dispatch_be(
        self,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        now_ms: float,
    ) -> List[Assignment]:
        if not requests or not snapshot.nodes:
            return []
        nodes = snapshot.nodes
        adj = build_topology(nodes, snapshot)
        cpu_ava = np.array([n.cpu_available for n in nodes])
        mem_ava = np.array([n.mem_available for n in nodes])
        pending_cpu = np.array([n.be_queue_cpu for n in nodes])
        pending_mem = np.array([n.be_queue_mem for n in nodes])

        out: List[Assignment] = []
        for request in list(requests)[: self.config.max_per_round]:
            spec = request.spec
            mask = (cpu_ava >= spec.min_resources.cpu) & (
                mem_ava >= spec.min_resources.memory
            )
            if not mask.any():
                self.requeues += 1
                mask = None  # queue at the chosen node (see DCG-BE notes)
            features = self._features(nodes, cpu_ava, mem_ava, pending_cpu, spec)
            action = self.agent.act(features, adj, mask, greedy=self.greedy)
            node = nodes[action]
            out.append(
                Assignment(
                    request=request, node_name=node.name, cluster_id=node.cluster_id
                )
            )
            self.decisions += 1
            cpu_ava[action] -= spec.min_resources.cpu
            mem_ava[action] -= spec.min_resources.memory
            pending_cpu[action] += spec.reference_resources.cpu
            pending_mem[action] += spec.reference_resources.memory

            if not self.greedy:
                reward = self._reward(action, nodes, pending_cpu, pending_mem)
                # SAC needs (s, a, r, s'): close the previous transition with
                # the current state as its successor.
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
        return out
