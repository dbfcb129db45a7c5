"""DSACO baseline — distributed SAC-based computation offloading (§7.3).

The paper compares Tango against DSACO, "a distributed scheduling framework
for edge computing based on SAC", and notes it "only provides an
edge-oriented scheduling scheme, which cannot effectively manage resource
allocation for mixed workloads".

Our behaviour-level DSACO:

* makes *distributed* decisions: each origin cluster dispatches its own
  queue, choosing a target node among the local + geo-nearby clusters only
  (no global view);
* uses one shared discrete-SAC policy across clusters (weight sharing among
  homogeneous agents, standard for this family);
* schedules **both** LC and BE requests through the same learned policy —
  no LC/BE specialisation and, crucially, no HRM underneath: in the Fig. 13
  comparison it runs on the static K8s-native resource manager, exactly as
  the paper frames it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.state_storage import SystemSnapshot
from repro.nn.gnn import GraphSAGEEncoder
from repro.nn.sac import SACAgent, SACConfig, SACTransition
from repro.scheduling.base import Assignment
from repro.scheduling.dcg_be import N_NODE_FEATURES, DCGBEScheduler
from repro.sim.request import ServiceRequest

__all__ = ["DSACOConfig", "DSACOScheduler"]


@dataclass
class DSACOConfig:
    encoder_width: int = 64
    hops: int = 2
    sample_size: int = 3
    lr: float = 2e-4
    gamma: float = 0.95
    seed: int = 0
    max_per_round: int = 128


class DSACOScheduler:
    """Distributed SAC offloading for mixed queues (LC role + BE role)."""

    #: the BE role has no central dispatcher either: the runner calls
    #: :meth:`dispatch` per origin cluster over its nearby clusters.
    distributed = True

    def __init__(self, config: Optional[DSACOConfig] = None, *, greedy: bool = False):
        self.config = config or DSACOConfig()
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
        self.decisions = 0
        self._prev: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        return {
            "agent": self.agent,
            "decisions": self.decisions,
            "prev": self._prev,
        }

    def restore_state(self, state: dict) -> None:
        self.agent = state["agent"]
        self.decisions = state["decisions"]
        self._prev = state["prev"]

    # ------------------------------------------------------------------ #
    # shared dispatch core
    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        cluster_ids: Optional[Sequence[int]] = None,
    ) -> List[Assignment]:
        view = snapshot.view(cluster_ids)
        nodes = view.nodes
        if not requests or not nodes:
            return []
        adj = snapshot.topology(cluster_ids)
        cpu_ava = view.cpu_available.copy()
        mem_ava = view.mem_available.copy()
        backlog = (view.lc_queue + view.be_queue).astype(np.float64)

        out: List[Assignment] = []
        for request in list(requests)[: self.config.max_per_round]:
            spec = request.spec
            mask = (cpu_ava >= spec.min_resources.cpu) & (
                mem_ava >= spec.min_resources.memory
            )
            if not mask.any():
                mask = None  # queue at the chosen node
            features = self._features(view, cpu_ava, mem_ava, backlog, spec)
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
            backlog[action] += 1.0

            if not self.greedy:
                # DSACO's reward is load-balance oriented: favour idle nodes.
                load = 1.0 - min(
                    cpu_ava[action] / max(node.cpu_total, 1e-9), 1.0
                )
                reward = float(np.exp(-load))
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

    @staticmethod
    def _features(view, cpu_ava, mem_ava, backlog, spec) -> np.ndarray:
        """DCG-BE's node state, except that the queue column counts requests."""
        feats = DCGBEScheduler._features_fast(view, cpu_ava, mem_ava, backlog, spec)
        feats[:, 7] = np.minimum(1.0, backlog / 32.0)
        return feats

    # ------------------------------------------------------------------ #
    # both roles: one call per origin cluster
    # ------------------------------------------------------------------ #
    def dispatch(
        self,
        origin_cluster: int,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        eligible_clusters: Sequence[int],
        now_ms: float,
    ) -> List[Assignment]:
        return self._dispatch(requests, snapshot, eligible_clusters)
