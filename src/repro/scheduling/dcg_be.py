"""DCG-BE: DRL + GNN centralized scheduling of BE requests (§5.3, Alg. 3).

The central cluster's BE traffic dispatcher runs this policy over the global
graph ``G' = (S', Z')``:

* **state** — per-node features (available/total CPU and memory, current
  slack score δ, the request's CPU/memory requirement, queue backlog) and
  per-edge transmission attributes, exactly the T of §5.3.1;
* **encoding** — a GraphSAGE network (mean aggregation, L=2 hops, ``p``
  sampled neighbours) turns the topology into node embeddings;
* **action** — the A2C actor picks the target node; the *policy context
  filter* masks nodes whose available resources cannot fit the request;
* **reward** — ``r_t = r_short + η · r_long`` with
  ``r_short = exp(−max(Σ cpu_q / cpu_node, Σ mem_q / mem_node))`` on the
  chosen node's backlog and
  ``r_long = 1 − exp(−Σ_i Σ_{q' completed} (cpu/cpu_i + mem/mem_i))`` over
  completions since the last training interval (η = 1);
* **training** — batched A2C updates every ``train_interval`` decisions
  ("if the required number of samples are collected: train and update").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.nn.a2c import A2CAgent, A2CConfig, Transition
from repro.nn.gnn import GraphEncoder, GraphSAGEEncoder
from repro.obs.emitter import NULL_EMITTER
from repro.sim.request import ServiceRequest

from .base import Assignment

__all__ = ["DCGBEConfig", "DCGBEScheduler", "N_NODE_FEATURES", "build_topology"]

#: per-node feature count (see _features).
N_NODE_FEATURES = 8

#: delay (one-way, ms) under which two clusters get a WAN gateway edge.
WAN_EDGE_DELAY_MS = 40.0


@dataclass
class DCGBEConfig:
    eta: float = 1.0  # weight of the long-term reward (paper: 1)
    sample_size: int = 3  # GraphSAGE neighbour sample p
    hops: int = 2  # aggregation depth L
    encoder_width: int = 64
    train_interval: int = 32
    #: discount over the decision stream.  The long-term objective is already
    #: carried by r_long (§5.3.1), so per-decision credit is immediate; a
    #: non-zero gamma couples unrelated placements within a batch and biases
    #: late-batch decisions after return normalisation.
    gamma: float = 0.0
    lr: float = 2e-3
    seed: int = 0
    #: cap per dispatch round so one burst cannot starve the tick budget.
    max_per_round: int = 256


def build_topology(nodes: Sequence[NodeSnapshot], snapshot: SystemSnapshot):
    """Adjacency list over worker nodes: LAN cliques + WAN gateway edges."""
    adj: List[List[int]] = [[] for _ in nodes]
    by_cluster: Dict[int, List[int]] = {}
    for idx, node in enumerate(nodes):
        by_cluster.setdefault(node.cluster_id, []).append(idx)
    # LAN: complete graph within a cluster
    for members in by_cluster.values():
        for i in members:
            for j in members:
                if i != j:
                    adj[i].append(j)
    # WAN: first worker of each cluster pair acts as gateway
    clusters = sorted(by_cluster)
    central = snapshot.central_cluster_id
    for ai, a in enumerate(clusters):
        for b in clusters[ai + 1 :]:
            delay = snapshot.delay_ms[a][b]
            if delay <= WAN_EDGE_DELAY_MS or central in (a, b):
                ga, gb = by_cluster[a][0], by_cluster[b][0]
                adj[ga].append(gb)
                adj[gb].append(ga)
    return adj


class DCGBEScheduler:
    """Centralised BE dispatcher with online GraphSAGE+A2C learning."""

    def __init__(
        self,
        config: Optional[DCGBEConfig] = None,
        *,
        encoder: Optional[GraphEncoder] = None,
        greedy: bool = False,
    ) -> None:
        self.config = config or DCGBEConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        if encoder is None:
            encoder = GraphSAGEEncoder(
                N_NODE_FEATURES,
                [cfg.encoder_width] * cfg.hops,
                rng,
                sample_size=cfg.sample_size,
            )
        self.agent = A2CAgent(
            N_NODE_FEATURES,
            rng,
            encoder=encoder,
            config=A2CConfig(
                lr=cfg.lr,
                gamma=cfg.gamma,
                train_interval=cfg.train_interval,
            ),
        )
        self.greedy = greedy
        #: completions since the last decision, as the r_long accumulator.
        self._completion_mass = 0.0
        self.decisions = 0
        self.requeues = 0
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER
        #: per-snapshot static state: (snapshot, adj, clamped totals, and
        #: the feature columns that cannot change within one snapshot).
        #: Pinning the snapshot reference keys the cache by identity.
        self._static_cache: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # runner feedback
    # ------------------------------------------------------------------ #
    def note_completion(
        self, request: ServiceRequest, node_cpu: float, node_mem: float
    ) -> None:
        """Accumulate the r_long mass for a completed BE request."""
        spec = request.spec
        mass = 0.0
        if node_cpu > 0:
            mass += spec.reference_resources.cpu / node_cpu
        if node_mem > 0:
            mass += spec.reference_resources.memory / node_mem
        self._completion_mass += mass

    def _long_term_reward(self) -> float:
        return 1.0 - math.exp(-self._completion_mass)

    # ------------------------------------------------------------------ #
    # dispatch (Alg. 3 main loop)
    # ------------------------------------------------------------------ #
    def dispatch_be(
        self,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        now_ms: float,
    ) -> List[Assignment]:
        if not requests or not snapshot.nodes:
            return []
        nodes = snapshot.nodes
        adj, cpu_tot, mem_tot, static_cols = self._static_state(snapshot)
        # working copies updated as this round assigns requests
        cpu_ava = np.array([n.cpu_available for n in nodes])
        mem_ava = np.array([n.mem_available for n in nodes])
        # Q_{t,i}: the waiting-set demand per node (§5.3.1), seeded from the
        # snapshot and grown by this round's own placements.
        pending_cpu = np.array([n.be_queue_cpu for n in nodes])
        pending_mem = np.array([n.be_queue_mem for n in nodes])

        out: List[Assignment] = []
        for request in list(requests)[: self.config.max_per_round]:
            spec = request.spec
            need_cpu = spec.min_resources.cpu
            need_mem = spec.min_resources.memory
            mask = (cpu_ava >= need_cpu) & (mem_ava >= need_mem)
            features = self._features_fast(
                cpu_ava, mem_ava, pending_cpu, spec,
                cpu_tot, mem_tot, static_cols,
            )
            if not mask.any():
                # No node can process immediately: the request is still sent
                # to a target node and waits there (Alg. 3 requeues it from
                # the node if it stays unprocessable); the policy chooses
                # over all nodes so work keeps flowing under saturation.
                self.requeues += 1
                mask = None
            action = self.agent.act(features, adj, mask, greedy=self.greedy)
            node = nodes[action]
            out.append(
                Assignment(
                    request=request,
                    node_name=node.name,
                    cluster_id=node.cluster_id,
                    cost_ms=snapshot.delay_ms[snapshot.central_cluster_id][
                        node.cluster_id
                    ],
                )
            )
            self.decisions += 1

            # apply the decision to the working state
            cpu_ava[action] -= need_cpu
            mem_ava[action] -= need_mem
            pending_cpu[action] += spec.reference_resources.cpu
            pending_mem[action] += spec.reference_resources.memory

            if not self.greedy:
                reward = self._reward(
                    action, nodes, pending_cpu, pending_mem
                )
                self.agent.record(
                    Transition(
                        features=features,
                        adj=adj,
                        mask=mask,
                        action=action,
                        reward=reward,
                    )
                )
        self.emitter.dispatch_round(
            now_ms,
            "dcg-be",
            snapshot.central_cluster_id,
            len(requests),
            len(out),
            float(sum(a.cost_ms for a in out)),
        )
        return out

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """The whole learning agent travels: encoder/actor/critic params,
        optimizer moments (aliasing to the params is preserved by the
        runner's single-memo deepcopy), replay buffer, and RNG."""
        return {
            "agent": self.agent,
            "completion_mass": self._completion_mass,
            "decisions": self.decisions,
            "requeues": self.requeues,
        }

    def restore_state(self, state: Dict) -> None:
        self.agent = state["agent"]
        self._completion_mass = state["completion_mass"]
        self.decisions = state["decisions"]
        self.requeues = state["requeues"]
        self._static_cache = None

    # ------------------------------------------------------------------ #
    # state + reward construction
    # ------------------------------------------------------------------ #
    def _static_state(self, snapshot: SystemSnapshot):
        """Topology + immutable feature columns, cached per snapshot.

        A snapshot is immutable once published, so its adjacency list,
        clamped totals, and the capacity/slack feature columns are computed
        once per refresh period instead of once per request.
        """
        cache = self._static_cache
        if cache is not None and cache[0] is snapshot:
            return cache[1], cache[2], cache[3], cache[4]
        nodes = snapshot.nodes
        adj = build_topology(nodes, snapshot)
        cpu_tot = np.array([max(n.cpu_total, 1e-9) for n in nodes])
        mem_tot = np.array([max(n.mem_total, 1e-9) for n in nodes])
        static_cols = (
            cpu_tot / 16.0,
            mem_tot / 32768.0,
            np.array([n.min_slack for n in nodes]),
        )
        self._static_cache = (snapshot, adj, cpu_tot, mem_tot, static_cols)
        return adj, cpu_tot, mem_tot, static_cols

    @staticmethod
    def _features_fast(
        cpu_ava: np.ndarray,
        mem_ava: np.ndarray,
        pending_cpu: np.ndarray,
        spec,
        cpu_tot: np.ndarray,
        mem_tot: np.ndarray,
        static_cols: tuple,
    ) -> np.ndarray:
        """Vectorised :meth:`_features` over precomputed clamped totals.

        Every column is an elementwise numpy op over the same operands the
        scalar loop uses, so the result is bit-identical (asserted by
        ``tests/test_dcg_be.py``).
        """
        n = cpu_ava.shape[0]
        feats = np.empty((n, N_NODE_FEATURES))
        feats[:, 0] = cpu_ava / cpu_tot
        feats[:, 1] = mem_ava / mem_tot
        feats[:, 2] = static_cols[0]
        feats[:, 3] = static_cols[1]
        feats[:, 4] = static_cols[2]
        feats[:, 5] = spec.reference_resources.cpu / cpu_tot
        feats[:, 6] = spec.reference_resources.memory / mem_tot
        feats[:, 7] = np.minimum(2.0, pending_cpu / cpu_tot)
        return feats

    @staticmethod
    def _features(
        nodes: Sequence[NodeSnapshot],
        cpu_ava: np.ndarray,
        mem_ava: np.ndarray,
        pending_cpu: np.ndarray,
        spec,
    ) -> np.ndarray:
        """Per-node state T of §5.3.1.

        ``pending_cpu`` is the *working* waiting-set demand — the snapshot's
        Q_{t,i} plus this round's own placements — so the queue-pressure
        feature moves as the round assigns requests and the policy spreads
        load instead of re-picking one node.
        """
        n = len(nodes)
        feats = np.zeros((n, N_NODE_FEATURES))
        for i, node in enumerate(nodes):
            cpu_total = max(node.cpu_total, 1e-9)
            mem_total = max(node.mem_total, 1e-9)
            feats[i, 0] = cpu_ava[i] / cpu_total
            feats[i, 1] = mem_ava[i] / mem_total
            feats[i, 2] = cpu_total / 16.0
            feats[i, 3] = mem_total / 32768.0
            feats[i, 4] = node.min_slack
            feats[i, 5] = spec.reference_resources.cpu / cpu_total
            feats[i, 6] = spec.reference_resources.memory / mem_total
            feats[i, 7] = min(2.0, pending_cpu[i] / cpu_total)
        return feats

    def _reward(
        self,
        action: int,
        nodes: Sequence[NodeSnapshot],
        pending_cpu: np.ndarray,
        pending_mem: np.ndarray,
    ) -> float:
        node = nodes[action]
        cpu_frac = pending_cpu[action] / max(node.cpu_total, 1e-9)
        mem_frac = pending_mem[action] / max(node.mem_total, 1e-9)
        r_short = math.exp(-max(cpu_frac, mem_frac))
        r_long = self._long_term_reward()
        self._completion_mass = 0.0
        return r_short + self.config.eta * r_long
