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

from repro.core.state_storage import NodeSnapshot, NodeView, SystemSnapshot
from repro.nn.a2c import A2CAgent, A2CConfig, Transition
from repro.nn.gnn import GraphEncoder, GraphSAGEEncoder
from repro.obs.emitter import NULL_EMITTER
from repro.sim.request import ServiceRequest

from .base import Assignment

__all__ = ["DCGBEConfig", "DCGBEScheduler", "N_NODE_FEATURES"]

#: per-node feature count (see _features).
N_NODE_FEATURES = 8


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


class DCGBEScheduler:
    """Centralised BE dispatcher with online GraphSAGE+A2C learning.

    Subclasses swap the learner through :meth:`_make_agent` and
    :meth:`_record`; state, context filter, reward and dispatch loop are
    shared.
    """

    #: scheduler label of the published dispatch rounds.
    name = "dcg-be"

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
        self.agent = self._make_agent(encoder, rng)
        self.greedy = greedy
        #: completions since the last decision, as the r_long accumulator.
        self._completion_mass = 0.0
        self.decisions = 0
        self.requeues = 0
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER

    def _make_agent(self, encoder: GraphEncoder, rng: np.random.Generator):
        """The learner acting on the encoded state (A2C for DCG-BE)."""
        cfg = self.config
        return A2CAgent(
            N_NODE_FEATURES,
            rng,
            encoder=encoder,
            config=A2CConfig(
                lr=cfg.lr,
                gamma=cfg.gamma,
                train_interval=cfg.train_interval,
            ),
        )

    def _record(self, features, adj, mask, action: int, reward: float) -> None:
        """Hand one decision and its reward to the learner."""
        self.agent.record(
            Transition(features, adj, mask, action=action, reward=reward)
        )

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
        view = snapshot.view()
        nodes = view.nodes
        adj = snapshot.topology()
        # working copies updated as this round assigns requests
        cpu_ava = view.cpu_available.copy()
        mem_ava = view.mem_available.copy()
        # Q_{t,i}: the waiting-set demand per node (§5.3.1), seeded from the
        # snapshot and grown by this round's own placements.
        pending_cpu = view.be_queue_cpu.copy()
        pending_mem = view.be_queue_mem.copy()

        out: List[Assignment] = []
        for request in list(requests)[: self.config.max_per_round]:
            spec = request.spec
            need_cpu = spec.min_resources.cpu
            need_mem = spec.min_resources.memory
            mask = (cpu_ava >= need_cpu) & (mem_ava >= need_mem)
            features = self._features_fast(
                view, cpu_ava, mem_ava, pending_cpu, spec
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
                self._record(features, adj, mask, action, reward)
        self.emitter.dispatch_round(
            now_ms,
            self.name,
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

    # ------------------------------------------------------------------ #
    # state + reward construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _features_fast(
        view: NodeView,
        cpu_ava: np.ndarray,
        mem_ava: np.ndarray,
        pending_cpu: np.ndarray,
        spec,
    ) -> np.ndarray:
        """Vectorised :meth:`_features` over the view's columns.

        Every column is an elementwise numpy op over the same operands the
        scalar loop uses, so the result is bit-identical (asserted by
        ``tests/test_dcg_be.py``).
        """
        cpu_tot = np.maximum(view.cpu_total, 1e-9)
        mem_tot = np.maximum(view.mem_total, 1e-9)
        feats = np.empty((cpu_ava.shape[0], N_NODE_FEATURES))
        feats[:, 0] = cpu_ava / cpu_tot
        feats[:, 1] = mem_ava / mem_tot
        feats[:, 2] = cpu_tot / 16.0
        feats[:, 3] = mem_tot / 32768.0
        feats[:, 4] = view.min_slack
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
