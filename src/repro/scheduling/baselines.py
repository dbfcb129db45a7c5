"""Scheduling baselines from §7.2: load-greedy, K8s-native, scoring.

* **load-greedy** — send every request to the node with the lowest load in
  the latest snapshot.  Its known weakness (and the reason it loses to
  DSS-LC and DCG-BE) is *herding*: because snapshots refresh periodically, a
  whole burst lands on whichever node looked emptiest at the last refresh.
  It is an *inter-cluster* algorithm (global view), per §7.2.
* **K8s-native** — kube-proxy round-robin, blind to load, priority, and
  heterogeneity (§2.1).  Crucially it is NOT an inter-cluster scheduler:
  native K8s has no cross-cluster dispatcher, so in the BE role each
  request round-robins over its *origin cluster's* workers only — which is
  why §7.2 notes "all three inter-cluster scheduling algorithms outperform
  K8s-native by effectively utilizing system resources".
* **scoring** — the history-based weighted-score policy of [42]: combines
  free CPU/memory fractions, queue backlog, and transmission latency into a
  scalar score and picks the best node per request, decrementing a working
  copy of the snapshot as it goes.

All three implement both the LC and BE scheduler protocols (the paper uses
them on both sides of the pairing matrix in Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.state_storage import NodeSnapshot, SystemSnapshot
from repro.sim.request import ServiceRequest

from .base import Assignment

__all__ = ["LoadGreedyScheduler", "K8sNativeScheduler", "ScoringScheduler"]


def _eligible_nodes(
    snapshot: SystemSnapshot, clusters: Optional[Sequence[int]]
) -> List[NodeSnapshot]:
    return snapshot.nodes_of(list(clusters) if clusters is not None else None)


class LoadGreedyScheduler:
    """Lowest-load-first dispatch (both LC and BE roles)."""

    def __init__(self) -> None:
        self.dispatched = 0

    # -- Checkpointable ------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        return {"dispatched": self.dispatched}

    def restore_state(self, state: Dict) -> None:
        # BE-role checkpoints of older builds nest the state under "inner"
        state = state.get("inner", state)
        self.dispatched = state["dispatched"]

    @staticmethod
    def _load(node: NodeSnapshot, extra_queue: int) -> float:
        cpu_used = 1.0 - node.cpu_available / max(node.cpu_total, 1e-9)
        mem_used = 1.0 - node.mem_available / max(node.mem_total, 1e-9)
        backlog = (node.lc_queue + node.be_queue + extra_queue) * 0.05
        return max(cpu_used, mem_used) + backlog

    def _dispatch(
        self,
        requests: Sequence[ServiceRequest],
        nodes: List[NodeSnapshot],
    ) -> List[Assignment]:
        if not nodes:
            return []
        # Greedy on the (stale) snapshot.  A local queue counter damps
        # same-round herding, but the snapshot itself only refreshes
        # periodically — the residual herding is what loses to DSS-LC/DCG-BE.
        extra: Dict[str, int] = {n.name: 0 for n in nodes}
        out: List[Assignment] = []
        for request in requests:
            best = min(nodes, key=lambda n: self._load(n, extra[n.name]))
            extra[best.name] += 1
            out.append(
                Assignment(
                    request=request,
                    node_name=best.name,
                    cluster_id=best.cluster_id,
                )
            )
            self.dispatched += 1
        return out

    # LC role
    def dispatch(
        self,
        origin_cluster: int,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        eligible_clusters: Sequence[int],
        now_ms: float,
    ) -> List[Assignment]:
        return self._dispatch(requests, _eligible_nodes(snapshot, eligible_clusters))

    def dispatch_be(
        self,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        now_ms: float,
    ) -> List[Assignment]:
        return self._dispatch(requests, snapshot.nodes)


class K8sNativeScheduler:
    """Round-robin over eligible nodes, one cursor per service."""

    def __init__(self) -> None:
        self._cursors: Dict[str, int] = {}

    # -- Checkpointable ------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        return {"cursors": self._cursors}

    def restore_state(self, state: Dict) -> None:
        # BE-role checkpoints of older builds nest the state under "inner"
        state = state.get("inner", state)
        self._cursors = state["cursors"]

    def _dispatch(
        self,
        requests: Sequence[ServiceRequest],
        nodes: List[NodeSnapshot],
    ) -> List[Assignment]:
        if not nodes:
            return []
        out: List[Assignment] = []
        for request in requests:
            cursor = self._cursors.get(request.spec.name, 0)
            node = nodes[cursor % len(nodes)]
            self._cursors[request.spec.name] = cursor + 1
            out.append(
                Assignment(
                    request=request,
                    node_name=node.name,
                    cluster_id=node.cluster_id,
                )
            )
        return out

    def dispatch(
        self,
        origin_cluster: int,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        eligible_clusters: Sequence[int],
        now_ms: float,
    ) -> List[Assignment]:
        return self._dispatch(requests, _eligible_nodes(snapshot, eligible_clusters))

    def dispatch_be(
        self,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        now_ms: float,
    ) -> List[Assignment]:
        # K8s has no central BE dispatcher: each request is balanced over
        # its origin cluster's own workers (kube-proxy behaviour).
        out: List[Assignment] = []
        for request in requests:
            local = snapshot.nodes_of([request.origin_cluster])
            out.extend(self._dispatch([request], local))
        return out


@dataclass
class ScoringWeights:
    cpu: float = 0.35
    memory: float = 0.25
    queue: float = 0.20
    delay: float = 0.20


class ScoringScheduler:
    """History-based weighted scoring [42] with a working-copy snapshot."""

    def __init__(self, weights: Optional[ScoringWeights] = None) -> None:
        self.weights = weights or ScoringWeights()

    def _score(
        self,
        node: NodeSnapshot,
        request: ServiceRequest,
        delay_ms: float,
        extra_cpu: float,
        extra_queue: int,
        max_delay_ms: float,
    ) -> float:
        w = self.weights
        cpu_free = max(0.0, node.cpu_available - extra_cpu) / max(
            node.cpu_total, 1e-9
        )
        mem_free = node.mem_available / max(node.mem_total, 1e-9)
        backlog = min(1.0, (node.lc_queue + node.be_queue + extra_queue) / 32.0)
        delay_norm = delay_ms / max(max_delay_ms, 1e-9)
        return (
            w.cpu * cpu_free
            + w.memory * mem_free
            - w.queue * backlog
            - w.delay * delay_norm
        )

    def _dispatch(
        self,
        origin_cluster: Optional[int],
        requests: Sequence[ServiceRequest],
        nodes: List[NodeSnapshot],
        snapshot: SystemSnapshot,
    ) -> List[Assignment]:
        if not nodes:
            return []
        extra_cpu: Dict[str, float] = {n.name: 0.0 for n in nodes}
        extra_queue: Dict[str, int] = {n.name: 0 for n in nodes}
        max_delay = max(
            (max(row) for row in snapshot.delay_ms), default=1.0
        )
        out: List[Assignment] = []
        for request in requests:
            best, best_score = None, -np.inf
            for node in nodes:
                origin = (
                    origin_cluster if origin_cluster is not None else node.cluster_id
                )
                delay = snapshot.delay_ms[origin][node.cluster_id]
                score = self._score(
                    node,
                    request,
                    delay,
                    extra_cpu[node.name],
                    extra_queue[node.name],
                    max_delay,
                )
                if score > best_score:
                    best, best_score = node, score
            assert best is not None
            extra_cpu[best.name] += request.spec.min_resources.cpu
            extra_queue[best.name] += 1
            out.append(
                Assignment(
                    request=request,
                    node_name=best.name,
                    cluster_id=best.cluster_id,
                )
            )
        return out

    def dispatch(
        self,
        origin_cluster: int,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        eligible_clusters: Sequence[int],
        now_ms: float,
    ) -> List[Assignment]:
        return self._dispatch(
            origin_cluster,
            requests,
            _eligible_nodes(snapshot, eligible_clusters),
            snapshot,
        )

    def dispatch_be(
        self,
        requests: Sequence[ServiceRequest],
        snapshot: SystemSnapshot,
        now_ms: float,
    ) -> List[Assignment]:
        return self._dispatch(None, requests, snapshot.nodes, snapshot)
