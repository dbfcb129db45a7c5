"""Edge-cloud cluster: one master (the eAP) plus worker nodes on a LAN.

§5.1.1: a cluster's master node receives user requests, holds the LC and BE
scheduling queues, and acts as controller and decision maker; workers execute
container instances.  Intra-cluster links are LAN (~1 ms), inter-cluster
links are WAN (geography-dependent RTT, :mod:`repro.cluster.topology`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.cluster.node import WorkerNode
from repro.cluster.resources import ResourceVector
from repro.sim.request import RequestState, ServiceRequest

__all__ = ["EdgeCloudCluster", "LAN_DELAY_MS", "make_heterogeneous_workers"]

#: one-way intra-cluster network delay.
LAN_DELAY_MS = 1.0


@dataclass
class EdgeCloudCluster:
    """Master queues + worker fleet for one edge-cloud."""

    cluster_id: int
    workers: List[WorkerNode]
    #: geographic position in km (used by the topology for WAN RTTs).
    position_km: tuple = (0.0, 0.0)
    lc_queue: Deque[ServiceRequest] = field(default_factory=deque)
    be_queue: Deque[ServiceRequest] = field(default_factory=deque)

    def __post_init__(self) -> None:
        for worker in self.workers:
            worker.cluster_id = self.cluster_id

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #
    def receive(self, request: ServiceRequest) -> None:
        request.state = RequestState.QUEUED_MASTER
        (self.lc_queue if request.is_lc else self.be_queue).append(request)

    def drain_lc(self) -> List[ServiceRequest]:
        items = list(self.lc_queue)
        self.lc_queue.clear()
        return items

    def drain_be(self) -> List[ServiceRequest]:
        items = list(self.be_queue)
        self.be_queue.clear()
        return items

    # ------------------------------------------------------------------ #
    # aggregate views
    # ------------------------------------------------------------------ #
    def total_capacity(self) -> ResourceVector:
        total = ResourceVector()
        for w in self.workers:
            total = total + w.capacity
        return total

    def utilization(self) -> float:
        if not self.workers:
            return 0.0
        return float(np.mean([w.utilization() for w in self.workers]))

    def worker(self, name: str) -> WorkerNode:
        for w in self.workers:
            if w.name == name:
                return w
        raise KeyError(f"no worker {name!r} in cluster {self.cluster_id}")

    def queue_lengths(self) -> Dict[str, int]:
        return {"lc": len(self.lc_queue), "be": len(self.be_queue)}

    # ------------------------------------------------------------------ #
    # Checkpointable (master queues only; workers snapshot themselves)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        return {"lc_queue": self.lc_queue, "be_queue": self.be_queue}

    def restore_state(self, state: Dict) -> None:
        self.lc_queue = state["lc_queue"]
        self.be_queue = state["be_queue"]


def make_heterogeneous_workers(
    cluster_id: int,
    rng: np.random.Generator,
    *,
    n_workers: Optional[int] = None,
    min_workers: int = 3,
    max_workers: int = 20,
) -> List[WorkerNode]:
    """Build a heterogeneous worker fleet like the paper's twin space.

    §6.1: each virtual cluster has 3-20 workers; physical workers have 4
    CPUs / 8 GB.  We draw worker sizes from a small set of realistic edge
    SKUs so clusters differ both in count and in per-node capacity.
    """
    skus = [
        ResourceVector(cpu=4.0, memory=8 * 1024.0),
        ResourceVector(cpu=8.0, memory=16 * 1024.0),
        ResourceVector(cpu=2.0, memory=4 * 1024.0),
        ResourceVector(cpu=16.0, memory=32 * 1024.0),
    ]
    sku_weights = np.array([0.45, 0.25, 0.20, 0.10])
    if n_workers is None:
        n_workers = int(rng.integers(min_workers, max_workers + 1))
    workers = []
    for i in range(n_workers):
        sku = skus[int(rng.choice(len(skus), p=sku_weights))]
        workers.append(
            WorkerNode(
                name=f"c{cluster_id}-w{i}",
                cluster_id=cluster_id,
                capacity=sku,
            )
        )
    return workers
