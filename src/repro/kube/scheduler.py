"""The native K8s scheduler and service-proxy traffic policy.

Two distinct "K8s-native" behaviours appear in the paper's baselines:

* **Pod placement** — the default kube-scheduler's filter/score pipeline.
  We implement PodFitsResources filtering plus the classic
  ``LeastRequestedPriority`` score, which is what §7 calls "K8s-native"
  placement.
* **Traffic dispatch** — kube-proxy's round-robin over service endpoints
  (§2.1: "K8s only provides simplistic policies such as round-robin"), used
  as the K8s-native request scheduling baseline in Figs. 11–13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.resources import ResourceVector

from .objects import Pod

__all__ = ["KubeScheduler", "RoundRobinProxy", "NodeView"]


@dataclass
class NodeView:
    """Scheduler-visible snapshot of a node."""

    name: str
    allocatable: ResourceVector
    allocated: ResourceVector

    def free(self) -> ResourceVector:
        return (self.allocatable - self.allocated).clamp_min(0.0)


class KubeScheduler:
    """Default scheduler: PodFitsResources filter + LeastRequested score."""

    def __init__(self) -> None:
        self.scheduled_count = 0

    def select_node(
        self, pod: Pod, nodes: Sequence[NodeView]
    ) -> Optional[str]:
        demand = pod.spec.total_requests()
        feasible = [n for n in nodes if demand.fits_in(n.free())]
        if not feasible:
            return None
        best_name, best_score = None, -1.0
        for node in feasible:
            score = self._least_requested_score(demand, node)
            if score > best_score:
                best_name, best_score = node.name, score
        self.scheduled_count += 1
        return best_name

    @staticmethod
    def _least_requested_score(demand: ResourceVector, node: NodeView) -> float:
        """K8s LeastRequestedPriority: mean of free-fraction post-placement."""
        after = node.allocated + demand
        scores = []
        for cap, used in (
            (node.allocatable.cpu, after.cpu),
            (node.allocatable.memory, after.memory),
        ):
            if cap <= 0:
                return -1.0
            scores.append(max(0.0, (cap - used) / cap))
        return sum(scores) / len(scores)


class RoundRobinProxy:
    """kube-proxy style round-robin over a rotating endpoint list.

    Keeps one cursor per service so interleaved services don't perturb each
    other, exactly like iptables/IPVS round-robin does per Service.
    """

    def __init__(self) -> None:
        self._cursors: Dict[str, int] = {}

    def next_endpoint(self, service: str, endpoints: Sequence[str]) -> Optional[str]:
        if not endpoints:
            return None
        cursor = self._cursors.get(service, 0)
        choice = endpoints[cursor % len(endpoints)]
        self._cursors[service] = cursor + 1
        return choice

    def reset(self, service: Optional[str] = None) -> None:
        if service is None:
            self._cursors.clear()
        else:
            self._cursors.pop(service, None)
