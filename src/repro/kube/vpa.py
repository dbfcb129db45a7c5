"""The native K8s Vertical Pod Autoscaler — the delete-and-rebuild baseline.

§4.2 ("Pain Points"): native K8s cannot modify a running pod's resource list;
the upstream VPA plugin resizes by *evicting* the pod and letting it be
recreated with new requests.  That costs a full teardown plus a cold
container start and interrupts the workload — the paper measures D-VPA's
in-place resize at 23 ms, "approximately 100 times" faster than this path.

This module reproduces the plugin at behaviour level: a recommender tracking
usage percentiles, and an updater that performs the disruptive resize and
accounts its latency and downtime so the D-VPA comparison bench
(``benchmarks/test_dvpa_latency.py``) can measure both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.resources import ResourceKind, ResourceVector

from .kubelet import CONTAINER_COLD_START_MS, POD_TEARDOWN_MS
from .objects import ContainerSpec, Pod, PodPhase, PodSpec

__all__ = ["NativeVPA", "VPARecommendation", "ResizeOutcome"]


@dataclass
class VPARecommendation:
    """Target requests computed from observed usage."""

    target: ResourceVector
    lower_bound: ResourceVector
    upper_bound: ResourceVector


@dataclass
class ResizeOutcome:
    """Cost accounting for one resize operation."""

    new_pod: Pod
    latency_ms: float
    downtime_ms: float
    interrupted: bool


class NativeVPA:
    """Recommender + delete-and-rebuild updater, as the upstream plugin."""

    #: safety margin applied over the usage percentile, as the real
    #: recommender's ``recommendation-margin-fraction`` (default 15%).
    MARGIN = 1.15
    #: usage percentile targeted by the recommender.
    TARGET_PERCENTILE = 90.0

    def __init__(self, history_len: int = 64) -> None:
        self.history_len = history_len
        self._usage: Dict[str, List[ResourceVector]] = {}
        self.resize_count = 0
        self.total_downtime_ms = 0.0

    # ------------------------------------------------------------------ #
    # recommender
    # ------------------------------------------------------------------ #
    def observe(self, pod_key: str, usage: ResourceVector) -> None:
        history = self._usage.setdefault(pod_key, [])
        history.append(usage)
        if len(history) > self.history_len:
            history.pop(0)

    def recommend(self, pod_key: str) -> Optional[VPARecommendation]:
        history = self._usage.get(pod_key)
        if not history:
            return None
        cpu = np.percentile([u.cpu for u in history], self.TARGET_PERCENTILE)
        mem = np.percentile([u.memory for u in history], self.TARGET_PERCENTILE)
        target = ResourceVector(cpu=cpu * self.MARGIN, memory=mem * self.MARGIN)
        return VPARecommendation(
            target=target,
            lower_bound=target * 0.8,
            upper_bound=target * 1.5,
        )

    def needs_resize(self, pod: Pod, rec: VPARecommendation) -> bool:
        """Resize only when current requests leave the recommendation band."""
        current = pod.spec.total_requests()
        for kind in ResourceKind:
            cur = current.get(kind)
            if cur < rec.lower_bound.get(kind) or cur > rec.upper_bound.get(kind):
                return True
        return False

    # ------------------------------------------------------------------ #
    # updater (the disruptive path)
    # ------------------------------------------------------------------ #
    def resize(self, pod: Pod, new_requests: ResourceVector) -> ResizeOutcome:
        """Delete-and-rebuild the pod with new requests.

        The returned latency covers teardown + cold start; the workload is
        down for the whole interval (``interrupted=True``), which is what the
        D-VPA design removes.
        """
        pod.phase = PodPhase.FAILED
        pod.deleted = True
        containers = [
            ContainerSpec(
                name=c.name,
                requests=self._scale_to(c.requests, new_requests, pod.spec),
                limits=self._scale_to(c.effective_limits(), new_requests, pod.spec),
            )
            for c in pod.spec.containers
        ]
        new_pod = Pod(
            name=pod.name,
            namespace=pod.namespace,
            labels=dict(pod.labels),
            spec=PodSpec(
                containers=containers,
                node_name=pod.spec.node_name,
                service_name=pod.spec.service_name,
                priority=pod.spec.priority,
            ),
        )
        latency = POD_TEARDOWN_MS + CONTAINER_COLD_START_MS
        self.resize_count += 1
        self.total_downtime_ms += latency
        return ResizeOutcome(
            new_pod=new_pod,
            latency_ms=latency,
            downtime_ms=latency,
            interrupted=True,
        )

    @staticmethod
    def _scale_to(
        current: ResourceVector, pod_target: ResourceVector, spec: PodSpec
    ) -> ResourceVector:
        """Distribute the pod-level target over containers pro-rata."""
        pod_current = spec.total_requests()
        result = current
        for kind in ResourceKind:
            total = pod_current.get(kind)
            share = current.get(kind) / total if total > 0 else 1.0 / max(
                1, len(spec.containers)
            )
            result = result.replace(kind, pod_target.get(kind) * share)
        return result
