"""D-VPA: dynamic vertical pod autoscaling without delete-and-rebuild (§4.2).

The component keeps one long-running pod per (node, service) — Tango's
scenario runs "fixed types of containerized applications ... continuously"
(footnote 3) — and resizes that pod's cgroup limits in place as requests
arrive and complete.  Each resize follows the ordered two-level protocol of
:meth:`repro.kube.cgroups.CGroupTree.resize_pod`; a full operation costs
~23 ms of control latency and, crucially, never interrupts the running
container (unlike :class:`repro.kube.vpa.NativeVPA`, which pays a teardown
plus a cold start ≈ 100× more and drops in-flight work).

Two modes are offered:

* ``detailed=True`` drives a real :class:`CGroupTree` (used by unit tests and
  the D-VPA latency bench so every write is validated and logged);
* ``detailed=False`` keeps only the aggregate limits and op counters, which
  is what the large-scale simulation uses on its hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.resources import ResourceVector
from repro.kube.cgroups import CGroupTree, WRITE_LATENCY_MS
from repro.kube.objects import QoSClass

__all__ = ["DVPA", "DVPA_SCALE_LATENCY_MS", "ScaleStats"]

#: Measured latency of one D-VPA scaling operation (§7.1: 23 ms).  With the
#: detailed cgroup tree this emerges from ~6 control-file writes; the
#: aggregate mode charges it directly.
DVPA_SCALE_LATENCY_MS = 6 * WRITE_LATENCY_MS  # 22.8 ms


@dataclass
class ScaleStats:
    operations: int = 0
    total_latency_ms: float = 0.0
    expansions: int = 0
    shrinks: int = 0

    @property
    def mean_latency_ms(self) -> float:
        return self.total_latency_ms / self.operations if self.operations else 0.0


@dataclass
class _ServicePod:
    pod_uid: str
    container: str
    current_limit: ResourceVector


class DVPA:
    """Per-node dynamic vertical scaler."""

    def __init__(self, node_name: str, *, detailed: bool = False) -> None:
        self.node_name = node_name
        self.detailed = detailed
        self.tree: Optional[CGroupTree] = CGroupTree() if detailed else None
        self._pods: Dict[str, _ServicePod] = {}
        self.stats = ScaleStats()
        self._uid_counter = 0

    # ------------------------------------------------------------------ #
    # pod management
    # ------------------------------------------------------------------ #
    def ensure_service_pod(
        self, service: str, initial_limit: ResourceVector
    ) -> _ServicePod:
        if service in self._pods:
            return self._pods[service]
        self._uid_counter += 1
        uid = f"{self.node_name}-{service}-{self._uid_counter:04d}"
        pod = _ServicePod(pod_uid=uid, container=f"{service}-c0", current_limit=initial_limit)
        if self.tree is not None:
            self.tree.create_pod_group(
                QoSClass.BURSTABLE.value,
                uid,
                [pod.container],
                cpu_limit_cores=max(initial_limit.cpu, 0.01),
                memory_limit_mib=max(initial_limit.memory, 1.0),
            )
        self._pods[service] = pod
        return pod

    def current_limit(self, service: str) -> Optional[ResourceVector]:
        pod = self._pods.get(service)
        return pod.current_limit if pod else None

    # ------------------------------------------------------------------ #
    # scaling
    # ------------------------------------------------------------------ #
    def scale(self, service: str, new_limit: ResourceVector) -> float:
        """Resize the service pod to ``new_limit``; returns latency in ms.

        A no-op (identical limit) costs nothing — D-VPA only touches the
        cgroups when the target differs.
        """
        # a brand-new service pod starts at zero, so its first sizing is a
        # real (charged) scaling operation
        pod = self.ensure_service_pod(service, ResourceVector())
        if pod.current_limit.approx_equal(new_limit):
            return 0.0
        expanding = new_limit.cpu > pod.current_limit.cpu or (
            new_limit.memory > pod.current_limit.memory
        )
        if self.tree is not None:
            latency = self.tree.resize_pod(
                QoSClass.BURSTABLE.value,
                pod.pod_uid,
                pod.container,
                ResourceVector(
                    cpu=max(new_limit.cpu, 0.01),
                    memory=max(new_limit.memory, 1.0),
                ),
            )
        else:
            latency = DVPA_SCALE_LATENCY_MS
        pod.current_limit = new_limit
        self.stats.operations += 1
        self.stats.total_latency_ms += latency
        if expanding:
            self.stats.expansions += 1
        else:
            self.stats.shrinks += 1
        return latency

    def release(self, service: str, amount: ResourceVector) -> float:
        """Shrink the service pod by ``amount`` (request completion path)."""
        pod = self._pods.get(service)
        if pod is None:
            return 0.0
        new_limit = (pod.current_limit - amount).clamp_min(0.0)
        return self.scale(service, new_limit)

    def grow(self, service: str, amount: ResourceVector) -> float:
        """Expand the service pod by ``amount`` (request admission path)."""
        pod = self._pods.get(service)
        base = pod.current_limit if pod else ResourceVector()
        return self.scale(service, base + amount)
