"""Behaviour-level kubelet: pod lifecycle and cgroup setup on one node.

The kubelet watches the API server for pods bound to its node, "starts"
containers (with a realistic cold-start latency — the reason horizontal
scaling and delete-and-rebuild VPA are too slow for millisecond LC services,
§2.1), builds the pod's cgroup subtree, and tears everything down on delete.

Time is simulated: ``sync(now_ms)`` is called by the engine each tick and the
kubelet transitions pods whose start deadline has passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.resources import ResourceVector

from .api_server import ApiServer, EventType, WatchEvent
from .cgroups import CGroupTree
from .objects import Pod, PodPhase

__all__ = ["Kubelet", "CONTAINER_COLD_START_MS"]

#: Cold container start latency (image already pulled).  Matches the order of
#: magnitude behind the paper's "~100×" D-VPA advantage: a delete-and-rebuild
#: resize costs one of these plus teardown, ≈ 2.3 s vs D-VPA's 23 ms.
CONTAINER_COLD_START_MS = 2200.0

#: Pod teardown (SIGTERM grace handling compressed for simulation).
POD_TEARDOWN_MS = 100.0


@dataclass
class _PendingStart:
    pod: Pod
    ready_at_ms: float


class Kubelet:
    """Node agent driving pods through Pending → Running → terminal phases."""

    def __init__(
        self,
        node_name: str,
        api: ApiServer,
        *,
        capacity: ResourceVector,
    ) -> None:
        self.node_name = node_name
        self.api = api
        self.capacity = capacity
        self.cgroups = CGroupTree()
        self._pending: Dict[str, _PendingStart] = {}
        self._running: Dict[str, Pod] = {}
        self._cancel_watch = api.watch(self._on_event, kind="Pod")
        self.started_count = 0
        self.evicted_count = 0

    # ------------------------------------------------------------------ #
    # watch plumbing
    # ------------------------------------------------------------------ #
    def _on_event(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        if pod.spec.node_name != self.node_name:
            return
        if event.type == EventType.DELETED:
            self._teardown(pod)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def admit(self, pod: Pod, now_ms: float) -> bool:
        """Accept a bound pod if its requests fit remaining allocatable."""
        demand = pod.spec.total_requests()
        if not demand.fits_in(self.free_allocatable()):
            return False
        self._pending[pod.key()] = _PendingStart(
            pod=pod, ready_at_ms=now_ms + CONTAINER_COLD_START_MS
        )
        limits = pod.spec.total_limits()
        self.cgroups.create_pod_group(
            pod.qos_class.value,
            pod.uid,
            [c.name for c in pod.spec.containers],
            cpu_limit_cores=limits.cpu if limits.cpu > 0 else None,
            memory_limit_mib=limits.memory if limits.memory > 0 else None,
        )
        return True

    def sync(self, now_ms: float) -> List[Pod]:
        """Advance pending pods whose cold start completed; return them."""
        became_ready: List[Pod] = []
        for key in list(self._pending):
            entry = self._pending[key]
            if now_ms >= entry.ready_at_ms:
                del self._pending[key]
                pod = entry.pod
                pod.phase = PodPhase.RUNNING
                pod.started_at_ms = now_ms
                self._running[key] = pod
                self.started_count += 1
                became_ready.append(pod)
                if self.api.exists("Pod", pod.name, pod.namespace):
                    self.api.update("Pod", pod.name, pod, pod.namespace)
        return became_ready

    def evict(self, pod: Pod) -> None:
        """Forcibly remove a running pod (BE eviction under preemption)."""
        self._teardown(pod)
        pod.phase = PodPhase.FAILED
        self.evicted_count += 1
        if self.api.exists("Pod", pod.name, pod.namespace):
            self.api.update("Pod", pod.name, pod, pod.namespace)

    def _teardown(self, pod: Pod) -> None:
        self._pending.pop(pod.key(), None)
        self._running.pop(pod.key(), None)
        try:
            self.cgroups.remove_pod_group(pod.qos_class.value, pod.uid)
        except Exception:
            pass  # already gone (delete raced with eviction)

    # ------------------------------------------------------------------ #
    # resource accounting
    # ------------------------------------------------------------------ #
    def allocated(self) -> ResourceVector:
        total = ResourceVector()
        for entry in self._pending.values():
            total = total + entry.pod.spec.total_requests()
        for pod in self._running.values():
            total = total + pod.spec.total_requests()
        return total

    def free_allocatable(self) -> ResourceVector:
        return (self.capacity - self.allocated()).clamp_min(0.0)

    def pod_count(self) -> int:
        return len(self._pending) + len(self._running)

    def close(self) -> None:
        self._cancel_watch()
