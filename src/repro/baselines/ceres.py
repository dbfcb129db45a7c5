"""CERES baseline — container-based elastic resource management (ICPP'21).

§7.3: "CERES only provides a *local* resource management scheme, which
cannot effectively utilize distributed and heterogeneous edge resources."

Our behaviour-level CERES captures that profile:

* **elastic, per-node**: like HRM it sizes allocations from observed demand
  rather than static partitions — requests are admitted with their minimum
  allocation and running containers are periodically re-balanced toward a
  per-node utilisation set-point (the CERES controller's feedback loop);
* **mixed-workload aware but priority-soft**: LC gets a mild admission
  preference, yet there is no compressible/incompressible split and no
  eviction — under memory pressure LC requests simply wait;
* **no traffic dimension**: CERES is paired with K8s-native round-robin
  dispatch in the Fig. 13 comparison, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.node import AdmitDecision, RunningRequest, WorkerNode
from repro.cluster.resources import ResourceVector
from repro.sim.request import ServiceRequest

__all__ = ["CeresConfig", "CeresManager"]


@dataclass
class CeresConfig:
    #: utilisation set-point of the feedback controller.
    target_utilization: float = 0.85
    #: proportional gain of the per-tick reallocation step.
    gain: float = 0.25
    #: containers never shrink below this fraction of their minimum.
    floor_fraction: float = 0.8
    #: control loop period (ms).
    period_ms: float = 400.0
    #: memory fraction kept free of BE so LC admissions are not locked out.
    lc_memory_headroom: float = 0.30


class CeresManager:
    """Local elastic resource manager in the CERES style."""

    def __init__(self, config: Optional[CeresConfig] = None) -> None:
        self.config = config or CeresConfig()
        self._last_control_ms: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        return {"last_control_ms": self._last_control_ms}

    def restore_state(self, state: Dict) -> None:
        self._last_control_ms = state["last_control_ms"]

    # ------------------------------------------------------------------ #
    # ResourceManager interface
    # ------------------------------------------------------------------ #
    def admit(
        self, node: WorkerNode, request: ServiceRequest, now_ms: float
    ) -> Optional[AdmitDecision]:
        # CERES is mixed-workload aware *locally*: LC containers get their
        # full reference allocation and may squeeze CPU out of co-located
        # BE work; BE containers are packed elastically at their minimum.
        # What CERES lacks vs HRM is the compressible/incompressible split
        # (no eviction — LC blocked on memory simply waits) and any traffic
        # dimension (it is paired with round-robin dispatch).
        spec = request.spec
        if spec.is_lc:
            demand = spec.reference_resources.min_with(node.capacity)
            free = node.free()
            if demand.cpu > free.cpu:
                self._squeeze_be_cpu(node, demand.cpu - free.cpu)
                free = node.free()
            if not demand.fits_in(free):
                return None
            return AdmitDecision(allocation=demand, overhead_ms=0.0)
        # BE admission control: keep a memory headroom for LC (CERES cannot
        # evict, so BE packing must not lock memory away from LC arrivals)
        # and stay under the utilisation set-point.
        if node.utilization() >= self.config.target_utilization:
            return None
        demand = spec.min_resources.min_with(node.capacity)
        free_after = node.free() - demand
        if not free_after.is_nonnegative():
            return None
        headroom = node.capacity.memory * self.config.lc_memory_headroom
        if free_after.memory < headroom:
            return None
        return AdmitDecision(allocation=demand, overhead_ms=0.0)

    def _squeeze_be_cpu(self, node: WorkerNode, missing_cpu: float) -> float:
        freed = 0.0
        for rr in sorted(
            node.running.values(),
            key=lambda r: r.allocation.cpu,
            reverse=True,
        ):
            if rr.request.is_lc:
                continue
            if freed >= missing_cpu:
                break
            floor = rr.request.spec.min_resources.cpu * 0.5
            take = min(max(0.0, rr.allocation.cpu - floor), missing_cpu - freed)
            if take <= 1e-9:
                continue
            node.adjust_running_allocation(
                rr,
                ResourceVector(rr.allocation.cpu - take, rr.allocation.memory),
            )
            freed += take
        return freed

    def on_complete(
        self, node: WorkerNode, running: RunningRequest, now_ms: float
    ) -> None:
        """No per-completion bookkeeping; the controller is periodic."""

    def tick(self, node: WorkerNode, now_ms: float) -> None:
        """Feedback loop: push node utilisation toward the set-point.

        Below the set-point, grow the most-starved containers toward their
        reference; above it, shrink the most-generous ones toward the floor.
        No priority classes: LC and BE are treated alike, which is exactly
        what loses to HRM when LC load spikes.
        """
        last = self._last_control_ms.get(node.name, -1e18)
        if now_ms - last < self.config.period_ms:
            return
        self._last_control_ms[node.name] = now_ms

        cfg = self.config
        util = node.cpu_utilization()
        error = cfg.target_utilization - util
        if abs(error) < 0.02 or not node.running:
            return
        step_cpu = abs(error) * node.capacity.cpu * cfg.gain

        if error > 0:
            # below set-point: expand starved containers
            for rr in sorted(
                node.running.values(),
                key=lambda r: r.allocation.cpu
                / max(1e-9, r.request.spec.reference_resources.cpu),
            ):
                free_cpu = node.free().cpu
                if free_cpu <= 1e-6 or step_cpu <= 1e-6:
                    break
                ref = rr.request.spec.reference_resources
                gap = max(0.0, ref.cpu * 1.1 - rr.allocation.cpu)
                grow = min(gap, step_cpu, free_cpu)
                if grow <= 1e-6:
                    continue
                node.adjust_running_allocation(
                    rr,
                    ResourceVector(
                        cpu=rr.allocation.cpu + grow,
                        memory=rr.allocation.memory,
                    ),
                )
                step_cpu -= grow
        else:
            # above set-point: shrink the most generous containers
            for rr in sorted(
                node.running.values(),
                key=lambda r: r.allocation.cpu
                / max(1e-9, r.request.spec.reference_resources.cpu),
                reverse=True,
            ):
                if step_cpu <= 1e-6:
                    break
                floor = rr.request.spec.min_resources.cpu * cfg.floor_fraction
                reducible = max(0.0, rr.allocation.cpu - floor)
                cut = min(reducible, step_cpu)
                if cut <= 1e-6:
                    continue
                node.adjust_running_allocation(
                    rr,
                    ResourceVector(
                        cpu=rr.allocation.cpu - cut,
                        memory=rr.allocation.memory,
                    ),
                )
                step_cpu -= cut
