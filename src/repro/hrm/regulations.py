"""Resource usage regulations — the HRM resource manager (§4.1).

The regulations give LC services strict priority over BE services throughout
scheduling and processing:

* LC requests may use idle resources *and* resources currently held by BE
  services, preferring the former;
* when idle resources cannot satisfy a pending LC request's minimum
  requirement, preemption is allowed — **compressible** CPU is squeezed
  out of running BE containers instantly, while **incompressible** memory
  is reclaimed by *evicting* running BE services, which restart later (the
  paper also names bandwidth and disk; see ``repro.cluster.resources``);
* BE services, in turn, "aim to maximize idle resources": the manager grows
  their allocations toward (and slightly past) their reference whenever the
  node has slack, and shrinks them again under LC pressure.

Every allocation change flows through the node's D-VPA instance, so each
admission carries the in-place scaling latency (~23 ms) instead of a
container restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.node import AdmitDecision, RunningRequest, WorkerNode
from repro.cluster.resources import ResourceVector
from repro.obs.emitter import NULL_EMITTER
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceSpec

from .dvpa import DVPA
from .qos import QoSDetector
from .reassurance import ReassuranceMechanism

__all__ = ["HRMConfig", "HRMManager"]


@dataclass
class HRMConfig:
    #: lowest CPU fraction (of the catalog minimum) a squeezed BE keeps.
    be_squeeze_floor: float = 0.25
    #: per-tick fraction of the gap to reference closed when expanding BE.
    be_expand_rate: float = 0.35
    #: BE allocations may grow to this multiple of their reference.
    be_expand_cap: float = 1.2
    #: charge D-VPA scaling latency on admissions (set False for ablations).
    charge_dvpa_latency: bool = True


class HRMManager:
    """Harmonious Resource Management for one or more worker nodes.

    One instance can serve a whole cluster: all per-node state is keyed by
    node name (D-VPA instances, adjusted minima via the shared re-assurance
    mechanism).
    """

    #: :meth:`tick` has no effect on a node with no queued or running work
    #: (BE expansion needs running BE), so the runner may skip idle nodes.
    idle_tick_noop = True

    def __init__(
        self,
        detector: QoSDetector,
        reassurance: ReassuranceMechanism,
        config: Optional[HRMConfig] = None,
        *,
        detailed_cgroups: bool = False,
    ) -> None:
        self.detector = detector
        self.reassurance = reassurance
        self.config = config or HRMConfig()
        self.detailed_cgroups = detailed_cgroups
        self._dvpa: Dict[str, DVPA] = {}
        self.preemption_squeezes = 0
        self.preemption_evictions = 0
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER

    def dvpa_for(self, node_name: str) -> DVPA:
        if node_name not in self._dvpa:
            self._dvpa[node_name] = DVPA(node_name, detailed=self.detailed_cgroups)
        return self._dvpa[node_name]

    # ------------------------------------------------------------------ #
    # ResourceManager interface
    # ------------------------------------------------------------------ #
    def admit(
        self, node: WorkerNode, request: ServiceRequest, now_ms: float
    ) -> Optional[AdmitDecision]:
        spec = request.spec
        demand = self._demand_for(node, spec)
        free = node.free()
        evicted: List[RunningRequest] = []

        if not demand.fits_in(free):
            if not request.is_lc:
                return None  # BE never preempts anyone
            # LC preemption path: squeeze compressible, evict incompressible.
            freed = self._squeeze_be_cpu(node, demand.cpu - free.cpu)
            free = node.free()
            if not demand.fits_in(free):
                evicted = self._select_evictions(node, demand, free)
                if evicted is None:
                    return None
                freed_by_eviction = ResourceVector()
                for rr in evicted:
                    freed_by_eviction = freed_by_eviction + rr.allocation
                if not demand.fits_in(free + freed_by_eviction):
                    return None
                self.preemption_evictions += len(evicted)
                # the victims' pods shrink with them — their limits must
                # not keep claiming resources the containers no longer hold.
                dvpa = self.dvpa_for(node.name)
                for rr in evicted:
                    dvpa.release(rr.request.spec.name, rr.allocation)
                self.emitter.preemptive_eviction(
                    now_ms, node.name, spec.name, len(evicted)
                )
            if freed > 0:
                self.preemption_squeezes += 1
                self.emitter.be_squeezed(now_ms, node.name, freed)

        # the pod limit always tracks the admitted allocation; the scaling
        # *latency* is only charged to the request when configured (the
        # ablation keeps accounting honest but makes resizes free).
        overhead = self.dvpa_for(node.name).grow(spec.name, demand)
        if self.config.charge_dvpa_latency:
            if overhead > 0:
                self.emitter.dvpa_resized(
                    now_ms, node.name, spec.name, overhead, "grow"
                )
        else:
            overhead = 0.0
        return AdmitDecision(
            allocation=demand, overhead_ms=overhead, evicted=evicted or []
        )

    def on_complete(
        self, node: WorkerNode, running: RunningRequest, now_ms: float
    ) -> None:
        spec = running.request.spec
        shrink_ms = self.dvpa_for(node.name).release(spec.name, running.allocation)
        if shrink_ms > 0:
            self.emitter.dvpa_resized(
                now_ms, node.name, spec.name, shrink_ms, "shrink"
            )
        if spec.is_lc:
            latency = running.request.total_latency_ms()
            if latency is not None:
                self.detector.observe(node.name, spec.name, now_ms, latency)

    def tick(self, node: WorkerNode, now_ms: float) -> None:
        """Grow BE allocations into idle resources (Fig. 4(a) idle phase)."""
        free = node.free()
        if free.cpu <= 1e-6 and free.memory <= 1e-6:
            return
        cfg = self.config
        candidates = [
            rr
            for rr in node.running_be()
            if rr.allocation.cpu
            < rr.request.spec.reference_resources.cpu * cfg.be_expand_cap
        ]
        if not candidates:
            return
        for rr in candidates:
            free = node.free()
            if free.cpu <= 1e-6:
                break
            ref = rr.request.spec.reference_resources
            target_cpu = min(
                ref.cpu * cfg.be_expand_cap,
                rr.allocation.cpu
                + cfg.be_expand_rate * max(0.0, ref.cpu - rr.allocation.cpu)
                + 0.05,
            )
            grow_cpu = min(max(0.0, target_cpu - rr.allocation.cpu), free.cpu)
            grow_mem = 0.0
            if rr.allocation.memory < ref.memory:
                grow_mem = min(ref.memory - rr.allocation.memory, free.memory)
            if grow_cpu <= 1e-6 and grow_mem <= 1e-6:
                continue
            new_alloc = ResourceVector(
                cpu=rr.allocation.cpu + grow_cpu,
                memory=rr.allocation.memory + grow_mem,
            )
            # grow the pod limit with the container: expansion without a
            # D-VPA resize left usage above the pod limit (§4.2 cgroup
            # flows), which the invariant checker flags.
            self.dvpa_for(node.name).grow(
                rr.request.spec.name,
                ResourceVector(cpu=grow_cpu, memory=grow_mem),
            )
            node.adjust_running_allocation(rr, new_alloc)

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """D-VPA trees (pods, cgroup hierarchies, scale stats) go whole;
        the shared detector/re-assurance are snapshotted by the runner."""
        return {
            "dvpa": self._dvpa,
            "preemption_squeezes": self.preemption_squeezes,
            "preemption_evictions": self.preemption_evictions,
        }

    def restore_state(self, state: Dict) -> None:
        self._dvpa = state["dvpa"]
        self.preemption_squeezes = state["preemption_squeezes"]
        self.preemption_evictions = state["preemption_evictions"]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _demand_for(self, node: WorkerNode, spec: ServiceSpec) -> ResourceVector:
        """Minimum request allocation, as adjusted by re-assurance (LC)."""
        if spec.is_lc:
            return self.reassurance.min_resources(node.name, spec)
        return spec.min_resources

    def _squeeze_be_cpu(self, node: WorkerNode, missing_cpu: float) -> float:
        """Reclaim compressible CPU from running BE; returns amount freed."""
        if missing_cpu <= 0:
            return 0.0
        freed = 0.0
        floor_frac = self.config.be_squeeze_floor
        for rr in sorted(
            node.running_be(), key=lambda r: r.allocation.cpu, reverse=True
        ):
            if freed >= missing_cpu:
                break
            floor = rr.request.spec.min_resources.cpu * floor_frac
            reducible = max(0.0, rr.allocation.cpu - floor)
            take = min(reducible, missing_cpu - freed)
            if take <= 1e-9:
                continue
            node.adjust_running_allocation(
                rr,
                ResourceVector(rr.allocation.cpu - take, rr.allocation.memory),
            )
            # shrink the pod limit in step (compressible squeeze is free —
            # the release latency is not charged to anyone).
            self.dvpa_for(node.name).release(
                rr.request.spec.name, ResourceVector(cpu=take)
            )
            freed += take
        return freed

    def _select_evictions(
        self,
        node: WorkerNode,
        demand: ResourceVector,
        free: ResourceVector,
    ) -> Optional[List[RunningRequest]]:
        """Pick BE victims until incompressible demand fits; None if hopeless.

        Victims with the *most remaining work fraction* go first, minimising
        wasted progress.
        """
        victims: List[RunningRequest] = []
        freed = ResourceVector()
        candidates = sorted(
            node.running_be(),
            key=lambda r: r.remaining_ms / max(1.0, r.request.spec.base_service_ms),
            reverse=True,
        )
        for rr in candidates:
            if demand.fits_in(free + freed):
                break
            victims.append(rr)
            freed = freed + rr.allocation
        if not demand.fits_in(free + freed):
            return None
        return victims
