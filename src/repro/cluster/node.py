"""Worker-node runtime: queues, running requests, and resource accounting.

A :class:`WorkerNode` executes service requests under the control of a
pluggable :class:`ResourceManager` — HRM (:mod:`repro.hrm`) for Tango, a
static partitioner for K8s-native, or the CERES manager for the §7.3
baseline.  The node advances in fixed ticks:

1. queued requests are offered to the manager in priority order (LC first,
   FIFO within a class; the manager may preempt BE work to admit LC);
2. running requests progress at a speed given by the pressure-test latency
   model (allocation vs reference, node contention);
3. finished requests release their allocation; evicted BE requests are
   returned to the caller for rescheduling.

All resource movement goes through the node so conservation can be asserted:
``allocated + free == capacity`` at every step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Protocol, Tuple

from repro.cluster.resources import ResourceVector, ZERO
from repro.sim.latency import LatencyModel
from repro.sim.request import RequestState, ServiceRequest
from repro.workloads.spec import ServiceKind

__all__ = ["WorkerNode", "RunningRequest", "ResourceManager", "AdmitDecision"]


@dataclass
class RunningRequest:
    """A request holding resources on a node."""

    request: ServiceRequest
    allocation: ResourceVector
    remaining_ms: float

    @property
    def is_lc(self) -> bool:
        return self.request.is_lc


@dataclass
class AdmitDecision:
    """Manager verdict for one queued request."""

    allocation: ResourceVector
    #: extra latency charged to the request before processing starts
    #: (e.g. a D-VPA resize, or a native-VPA delete-and-rebuild).
    overhead_ms: float = 0.0
    #: BE requests the manager evicted to make room (incompressible reclaim).
    evicted: List[RunningRequest] = field(default_factory=list)


class ResourceManager(Protocol):
    """Strategy deciding allocations on one node."""

    def admit(
        self, node: "WorkerNode", request: ServiceRequest, now_ms: float
    ) -> Optional[AdmitDecision]:
        """Try to start ``request`` now; None leaves it queued."""
        ...

    def on_complete(
        self, node: "WorkerNode", running: RunningRequest, now_ms: float
    ) -> None:
        """Called after a request finishes and its allocation is reclaimed."""
        ...

    def tick(self, node: "WorkerNode", now_ms: float) -> None:
        """Periodic housekeeping (e.g. grow BE allocations into idle room)."""
        ...


class WorkerNode:
    """One edge-cloud worker executing co-located LC and BE requests."""

    def __init__(
        self,
        name: str,
        cluster_id: int,
        capacity: ResourceVector,
        *,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.name = name
        self.cluster_id = cluster_id
        self.capacity = capacity
        self.latency_model = latency_model or LatencyModel()
        self.manager: Optional[ResourceManager] = None
        self._lc_queue: Deque[ServiceRequest] = deque()
        self._be_queue: Deque[ServiceRequest] = deque()
        self.running: Dict[int, RunningRequest] = {}
        self._allocated = ZERO
        #: set whenever queues, running set, or allocations change; the
        #: state storage clears it after re-snapshotting the node, so clean
        #: nodes reuse their cached snapshot across refreshes.
        self.snapshot_dirty = True
        # counters
        self.completed_count = 0
        self.evicted_count = 0
        self.busy_cpu_ms = 0.0

    # ------------------------------------------------------------------ #
    # resource accounting
    # ------------------------------------------------------------------ #
    @property
    def allocated(self) -> ResourceVector:
        return self._allocated

    def free(self) -> ResourceVector:
        # fused (capacity - allocated).clamp_min(0.0): one vector allocation
        # on a path hit several times per node per tick.
        cap, used = self.capacity, self._allocated
        return ResourceVector(
            max(cap.cpu - used.cpu, 0.0),
            max(cap.memory - used.memory, 0.0),
        )

    def utilization(self) -> float:
        """Mean of CPU and memory allocated fractions (the paper's metric)."""
        fractions = []
        for cap, used in (
            (self.capacity.cpu, self._allocated.cpu),
            (self.capacity.memory, self._allocated.memory),
        ):
            if cap > 0:
                fractions.append(min(1.0, used / cap))
        return sum(fractions) / len(fractions) if fractions else 0.0

    def cpu_utilization(self) -> float:
        if self.capacity.cpu <= 0:
            return 0.0
        return min(1.0, self._allocated.cpu / self.capacity.cpu)

    def utilization_by_kind(self) -> Dict[ServiceKind, float]:
        """Allocated fraction split into LC and BE shares (Fig. 9(b,c))."""
        shares = {ServiceKind.LC: 0.0, ServiceKind.BE: 0.0}
        for rr in self.running.values():
            frac = []
            if self.capacity.cpu > 0:
                frac.append(rr.allocation.cpu / self.capacity.cpu)
            if self.capacity.memory > 0:
                frac.append(rr.allocation.memory / self.capacity.memory)
            if frac:
                shares[rr.request.kind] += sum(frac) / len(frac)
        return shares

    def grant(self, amount: ResourceVector) -> None:
        """Reserve resources (manager helper); raises if over capacity."""
        new_total = self._allocated + amount
        if not new_total.fits_in(self.capacity):
            raise ValueError(
                f"{self.name}: allocation {new_total.as_tuple()} exceeds "
                f"capacity {self.capacity.as_tuple()}"
            )
        self._allocated = new_total
        self.snapshot_dirty = True

    def reclaim(self, amount: ResourceVector) -> None:
        self._allocated = (self._allocated - amount).clamp_min(0.0)
        self.snapshot_dirty = True

    def adjust_running_allocation(
        self, rr: RunningRequest, new_allocation: ResourceVector
    ) -> None:
        """Change a running request's allocation (compressible preemption)."""
        delta = new_allocation - rr.allocation
        if delta.is_zero():
            return
        new_total = self._allocated + delta
        if not new_total.fits_in(self.capacity):
            raise ValueError(f"{self.name}: adjustment exceeds capacity")
        self._allocated = new_total.clamp_min(0.0)
        rr.allocation = new_allocation
        self.snapshot_dirty = True

    # ------------------------------------------------------------------ #
    # queueing
    # ------------------------------------------------------------------ #
    def enqueue(self, request: ServiceRequest, now_ms: float) -> None:
        request.state = RequestState.QUEUED_NODE
        request.node_arrival_ms = now_ms
        request.target_node = self.name
        request.target_cluster = self.cluster_id
        (self._lc_queue if request.is_lc else self._be_queue).append(request)
        self.snapshot_dirty = True

    @property
    def is_active(self) -> bool:
        """True when the node holds any queued or running work."""
        return bool(self.running or self._lc_queue or self._be_queue)

    def queue_lengths(self) -> Tuple[int, int]:
        return len(self._lc_queue), len(self._be_queue)

    def queued_be_demand(self) -> Tuple[float, float]:
        """(cpu, mem) reference demand waiting in the BE queue (Q_{t,i})."""
        cpu = sum(r.spec.reference_resources.cpu for r in self._be_queue)
        mem = sum(r.spec.reference_resources.memory for r in self._be_queue)
        return float(cpu), float(mem)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(
        self, now_ms: float, dt_ms: float
    ) -> Tuple[List[ServiceRequest], List[ServiceRequest], List[ServiceRequest]]:
        """Advance one tick.

        Returns ``(completed, evicted, abandoned)``.  Evicted BE requests
        have lost progress and must be rescheduled by the caller; abandoned
        LC requests exceeded their patience bound while queued.
        """
        if self.manager is None:
            raise RuntimeError(f"{self.name}: no resource manager attached")

        evicted: List[ServiceRequest] = []
        abandoned = self._drop_impatient(now_ms) if self._lc_queue else []
        if self._lc_queue:
            self._admit_from_queue(self._lc_queue, now_ms, evicted)
        if self._be_queue:
            self._admit_from_queue(self._be_queue, now_ms, evicted)

        self.manager.tick(self, now_ms)

        completed: List[ServiceRequest] = []
        if not self.running:
            return completed, evicted, abandoned
        contention = self.cpu_utilization()
        for rid in list(self.running):
            rr = self.running[rid]
            req = rr.request
            if req.started_ms is not None and now_ms < req.started_ms:
                continue  # still paying allocation overhead
            speed = self.latency_model.speed(req.spec, rr.allocation, contention)
            progress = dt_ms * speed
            rr.remaining_ms -= progress
            self.busy_cpu_ms += dt_ms * rr.allocation.cpu
            if rr.remaining_ms <= 1e-9:
                del self.running[rid]
                self.reclaim(rr.allocation)
                req.completed_ms = now_ms + dt_ms
                req.state = RequestState.COMPLETED
                self.completed_count += 1
                self.manager.on_complete(self, rr, now_ms + dt_ms)
                completed.append(req)
        return completed, evicted, abandoned

    def _admit_from_queue(
        self,
        queue: Deque[ServiceRequest],
        now_ms: float,
        evicted_out: List[ServiceRequest],
    ) -> None:
        assert self.manager is not None
        stalled: List[ServiceRequest] = []
        while queue:
            request = queue.popleft()
            decision = self.manager.admit(self, request, now_ms)
            if decision is None:
                stalled.append(request)
                # head-of-line blocking within a class, as a FIFO queue
                break
            for victim in decision.evicted:
                self._evict(victim, now_ms)
                evicted_out.append(victim.request)
            self.grant(decision.allocation)
            request.state = RequestState.RUNNING
            request.started_ms = now_ms + decision.overhead_ms
            request.allocation_overhead_ms += decision.overhead_ms
            self.running[request.request_id] = RunningRequest(
                request=request,
                allocation=decision.allocation,
                remaining_ms=request.spec.base_service_ms,
            )
        for request in reversed(stalled):
            queue.appendleft(request)

    def _evict(self, rr: RunningRequest, now_ms: float) -> None:
        self.running.pop(rr.request.request_id, None)
        self.reclaim(rr.allocation)
        req = rr.request
        req.evictions += 1
        # back to the master queue: placement fields would otherwise point
        # at this node through the next dispatch round (the step stage
        # emits the eviction event with the node name explicitly).
        req.clear_assignment()
        req.state = RequestState.QUEUED_MASTER
        self.evicted_count += 1

    def _drop_impatient(self, now_ms: float) -> List[ServiceRequest]:
        # fast path: nothing expired (the common case every tick) — scan
        # without rebuilding the deque.
        for request in self._lc_queue:
            if now_ms > request.patience_deadline_ms():
                break
        else:
            return []
        dropped: List[ServiceRequest] = []
        kept: Deque[ServiceRequest] = deque()
        while self._lc_queue:
            request = self._lc_queue.popleft()
            if now_ms > request.patience_deadline_ms():
                request.mark_abandoned(now_ms)
                dropped.append(request)
            else:
                kept.append(request)
        self._lc_queue = kept
        self.snapshot_dirty = True
        return dropped

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """Live mutable state; capacity/latency-model/manager are wiring."""
        return {
            "lc_queue": self._lc_queue,
            "be_queue": self._be_queue,
            "running": self.running,
            "allocated": self._allocated,
            "snapshot_dirty": self.snapshot_dirty,
            "completed_count": self.completed_count,
            "evicted_count": self.evicted_count,
            "busy_cpu_ms": self.busy_cpu_ms,
        }

    def restore_state(self, state: Dict) -> None:
        self._lc_queue = state["lc_queue"]
        self._be_queue = state["be_queue"]
        self.running = state["running"]
        self._allocated = state["allocated"]
        self.snapshot_dirty = state["snapshot_dirty"]
        self.completed_count = state["completed_count"]
        self.evicted_count = state["evicted_count"]
        self.busy_cpu_ms = state["busy_cpu_ms"]

    # ------------------------------------------------------------------ #
    # views for schedulers (the X_i^k attributes of §5.2.1)
    # ------------------------------------------------------------------ #
    def running_be(self) -> List[RunningRequest]:
        return [rr for rr in self.running.values() if not rr.is_lc]
