"""Runtime invariant checker: the paper's conservation laws, enforced.

Tango's correctness rests on laws the paper states but a simulator can
silently drift away from — especially after three PRs of vectorisation,
arena pooling, and pipeline refactoring.  This module makes them executable.
Every tick (opt-in via ``RunnerConfig.check_invariants``) the
:class:`InvariantStage` runs five laws over the live system:

``request-conservation``
    Every arrived request is in exactly one place: a master queue, the
    in-flight delivery queues, the central BE buffer, a node queue, the
    running set, or it is completed/abandoned/dropped (Fig. 11(b)
    accounting), and no more LC requests met QoS than completed.  Also
    checks per-location state tags and that requests in master queues
    carry no stale placement fields.
``node-resources``
    Per worker: no negative allocations, allocations within capacity, and
    the per-request allocations sum to the node's bookkept total in cpu
    and memory.
``dvpa-limits``
    Per (node, service): the resources the service's containers actually
    hold never exceed the D-VPA pod limit (§4.2 cgroup flows).  Inequality,
    not equality — a crash legitimately leaves a pod limit high until the
    next resize.
``snapshot-coherence``
    A worker whose ``snapshot_dirty`` flag is clear must agree with its
    cached :class:`NodeSnapshot` — catching any mutation path that forgets
    to dirty the flag (``min_slack`` is excluded: the detector moves
    without touching the node).
``dispatch-capacity``
    Each DSS-LC round's placements, re-derived from the round's *raw
    inputs* (recorded in :class:`~repro.scheduling.dss_lc.DispatchAuditRecord`)
    with the independent scalar implementation in
    :mod:`repro.flow.reference`, respect the Eq. 2 immediate capacities and
    the Eq. 7–8 augmented capacities of each node.

Violations become typed obs-bus events (``invariant.violation``),
RunMetrics counters, and — in ``strict`` mode — an
:class:`InvariantViolationError` carrying tick/node/service context.
``soft`` mode logs each law's first violation and keeps running.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List

from repro.sim.pipeline import SimContext, Stage
from repro.sim.request import RequestState

__all__ = [
    "Violation",
    "InvariantViolationError",
    "RuntimeInvariantChecker",
    "InvariantStage",
    "LAWS",
]

logger = logging.getLogger(__name__)

LAWS = (
    "request-conservation",
    "node-resources",
    "dvpa-limits",
    "snapshot-coherence",
    "dispatch-capacity",
)

#: float tolerance for resource-sum comparisons (pure add/sub chains).
_RES_TOL = 1e-6
#: looser tolerance for D-VPA limits (long grow/release chains drift more).
_DVPA_TOL = 1e-3


@dataclass(frozen=True)
class Violation:
    """One failed law, with enough context to start a triage."""

    law: str
    time_ms: float
    message: str
    node: str = ""
    service: str = ""

    def __str__(self) -> str:
        where = f" node={self.node}" if self.node else ""
        svc = f" service={self.service}" if self.service else ""
        return f"[{self.law} @ t={self.time_ms:.1f}ms{where}{svc}] {self.message}"


class InvariantViolationError(AssertionError):
    """Strict-mode failure; ``violations`` holds every law broken this tick."""

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = violations
        head = "; ".join(str(v) for v in violations[:3])
        more = f" (+{len(violations) - 3} more)" if len(violations) > 3 else ""
        super().__init__(f"{len(violations)} invariant violation(s): {head}{more}")


class RuntimeInvariantChecker:
    """Evaluates the five laws against a live :class:`SimContext`."""

    def __init__(self, mode: str = "strict") -> None:
        if mode not in ("strict", "soft"):
            raise ValueError(f"invariant mode must be strict|soft, got {mode!r}")
        self.mode = mode
        #: every violation ever seen (soft mode keeps accumulating).
        self.violations: List[Violation] = []
        self._warned_laws: set = set()

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #
    def check_tick(self, ctx: SimContext) -> List[Violation]:
        found: List[Violation] = []
        self._check_conservation(ctx, found)
        self._check_node_resources(ctx, found)
        self._check_dvpa_limits(ctx, found)
        self._check_snapshot_coherence(ctx, found)
        self._check_dispatch_capacity(ctx, found)
        if not found:
            return found
        metrics = ctx.collector.metrics
        for v in found:
            self.violations.append(v)
            metrics.invariant_violations += 1
            by_law = metrics.invariant_violations_by_law
            by_law[v.law] = by_law.get(v.law, 0) + 1
            ctx.emit.invariant_violation(
                v.time_ms, v.law, v.message, v.node, v.service
            )
        if self.mode == "strict":
            raise InvariantViolationError(found)
        for v in found:
            if v.law not in self._warned_laws:
                self._warned_laws.add(v.law)
                logger.warning(
                    "invariant violated (soft mode, first of this law): %s", v
                )
        return found

    # ------------------------------------------------------------------ #
    # law 1: request conservation
    # ------------------------------------------------------------------ #
    def _check_conservation(
        self, ctx: SimContext, out: List[Violation]
    ) -> None:
        now = ctx.now_ms

        def bad(message: str, node: str = "", service: str = "") -> None:
            out.append(
                Violation("request-conservation", now, message, node, service)
            )

        seen: Dict[int, str] = {}
        live_lc = 0
        live_be = 0

        def tally(request, location: str) -> None:
            nonlocal live_lc, live_be
            prior = seen.get(request.request_id)
            if prior is not None:
                bad(
                    f"request {request.request_id} ({request.spec.name}) in "
                    f"two places: {prior} and {location}",
                    service=request.spec.name,
                )
                return
            seen[request.request_id] = location
            if request.is_lc:
                live_lc += 1
            else:
                live_be += 1

        # master queues
        for cluster in ctx.system.clusters:
            for queue_name, queue in (
                ("lc_queue", cluster.lc_queue),
                ("be_queue", cluster.be_queue),
            ):
                for request in queue:
                    location = f"cluster-{cluster.cluster_id}.{queue_name}"
                    tally(request, location)
                    if request.state is not RequestState.QUEUED_MASTER:
                        bad(
                            f"request {request.request_id} in {location} has "
                            f"state {request.state.value}, expected "
                            f"{RequestState.QUEUED_MASTER.value}",
                            service=request.spec.name,
                        )
                    if (
                        request.target_node is not None
                        or request.started_ms is not None
                    ):
                        bad(
                            f"request {request.request_id} in {location} "
                            f"carries stale placement fields (target_node="
                            f"{request.target_node!r}, started_ms="
                            f"{request.started_ms!r}) — displaced requests "
                            "must clear_assignment() before requeueing",
                            service=request.spec.name,
                        )

        # in-flight toward workers
        for payload in ctx.deliveries.items():
            request = payload[0]
            tally(request, "deliveries")
            if request.state is not RequestState.IN_FLIGHT:
                bad(
                    f"request {request.request_id} in the delivery queue has "
                    f"state {request.state.value}, expected "
                    f"{RequestState.IN_FLIGHT.value}",
                    service=request.spec.name,
                )

        # in-flight toward / buffered at the central BE master
        for request in ctx.central_inflight.items():
            tally(request, "central-inflight")
        for request in ctx.central_be:
            tally(request, "central-be")

        # node queues and running sets
        for worker in ctx.worker_list:
            for queue_name, queue in (
                ("lc", worker._lc_queue),
                ("be", worker._be_queue),
            ):
                for request in queue:
                    tally(request, f"{worker.name}.{queue_name}-queue")
                    if request.state is not RequestState.QUEUED_NODE:
                        bad(
                            f"request {request.request_id} queued on "
                            f"{worker.name} has state {request.state.value}, "
                            f"expected {RequestState.QUEUED_NODE.value}",
                            node=worker.name,
                            service=request.spec.name,
                        )
            for rr in worker.running.values():
                request = rr.request
                tally(request, f"{worker.name}.running")
                if request.state is not RequestState.RUNNING:
                    bad(
                        f"request {request.request_id} running on "
                        f"{worker.name} has state {request.state.value}",
                        node=worker.name,
                        service=request.spec.name,
                    )

        m = ctx.collector.metrics
        lc_accounted = m.lc_completed + m.lc_abandoned + live_lc
        if m.lc_arrived != lc_accounted:
            bad(
                f"LC conservation broken: arrived={m.lc_arrived} != "
                f"completed={m.lc_completed} + abandoned={m.lc_abandoned} "
                f"(crash share {ctx.crash_abandoned}) + live={live_lc} "
                f"= {lc_accounted}"
            )
        if m.lc_satisfied > m.lc_completed:
            bad(
                f"LC satisfied={m.lc_satisfied} exceeds "
                f"completed={m.lc_completed}"
            )
        be_accounted = m.be_completed + ctx.dropped_be + live_be
        if m.be_arrived != be_accounted:
            bad(
                f"BE conservation broken: arrived={m.be_arrived} != "
                f"completed={m.be_completed} + dropped={ctx.dropped_be} "
                f"+ live={live_be} = {be_accounted}"
            )

    # ------------------------------------------------------------------ #
    # law 2: node resource accounting
    # ------------------------------------------------------------------ #
    def _check_node_resources(
        self, ctx: SimContext, out: List[Violation]
    ) -> None:
        now = ctx.now_ms
        for worker in ctx.worker_list:
            cpu = mem = 0.0
            for rr in worker.running.values():
                a = rr.allocation
                cpu += a.cpu
                mem += a.memory
            book = worker.allocated
            capacity = worker.capacity
            for dim, booked, cap, total in (
                ("cpu", book.cpu, capacity.cpu, cpu),
                ("memory", book.memory, capacity.memory, mem),
            ):
                if booked < -_RES_TOL:
                    out.append(
                        Violation(
                            "node-resources",
                            now,
                            f"negative {dim} allocation {booked:.9f}",
                            node=worker.name,
                        )
                    )
                if booked > cap + _RES_TOL:
                    out.append(
                        Violation(
                            "node-resources",
                            now,
                            f"{dim} allocation {booked:.6f} exceeds capacity "
                            f"{cap:.6f}",
                            node=worker.name,
                        )
                    )
                if abs(total - booked) > _RES_TOL * max(1.0, abs(booked)):
                    out.append(
                        Violation(
                            "node-resources",
                            now,
                            f"per-request {dim} allocations sum to "
                            f"{total:.9f} but the node books {booked:.9f}",
                            node=worker.name,
                        )
                    )

    # ------------------------------------------------------------------ #
    # law 3: D-VPA pod limits
    # ------------------------------------------------------------------ #
    def _check_dvpa_limits(
        self, ctx: SimContext, out: List[Violation]
    ) -> None:
        now = ctx.now_ms
        for worker in ctx.worker_list:
            manager = worker.manager
            pods = getattr(manager, "_dvpa", None)
            if pods is None:
                continue  # not an HRM-style manager
            dvpa = pods.get(worker.name)
            if dvpa is None:
                if worker.running:
                    out.append(
                        Violation(
                            "dvpa-limits",
                            now,
                            f"{len(worker.running)} request(s) running but "
                            "no D-VPA instance exists for the node",
                            node=worker.name,
                        )
                    )
                continue
            usage: Dict[str, List[float]] = {}
            for rr in worker.running.values():
                cpu_mem = usage.setdefault(rr.request.spec.name, [0.0, 0.0])
                cpu_mem[0] += rr.allocation.cpu
                cpu_mem[1] += rr.allocation.memory
            for service, (cpu_used, mem_used) in usage.items():
                limit = dvpa.current_limit(service)
                if limit is None:
                    out.append(
                        Violation(
                            "dvpa-limits",
                            now,
                            f"service holds cpu={cpu_used:.4f} "
                            f"mem={mem_used:.1f} but has no pod",
                            node=worker.name,
                            service=service,
                        )
                    )
                    continue
                if cpu_used > limit.cpu + _DVPA_TOL:
                    out.append(
                        Violation(
                            "dvpa-limits",
                            now,
                            f"container cpu usage {cpu_used:.6f} exceeds pod "
                            f"limit {limit.cpu:.6f}",
                            node=worker.name,
                            service=service,
                        )
                    )
                if mem_used > limit.memory + _DVPA_TOL:
                    out.append(
                        Violation(
                            "dvpa-limits",
                            now,
                            f"container memory usage {mem_used:.3f} exceeds "
                            f"pod limit {limit.memory:.3f}",
                            node=worker.name,
                            service=service,
                        )
                    )

    # ------------------------------------------------------------------ #
    # law 4: snapshot/ground-truth coherence
    # ------------------------------------------------------------------ #
    def _check_snapshot_coherence(
        self, ctx: SimContext, out: List[Violation]
    ) -> None:
        now = ctx.now_ms
        storage = ctx.storage
        getter = getattr(storage, "cached_node_snapshot", None)
        if getter is None:
            return
        for worker in ctx.worker_list:
            if getattr(worker, "snapshot_dirty", True):
                continue  # cache is allowed to be stale until re-marked
            snap = getter(worker.name)
            if snap is None:
                continue
            lc_q, be_q = worker.queue_lengths()
            free = worker.free()
            q_cpu, q_mem = worker.queued_be_demand()
            checks = (
                ("lc_queue", snap.lc_queue, lc_q, 0),
                ("be_queue", snap.be_queue, be_q, 0),
                ("running", snap.running, len(worker.running), 0),
                ("cpu_available", snap.cpu_available, free.cpu, _RES_TOL),
                ("mem_available", snap.mem_available, free.memory, _RES_TOL),
                ("be_queue_cpu", snap.be_queue_cpu, q_cpu, _RES_TOL),
                ("be_queue_mem", snap.be_queue_mem, q_mem, _RES_TOL),
            )
            for field_name, cached, truth, tol in checks:
                if abs(cached - truth) > tol:
                    out.append(
                        Violation(
                            "snapshot-coherence",
                            now,
                            f"clean node's cached {field_name}={cached} "
                            f"disagrees with ground truth {truth} — some "
                            "mutation path forgot to set snapshot_dirty",
                            node=worker.name,
                        )
                    )

    # ------------------------------------------------------------------ #
    # law 5: DSS-LC dispatch capacity (differential, via the audit log)
    # ------------------------------------------------------------------ #
    def _check_dispatch_capacity(
        self, ctx: SimContext, out: List[Violation]
    ) -> None:
        log = getattr(ctx.lc_scheduler, "audit_log", None)
        if not log:
            return
        # lazy imports keep sim → scheduling/flow edges out of module load
        from repro.flow.reference import (
            eq2_capacities_scalar,
            node_units_scalar,
        )
        from repro.scheduling.dss_lc import augmented_capacities

        now = ctx.now_ms
        records = list(log)
        log.clear()
        for rec in records:
            eq2 = eq2_capacities_scalar(
                rec.cpu_available,
                rec.mem_available,
                rec.cpu_total,
                rec.mem_total,
                rec.lc_queue,
                rec.r_cpu,
                rec.r_mem,
                rec.target_fill,
            )
            for i, placed in enumerate(rec.immediate_counts):
                if placed > eq2[i]:
                    out.append(
                        Violation(
                            "dispatch-capacity",
                            now,
                            f"immediate placements {placed} exceed the Eq. 2 "
                            f"capacity {eq2[i]} (re-derived from raw inputs)",
                            node=rec.node_names[i],
                            service=rec.service,
                        )
                    )
            if rec.n_queued <= 0:
                continue
            adjusted = [
                max(
                    0,
                    node_units_scalar(
                        rec.cpu_total[i],
                        rec.mem_total[i],
                        rec.r_cpu[i],
                        rec.r_mem[i],
                    )
                    - rec.immediate_counts[i]
                    - int(rec.lc_queue[i]),
                )
                for i in range(len(rec.node_names))
            ]
            aug = augmented_capacities(adjusted, rec.n_queued)
            for i, placed in enumerate(rec.queued_counts):
                if placed > aug[i]:
                    out.append(
                        Violation(
                            "dispatch-capacity",
                            now,
                            f"queued-path placements {placed} exceed the "
                            f"Eq. 7-8 augmented capacity {aug[i]} "
                            f"(remaining units {adjusted[i]}, "
                            f"|R'_k|={rec.n_queued})",
                            node=rec.node_names[i],
                            service=rec.service,
                        )
                    )


class InvariantStage(Stage):
    """Pipeline stage running the checker at the end of every tick."""

    name = "invariants"

    def run(self, ctx: SimContext) -> None:
        if ctx.invariants is not None:
            ctx.invariants.check_tick(ctx)
