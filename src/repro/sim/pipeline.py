"""Composable tick pipeline: the §3 control loop as stage objects.

Each simulation tick used to be a monolithic method sequence inside
``SimulationRunner.run()``, hand-rolled twice (profiled and unprofiled).
It is now a list of small stage objects sharing one :class:`SimContext`:

    arrivals → failures → refresh → lc → be → deliver → step → reassure
    → metrics

* :class:`TickPipeline` runs the stages in order, once per tick;
* :class:`ProfiledPipeline` wraps a pipeline and times every stage with
  two ``perf_counter`` reads, accumulating per-stage totals across ticks
  and runs (``stage_ms``), so profiling is a wrapper instead of a
  duplicated loop;
* stages are individually testable and reorderable — a future baseline
  can insert, drop, or swap stages without touching the runner.

The ``failures`` stage is only present when a failure injector is
configured (matching the historical profiled loop, which timed the stage
only in that case), so profiled stage breakdowns keep the same keys.

All mutable per-run state lives on the :class:`SimContext`; the stages
themselves are stateless and shareable.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Sequence

from repro.sim.request import RequestState, ServiceRequest
from repro.workloads.spec import ServiceSpec

__all__ = [
    "SimContext",
    "Stage",
    "TickPipeline",
    "ProfiledPipeline",
    "build_stages",
    "STAGE_NAMES",
    "requeue_evicted",
]

logger = logging.getLogger(__name__)

#: canonical stage order (``failures`` present only with an injector,
#: ``invariants`` only with ``RunnerConfig.check_invariants``).
STAGE_NAMES = (
    "arrivals",
    "failures",
    "refresh",
    "lc",
    "be",
    "deliver",
    "step",
    "reassure",
    "metrics",
    "invariants",
)


@dataclass
class SimContext:
    """Everything the stages share for one run.

    Wiring (system, schedulers, emitter, …) is fixed at runner
    construction; the mutable scalars (cursor, counters, active set) are
    the run's live state and are what :meth:`SimulationRunner.checkpoint`
    snapshots at the runner level.
    """

    # wiring — fixed for the runner's lifetime
    system: Any
    config: Any
    catalog: Dict[str, ServiceSpec]
    clock: Any
    collector: Any
    storage: Any
    lc_scheduler: Any
    be_scheduler: Any
    emit: Any
    deliveries: Any
    central_inflight: Any
    trace: Sequence[Any]
    lc_label: str = ""
    be_label: str = ""
    be_distributed: bool = False
    reassurance: Any = None
    injector: Any = None
    hub: Any = None
    #: runtime invariant checker (None unless check_invariants is on).
    invariants: Any = None

    # live run state
    trace_cursor: int = 0
    central_be: List[ServiceRequest] = field(default_factory=list)
    worker_list: List[Any] = field(default_factory=list)
    active: set = field(default_factory=set)
    idle_skip_ok: bool = False
    dropped_be: int = 0
    crash_abandoned: int = 0
    warned_remap: bool = False

    # per-tick scratch
    now_ms: float = 0.0
    snapshot: Any = None


class Stage:
    """One step of the per-tick control loop; operates on the context."""

    name: ClassVar[str] = "stage"

    def run(self, ctx: SimContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# shared helpers (also used by the failure path)
# ---------------------------------------------------------------------- #
def requeue_evicted(ctx: SimContext, request: ServiceRequest, now_ms: float) -> None:
    """Return an evicted BE request to its origin master, or drop it.

    A request is dropped (exactly once, counted in ``dropped_be``) when
    requeueing is disabled or it exhausted ``max_be_reschedules``.
    """
    cfg = ctx.config
    if not cfg.requeue_evicted_be:
        ctx.dropped_be += 1
        ctx.emit.dropped(now_ms, request)
        return
    request.reschedules += 1
    if request.reschedules > cfg.max_be_reschedules:
        ctx.dropped_be += 1
        ctx.emit.dropped(now_ms, request)
        return
    ctx.system.cluster(request.origin_cluster).receive(request)
    ctx.emit.requeued(now_ms, request)


def ship(ctx: SimContext, assignment, from_cluster: int, now_ms: float) -> None:
    """Send one assignment over the LAN/WAN toward its target node."""
    request = assignment.request
    # propagation + payload serialisation over the (tc-shaped) link
    delay = ctx.system.transfer_ms(
        from_cluster, assignment.cluster_id, request.spec.payload_kb
    )
    request.network_delay_ms += delay
    request.dispatched_ms = now_ms
    request.state = RequestState.IN_FLIGHT
    ctx.emit.scheduled(
        now_ms,
        request,
        assignment.node_name,
        assignment.cluster_id,
        assignment.cost_ms,
        delay,
        ctx.lc_label if request.is_lc else ctx.be_label,
    )
    ctx.deliveries.schedule(
        now_ms + delay, (request, assignment.cluster_id, assignment.node_name)
    )


def dispatch_at_masters(ctx: SimContext, scheduler, *, lc: bool) -> None:
    """Master-local dispatch of every master's LC (or BE) queue.

    Each master drains its queue and dispatches it over its nearby
    clusters; the placements are shipped and the rest queue again at the
    master, in their order.
    """
    now_ms = ctx.now_ms
    for cluster in ctx.system.clusters:
        queue = cluster.lc_queue if lc else cluster.be_queue
        if not queue:
            continue
        requests = cluster.drain_lc() if lc else cluster.drain_be()
        eligible = ctx.system.nearby_clusters(cluster.cluster_id)
        assignments = scheduler.dispatch(
            cluster.cluster_id, requests, ctx.snapshot, eligible, now_ms
        )
        assigned = {a.request.request_id for a in assignments}
        for assignment in assignments:
            ship(ctx, assignment, cluster.cluster_id, now_ms)
        queue.extend(r for r in requests if r.request_id not in assigned)


# ---------------------------------------------------------------------- #
# stages
# ---------------------------------------------------------------------- #
class ArrivalsStage(Stage):
    """Inject trace arrivals due before the end of this tick."""

    name = "arrivals"

    def run(self, ctx: SimContext) -> None:
        until_ms = ctx.now_ms + ctx.config.tick_ms
        trace = ctx.trace
        n_clusters = ctx.system.n_clusters
        while (
            ctx.trace_cursor < len(trace)
            and trace[ctx.trace_cursor].time_ms < until_ms
        ):
            record = trace[ctx.trace_cursor]
            ctx.trace_cursor += 1
            spec = ctx.catalog.get(record.service)
            if spec is None:
                continue
            cluster_id = record.cluster_id % n_clusters
            if cluster_id != record.cluster_id:
                # bad trace row: count the remap instead of folding silently
                ctx.collector.metrics.trace_remapped += 1
                if not ctx.warned_remap:
                    ctx.warned_remap = True
                    logger.warning(
                        "trace record at t=%.1fms names cluster %d outside "
                        "the %d-cluster topology; remapping with modulo "
                        "(reported once; total in RunMetrics.trace_remapped)",
                        record.time_ms,
                        record.cluster_id,
                        n_clusters,
                    )
            request = ServiceRequest(
                spec=spec,
                origin_cluster=cluster_id,
                arrival_ms=record.time_ms,
            )
            ctx.system.cluster(cluster_id).receive(request)
            ctx.emit.arrival(record.time_ms, request)


class FailuresStage(Stage):
    """Advance the failure injector and re-route displaced requests."""

    name = "failures"

    def run(self, ctx: SimContext) -> None:
        now_ms = ctx.now_ms
        # crash/recover/partition/heal events are emitted by the injector
        # itself (it holds the emitter); the kube bridge renders them.
        displaced = ctx.injector.apply(now_ms)
        for request in displaced:
            if request.state is RequestState.ABANDONED:
                # LC running on the crashed node when it went down: the
                # injector marked it abandoned; fold it into the abandon
                # counters exactly like a queue-patience drop.
                ctx.crash_abandoned += 1
                ctx.emit.abandoned(now_ms, request, "crash")
            elif request.is_lc:
                # queued LC survives the crash: back to its origin master.
                # Placement fields point at the dead node and must not leak
                # into the next dispatch round (the patience deadline keys
                # off arrival_ms and is deliberately left alone).
                request.clear_assignment()
                ctx.system.cluster(request.origin_cluster).receive(request)
                ctx.emit.requeued(now_ms, request)
            else:
                ctx.emit.evicted(
                    now_ms, request, request.target_node or "", "crash"
                )
                request.clear_assignment()
                requeue_evicted(ctx, request, now_ms)
        # a crashed node restarts cold: its QoS windows describe a process
        # tree that no longer exists, so stale tails must not keep feeding
        # δ into re-assurance and DCG-BE's node state.
        detector = getattr(ctx.storage, "detector", None)
        if detector is not None:
            for name in ctx.injector.last_crashed:
                detector.purge_node(name)


class RefreshStage(Stage):
    """Refresh the state storage (Prometheus/QoS-detector pushes)."""

    name = "refresh"

    def run(self, ctx: SimContext) -> None:
        ctx.snapshot = ctx.storage.refresh(ctx.now_ms)


class LCDispatchStage(Stage):
    """Distributed LC dispatch: the scheduler runs on every master."""

    name = "lc"

    def run(self, ctx: SimContext) -> None:
        dispatch_at_masters(ctx, ctx.lc_scheduler, lc=True)


class BEDispatchStage(Stage):
    """BE forwarding to the central master + central dispatch (or the
    DSACO-style distributed path when the BE policy is distributed)."""

    name = "be"

    def run(self, ctx: SimContext) -> None:
        now_ms = ctx.now_ms
        central = ctx.system.central_cluster_id
        if ctx.be_distributed:
            # DSACO-style: each cluster dispatches its own BE queue locally.
            dispatch_at_masters(ctx, ctx.be_scheduler, lc=False)
            return

        # forward to central (paying WAN delay once)
        for cluster in ctx.system.clusters:
            if not cluster.be_queue:
                continue
            for request in cluster.drain_be():
                delay = ctx.system.one_way_delay_ms(cluster.cluster_id, central)
                request.network_delay_ms += delay
                request.state = RequestState.IN_FLIGHT
                ctx.central_inflight.schedule(now_ms + delay, request)
        ctx.central_be.extend(ctx.central_inflight.pop_due(now_ms))

        if not ctx.central_be:
            return
        requests = ctx.central_be
        ctx.central_be = []
        assignments = ctx.be_scheduler.dispatch_be(requests, ctx.snapshot, now_ms)
        assigned = {a.request.request_id for a in assignments}
        for assignment in assignments:
            ship(ctx, assignment, central, now_ms)
        for request in requests:
            if request.request_id not in assigned:
                ctx.central_be.append(request)


class DeliverStage(Stage):
    """Move due in-flight requests into their target node's queues."""

    name = "deliver"

    def run(self, ctx: SimContext) -> None:
        now_ms = ctx.now_ms
        for request, cluster_id, node_name in ctx.deliveries.pop_due(now_ms):
            node = ctx.system.cluster(cluster_id).worker(node_name)
            node.enqueue(request, now_ms)
            ctx.active.add(node)
            ctx.emit.delivered(now_ms, request, node_name)


class StepNodesStage(Stage):
    """Step nodes holding work, in the canonical (seed) node order.

    Membership in ``ctx.active`` is maintained incrementally — added on
    delivery, removed when a step leaves the node idle — so an idle fleet
    costs one set lookup per node instead of a full step.  The canonical
    iteration order is kept (rather than iterating the set) because step
    order is observable: it decides eviction-requeue and completion-
    callback order.
    """

    name = "step"

    def run(self, ctx: SimContext) -> None:
        now_ms = ctx.now_ms
        dt = ctx.config.tick_ms
        active = ctx.active
        skip_idle = ctx.idle_skip_ok
        injector = ctx.injector
        emit = ctx.emit
        for node in ctx.worker_list:
            if skip_idle and node not in active:
                continue
            if injector is not None and injector.node_is_down(node.name):
                continue
            completed, evicted, abandoned = node.step(now_ms, dt)
            if skip_idle and not node.is_active:
                active.discard(node)
            if not (completed or evicted or abandoned):
                continue
            for request in completed:
                emit.completed(now_ms, request, node.name)
                if not request.is_lc and hasattr(
                    ctx.be_scheduler, "note_completion"
                ):
                    ctx.be_scheduler.note_completion(
                        request, node.capacity.cpu, node.capacity.memory
                    )
            for request in evicted:
                emit.evicted(now_ms, request, node.name, "preemption")
                requeue_evicted(ctx, request, now_ms)
            for request in abandoned:
                emit.abandoned(now_ms, request, "node-queue")


class ReassureStage(Stage):
    """QoS re-assurance pass (Algorithm 1) when HRM is active."""

    name = "reassure"

    def run(self, ctx: SimContext) -> None:
        if ctx.reassurance is None:
            return
        # only nodes in the active set can hold running LC work, so the
        # active-services map is built from it (idle nodes contribute
        # nothing to Algorithm 1 either way).
        active: Dict[str, Dict[str, ServiceSpec]] = {}
        active_set = ctx.active if ctx.idle_skip_ok else None
        for node in ctx.worker_list:
            if active_set is not None and node not in active_set:
                continue
            if not node.running:
                continue
            services: Dict[str, ServiceSpec] = {}
            for rr in node.running.values():
                if rr.request.is_lc:
                    services[rr.request.spec.name] = rr.request.spec
            if services:
                active[node.name] = services
        if active:
            ctx.reassurance.run(ctx.now_ms, active)


class MetricsStage(Stage):
    """The 800 ms period sampler."""

    name = "metrics"

    def run(self, ctx: SimContext) -> None:
        period_end = ctx.now_ms + ctx.config.tick_ms
        if ctx.collector.maybe_sample(period_end) and ctx.hub is not None:
            ctx.hub.sample_period(
                period_end,
                ctx.system,
                ctx.collector,
                detector=ctx.storage.detector,
                specs=list(ctx.catalog.values()),
            )


# ---------------------------------------------------------------------- #
# pipelines
# ---------------------------------------------------------------------- #
def build_stages(
    *, include_failures: bool, include_invariants: bool = False
) -> List[Stage]:
    """The canonical stage list; ``failures`` only with an injector,
    ``invariants`` only when the runner enables checking."""
    stages: List[Stage] = [ArrivalsStage()]
    if include_failures:
        stages.append(FailuresStage())
    stages.extend(
        [
            RefreshStage(),
            LCDispatchStage(),
            BEDispatchStage(),
            DeliverStage(),
            StepNodesStage(),
            ReassureStage(),
            MetricsStage(),
        ]
    )
    if include_invariants:
        # imported here: invariants imports Stage/SimContext from this
        # module, so the edge must stay one-directional at import time.
        from repro.sim.invariants import InvariantStage

        stages.append(InvariantStage())
    return stages


class TickPipeline:
    """Runs its stages in order, once per call."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages: List[Stage] = list(stages)

    def run_tick(self, ctx: SimContext) -> None:
        for stage in self.stages:
            stage.run(ctx)

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]


class ProfiledPipeline:
    """Same stages, each timed; per-stage totals accumulate across calls.

    Two ``perf_counter`` reads and one dict update per stage per tick keep
    the overhead near 0.1 % of a run, so profiled numbers stay
    representative (``cProfile``'s tracing inflates the Python-heavy
    stages 1.5-2x).
    """

    def __init__(self, pipeline: TickPipeline) -> None:
        self.pipeline = pipeline
        self.totals_s: Dict[str, float] = {}

    def run_tick(self, ctx: SimContext) -> None:
        totals = self.totals_s
        for stage in self.pipeline.stages:
            t0 = time.perf_counter()
            stage.run(ctx)
            dt = time.perf_counter() - t0
            totals[stage.name] = totals.get(stage.name, 0.0) + dt

    def stage_ms(self) -> Dict[str, float]:
        """Total milliseconds per stage."""
        return {k: v * 1000.0 for k, v in self.totals_s.items()}
