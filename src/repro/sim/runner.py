"""Simulation runner: the dispatch–allocate–adjust loop of §3, end to end.

Per tick the runner's :class:`~repro.sim.pipeline.TickPipeline`:

1. injects trace arrivals into the origin cluster's master queues;
2. advances the failure injector (when one is configured);
3. refreshes the state storage (Prometheus/QoS-detector pushes);
4. runs the LC scheduler *on every master* (distributed dispatch) and ships
   assignments over the LAN/WAN with the topology's one-way delays;
5. forwards BE requests to the central cluster (unless the BE policy is
   distributed, as DSACO's is) and runs the central BE dispatcher;
6. delivers in-flight requests that arrived this tick into node queues;
7. steps every worker node (admission under the attached resource manager,
   processing, completion, eviction, abandonment);
8. runs the QoS re-assurance pass (Algorithm 1) when HRM is active;
9. samples period metrics (800 ms cadence).

The runner is deterministic for a fixed trace and seeds, and every layer
is :class:`~repro.sim.checkpoint.Checkpointable`: :meth:`checkpoint`
freezes the full simulation state at the current tick and
:meth:`from_checkpoint` (or :meth:`restore`) resumes it such that a
resumed run is bit-identical to a straight run in every RunMetrics field.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.topology import EdgeCloudSystem
from repro.core.state_storage import StateStorage
from repro.kube.events import EventRecorder
from repro.obs.emitter import BusEmitter, DirectEmitter
from repro.obs.hub import ObservabilityHub
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    RunnerCheckpoint,
    component_state,
    restore_component,
)
from repro.sim.failures import FailureConfig, FailureInjector
from repro.hrm.reassurance import ReassuranceMechanism
from repro.metrics.collectors import PERIOD_MS, PeriodCollector, RunMetrics
from repro.sim.engine import TICK_MS, Clock, DeliveryQueue
from repro.sim.pipeline import (
    ProfiledPipeline,
    SimContext,
    TickPipeline,
    build_stages,
)
from repro.sim.request import (
    ServiceRequest,
    request_id_state,
    restore_request_id_state,
)
from repro.workloads.spec import ServiceSpec
from repro.workloads.trace import TraceRecord

__all__ = ["SimulationRunner", "RunnerConfig"]


@dataclass
class RunnerConfig:
    duration_ms: float = 60_000.0
    tick_ms: float = TICK_MS
    period_ms: float = PERIOD_MS
    state_refresh_ms: float = 100.0
    #: evicted BE requests re-enter scheduling at their origin cluster.
    requeue_evicted_be: bool = True
    #: hard cap on BE requeue cycles before a request is dropped (safety).
    max_be_reschedules: int = 20
    #: optional failure injection (node crashes / WAN partitions).
    failures: Optional[FailureConfig] = None
    #: record a kubectl-get-events-style audit stream (small overhead).
    record_events: bool = False
    #: enable the unified observability subsystem (:mod:`repro.obs`):
    #: lifecycle events on a bus, request span traces, metric registry.
    observe: bool = False
    #: event-bus ring size (retrospective queries; publishes never block).
    obs_ring_capacity: int = 4096
    #: run the runtime conservation-law checker every tick
    #: (:mod:`repro.sim.invariants`): request conservation, node resource
    #: accounting, D-VPA limit sums, snapshot coherence, and DSS-LC
    #: dispatch-capacity audits against an independent scalar oracle.
    check_invariants: bool = False
    #: ``strict`` raises :class:`~repro.sim.invariants.InvariantViolationError`
    #: on the first violation; ``soft`` counts + emits and keeps running.
    invariant_mode: str = "strict"
    #: time each pipeline stage with a
    #: :class:`~repro.sim.pipeline.ProfiledPipeline` (exposed as
    #: ``runner.profiler``; ~0.1 % overhead).
    profile: bool = False


class SimulationRunner:
    """Wires workload, system, schedulers, managers, and metrics together."""

    def __init__(
        self,
        system: EdgeCloudSystem,
        trace: Sequence[TraceRecord],
        catalog: Sequence[ServiceSpec],
        lc_scheduler,
        be_scheduler,
        *,
        config: Optional[RunnerConfig] = None,
        state_storage: Optional[StateStorage] = None,
        reassurance: Optional[ReassuranceMechanism] = None,
    ) -> None:
        self.system = system
        self.config = config or RunnerConfig()
        self.catalog = {s.name: s for s in catalog}
        self.lc_scheduler = lc_scheduler
        self.be_scheduler = be_scheduler
        self.reassurance = reassurance
        self.storage = state_storage or StateStorage(
            system, refresh_period_ms=self.config.state_refresh_ms
        )
        self.collector = PeriodCollector(system, period_ms=self.config.period_ms)
        self.clock = Clock(self.config.tick_ms)
        self.injector: Optional[FailureInjector] = None
        if self.config.failures is not None:
            self.injector = FailureInjector(system, self.config.failures)
            self.storage.node_filter = self._node_visible
        # --- observability ------------------------------------------------
        # The hub exists when anything consumes events (tracing/metrics via
        # ``observe``, or the kube audit stream via ``record_events``).
        # The emitter feeds the collector directly in every mode; with a
        # hub it also publishes each event, so the bus is a pure tee.
        self.hub = None
        self.bus = None
        self.events: Optional[EventRecorder] = None
        if self.config.observe or self.config.record_events:
            self.hub = ObservabilityHub(
                ring_capacity=self.config.obs_ring_capacity,
                trace=self.config.observe,
                metrics=self.config.observe,
            )
            self.bus = self.hub.bus
            if self.config.record_events:
                self.events = EventRecorder()
                self.hub.attach_recorder(self.events)
        self.emitter = (
            BusEmitter(self.collector, self.bus)
            if self.bus is not None
            else DirectEmitter(self.collector)
        )
        self._wire_publishers()
        self.invariants = None
        if self.config.check_invariants:
            from repro.sim.invariants import RuntimeInvariantChecker

            self.invariants = RuntimeInvariantChecker(
                mode=self.config.invariant_mode
            )
        # The audit feed is (re)assigned unconditionally: schedulers are
        # reused across runners by the system builders, so a checker-off
        # run must not inherit (or keep growing) a previous run's log.
        if hasattr(lc_scheduler, "audit_log"):
            lc_scheduler.audit_log = (
                [] if self.config.check_invariants else None
            )
        # --- tick pipeline ------------------------------------------------
        self.ctx = SimContext(
            system=system,
            config=self.config,
            catalog=self.catalog,
            clock=self.clock,
            collector=self.collector,
            storage=self.storage,
            lc_scheduler=lc_scheduler,
            be_scheduler=be_scheduler,
            emit=self.emitter,
            deliveries=DeliveryQueue(),  # payload: (request, cluster, node)
            central_inflight=DeliveryQueue(),  # payload: request
            trace=sorted(trace, key=lambda r: r.time_ms),
            lc_label=type(lc_scheduler).__name__,
            be_label=type(be_scheduler).__name__,
            be_distributed=getattr(be_scheduler, "distributed", False),
            reassurance=reassurance,
            injector=self.injector,
            invariants=self.invariants,
            hub=self.hub,
            sample_gauges=self.hub is not None and self.config.observe,
        )
        self.pipeline = TickPipeline(
            build_stages(
                include_failures=self.injector is not None,
                include_invariants=self.invariants is not None,
            )
        )
        #: per-stage wall-clock totals, kept across repeated ``run`` calls.
        self.profiler: Optional[ProfiledPipeline] = (
            ProfiledPipeline(self.pipeline) if self.config.profile else None
        )

    def _wire_publishers(self) -> None:
        """Hand the emitter to every publisher exactly once.

        Schedulers, managers, and the re-assurance mechanism are owned by
        the system builder and reused across runs, so the reference is
        always (re)assigned — a disabled run must not inherit a previous
        run's bus.  Publishers are deduplicated by identity (a dual-role
        scheduler like DSACO appears as both LC and BE; one manager object
        usually serves every worker), making the wiring idempotent.
        """
        publishers: List[Any] = [self.lc_scheduler, self.be_scheduler]
        if self.reassurance is not None:
            publishers.append(self.reassurance)
        if self.injector is not None:
            publishers.append(self.injector)
        for node in self.system.all_workers():
            if node.manager is not None:
                publishers.append(node.manager)
        seen = set()
        for publisher in publishers:
            if id(publisher) in seen:
                continue
            seen.add(id(publisher))
            publisher.emitter = self.emitter

    # ------------------------------------------------------------------ #
    # delegates — the live run state lives on the SimContext
    # ------------------------------------------------------------------ #
    @property
    def _deliveries(self) -> DeliveryQueue:
        return self.ctx.deliveries

    @property
    def _central_inflight(self) -> DeliveryQueue:
        return self.ctx.central_inflight

    @property
    def _central_be(self) -> List[ServiceRequest]:
        return self.ctx.central_be

    @property
    def _trace(self) -> Sequence[TraceRecord]:
        return self.ctx.trace

    @property
    def _trace_cursor(self) -> int:
        return self.ctx.trace_cursor

    @property
    def _be_distributed(self) -> bool:
        return self.ctx.be_distributed

    @property
    def dropped_be(self) -> int:
        return self.ctx.dropped_be

    @property
    def crash_abandoned(self) -> int:
        """LC requests lost while running on a crashed node (abandoned)."""
        return self.ctx.crash_abandoned

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self, until_ms: Optional[float] = None) -> RunMetrics:
        """Run to ``until_ms`` (default: the configured duration).

        ``run`` may be called repeatedly — each call continues from the
        current clock, which is how ``checkpoint``-at-t works: run to t,
        freeze, keep running (or resume elsewhere).
        """
        cfg = self.config
        end_ms = cfg.duration_ms if until_ms is None else min(
            until_ms, cfg.duration_ms
        )
        n_ticks = int(end_ms / cfg.tick_ms) - self.clock.tick_count
        self._init_active_set()
        pipeline = self.profiler or self.pipeline
        ctx = self.ctx
        clock = self.clock
        for _ in range(max(0, n_ticks)):
            ctx.now_ms = clock.now_ms
            pipeline.run_tick(ctx)
            clock.advance()
        if self.hub is not None and self.profiler is not None:
            self.hub.record_stage_totals(clock.now_ms, self.profiler.stage_ms())
        return self.collector.metrics

    def _init_active_set(self) -> None:
        """Prepare active-set stepping for this run.

        ``worker_list`` fixes the canonical step order (cluster-ascending,
        worker order within a cluster — identical to the seed's nested
        loops).  A node is skipped only when it is verifiably inert: no
        queued or running work, *and* its manager declares ``tick`` a no-op
        on idle nodes (HRM and the static partitioner do; CERES keeps a
        control-loop timestamp per tick, so CERES runs step every node).
        Starting from the full set is always safe: idle nodes fall out of
        the set after their first no-op step.
        """
        ctx = self.ctx
        ctx.worker_list = list(self.system.all_workers())
        ctx.active = set(ctx.worker_list)
        ctx.idle_skip_ok = all(
            getattr(node.manager, "idle_tick_noop", False)
            for node in ctx.worker_list
        )

    # ------------------------------------------------------------------ #
    # failures
    # ------------------------------------------------------------------ #
    def _node_visible(self, name: str, cluster_id: int) -> bool:
        assert self.injector is not None
        return not (
            self.injector.node_is_down(name)
            or self.injector.cluster_is_partitioned(cluster_id)
        )

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    def _checkpoint_components(self) -> Dict[str, Any]:
        """Every stateful component, each exactly once.

        Shared objects (DSACO serving both roles, one manager across all
        workers, the detector referenced by storage/HRM/re-assurance) are
        snapshotted at one canonical slot; the single-deepcopy bundle keeps
        any remaining cross-references aliased.
        """
        components: Dict[str, Any] = {
            "collector": self.collector,
            "storage": self.storage,
        }
        if self.storage.detector is not None:
            components["detector"] = self.storage.detector
        components["lc_scheduler"] = self.lc_scheduler
        if self.be_scheduler is not self.lc_scheduler:
            components["be_scheduler"] = self.be_scheduler
        if self.reassurance is not None:
            components["reassurance"] = self.reassurance
        if self.injector is not None:
            components["injector"] = self.injector
        seen = set()
        index = 0
        for node in self.system.all_workers():
            manager = node.manager
            if manager is None or id(manager) in seen:
                continue
            seen.add(id(manager))
            components[f"manager_{index}"] = manager
            index += 1
        return components

    def checkpoint(self) -> RunnerCheckpoint:
        """Freeze the full simulation state at the current tick.

        Call between ticks (i.e. after :meth:`run` returned).  The bundle
        is deepcopied in one pass so aliasing between layers is preserved;
        the live run is never mutated.
        """
        ctx = self.ctx
        state: Dict[str, Any] = {
            "tick_ms": self.config.tick_ms,
            "trace_len": len(ctx.trace),
            "request_ids": request_id_state(),
            "clock": self.clock.snapshot_state(),
            "runner": {
                "trace_cursor": ctx.trace_cursor,
                "central_be": ctx.central_be,
                "dropped_be": ctx.dropped_be,
                "crash_abandoned": ctx.crash_abandoned,
                "warned_remap": ctx.warned_remap,
                "deliveries": ctx.deliveries.snapshot_state(),
                "central_inflight": ctx.central_inflight.snapshot_state(),
            },
            "components": {
                name: component_state(obj)
                for name, obj in self._checkpoint_components().items()
            },
            "clusters": [
                cluster.snapshot_state() for cluster in self.system.clusters
            ],
            "nodes": {
                worker.name: worker.snapshot_state()
                for worker in self.system.all_workers()
            },
        }
        return RunnerCheckpoint(
            state=copy.deepcopy(state),
            version=CHECKPOINT_VERSION,
            meta={"now_ms": self.clock.now_ms},
        )

    def restore(self, checkpoint: RunnerCheckpoint) -> None:
        """Install a checkpoint into this (freshly built) runner.

        The runner must have been constructed with the same topology,
        stack, and trace as the one that produced the checkpoint — the
        component layout is validated, semantic equivalence is the
        caller's contract.  The checkpoint itself is never consumed: the
        state is deepcopied on the way in, so one checkpoint can seed any
        number of forks.
        """
        if checkpoint.version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {checkpoint.version} "
                f"!= supported {CHECKPOINT_VERSION}"
            )
        state = copy.deepcopy(checkpoint.state)
        if state["tick_ms"] != self.config.tick_ms:
            raise ValueError(
                f"checkpoint tick_ms {state['tick_ms']} != "
                f"runner tick_ms {self.config.tick_ms}"
            )
        ctx = self.ctx
        if state["trace_len"] != len(ctx.trace):
            raise ValueError(
                f"checkpoint was taken against a {state['trace_len']}-record "
                f"trace; this runner has {len(ctx.trace)} records"
            )
        components = self._checkpoint_components()
        saved = state["components"]
        if set(saved) != set(components):
            missing = sorted(set(saved) ^ set(components))
            raise ValueError(
                "checkpoint does not match this system configuration "
                f"(component mismatch: {missing})"
            )
        restore_request_id_state(state["request_ids"])
        self.clock.restore_state(state["clock"])
        runner_state = state["runner"]
        ctx.trace_cursor = runner_state["trace_cursor"]
        ctx.central_be = runner_state["central_be"]
        ctx.dropped_be = runner_state["dropped_be"]
        ctx.crash_abandoned = runner_state["crash_abandoned"]
        ctx.warned_remap = runner_state["warned_remap"]
        ctx.deliveries.restore_state(runner_state["deliveries"])
        ctx.central_inflight.restore_state(runner_state["central_inflight"])
        for name, obj in components.items():
            restore_component(obj, saved[name])
        clusters = state["clusters"]
        if len(clusters) != len(self.system.clusters):
            raise ValueError("checkpoint cluster count mismatch")
        for cluster, cluster_state in zip(self.system.clusters, clusters):
            cluster.restore_state(cluster_state)
        nodes = state["nodes"]
        for worker in self.system.all_workers():
            if worker.name not in nodes:
                raise ValueError(f"checkpoint missing node {worker.name!r}")
            worker.restore_state(nodes[worker.name])
        self._init_active_set()

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: RunnerCheckpoint,
        system: EdgeCloudSystem,
        trace: Sequence[TraceRecord],
        catalog: Sequence[ServiceSpec],
        lc_scheduler,
        be_scheduler,
        *,
        config: Optional[RunnerConfig] = None,
        state_storage: Optional[StateStorage] = None,
        reassurance: Optional[ReassuranceMechanism] = None,
    ) -> "SimulationRunner":
        """Build a fresh runner over an identically-built system and
        install ``checkpoint`` into it."""
        runner = cls(
            system,
            trace,
            catalog,
            lc_scheduler,
            be_scheduler,
            config=config,
            state_storage=state_storage,
            reassurance=reassurance,
        )
        runner.restore(checkpoint)
        return runner
