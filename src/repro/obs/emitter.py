"""Lifecycle emitters — the null-object seam between sim layers and obs.

PR 2 taught every publisher (runner stages, DSS-LC, DCG-BE, HRM, the
failure injector, re-assurance) the same dance::

    if self.bus is None:
        sink(...)          # direct collector call, or nothing
    else:
        self.bus.publish(SomeEvent(...))

which scatters the observe on/off decision across five modules and builds
event dataclasses on hot paths only to decide afterwards whether anyone
listens.  An *emitter* collapses both branches into one always-valid
object with a typed method per event taking raw arguments:

* :class:`NullEmitter` — discard everything.  The default for standalone
  components (a scheduler or manager constructed outside a runner).
* :class:`DirectEmitter` — the observe-off runner path: the four request
  outcomes that feed :class:`~repro.metrics.collectors.PeriodCollector`
  are forwarded straight to it, everything else is discarded.  No event
  object is ever constructed, so the disabled path stays as cheap as the
  pre-emitter code.
* :class:`BusEmitter` — the observe-on path: construct the typed event
  and publish it on the bus; bridges replay the identical collector call
  sequence, keeping RunMetrics fingerprints bit-identical.

``emitter.enabled`` tells publishers whether anyone is listening, for the
rare cases that keep side state only to enrich events (e.g. re-assurance
level-transition tracking).
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import (
    BESqueezed,
    DispatchRound,
    DVPAResized,
    InvariantViolated,
    NodeCrashed,
    NodeRecovered,
    PartitionHealed,
    PartitionStarted,
    PreemptiveEviction,
    ReassuranceTransition,
    RequestAbandoned,
    RequestArrived,
    RequestCompleted,
    RequestDelivered,
    RequestDropped,
    RequestEvicted,
    RequestRequeued,
    RequestScheduled,
)

__all__ = [
    "NullEmitter",
    "DirectEmitter",
    "BusEmitter",
    "NULL_EMITTER",
]


class NullEmitter:
    """Discards every emission; safe default for standalone components."""

    #: True only when events reach an observer (the bus).
    enabled = False

    # -- request lifecycle --------------------------------------------- #
    def arrival(self, time_ms: float, request: Any) -> None:
        pass

    def scheduled(
        self,
        time_ms: float,
        request: Any,
        node: str,
        cluster_id: int,
        cost_ms: float,
        ship_delay_ms: float,
        scheduler: str,
    ) -> None:
        pass

    def delivered(self, time_ms: float, request: Any, node: str) -> None:
        pass

    def completed(self, time_ms: float, request: Any, node: str) -> None:
        pass

    def abandoned(self, time_ms: float, request: Any, where: str) -> None:
        pass

    def evicted(
        self, time_ms: float, request: Any, node: str, cause: str
    ) -> None:
        pass

    def requeued(self, time_ms: float, request: Any) -> None:
        pass

    def dropped(self, time_ms: float, request: Any) -> None:
        pass

    # -- scheduler ----------------------------------------------------- #
    def dispatch_round(
        self,
        time_ms: float,
        scheduler: str,
        origin_cluster: int,
        offered: int,
        assigned: int,
        flow_cost_ms: float,
        decision_ms: float = 0.0,
        case2: bool = False,
    ) -> None:
        pass

    # -- failures ------------------------------------------------------ #
    def node_crashed(self, time_ms: float, node: str, displaced: int) -> None:
        pass

    def node_recovered(self, time_ms: float, node: str) -> None:
        pass

    def partition_started(
        self, time_ms: float, cluster_id: int, duration_ms: float
    ) -> None:
        pass

    def partition_healed(self, time_ms: float, cluster_id: int) -> None:
        pass

    # -- HRM ----------------------------------------------------------- #
    def dvpa_resized(
        self,
        time_ms: float,
        node: str,
        service: str,
        latency_ms: float,
        direction: str,
    ) -> None:
        pass

    def be_squeezed(self, time_ms: float, node: str, freed_cpu: float) -> None:
        pass

    def preemptive_eviction(
        self, time_ms: float, node: str, service: str, victims: int
    ) -> None:
        pass

    def reassurance_transition(
        self, time_ms: float, node: str, service: str, previous: str, level: str
    ) -> None:
        pass

    # -- invariants ---------------------------------------------------- #
    def invariant_violation(
        self, time_ms: float, law: str, message: str, node: str, service: str
    ) -> None:
        pass


#: shared default — the class is stateless, one instance serves everyone.
NULL_EMITTER = NullEmitter()


class DirectEmitter(NullEmitter):
    """Observe-off runner path: request outcomes feed the collector directly.

    Matches the pre-emitter direct path exactly: only the four collector
    hooks fire, and evictions count only when caused by preemption (the
    collector bridge applies the same filter on the bus path).
    """

    enabled = False

    def __init__(self, collector) -> None:
        self.collector = collector

    def arrival(self, time_ms: float, request: Any) -> None:
        self.collector.on_arrival(request)

    def completed(self, time_ms: float, request: Any, node: str) -> None:
        self.collector.on_completion(request)

    def abandoned(self, time_ms: float, request: Any, where: str) -> None:
        self.collector.on_abandon(request)

    def evicted(
        self, time_ms: float, request: Any, node: str, cause: str
    ) -> None:
        if cause == "preemption":
            self.collector.on_eviction(request)


class BusEmitter(NullEmitter):
    """Observe-on path: build the typed event and publish it."""

    enabled = True

    def __init__(self, bus) -> None:
        self.bus = bus

    # -- request lifecycle --------------------------------------------- #
    def arrival(self, time_ms: float, request: Any) -> None:
        self.bus.publish(
            RequestArrived(
                time_ms=time_ms,
                request_id=request.request_id,
                service=request.spec.name,
                lc=request.is_lc,
                origin_cluster=request.origin_cluster,
                request=request,
            )
        )

    def scheduled(
        self,
        time_ms: float,
        request: Any,
        node: str,
        cluster_id: int,
        cost_ms: float,
        ship_delay_ms: float,
        scheduler: str,
    ) -> None:
        self.bus.publish(
            RequestScheduled(
                time_ms=time_ms,
                request_id=request.request_id,
                service=request.spec.name,
                origin_cluster=request.origin_cluster,
                node=node,
                cluster_id=cluster_id,
                cost_ms=cost_ms,
                ship_delay_ms=ship_delay_ms,
                scheduler=scheduler,
                request=request,
            )
        )

    def delivered(self, time_ms: float, request: Any, node: str) -> None:
        self.bus.publish(
            RequestDelivered(
                time_ms=time_ms,
                request_id=request.request_id,
                node=node,
                request=request,
            )
        )

    def completed(self, time_ms: float, request: Any, node: str) -> None:
        self.bus.publish(
            RequestCompleted(
                time_ms=time_ms,
                request_id=request.request_id,
                service=request.spec.name,
                lc=request.is_lc,
                node=node,
                latency_ms=request.total_latency_ms() or 0.0,
                qos_met=bool(request.qos_met()),
                request=request,
            )
        )

    def abandoned(self, time_ms: float, request: Any, where: str) -> None:
        self.bus.publish(
            RequestAbandoned(
                time_ms=time_ms,
                request_id=request.request_id,
                service=request.spec.name,
                where=where,
                request=request,
            )
        )

    def evicted(
        self, time_ms: float, request: Any, node: str, cause: str
    ) -> None:
        self.bus.publish(
            RequestEvicted(
                time_ms=time_ms,
                request_id=request.request_id,
                service=request.spec.name,
                node=node,
                cause=cause,
                request=request,
            )
        )

    def requeued(self, time_ms: float, request: Any) -> None:
        self.bus.publish(
            RequestRequeued(
                time_ms=time_ms,
                request_id=request.request_id,
                origin_cluster=request.origin_cluster,
                reschedules=request.reschedules,
                request=request,
            )
        )

    def dropped(self, time_ms: float, request: Any) -> None:
        self.bus.publish(
            RequestDropped(
                time_ms=time_ms,
                request_id=request.request_id,
                service=request.spec.name,
                reschedules=request.reschedules,
                request=request,
            )
        )

    # -- scheduler ----------------------------------------------------- #
    def dispatch_round(
        self,
        time_ms: float,
        scheduler: str,
        origin_cluster: int,
        offered: int,
        assigned: int,
        flow_cost_ms: float,
        decision_ms: float = 0.0,
        case2: bool = False,
    ) -> None:
        self.bus.publish(
            DispatchRound(
                time_ms=time_ms,
                scheduler=scheduler,
                origin_cluster=origin_cluster,
                offered=offered,
                assigned=assigned,
                flow_cost_ms=flow_cost_ms,
                decision_ms=decision_ms,
                case2=case2,
            )
        )

    # -- failures ------------------------------------------------------ #
    def node_crashed(self, time_ms: float, node: str, displaced: int) -> None:
        self.bus.publish(
            NodeCrashed(time_ms=time_ms, node=node, displaced=displaced)
        )

    def node_recovered(self, time_ms: float, node: str) -> None:
        self.bus.publish(NodeRecovered(time_ms=time_ms, node=node))

    def partition_started(
        self, time_ms: float, cluster_id: int, duration_ms: float
    ) -> None:
        self.bus.publish(
            PartitionStarted(
                time_ms=time_ms, cluster_id=cluster_id, duration_ms=duration_ms
            )
        )

    def partition_healed(self, time_ms: float, cluster_id: int) -> None:
        self.bus.publish(PartitionHealed(time_ms=time_ms, cluster_id=cluster_id))

    # -- HRM ----------------------------------------------------------- #
    def dvpa_resized(
        self,
        time_ms: float,
        node: str,
        service: str,
        latency_ms: float,
        direction: str,
    ) -> None:
        self.bus.publish(
            DVPAResized(
                time_ms=time_ms,
                node=node,
                service=service,
                latency_ms=latency_ms,
                direction=direction,
            )
        )

    def be_squeezed(self, time_ms: float, node: str, freed_cpu: float) -> None:
        self.bus.publish(
            BESqueezed(time_ms=time_ms, node=node, freed_cpu=freed_cpu)
        )

    def preemptive_eviction(
        self, time_ms: float, node: str, service: str, victims: int
    ) -> None:
        self.bus.publish(
            PreemptiveEviction(
                time_ms=time_ms, node=node, service=service, victims=victims
            )
        )

    def reassurance_transition(
        self, time_ms: float, node: str, service: str, previous: str, level: str
    ) -> None:
        self.bus.publish(
            ReassuranceTransition(
                time_ms=time_ms,
                node=node,
                service=service,
                previous=previous,
                level=level,
            )
        )

    # -- invariants ---------------------------------------------------- #
    def invariant_violation(
        self, time_ms: float, law: str, message: str, node: str, service: str
    ) -> None:
        self.bus.publish(
            InvariantViolated(
                time_ms=time_ms,
                law=law,
                message=message,
                node=node,
                service=service,
            )
        )
