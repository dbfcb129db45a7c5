"""Typed event taxonomy published on the observability bus.

Every event is a small dataclass with a class-level ``kind`` string in
``domain.verb`` form (``request.scheduled``, ``failure.partition``, …).
Request-lifecycle events additionally carry a ``request`` reference for
in-process subscribers (the request tracer reads timestamps straight off
the live object); :meth:`Event.to_dict` excludes
it so every event serialises to plain JSON scalars.

The taxonomy (one class per row):

========================  ====================================================
kind                      published by / meaning
========================  ====================================================
request.arrived           runner — trace record became a ``ServiceRequest``
request.scheduled         runner — dispatch decision shipped (node, MCMF cost)
request.delivered         runner — request reached its worker's queue
request.completed         runner — processing finished (latency, QoS verdict)
request.abandoned         runner — LC outlived patience / lost to a crash
request.evicted           runner — BE preempted off a node
request.requeued          runner — displaced request re-entered its master
request.dropped           runner — BE discarded past ``max_be_reschedules``
scheduler.dispatch        DSS-LC / DCG-BE — one dispatch round (flow cost)
failure.node_crashed      injector — worker went down
failure.node_recovered    injector — worker came back
failure.partition         injector — WAN partition isolated a cluster
failure.heal              injector — partition healed
hrm.dvpa_resized          HRM — D-VPA in-place resize (grow or shrink)
hrm.be_squeezed           HRM — compressible CPU reclaimed from running BE
hrm.preemptive_eviction   HRM — incompressible reclaim evicted BE victims
hrm.reassurance           re-assurance — (node, service) level transition
runner.period             runner — one 800 ms metrics period sampled
runner.stage_profile      runner — end-of-run stage wall-clock totals
invariant.violation       invariant stage — a runtime conservation law failed
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Optional

__all__ = [
    "Event",
    "RequestArrived",
    "RequestScheduled",
    "RequestDelivered",
    "RequestCompleted",
    "RequestAbandoned",
    "RequestEvicted",
    "RequestRequeued",
    "RequestDropped",
    "DispatchRound",
    "NodeCrashed",
    "NodeRecovered",
    "PartitionStarted",
    "PartitionHealed",
    "DVPAResized",
    "BESqueezed",
    "PreemptiveEviction",
    "ReassuranceTransition",
    "PeriodSampled",
    "StageProfile",
    "InvariantViolated",
]


@dataclass
class Event:
    """Base event: simulation timestamp plus a class-level ``kind``."""

    kind: ClassVar[str] = "event"

    time_ms: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe view; live object references are excluded."""
        out: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            if f.name == "request":
                continue
            out[f.name] = getattr(self, f.name)
        return out


# ---------------------------------------------------------------------- #
# request lifecycle
# ---------------------------------------------------------------------- #
@dataclass
class RequestArrived(Event):
    kind: ClassVar[str] = "request.arrived"
    request_id: int = 0
    service: str = ""
    lc: bool = True
    origin_cluster: int = 0
    request: Any = field(default=None, repr=False, compare=False)


@dataclass
class RequestScheduled(Event):
    """A dispatch decision left the master: chosen node + routing cost."""

    kind: ClassVar[str] = "request.scheduled"
    request_id: int = 0
    service: str = ""
    origin_cluster: int = 0
    node: str = ""
    cluster_id: int = 0
    #: the min-cost-flow edge cost the decision paid (one-way delay, ms).
    cost_ms: float = 0.0
    #: LAN/WAN transfer latency the shipment will pay (delay + payload).
    ship_delay_ms: float = 0.0
    scheduler: str = ""
    request: Any = field(default=None, repr=False, compare=False)


@dataclass
class RequestDelivered(Event):
    kind: ClassVar[str] = "request.delivered"
    request_id: int = 0
    node: str = ""
    request: Any = field(default=None, repr=False, compare=False)


@dataclass
class RequestCompleted(Event):
    kind: ClassVar[str] = "request.completed"
    request_id: int = 0
    service: str = ""
    lc: bool = True
    node: str = ""
    latency_ms: float = 0.0
    qos_met: bool = True
    request: Any = field(default=None, repr=False, compare=False)


@dataclass
class RequestAbandoned(Event):
    kind: ClassVar[str] = "request.abandoned"
    request_id: int = 0
    service: str = ""
    #: "node-queue" (patience expiry) or "crash" (node went down mid-run).
    where: str = "node-queue"
    request: Any = field(default=None, repr=False, compare=False)


@dataclass
class RequestEvicted(Event):
    kind: ClassVar[str] = "request.evicted"
    request_id: int = 0
    service: str = ""
    node: str = ""
    cause: str = "preemption"
    request: Any = field(default=None, repr=False, compare=False)


@dataclass
class RequestRequeued(Event):
    """A displaced (evicted/crash-surviving) request re-entered its master."""

    kind: ClassVar[str] = "request.requeued"
    request_id: int = 0
    origin_cluster: int = 0
    reschedules: int = 0
    request: Any = field(default=None, repr=False, compare=False)


@dataclass
class RequestDropped(Event):
    kind: ClassVar[str] = "request.dropped"
    request_id: int = 0
    service: str = ""
    reschedules: int = 0
    request: Any = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------- #
# scheduler decisions
# ---------------------------------------------------------------------- #
@dataclass
class DispatchRound(Event):
    """One scheduler invocation: volume, placement count, and flow cost."""

    kind: ClassVar[str] = "scheduler.dispatch"
    scheduler: str = ""
    origin_cluster: int = 0
    offered: int = 0
    assigned: int = 0
    #: total min-cost-flow objective of the round's solves (ms of delay).
    flow_cost_ms: float = 0.0
    #: wall-clock decision latency of the round (ms).
    decision_ms: float = 0.0
    case2: bool = False


# ---------------------------------------------------------------------- #
# failures
# ---------------------------------------------------------------------- #
@dataclass
class NodeCrashed(Event):
    kind: ClassVar[str] = "failure.node_crashed"
    node: str = ""
    displaced: int = 0


@dataclass
class NodeRecovered(Event):
    kind: ClassVar[str] = "failure.node_recovered"
    node: str = ""


@dataclass
class PartitionStarted(Event):
    kind: ClassVar[str] = "failure.partition"
    cluster_id: int = -1
    duration_ms: float = 0.0


@dataclass
class PartitionHealed(Event):
    kind: ClassVar[str] = "failure.heal"
    cluster_id: int = -1


# ---------------------------------------------------------------------- #
# HRM (D-VPA, preemption, re-assurance)
# ---------------------------------------------------------------------- #
@dataclass
class DVPAResized(Event):
    kind: ClassVar[str] = "hrm.dvpa_resized"
    node: str = ""
    service: str = ""
    latency_ms: float = 0.0
    direction: str = "grow"  # grow | shrink


@dataclass
class BESqueezed(Event):
    kind: ClassVar[str] = "hrm.be_squeezed"
    node: str = ""
    freed_cpu: float = 0.0


@dataclass
class PreemptiveEviction(Event):
    kind: ClassVar[str] = "hrm.preemptive_eviction"
    node: str = ""
    service: str = ""
    victims: int = 0


@dataclass
class ReassuranceTransition(Event):
    """Algorithm 1 moved a (node, LC service) between quality levels."""

    kind: ClassVar[str] = "hrm.reassurance"
    node: str = ""
    service: str = ""
    previous: str = "stable"
    level: str = "stable"


# ---------------------------------------------------------------------- #
# runner housekeeping
# ---------------------------------------------------------------------- #
@dataclass
class PeriodSampled(Event):
    kind: ClassVar[str] = "runner.period"
    period_index: int = 0
    utilization: float = 0.0
    lc_utilization: float = 0.0
    be_utilization: float = 0.0


@dataclass
class StageProfile(Event):
    """End-of-run stage wall-clock totals from the tick-loop profiler."""

    kind: ClassVar[str] = "runner.stage_profile"
    stage_ms: Optional[Dict[str, float]] = None


@dataclass
class InvariantViolated(Event):
    """A runtime conservation/capacity law failed this tick.

    ``law`` names the check (``request-conservation``, ``node-resources``,
    ``dvpa-limits``, ``snapshot-coherence``, ``dispatch-capacity``);
    ``node``/``service`` are filled when the law localises to one.
    """

    kind: ClassVar[str] = "invariant.violation"
    law: str = ""
    message: str = ""
    node: str = ""
    service: str = ""
