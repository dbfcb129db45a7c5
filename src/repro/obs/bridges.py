"""The bus subscriber that folds the typed event stream into the metric
registry: :class:`MetricsSubscriber` turns events into counters and
histograms.
"""

from __future__ import annotations

from repro.obs.bus import EventBus
from repro.obs.events import (
    BESqueezed,
    DispatchRound,
    DVPAResized,
    NodeCrashed,
    NodeRecovered,
    PartitionHealed,
    PartitionStarted,
    PreemptiveEviction,
    ReassuranceTransition,
    RequestAbandoned,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    RequestEvicted,
)
from repro.obs.metrics import MetricRegistry

__all__ = ["MetricsSubscriber"]


class MetricsSubscriber:
    """Folds bus events into registry counters/histograms.

    Per-tick gauges (utilization, queue depths, slack) are pushed by the
    hub's :meth:`~repro.obs.hub.ObservabilityHub.sample_period` instead —
    they are point-in-time reads of system state, not event folds.
    """

    def __init__(self, registry: MetricRegistry, bus: EventBus) -> None:
        r = registry
        self.arrived = r.counter(
            "requests_arrived_total", "requests injected, by kind"
        )
        self.completed = r.counter(
            "requests_completed_total", "requests completed, by kind"
        )
        self.satisfied = r.counter(
            "requests_satisfied_total", "completed LC requests meeting QoS"
        )
        self.abandoned = r.counter(
            "requests_abandoned_total", "LC requests abandoned, by where"
        )
        self.evicted = r.counter(
            "requests_evicted_total", "BE requests preempted off nodes"
        )
        self.dropped = r.counter(
            "requests_dropped_total", "BE requests discarded past reschedule cap"
        )
        self.latency = r.histogram(
            "lc_latency_ms", "end-to-end LC latency (completed requests)"
        )
        self.dispatch_rounds = r.counter(
            "dispatch_rounds_total", "scheduler invocations, by scheduler"
        )
        self.dispatch_assigned = r.counter(
            "dispatch_assigned_total", "requests placed, by scheduler"
        )
        self.flow_cost = r.counter(
            "dispatch_flow_cost_ms_total", "summed MCMF objective (delay ms)"
        )
        self.crashes = r.counter("node_crashes_total", "worker crash events")
        self.recoveries = r.counter(
            "node_recoveries_total", "worker recovery events"
        )
        self.partitions = r.counter(
            "wan_partitions_total", "WAN partition events"
        )
        self.heals = r.counter("wan_heals_total", "WAN partition heals")
        self.dvpa = r.counter(
            "dvpa_resizes_total", "D-VPA in-place resizes, by direction"
        )
        self.squeezes = r.counter(
            "be_squeezes_total", "compressible-CPU squeezes of running BE"
        )
        self.preemptive_evictions = r.counter(
            "preemptive_evictions_total", "incompressible-reclaim evictions"
        )
        self.reassurance = r.counter(
            "reassurance_transitions_total",
            "Algorithm 1 level transitions, by target level",
        )
        bus.subscribe_many(
            {
                RequestArrived: self._on_arrived,
                RequestCompleted: self._on_completed,
                RequestAbandoned: self._on_abandoned,
                RequestEvicted: self._on_evicted,
                RequestDropped: self._on_dropped,
                DispatchRound: self._on_dispatch,
                NodeCrashed: self._on_crashed,
                NodeRecovered: self._on_recovered,
                PartitionStarted: self._on_partition,
                PartitionHealed: self._on_heal,
                DVPAResized: self._on_dvpa,
                BESqueezed: self._on_squeeze,
                PreemptiveEviction: self._on_preemptive,
                ReassuranceTransition: self._on_reassurance,
            }
        )

    def _on_arrived(self, ev: RequestArrived) -> None:
        self.arrived.inc(kind="lc" if ev.lc else "be")

    def _on_completed(self, ev: RequestCompleted) -> None:
        self.completed.inc(kind="lc" if ev.lc else "be")
        if ev.lc:
            self.latency.observe(ev.latency_ms, service=ev.service)
            if ev.qos_met:
                self.satisfied.inc(service=ev.service)

    def _on_abandoned(self, ev: RequestAbandoned) -> None:
        self.abandoned.inc(where=ev.where)

    def _on_evicted(self, ev: RequestEvicted) -> None:
        self.evicted.inc(cause=ev.cause)

    def _on_dropped(self, ev: RequestDropped) -> None:
        self.dropped.inc()

    def _on_dispatch(self, ev: DispatchRound) -> None:
        self.dispatch_rounds.inc(scheduler=ev.scheduler)
        if ev.assigned:
            self.dispatch_assigned.inc(ev.assigned, scheduler=ev.scheduler)
        if ev.flow_cost_ms:
            self.flow_cost.inc(ev.flow_cost_ms, scheduler=ev.scheduler)

    def _on_crashed(self, ev: NodeCrashed) -> None:
        self.crashes.inc()

    def _on_recovered(self, ev: NodeRecovered) -> None:
        self.recoveries.inc()

    def _on_partition(self, ev: PartitionStarted) -> None:
        self.partitions.inc()

    def _on_heal(self, ev: PartitionHealed) -> None:
        self.heals.inc()

    def _on_dvpa(self, ev: DVPAResized) -> None:
        self.dvpa.inc(direction=ev.direction)

    def _on_squeeze(self, ev: BESqueezed) -> None:
        self.squeezes.inc()

    def _on_preemptive(self, ev: PreemptiveEviction) -> None:
        self.preemptive_evictions.inc(ev.victims)

    def _on_reassurance(self, ev: ReassuranceTransition) -> None:
        self.reassurance.inc(to=ev.level)
