"""ObservabilityHub: one object wiring bus + tracer + registry together.

The runner owns exactly one hub per run (when ``RunnerConfig.observe`` or
``record_events`` is set).  The hub builds the :class:`EventBus`, then
attaches whichever consumers the run asked for:

* the :class:`RequestTracer` and :class:`MetricsSubscriber` when tracing /
  metrics are on,
* a :class:`KubeEventBridge` for the kubectl-style audit stream when the
  run records events.

It also carries the push-side helpers that need system state rather than
events: :meth:`sample_period` refreshes the per-period gauges
(utilization, queue depths, slack δ per LC service) and publishes a
:class:`PeriodSampled` event, and :meth:`record_stage_totals` folds the
stage profiler's wall-clock totals into gauges at end of run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.obs.bridges import KubeEventBridge, MetricsSubscriber
from repro.obs.bus import EventBus
from repro.obs.events import PeriodSampled, StageProfile
from repro.obs.metrics import MetricRegistry
from repro.obs.tracing import RequestTracer
from repro.workloads.spec import ServiceKind

_LC = ServiceKind.LC
_BE = ServiceKind.BE

__all__ = ["ObservabilityHub"]


class ObservabilityHub:
    """Aggregates the three observability pillars behind one handle."""

    def __init__(
        self,
        *,
        ring_capacity: int = 4096,
        trace: bool = True,
        metrics: bool = True,
    ) -> None:
        self.bus = EventBus(capacity=ring_capacity)
        self.tracer: Optional[RequestTracer] = (
            RequestTracer(self.bus) if trace else None
        )
        self.registry: Optional[MetricRegistry] = None
        self._metrics_sub: Optional[MetricsSubscriber] = None
        if metrics:
            self.registry = MetricRegistry()
            self._metrics_sub = MetricsSubscriber(self.registry, self.bus)
        self.recorder_bridge: Optional[KubeEventBridge] = None
        self.periods = 0

    # ------------------------------------------------------------------ #
    # sink attachment
    # ------------------------------------------------------------------ #
    def attach_recorder(self, recorder) -> KubeEventBridge:
        """Subscribe a kube :class:`EventRecorder` to the event stream."""
        self.recorder_bridge = KubeEventBridge(recorder, self.bus)
        return self.recorder_bridge

    # ------------------------------------------------------------------ #
    # state-driven sampling (gauges are reads, not event folds)
    # ------------------------------------------------------------------ #
    def sample_period(
        self,
        now_ms: float,
        system,
        collector,
        detector=None,
        specs: Optional[Iterable[Any]] = None,
    ) -> None:
        """Refresh per-period gauges and publish a :class:`PeriodSampled`.

        Called right after ``collector.maybe_sample`` closes a period, so
        the gauges line up 1:1 with the collector's period samples.
        """
        self.periods += 1
        util = system.system_utilization()
        lc_parts = []
        be_parts = []
        if self.registry is not None:
            depth_g = self.registry.gauge(
                "node_queue_depth", "queued + running requests per worker"
            )
            for node in system.all_workers():
                shares = node.utilization_by_kind()
                lc_parts.append(shares[_LC])
                be_parts.append(shares[_BE])
                lc_q, be_q = node.queue_lengths()
                depth_g.set(lc_q + be_q + len(node.running), node=node.name)
        else:
            for node in system.all_workers():
                shares = node.utilization_by_kind()
                lc_parts.append(shares[_LC])
                be_parts.append(shares[_BE])
        lc_util = sum(lc_parts) / len(lc_parts) if lc_parts else 0.0
        be_util = sum(be_parts) / len(be_parts) if be_parts else 0.0
        if self.registry is not None:
            util_g = self.registry.gauge(
                "utilization", "mean worker utilization, by kind"
            )
            util_g.set(util, kind="system")
            util_g.set(lc_util, kind="lc")
            util_g.set(be_util, kind="be")
            if detector is not None and specs:
                slack_g = self.registry.gauge(
                    "qos_slack", "re-assurance slack δ = 1 - p95/γ, per service"
                )
                for spec in specs:
                    if not spec.is_lc:
                        continue
                    for node in system.all_workers():
                        slack = detector.slack_score(
                            node.name, spec.name, spec, now_ms=now_ms
                        )
                        if slack is not None:
                            slack_g.set(
                                slack, service=spec.name, node=node.name
                            )
            self.registry.gauge(
                "periods_sampled", "metric periods closed so far"
            ).set(self.periods)
        self.bus.publish(
            PeriodSampled(
                time_ms=now_ms,
                period_index=self.periods - 1,
                utilization=util,
                lc_utilization=lc_util,
                be_utilization=be_util,
            )
        )

    def record_stage_totals(
        self, now_ms: float, stage_ms: Dict[str, float]
    ) -> None:
        """Publish end-of-run stage wall-clock totals from the profiler."""
        if self.registry is not None:
            gauge = self.registry.gauge(
                "stage_wall_ms", "tick-loop stage wall-clock totals, per stage"
            )
            for stage, ms in stage_ms.items():
                gauge.set(ms, stage=stage)
        self.bus.publish(StageProfile(time_ms=now_ms, stage_ms=dict(stage_ms)))
