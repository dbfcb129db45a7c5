"""ObservabilityHub: one object wiring bus + tracer + registry together.

The runner owns exactly one hub per run when ``RunnerConfig.observe`` is
set.  The hub builds the :class:`EventBus` and subscribes both of its
consumers to it: the :class:`RequestTracer` and the
:class:`MetricsSubscriber` that feeds the :class:`MetricRegistry`.

It also carries the push-side helpers that need system state rather than
events: :meth:`sample_period` refreshes the per-period gauges
(utilization, queue depths, slack δ per LC service) and publishes a
:class:`PeriodSampled` event, and :meth:`record_stage_totals` folds the
stage profiler's wall-clock totals into gauges at end of run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.obs.bridges import MetricsSubscriber
from repro.obs.bus import EventBus
from repro.obs.events import PeriodSampled, StageProfile
from repro.obs.metrics import MetricRegistry
from repro.obs.tracing import RequestTracer

__all__ = ["ObservabilityHub"]


class ObservabilityHub:
    """Aggregates the three observability pillars behind one handle."""

    def __init__(self, *, ring_capacity: int = 4096) -> None:
        self.bus = EventBus(capacity=ring_capacity)
        self.tracer = RequestTracer(self.bus)
        self.registry = MetricRegistry()
        self._metrics_sub = MetricsSubscriber(self.registry, self.bus)
        self.periods = 0

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

        Called right after ``collector.maybe_sample`` closes a period; the
        utilization gauges read the sample it just took, so they equal the
        run's per-period series.
        """
        self.periods += 1
        m = collector.metrics
        util = m.utilization[-1]
        lc_util = m.lc_utilization[-1]
        be_util = m.be_utilization[-1]
        depth_g = self.registry.gauge(
            "node_queue_depth", "queued + running requests per worker"
        )
        for node in system.all_workers():
            lc_q, be_q = node.queue_lengths()
            depth_g.set(lc_q + be_q + len(node.running), node=node.name)
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
                        slack_g.set(slack, service=spec.name, node=node.name)
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
        gauge = self.registry.gauge(
            "stage_wall_ms", "tick-loop stage wall-clock totals, per stage"
        )
        for stage, ms in stage_ms.items():
            gauge.set(ms, stage=stage)
        self.bus.publish(StageProfile(time_ms=now_ms, stage_ms=dict(stage_ms)))
